"""Dynamic mask head numerics: per-cell kernels convolved against a unified
feature map fused from a resolution pyramid, plus the inference pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .masks import BinaryMask, Box, masks_to_boxes, pack_masks, require_int
from .masks import _chunks, _row_words
from .suppression import ScoredMask, SuppressionConfig, suppress


def _check_finite(arr: np.ndarray, name: str):
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")


def _as_f64(data, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D")
    _check_finite(arr, name)
    if min(arr.shape) < 1:
        raise ValueError(f"{name} dims must be >= 1")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Dense H x W x C real feature tensor.

    Ownership: a float64 array is wrapped, not copied, and made read-only,
    even when it is the caller's own; pass a copy to keep yours writable.
    """

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _as_f64(self.data, "feature", 3))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


def _kernel_side(d: int, e: int) -> int:
    """The side of a dynamic kernel of length D against E feature channels:
    D = E is a 1x1 kernel and D = 9E a 3x3 kernel, flattened row-major as
    (ky, kx, channel). Any other D is a ValueError."""
    if d == e:
        return 1
    if d == 9 * e:
        return 3
    raise ValueError(f"kernel dim must be E or 9E for E = {e}, got {d}")


@dataclass(frozen=True, eq=False)
class KernelGrid:
    """S x S grid of predicted convolution kernels, one D-vector per cell,
    for a feature of `feature_channels` = E channels (see `_kernel_side`).

    Ownership: a float64 array is wrapped, not copied, and made read-only,
    even when it is the caller's own; pass a copy to keep yours writable.
    """

    data: np.ndarray
    feature_channels: int

    def __post_init__(self):
        object.__setattr__(self, "data", _as_f64(self.data, "kernels", 3))
        if self.data.shape[0] != self.data.shape[1]:
            raise ValueError("kernel grid must be square")
        require_int(self.feature_channels, "feature_channels", 1)
        _kernel_side(self.data.shape[2], self.feature_channels)

    @property
    def grid_size(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True, eq=False)
class CategoryGrid:
    """S x S x num_classes category scores in [0, 1].

    Ownership: a float64 array is wrapped, not copied, and made read-only,
    even when it is the caller's own; pass a copy to keep yours writable.
    """

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _as_f64(self.data, "categories", 3))
        if self.data.shape[0] != self.data.shape[1]:
            raise ValueError("category grid must be square")
        if np.any(self.data < 0.0) or np.any(self.data > 1.0):
            raise ValueError("category scores must lie in [0, 1]")

    @property
    def grid_size(self) -> int:
        return self.data.shape[0]


def _affine(values, channels: int) -> np.ndarray:
    """A group-norm scale or shift: one finite float64 per channel, shape
    (channels,)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (channels,):
        raise ValueError(f"affine params must have shape ({channels},)")
    _check_finite(arr, "affine params")
    return arr


@dataclass(frozen=True)
class NormConvStage:
    """One conv's weights plus its group-norm affine parameters.

    Ownership: each float64 array is wrapped, not copied, and made read-only,
    even when it is the caller's own; pass a copy to keep yours writable.
    """

    kernel: np.ndarray
    gn_scale: np.ndarray
    gn_shift: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=np.float64)
        if k.ndim not in (2, 4):
            raise ValueError("kernel must be (cin, cout) or (3, 3, cin, cout)")
        _check_finite(k, "kernel")
        scale = _affine(self.gn_scale, k.shape[-1])
        shift = _affine(self.gn_shift, k.shape[-1])
        for arr in (k, scale, shift):
            arr.setflags(write=False)
        object.__setattr__(self, "kernel", k)
        object.__setattr__(self, "gn_scale", scale)
        object.__setattr__(self, "gn_shift", shift)


GN_GROUPS = 32
"""fuse_pyramid's group norms split C channels into min(GN_GROUPS, C) groups."""

GN_EPS = 1e-5
"""Added to each group's variance before the square root in group norm."""


def _check_groups(groups: int, *channel_counts: int):
    """Group norm splits channels into `groups` equal groups."""
    require_int(groups, "groups", 1)
    if any(c % groups for c in channel_counts):
        raise ValueError(f"groups={groups} must divide {channel_counts}")


def _level_shapes(num_levels: int, c: int) -> list:
    """The kernel shape of each level stage: level i has i (3, 3, C, C) convs,
    except that the deepest level's first conv also reads the two coordinate
    channels, so it is (3, 3, C + 2, C)."""
    deepest = num_levels - 1
    return [
        [(3, 3, c + 2 if (li, si) == (deepest, 0) else c, c) for si in range(li)]
        for li in range(num_levels)
    ]


@dataclass(frozen=True)
class FusionWeights:
    """Fixed parameters for fuse_pyramid, validated as one chain of C channels.

    stages[level] holds that level's (3x3 conv, group norm) stages, with the
    kernel shapes given by `_level_shapes`. `output` is the final 1x1 conv +
    group norm, a (C, E) kernel. Every group norm uses `groups` groups, which
    must divide both C and E.
    """

    stages: tuple
    output: NormConvStage

    def __post_init__(self):
        stages = tuple(tuple(level) for level in self.stages)
        object.__setattr__(self, "stages", stages)
        if not stages:
            raise ValueError("need at least one level")
        if self.output.kernel.ndim != 2:
            raise ValueError("output kernel must be (C, E)")
        c, e = self.output.kernel.shape
        _check_groups(self.groups, c, e)
        for li, (level, want) in enumerate(zip(stages, _level_shapes(len(stages), c))):
            got = [st.kernel.shape for st in level]
            if got != want:
                raise ValueError(f"level {li} kernels must be {want}, got {got}")

    @property
    def num_levels(self) -> int:
        return len(self.stages)

    @property
    def channels(self) -> int:
        return self.output.kernel.shape[0]

    @property
    def out_channels(self) -> int:
        return self.output.kernel.shape[1]

    @property
    def groups(self) -> int:
        return min(GN_GROUPS, self.channels)

    @classmethod
    def seeded(
        cls, num_levels: int, channels: int, out_channels: int, seed: int = 0
    ) -> "FusionWeights":
        """Deterministic weights from an int seed >= 0 (stand-in for trained
        ones); the three sizes are ints >= 1."""
        require_int(num_levels, "num_levels", 1)
        require_int(channels, "channels", 1)
        require_int(out_channels, "out_channels", 1)
        rng = np.random.default_rng(require_int(seed, "seed", 0))

        def stage(shape: tuple) -> NormConvStage:
            fan_in = math.prod(shape[:-1])
            return NormConvStage(
                rng.normal(0.0, 1.0 / np.sqrt(fan_in), shape),
                1.0 + 0.1 * rng.normal(size=shape[-1]),
                0.1 * rng.normal(size=shape[-1]),
            )

        stages = tuple(
            tuple(stage(shape) for shape in level)
            for level in _level_shapes(num_levels, channels)
        )
        return cls(stages, stage((channels, out_channels)))


@dataclass(frozen=True, eq=False)
class PyramidLevels:
    """Ordered feature maps from finest (1/4 scale) to coarsest, each level
    half the spatial size of the previous, plus the fusion weights.

    All levels share the same channel count; the two coordinate channels
    consumed by the deepest level's first conv are appended inside
    fuse_pyramid, not stored here.
    """

    levels: tuple
    fusion_weights: FusionWeights

    def __post_init__(self):
        levels = tuple(self.levels)
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise ValueError("pyramid needs at least one level")
        c = levels[0].channels
        for prev, cur in zip(levels, levels[1:]):
            if cur.channels != c:
                raise ValueError("all levels must share channel count")
            if prev.height != 2 * cur.height or prev.width != 2 * cur.width:
                raise ValueError("each level must be exactly half the previous")
        if self.fusion_weights.num_levels != len(levels):
            raise ValueError("fusion weights cover a different level count")
        if self.fusion_weights.channels != c:
            raise ValueError("fusion weights expect a different channel count")


def grid_index(i: int, j: int, grid_size: int) -> int:
    """Flattened cell index k = i * grid_size + j."""
    require_int(grid_size, "grid_size", 1)
    require_int(i, "i", 0)
    require_int(j, "j", 0)
    if i >= grid_size or j >= grid_size:
        raise ValueError("cell out of range")
    return i * grid_size + j


def coord_channels(height: int, width: int) -> FeatureMap:
    """Two channels of pixel coordinates mapped linearly to [-1, 1]:
    channel 0 = x (column), channel 1 = y (row). A size-1 axis maps to 0."""
    require_int(height, "height", 1)
    require_int(width, "width", 1)

    def axis(n: int) -> np.ndarray:
        if n == 1:
            return np.zeros(1)
        # (2i - (n-1)) / (n-1): integer numerators, so the grid negates
        # exactly under a flip (linspace is not bitwise antisymmetric).
        return (2.0 * np.arange(n) - (n - 1)) / (n - 1)

    xs, ys = axis(width), axis(height)
    out = np.empty((height, width, 2), dtype=np.float64)
    out[:, :, 0] = xs[None, :]
    out[:, :, 1] = ys[:, None]
    return FeatureMap(out)


def dynamic_conv(feature: FeatureMap, kernels) -> np.ndarray:
    """The (H, W, n) logits of n dynamic kernels, the rows of the (n, D)
    `kernels`, against the (H, W, E) feature, as one `_conv` with no bias.

    D sets the kernel size (`_kernel_side`). A GEMM column may differ from
    the one-kernel product in the last bits, which depend on n and on the
    column's place; the conv-vs-loops check bounds the gap at a relative
    1e-6 and requires integer inputs to match the loop oracle exactly."""
    k = np.asarray(kernels, dtype=np.float64)
    if k.ndim != 2:
        raise ValueError("kernels must be an (n, D) array")
    _check_finite(k, "kernels")
    n, e = k.shape[0], feature.channels
    if _kernel_side(k.shape[1], e) == 1:
        return _conv(feature.data, k.T)
    return _conv(feature.data, k.reshape(n, 3, 3, e).transpose(1, 2, 3, 0))


def _conv(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The (H, W, cout) cross-correlation of the (H, W, cin) map x with a
    (cin, cout) 1x1 kernel, one GEMM, or a (3, 3, cin, cout) 3x3 kernel, one
    product per tap over x zero-padded by 1, so the output keeps H x W."""
    h, w, cin = x.shape
    if kernel.ndim == 2:
        return (x.reshape(h * w, cin) @ kernel).reshape(h, w, kernel.shape[1])
    padded = np.zeros((h + 2, w + 2, cin), dtype=np.float64)
    padded[1:-1, 1:-1] = x
    out = np.zeros((h, w, kernel.shape[3]), dtype=np.float64)
    for dy in range(3):
        for dx in range(3):
            out += padded[dy : dy + h, dx : dx + w] @ kernel[dy, dx]
    return out


def bilinear_upsample_2x(feature: FeatureMap) -> FeatureMap:
    """Double both spatial dims with half-pixel-center bilinear interpolation."""
    return FeatureMap(_upsample2x(feature.data))


def _interp_axis(x: np.ndarray, axis: int) -> np.ndarray:
    """Double `axis` with half-pixel-center linear interpolation.

    Output 2i samples input i - 1/4 and output 2i + 1 samples i + 1/4, so
    inside the axis the weights are the constants 0.25/0.75, and the first
    and last outputs clamp to the edge inputs with weights 1/0. Each output
    is a * (1 - f) + b * f for its two inputs a, b and fraction f."""
    n = x.shape[axis]
    shape = list(x.shape)
    shape[axis] = 2 * n
    out = np.empty(shape)
    a, o = np.moveaxis(x, axis, 0), np.moveaxis(out, axis, 0)
    quarter, three_quarters = a * 0.25, a * 0.75
    np.add(quarter[:-1], three_quarters[1:], out=o[2::2])
    np.add(three_quarters[:-1], quarter[1:], out=o[1:-1:2])
    o[0] = a[0] * 1.0 + a[min(1, n - 1)] * 0.0
    o[-1] = a[-1] * 1.0 + a[-1] * 0.0
    return out


def _upsample2x(x: np.ndarray) -> np.ndarray:
    return _interp_axis(_interp_axis(x, 0), 1)


def group_norm(feature: FeatureMap, groups: int, scale, shift) -> FeatureMap:
    """Normalize each channel group to mean 0 / variance 1 over
    (spatial x group-channels), then apply the per-channel affine scale and
    shift."""
    c = feature.channels
    _check_groups(groups, c)
    scale, shift = _affine(scale, c), _affine(shift, c)
    return FeatureMap(_group_norm(feature.data, groups, scale, shift))


def _group_norm(x: np.ndarray, groups: int, scale, shift) -> np.ndarray:
    """A new array: x with each group of channels centered, then times the
    per-channel scale / sqrt(variance + GN_EPS) in one multiply, plus shift.
    The mean, then the variance of the centered values (precise even when
    the mean dwarfs the spread), sum along the pixel axis first, one value per
    channel (the means as one BLAS product), then over each group."""
    h, w, c = x.shape
    per = c // groups
    count = h * w * per
    flat = x.reshape(h * w, c)
    mean = (np.ones(h * w) @ flat).reshape(groups, per).sum(axis=1) / count
    out = flat - np.repeat(mean, per)
    squares = np.einsum("ij,ij->j", out, out)
    var = squares.reshape(groups, per).sum(axis=1) / count
    out *= scale / np.repeat(np.sqrt(var + GN_EPS), per)
    out += shift
    return out.reshape(h, w, c)


def _norm_conv_relu(x: np.ndarray, st: NormConvStage, groups: int) -> np.ndarray:
    """conv -> group norm and its affine -> ReLU, in place after the conv."""
    # FusionWeights and PyramidLevels have checked every shape on the way here.
    x = _group_norm(_conv(x, st.kernel), groups, st.gn_scale, st.gn_shift)
    return np.maximum(x, 0.0, out=x)


def fuse_pyramid(pyramid: PyramidLevels) -> FeatureMap:
    """Merge all pyramid levels into one map at the finest (1/4) scale.

    Level i runs i repetitions of (3x3 conv -> group norm -> ReLU -> bilinear
    2x upsample); the deepest level gets normalized coordinate channels
    appended before its first conv. The upsampled maps are summed
    element-wise and passed through a final 1x1 conv -> group norm -> ReLU.

    The upsample is linear, so levels 1 and up stop before their last one:
    their half-size maps are summed in level order, upsampled once and added
    to level 0. That order, and group norm's pixel-axis sums (`_group_norm`),
    move the last bits, so the result stays within a relative 1e-9 of
    `reference.fuse_pyramid_loops` (the fuse-vs-loops check) rather than
    matching a per-level upsample bit for bit.
    """
    w = pyramid.fusion_weights
    deepest = len(pyramid.levels) - 1
    half = None
    for li, level in enumerate(pyramid.levels[1:], 1):
        x = level.data
        if li == deepest:
            coords = coord_channels(level.height, level.width)
            x = np.concatenate([x, coords.data], axis=2)
        *inner, last = w.stages[li]
        for st in inner:
            x = _upsample2x(_norm_conv_relu(x, st, w.groups))
        x = _norm_conv_relu(x, last, w.groups)
        # x is a new array, so it can take the sum.
        half = x if half is None else np.add(half, x, out=x)
    fused = pyramid.levels[0].data
    if half is not None:
        up = _upsample2x(half)
        fused = np.add(fused, up, out=up)
    return FeatureMap(_norm_conv_relu(fused, w.output, w.groups))


CONFIDENCE_THRESHOLD = 0.1
"""A (cell, class) pair yields a mask only if its category score exceeds this."""

MASK_THRESHOLD = 0.5
"""A pixel is foreground where the sigmoid of its mask logit is at least this."""


def _mask_logit_cutoff() -> float:
    """The logit at which the sigmoid reaches MASK_THRESHOLD = 0.5 in float64.

    For x >= 0 the sigmoid 1 / (1 + exp(-x)) is at least 0.5. Below 0 it is
    computed as e / (1 + e) with e = np.exp(x), which reaches 0.5 only where
    e rounds to exactly 1.0. So the cutoff is the most negative x with
    np.exp(x) == 1.0. That depends on the platform's exp, so it is found by
    bisection over the float64 bit patterns of [-1, 0] rather than written
    down; `maskbench verify` compares it with `reference.sigmoid_foreground`.
    """

    def exp_is_one(bits: int) -> bool:
        x = -np.array([bits], dtype=np.int64).view(np.float64)
        return bool(np.exp(x)[0] == 1.0)

    lo, hi = 0, int(np.array([1.0]).view(np.int64)[0])  # bits of 0.0 and 1.0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if exp_is_one(mid):
            lo = mid
        else:
            hi = mid
    return -float(np.array([lo], dtype=np.int64).view(np.float64)[0])


_MASK_LOGIT_CUTOFF = _mask_logit_cutoff()


def mask_foreground(logits: np.ndarray) -> np.ndarray:
    """Boolean foreground of a mask's logits: sigmoid(logits) >= MASK_THRESHOLD,
    as one comparison. +inf is foreground, -inf background, NaN an error."""
    if np.isnan(logits).any():
        raise ValueError("mask logits must not be NaN")
    return logits >= _MASK_LOGIT_CUTOFF


def assemble_masks(
    category: CategoryGrid, kernels: KernelGrid, feature: FeatureMap
) -> list:
    """Instantiate a ScoredMask for every (cell, class) whose category score
    exceeds CONFIDENCE_THRESHOLD: convolve the cell's kernel with the
    feature and keep the pixels whose sigmoid reaches MASK_THRESHOLD. Cells
    yielding empty masks are dropped.

    The hit cells' kernels go through one batched product (`dynamic_conv`)
    and one `mask_foreground` call per block of cells, and each block's
    masks are packed into one shared read-only block of words
    (`masks.pack_masks`). A block is one `masks._chunks` slice of H x W
    masks' words, so its logits (64 float64 a word) stay within 8 MiB
    however many cells are hit. A cell hit by several classes yields one
    BinaryMask that its ScoredMasks share. Output order is (grid index k,
    then category).
    """
    if category.grid_size != kernels.grid_size:
        raise ValueError("category and kernel grids must agree in size")
    if kernels.feature_channels != feature.channels:
        raise ValueError("kernel grid was built for a different channel count")
    # np.nonzero walks (i, j, class) in C order, which is the output order.
    rows, cols, classes = np.nonzero(category.data > CONFIDENCE_THRESHOLD)
    new_cell = np.diff(rows * category.grid_size + cols, prepend=-1) != 0
    hit_kernels = kernels.data[rows[new_cell], cols[new_cell]]
    mask_bytes = 8 * feature.height * _row_words(feature.width)
    cell_masks = []
    for part in _chunks(len(hit_kernels), mask_bytes):
        # Unnamed, each block's logits are freed once they are thresholded.
        foreground = mask_foreground(dynamic_conv(feature, hit_kernels[part]))
        cell_masks += pack_masks(foreground.transpose(2, 0, 1))
    owners = np.cumsum(new_cell) - 1
    scores = category.data[rows, cols, classes]
    return [
        ScoredMask(cell_masks[q], s, c)
        for q, s, c in zip(owners.tolist(), scores.tolist(), classes.tolist())
        if cell_masks[q].area
    ]


@dataclass(frozen=True)
class Instance:
    """One final detection: binary mask, tight box, updated score, category."""

    mask: BinaryMask
    box: Box
    score: float
    category: int


def inference_pipeline(
    category: CategoryGrid,
    kernels: KernelGrid,
    pyramid: PyramidLevels,
    config: Optional[SuppressionConfig] = None,
) -> list:
    """fuse_pyramid -> assemble_masks -> suppress -> boxes, deterministically."""
    masks = assemble_masks(category, kernels, fuse_pyramid(pyramid))
    result = suppress(masks, config)
    kept = [masks[i] for i in result.kept_indices]
    # assemble_masks drops empty masks, so every kept mask has a box.
    boxes = masks_to_boxes([m.mask for m in kept])
    return [
        Instance(m.mask, box, s, m.category)
        for m, box, s in zip(kept, boxes, result.updated_scores)
    ]
