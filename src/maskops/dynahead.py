"""Dynamic mask head numerics: per-cell kernels convolved against a unified
feature map fused from a resolution pyramid, plus the inference pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .masks import BinaryMask, Box, mask_to_box
from .suppression import ScoredMask, SuppressionConfig, suppress


def _as_f64(data, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if min(arr.shape) < 1:
        raise ValueError(f"{name} dims must be >= 1")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Dense H x W x C real feature tensor."""

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


@dataclass(frozen=True, eq=False)
class KernelGrid:
    """S x S grid of predicted convolution kernels, one D-vector per cell.

    D must equal the paired feature's channel count E (1x1 kernels) or 9E
    (3x3 kernels, flattened row-major as (ky, kx, channel)).
    """

    data: np.ndarray
    feature_channels: int

    def __post_init__(self):
        object.__setattr__(self, "data", _as_f64(self.data, "kernels", 3))
        if self.data.shape[0] != self.data.shape[1]:
            raise ValueError("kernel grid must be square")
        d = self.data.shape[2]
        if d not in (self.feature_channels, 9 * self.feature_channels):
            raise ValueError("kernel dim must be E or 9E")

    @property
    def grid_size(self) -> int:
        return self.data.shape[0]

    @property
    def kernel_size(self) -> int:
        return 1 if self.data.shape[2] == self.feature_channels else 3


@dataclass(frozen=True, eq=False)
class CategoryGrid:
    """S x S x num_classes category scores in [0, 1]."""

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

    @property
    def num_classes(self) -> int:
        return self.data.shape[2]


def _affine(values, channels: int) -> np.ndarray:
    """A group-norm scale or shift: one float64 per channel, shape (channels,)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (channels,):
        raise ValueError(f"affine params must have shape ({channels},)")
    return arr


@dataclass(frozen=True)
class NormConvStage:
    """One conv's weights plus its group-norm affine parameters."""

    kernel: np.ndarray
    gn_scale: np.ndarray
    gn_shift: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=np.float64)
        if k.ndim not in (2, 4):
            raise ValueError("kernel must be (cin, cout) or (3, 3, cin, cout)")
        if k.ndim == 4 and k.shape[:2] != (3, 3):
            raise ValueError("spatial kernel must be 3x3")
        scale = _affine(self.gn_scale, k.shape[-1])
        shift = _affine(self.gn_shift, k.shape[-1])
        for arr in (k, scale, shift):
            arr.setflags(write=False)
        object.__setattr__(self, "kernel", k)
        object.__setattr__(self, "gn_scale", scale)
        object.__setattr__(self, "gn_shift", shift)


def _check_groups(groups: int, *channel_counts: int):
    """Group norm splits channels into `groups` equal groups."""
    if groups < 1 or any(c % groups for c in channel_counts):
        raise ValueError(f"groups={groups} must be >= 1 and divide {channel_counts}")


@dataclass(frozen=True)
class FusionWeights:
    """Fixed parameters for fuse_pyramid, validated as one chain of C channels.

    stages[level] holds that level's (3x3 conv, group norm) stages — level i
    has i of them, each with a (3, 3, C, C) kernel, except that the deepest
    level's first conv consumes 2 extra coordinate channels: (3, 3, C + 2, C).
    `output` is the final 1x1 conv + group norm, a (C, E) kernel. `groups`
    divides both C and E.
    """

    stages: tuple
    output: NormConvStage
    groups: int
    eps: float = 1e-5

    def __post_init__(self):
        stages = tuple(tuple(level) for level in self.stages)
        object.__setattr__(self, "stages", stages)
        if not stages:
            raise ValueError("need at least one level")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        if self.output.kernel.ndim != 2:
            raise ValueError("output kernel must be (C, E)")
        c, e = self.output.kernel.shape
        _check_groups(self.groups, c, e)
        deepest = len(stages) - 1
        for li, level in enumerate(stages):
            if len(level) != li:
                raise ValueError(f"level {li} must have exactly {li} stages")
            for si, st in enumerate(level):
                cin = c + 2 if (li == deepest and si == 0) else c
                if st.kernel.shape != (3, 3, cin, c):
                    raise ValueError(
                        f"level {li} stage {si} kernel must be (3, 3, {cin}, {c})"
                    )

    @property
    def num_levels(self) -> int:
        return len(self.stages)

    @property
    def channels(self) -> int:
        return self.output.kernel.shape[0]

    @property
    def out_channels(self) -> int:
        return self.output.kernel.shape[1]

    @classmethod
    def seeded(
        cls,
        num_levels: int,
        channels: int,
        out_channels: int,
        seed: int = 0,
        groups: Optional[int] = None,
    ) -> "FusionWeights":
        """Deterministic pseudo-random weights (stand-in for trained ones)."""
        groups = min(32, channels) if groups is None else groups
        rng = np.random.default_rng(seed)

        def stage(cin: int, cout: int, spatial: bool) -> NormConvStage:
            shape = (3, 3, cin, cout) if spatial else (cin, cout)
            fan_in = 9 * cin if spatial else cin
            return NormConvStage(
                rng.normal(0.0, 1.0 / np.sqrt(fan_in), shape),
                1.0 + 0.1 * rng.normal(size=cout),
                0.1 * rng.normal(size=cout),
            )

        stages = []
        for li in range(num_levels):
            level = []
            for si in range(li):
                cin = channels + 2 if (li == num_levels - 1 and si == 0) else channels
                level.append(stage(cin, channels, True))
            stages.append(tuple(level))
        return cls(tuple(stages), stage(channels, out_channels, False), groups)


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
    if not (0 <= i < grid_size and 0 <= j < grid_size):
        raise ValueError("cell out of range")
    return i * grid_size + j


def coord_channels(height: int, width: int) -> FeatureMap:
    """Two channels of pixel coordinates mapped linearly to [-1, 1]:
    channel 0 = x (column), channel 1 = y (row). A size-1 axis maps to 0."""
    if height < 1 or width < 1:
        raise ValueError("dims must be >= 1")

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


def dynamic_conv_1x1(feature: FeatureMap, kernel) -> np.ndarray:
    """Per-pixel dot product of the feature with a length-E kernel (no bias)."""
    k = np.asarray(kernel, dtype=np.float64)
    if k.shape != (feature.channels,):
        raise ValueError("kernel length must equal feature channels")
    return feature.data @ k


def dynamic_conv_3x3(feature: FeatureMap, kernel) -> np.ndarray:
    """Cross-correlation with a 3x3xE kernel (flattened, row-major), zero
    padding 1, no bias; output size equals input size."""
    k = np.asarray(kernel, dtype=np.float64)
    if k.shape != (9 * feature.channels,):
        raise ValueError("kernel length must equal 9x feature channels")
    return _conv3x3(feature.data, k.reshape(3, 3, feature.channels, 1))[:, :, 0]


def _conv3x3(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    h, w, cin = x.shape
    padded = np.zeros((h + 2, w + 2, cin), dtype=np.float64)
    padded[1:-1, 1:-1] = x
    out = np.zeros((h, w, k.shape[3]), dtype=np.float64)
    for dy in range(3):
        for dx in range(3):
            out += padded[dy : dy + h, dx : dx + w] @ k[dy, dx]
    return out


def bilinear_upsample_2x(feature: FeatureMap) -> FeatureMap:
    """Double both spatial dims with half-pixel-center bilinear interpolation."""
    return FeatureMap(_upsample2x(feature.data))


def _interp_axis(x: np.ndarray, axis: int) -> np.ndarray:
    n = x.shape[axis]
    src = np.clip((np.arange(2 * n) + 0.5) / 2.0 - 0.5, 0.0, n - 1.0)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, n - 1)
    frac = src - lo
    shape = [1] * x.ndim
    shape[axis] = 2 * n
    frac = frac.reshape(shape)
    return np.take(x, lo, axis=axis) * (1.0 - frac) + np.take(x, hi, axis=axis) * frac


def _upsample2x(x: np.ndarray) -> np.ndarray:
    return _interp_axis(_interp_axis(x, 0), 1)


def group_norm(
    feature: FeatureMap,
    groups: int,
    epsilon: float = 1e-5,
    scale=None,
    shift=None,
) -> FeatureMap:
    """Normalize each channel group to mean 0 / variance 1 over
    (spatial x group-channels), then apply the affine scale and shift."""
    _check_groups(groups, feature.channels)
    out = _group_norm(feature.data, groups, epsilon)
    if scale is not None:
        out = out * _affine(scale, feature.channels)
    if shift is not None:
        out = out + _affine(shift, feature.channels)
    return FeatureMap(out)


def _group_norm(x: np.ndarray, groups: int, eps: float) -> np.ndarray:
    h, w, c = x.shape
    g = x.reshape(h, w, groups, c // groups)
    mu = g.mean(axis=(0, 1, 3), keepdims=True)
    var = g.var(axis=(0, 1, 3), keepdims=True)
    return ((g - mu) / np.sqrt(var + eps)).reshape(h, w, c)


def _norm_conv(x: np.ndarray, st: NormConvStage, groups: int, eps: float) -> np.ndarray:
    # FusionWeights and PyramidLevels have checked every shape on the way here.
    if st.kernel.ndim == 4:
        x = _conv3x3(x, st.kernel)
    else:
        x = x @ st.kernel
    return _group_norm(x, groups, eps) * st.gn_scale + st.gn_shift


def fuse_pyramid(pyramid: PyramidLevels) -> FeatureMap:
    """Merge all pyramid levels into one map at the finest (1/4) scale.

    Level i runs i repetitions of (3x3 conv -> group norm -> ReLU -> bilinear
    2x upsample); the deepest level gets normalized coordinate channels
    appended before its first conv. The upsampled maps are summed
    element-wise and passed through a final 1x1 conv -> group norm -> ReLU.
    """
    w = pyramid.fusion_weights
    acc = None
    deepest = len(pyramid.levels) - 1
    for li, level in enumerate(pyramid.levels):
        x = level.data
        if li == deepest and li > 0:
            coords = coord_channels(level.height, level.width)
            x = np.concatenate([x, coords.data], axis=2)
        for st in w.stages[li]:
            x = np.maximum(_norm_conv(x, st, w.groups, w.eps), 0.0)
            x = _upsample2x(x)
        acc = x if acc is None else acc + x
    out = np.maximum(_norm_conv(acc, w.output, w.groups, w.eps), 0.0)
    return FeatureMap(out)


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

    Output order is (grid index k, then category).
    """
    if category.grid_size != kernels.grid_size:
        raise ValueError("category and kernel grids must agree in size")
    if kernels.feature_channels != feature.channels:
        raise ValueError("kernel grid was built for a different channel count")
    conv = dynamic_conv_1x1 if kernels.kernel_size == 1 else dynamic_conv_3x3
    s = category.grid_size
    out = []
    for k in range(s * s):
        i, j = divmod(k, s)
        hits = np.flatnonzero(category.data[i, j] > CONFIDENCE_THRESHOLD)
        if hits.size == 0:
            continue
        binary = BinaryMask.from_array(
            mask_foreground(conv(feature, kernels.data[i, j]))
        )
        if binary.area == 0:
            continue
        out.extend(
            ScoredMask(binary, float(category.data[i, j, c]), int(c)) for c in hits
        )
    return out


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
    return [
        Instance(masks[i].mask, mask_to_box(masks[i].mask), s, masks[i].category)
        for i, s in zip(result.kept_indices, result.updated_scores)
    ]
