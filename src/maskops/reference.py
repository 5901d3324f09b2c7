"""Slow, loop-based reference implementations used by the verification suite
and the test oracles. Nothing here is optimized on purpose."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .dynahead import GN_EPS, MASK_THRESHOLD, PyramidLevels, coord_channels
from .masks import BinaryMask, Box, mask_iou
from .suppression import ScoredMask


def naive_matrix_decay(
    scores: Sequence[float],
    iou_rows: Sequence[Sequence[float]],
    kind: str,
    sigma: float = 0.5,
) -> list:
    """Direct double-loop evaluation of the one-shot decay rule.

    For each j: decay_j = min over suppressors i < j of f(iou[i][j]) / f(cmax_i),
    where cmax_i is the max IoU of i with any higher-scored mask and f is the
    linear or gaussian penalty. decay_0 = 1. Returns the updated scores.
    """
    n = len(scores)
    cmax = [0.0] * n
    for j in range(n):
        for i in range(j):
            if iou_rows[i][j] > cmax[j]:
                cmax[j] = iou_rows[i][j]
    updated = []
    for j in range(n):
        decay = 1.0
        for i in range(j):
            iou = iou_rows[i][j]
            if kind == "gauss":
                expo = cmax[i] * cmax[i] - iou * iou
                # A positive exponent gives a term above the starting decay
                # of 1, which never lowers it; math.exp overflows past ~709.78.
                if expo > 0.0:
                    continue
                term = math.exp(expo / sigma)
            else:
                den = 1.0 - cmax[i]
                term = (1.0 - iou) / den if den > 0.0 else math.inf
            if term < decay:
                decay = term
        updated.append(scores[j] * decay)
    return updated


def rle_decode_repeat(counts: Sequence[int], height: int, width: int) -> BinaryMask:
    """Decode one mask's RLE counts by expanding every run to its pixels
    (background first) with `np.repeat`, then packing them."""
    values = np.arange(len(counts)) % 2 == 1
    flat = np.repeat(values, np.asarray(counts, dtype=np.int64))
    return BinaryMask.from_array(flat.reshape(height, width))


def rle_encode_runs(mask: BinaryMask) -> list:
    """One mask's RLE counts (background first) from the differences of its
    unpacked pixels."""
    flat = mask.to_array().reshape(-1)
    edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1  # where a new run starts
    bounds = np.concatenate(([0], edges, [flat.size]))
    counts = np.diff(bounds)
    if flat[0]:  # leading zero-length background run
        counts = np.concatenate(([0], counts))
    return counts.tolist()


def paint_shape(spec, cy: float, cx: float, ry: float, rx: float) -> BinaryMask:
    """Paint one shape of a `SceneSpec`, clipped to the canvas, from a full
    H x W pixel array."""
    ys = np.arange(spec.height)[:, None]
    xs = np.arange(spec.width)[None, :]
    if spec.shape == "rectangle":
        arr = (np.abs(ys - cy) <= ry) & (np.abs(xs - cx) <= rx)
    else:
        arr = ((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 <= 1.0
    return BinaryMask.from_array(arr)


def mask_box(mask: BinaryMask) -> Box | None:
    """Tight bounding box read from the mask's pixels; None if it is empty."""
    arr = mask.to_array()
    ys = np.flatnonzero(arr.any(axis=1))
    xs = np.flatnonzero(arr.any(axis=0))
    if ys.size == 0:
        return None
    return Box(int(xs[0]), int(ys[0]), int(xs[-1]), int(ys[-1]))


def greedy_keep(masks: Sequence[ScoredMask], iou_threshold: float) -> list:
    """Greedy keep/remove walk recomputing IoUs directly from the masks
    (independent of any precomputed matrix). Masks must be score-sorted."""
    kept = []
    for j, cand in enumerate(masks):
        if all(mask_iou(masks[i].mask, cand.mask) <= iou_threshold for i in kept):
            kept.append(j)
    return kept


def soft_nms_loops(
    scores: Sequence[float],
    iou_rows: Sequence[Sequence[float]],
    decay,
    score_threshold: float,
) -> tuple:
    """Soft NMS one (winner, survivor) pair at a time, each penalty its own
    `decay.penalty` call: repeatedly select the highest current score (the
    lowest index on ties), keep it if it is above the threshold and zero,
    and decay every other survivor. `iou_rows` is the strictly upper IoU
    matrix of score-sorted masks. Returns (kept indices, their scores) in
    index order."""
    scores = list(scores)
    alive = list(range(len(scores)))
    kept = []
    while alive:
        # `alive` stays in index order, so ties go to the lowest index.
        best = max(alive, key=scores.__getitem__)
        if not (scores[best] > score_threshold and scores[best] > 0.0):
            break  # scores only decay; nothing left can pass the keep test
        kept.append(best)
        alive.remove(best)
        for k in alive:
            iou = iou_rows[min(best, k)][max(best, k)]
            scores[k] = scores[k] * decay.penalty(iou)
        alive = [k for k in alive if scores[k] >= score_threshold]
    # A kept mask is never decayed again, so `scores` holds its kept score.
    kept.sort()
    return kept, [scores[k] for k in kept]


def column_max_keep(iou_rows: Sequence[Sequence[float]], iou_threshold: float) -> list:
    """Keep j iff every higher-scored i (kept or not) has iou[i][j] <= threshold."""
    n = len(iou_rows)
    kept = []
    for j in range(n):
        if all(iou_rows[i][j] <= iou_threshold for i in range(j)):
            kept.append(j)
    return kept


def conv1x1_loops(feature: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Per-pixel dot product, one multiply at a time."""
    h, w, c = feature.shape
    out = np.zeros((h, w), dtype=np.float64)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for ch in range(c):
                acc += feature[y, x, ch] * kernel[ch]
            out[y, x] = acc
    return out


def conv3x3_loops(feature: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Sliding 3x3 window with zero padding, one multiply at a time.

    kernel is the flat length-9C vector laid out as (ky, kx, channel).
    """
    h, w, c = feature.shape
    k = np.asarray(kernel, dtype=np.float64).reshape(3, 3, c)
    out = np.zeros((h, w), dtype=np.float64)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for ky in range(3):
                for kx in range(3):
                    sy, sx = y + ky - 1, x + kx - 1
                    if 0 <= sy < h and 0 <= sx < w:
                        for ch in range(c):
                            acc += feature[sy, sx, ch] * k[ky, kx, ch]
            out[y, x] = acc
    return out


def group_norm_loops(feature: np.ndarray, groups: int, scale, shift) -> np.ndarray:
    """Group norm one value at a time: each group's mean, then its variance
    about that mean, over (pixels x group channels), then
    (x - mean) / sqrt(variance + GN_EPS) * scale + shift per channel."""
    h, w, c = feature.shape
    per = c // groups
    out = np.zeros((h, w, c), dtype=np.float64)
    for g in range(groups):
        chans = range(g * per, (g + 1) * per)
        count = h * w * per
        total = 0.0
        for y in range(h):
            for x in range(w):
                for ch in chans:
                    total += feature[y, x, ch]
        mean = total / count
        total = 0.0
        for y in range(h):
            for x in range(w):
                for ch in chans:
                    total += (feature[y, x, ch] - mean) ** 2
        std = math.sqrt(total / count + GN_EPS)
        for y in range(h):
            for x in range(w):
                for ch in chans:
                    norm = (feature[y, x, ch] - mean) / std
                    out[y, x, ch] = norm * scale[ch] + shift[ch]
    return out


def upsample2x_loops(feature: np.ndarray) -> np.ndarray:
    """2x bilinear upsampling with half-pixel centers, one output pixel at a
    time: output (oy, ox) samples input ((oy + 0.5) / 2 - 0.5, (ox + 0.5) / 2
    - 0.5), clamped to the input, from its four neighbours. Rows are blended
    first, then columns, each as a * (1 - f) + b * f."""
    h, w, c = feature.shape

    def source(o: int, n: int) -> tuple:
        pos = min(max((o + 0.5) / 2.0 - 0.5, 0.0), n - 1.0)
        lo = math.floor(pos)
        return lo, min(lo + 1, n - 1), pos - lo

    out = np.zeros((2 * h, 2 * w, c), dtype=np.float64)
    for oy in range(2 * h):
        y0, y1, fy = source(oy, h)
        for ox in range(2 * w):
            x0, x1, fx = source(ox, w)
            for ch in range(c):
                left = feature[y0, x0, ch] * (1.0 - fy) + feature[y1, x0, ch] * fy
                right = feature[y0, x1, ch] * (1.0 - fy) + feature[y1, x1, ch] * fy
                out[oy, ox, ch] = left * (1.0 - fx) + right * fx
    return out


def fuse_pyramid_loops(pyramid: PyramidLevels) -> np.ndarray:
    """Pyramid fusion built from the loop oracles: per level, coordinate
    channels on the deepest, then (3x3 conv -> group norm -> ReLU -> 2x
    upsample) per stage; the levels' sum goes through 1x1 conv -> group
    norm -> ReLU. Convolutions run one output channel at a time."""
    weights = pyramid.fusion_weights
    groups = weights.groups
    deepest = len(pyramid.levels) - 1

    def stage(x: np.ndarray, st) -> np.ndarray:
        # One flat kernel per output channel, laid out as each loop expects.
        loops = conv1x1_loops if st.kernel.ndim == 2 else conv3x3_loops
        flat = st.kernel.reshape(-1, st.kernel.shape[-1]).T
        conv = np.stack([loops(x, k) for k in flat], axis=2)
        return np.maximum(group_norm_loops(conv, groups, st.gn_scale, st.gn_shift), 0.0)

    acc = None
    for li, level in enumerate(pyramid.levels):
        x = level.data
        if li == deepest and li > 0:
            coords = coord_channels(level.height, level.width).data
            x = np.concatenate([x, coords], axis=2)
        for st in weights.stages[li]:
            x = upsample2x_loops(stage(x, st))
        acc = x if acc is None else acc + x
    return stage(acc, weights.output)


def sigmoid_foreground(logits: np.ndarray) -> np.ndarray:
    """Foreground by the explicit rule: the two-branch sigmoid, clipped into
    the open interval (0, 1), compared with MASK_THRESHOLD."""
    x = np.asarray(logits, dtype=np.float64)
    prob = np.empty_like(x)
    pos = x >= 0
    prob[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    prob[~pos] = ex / (1.0 + ex)
    prob = np.clip(prob, np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0))
    return prob >= MASK_THRESHOLD


def finite_difference_grad(
    fn: Callable[[np.ndarray], float], x: np.ndarray, step: float = 1e-4
) -> np.ndarray:
    """Central finite differences of a scalar function, element by element."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + step
        hi = fn(x)
        xf[i] = orig - step
        lo = fn(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2.0 * step)
    return grad
