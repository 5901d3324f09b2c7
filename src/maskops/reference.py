"""Slow, loop-based reference implementations used by the verification suite
and the test oracles. Nothing here is optimized on purpose."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .dynahead import MASK_THRESHOLD
from .masks import mask_iou
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
                term = math.exp((cmax[i] * cmax[i] - iou * iou) / sigma)
            else:
                den = 1.0 - cmax[i]
                term = (1.0 - iou) / den if den > 0.0 else math.inf
            if term < decay:
                decay = term
        updated.append(scores[j] * decay)
    return updated


def greedy_keep(masks: Sequence[ScoredMask], iou_threshold: float) -> list:
    """Greedy keep/remove walk recomputing IoUs directly from the masks
    (independent of any precomputed matrix). Masks must be score-sorted."""
    kept = []
    for j, cand in enumerate(masks):
        if all(mask_iou(masks[i].mask, cand.mask) <= iou_threshold for i in kept):
            kept.append(j)
    return kept


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
