"""Training objective pieces: dice loss over soft masks, focal loss over
category scores, and the combined reduction. Gradients are analytic."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .masks import BinaryMask, require_finite, require_int


def probabilities(values, ndim: int) -> np.ndarray:
    """Floating-point `values` with `ndim` non-empty dims, as float64, whose
    entries lie strictly inside (0, 1), which also rules out NaN and infinities.

    A float64 input is returned as is, not copied, and stays writable."""
    arr = np.asarray(values)
    if arr.dtype.kind != "f" or arr.ndim != ndim or arr.size == 0:
        raise ValueError(f"values must be a non-empty {ndim}-D float array")
    arr = arr.astype(np.float64, copy=False)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("values must lie strictly inside (0, 1)")
    return arr


def _target_values(target) -> np.ndarray:
    """A BinaryMask, or a 2-D map whose every value is 0 or 1, as float64."""
    if isinstance(target, BinaryMask):
        return target.to_array().astype(np.float64)
    arr = np.asarray(target, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("target must be a 2-D map")
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValueError("target values must be 0 or 1")
    return arr


DICE_EPSILON = 1e-6
"""Added to the dice denominator so that it stays positive when both masks are empty."""


def dice_loss(pred, target) -> Tuple[float, np.ndarray]:
    """1 - soft dice coefficient, with the analytic gradient w.r.t. pred.

    D = 2 sum(p q) / (sum(p^2) + sum(q^2) + DICE_EPSILON); returns (1 - D, dL/dp).
    """
    p = probabilities(pred, 2)
    q = _target_values(target)
    if p.shape != q.shape:
        raise ValueError("pred and target must share dimensions")
    inter = float((p * q).sum())
    denom = float((p * p).sum() + (q * q).sum()) + DICE_EPSILON
    dice = 2.0 * inter / denom
    # d(1-D)/dp_i = (4 p_i inter - 2 q_i denom) / denom^2
    grad = (4.0 * inter * p - 2.0 * denom * q) / (denom * denom)
    return 1.0 - dice, grad


FOCAL_ALPHA = 0.25
"""Focal loss weight of the positive class; the negative class gets
1 - FOCAL_ALPHA."""


def focal_loss(
    pred_prob: float, target: int, gamma: float = 2.0
) -> Tuple[float, float]:
    """-alpha_t (1 - p_t)^gamma log(p_t) with its gradient w.r.t. pred_prob,
    where p_t = pred_prob and alpha_t = FOCAL_ALPHA when target=1, and
    p_t = 1 - pred_prob and alpha_t = 1 - FOCAL_ALPHA otherwise.
    target is an int, 0 or 1, and gamma a finite real >= 0."""
    pred_prob = float(probabilities(pred_prob, 0))
    if require_int(target, "target", 0) > 1:
        raise ValueError(f"target must be 0 or 1, got {target!r}")
    if require_finite(gamma, "gamma") < 0.0:
        raise ValueError("gamma must be non-negative")
    p_t = pred_prob if target == 1 else 1.0 - pred_prob
    a_t = FOCAL_ALPHA if target == 1 else 1.0 - FOCAL_ALPHA
    one_minus = 1.0 - p_t
    loss = -a_t * one_minus**gamma * np.log(p_t)
    # dL/dp_t, then flip sign for target=0 since p_t = 1 - p.
    if gamma == 0.0:
        dp_t = -a_t / p_t
    else:
        dp_t = a_t * (
            gamma * one_minus ** (gamma - 1.0) * np.log(p_t) - one_minus**gamma / p_t
        )
    grad = dp_t if target == 1 else -dp_t
    return float(loss), float(grad)


MASK_WEIGHT = 3.0
"""The weight lambda of the mask term in the total loss L_cate + lambda * L_mask."""


def total_loss(cate_terms: Sequence[float], mask_terms: Sequence[float]) -> float:
    """Mean of the category (focal) terms plus MASK_WEIGHT times the mean of
    the mask (dice) terms; an empty term list contributes zero."""
    cate = float(np.mean(cate_terms)) if len(cate_terms) else 0.0
    mask = float(np.mean(mask_terms)) if len(mask_terms) else 0.0
    return cate + MASK_WEIGHT * mask
