"""Training objective pieces: dice loss over soft masks, focal loss over
category scores, and the combined reduction. Gradients are analytic."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .dynahead import SoftMask, probabilities
from .masks import BinaryMask


@dataclass(frozen=True)
class LossConfig:
    """mask_weight is the multiplier on the mask term of the total loss."""

    mask_weight: float = 3.0

    def __post_init__(self):
        if self.mask_weight < 0.0:
            raise ValueError("mask_weight must be non-negative")


def _target_values(target) -> np.ndarray:
    if isinstance(target, BinaryMask):
        return target.to_array().astype(np.float64)
    arr = np.asarray(target, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("target must be a 2-D map")
    return (arr != 0.0).astype(np.float64)


def dice_loss(pred, target, epsilon: float = 1e-6) -> Tuple[float, np.ndarray]:
    """1 - soft dice coefficient, with the analytic gradient w.r.t. pred.

    D = 2 sum(p q) / (sum(p^2) + sum(q^2) + eps); returns (1 - D, dL/dp).
    """
    # Not SoftMask(pred): that would make the caller's own array read-only.
    p = pred.values if isinstance(pred, SoftMask) else probabilities(pred, 2)
    q = _target_values(target)
    if p.shape != q.shape:
        raise ValueError("pred and target must share dimensions")
    inter = float((p * q).sum())
    denom = float((p * p).sum() + (q * q).sum()) + epsilon
    dice = 2.0 * inter / denom
    # d(1-D)/dp_i = (4 p_i inter - 2 q_i denom) / denom^2
    grad = (4.0 * inter * p - 2.0 * denom * q) / (denom * denom)
    return 1.0 - dice, grad


def focal_loss(
    pred_prob: float,
    target: int,
    alpha: float = 0.25,
    gamma: float = 2.0,
) -> Tuple[float, float]:
    """-alpha_t (1 - p_t)^gamma log(p_t) with its gradient w.r.t. pred_prob,
    where p_t = pred_prob when target=1 and 1 - pred_prob otherwise."""
    pred_prob = float(probabilities(pred_prob, 0))
    if target not in (0, 1):
        raise ValueError("target must be 0 or 1")
    p_t = pred_prob if target == 1 else 1.0 - pred_prob
    a_t = alpha if target == 1 else 1.0 - alpha
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


def total_loss(
    cate_terms: Sequence[float],
    mask_terms: Sequence[float],
    config: LossConfig = LossConfig(),
) -> float:
    """Mean of the category (focal) terms plus mask_weight times the mean of
    the mask (dice) terms; an empty mask-term list contributes zero."""
    cate = float(np.mean(cate_terms)) if len(cate_terms) else 0.0
    mask = float(np.mean(mask_terms)) if len(mask_terms) else 0.0
    return cate + config.mask_weight * mask
