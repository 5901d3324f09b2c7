"""Mask score suppression: greedy, soft sequential, and one-shot decay variants.

`hard_nms` and `soft_nms` are deliberately plain sequential reference
algorithms (each step depends on the previous one), while `fast_nms` and
`matrix_nms` are single-pass vectorized operators. That asymmetry is the
point: the benchmark compares the cost of a sequential dependency chain
against a one-shot formulation on identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .masks import (
    BinaryMask,
    IoUMatrix,
    pairwise_iou_matrix,
    require_finite,
    require_int,
)

METHODS = ("hard", "soft", "fast", "matrix")
DECAY_KINDS = ("linear", "gauss")


@dataclass(frozen=True)
class ScoredMask:
    """A mask with a confidence score in (0, 1] and an integer category label."""

    mask: BinaryMask
    score: float
    category: int = 0

    def __post_init__(self):
        if not isinstance(self.mask, BinaryMask):
            kind = type(self.mask).__name__
            raise ValueError(f"mask must be a BinaryMask, got {kind}")
        # A mask-set file would store a bool score as JSON true, which its
        # reader rejects.
        if not 0.0 < require_finite(self.score, "score") <= 1.0:
            raise ValueError(f"score must be a number in (0, 1], got {self.score!r}")
        require_int(self.category, "category", 0)


@dataclass(frozen=True)
class DecayFn:
    """Monotonically decreasing IoU penalty: linear `1 - iou` or
    gaussian `exp(-iou**2 / sigma)`.

    sigma is at least the smallest normal float64 (about 2.2e-308): the
    decay divides exponents in [-1, 0] by sigma, and below that bound the
    quotient can overflow."""

    kind: str = "gauss"
    sigma: float = 0.5

    def __post_init__(self):
        if self.kind not in DECAY_KINDS:
            raise ValueError(f"kind must be one of {DECAY_KINDS}")
        tiny = np.finfo(np.float64).tiny
        if require_finite(self.sigma, "sigma") < tiny:
            raise ValueError(f"sigma must be at least {tiny}, got {self.sigma!r}")

    def penalty(self, iou):
        """f(iou); accepts scalars or arrays.

        `soft_nms` is the only caller. Its gaussian penalty goes through
        np.exp, not math.exp, so that on 1-2 masks it equals `matrix_nms`'s
        array np.exp bit for bit (verify's `soft-matrix-n2`).
        """
        if self.kind == "linear":
            return 1.0 - iou
        return np.exp(-(iou * iou) / self.sigma)


@dataclass(frozen=True)
class SuppressionConfig:
    """Parameters shared by `suppress`; defaults follow the common inference setup."""

    method: str = "matrix"
    decay: DecayFn = field(default_factory=DecayFn)
    iou_threshold: float = 0.5
    score_threshold: float = 0.05
    top_k: Optional[int] = 100
    class_agnostic: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if not isinstance(self.decay, DecayFn):
            raise ValueError(f"decay must be a DecayFn, got {self.decay!r}")
        if not 0.0 <= require_finite(self.iou_threshold, "iou_threshold") <= 1.0:
            raise ValueError("iou_threshold must be in [0, 1]")
        if require_finite(self.score_threshold, "score_threshold") < 0.0:
            raise ValueError("score_threshold must be non-negative")
        if self.top_k is not None:
            require_int(self.top_k, "top_k", 1)
        if type(self.class_agnostic) is not bool:
            raise ValueError(f"class_agnostic must be a bool, got {self.class_agnostic!r}")


def _config_or_default(config) -> SuppressionConfig:
    """`config` itself, or the default SuppressionConfig when it is None;
    anything else is a ValueError, not a config to fall back from."""
    if config is None:
        return SuppressionConfig()
    if not isinstance(config, SuppressionConfig):
        raise ValueError(f"config must be a SuppressionConfig or None, got {config!r}")
    return config


@dataclass(frozen=True)
class SuppressionResult:
    """Kept entries as indices into the input list plus their updated scores.

    The per-method functions list kept entries in input order; `suppress`
    orders them by (-updated_score, original index).
    """

    kept_indices: tuple
    updated_scores: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.kept_indices)
        scores = tuple(float(s) for s in self.updated_scores)
        object.__setattr__(self, "kept_indices", idx)
        object.__setattr__(self, "updated_scores", scores)
        if len(idx) != len(scores):
            raise ValueError("indices and scores must align")
        if len(set(idx)) != len(idx):
            raise ValueError("kept indices must be unique")
        if any(not 0.0 < s <= 1.0 for s in scores):
            raise ValueError("updated scores must be in (0, 1]")

    def __len__(self) -> int:
        return len(self.kept_indices)


def sort_by_score(masks: Sequence[ScoredMask]):
    """Indices that order `masks` by descending score, original order on ties."""
    return sorted(range(len(masks)), key=lambda i: (-masks[i].score, i))


def _sorted_scores(masks: Sequence[ScoredMask], ious: IoUMatrix) -> np.ndarray:
    """The input check every method shares: `ious` has one row per mask and
    the masks are sorted by descending score. Returns the scores."""
    if ious.n != len(masks):
        raise ValueError("IoU matrix size does not match the mask list")
    scores = np.array([m.score for m in masks], dtype=np.float64)
    if scores.size > 1 and np.any(np.diff(scores) > 0.0):
        raise ValueError("masks must be sorted by descending score")
    return scores


def _keep_mask(updated, score_threshold: float):
    """The keep rule: a score above the threshold and above zero survives.

    Takes a float or an array and answers in kind."""
    return (updated > score_threshold) & (updated > 0.0)


def matrix_nms(
    masks: Sequence[ScoredMask],
    ious: IoUMatrix,
    decay: DecayFn,
    score_threshold: float = 0.0,
) -> SuppressionResult:
    """One-shot decay of all scores from the pairwise IoU matrix.

    For each mask j the decay is the minimum over suppressors i of
    f(iou[i, j]) / f(cmax[i]), where cmax[i] is the largest IoU between i and
    any higher-scored mask (the chance i itself was suppressed). No recursion,
    no data-dependent loop: two matrix reductions.
    """
    scores = _sorted_scores(masks, ious)
    v = ious.values
    # Each reduction has an identity (`initial=`), so n = 0 takes this path too.
    cmax = v.max(axis=0, initial=0.0)
    if decay.kind == "gauss":
        # min of exp(x/sigma) == exp(min(x)/sigma): one exp pass over n values.
        # The single reused temporary matters at N ~ 500: a second n x n
        # buffer pushes each call into fresh mmap traffic.
        expo = np.multiply(v, v)
        np.subtract((cmax * cmax)[:, None], expo, out=expo)
        dvec = expo.min(axis=0, initial=np.inf)
        dvec /= decay.sigma
        np.exp(dvec, out=dvec)
    else:
        den = 1.0 - cmax
        singular = den <= 0.0
        recip = np.zeros_like(den)
        np.divide(1.0, den, out=recip, where=~singular)
        terms = np.subtract(1.0, v)
        terms *= recip[:, None]
        if singular.any():
            # A suppressor that is itself certainly suppressed never decays
            # anyone; +inf loses every min against a finite ratio.
            terms[singular, :] = np.inf
        # Column 0 is all zeros, so row 0 is never singular: dvec is finite.
        dvec = terms.min(axis=0, initial=np.inf)
    np.minimum(dvec, 1.0, out=dvec)
    updated = scores * dvec
    keep = _keep_mask(updated, score_threshold)
    idx = np.flatnonzero(keep)
    return SuppressionResult(tuple(idx.tolist()), tuple(updated[idx].tolist()))


def hard_nms(
    masks: Sequence[ScoredMask], ious: IoUMatrix, iou_threshold: float
) -> SuppressionResult:
    """Greedy walk in score order: keep a mask iff its IoU with every
    previously kept mask is <= iou_threshold. Scores are unchanged.

    Sequential reference algorithm: each keep decision depends on all
    previous ones, so there is nothing to vectorize across masks.
    """
    scores = _sorted_scores(masks, ious)
    rows = ious.values.tolist()
    kept = []
    for j in range(len(rows)):
        for i in kept:
            if rows[i][j] > iou_threshold:
                break
        else:
            kept.append(j)
    return SuppressionResult(tuple(kept), tuple(float(scores[j]) for j in kept))


def fast_nms(
    masks: Sequence[ScoredMask], ious: IoUMatrix, iou_threshold: float
) -> SuppressionResult:
    """One-shot relaxation of hard_nms: keep a mask iff its IoU with every
    higher-scored mask (kept or not) is <= iou_threshold.

    Strictly more aggressive than hard_nms — a mask can be removed by a
    neighbor that was itself removed — so its kept set is always a subset.
    """
    scores = _sorted_scores(masks, ious)
    keep = ious.values.max(axis=0, initial=0.0) <= iou_threshold
    idx = np.flatnonzero(keep)
    return SuppressionResult(tuple(idx.tolist()), tuple(scores[idx].tolist()))


def soft_nms(
    masks: Sequence[ScoredMask],
    decay: DecayFn,
    score_threshold: float = 0.05,
    *,
    ious: IoUMatrix,
) -> SuppressionResult:
    """Sequential score decay: repeatedly select the highest-current-score
    mask, keep it, and multiply every unprocessed mask's score by the decay
    penalty of its IoU with the selection.

    Masks whose score falls below score_threshold are dropped and no longer
    suppress anything. Sequential reference algorithm: every selection
    depends on all decays so far.
    """
    scores = _sorted_scores(masks, ious).tolist()
    sym = (ious.values + ious.values.T).tolist()
    penalty = decay.penalty
    alive = list(range(len(masks)))
    kept = []
    while alive:
        # `alive` stays in index order, so ties go to the lowest index.
        best = max(alive, key=scores.__getitem__)
        if not _keep_mask(scores[best], score_threshold):
            break  # scores only decay; nothing left can pass the keep test
        kept.append(best)
        alive.remove(best)
        for k in alive:
            scores[k] = scores[k] * penalty(sym[best][k])
        alive = [k for k in alive if scores[k] >= score_threshold]
    # A kept mask is never decayed again, so `scores` holds its kept score.
    kept.sort()
    return SuppressionResult(tuple(kept), tuple(scores[k] for k in kept))


def run_method(
    method: str,
    masks: Sequence[ScoredMask],
    ious: IoUMatrix,
    config: SuppressionConfig,
) -> SuppressionResult:
    """Run one method on score-sorted masks and their IoU matrix, with the
    decay and thresholds taken from `config`."""
    if method == "matrix":
        return matrix_nms(masks, ious, config.decay, config.score_threshold)
    if method == "hard":
        return hard_nms(masks, ious, config.iou_threshold)
    if method == "fast":
        return fast_nms(masks, ious, config.iou_threshold)
    if method == "soft":
        return soft_nms(masks, config.decay, config.score_threshold, ious=ious)
    raise ValueError(f"method must be one of {METHODS}")


def suppress(
    masks: Sequence[ScoredMask],
    config: Optional[SuppressionConfig] = None,
) -> SuppressionResult:
    """Run the configured method per category (or on the whole pool when
    class_agnostic), then apply the global score threshold and top_k.

    Result indices refer to the input list and are ordered by descending
    updated score with original index as the tie-break.
    """
    cfg = _config_or_default(config)
    # One sort of the whole pool: each group keeps its (-score, index) order.
    groups = {}
    for i in sort_by_score(masks):
        key = 0 if cfg.class_agnostic else masks[i].category
        groups.setdefault(key, []).append(i)
    pairs = []
    for members in groups.values():
        group = [masks[i] for i in members]
        ious = pairwise_iou_matrix([m.mask for m in group])
        res = run_method(cfg.method, group, ious, cfg)
        pairs.extend(
            (members[j], s) for j, s in zip(res.kept_indices, res.updated_scores)
        )
    # hard and fast return their input scores, so the threshold applies here.
    pairs = [(i, s) for i, s in pairs if _keep_mask(s, cfg.score_threshold)]
    pairs.sort(key=lambda t: (-t[1], t[0]))
    if cfg.top_k is not None:
        pairs = pairs[: cfg.top_k]
    return SuppressionResult(
        tuple(i for i, _ in pairs), tuple(s for _, s in pairs)
    )
