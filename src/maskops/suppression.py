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

from .masks import BinaryMask, IoUMatrix, mask_iou, pairwise_iou_matrix

METHODS = ("hard", "soft", "fast", "matrix")
DECAY_KINDS = ("linear", "gauss")


@dataclass(frozen=True)
class ScoredMask:
    """A mask with a confidence score in (0, 1] and an integer category label."""

    mask: BinaryMask
    score: float
    category: int = 0

    def __post_init__(self):
        if not 0.0 < self.score <= 1.0:
            raise ValueError("score must be in (0, 1]")
        if not (type(self.category) is int and self.category >= 0):
            raise ValueError(f"category must be an int >= 0, got {self.category!r}")


@dataclass(frozen=True)
class DecayFn:
    """Monotonically decreasing IoU penalty: linear `1 - iou` or
    gaussian `exp(-iou**2 / sigma)`."""

    kind: str = "gauss"
    sigma: float = 0.5

    def __post_init__(self):
        if self.kind not in DECAY_KINDS:
            raise ValueError(f"kind must be one of {DECAY_KINDS}")
        if not self.sigma > 0.0:  # NaN fails too
            raise ValueError("sigma must be positive")

    def penalty(self, iou):
        """f(iou); accepts scalars or arrays.

        Gaussian penalties always go through np.exp so scalar and vectorized
        call sites produce bit-identical values.
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
        if not 0.0 <= self.iou_threshold <= 1.0:
            raise ValueError("iou_threshold must be in [0, 1]")
        if not self.score_threshold >= 0.0:  # NaN fails too
            raise ValueError("score_threshold must be non-negative")
        # bool is a subclass of int, so compare exact types.
        if self.top_k is not None and not (type(self.top_k) is int and self.top_k >= 1):
            raise ValueError("top_k must be None or an int >= 1")


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
    order = sorted(range(len(masks)), key=lambda i: (-masks[i].score, i))
    return list(order)


def _scores_sorted(masks: Sequence[ScoredMask]) -> np.ndarray:
    scores = np.array([m.score for m in masks], dtype=np.float64)
    if scores.size > 1 and np.any(np.diff(scores) > 0.0):
        raise ValueError("masks must be sorted by descending score")
    return scores


def _check_matrix(masks: Sequence[ScoredMask], ious: IoUMatrix):
    if ious.n != len(masks):
        raise ValueError("IoU matrix size does not match the mask list")


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
    _check_matrix(masks, ious)
    scores = _scores_sorted(masks)
    n = scores.size
    if n == 0:
        return SuppressionResult((), ())
    v = ious.values
    cmax = v.max(axis=0)
    if decay.kind == "gauss":
        # min of exp(x/sigma) == exp(min(x)/sigma): one exp pass over n values.
        # The single reused temporary matters at N ~ 500: a second n x n
        # buffer pushes each call into fresh mmap traffic.
        expo = np.multiply(v, v)
        np.subtract((cmax * cmax)[:, None], expo, out=expo)
        dvec = expo.min(axis=0)
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
        dvec = terms.min(axis=0)
        dvec = np.where(np.isfinite(dvec), dvec, 1.0)
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
    _check_matrix(masks, ious)
    scores = _scores_sorted(masks)
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
    _check_matrix(masks, ious)
    scores = _scores_sorted(masks)
    if scores.size == 0:
        return SuppressionResult((), ())
    keep = ious.values.max(axis=0) <= iou_threshold
    idx = np.flatnonzero(keep)
    return SuppressionResult(tuple(idx.tolist()), tuple(scores[idx].tolist()))


def soft_nms(
    masks: Sequence[ScoredMask],
    decay: DecayFn,
    score_threshold: float = 0.05,
    ious: Optional[IoUMatrix] = None,
) -> SuppressionResult:
    """Sequential score decay: repeatedly select the highest-current-score
    mask, keep it, and multiply every unprocessed mask's score by the decay
    penalty of its IoU with the selection.

    Masks whose score falls below score_threshold are dropped and no longer
    suppress anything. When `ious` is omitted the pairwise IoUs are computed
    on demand from the masks. Sequential reference algorithm: every selection
    depends on all decays so far.
    """
    n = len(masks)
    scores = _scores_sorted(masks).tolist()
    if ious is not None:
        _check_matrix(masks, ious)
        sym = (ious.values + ious.values.T).tolist()

        def iou_at(a: int, b: int) -> float:
            return sym[a][b]

    else:

        def iou_at(a: int, b: int) -> float:
            return mask_iou(masks[a].mask, masks[b].mask)

    penalty = decay.penalty
    alive = list(range(n))
    kept = []
    kept_scores = []
    while alive:
        best = alive[0]
        for k in alive[1:]:
            if scores[k] > scores[best]:
                best = k
        s = scores[best]
        if not _keep_mask(s, score_threshold):
            break  # scores only decay; nothing left can pass the keep test
        kept.append(best)
        kept_scores.append(s)
        alive.remove(best)
        if not alive:
            break
        survivors = []
        for k in alive:
            scores[k] = scores[k] * penalty(iou_at(best, k))
            if scores[k] >= score_threshold:
                survivors.append(k)
        alive = survivors
    order = sorted(range(len(kept)), key=lambda t: kept[t])
    return SuppressionResult(
        tuple(kept[t] for t in order), tuple(kept_scores[t] for t in order)
    )


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
    cfg = config or SuppressionConfig()
    if not masks:
        return SuppressionResult((), ())
    groups = {}
    for i, m in enumerate(masks):
        groups.setdefault(0 if cfg.class_agnostic else m.category, []).append(i)
    pairs = []
    for members in groups.values():
        order = sort_by_score([masks[i] for i in members])
        orig = [members[p] for p in order]
        group = [masks[i] for i in orig]
        ious = pairwise_iou_matrix([m.mask for m in group])
        res = run_method(cfg.method, group, ious, cfg)
        pairs.extend(
            (orig[j], s) for j, s in zip(res.kept_indices, res.updated_scores)
        )
    # hard and fast return their input scores, so the threshold applies here.
    pairs = [(i, s) for i, s in pairs if _keep_mask(s, cfg.score_threshold)]
    pairs.sort(key=lambda t: (-t[1], t[0]))
    if cfg.top_k is not None:
        pairs = pairs[: cfg.top_k]
    return SuppressionResult(
        tuple(i for i, _ in pairs), tuple(s for _, s in pairs)
    )
