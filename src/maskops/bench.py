"""Timing harness and oracle verification suite.

The benchmark follows a fixed protocol: the pairwise IoU matrix is built once
and shared (its build time is reported separately), each method gets one
warm-up run, and the reported suppression time is the median of `repeats`
timed runs. Correctness cross-checks against the loop oracles run before any
timing so a fast-but-wrong implementation can never produce a report.
"""

from __future__ import annotations

import statistics
import time
import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import formats, reference
from .dynahead import CategoryGrid, FusionWeights, KernelGrid, PyramidLevels
from .dynahead import FeatureMap, inference_pipeline
from .losses import dice_loss, focal_loss
from .masks import (
    BinaryMask,
    mask_iou,
    pairwise_iou_matrix,
    rle_decode,
    rle_encode,
)
from .scenes import SceneSpec, gen_scene
from .suppression import (
    METHODS,
    DecayFn,
    ScoredMask,
    SuppressionConfig,
    fast_nms,
    hard_nms,
    matrix_nms,
    soft_nms,
    sort_by_score,
)


class VerificationError(RuntimeError):
    """An oracle cross-check failed."""


@dataclass(frozen=True)
class BenchReport:
    """One method's timing: IoU-matrix build and suppression step are
    reported separately; checksum is crc32 over the kept scores' raw bytes."""

    method: str
    n: int
    iou_matrix_ms: float
    suppression_ms: float
    kept: int
    checksum: str

    def __post_init__(self):
        if self.iou_matrix_ms < 0.0 or self.suppression_ms < 0.0:
            raise ValueError("times must be non-negative")


def score_checksum(scores: Sequence[float]) -> str:
    payload = np.asarray(scores, dtype="<f8").tobytes()
    return f"{zlib.crc32(payload):08x}"


def _median_ms(samples: Sequence[float]) -> float:
    return statistics.median(samples) * 1000.0


def _cross_check(masks, ious, config):
    """Oracle cross-checks on the exact inputs about to be timed."""
    rows = ious.values.tolist()
    scores = [m.score for m in masks]
    got = matrix_nms(masks, ious, config.decay)
    updated = dict(zip(got.kept_indices, got.updated_scores))
    want = reference.naive_matrix_decay(
        scores, rows, config.decay.kind, config.decay.sigma
    )
    for j, w in enumerate(want):
        if abs(updated.get(j, 0.0) - w) > 1e-6:
            raise VerificationError(f"matrix decay mismatch at index {j}")
    hard = hard_nms(masks, ious, config.iou_threshold)
    if list(hard.kept_indices) != reference.greedy_keep(masks, config.iou_threshold):
        raise VerificationError("hard_nms disagrees with the greedy oracle")
    fast = fast_nms(masks, ious, config.iou_threshold)
    if list(fast.kept_indices) != reference.column_max_keep(
        rows, config.iou_threshold
    ):
        raise VerificationError("fast_nms disagrees with the column-max oracle")
    if not set(fast.kept_indices) <= set(hard.kept_indices):
        raise VerificationError("fast_nms kept a mask hard_nms removed")
    with_m = soft_nms(masks, config.decay, config.score_threshold, ious=ious)
    without = soft_nms(masks, config.decay, config.score_threshold)
    if with_m != without:
        raise VerificationError("soft_nms matrix and on-demand routes disagree")


def run_bench(
    scene: Sequence[ScoredMask],
    methods: Sequence[str] = METHODS,
    repeats: int = 20,
    config: Optional[SuppressionConfig] = None,
    verify: bool = True,
) -> list:
    """Benchmark the suppression methods on one scene (pooled class-agnostic).

    The full cross-check pass is skipped only when verify=False (it can
    dominate wall time for large N); timing always starts after it.
    """
    if repeats < 3:
        raise ValueError("repeats must be >= 3")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods: {unknown}")
    if not scene:
        raise ValueError("scene is empty; nothing to benchmark")
    cfg = config or SuppressionConfig()
    order = sort_by_score(scene)
    masks = [scene[i] for i in order]
    mask_list = [m.mask for m in masks]

    ious = pairwise_iou_matrix(mask_list)
    build_times = []
    for _ in range(min(repeats, 5)):
        t0 = time.perf_counter()
        pairwise_iou_matrix(mask_list)
        build_times.append(time.perf_counter() - t0)
    iou_ms = _median_ms(build_times)

    if verify:
        _cross_check(masks, ious, cfg)

    runners = {
        "matrix": lambda: matrix_nms(
            masks, ious, cfg.decay, score_threshold=cfg.score_threshold
        ),
        "hard": lambda: hard_nms(masks, ious, cfg.iou_threshold),
        "fast": lambda: fast_nms(masks, ious, cfg.iou_threshold),
        "soft": lambda: soft_nms(
            masks, cfg.decay, cfg.score_threshold, ious=ious
        ),
    }
    reports = []
    for method in methods:
        run = runners[method]
        result = run()  # warm-up
        checksum = score_checksum(result.updated_scores)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = run()
            times.append(time.perf_counter() - t0)
            if score_checksum(out.updated_scores) != checksum:
                raise VerificationError(f"{method} results vary across repeats")
        reports.append(
            BenchReport(
                method, len(masks), iou_ms, _median_ms(times), len(result), checksum
            )
        )
    return reports


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    passed: bool
    detail: str


def _random_mask(rng, max_dim: int = 24) -> BinaryMask:
    h = int(rng.integers(1, max_dim + 1))
    w = int(rng.integers(1, max_dim + 1))
    density = rng.uniform(0.0, 1.0)
    return BinaryMask.from_array(rng.random((h, w)) < density)


def _random_scored(rng, n: int, dim: int = 16) -> list:
    scores = np.sort(rng.uniform(0.05, 1.0, n))[::-1]
    out = []
    for s in scores:
        arr = rng.random((dim, dim)) < rng.uniform(0.2, 0.8)
        arr[rng.integers(dim), rng.integers(dim)] = True  # never empty
        out.append(ScoredMask(BinaryMask.from_array(arr), float(s), 0))
    return out


def _check_rle(rng) -> VerifyCheck:
    for _ in range(300):
        m = _random_mask(rng)
        rle = rle_encode(m)
        back = rle_decode(rle)
        if back != m or rle_encode(back) != rle:
            return VerifyCheck("rle-round-trip", False, f"failed on {m!r}")
    return VerifyCheck("rle-round-trip", True, "300 random masks")


def _check_iou(rng) -> VerifyCheck:
    masks = [m.mask for m in _random_scored(rng, 40)]
    got = pairwise_iou_matrix(masks)
    for i in range(len(masks)):
        if masks[i].area and mask_iou(masks[i], masks[i]) != 1.0:
            return VerifyCheck("pairwise-iou", False, "self IoU != 1")
        for j in range(i + 1, len(masks)):
            direct = mask_iou(masks[i], masks[j])
            if direct != mask_iou(masks[j], masks[i]) or direct != got.values[i, j]:
                return VerifyCheck("pairwise-iou", False, f"mismatch at {(i, j)}")
            if not 0.0 <= direct <= 1.0:
                return VerifyCheck("pairwise-iou", False, "IoU out of bounds")
    return VerifyCheck("pairwise-iou", True, "40 masks, all pairs")


def _scene_batch(seed: int, count: int) -> list:
    scenes = []
    for t in range(count):
        spec = SceneSpec(
            height=48,
            width=48,
            num_instances=2 + t % 5,
            num_duplicates_per_instance=1 + t % 4,
            shape="ellipse" if t % 2 else "rectangle",
            seed=seed + t,
        )
        scene = gen_scene(spec)
        order = sort_by_score(scene)
        scenes.append([scene[i] for i in order])
    return scenes


def _check_matrix_decay(rng) -> VerifyCheck:
    for t, masks in enumerate(_scene_batch(101, 60)):
        ious = pairwise_iou_matrix([m.mask for m in masks])
        decay = DecayFn("linear" if t % 2 else "gauss")
        got = matrix_nms(masks, ious, decay)
        updated = dict(zip(got.kept_indices, got.updated_scores))
        want = reference.naive_matrix_decay(
            [m.score for m in masks], ious.values.tolist(), decay.kind, decay.sigma
        )
        for j, w in enumerate(want):
            if abs(updated.get(j, 0.0) - w) > 1e-6:
                return VerifyCheck(
                    "matrix-vs-naive", False, f"scene {t} index {j}: {w}"
                )
    return VerifyCheck("matrix-vs-naive", True, "60 scenes, both decays, 1e-6")


def _check_soft_agreement(rng) -> VerifyCheck:
    for t in range(300):
        masks = _random_scored(rng, int(rng.integers(1, 3)), dim=8)
        decay = DecayFn("linear" if t % 2 else "gauss")
        ious = pairwise_iou_matrix([m.mask for m in masks])
        a = matrix_nms(masks, ious, decay)
        b = soft_nms(masks, decay, score_threshold=0.0)
        if a != b:
            return VerifyCheck("soft-matrix-n2", False, f"case {t}: {a} vs {b}")
    return VerifyCheck("soft-matrix-n2", True, "300 cases of N <= 2, exact")


def _check_hard_greedy(rng) -> VerifyCheck:
    for t, masks in enumerate(_scene_batch(707, 60)):
        ious = pairwise_iou_matrix([m.mask for m in masks])
        thr = (0.3, 0.5, 0.7)[t % 3]
        got = hard_nms(masks, ious, thr)
        if list(got.kept_indices) != reference.greedy_keep(masks, thr):
            return VerifyCheck("hard-vs-greedy", False, f"scene {t}")
    return VerifyCheck("hard-vs-greedy", True, "60 scenes, exact kept sets")


def _check_fast_subset(rng) -> VerifyCheck:
    for t, masks in enumerate(_scene_batch(909, 60)):
        ious = pairwise_iou_matrix([m.mask for m in masks])
        thr = (0.3, 0.5, 0.7)[t % 3]
        fast = set(fast_nms(masks, ious, thr).kept_indices)
        hard = set(hard_nms(masks, ious, thr).kept_indices)
        if not fast <= hard:
            return VerifyCheck("fast-subset-hard", False, f"scene {t}")
    return VerifyCheck("fast-subset-hard", True, "60 scenes")


def _check_conv(rng) -> VerifyCheck:
    from .dynahead import dynamic_conv_1x1, dynamic_conv_3x3

    for t in range(30):
        h, w, c = (int(rng.integers(1, 9)) for _ in range(3))
        feat = rng.normal(size=(h, w, c))
        k1 = rng.normal(size=c)
        k3 = rng.normal(size=9 * c)
        fm = FeatureMap(feat)
        if not np.allclose(
            dynamic_conv_1x1(fm, k1),
            reference.conv1x1_loops(feat, k1),
            rtol=1e-6,
            atol=1e-12,
        ):
            return VerifyCheck("conv-vs-loops", False, f"1x1 case {t}")
        if not np.allclose(
            dynamic_conv_3x3(fm, k3),
            reference.conv3x3_loops(feat, k3),
            rtol=1e-6,
            atol=1e-12,
        ):
            return VerifyCheck("conv-vs-loops", False, f"3x3 case {t}")
        ints = rng.integers(-5, 6, size=(h, w, c)).astype(np.float64)
        ik = rng.integers(-5, 6, size=9 * c).astype(np.float64)
        if not np.array_equal(
            dynamic_conv_3x3(FeatureMap(ints), ik),
            reference.conv3x3_loops(ints, ik),
        ):
            return VerifyCheck("conv-vs-loops", False, f"integer case {t}")
    return VerifyCheck("conv-vs-loops", True, "30 shapes + integer bit-exactness")


def _check_loss_grads(rng) -> VerifyCheck:
    for t in range(30):
        p = rng.uniform(0.05, 0.95, size=(6, 6))
        q = (rng.random((6, 6)) < 0.5).astype(np.float64)
        _, grad = dice_loss(p, q)
        fd = reference.finite_difference_grad(lambda x: dice_loss(x, q)[0], p.copy())
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-8)
        if np.max(np.abs(grad - fd) / denom) > 1e-4:
            return VerifyCheck("loss-gradients", False, f"dice case {t}")
        prob = float(rng.uniform(0.05, 0.95))
        target = int(rng.integers(0, 2))
        _, g = focal_loss(prob, target)
        arr = np.array([prob])
        fd1 = reference.finite_difference_grad(
            lambda x: focal_loss(float(x[0]), target)[0], arr
        )[0]
        if abs(g - fd1) / max(abs(g), abs(fd1), 1e-8) > 1e-4:
            return VerifyCheck("loss-gradients", False, f"focal case {t}")
    return VerifyCheck("loss-gradients", True, "30 dice + 30 focal vs central FD")


def seeded_pipeline_inputs(seed: int = 0):
    """A small deterministic scene for the end-to-end pipeline."""
    rng = np.random.default_rng(seed)
    channels, out_channels, s, classes = 8, 8, 5, 3
    weights = FusionWeights.seeded(4, channels, out_channels, seed=seed)
    levels = tuple(
        FeatureMap(rng.normal(size=(32 >> i, 32 >> i, channels))) for i in range(4)
    )
    pyramid = PyramidLevels(levels, weights)
    cat = rng.uniform(0.0, 0.09, size=(s, s, classes))
    hot = rng.random((s, s, classes)) < 0.25
    cat[hot] = rng.uniform(0.3, 0.95, size=int(hot.sum()))
    kernels = rng.normal(0.0, 0.8, size=(s, s, out_channels))
    return CategoryGrid(cat), KernelGrid(kernels, out_channels), pyramid


def _pipeline_json(seed: int = 11) -> str:
    cat, kernels, pyramid = seeded_pipeline_inputs(seed)
    instances = inference_pipeline(cat, kernels, pyramid)
    return formats.to_json(formats.instances_to_dict(instances))


def _check_pipeline(rng) -> VerifyCheck:
    base = _pipeline_json()
    for _ in range(2):
        if _pipeline_json() != base:
            return VerifyCheck("pipeline-determinism", False, "rerun differs")
    if not base.strip():
        return VerifyCheck("pipeline-determinism", False, "empty output")
    return VerifyCheck("pipeline-determinism", True, "3 runs, byte-equal")


def _check_scene_determinism(rng) -> VerifyCheck:
    spec = SceneSpec(seed=42, num_instances=5, num_duplicates_per_instance=4)
    a, b = gen_scene(spec), gen_scene(spec)
    if len(a) != spec.total_masks:
        return VerifyCheck("scene-generation", False, f"expected {spec.total_masks}")
    same = all(
        x.mask == y.mask and x.score == y.score and x.category == y.category
        for x, y in zip(a, b)
    )
    if not same:
        return VerifyCheck("scene-generation", False, "same seed, different scene")
    return VerifyCheck("scene-generation", True, "25 masks, rerun identical")


def run_verification(seed: int = 0) -> list:
    """The full oracle suite at CLI scale; returns one VerifyCheck per area."""
    rng = np.random.default_rng(seed)
    checks = [
        _check_rle(rng),
        _check_iou(rng),
        _check_matrix_decay(rng),
        _check_soft_agreement(rng),
        _check_hard_greedy(rng),
        _check_fast_subset(rng),
        _check_conv(rng),
        _check_loss_grads(rng),
        _check_scene_determinism(rng),
        _check_pipeline(rng),
    ]
    return checks
