"""Timing harness and oracle verification suite.

The benchmark follows a fixed protocol: the pairwise IoU matrix is built once
and shared (its build time is reported separately), each method gets one
warm-up run, and the reported suppression time is the median of `repeats`
timed runs. Correctness cross-checks against the loop oracles run before any
timing so a fast-but-wrong implementation can never produce a report.

The same per-rule oracle comparisons back the `CHECKS` registry, which
`maskbench verify` and the acceptance tests run on generated cases.
"""

from __future__ import annotations

import itertools
import statistics
import time
import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import dynahead, formats, reference, scenes
from .dynahead import CategoryGrid, FusionWeights, KernelGrid, PyramidLevels
from .dynahead import (
    FeatureMap,
    bilinear_upsample_2x,
    fuse_pyramid,
    group_norm,
    inference_pipeline,
)
from .losses import dice_loss, focal_loss
from .masks import (
    BinaryMask,
    IoUMatrix,
    encode_counts,
    mask_iou,
    masks_to_boxes,
    pack_masks,
    pairwise_iou_matrix,
    require_int,
    rle_decode,
    rle_encode,
)
from .scenes import SHAPES, SceneSpec, gen_scene
from .suppression import (
    METHODS,
    DecayFn,
    ScoredMask,
    SuppressionConfig,
    _config_or_default,
    fast_nms,
    hard_nms,
    matrix_nms,
    run_method,
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


# One comparison per oracle rule. `_cross_check` applies them to the inputs
# `run_bench` is about to time, and the CHECKS registry below to generated
# cases; nothing else in the package calls the `reference` oracles.
_DECAY_TOL = 1e-6


def _decay_error(masks, ious, decay) -> float:
    """Largest |matrix_nms - naive_matrix_decay| over the masks; a mask that
    matrix_nms drops counts as score 0."""
    got = matrix_nms(masks, ious, decay)
    updated = dict(zip(got.kept_indices, got.updated_scores))
    want = reference.naive_matrix_decay(
        [m.score for m in masks], ious.values.tolist(), decay.kind, decay.sigma
    )
    return max((abs(updated.get(j, 0.0) - w) for j, w in enumerate(want)), default=0.0)


def _hard_agrees(masks, ious, iou_threshold) -> bool:
    """hard_nms keeps exactly the greedy walk's set."""
    got = hard_nms(masks, ious, iou_threshold).kept_indices
    return list(got) == reference.greedy_keep(masks, iou_threshold)


def _fast_agrees(masks, ious, iou_threshold) -> bool:
    """fast_nms keeps exactly the column-max oracle's set, a subset of hard_nms's."""
    fast = list(fast_nms(masks, ious, iou_threshold).kept_indices)
    hard = hard_nms(masks, ious, iou_threshold).kept_indices
    want = reference.column_max_keep(ious.values.tolist(), iou_threshold)
    return fast == want and set(fast) <= set(hard)


def _conv_pairs(feature: FeatureMap, k1, k9, width: int):
    """(fast, loop oracle) outputs of `dynamic_conv` on the single kernels k1
    and k9, then on `width` kernels of each size, the batch `assemble_masks`
    passes. Kernel r of a batch is the given kernel rolled by r and scaled by
    r + 1, so the batch draws no random numbers and integer kernels stay
    integer."""
    pairs = []
    for kernel, loops in (
        (k1, reference.conv1x1_loops),
        (k9, reference.conv3x3_loops),
    ):
        batch = np.stack([np.roll(kernel, r) * (r + 1) for r in range(width)])
        wants = [loops(feature.data, k) for k in batch]
        pairs.append((dynahead.dynamic_conv(feature, kernel[None])[:, :, 0], wants[0]))
        pairs.append((dynahead.dynamic_conv(feature, batch), np.stack(wants, axis=2)))
    return pairs


def _relative_error(got, want) -> float:
    """Largest |got - want| relative to the largest |want|."""
    scale = max(float(np.abs(want).max()), 1e-30)
    return float(np.abs(got - want).max()) / scale


def _grad_error(loss, x) -> float:
    """Largest gap between the analytic gradient of `loss(x) -> (value, grad)`
    and central finite differences of its value, relative to the largest
    difference."""
    grad = loss(x)[1]
    fd = reference.finite_difference_grad(lambda y: loss(y)[0], x)
    return float(np.abs(grad - fd).max()) / max(float(np.abs(fd).max()), 1e-12)


def _cross_check(masks, ious, config):
    """Oracle cross-checks on the exact inputs about to be timed."""
    if _decay_error(masks, ious, config.decay) > _DECAY_TOL:
        raise VerificationError("matrix_nms disagrees with the direct decay loop")
    if not _hard_agrees(masks, ious, config.iou_threshold):
        raise VerificationError("hard_nms disagrees with the greedy oracle")
    if not _fast_agrees(masks, ious, config.iou_threshold):
        raise VerificationError("fast_nms disagrees with its oracles")


def run_bench(
    scene: Sequence[ScoredMask],
    methods: Sequence[str] = METHODS,
    repeats: int = 20,
    config: Optional[SuppressionConfig] = None,
) -> list:
    """Benchmark the suppression methods on one scene (pooled class-agnostic).

    The oracle cross-checks run on the sorted scene and its IoU matrix before
    any method is timed.
    """
    require_int(repeats, "repeats", 3)
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods: {unknown}")
    if not scene:
        raise ValueError("scene is empty; nothing to benchmark")
    cfg = _config_or_default(config)
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

    _cross_check(masks, ious, cfg)

    reports = []
    for method in methods:
        result = run_method(method, masks, ious, cfg)  # warm-up
        checksum = score_checksum(result.updated_scores)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = run_method(method, masks, ious, cfg)
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


CHECKS = {}
"""The oracle check registry, in `maskbench verify` order: name -> a function
`(rng, cases) -> VerifyCheck` that builds `cases` cases from `rng` alone;
`cases` defaults to the count `maskbench verify` runs."""


def _check(name: str, verify_cases: int):
    """Register a `(rng, cases) -> (passed, detail)` function under `name`."""

    def register(fn):
        def check(rng, cases: int = verify_cases) -> VerifyCheck:
            return VerifyCheck(name, *fn(rng, cases))

        CHECKS[name] = check
        return fn

    return register


_DOT = BinaryMask.from_array(np.ones((1, 1), dtype=bool))


def _random_spec(rng, max_instances: int, size: int = 64) -> SceneSpec:
    return SceneSpec(
        height=size,
        width=size,
        num_instances=int(rng.integers(1, max_instances + 1)),
        num_duplicates_per_instance=int(rng.integers(0, 4)),
        shape="rectangle" if rng.random() < 0.5 else "ellipse",
        seed=int(rng.integers(0, 2**31)),
    )


def _sorted_scene(spec: SceneSpec) -> list:
    scene = gen_scene(spec)
    return [scene[i] for i in sort_by_score(scene)]


def _failures(bad: list, cases: int, what: str) -> tuple:
    """(passed, detail) for a check that counts failing cases."""
    detail = f"{cases - len(bad)}/{cases} {what}"
    if bad:
        detail += f"; first failure: case {bad[0]}"
    return not bad, detail


@_check("rle-round-trip", 300)
def _rle_round_trip(rng, cases):
    """`cases` masks through encode and decode one at a time, then
    `cases // 10` sets of 1-8 masks (widths 1-200) and one set of 40 masks
    of 200x336 (several `_SCRATCH_BYTES` chunks): each set is encoded by
    `encode_counts`, checked against `reference.rle_encode_runs`, and read
    back by `formats.mask_set_from_dict`, each mask checked against the
    `np.repeat` decoder."""
    bad = []
    for case in range(cases):
        h, w = (int(v) for v in rng.integers(1, 33, 2))
        if case % 100 == 0:
            arr = np.full((h, w), case % 200 == 0)  # all-full / all-empty
        else:
            arr = rng.random((h, w)) < rng.uniform(0.0, 1.0)
        mask = BinaryMask.from_array(arr)
        first = rle_encode(mask)
        back = rle_decode(first)
        if back != mask or rle_encode(back) != first:
            bad.append(case)
    sets = cases // 10
    bad_sets = []
    for case in range(sets + 1):
        if case < sets:
            h, w = int(rng.integers(1, 9)), int(rng.integers(1, 201))
            # Densities 0 and 1 give all-empty and all-full masks.
            density = rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)], int(rng.integers(1, 9)))
            masks = [BinaryMask.from_array(rng.random((h, w)) < d) for d in density]
        else:
            h, w = 200, 336
            masks = _sparse_masks(rng, 40, h, w)
        counts = encode_counts(masks)
        doc = {"height": h, "width": w,
               "instances": [{"counts": c, "score": 0.5} for c in counts]}
        got = [m.mask for m in formats.mask_set_from_dict(doc)]
        want = [reference.rle_decode_repeat(c, h, w) for c in counts]
        runs = [reference.rle_encode_runs(m) for m in masks]
        if counts != runs or got != want or got != masks:
            bad_sets.append(case)
    passed, detail = _failures(bad, cases, "masks: decode restores them, re-encode is identical")
    sets_passed, sets_detail = _failures(
        bad_sets,
        sets + 1,
        "sets (1-8 masks, and 40 of 200x336): encode_counts equals the per-mask "
        "encoder, the set reader decodes like np.repeat",
    )
    return passed and sets_passed, f"{detail}; {sets_detail}"


def _sparse_masks(rng, count: int, h: int, w: int) -> list:
    """`count` h x w masks, each empty, full or of random pixels at a density
    between 1e-4 and 1, so that the boxes vary in size."""
    density = rng.choice([0.0, 1.0, 10 ** rng.uniform(-4.0, 0.0)], count)
    return pack_masks(rng.random((count, h, w)) < density[:, None, None])


@_check("boxes-vs-pixels", 100)
def _boxes_vs_pixels(rng, cases):
    """`masks_to_boxes` against `reference.mask_box` on `cases` sets of 1-8
    masks 1-32 high and 1-200 wide, then on one set of 200x336 masks that
    spans several `_SCRATCH_BYTES` batches."""
    bad = []
    for case in range(cases):
        h, w = int(rng.integers(1, 33)), int(rng.integers(1, 201))
        masks = _sparse_masks(rng, int(rng.integers(1, 9)), h, w)
        if masks_to_boxes(masks) != [reference.mask_box(m) for m in masks]:
            bad.append(case)
    passed, detail = _failures(bad, cases, "sets of 1-8 masks: boxes equal the pixels'")
    wide = _sparse_masks(rng, 40, 200, 336)  # 13 masks a batch
    wide_passed = masks_to_boxes(wide) == [reference.mask_box(m) for m in wide]
    return passed and wide_passed, (
        f"{detail}; {len(wide)} masks of 200x336: "
        + ("boxes equal the pixels'" if wide_passed else "a box differs")
    )


@_check("pairwise-iou", 40)
def _pairwise_iou(rng, cases):
    masks = []
    for _ in range(cases):
        arr = rng.random((16, 16)) < rng.uniform(0.2, 0.8)
        arr[rng.integers(16), rng.integers(16)] = True  # never empty
        masks.append(BinaryMask.from_array(arr))
    got = pairwise_iou_matrix(masks).values
    for i, j in itertools.combinations_with_replacement(range(cases), 2):
        direct = mask_iou(masks[i], masks[j])
        want = 1.0 if i == j else got[i, j]  # the matrix is strictly upper
        symmetric = direct == mask_iou(masks[j], masks[i])
        if not (symmetric and direct == want and 0.0 <= direct <= 1.0):
            return False, f"mismatch or out of bounds at {(i, j)}"
    # Rows of 128 and 100 pixels are 2 words each, so these matrices are
    # built strip by strip; the second strip of a 100-pixel row holds 36 pixels.
    for w in (128, 100):
        seed = int(rng.integers(0, 2**31))
        spec = SceneSpec(height=32, width=w, num_instances=6, shape="ellipse", seed=seed)
        wide = [m.mask for m in gen_scene(spec)]
        got = pairwise_iou_matrix(wide).values
        for i, j in itertools.combinations(range(len(wide)), 2):
            if got[i, j] != mask_iou(wide[i], wide[j]):
                return False, f"32x{w} scene: mismatch at {(i, j)}"
    # 200 masks' IoU rows take 1600 bytes, so the default scratch cuts the
    # band, the unions and IoUMatrix's check into slices of 81 rows.
    many = _sparse_masks(rng, 200, 16, 128)
    got = pairwise_iou_matrix(many).values
    for i, j in itertools.combinations(range(len(many)), 2):
        if got[i, j] != mask_iou(many[i], many[j]):
            return False, f"{len(many)} masks of 16x128: mismatch at {(i, j)}"
    return True, (
        f"{cases} masks, all pairs and self-IoU; "
        f"{len(wide)} ellipses each of 32x128 and 32x100 (2 words a row), all pairs; "
        f"{len(many)} masks of 16x128 in row slices, all pairs"
    )


@_check("matrix-vs-naive", 60)
def _matrix_vs_naive(rng, cases):
    """Every tenth case is a real scene; the rest are synthetic IoU matrices,
    some with an exact overlap that hits the linear decay's 1/(1-cmax) pole."""
    worst = 0.0
    for case in range(cases):
        if case % 10 == 0:
            masks = _sorted_scene(_random_spec(rng, max_instances=40, size=96))
            ious = pairwise_iou_matrix([m.mask for m in masks])
        else:
            n = int(rng.integers(1, 201))
            v = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1)
            if n > 1 and rng.random() < 0.3:
                i = int(rng.integers(0, n - 1))
                v[i, int(rng.integers(i + 1, n))] = 1.0
            ious = IoUMatrix(v)
            scores = np.sort(rng.uniform(0.01, 1.0, n))[::-1]
            masks = [ScoredMask(_DOT, float(s)) for s in scores]
        for decay in (DecayFn("gauss", 0.5), DecayFn("linear")):
            worst = max(worst, _decay_error(masks, ious, decay))
    return worst <= _DECAY_TOL, (
        f"max |matrix - direct| = {worst:.2e} over {cases} cases x 2 decays "
        f"(tol {_DECAY_TOL:.0e})"
    )


@_check("soft-matrix-n2", 300)
def _soft_matrix_n2(rng, cases):
    """On 1- and 2-mask inputs the one-shot and sequential decays coincide."""
    bad = []
    for case in range(cases):
        n = 1 + (case % 2)
        arr = rng.random((n, 12, 16)) < rng.uniform(0.2, 0.8)
        if n == 2 and rng.random() < 0.4:
            arr[1] = arr[0]  # identical pair: IoU exactly 1
        pool = pack_masks(arr)
        scores = np.sort(rng.uniform(0.05, 1.0, n))[::-1]
        masks = [ScoredMask(m, float(s)) for m, s in zip(pool, scores)]
        decay = DecayFn("gauss" if case % 4 < 2 else "linear")
        ious = pairwise_iou_matrix(pool)
        if matrix_nms(masks, ious, decay) != soft_nms(masks, decay, 0.0, ious=ious):
            bad.append(case)
    return _failures(bad, cases, "1-2 mask inputs: matrix_nms equals soft_nms exactly")


def _threshold_scenes(rng, cases: int):
    """(masks, ious, iou_threshold) for `cases` small duplicate-heavy scenes."""
    for _ in range(cases):
        masks = _sorted_scene(_random_spec(rng, max_instances=6))
        threshold = float(rng.choice([0.3, 0.5, 0.7]))
        yield masks, pairwise_iou_matrix([m.mask for m in masks]), threshold


@_check("hard-vs-greedy", 60)
def _hard_vs_greedy(rng, cases):
    scenes = enumerate(_threshold_scenes(rng, cases))
    bad = [case for case, args in scenes if not _hard_agrees(*args)]
    return _failures(bad, cases, "scenes: hard_nms keeps the greedy walk's set")


@_check("fast-subset-hard", 60)
def _fast_subset_hard(rng, cases):
    scenes = enumerate(_threshold_scenes(rng, cases))
    bad = [case for case, args in scenes if not _fast_agrees(*args)]
    return _failures(
        bad, cases, "scenes: fast_nms keeps the column-max set, a subset of hard_nms"
    )


_CONV_WIDTHS = 4


@_check("conv-vs-loops", 30)
def _conv_vs_loops(rng, cases):
    """`cases` float shapes within a relative 1e-6, then cases // 4 integer
    shapes that must match bit for bit. Case i also runs the batched product
    on 1 + i % _CONV_WIDTHS kernels of each size."""
    worst = 0.0
    for case in range(cases):
        h, w = (int(v) for v in rng.integers(1, 13, 2))
        e = int(rng.integers(1, 9))
        feature = FeatureMap(rng.standard_normal((h, w, e)))
        k1 = rng.standard_normal(e)
        k9 = rng.standard_normal(9 * e)
        for got, want in _conv_pairs(feature, k1, k9, 1 + case % _CONV_WIDTHS):
            worst = max(worst, _relative_error(got, want))
    exact = True
    for case in range(cases // 4):
        h, w = (int(v) for v in rng.integers(1, 9, 2))
        e = int(rng.integers(1, 6))
        feature = FeatureMap(rng.integers(-4, 5, (h, w, e)).astype(np.float64))
        k1 = rng.integers(-4, 5, e).astype(np.float64)
        k9 = rng.integers(-4, 5, 9 * e).astype(np.float64)
        for got, want in _conv_pairs(feature, k1, k9, 1 + case % _CONV_WIDTHS):
            exact &= np.array_equal(got, want)
    return worst <= 1e-6 and exact, (
        f"max relative error {worst:.2e} over {cases} shapes x 2 ops, each also "
        f"batched {_CONV_WIDTHS} wide at most (tol 1e-06); "
        f"{cases // 4} integer shapes bit-exact: {exact}"
    )


@_check("loss-gradients", 30)
def _loss_gradients(rng, cases):
    """`cases` dice and `cases` focal gradients (gamma 0-3) against central
    finite differences, plus one known focal value."""
    worst_dice = 0.0
    for _ in range(cases):
        h, w = (int(v) for v in rng.integers(2, 9, 2))
        pred = rng.uniform(0.05, 0.95, (h, w))
        target = BinaryMask.from_array(rng.random((h, w)) < 0.5)
        worst_dice = max(worst_dice, _grad_error(lambda p: dice_loss(p, target), pred))
    worst_focal = 0.0
    for _ in range(cases):
        p = float(rng.uniform(0.05, 0.95))
        target = int(rng.integers(0, 2))
        gamma = float(rng.choice([0.0, 1.0, 2.0, 3.0]))
        focal = _grad_error(
            lambda x: focal_loss(float(x[0]), target, gamma=gamma), np.array([p])
        )
        worst_focal = max(worst_focal, focal)
    example = round(focal_loss(0.3, 1)[0], 5)
    passed = worst_dice <= 1e-4 and worst_focal <= 1e-4 and example == 0.14749
    return passed, (
        f"dice rel err {worst_dice:.2e}, focal rel err {worst_focal:.2e} "
        f"(tol 1e-04, {cases} cases each); focal(0.3, 1) = {example} (want 0.14749)"
    )


_SCENE_SIZES = ((128, 128), (37, 100), (200, 336))


@_check("scene-generation", 1)
def _scene_generation(rng, cases):
    """`cases` seeds, each a scene of 5 instances x 5 masks per shape and
    size in _SCENE_SIZES: a rerun is identical, and each mask equals the one
    `reference.paint_shape` paints from the scene's drawn shape."""
    bad = []
    for case in range(cases):
        seed = int(rng.integers(0, 2**31))
        for shape, (h, w) in itertools.product(SHAPES, _SCENE_SIZES):
            spec = SceneSpec(height=h, width=w, num_instances=5, shape=shape, seed=seed)
            scene = gen_scene(spec)
            want = [reference.paint_shape(spec, *s[:4]) for s in scenes._draw(spec)]
            if (
                len(scene) != spec.total_masks
                or gen_scene(spec) != scene
                or [m.mask for m in scene] != want
            ):
                bad.append(case)
                break
    sizes = ", ".join(f"{h}x{w}" for h, w in _SCENE_SIZES)
    return _failures(
        bad, cases, f"seeds, 25 masks per shape at {sizes}: rerun identical, "
        "masks equal the reference painter's",
    )


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


@_check("pipeline-determinism", 3)
def _pipeline_determinism(rng, cases):
    """`cases` runs of the pipeline on seeded inputs render the same JSON."""
    category, kernels, pyramid = seeded_pipeline_inputs(int(rng.integers(0, 2**31)))
    runs = [
        formats.to_json(
            formats.instances_to_dict(inference_pipeline(category, kernels, pyramid))
        )
        for _ in range(cases)
    ]
    identical = all(r == runs[0] for r in runs)
    count = runs[0].count('"score"')
    return identical and count > 0, (
        f"{cases} runs all byte-identical ({count} instances)"
    )


@_check("mask-logit-cutoff", 20)
def _mask_logit_cutoff(rng, cases):
    """`mask_foreground` against the sigmoid rule on the 4000 floats around
    the derived cutoff, on special values, on a log-uniform sweep of small
    negative logits, and on `cases` arrays of length 1-4097 drawn from all
    of them, each starting at a different offset into its buffer."""
    cutoff = dynahead._MASK_LOGIT_CUTOFF
    bits = int(np.array([abs(cutoff)]).view(np.int64)[0])
    near = -np.arange(max(bits - 2000, 0), bits + 2000).view(np.float64)
    special = np.array([0.0, 5e-324, np.finfo(np.float64).tiny, 1.0, 800.0, np.inf])
    special = np.concatenate([special, -special])
    sweep = -(10.0 ** rng.uniform(-20.0, -14.0, 1000))
    samples = [near, special, sweep]
    pool = np.concatenate(samples + [rng.standard_normal(1000)])
    for case in range(cases):
        offset = case % 8
        n = int(rng.integers(1, 4098))
        samples.append(rng.choice(pool, offset + n)[offset:])
    bad = [
        case
        for case, x in enumerate(samples)
        if not np.array_equal(
            dynahead.mask_foreground(x), reference.sigmoid_foreground(x)
        )
    ]
    passed, detail = _failures(bad, len(samples), "arrays: logit cutoff = sigmoid rule")
    return passed, f"cutoff {cutoff!r}; {detail}"


# Group norm and fusion sum in another order than their loop oracles.
_FUSION_TOL = 1e-9


@_check("group-norm-vs-loops", 40)
def _group_norm_vs_loops(rng, cases):
    """`cases` shapes up to 8x8 with 1-4 groups of 1-4 channels, affine
    scale and shift included, within a relative _FUSION_TOL; then cases // 2
    more whose mean is 1e3-1e4 times their spread, where a variance not taken
    from the centered values loses the most bits."""
    worst = [0.0, 0.0]
    for far, count in ((0, cases), (1, cases // 2)):
        for _ in range(count):
            h, w, groups, per = (int(v) for v in rng.integers(1, [9, 9, 5, 5]))
            c = groups * per
            loc, spread = rng.uniform(-5.0, 5.0), rng.uniform(0.1, 10.0)
            if far:
                loc = np.sign(loc) * 10.0 ** rng.uniform(3.0, 4.0) * spread
            x = rng.normal(loc, spread, (h, w, c))
            scale, shift = rng.standard_normal(c), rng.standard_normal(c)
            got = group_norm(FeatureMap(x), groups, scale, shift).data
            want = reference.group_norm_loops(x, groups, scale, shift)
            worst[far] = max(worst[far], _relative_error(got, want))
    return max(worst) <= _FUSION_TOL, (
        f"max relative error {worst[0]:.2e} over {cases} shapes, {worst[1]:.2e} over "
        f"{cases // 2} with means 1e3-1e4 times the spread (tol {_FUSION_TOL:.0e})"
    )


@_check("upsample-vs-loops", 40)
def _upsample_vs_loops(rng, cases):
    """The 1x1, 1x5, 5x1 and 2x5 inputs, then `cases` shapes up to 9x9, each
    with 1-3 channels, must match the loops bit for bit."""
    shapes = [(1, 1), (1, 5), (5, 1), (2, 5)]
    shapes += [tuple(int(v) for v in rng.integers(1, 10, 2)) for _ in range(cases)]
    bad = []
    for case, (h, w) in enumerate(shapes):
        x = rng.standard_normal((h, w, int(rng.integers(1, 4))))
        got = bilinear_upsample_2x(FeatureMap(x)).data
        if not np.array_equal(got, reference.upsample2x_loops(x)):
            bad.append(case)
    return _failures(bad, len(shapes), "shapes: 2x upsample equals the loops exactly")


@_check("fuse-vs-loops", 6)
def _fuse_vs_loops(rng, cases):
    """`cases` pyramids of 1-3 levels within a relative _FUSION_TOL. Case 0
    has C = E = 64, so its group norms hold two channels per group; the rest
    have C of 1-4 and E of C or 2C, with a deepest level of 1-2 x 1-2."""
    worst = 0.0
    for case in range(cases):
        levels = int(rng.integers(1, 4))
        c = 64 if case == 0 else int(rng.integers(1, 5))
        e = c * int(rng.integers(1, 3)) if case else c
        h, w = (int(v) for v in rng.integers(1, 3, 2))
        weights = FusionWeights.seeded(levels, c, e, seed=int(rng.integers(2**31)))
        maps = tuple(
            FeatureMap(rng.standard_normal((h << top, w << top, c)))
            for top in range(levels - 1, -1, -1)
        )
        pyramid = PyramidLevels(maps, weights)
        got = fuse_pyramid(pyramid).data
        worst = max(worst, _relative_error(got, reference.fuse_pyramid_loops(pyramid)))
    return worst <= _FUSION_TOL, (
        f"max relative error {worst:.2e} over {cases} pyramids (tol {_FUSION_TOL:.0e})"
    )


def run_verification(seed: int = 0) -> list:
    """Every registered check at its `maskbench verify` case count, each on
    its own generator keyed by `seed` and the check's name, so a check may be
    added or extended anywhere in the registry without changing another's
    inputs."""
    require_int(seed, "seed", 0)
    rngs = (np.random.default_rng([seed, zlib.crc32(n.encode())]) for n in CHECKS)
    return [check(rng) for check, rng in zip(CHECKS.values(), rngs)]
