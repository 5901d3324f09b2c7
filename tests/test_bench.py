import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maskops import (
    BenchReport,
    BinaryMask,
    Box,
    DecayFn,
    IoUMatrix,
    ScoredMask,
    SceneSpec,
    SuppressionResult,
    bench,
    gen_scene,
    run_bench,
    run_verification,
    score_checksum,
)
from maskops import dynahead, scenes
from maskops.bench import VerificationError, seeded_pipeline_inputs

SMALL = SceneSpec(num_instances=6, num_duplicates_per_instance=2, seed=2)


def test_report_fields():
    reports = run_bench(gen_scene(SMALL), methods=("matrix",), repeats=3)
    assert len(reports) == 1
    r = reports[0]
    assert isinstance(r, BenchReport)
    assert r.method == "matrix"
    assert r.n == SMALL.total_masks
    assert r.iou_matrix_ms > 0.0
    assert r.suppression_ms > 0.0
    assert r.kept > 0
    assert len(r.checksum) == 8


def test_all_methods_and_checksum_stability():
    scene = gen_scene(SMALL)
    first = run_bench(scene, repeats=3)
    second = run_bench(scene, repeats=5)
    assert [r.method for r in first] == ["hard", "soft", "fast", "matrix"]
    # Checksums hash the kept scores, so they are timing-independent.
    for a, b in zip(first, second):
        assert a.checksum == b.checksum
        assert a.kept == b.kept


def test_methods_disagree_in_checksum():
    # Matrix rescales scores while hard keeps them; the checksums must differ.
    reports = {r.method: r for r in run_bench(gen_scene(SMALL), repeats=3)}
    assert reports["hard"].checksum != reports["matrix"].checksum


def test_bad_arguments():
    scene = gen_scene(SMALL)
    # repeats is an exact int >= 3, checked before anything runs.
    for repeats in (2, 3.5, 4.0, True):
        with pytest.raises(ValueError, match="repeats"):
            run_bench(scene, repeats=repeats)
    with pytest.raises(ValueError):
        run_bench(scene, methods=("bogus",), repeats=3)
    with pytest.raises(ValueError):
        run_bench([], repeats=3)
    # Only None means the default config: {} and 0 once benched it.
    for config in ({}, 0, "matrix"):
        with pytest.raises(ValueError, match="config must be a SuppressionConfig"):
            run_bench(scene, repeats=3, config=config)


def test_score_checksum_sensitivity():
    base = score_checksum([0.5, 0.25])
    assert base == score_checksum([0.5, 0.25])
    assert base != score_checksum([0.25, 0.5])
    assert base != score_checksum([0.5, 0.25 + 1e-12])


def test_run_verification_all_pass():
    checks = run_verification(seed=0)
    assert [c.name for c in checks] == list(bench.CHECKS) == [
        "rle-round-trip",
        "boxes-vs-pixels",
        "pairwise-iou",
        "matrix-vs-naive",
        "soft-matrix-n2",
        "hard-vs-greedy",
        "fast-subset-hard",
        "conv-vs-loops",
        "loss-gradients",
        "scene-generation",
        "pipeline-determinism",
        "mask-logit-cutoff",
        "group-norm-vs-loops",
        "upsample-vs-loops",
        "fuse-vs-loops",
    ]
    for c in checks:
        assert c.passed, f"{c.name}: {c.detail}"


def test_each_check_draws_from_its_own_stream(monkeypatch):
    # A check's generator depends on the seed and its name only: the first
    # check drawing more numbers changes no other check's entry state.
    names = list(bench.CHECKS)

    def entry_states(first_draws):
        states = {}

        def recorder(name):
            def check(rng):
                states[name] = rng.bit_generator.state
                if name == names[0]:
                    rng.random(first_draws)
                return bench.VerifyCheck(name, True, "")

            return check

        monkeypatch.setattr(bench, "CHECKS", {n: recorder(n) for n in names})
        run_verification(seed=5)
        return states

    plain, greedy = entry_states(0), entry_states(1000)
    assert plain[names[0]] == greedy[names[0]]
    for name in names[1:]:
        assert greedy[name] == plain[name], name
    # ... and the streams of different checks differ.
    assert len({str(s) for s in plain.values()}) == len(names)


def _one_pass_group_norm(x, groups, scale, shift):
    """`dynahead._group_norm` with the variance taken as E[x^2] - E[x]^2,
    which cancels most of its bits when the mean is far larger than the
    spread."""
    h, w, c = x.shape
    per = c // groups
    flat = x.reshape(h * w, c)
    mean = flat.reshape(h * w, groups, per).mean(axis=(0, 2))
    var = (flat * flat).reshape(h * w, groups, per).mean(axis=(0, 2)) - mean**2
    std = np.repeat(np.sqrt(np.maximum(var, 0.0) + dynahead.GN_EPS), per)
    out = (flat - np.repeat(mean, per)) * (scale / std) + shift
    return out.reshape(h, w, c)


@pytest.mark.parametrize(
    "attr,value,failing",
    [
        # The loop oracle reads its own copy of GN_EPS.
        ("GN_EPS", 1e-4, {"group-norm-vs-loops", "fuse-vs-loops"}),
        (
            "_interp_axis",
            lambda x, axis: np.repeat(x, 2, axis=axis),  # nearest neighbour
            {"upsample-vs-loops", "fuse-vs-loops"},
        ),
        (
            "dynamic_conv",  # every kernel of a batch gets the first's logits
            lambda f, k, conv=dynahead.dynamic_conv: np.repeat(
                conv(f, k[:1]), len(k), axis=2
            ),
            {"conv-vs-loops"},
        ),
        # Only group-norm-vs-loops draws means 1e3-1e4 times the spread.
        ("_group_norm", _one_pass_group_norm, {"group-norm-vs-loops"}),
    ],
)
def test_fusion_and_conv_checks_catch_a_changed_layer(
    monkeypatch, attr, value, failing
):
    names = (
        "conv-vs-loops", "group-norm-vs-loops", "upsample-vs-loops", "fuse-vs-loops"
    )
    assert all(bench.CHECKS[n](np.random.default_rng(0)).passed for n in names)
    monkeypatch.setattr(dynahead, attr, value)
    passed = {n: bench.CHECKS[n](np.random.default_rng(0)).passed for n in names}
    assert {n for n, ok in passed.items() if not ok} == failing


def test_mask_logit_cutoff_check_catches_a_plain_zero(monkeypatch):
    # x >= 0 differs from sigmoid(x) >= 0.5 on the logits in [cutoff, 0).
    assert bench.CHECKS["mask-logit-cutoff"](np.random.default_rng(0)).passed
    monkeypatch.setattr(dynahead, "_MASK_LOGIT_CUTOFF", 0.0)
    assert not bench.CHECKS["mask-logit-cutoff"](np.random.default_rng(0)).passed


def test_boxes_check_catches_a_wrong_box_and_a_lost_batch(monkeypatch):
    check = bench.CHECKS["boxes-vs-pixels"]
    assert check(np.random.default_rng(0)).passed
    real = bench.masks_to_boxes

    def one_row(masks):  # every box ends on its first row
        return [b and Box(b.x_min, b.y_min, b.x_max, b.y_min) for b in real(masks)]

    monkeypatch.setattr(bench, "masks_to_boxes", one_row)
    assert not check(np.random.default_rng(0)).passed

    def first_batch(masks):  # only the first 13 masks of 200x336 are boxed
        return real(masks)[:13] + [None] * max(0, len(masks) - 13)

    # The small sets hold at most 8 masks, so only the 200x336 set sees this.
    monkeypatch.setattr(bench, "masks_to_boxes", first_batch)
    got = check(np.random.default_rng(0))
    assert not got.passed and got.detail.startswith("100/100 ")


def test_rle_check_catches_a_wrong_encoder_and_a_lost_chunk(monkeypatch):
    check = bench.CHECKS["rle-round-trip"]
    assert check(np.random.default_rng(0)).passed
    real = bench.encode_counts

    def lost_chunk(masks):  # masks past the first 13 get the first's counts
        return real(masks[:13]) + real(masks[:1]) * max(0, len(masks) - 13)

    # The small sets hold at most 8 masks, so only the 200x336 set sees this.
    monkeypatch.setattr(bench, "encode_counts", lost_chunk)
    got = check(np.random.default_rng(0))
    assert not got.passed and "30/31 sets" in got.detail


def test_scene_check_catches_a_wrong_painter(monkeypatch):
    check = bench.CHECKS["scene-generation"]
    assert check(np.random.default_rng(0)).passed
    real = scenes._paint_blocks

    def as_rectangles(spec, *shapes):  # ellipses painted as their boxes
        return real(SceneSpec(spec.height, spec.width, seed=spec.seed), *shapes)

    monkeypatch.setattr(scenes, "_paint_blocks", as_rectangles)
    assert not check(np.random.default_rng(0)).passed


def test_cross_check_guards_bench(monkeypatch):
    # A matrix_nms whose scores are off by 0.1% must never get timed.
    real = bench.matrix_nms

    def scaled(*args, **kwargs):
        res = real(*args, **kwargs)
        return SuppressionResult(
            res.kept_indices, tuple(0.999 * s for s in res.updated_scores)
        )

    monkeypatch.setattr(bench, "matrix_nms", scaled)
    with pytest.raises(VerificationError, match="matrix_nms"):
        run_bench(gen_scene(SMALL), methods=("matrix",), repeats=3)


def test_seeded_pipeline_inputs_shape():
    category, kernels, pyramid = seeded_pipeline_inputs(0)
    assert category.grid_size == kernels.grid_size
    levels = pyramid.levels
    assert len(levels) >= 2
    for fine, coarse in zip(levels, levels[1:]):
        assert fine.height == 2 * coarse.height
        assert fine.width == 2 * coarse.width


_DOT = BinaryMask.from_array([[1]])
# A score is a coarse level (ties are likely) or any float in (0, 1]; an IoU
# is exactly 0, exactly 1 (cmax = 1 makes the linear decay singular) or any
# float in [0, 1].
_SCORES = st.one_of(
    st.integers(1, 8).map(lambda k: k / 8), st.floats(0.0, 1.0, exclude_min=True)
)
_IOUS = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def _sorted_decay_inputs(draw):
    """Score-sorted masks and a strict upper-triangular IoU matrix, n in 0-30."""
    n = draw(st.integers(0, 30))
    scores = sorted(draw(st.lists(_SCORES, min_size=n, max_size=n)), reverse=True)
    v = np.zeros((n, n))
    v[np.triu_indices(n, 1)] = draw(
        st.lists(_IOUS, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    )
    return [ScoredMask(_DOT, s) for s in scores], IoUMatrix(v)


@settings(deadline=None, max_examples=100)
# The smallest sigmas make the oracle's positive exponents overflow math.exp
# unless it skips them.
@given(
    inputs=_sorted_decay_inputs(),
    sigma=st.sampled_from([np.finfo(np.float64).tiny, 1e-3, 0.1, 0.5, 2.0]),
)
def test_matrix_nms_matches_naive_decay(inputs, sigma):
    masks, ious = inputs
    for decay in (DecayFn("gauss", sigma), DecayFn("linear")):
        assert bench._decay_error(masks, ious, decay) <= bench._DECAY_TOL
