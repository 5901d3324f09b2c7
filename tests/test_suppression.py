import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maskops import (
    BinaryMask,
    DecayFn,
    IoUMatrix,
    ScoredMask,
    SuppressionConfig,
    SuppressionResult,
    fast_nms,
    hard_nms,
    matrix_nms,
    pairwise_iou_matrix,
    soft_nms,
    sort_by_score,
    suppress,
)
from maskops.reference import greedy_keep, naive_matrix_decay, soft_nms_loops
from maskops.suppression import METHODS, run_method

DUMMY = BinaryMask.from_array([[1]])


def scored(*scores, category=0):
    return [ScoredMask(DUMMY, s, category) for s in scores]


def upper(n, entries):
    m = np.zeros((n, n))
    for (i, j), v in entries.items():
        m[i, j] = v
    return IoUMatrix(m)


# The worked three-mask configuration used throughout: scores 0.9/0.8/0.7,
# IoU(0,1)=0.8, IoU(0,2)=0.1, IoU(1,2)=0.7.
THREE = upper(3, {(0, 1): 0.8, (0, 2): 0.1, (1, 2): 0.7})


@pytest.mark.parametrize(
    "scores,perm",
    [
        ([0.5, 0.9, 0.7], [1, 2, 0]),
        ([0.5, 0.5], [0, 1]),
        ([], []),
    ],
)
def test_sort_by_score(scores, perm):
    assert sort_by_score(scored(*scores)) == perm


def test_decayfn_validation():
    for kind in ("gaussian", "cubic"):
        with pytest.raises(ValueError):
            DecayFn(kind)
    # A subnormal sigma once overflowed matrix_nms's division by it.
    for sigma in (-1.0, 0.0, np.nan, 5e-324, 1e-310):
        with pytest.raises(ValueError):
            DecayFn("gauss", sigma=sigma)
    # True == 1 passes the range check, but a bool is not a real number;
    # sigma=inf once turned the gaussian decay off. A string or None once
    # raised a TypeError from math.isfinite, and an int past float64 an
    # OverflowError.
    for sigma in (True, np.bool_(True), np.inf, "0.5", None, 10**400):
        with pytest.raises(ValueError, match="sigma must be a real number"):
            DecayFn("gauss", sigma=sigma)


def test_matrix_nms_single_mask():
    res = matrix_nms(scored(0.9), upper(1, {}), DecayFn("gauss"))
    assert res.kept_indices == (0,) and res.updated_scores == (0.9,)


def test_matrix_nms_two_mask_gauss():
    res = matrix_nms(scored(0.9, 0.8), upper(2, {(0, 1): 0.5}), DecayFn("gauss", 0.5))
    assert res.updated_scores[0] == 0.9
    assert res.updated_scores[1] == pytest.approx(0.8 * np.exp(-0.5), abs=1e-12)


def test_matrix_nms_three_mask_linear():
    # decays (1.0, 0.2, min(0.9, 1.5) = 0.9): mask 2 is spared because its
    # strongest suppressor is itself nearly certainly suppressed.
    res = matrix_nms(scored(0.9, 0.8, 0.7), THREE, DecayFn("linear"))
    assert res.updated_scores == pytest.approx((0.9, 0.16, 0.63), abs=1e-12)


def test_matrix_nms_top_score_never_decays():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        vals = np.triu(rng.uniform(0, 0.99, (n, n)), 1)
        scores = np.sort(rng.uniform(0.1, 1.0, n))[::-1]
        res = matrix_nms(
            scored(*scores), IoUMatrix(vals), DecayFn(("linear", "gauss")[n % 2])
        )
        assert res.updated_scores[0] == scores[0]


def test_matrix_nms_monotone_and_matches_oracle():
    rng = np.random.default_rng(1)
    for kind in ("linear", "gauss"):
        for _ in range(50):
            n = int(rng.integers(2, 60))
            vals = np.triu(rng.uniform(0, 1, (n, n)), 1)
            if rng.random() < 0.3:  # exercise the cmax = 1 singularity
                i = int(rng.integers(0, n - 1))
                j = int(rng.integers(i + 1, n))
                vals[i, j] = 1.0
            scores = np.sort(rng.uniform(0.01, 1.0, n))[::-1]
            masks = scored(*scores)
            res = matrix_nms(masks, IoUMatrix(vals), DecayFn(kind))
            updated = dict(zip(res.kept_indices, res.updated_scores))
            want = naive_matrix_decay(list(scores), vals.tolist(), kind)
            for j, w in enumerate(want):
                assert updated.get(j, 0.0) == pytest.approx(w, abs=1e-6)
                assert updated.get(j, 0.0) <= scores[j] + 1e-15


def test_matrix_nms_all_identical_linear():
    # every pair IoU 1: the top mask survives, the rest decay to zero score
    vals = np.triu(np.ones((3, 3)), 1)
    res = matrix_nms(scored(0.9, 0.8, 0.7), IoUMatrix(vals), DecayFn("linear"))
    assert res.kept_indices == (0,)
    assert res.updated_scores == (0.9,)


def test_matrix_nms_score_threshold():
    res = matrix_nms(
        scored(0.9, 0.8, 0.7), THREE, DecayFn("linear"), score_threshold=0.2
    )
    assert res.kept_indices == (0, 2)


def test_matrix_nms_requires_sorted_scores():
    with pytest.raises(ValueError):
        matrix_nms(scored(0.5, 0.9), upper(2, {}), DecayFn("gauss"))


def test_matrix_nms_size_mismatch():
    with pytest.raises(ValueError):
        matrix_nms(scored(0.9, 0.8), upper(3, {}), DecayFn("gauss"))


@pytest.mark.parametrize("method", METHODS)
def test_every_method_checks_size_and_order(method):
    cfg = SuppressionConfig(method=method)
    with pytest.raises(ValueError, match="size"):
        run_method(method, scored(0.9, 0.8), upper(3, {}), cfg)
    with pytest.raises(ValueError, match="sorted"):
        run_method(method, scored(0.5, 0.9), upper(2, {}), cfg)


def test_soft_nms_requires_the_matrix():
    with pytest.raises(TypeError):
        soft_nms(scored(0.9), DecayFn("linear"), 0.0)
    with pytest.raises(TypeError):
        soft_nms(scored(0.9), DecayFn("linear"), 0.0, upper(1, {}))


def test_matrix_nms_score_scale_equivariance():
    rng = np.random.default_rng(9)
    vals = np.triu(rng.uniform(0, 1, (20, 20)), 1)
    scores = np.sort(rng.uniform(0.2, 1.0, 20))[::-1]
    a = matrix_nms(scored(*scores), IoUMatrix(vals), DecayFn("gauss"))
    b = matrix_nms(scored(*(scores * 0.5)), IoUMatrix(vals.copy()), DecayFn("gauss"))
    assert a.kept_indices == b.kept_indices


@pytest.mark.parametrize(
    "iou,threshold,expected",
    [(0.6, 0.5, (0,)), (0.4, 0.5, (0, 1))],
)
def test_hard_nms_two_masks(iou, threshold, expected):
    res = hard_nms(scored(0.9, 0.8), upper(2, {(0, 1): iou}), threshold)
    assert res.kept_indices == expected


def test_hard_nms_three_mask_example():
    res = hard_nms(scored(0.9, 0.8, 0.7), THREE, 0.5)
    assert res.kept_indices == (0, 2)
    assert res.updated_scores == (0.9, 0.7)  # scores unchanged


def test_fast_nms_examples():
    res = fast_nms(scored(0.9, 0.8, 0.7), THREE, 0.5)
    assert res.kept_indices == (0,)  # more aggressive than hard's (0, 2)
    res = fast_nms(scored(0.9, 0.8, 0.7), upper(3, {}), 0.5)
    assert res.kept_indices == (0, 1, 2)
    res = fast_nms(scored(0.9), upper(1, {}), 0.5)
    assert res.kept_indices == (0,)


def test_fast_subset_of_hard_random():
    rng = np.random.default_rng(21)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        vals = np.triu(rng.uniform(0, 1, (n, n)), 1)
        scores = np.sort(rng.uniform(0.1, 1.0, n))[::-1]
        thr = float(rng.uniform(0.2, 0.8))
        f = set(fast_nms(scored(*scores), IoUMatrix(vals), thr).kept_indices)
        h = set(hard_nms(scored(*scores), IoUMatrix(vals.copy()), thr).kept_indices)
        assert f <= h


def test_soft_nms_two_masks_matches_matrix():
    masks = scored(0.9, 0.8)
    res = soft_nms(masks, DecayFn("gauss", 0.5), 0.0, ious=upper(2, {(0, 1): 0.5}))
    ref = matrix_nms(masks, upper(2, {(0, 1): 0.5}), DecayFn("gauss", 0.5))
    assert res == ref


def test_soft_nms_disjoint_unchanged():
    res = soft_nms(scored(0.9, 0.8, 0.7), DecayFn("linear"), 0.0, ious=upper(3, {}))
    assert res.updated_scores == (0.9, 0.8, 0.7)


def test_soft_nms_three_mask_sequential_trace():
    # Selection order is by highest current score: after mask 0 decays its
    # neighbors (mask 1: 0.8*0.2 = 0.16, mask 2: 0.7*0.9 = 0.63), mask 2 is
    # selected next and decays mask 1 again by (1 - 0.7): 0.16 * 0.3 = 0.048.
    # The doubly decayed mask therefore differs from matrix_nms's 0.16 while
    # mask 2's 0.63 coincides with it.
    res = soft_nms(scored(0.9, 0.8, 0.7), DecayFn("linear"), 0.0, ious=THREE)
    assert res.kept_indices == (0, 1, 2)
    assert res.updated_scores == pytest.approx((0.9, 0.048, 0.63), abs=1e-12)


def test_soft_nms_threshold_drops_and_stops_suppressing():
    # With threshold 0.1 mask 1 (0.16 -> would be kept) stays, but at 0.2 it
    # is dropped after the first decay and never decays mask 2 again.
    res = soft_nms(scored(0.9, 0.8, 0.7), DecayFn("linear"), 0.2, ious=THREE)
    assert res.kept_indices == (0, 2)
    assert res.updated_scores == pytest.approx((0.9, 0.63), abs=1e-12)


def test_suppress_empty():
    assert len(suppress([], SuppressionConfig())) == 0


@pytest.mark.parametrize("method", METHODS)
def test_each_method_is_empty_for_no_masks(method):
    # No method has an n = 0 branch: the general path must give this.
    for kind in ("linear", "gauss"):
        config = SuppressionConfig(decay=DecayFn(kind))
        res = run_method(method, scored(), upper(0, {}), config)
        assert res.kept_indices == () and res.updated_scores == ()


def test_suppress_two_categories_never_interact():
    a = ScoredMask(DUMMY, 0.9, 0)
    b = ScoredMask(DUMMY, 0.8, 1)  # identical masks, different classes
    res = suppress([a, b], SuppressionConfig(method="hard"))
    assert set(res.kept_indices) == {0, 1}
    assert res.updated_scores == (0.9, 0.8)


def test_suppress_class_agnostic_pools():
    a = ScoredMask(DUMMY, 0.9, 0)
    b = ScoredMask(DUMMY, 0.8, 1)
    res = suppress([a, b], SuppressionConfig(method="hard", class_agnostic=True))
    assert res.kept_indices == (0,)


def test_suppress_matches_per_category_runs():
    rng = np.random.default_rng(17)
    masks = []
    for _ in range(40):
        arr = rng.random((12, 12)) < 0.4
        arr[2, 2] = True
        masks.append(
            ScoredMask(
                BinaryMask.from_array(arr),
                float(rng.uniform(0.1, 1.0)),
                int(rng.integers(0, 3)),
            )
        )
    cfg = SuppressionConfig(method="matrix", top_k=None, score_threshold=0.0)
    combined = suppress(masks, cfg)
    merged = {}
    for cat in (0, 1, 2):
        idx = [i for i, m in enumerate(masks) if m.category == cat]
        sub = suppress([masks[i] for i in idx], cfg)
        merged.update(
            (idx[i], s) for i, s in zip(sub.kept_indices, sub.updated_scores)
        )
    assert dict(zip(combined.kept_indices, combined.updated_scores)) == merged


@st.composite
def _categorized_masks(draw):
    """Up to 12 non-empty 4x4 masks in up to 4 categories. Scores come from
    a few values, so ties are common and fall back to input index."""
    n = draw(st.integers(1, 12))
    score = st.integers(1, 1000) | st.sampled_from([500, 1000])
    scores = draw(st.lists(score, min_size=n, max_size=n))
    masks = []
    for score in scores:
        bits = (draw(st.integers(1, 2**16 - 1)) >> np.arange(16)) & 1
        mask = BinaryMask.from_array(bits.reshape(4, 4).astype(bool))
        masks.append(ScoredMask(mask, score / 1000, draw(st.integers(0, 3))))
    return masks


@pytest.mark.parametrize("method", METHODS)
@settings(deadline=None, max_examples=60)
@given(masks=_categorized_masks(), data=st.data())
def test_suppress_invariant_to_category_group_order(method, masks, data):
    # Move whole category groups around, keeping the order inside each group.
    cats = data.draw(st.permutations(sorted({m.category for m in masks})))
    old = sorted(range(len(masks)), key=lambda i: (cats.index(masks[i].category), i))
    cfg = SuppressionConfig(method=method)
    want = suppress(masks, cfg)
    got = suppress([masks[i] for i in old], cfg)
    back = [(old[i], s) for i, s in zip(got.kept_indices, got.updated_scores)]
    assert [s for _, s in back] == list(want.updated_scores)
    # Equal updated scores are ordered by input index, which the move changes.
    by_score_then_index = sorted(back, key=lambda t: (-t[1], t[0]))
    assert by_score_then_index == list(zip(want.kept_indices, want.updated_scores))


@pytest.mark.parametrize("method", METHODS)
@settings(deadline=None, max_examples=60)
@given(masks=_categorized_masks())
def test_suppress_matches_a_sort_per_group(method, masks):
    # suppress sorts the pool once; grouping first and sorting each group
    # must give the same groups in the same (-score, index) order.
    cfg = SuppressionConfig(method=method, top_k=None)
    groups = {}
    for i, m in enumerate(masks):
        groups.setdefault(m.category, []).append(i)
    pairs = []
    for members in groups.values():
        order = [members[p] for p in sort_by_score([masks[i] for i in members])]
        group = [masks[i] for i in order]
        ious = pairwise_iou_matrix([m.mask for m in group])
        res = run_method(method, group, ious, cfg)
        pairs += [(order[j], s) for j, s in zip(res.kept_indices, res.updated_scores)]
    pairs = [t for t in pairs if t[1] > cfg.score_threshold]
    pairs.sort(key=lambda t: (-t[1], t[0]))
    got = suppress(masks, cfg)
    assert list(zip(got.kept_indices, got.updated_scores)) == pairs


def _bits(scores):
    return np.asarray(scores, dtype="<f8").tobytes()


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_soft_nms_matches_the_loop_by_hand(data):
    # Scores tie, and both scores and IoUs sit exactly at the threshold.
    n = data.draw(st.integers(0, 10))
    threshold = data.draw(st.sampled_from([0.0, 0.05, 0.3]))
    level = st.sampled_from([0.0, threshold, 1.0]) | st.floats(0.0, 1.0)
    drawn = data.draw(st.lists(level, min_size=n * n, max_size=n * n))
    vals = np.triu(np.reshape(drawn, (n, n)), 1)
    score = st.sampled_from([0.05, 0.3, 0.6, 0.9]) | st.floats(0.01, 1.0)
    scores = sorted(data.draw(st.lists(score, min_size=n, max_size=n)), reverse=True)
    decay = data.draw(st.sampled_from([DecayFn("gauss", 0.5), DecayFn("linear")]))
    res = soft_nms(scored(*scores), decay, threshold, ious=IoUMatrix(vals))
    kept, kept_scores = soft_nms_loops(scores, vals.tolist(), decay, threshold)
    assert list(res.kept_indices) == kept
    assert _bits(res.updated_scores) == _bits(kept_scores)


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_hard_nms_keeps_the_greedy_oracles_set(data):
    # Strips of one 12-pixel row: equal spans overlap at IoU 1, apart at 0,
    # and the threshold is often one of the IoUs the strips realize.
    n = data.draw(st.integers(0, 10))
    lows = data.draw(st.lists(st.integers(0, 11), min_size=n, max_size=n))
    highs = [data.draw(st.integers(lo + 1, 12)) for lo in lows]
    score = st.sampled_from([0.3, 0.6, 0.9]) | st.floats(0.01, 1.0)
    scores = sorted(data.draw(st.lists(score, min_size=n, max_size=n)), reverse=True)
    masks = [strip(lo, hi, s, width=12) for lo, hi, s in zip(lows, highs, scores)]
    ious = pairwise_iou_matrix([m.mask for m in masks])
    realized = sorted(set(ious.values[np.triu_indices(n, 1)].tolist()) | {0.0, 1.0})
    threshold = data.draw(st.sampled_from(realized) | st.floats(0.0, 1.0))
    res = hard_nms(masks, ious, threshold)
    assert list(res.kept_indices) == greedy_keep(masks, threshold)
    assert res.updated_scores == tuple(scores[j] for j in res.kept_indices)


def strip(lo, hi, score, width=30):
    arr = np.zeros((1, width), dtype=bool)
    arr[0, lo:hi] = True
    return ScoredMask(BinaryMask.from_array(arr), score)


def test_suppress_orders_by_updated_score():
    # A and B overlap at IoU 9/11; C is disjoint. Linear decay knocks B down
    # to 0.8 * (1 - 9/11) so the result order is A, C, B by updated score.
    masks = [strip(0, 10, 0.9), strip(1, 11, 0.8), strip(20, 25, 0.7)]
    res = suppress(
        masks, SuppressionConfig(decay=DecayFn("linear"), top_k=None)
    )
    assert res.kept_indices == (0, 2, 1)
    assert res.updated_scores == pytest.approx(
        (0.9, 0.7, 0.8 * (1 - 9 / 11)), abs=1e-12
    )
    capped = suppress(masks, SuppressionConfig(decay=DecayFn("linear"), top_k=2))
    assert capped.kept_indices == (0, 2)


def test_suppress_top_k_and_threshold():
    masks = [strip(0, 10, 0.9), strip(1, 11, 0.8), strip(20, 25, 0.7)]
    res = suppress(
        masks,
        SuppressionConfig(decay=DecayFn("linear"), score_threshold=0.5, top_k=100),
    )
    assert res.kept_indices == (0, 2)  # decayed B falls under the threshold


def test_scored_mask_validation():
    with pytest.raises(ValueError):
        ScoredMask(DUMMY, 0.0)
    with pytest.raises(ValueError):
        ScoredMask(DUMMY, 1.2)
    # bool passes 0 < s <= 1, but a mask-set file would store it as JSON true.
    for score in (True, np.bool_(True), "0.5", None):
        with pytest.raises(ValueError, match="score"):
            ScoredMask(DUMMY, score)
    # A string mask was once accepted and failed inside suppress with an
    # AttributeError.
    for mask in ("x", None, np.ones((1, 1), bool), DUMMY.words):
        with pytest.raises(ValueError, match="mask must be a BinaryMask"):
            ScoredMask(mask, 0.5)
    for category in (-1, 1.5, True, np.int64(1), "1"):
        with pytest.raises(ValueError, match="category"):
            ScoredMask(DUMMY, 0.5, category)


def test_suppress_config_is_a_config_or_none():
    masks = scored(0.9, 0.8)
    assert suppress(masks, None) == suppress(masks, SuppressionConfig())
    # {} and 0 once ran the default matrix NMS; "hard" once failed with an
    # AttributeError.
    for bad in ({}, 0, "hard", [], False, DecayFn()):
        with pytest.raises(ValueError, match="config must be a SuppressionConfig"):
            suppress(masks, bad)


def test_suppression_result_validation():
    with pytest.raises(ValueError):
        SuppressionResult((0, 0), (0.5, 0.5))
    with pytest.raises(ValueError):
        SuppressionResult((0,), (1.5,))
    with pytest.raises(ValueError):
        SuppressionResult((0, 1), (0.5,))
    # Indices are exact ints >= 0 and scores finite reals: ("3", 1.7, False)
    # once read as (3, 1, 0), and "0.5" as 0.5.
    for index in ("3", 1.7, False, -1, np.int64(3)):
        with pytest.raises(ValueError, match="kept index"):
            SuppressionResult((index,), (0.5,))
    for score in ("0.5", True, np.nan, None):
        with pytest.raises(ValueError, match="updated score"):
            SuppressionResult((0,), (score,))
    res = SuppressionResult((3, 0), (1, np.float64(0.25)))
    assert res.updated_scores == (1.0, 0.25)
    assert [type(s) for s in res.updated_scores] == [float, float]


def test_config_validation():
    with pytest.raises(ValueError):
        SuppressionConfig(method="other")
    with pytest.raises(ValueError):
        SuppressionConfig(iou_threshold=1.5)
    # top_k is None or an exact int >= 1: no bool, float, NaN or NumPy int.
    for bad in (0, -1, True, False, 2.0, np.nan, np.int64(5)):
        with pytest.raises(ValueError):
            SuppressionConfig(top_k=bad)
    assert SuppressionConfig(top_k=1).top_k == 1
    assert SuppressionConfig(top_k=None).top_k is None
    for bad in (-0.1, np.nan):
        with pytest.raises(ValueError):
            SuppressionConfig(score_threshold=bad)
    # Both bools pass the range checks; score_threshold=True or inf once
    # kept nothing.
    for field in ("iou_threshold", "score_threshold"):
        for bad in (True, False, np.bool_(True), np.inf, "0.5", None):
            with pytest.raises(ValueError, match=f"{field} must be a real number"):
                SuppressionConfig(**{field: bad})
    # class_agnostic is exactly a bool: "no" and 1 once pooled every
    # category, None and 0.0 once grouped by it.
    for bad in ("no", 1, None, 0.0, np.bool_(True)):
        with pytest.raises(ValueError, match="class_agnostic must be a bool"):
            SuppressionConfig(class_agnostic=bad)
    assert SuppressionConfig(class_agnostic=True).class_agnostic is True
    # decay is a DecayFn for every method: a kind name or None once passed
    # here and failed inside suppress with an AttributeError.
    for method in METHODS:
        for bad in ("linear", None, 0.5):
            with pytest.raises(ValueError, match="decay must be a DecayFn"):
                SuppressionConfig(method=method, decay=bad)
    with pytest.raises(ValueError):
        run_method("other", scored(0.9), upper(1, {}), SuppressionConfig())
