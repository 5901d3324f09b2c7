import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from maskops import (
    BinaryMask,
    ScoredMask,
    SceneSpec,
    gen_scene,
    mask_iou,
    matrix_nms,
    pairwise_iou_matrix,
    rle_encode,
    sort_by_score,
)
from maskops import formats, reference
from maskops import masks as masks_module
from maskops.formats import (
    instances_to_dict,
    kept_to_dict,
    mask_set_from_dict,
    mask_set_to_dict,
    read_mask_set,
    to_json,
)
from maskops.dynahead import Instance
from maskops.masks import mask_to_box
from maskops.suppression import DecayFn


def test_mask_set_round_trip(tmp_path):
    scene = gen_scene(SceneSpec(num_instances=4, seed=6))
    path = tmp_path / "scene.json"
    path.write_text(to_json(mask_set_to_dict(scene)))
    back = read_mask_set(path)
    assert len(back) == len(scene)
    for a, b in zip(scene, back):
        assert a.mask == b.mask
        assert a.score == b.score
        assert a.category == b.category


def test_empty_mask_set_needs_dims(tmp_path):
    with pytest.raises(ValueError):
        mask_set_to_dict([])
    doc = mask_set_to_dict([], height=16, width=24)
    assert doc == {"height": 16, "width": 24, "instances": []}
    assert mask_set_from_dict(doc) == []


@pytest.mark.parametrize(
    "dims",
    [
        {"height": 8.7, "width": True},
        {"height": 8.0, "width": 8},
        {"height": 8, "width": np.int64(8)},
        {"height": "8", "width": 8},
        {"height": 0, "width": 8},
        {"height": 8, "width": -1},
    ],
)
def test_mask_set_dims_must_be_positive_ints(dims):
    with pytest.raises(ValueError, match="must be an int >= 1"):
        mask_set_to_dict([], **dims)
    masks = [ScoredMask(BinaryMask.from_array(np.ones((8, 8), bool)), 0.5)]
    with pytest.raises(ValueError, match="must be an int >= 1"):
        mask_set_to_dict(masks, **dims)


def test_mask_set_explicit_dims_must_match():
    masks = [ScoredMask(BinaryMask.from_array(np.ones((8, 8), bool)), 0.5)]
    assert mask_set_to_dict(masks, height=8, width=8) == mask_set_to_dict(masks)
    for dims in ({"height": 5, "width": 5}, {"height": 8, "width": 5}, {"height": 5}):
        with pytest.raises(ValueError, match="differ"):
            mask_set_to_dict(masks, **dims)


def test_mask_set_rejects_mixed_dims():
    a = ScoredMask(BinaryMask.from_array(np.ones((2, 2), bool)), 0.5)
    b = ScoredMask(BinaryMask.from_array(np.ones((2, 3), bool)), 0.5)
    for masks in ([a, b], [a, a, b]):
        with pytest.raises(ValueError, match="masks must share dimensions"):
            mask_set_to_dict(masks)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"height": 4, "width": 4},
        {"height": 4, "width": 4, "instances": [{"score": 0.5}]},
        {"height": 4, "width": 4, "instances": [{"counts": None, "score": 0.5}]},
        # Well-formed except for one field whose JSON type is wrong; each of
        # these used to be coerced into a valid-looking mask.
        {"height": 1, "width": 10, "instances": [{"counts": "55", "score": 0.5}]},
        {"height": 1, "width": 10, "instances": [{"counts": [5.0, 5], "score": 0.5}]},
        {"height": 1, "width": 10, "instances": [{"counts": [5, 5.9], "score": 0.5}]},
        {"height": 1, "width": 10, "instances": [{"counts": [9, True], "score": 0.5}]},
        {"height": 1, "width": 10, "instances": [{"counts": [5, 5], "score": True}]},
        {"height": 1, "width": 10, "instances": [{"counts": [5, 5], "score": "0.5"}]},
        {"height": 1, "width": 10,
         "instances": [{"counts": [5, 5], "score": 0.5, "category": 1.9}]},
        {"height": 1, "width": 10,
         "instances": [{"counts": [5, 5], "score": 0.5, "category": True}]},
        {"height": 1.5, "width": 10, "instances": []},
        {"height": 1, "width": 10.0, "instances": []},
        # Past the pixel cap: a count beyond int64, and a huge allocation.
        {"height": 10000000000, "width": 10000000000,
         "instances": [{"counts": [100000000000000000000], "score": 0.5}]},
        {"height": 100000, "width": 100000,
         "instances": [{"counts": [10000000000], "score": 0.5}]},
        # A score too large for a float.
        {"height": 1, "width": 1, "instances": [{"counts": [1], "score": 10**400}]},
        # Non-positive dimensions, with no instance to reject them later.
        {"height": 0, "width": 4, "instances": []},
        {"height": 4, "width": -5, "instances": []},
        {"height": 0, "width": -5, "instances": []},
        {"height": 0, "width": 0, "instances": []},
        # An empty set is sized as one mask: the first was read as an empty
        # set, and the other two failed inside NumPy, not at the cap.
        {"height": 100000, "width": 100000, "instances": []},
        {"height": 10000000000, "width": 10000000000, "instances": []},
        {"height": 2**40, "width": 2**40, "instances": []},
        # instances must be a list: the first two were read as empty sets.
        {"height": 4, "width": 4, "instances": {}},
        {"height": 4, "width": 4, "instances": ""},
        {"height": 4, "width": 4, "instances": {"a": 1}},
        # The document and each instance must be objects: these once failed
        # with Python's indexing messages.
        {"height": 4, "width": 4, "instances": ["abc"]},
        {"height": 4, "width": 4, "instances": [None]},
        [1, 2],
    ],
)
def test_malformed_mask_set(doc):
    with pytest.raises(ValueError, match="malformed"):
        mask_set_from_dict(doc)


def test_mask_set_pixel_cap(monkeypatch):
    # The cap admits a COCO-scale set and the benchmark's largest set.
    assert 100 * 640 * 480 <= masks_module.MAX_MASK_SET_PIXELS
    assert 300 * 128 * 128 <= masks_module.MAX_MASK_SET_PIXELS
    # Each 2x5 mask counts 2 rows padded to 64 pixels: 128 of the cap.
    monkeypatch.setattr(masks_module, "MAX_MASK_SET_PIXELS", 256)
    inst = {"counts": [10], "score": 0.5}
    doc = {"height": 2, "width": 5, "instances": [inst, inst]}
    assert len(mask_set_from_dict(doc)) == 2
    with pytest.raises(ValueError, match="malformed mask set: 3 masks"):
        mask_set_from_dict({**doc, "instances": [inst] * 3})


def test_mask_set_writer_applies_the_pixel_cap(monkeypatch):
    # The writer refuses a set, empty or not, that its reader would refuse.
    with pytest.raises(ValueError, match="0 masks of 100000x100000"):
        mask_set_to_dict([], height=100000, width=100000)
    # Each 8x8 mask counts 8 rows padded to 64 pixels: 512 of the cap.
    monkeypatch.setattr(masks_module, "MAX_MASK_SET_PIXELS", 1024)
    full = ScoredMask(BinaryMask.from_array(np.ones((8, 8), bool)), 0.5)
    assert len(mask_set_from_dict(mask_set_to_dict([full] * 2))) == 2
    with pytest.raises(ValueError, match="3 masks of 8x8"):
        mask_set_to_dict([full] * 3)


# JSON-like values, and documents shaped like a mask set whose fields take
# any such value. Dimensions are either small or far past the pixel cap, so
# no generated document can ask for a large decode; the last kind has valid
# counts, so parsing reaches the score and category fields.
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_dims = st.integers(-2, 12) | st.integers(min_value=2**40) | _json
_counts = st.lists(st.integers(-2, 150) | st.integers(min_value=2**62), max_size=6)
_score = (
    st.floats(0.0, 1.0) | st.floats() | st.integers()
    | st.integers(min_value=2**1100) | _json
)


def _instances(counts):
    return st.lists(
        st.fixed_dictionaries(
            {"counts": counts, "score": _score},
            optional={"category": st.integers() | _json},
        ),
        max_size=3,
    )


_documents = (
    _json
    | st.fixed_dictionaries(
        {"height": _dims, "width": _dims,
         "instances": _instances(_counts | _json) | _json}
    )
    | st.integers(1, 8).flatmap(
        lambda n: st.fixed_dictionaries(
            {"height": st.just(1), "width": st.just(n),
             "instances": _instances(st.sampled_from([[n], [0, n]]))}
        )
    )
)


@settings(deadline=None)
@given(_documents)
def test_mask_set_from_dict_returns_or_raises_value_error(doc):
    try:
        masks = mask_set_from_dict(doc)
    except ValueError:
        return
    assert all(isinstance(m, ScoredMask) for m in masks)


@st.composite
def _mask_sets(draw):
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    masks = [
        ScoredMask(
            BinaryMask.from_array(draw(arrays(bool, (h, w)))),
            draw(st.floats(0.0, 1.0, exclude_min=True)),
            draw(st.integers(0, 2**40)),
        )
        for _ in range(draw(st.integers(0, 4)))
    ]
    return h, w, masks


@settings(deadline=None)
@given(_mask_sets())
def test_mask_set_dict_round_trip(case):
    h, w, masks = case
    doc = json.loads(to_json(mask_set_to_dict(masks, h, w)))
    assert mask_set_from_dict(doc) == masks


@st.composite
def _rle_sets(draw):
    """h x w (w 1-200) and the RLE counts of 1-8 masks: empty, full, random
    pixels, or up to 12 runs that start in background or, after a leading
    zero, in foreground, and so end in either."""
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 200))
    n = h * w
    sets = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["empty", "full", "random", "runs"]))
        if kind == "empty":
            counts = [n]
        elif kind == "full":
            counts = [0, n]
        elif kind == "random":
            arr = draw(arrays(bool, (h, w)))
            counts = list(rle_encode(BinaryMask.from_array(arr)).counts)
        else:
            cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=12))) if n > 1 else []
            counts = np.diff([0, *cuts, n]).tolist()
            if draw(st.booleans()):
                counts = [0, *counts]
        sets.append(counts)
    return h, w, sets


# Masks that end in foreground, each followed by another mask: at widths
# that leave padding in the last word (1x3, 3x70) and one that leaves none
# (1x64), where a mask's last word runs straight into the next mask's first.
@settings(deadline=None, max_examples=300)
@given(_rle_sets(), st.sampled_from([1, 300, 1 << 17]))
@example((1, 3, [[1, 2], [3], [0, 3], [2, 1]]), 1 << 17)
@example((1, 64, [[0, 64], [64], [63, 1], [0, 1, 63]]), 1 << 17)
@example((3, 70, [[0, 210], [5, 205], [0, 140, 70], [210]]), 1)
def test_mask_set_decodes_like_repeat(case, scratch):
    h, w, sets = case
    doc = {"height": h, "width": w,
           "instances": [{"counts": c, "score": 0.5} for c in sets]}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(masks_module, "_SCRATCH_BYTES", scratch)
        got = mask_set_from_dict(doc)
    want = [reference.rle_decode_repeat(c, h, w) for c in sets]
    assert [m.mask for m in got] == want


def test_mask_set_shares_one_read_only_block():
    doc = {"height": 2, "width": 3,
           "instances": [{"counts": [1, 5], "score": 0.5}, {"counts": [6], "score": 0.4}]}
    a, b = (m.mask for m in mask_set_from_dict(doc))
    assert a.words.base is b.words.base
    assert not a.words.flags.writeable and not a.words.base.flags.writeable


@pytest.mark.parametrize("counts", ["55", (5, 5), {"5": 5}, 10])
def test_mask_set_counts_must_be_a_list(counts):
    doc = {"height": 1, "width": 10, "instances": [{"counts": counts, "score": 0.5}]}
    with pytest.raises(ValueError, match="malformed mask set: counts must be a list"):
        mask_set_from_dict(doc)


def test_mask_set_from_dict_peak_memory():
    # 300 masks of 128x128: the 614 KB block of words, a 128 KB scratch and
    # the count arrays of 64 masks at a time. This document reads 1.05 MB;
    # decoding the whole set in one chunk reads 2.4 MB, and one byte per
    # pixel would be 4.9 MB.
    scene = gen_scene(SceneSpec(height=128, width=128, num_instances=60,
                                num_duplicates_per_instance=4, seed=0))
    doc = json.loads(to_json(mask_set_to_dict(scene)))
    gc.collect()
    tracemalloc.start()
    try:
        masks = mask_set_from_dict(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [m.mask for m in masks] == [m.mask for m in scene]
    assert peak < 1_300_000


def test_mask_set_bad_rle_counts():
    # Structurally fine JSON whose counts violate the run-length invariants.
    doc = {"height": 2, "width": 2, "instances": [{"score": 0.5, "counts": [1, 1]}]}
    with pytest.raises(ValueError):
        mask_set_from_dict(doc)


def test_kept_to_dict():
    scene = gen_scene(SceneSpec(num_instances=3, num_duplicates_per_instance=1, seed=8))
    order = sort_by_score(scene)
    masks = [scene[i] for i in order]
    result = matrix_nms(masks, pairwise_iou_matrix([m.mask for m in masks]), DecayFn())
    doc = kept_to_dict(masks, result)
    assert set(doc) == {"kept"}
    assert len(doc["kept"]) == len(result)
    for entry, i, s in zip(doc["kept"], result.kept_indices, result.updated_scores):
        box = mask_to_box(masks[i].mask)
        assert entry["index"] == i
        assert entry["score"] == s
        assert entry["box"] == [box.x_min, box.y_min, box.x_max, box.y_max]


def test_kept_to_dict_writes_no_box_for_an_empty_mask():
    doc = {"height": 2, "width": 3,
           "instances": [{"counts": [6], "score": 0.9}, {"counts": [1, 2, 3], "score": 0.8}]}
    masks = mask_set_from_dict(doc)
    result = matrix_nms(masks, pairwise_iou_matrix([m.mask for m in masks]), DecayFn())
    assert result.kept_indices == (0, 1)
    kept = kept_to_dict(masks, result)["kept"]
    assert [row["box"] for row in kept] == [None, [1, 0, 2, 0]]


def test_instances_to_dict_round_trip():
    mask = BinaryMask.from_array(np.eye(4, dtype=bool))
    inst = Instance(mask=mask, box=mask_to_box(mask), score=0.75, category=2)
    doc = instances_to_dict([inst])
    (entry,) = doc["instances"]
    assert entry["score"] == 0.75 and entry["category"] == 2
    restored = mask_set_from_dict(
        {"height": 4, "width": 4, "instances": [{**entry, "score": 0.75}]}
    )
    assert restored[0].mask == mask


def test_to_json_is_stable_text():
    text = to_json({"b": 1, "a": [1.5]})
    assert text.endswith("\n")
    assert json.loads(text) == {"b": 1, "a": [1.5]}
    assert to_json({"b": 1, "a": [1.5]}) == text
