import json

import numpy as np
import pytest

from maskops import (
    BinaryMask,
    ScoredMask,
    SceneSpec,
    gen_scene,
    mask_iou,
    matrix_nms,
    pairwise_iou_matrix,
    sort_by_score,
)
from maskops.formats import (
    instances_to_dict,
    kept_to_dict,
    load_categories,
    load_feature,
    load_kernels,
    mask_set_from_dict,
    mask_set_to_dict,
    read_mask_set,
    read_tensor,
    to_json,
    write_mask_set,
    write_tensor,
)
from maskops.dynahead import Instance
from maskops.masks import mask_to_box
from maskops.suppression import DecayFn


def test_mask_set_round_trip(tmp_path):
    scene = gen_scene(SceneSpec(num_instances=4, seed=6))
    path = tmp_path / "scene.json"
    write_mask_set(path, scene)
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


def test_mask_set_rejects_mixed_dims():
    a = ScoredMask(BinaryMask.from_array(np.ones((2, 2), bool)), 0.5)
    b = ScoredMask(BinaryMask.from_array(np.ones((2, 3), bool)), 0.5)
    with pytest.raises(ValueError):
        mask_set_to_dict([a, b])


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
    ],
)
def test_malformed_mask_set(doc):
    with pytest.raises(ValueError, match="malformed"):
        mask_set_from_dict(doc)


def test_mask_set_bad_rle_counts():
    # Structurally fine JSON whose counts violate the run-length invariants.
    doc = {"height": 2, "width": 2, "instances": [{"score": 0.5, "counts": [1, 1]}]}
    with pytest.raises(ValueError):
        mask_set_from_dict(doc)


def test_tensor_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 4, 5))
    path = tmp_path / "feat.bin"
    write_tensor(path, arr, "feature")
    back, kind = read_tensor(path)
    assert kind == "feature"
    assert back.shape == (3, 4, 5)
    assert back.dtype == np.float64
    # Payload is float32, so the round trip quantizes to float32 precision.
    np.testing.assert_array_equal(back, arr.astype(np.float32).astype(np.float64))


def test_tensor_kind_validation(tmp_path):
    with pytest.raises(ValueError):
        write_tensor(tmp_path / "x.bin", np.zeros((2, 2)), "weights")


def test_tensor_malformed_header(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not json\n\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="malformed tensor header"):
        read_tensor(path)
    path.write_bytes(b'{"shape": [1]}\n\x00\x00\x00\x00')
    with pytest.raises(ValueError):
        read_tensor(path)
    path.write_bytes(b'{"shape": [2], "kind": "feature"}\n\x00\x00\x00\x00')
    with pytest.raises(ValueError, match="payload size"):
        read_tensor(path)


def test_typed_loaders(tmp_path):
    rng = np.random.default_rng(1)
    fpath, kpath, cpath = (tmp_path / n for n in ("f.bin", "k.bin", "c.bin"))
    write_tensor(fpath, rng.standard_normal((6, 8, 4)), "feature")
    write_tensor(kpath, rng.standard_normal((3, 3, 4)), "kernel")
    write_tensor(cpath, rng.uniform(0.0, 1.0, (3, 3, 2)), "category")

    feature = load_feature(fpath)
    assert (feature.height, feature.width, feature.channels) == (6, 8, 4)
    kernels = load_kernels(kpath, feature_channels=4)
    assert kernels.grid_size == 3 and kernels.kernel_size == 1
    categories = load_categories(cpath)
    assert categories.grid_size == 3 and categories.num_classes == 2

    with pytest.raises(ValueError, match="expected a feature"):
        load_feature(kpath)
    with pytest.raises(ValueError, match="expected a kernel"):
        load_kernels(cpath, feature_channels=4)
    with pytest.raises(ValueError, match="expected a category"):
        load_categories(fpath)


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
