import numpy as np
import pytest

from maskops import SceneSpec, gen_scene, mask_iou, sort_by_score
from maskops.reference import greedy_keep


def test_empty_scene():
    assert gen_scene(SceneSpec(num_instances=0)) == []


def test_mask_count():
    spec = SceneSpec(num_instances=5, num_duplicates_per_instance=4, seed=3)
    scene = gen_scene(spec)
    assert spec.total_masks == 25
    assert len(scene) == 25


def test_determinism():
    spec = SceneSpec(seed=9, num_instances=4, num_duplicates_per_instance=2)
    a, b = gen_scene(spec), gen_scene(spec)
    for x, y in zip(a, b):
        assert x.mask == y.mask and x.score == y.score


def test_different_seeds_differ():
    a = gen_scene(SceneSpec(seed=1, num_instances=3))
    b = gen_scene(SceneSpec(seed=2, num_instances=3))
    assert any(x.mask != y.mask for x, y in zip(a, b))


@pytest.mark.parametrize("shape", ["rectangle", "ellipse"])
def test_masks_valid_and_clipped(shape):
    scene = gen_scene(
        SceneSpec(height=32, width=48, num_instances=10, shape=shape, seed=5)
    )
    for m in scene:
        assert m.mask.height == 32 and m.mask.width == 48
        assert m.mask.area > 0
        assert 0.0 < m.score <= 1.0
        assert m.category == 0


def test_duplicates_cluster_tightly():
    spec = SceneSpec(num_instances=6, num_duplicates_per_instance=3, seed=11)
    scene = gen_scene(spec)
    per = 1 + spec.num_duplicates_per_instance
    for c in range(spec.num_instances):
        cluster = scene[c * per : (c + 1) * per]
        base = cluster[0]
        for dup in cluster[1:]:
            assert mask_iou(base.mask, dup.mask) > 0.5
            assert dup.score < base.score + 3 * spec.score_noise + 0.05


def test_hard_suppression_keeps_one_per_cluster():
    spec = SceneSpec(num_instances=5, num_duplicates_per_instance=4, seed=21)
    scene = gen_scene(spec)
    order = sort_by_score(scene)
    kept = greedy_keep([scene[i] for i in order], 0.5)
    assert 4 <= len(kept) <= 7  # ~ one per cluster, overlap permitting


def test_spec_validation():
    with pytest.raises(ValueError):
        SceneSpec(height=4)
    with pytest.raises(ValueError):
        SceneSpec(num_instances=-1)
    with pytest.raises(ValueError):
        SceneSpec(shape="triangle")
    for noise in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="score_noise"):
            SceneSpec(score_noise=noise)
