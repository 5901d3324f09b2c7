import numpy as np
import pytest

from maskops import SceneSpec, gen_scene, mask_iou, reference, scenes, sort_by_score
from maskops import masks as masks_module
from maskops.reference import greedy_keep


def test_empty_scene():
    assert gen_scene(SceneSpec(num_instances=0)) == []


@pytest.mark.parametrize("shape", scenes.SHAPES)
@pytest.mark.parametrize("h,w", [(8, 8), (37, 100), (128, 128), (200, 336)])
@pytest.mark.parametrize("instances,duplicates", [(0, 2), (7, 0), (9, 4)])
def test_gen_scene_equals_the_per_mask_painter(shape, h, w, instances, duplicates):
    spec = SceneSpec(
        height=h, width=w, num_instances=instances,
        num_duplicates_per_instance=duplicates, shape=shape, seed=h * w,
    )
    scene, drawn = gen_scene(spec), scenes._draw(spec)
    assert len(scene) == len(drawn) == spec.total_masks
    assert [m.mask for m in scene] == [reference.paint_shape(spec, *d[:4]) for d in drawn]
    assert [m.score for m in scene] == [d[4] for d in drawn]


# 45 masks of 37x100 fit in one `_SCRATCH_BYTES` chunk of words; 45 of
# 200x336 take four. An ellipse's chunk is sized by its float64 pixels.
@pytest.mark.parametrize(
    "shape,h,w,several",
    [("rectangle", 37, 100, False), ("ellipse", 37, 100, True), ("rectangle", 200, 336, True)],
)
def test_scene_masks_are_read_only_rows_of_shared_blocks(shape, h, w, several):
    spec = SceneSpec(
        height=h, width=w, num_instances=9, num_duplicates_per_instance=4, shape=shape
    )
    scene = gen_scene(spec)
    blocks = []  # each block with the index of its first mask
    for i, m in enumerate(scene):
        if not blocks or m.mask.words.base is not blocks[-1][1]:
            blocks.append((i, m.mask.words.base))
    for first, block in blocks:
        assert block.dtype == np.uint64 and block.ndim == 2
        assert not block.flags.writeable
        for j, row in enumerate(block):
            words = scene[first + j].mask.words
            assert words.base is block and not words.flags.writeable
            assert words.ctypes.data == row.ctypes.data and words.shape == row.shape
    assert sum(len(block) for _, block in blocks) == len(scene)
    assert len(blocks) < len(scene) and (len(blocks) > 1) == several


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
    # A negative seed once failed inside NumPy, with no field named.
    with pytest.raises(ValueError, match="seed must be an int >= 0"):
        SceneSpec(seed=-1)
    for noise in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="score_noise"):
            SceneSpec(score_noise=noise)
    for noise in (True, False, np.bool_(False), float("inf"), "0.5", None):
        with pytest.raises(ValueError, match="score_noise must be a real number"):
            SceneSpec(score_noise=noise)


@pytest.mark.parametrize(
    "field", ["height", "width", "num_instances", "num_duplicates_per_instance", "seed"]
)
@pytest.mark.parametrize("value", [16.5, 1.5, True, np.int64(8)])
def test_spec_integer_fields_are_exact_ints(field, value):
    with pytest.raises(ValueError, match=field):
        SceneSpec(**{field: value})


def test_spec_rejects_fractional_dims_before_painting():
    # A float height once painted 17-row masks, and a float instance count
    # leaked a TypeError out of gen_scene.
    with pytest.raises(ValueError, match="height"):
        gen_scene(SceneSpec(height=16.5, width=16, num_instances=1))
    with pytest.raises(ValueError, match="num_instances"):
        gen_scene(SceneSpec(num_instances=1.5))


def test_spec_pixel_cap():
    # 256 x 256 x 2048 = 2**27 is the largest scene a mask-set file may hold.
    SceneSpec(height=256, width=256, num_instances=512, num_duplicates_per_instance=3)
    for h, w, n in ((256, 256, 2049), (100000, 100000, 1)):
        with pytest.raises(ValueError, match="exceed"):
            SceneSpec(height=h, width=w, num_instances=n, num_duplicates_per_instance=0)
    # An empty scene is sized as one mask, so its canvas alone must fit.
    with pytest.raises(ValueError, match="0 masks of 100000x100000"):
        SceneSpec(height=100000, width=100000, num_instances=0)
    assert gen_scene(SceneSpec(height=8192, width=8192, num_instances=0)) == []


def test_spec_pixel_cap_is_the_mask_set_cap(monkeypatch):
    # The spec reads the cap the mask-set reader applies, not a copy of it.
    # Each 8x8 mask counts 8 rows padded to 64 pixels: 512 of the cap.
    monkeypatch.setattr(masks_module, "MAX_MASK_SET_PIXELS", 1024)
    SceneSpec(height=8, width=8, num_instances=2, num_duplicates_per_instance=0)
    with pytest.raises(
        ValueError, match=r"3 masks of 8x8 \(rows padded to 64 pixels\) exceed 1024 pixels"
    ):
        SceneSpec(height=8, width=8, num_instances=3, num_duplicates_per_instance=0)
