import numpy as np
import pytest

from maskops import (
    CategoryGrid,
    DecayFn,
    FeatureMap,
    FusionWeights,
    KernelGrid,
    PyramidLevels,
    SoftMask,
    SuppressionConfig,
    assemble_masks,
    bilinear_upsample_2x,
    coord_channels,
    dynamic_conv_1x1,
    dynamic_conv_3x3,
    fuse_pyramid,
    grid_index,
    group_norm,
    inference_pipeline,
    mask_iou,
    mask_to_box,
    pairwise_iou_matrix,
)
from maskops.dynahead import NormConvStage, _conv3x3, _group_norm, _upsample2x
from maskops.reference import conv1x1_loops, conv3x3_loops


@pytest.mark.parametrize("i,j,s,k", [(2, 3, 5, 13), (0, 0, 4, 0), (4, 4, 5, 24)])
def test_grid_index(i, j, s, k):
    assert grid_index(i, j, s) == k


@pytest.mark.parametrize("i,j", [(-1, 0), (0, 5), (5, 0)])
def test_grid_index_out_of_range(i, j):
    with pytest.raises(ValueError):
        grid_index(i, j, 5)


def test_coord_channels_values():
    cc = coord_channels(2, 3)
    assert np.array_equal(cc.data[0, :, 0], [-1.0, 0.0, 1.0])  # x along columns
    assert np.array_equal(cc.data[:, 0, 1], [-1.0, 1.0])  # y along rows
    one = coord_channels(1, 1)
    assert one.data[0, 0, 0] == 0.0 and one.data[0, 0, 1] == 0.0


def test_coord_channels_antisymmetry():
    cc = coord_channels(5, 7).data
    assert np.array_equal(cc[:, ::-1, 0], -cc[:, :, 0])
    assert np.array_equal(cc[::-1, :, 1], -cc[:, :, 1])


def test_conv1x1_pixel_dot():
    fm = FeatureMap(np.array([[[1.0, 2.0]]]))
    out = dynamic_conv_1x1(fm, [0.5, -1.0])
    assert out[0, 0] == -1.5
    assert np.all(dynamic_conv_1x1(fm, [0.0, 0.0]) == 0.0)


def test_conv1x1_matches_loops():
    rng = np.random.default_rng(2)
    feat = rng.normal(size=(4, 4, 3))
    k = rng.normal(size=3)
    got = dynamic_conv_1x1(FeatureMap(feat), k)
    assert np.allclose(got, conv1x1_loops(feat, k), rtol=1e-6, atol=1e-12)


def test_conv3x3_delta_kernel_is_identity():
    rng = np.random.default_rng(4)
    feat = rng.normal(size=(6, 5, 1))
    kernel = np.zeros(9)
    kernel[4] = 1.0  # center tap
    assert np.array_equal(dynamic_conv_3x3(FeatureMap(feat), kernel), feat[:, :, 0])


def test_conv3x3_matches_loops():
    rng = np.random.default_rng(5)
    feat = rng.normal(size=(5, 5, 2))
    k = rng.normal(size=18)
    got = dynamic_conv_3x3(FeatureMap(feat), k)
    assert np.allclose(got, conv3x3_loops(feat, k), rtol=1e-6, atol=1e-12)
    ints = rng.integers(-4, 5, size=(5, 5, 2)).astype(float)
    ki = rng.integers(-4, 5, size=18).astype(float)
    assert np.array_equal(
        dynamic_conv_3x3(FeatureMap(ints), ki), conv3x3_loops(ints, ki)
    )


def test_conv_kernel_length_mismatch():
    fm = FeatureMap(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError):
        dynamic_conv_1x1(fm, np.zeros(4))
    with pytest.raises(ValueError):
        dynamic_conv_3x3(fm, np.zeros(28))


def test_upsample_constant_and_example():
    const = bilinear_upsample_2x(FeatureMap(np.full((3, 2, 2), 1.5)))
    assert const.data.shape == (6, 4, 2)
    assert np.all(const.data == 1.5)
    row = bilinear_upsample_2x(FeatureMap(np.array([[[0.0], [1.0]]])))
    assert np.allclose(row.data[0, :, 0], [0.0, 0.25, 0.75, 1.0])


def test_upsample_linearity():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 5, 3))
    a = bilinear_upsample_2x(FeatureMap(3.5 * x)).data
    b = 3.5 * bilinear_upsample_2x(FeatureMap(x)).data
    assert np.allclose(a, b, atol=1e-12)


def test_group_norm_constant_input():
    out = group_norm(FeatureMap(np.full((3, 3, 4), 7.0)), groups=2)
    assert np.allclose(out.data, 0.0)


def test_group_norm_idempotent_on_normalized():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(8, 8, 4))
    x = (x - x.mean(axis=(0, 1), keepdims=True)) / x.std(axis=(0, 1), keepdims=True)
    out = group_norm(FeatureMap(x), groups=4)
    assert np.allclose(out.data, x, atol=1e-3)


def test_group_norm_statistics():
    rng = np.random.default_rng(9)
    out = group_norm(FeatureMap(rng.normal(3.0, 2.5, size=(7, 6, 8))), groups=4).data
    g = out.reshape(7, 6, 4, 2)
    assert np.abs(g.mean(axis=(0, 1, 3))).max() < 1e-6
    assert np.abs(g.var(axis=(0, 1, 3)) - 1.0).max() < 1e-4


def test_group_norm_affine_and_divisibility():
    x = FeatureMap(np.random.default_rng(0).normal(size=(4, 4, 4)))
    out = group_norm(x, 2, scale=np.full(4, 2.0), shift=np.full(4, 1.0)).data
    base = group_norm(x, 2).data
    assert np.allclose(out, base * 2.0 + 1.0)
    with pytest.raises(ValueError):
        group_norm(x, 3)


def seeded_pyramid(seed=0, levels=4, channels=4, out_channels=8):
    rng = np.random.default_rng(seed)
    weights = FusionWeights.seeded(levels, channels, out_channels, seed=seed, groups=2)
    maps = tuple(
        FeatureMap(rng.normal(size=(16 >> i, 24 >> i, channels)))
        for i in range(levels)
    )
    return PyramidLevels(maps, weights)


def test_fuse_pyramid_matches_primitive_composition():
    pyr = seeded_pyramid(3)
    w = pyr.fusion_weights
    acc = None
    for li, level in enumerate(pyr.levels):
        x = level.data
        if li == len(pyr.levels) - 1:
            x = np.concatenate(
                [x, coord_channels(level.height, level.width).data], axis=2
            )
        for st in w.stages[li]:
            x = _conv3x3(x, st.kernel)
            x = _group_norm(x, w.groups, w.eps) * st.gn_scale + st.gn_shift
            x = np.maximum(x, 0.0)
            x = _upsample2x(x)
        acc = x if acc is None else acc + x
    want = np.maximum(
        _group_norm(acc @ w.output.kernel, w.groups, w.eps) * w.output.gn_scale
        + w.output.gn_shift,
        0.0,
    )
    got = fuse_pyramid(pyr)
    assert got.data.shape == (16, 24, 8)
    assert np.array_equal(got.data, want)


def test_fuse_pyramid_zero_weights_zero_input():
    c = 4
    zero_stage = lambda cin: NormConvStage(
        np.zeros((3, 3, cin, c)), np.ones(c), np.zeros(c)
    )
    stages = ((), (zero_stage(c + 2),))
    weights = FusionWeights(stages, NormConvStage(np.zeros((c, c)), np.ones(c), np.zeros(c)), 2)
    pyr = PyramidLevels(
        (FeatureMap(np.zeros((8, 8, c))), FeatureMap(np.zeros((4, 4, c)))), weights
    )
    assert np.all(fuse_pyramid(pyr).data == 0.0)


def test_fuse_pyramid_single_level():
    rng = np.random.default_rng(12)
    c = 4
    weights = FusionWeights(
        ((),), NormConvStage(np.eye(c), np.ones(c), np.zeros(c)), 2
    )
    x = rng.normal(size=(8, 8, c))
    out = fuse_pyramid(PyramidLevels((FeatureMap(x),), weights))
    want = np.maximum(_group_norm(x, 2, 1e-5), 0.0)
    assert np.allclose(out.data, want)


def test_pyramid_validation():
    w = FusionWeights.seeded(2, 4, 4, groups=2)
    with pytest.raises(ValueError):  # not exact halving
        PyramidLevels(
            (FeatureMap(np.zeros((8, 8, 4))), FeatureMap(np.zeros((5, 4, 4)))), w
        )
    with pytest.raises(ValueError):  # channel mismatch across levels
        PyramidLevels(
            (FeatureMap(np.zeros((8, 8, 4))), FeatureMap(np.zeros((4, 4, 2)))), w
        )
    with pytest.raises(ValueError):  # weights for a different level count
        PyramidLevels((FeatureMap(np.zeros((8, 8, 4))),), w)


def test_kernel_grid_dimension_law():
    KernelGrid(np.zeros((3, 3, 4)), 4)
    KernelGrid(np.zeros((3, 3, 36)), 4)
    with pytest.raises(ValueError):
        KernelGrid(np.zeros((3, 3, 8)), 4)
    assert KernelGrid(np.zeros((2, 2, 4)), 4).kernel_size == 1
    assert KernelGrid(np.zeros((2, 2, 36)), 4).kernel_size == 3


def test_soft_mask_invariants():
    with pytest.raises(ValueError):
        SoftMask(np.array([[0.5, 1.0]]))
    with pytest.raises(ValueError):
        SoftMask(np.array([[0.0, 0.5]]))
    sm = SoftMask.from_logits(np.array([[-800.0, 0.0, 800.0]]))
    assert np.all(sm.values > 0.0) and np.all(sm.values < 1.0)
    assert sm.values[0, 1] == 0.5


def test_binarize_tie_is_foreground():
    sm = SoftMask(np.array([[0.5, 0.49999], [0.50001, 0.1]]))
    assert np.array_equal(
        sm.binarize().to_array(), [[True, False], [True, False]]
    )


def grid_inputs(kvecs, scores, s=2, channels=2):
    """Build matching grids: one kernel vector + class-0 score per cell."""
    kdata = np.zeros((s, s, len(kvecs[0])))
    cdata = np.zeros((s, s, 1))
    for idx, (kv, sc) in enumerate(zip(kvecs, scores)):
        i, j = divmod(idx, s)
        kdata[i, j] = kv
        cdata[i, j, 0] = sc
    return CategoryGrid(cdata), KernelGrid(kdata, channels)


def test_assemble_masks_all_below_threshold():
    cat, ker = grid_inputs([[1, 1]] * 4, [0.1, 0.05, 0.0, 0.1])
    feat = FeatureMap(np.ones((4, 4, 2)))
    assert assemble_masks(cat, ker, feat) == []


def test_assemble_masks_saturated_cell():
    cat, ker = grid_inputs([[50.0, 50.0], [0, 0], [0, 0], [0, 0]], [0.9, 0, 0, 0])
    feat = FeatureMap(np.ones((4, 4, 2)))
    out = assemble_masks(cat, ker, feat)
    assert len(out) == 1
    assert out[0].score == 0.9 and out[0].category == 0
    assert out[0].mask.area == 16  # sigmoid(100) saturates above 0.5


def test_assemble_masks_drops_empty():
    cat, ker = grid_inputs([[-50.0, -50.0], [0, 0], [0, 0], [0, 0]], [0.9, 0, 0, 0])
    out = assemble_masks(cat, ker, FeatureMap(np.ones((4, 4, 2))))
    assert out == []


def test_assemble_masks_two_overlapping_blobs():
    # Feature channel 0 lights a left 2x2 blob, channel 1 a shifted one; each
    # kernel picks one channel, so the two masks overlap at IoU 2/6.
    feat = np.full((2, 4, 2), -10.0)
    feat[:, 0:2, 0] = 10.0
    feat[:, 1:3, 1] = 10.0
    cat, ker = grid_inputs([[1, 0], [0, 1], [0, 0], [0, 0]], [0.9, 0.8, 0, 0])
    out = assemble_masks(cat, ker, FeatureMap(feat))
    assert len(out) == 2
    assert mask_iou(out[0].mask, out[1].mask) == pytest.approx(2 / 6)
    expect = pairwise_iou_matrix([m.mask for m in out]).values[0, 1]
    assert mask_iou(out[0].mask, out[1].mask) == expect


def test_assemble_masks_ordering_by_cell_then_category():
    cat = CategoryGrid(np.full((2, 2, 2), 0.5))
    ker = KernelGrid(np.full((2, 2, 2), 5.0), 2)
    out = assemble_masks(cat, ker, FeatureMap(np.ones((3, 3, 2))))
    assert [m.category for m in out] == [0, 1] * 4


def test_assemble_masks_shape_mismatch():
    cat = CategoryGrid(np.full((2, 2, 1), 0.5))
    ker = KernelGrid(np.zeros((3, 3, 2)), 2)
    with pytest.raises(ValueError):
        assemble_masks(cat, ker, FeatureMap(np.ones((3, 3, 2))))
    ker2 = KernelGrid(np.zeros((2, 2, 4)), 4)
    with pytest.raises(ValueError):
        assemble_masks(cat, ker2, FeatureMap(np.ones((3, 3, 2))))


def test_translation_consistency():
    # translating the feature blob translates the produced mask exactly
    # (interior blob, translation-invariant 1x1 kernel)
    def blob_feature(dy, dx):
        f = np.full((12, 12, 1), -8.0)
        f[3 + dy : 6 + dy, 3 + dx : 6 + dx, 0] = 8.0
        return FeatureMap(f)

    cat = CategoryGrid(np.full((1, 1, 1), 0.9))
    ker = KernelGrid(np.ones((1, 1, 1)), 1)
    base = assemble_masks(cat, ker, blob_feature(0, 0))[0].mask.to_array()
    moved = assemble_masks(cat, ker, blob_feature(2, 3))[0].mask.to_array()
    assert np.array_equal(np.roll(base, (2, 3), axis=(0, 1)), moved)


def test_pipeline_empty_and_single():
    pyr = seeded_pyramid(1, levels=2, channels=4, out_channels=4)
    quiet = CategoryGrid(np.full((2, 2, 1), 0.05))
    ker = KernelGrid(np.ones((2, 2, 4)), 4)
    assert inference_pipeline(quiet, ker, pyr) == []

    one = np.full((2, 2, 1), 0.0)
    one[0, 0, 0] = 0.9
    strong = KernelGrid(np.full((2, 2, 4), 5.0), 4)
    out = inference_pipeline(CategoryGrid(one), strong, pyr)
    assert len(out) == 1
    assert out[0].score == 0.9  # single instance: decay exactly 1
    assert out[0].box == mask_to_box(out[0].mask)


def test_pipeline_duplicate_kernels_one_survivor():
    # every confident cell carries the same kernel -> identical masks; the
    # default config keeps exactly one per duplicate cluster
    pyr = seeded_pyramid(2, levels=2, channels=4, out_channels=4)
    cat = np.zeros((3, 3, 1))
    cat[0, 0, 0], cat[1, 1, 0], cat[2, 2, 0] = 0.9, 0.8, 0.7
    ker = KernelGrid(np.full((3, 3, 4), 3.0), 4)
    out = inference_pipeline(
        CategoryGrid(cat), ker, pyr, SuppressionConfig(decay=DecayFn("linear"))
    )
    assert len(out) == 1 and out[0].score == 0.9
