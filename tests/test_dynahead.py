import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maskops import (
    CategoryGrid,
    DecayFn,
    FeatureMap,
    FusionWeights,
    KernelGrid,
    PyramidLevels,
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
from maskops.dynahead import (
    _MASK_LOGIT_CUTOFF,
    GN_EPS,
    GN_GROUPS,
    NormConvStage,
    _conv3x3,
    _group_norm,
    _upsample2x,
    mask_foreground,
)
from maskops.reference import conv1x1_loops, conv3x3_loops, sigmoid_foreground


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


def test_group_norm_epsilon():
    # Each group holds only -1 and +1, so its variance is exactly 1.
    x = np.tile([[[-1.0, 1.0, 1.0, -1.0]]], (1, 2, 1))
    out = group_norm(FeatureMap(x), 2).data
    assert np.array_equal(out, x / np.sqrt(1.0 + GN_EPS))


def test_group_norm_affine_and_divisibility():
    x = FeatureMap(np.random.default_rng(0).normal(size=(4, 4, 4)))
    out = group_norm(x, 2, scale=np.full(4, 2.0), shift=np.full(4, 1.0)).data
    base = group_norm(x, 2).data
    assert np.allclose(out, base * 2.0 + 1.0)
    for bad in (3, 0, -2, 2.0, True):
        with pytest.raises(ValueError):
            group_norm(x, bad)


@pytest.mark.parametrize(
    "scale,shift",
    [
        (np.array([2.0]), None),  # would broadcast over the 4 channels
        (None, np.array([[[1.0]]])),  # would broadcast to (4, 4, 4)
        (np.ones(3), None),
        (None, np.ones((4, 1))),
        (np.ones(4), np.ones(5)),
    ],
)
def test_affine_params_must_be_one_per_channel(scale, shift):
    x = FeatureMap(np.random.default_rng(0).normal(size=(4, 4, 4)))
    with pytest.raises(ValueError, match="affine"):
        group_norm(x, 2, scale=scale, shift=shift)
    full = lambda v: np.ones(4) if v is None else v
    with pytest.raises(ValueError, match="affine"):
        NormConvStage(np.zeros((3, 4)), full(scale), full(shift))


def seeded_pyramid(seed=0, levels=4, channels=4, out_channels=8):
    rng = np.random.default_rng(seed)
    weights = FusionWeights.seeded(levels, channels, out_channels, seed=seed)
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
            x = _group_norm(x, w.groups) * st.gn_scale + st.gn_shift
            x = np.maximum(x, 0.0)
            x = _upsample2x(x)
        acc = x if acc is None else acc + x
    want = np.maximum(
        _group_norm(acc @ w.output.kernel, w.groups) * w.output.gn_scale
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
    output = NormConvStage(np.zeros((c, c)), np.ones(c), np.zeros(c))
    weights = FusionWeights(stages, output)
    pyr = PyramidLevels(
        (FeatureMap(np.zeros((8, 8, c))), FeatureMap(np.zeros((4, 4, c)))), weights
    )
    assert np.all(fuse_pyramid(pyr).data == 0.0)


def test_fuse_pyramid_single_level():
    rng = np.random.default_rng(12)
    c = 4
    weights = FusionWeights(((),), NormConvStage(np.eye(c), np.ones(c), np.zeros(c)))
    x = rng.normal(size=(8, 8, c))
    out = fuse_pyramid(PyramidLevels((FeatureMap(x),), weights))
    want = np.maximum(_group_norm(x, c), 0.0)
    assert np.allclose(out.data, want)


def _stage(*shape):
    return NormConvStage(np.zeros(shape), np.ones(shape[-1]), np.zeros(shape[-1]))


def _chain(c=4, e=8, level=None, output=None):
    """Three-level FusionWeights of C channels. `level` = (li, si, shape)
    replaces one stage's kernel shape and `output` the output kernel's."""
    shapes = [[], [(3, 3, c, c)], [(3, 3, c + 2, c), (3, 3, c, c)]]
    if level is not None:
        li, si, shape = level
        shapes[li][si] = shape
    stages = tuple(tuple(_stage(*shape) for shape in lvl) for lvl in shapes)
    return FusionWeights(stages, _stage(*(output or (c, e))))


def test_fusion_weights_valid_chain_fuses():
    w = _chain()
    assert (w.channels, w.out_channels) == (4, 8)
    maps = tuple(FeatureMap(np.ones((8 >> i, 8 >> i, 4))) for i in range(3))
    assert fuse_pyramid(PyramidLevels(maps, w)).data.shape == (8, 8, 8)


def test_fusion_weights_hold_only_weights():
    assert [f.name for f in dataclasses.fields(FusionWeights)] == ["stages", "output"]
    assert FusionWeights.seeded(1, 64, 96).groups == GN_GROUPS == 32
    assert FusionWeights.seeded(2, 8, 16).groups == 8


@pytest.mark.parametrize(
    "kwargs",
    [
        {"level": (1, 0, (4, 4))},          # a 1x1 kernel in a level stage
        {"level": (2, 0, (3, 3, 4, 4))},    # deepest first stage without coords
        {"level": (1, 0, (3, 3, 6, 4))},    # coords on a shallower level
        {"level": (2, 1, (3, 3, 4, 6))},    # output other than C, into a conv
        {"level": (1, 0, (3, 3, 4, 6))},    # output other than C, into the sum
        {"output": (3, 3, 4, 8)},           # spatial output kernel
        {"c": 48, "e": 48},                 # 32 groups divide neither C nor E
        {"c": 48, "e": 32},                 # 32 groups divide E but not C
        {"c": 4, "e": 6},                   # 4 groups divide C but not E
        {"c": 6, "e": 4},                   # 6 groups, more than E's 4 channels
        {"level": (1, 0, (5, 5, 4, 4))},    # a 5x5 kernel in a level stage
    ],
)
def test_fusion_weights_reject_at_construction(kwargs):
    with pytest.raises(ValueError):
        _chain(**kwargs)


def test_seeded_fusion_weights_reject_at_construction():
    with pytest.raises(ValueError):
        FusionWeights.seeded(2, 4, 6)
    with pytest.raises(ValueError):
        FusionWeights.seeded(0, 4, 4)
    with pytest.raises(ValueError):
        FusionWeights((), _stage(4, 4))


@st.composite
def _fusion_cases(draw):
    """Small stage shapes, each near the valid one, so that both accepted and
    rejected weights come up."""
    c, e = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    num_levels = draw(st.integers(1, 3))

    def pick(right, *wrong):
        return draw(st.sampled_from((right, right) + wrong))

    stages = []
    for li in range(num_levels):
        level = []
        for si in range(li):
            cin = c + 2 if (li == num_levels - 1 and si == 0) else c
            cin = pick(cin, c, c + 1, c + 2)
            shape = pick((3, 3, cin, pick(c, c + 1)), (cin, c))
            level.append(_stage(*shape))
        stages.append(tuple(level))
    output = _stage(*pick((pick(c, c + 1), e), (3, 3, c, e)))
    return tuple(stages), output


@settings(deadline=None, max_examples=80)
@given(_fusion_cases())
def test_fusion_weights_reject_or_fuse(case):
    try:
        w = FusionWeights(*case)
    except ValueError:
        return
    top = w.num_levels - 1
    rng = np.random.default_rng(0)
    maps = tuple(
        FeatureMap(rng.normal(size=(2 << (top - i), 3 << (top - i), w.channels)))
        for i in range(w.num_levels)
    )
    out = fuse_pyramid(PyramidLevels(maps, w))
    assert out.data.shape == (2 << top, 3 << top, w.out_channels)


def test_pyramid_validation():
    w = FusionWeights.seeded(2, 4, 4)
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


def test_mask_logit_cutoff_tie_is_foreground():
    c = _MASK_LOGIT_CUTOFF
    assert c < 0.0 and np.exp(c) == 1.0
    below = np.nextafter(c, -np.inf)
    assert np.exp(below) < 1.0
    x = np.array([c, 0.0, -0.0, below])
    assert mask_foreground(x).tolist() == [True, True, True, False]
    assert sigmoid_foreground(x).tolist() == [True, True, True, False]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-(2**12), 2**12), min_size=1, max_size=64),
    st.floats(allow_nan=False),
)
def test_mask_foreground_matches_reference_near_cutoff(offsets, far):
    bits = np.array([_MASK_LOGIT_CUTOFF]).view(np.int64)[0]
    near = (bits + np.array(offsets, dtype=np.int64)).view(np.float64)
    x = np.append(near, far)
    assert np.array_equal(mask_foreground(x), sigmoid_foreground(x))


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


def test_assemble_masks_rejects_nan_and_accepts_inf_logits():
    # 10 * (1e308 - 1e308) overflows to inf - inf = NaN inside the 3x3 conv.
    cat = CategoryGrid(np.full((1, 1, 1), 0.9))
    feat = FeatureMap(np.array([[[1e308], [-1e308]]]))
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="NaN"):
        assemble_masks(cat, KernelGrid(np.full((1, 1, 9), 10.0), 1), feat)
    with np.errstate(all="ignore"):  # the 1x1 conv gives [inf, -inf]
        out = assemble_masks(cat, KernelGrid(np.full((1, 1, 1), 10.0), 1), feat)
    assert out[0].mask.to_array().tolist() == [[True, False]]


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
