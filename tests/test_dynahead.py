import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maskops import (
    BinaryMask,
    CategoryGrid,
    DecayFn,
    FeatureMap,
    FusionWeights,
    IoUMatrix,
    KernelGrid,
    PyramidLevels,
    ScoredMask,
    SuppressionConfig,
    assemble_masks,
    bilinear_upsample_2x,
    coord_channels,
    dynamic_conv,
    fuse_pyramid,
    grid_index,
    group_norm,
    inference_pipeline,
    mask_iou,
    mask_to_box,
    pairwise_iou_matrix,
)
from maskops import dynahead, formats, masks as masks_module
from maskops.bench import _FUSION_TOL, _relative_error, seeded_pipeline_inputs
from maskops.dynahead import (
    _MASK_LOGIT_CUTOFF,
    GN_EPS,
    GN_GROUPS,
    NormConvStage,
    _conv,
    _group_norm,
    _upsample2x,
    mask_foreground,
)
from maskops.reference import (
    conv1x1_loops,
    conv3x3_loops,
    fuse_pyramid_loops,
    group_norm_loops,
    sigmoid_foreground,
    upsample2x_loops,
)


@pytest.mark.parametrize("i,j,s,k", [(2, 3, 5, 13), (0, 0, 4, 0), (4, 4, 5, 24)])
def test_grid_index(i, j, s, k):
    assert grid_index(i, j, s) == k


@pytest.mark.parametrize("i,j", [(-1, 0), (0, 5), (5, 0)])
def test_grid_index_out_of_range(i, j):
    with pytest.raises(ValueError):
        grid_index(i, j, 5)


@pytest.mark.parametrize("bad", [2.5, True, np.int64(2)])
@pytest.mark.parametrize("place", range(3))
def test_grid_index_takes_exact_ints(place, bad):
    # A float once came back as a float index: grid_index(1.0, 1, 3) == 4.0.
    args = [1, 1, 3]
    args[place] = bad
    with pytest.raises(ValueError, match="must be an int"):
        grid_index(*args)


def test_coord_channels_values():
    cc = coord_channels(2, 3)
    assert np.array_equal(cc.data[0, :, 0], [-1.0, 0.0, 1.0])  # x along columns
    assert np.array_equal(cc.data[:, 0, 1], [-1.0, 1.0])  # y along rows
    one = coord_channels(1, 1)
    assert one.data[0, 0, 0] == 0.0 and one.data[0, 0, 1] == 0.0


@pytest.mark.parametrize("bad", [2.5, True, np.int64(3)])
@pytest.mark.parametrize("field", ["height", "width"])
def test_coord_channels_dims_are_exact_ints(field, bad):
    dims = {"height": 3, "width": 3, field: bad}
    with pytest.raises(ValueError, match=field):
        coord_channels(**dims)


def test_coord_channels_antisymmetry():
    cc = coord_channels(5, 7).data
    assert np.array_equal(cc[:, ::-1, 0], -cc[:, :, 0])
    assert np.array_equal(cc[::-1, :, 1], -cc[:, :, 1])


def conv_one(feature, kernel):
    """dynamic_conv of a single kernel, as an (H, W) map."""
    return dynamic_conv(feature, np.asarray(kernel)[None])[:, :, 0]


def test_conv1x1_pixel_dot():
    fm = FeatureMap(np.array([[[1.0, 2.0]]]))
    out = conv_one(fm, [0.5, -1.0])
    assert out[0, 0] == -1.5
    assert np.all(conv_one(fm, [0.0, 0.0]) == 0.0)


def test_conv1x1_matches_loops():
    rng = np.random.default_rng(2)
    feat = rng.normal(size=(4, 4, 3))
    k = rng.normal(size=3)
    got = conv_one(FeatureMap(feat), k)
    assert np.allclose(got, conv1x1_loops(feat, k), rtol=1e-6, atol=1e-12)


def test_conv3x3_delta_kernel_is_identity():
    rng = np.random.default_rng(4)
    feat = rng.normal(size=(6, 5, 1))
    kernel = np.zeros(9)
    kernel[4] = 1.0  # center tap
    assert np.array_equal(conv_one(FeatureMap(feat), kernel), feat[:, :, 0])


def test_conv3x3_matches_loops():
    rng = np.random.default_rng(5)
    feat = rng.normal(size=(5, 5, 2))
    k = rng.normal(size=18)
    got = conv_one(FeatureMap(feat), k)
    assert np.allclose(got, conv3x3_loops(feat, k), rtol=1e-6, atol=1e-12)
    ints = rng.integers(-4, 5, size=(5, 5, 2)).astype(float)
    ki = rng.integers(-4, 5, size=18).astype(float)
    assert np.array_equal(conv_one(FeatureMap(ints), ki), conv3x3_loops(ints, ki))


def test_conv_batch_shape_and_size_from_kernel_length():
    # D = E is a 1x1 conv and D = 9E a 3x3 conv; n kernels give n maps.
    rng = np.random.default_rng(6)
    feat = FeatureMap(rng.integers(-4, 5, size=(4, 5, 3)).astype(float))
    for d, loops in ((3, conv1x1_loops), (27, conv3x3_loops)):
        ks = rng.integers(-4, 5, size=(2, d)).astype(float)
        got = dynamic_conv(feat, ks)
        assert got.shape == (4, 5, 2)
        for r in range(2):
            assert np.array_equal(got[:, :, r], loops(feat.data, ks[r]))


def test_conv_kernel_length_mismatch():
    fm = FeatureMap(np.zeros((2, 2, 3)))
    for bad in (np.zeros((1, 4)), np.zeros((1, 28)), np.zeros((2, 0))):
        with pytest.raises(ValueError, match="E or 9E"):
            dynamic_conv(fm, bad)
    for bad in (np.zeros(3), np.zeros((1, 1, 3))):
        with pytest.raises(ValueError, match=r"\(n, D\)"):
            dynamic_conv(fm, bad)


def test_conv_rejects_non_finite_kernels():
    # KernelGrid rejects these already; a direct call must not return NaN logits.
    fm = FeatureMap(np.ones((4, 4, 2)))
    for bad in ([[np.nan, 1.0]], [[1.0, 2.0], [np.inf, 0.0]], [[-np.inf] * 18]):
        with pytest.raises(ValueError, match="kernels must be finite"):
            dynamic_conv(fm, np.array(bad))


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


@pytest.mark.parametrize(
    "shape", [(1, 1, 1), (1, 6, 2), (6, 1, 1), (2, 5, 3), (4, 4, 2), (7, 3, 1)]
)
def test_upsample_matches_loops_exactly(shape):
    x = np.random.default_rng(sum(shape)).normal(size=shape)
    assert np.array_equal(_upsample2x(x), upsample2x_loops(x))


def plain_norm(feature, groups):
    """group_norm with the identity affine: scale 1 and shift 0."""
    c = feature.channels
    return group_norm(feature, groups, np.ones(c), np.zeros(c))


def test_group_norm_constant_input():
    out = plain_norm(FeatureMap(np.full((3, 3, 4), 7.0)), groups=2)
    assert np.allclose(out.data, 0.0)


def test_group_norm_idempotent_on_normalized():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(8, 8, 4))
    x = (x - x.mean(axis=(0, 1), keepdims=True)) / x.std(axis=(0, 1), keepdims=True)
    out = plain_norm(FeatureMap(x), groups=4)
    assert np.allclose(out.data, x, atol=1e-3)


def test_group_norm_statistics():
    rng = np.random.default_rng(9)
    out = plain_norm(FeatureMap(rng.normal(3.0, 2.5, size=(7, 6, 8))), groups=4).data
    g = out.reshape(7, 6, 4, 2)
    assert np.abs(g.mean(axis=(0, 1, 3))).max() < 1e-6
    assert np.abs(g.var(axis=(0, 1, 3)) - 1.0).max() < 1e-4


def test_group_norm_epsilon():
    # Each group holds only -1 and +1, so its variance is exactly 1.
    x = np.tile([[[-1.0, 1.0, 1.0, -1.0]]], (1, 2, 1))
    out = plain_norm(FeatureMap(x), 2).data
    assert np.array_equal(out, x / np.sqrt(1.0 + GN_EPS))


def test_group_norm_affine_and_divisibility():
    x = FeatureMap(np.random.default_rng(0).normal(size=(4, 4, 4)))
    out = group_norm(x, 2, np.full(4, 2.0), np.full(4, 1.0)).data
    base = plain_norm(x, 2).data
    assert np.allclose(out, base * 2.0 + 1.0)
    for bad in (3, 0, -2, 2.0, True, np.int64(2)):
        with pytest.raises(ValueError):
            plain_norm(x, bad)


@settings(deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(1, 4),
    st.integers(1, 4),
    st.floats(1e-3, 1e3),
    st.floats(-1e4, 1e4),
    st.integers(0, 2**32 - 1),
)
def test_group_norm_matches_loops(h, w, groups, per, spread, offset, seed):
    # Means up to 1e4 times the spread: the centered values lose the most
    # bits there.
    rng = np.random.default_rng(seed)
    c = groups * per
    x = rng.normal(offset * spread, spread, (h, w, c))
    scale, shift = rng.standard_normal(c), rng.standard_normal(c)
    got = group_norm(FeatureMap(x), groups, scale, shift).data
    want = group_norm_loops(x, groups, scale, shift)
    assert _relative_error(got, want) <= _FUSION_TOL


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
    # None stands for a well-formed (4,) parameter.
    x = FeatureMap(np.random.default_rng(0).normal(size=(4, 4, 4)))
    full = lambda v: np.ones(4) if v is None else v
    with pytest.raises(ValueError, match="affine"):
        group_norm(x, 2, full(scale), full(shift))
    with pytest.raises(ValueError, match="affine"):
        NormConvStage(np.zeros((3, 4)), full(scale), full(shift))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fusion_weights_must_be_finite(bad):
    # A non-finite weight fails when the stage is built, with its own name,
    # not later in fuse_pyramid as a non-finite feature.
    x = FeatureMap(np.ones((4, 4, 4)))
    broken = np.ones(4)
    broken[1] = bad
    with pytest.raises(ValueError, match="affine params must be finite"):
        group_norm(x, 2, broken, np.zeros(4))
    with pytest.raises(ValueError, match="affine params must be finite"):
        group_norm(x, 2, np.ones(4), broken)
    with pytest.raises(ValueError, match="affine params must be finite"):
        NormConvStage(np.zeros((4, 4)), broken, np.zeros(4))
    with pytest.raises(ValueError, match="affine params must be finite"):
        NormConvStage(np.zeros((4, 4)), np.ones(4), broken)
    for kernel in (np.full((4, 4), bad), np.zeros((3, 3, 4, 4))):
        kernel[..., 0, 0] = bad
        with pytest.raises(ValueError, match="kernel must be finite"):
            NormConvStage(kernel, np.ones(4), np.zeros(4))


def test_wrappers_take_ownership_of_the_callers_array():
    # Each wrapper holds the caller's own float64 or uint64 array, not a
    # copy, and makes it read-only; passing a copy keeps the caller's
    # array writable.
    feature, kernels, categories = (np.ones((2, 2, 2)) for _ in range(3))
    stage = (np.ones((2, 2)), np.ones(2), np.zeros(2))
    words, ious = np.array([5], dtype=np.uint64), np.zeros((2, 2))
    conv = NormConvStage(*stage)
    held = [
        FeatureMap(feature).data,
        KernelGrid(kernels, 2).data,
        CategoryGrid(categories).data,
        conv.kernel, conv.gn_scale, conv.gn_shift,
        BinaryMask(1, 3, words).words,
        IoUMatrix(ious).values,
    ]
    mine = [feature, kernels, categories, *stage, words, ious]
    assert all(h is m for h, m in zip(held, mine, strict=True))
    assert not any(m.flags.writeable for m in mine)
    kept = np.ones((2, 2, 2))
    FeatureMap(kept.copy())
    assert kept.flags.writeable


def seeded_pyramid(seed=0, levels=4, channels=4, out_channels=8):
    rng = np.random.default_rng(seed)
    weights = FusionWeights.seeded(levels, channels, out_channels, seed=seed)
    maps = tuple(
        FeatureMap(rng.normal(size=(16 >> i, 24 >> i, channels)))
        for i in range(levels)
    )
    return PyramidLevels(maps, weights)


def _fuse_by_primitives(pyr):
    """fuse_pyramid's order from its primitives: levels 1 and up stop before
    their last upsample, and their sum is upsampled once and added to
    level 0."""
    w = pyr.fusion_weights
    half = None
    for li, level in enumerate(pyr.levels[1:], 1):
        x = level.data
        if li == len(pyr.levels) - 1:
            x = np.concatenate(
                [x, coord_channels(level.height, level.width).data], axis=2
            )
        for si, st in enumerate(w.stages[li]):
            if si:
                x = _upsample2x(x)
            x = _conv(x, st.kernel)
            x = np.maximum(_group_norm(x, w.groups, st.gn_scale, st.gn_shift), 0.0)
        half = x if half is None else half + x
    acc = pyr.levels[0].data + _upsample2x(half)
    out = w.output
    return np.maximum(
        _group_norm(_conv(acc, out.kernel), w.groups, out.gn_scale, out.gn_shift), 0.0
    )


def test_fuse_pyramid_matches_primitive_composition():
    for levels in (4, 2):
        pyr = seeded_pyramid(3, levels=levels)
        got = fuse_pyramid(pyr)
        assert got.data.shape == (16, 24, 8)
        assert np.array_equal(got.data, _fuse_by_primitives(pyr))


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
    want = np.maximum(_group_norm(x, c, np.ones(c), np.zeros(c)), 0.0)
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
    for seed in (True, 1.5, -1, np.int64(1)):
        with pytest.raises(ValueError, match="seed must be an int >= 0"):
            FusionWeights.seeded(2, 4, 4, seed=seed)
    with pytest.raises(ValueError):
        FusionWeights.seeded(2, 4, 6)
    with pytest.raises(ValueError):
        FusionWeights.seeded(0, 4, 4)
    # The sizes are exact ints >= 1: True once built a one-level network,
    # and a float or a bool channel count raised TypeError.
    for sizes in ((True, 8, 8), (2, 8, np.int64(8)), (1.0, 8, 8), (2, True, 8), (2, 0, 8)):
        with pytest.raises(ValueError, match="must be an int >= 1"):
            FusionWeights.seeded(*sizes)
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
    # The drawn kernels are zero; random ones of the same shapes make the
    # comparison with the loops say something.
    rng = np.random.default_rng(0)
    live = lambda stage: NormConvStage(
        rng.normal(size=stage.kernel.shape),
        1.0 + 0.1 * rng.normal(size=stage.kernel.shape[-1]),
        0.1 * rng.normal(size=stage.kernel.shape[-1]),
    )
    w = FusionWeights(
        tuple(tuple(live(stage) for stage in level) for level in w.stages),
        live(w.output),
    )
    top = w.num_levels - 1
    maps = tuple(
        FeatureMap(rng.normal(size=(2 << (top - i), 3 << (top - i), w.channels)))
        for i in range(w.num_levels)
    )
    pyramid = PyramidLevels(maps, w)
    out = fuse_pyramid(pyramid)
    assert out.data.shape == (2 << top, 3 << top, w.out_channels)
    assert _relative_error(out.data, fuse_pyramid_loops(pyramid)) <= _FUSION_TOL


@pytest.mark.parametrize("seed", [0, 11, 808])
def test_pipeline_json_unchanged_by_the_fusion_oracle(monkeypatch, seed):
    # fuse_pyramid is only within _FUSION_TOL of the loops; on the seeded
    # scenes that gap must not flip a mask pixel, a score or an order.
    inputs = seeded_pipeline_inputs(seed)

    def rendered():
        return formats.to_json(formats.instances_to_dict(inference_pipeline(*inputs)))

    fast = rendered()
    monkeypatch.setattr(
        dynahead, "fuse_pyramid", lambda p: FeatureMap(fuse_pyramid_loops(p))
    )
    assert rendered() == fast
    assert '"score"' in fast


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
    for bad in (2.5, True, np.int64(2)):
        with pytest.raises(ValueError, match="feature_channels"):
            KernelGrid(np.zeros((3, 3, 2)), bad)


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


def _per_cell_walk(category, kernels, feature):
    """assemble_masks one grid cell at a time, as a reference."""
    s = category.grid_size
    out = []
    for k in range(s * s):
        i, j = divmod(k, s)
        hits = np.flatnonzero(category.data[i, j] > 0.1)
        if hits.size == 0:
            continue
        binary = BinaryMask.from_array(
            mask_foreground(conv_one(feature, kernels.data[i, j]))
        )
        if binary.area:
            out.extend(
                ScoredMask(binary, float(category.data[i, j, c]), int(c)) for c in hits
            )
    return out


# A 100-pixel row is two words, the second with 28 padding bits. Maps of
# width 7 keep their earlier ids.
@pytest.mark.parametrize(
    "cells_per_block, width",
    [
        pytest.param(c, w, id=str(c) if w == 7 else f"{c}-{w}")
        for w in (7, 100)
        for c in (None, 1, 3)
    ],
)
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("ksize", [1, 3])
def test_assemble_masks_equals_per_cell_walk_on_integers(
    monkeypatch, seed, ksize, cells_per_block, width
):
    # Integer features and kernels make every logit exact, so the batched
    # product and block packing must reproduce the per-cell one bit for bit,
    # in one block of cells or in several. A block is as many 6-row masks
    # as fit the scratch bytes, at 8 bytes a word.
    if cells_per_block is not None:
        words = 6 * masks_module._row_words(width)
        monkeypatch.setattr(masks_module, "_SCRATCH_BYTES", cells_per_block * 8 * words)
    rng = np.random.default_rng(seed)
    s, classes, e = 5, 3, 4
    feature = rng.integers(-3, 4, size=(6, width, e)).astype(float)
    feature[:, :, 0] = 1.0
    kernels = rng.integers(-3, 4, size=(s, s, ksize * ksize * e)).astype(float)
    center = (ksize * ksize // 2) * e
    kernels[0, 0] = 0.0
    kernels[0, 0, center] = -1000.0  # every logit negative: an empty mask
    kernels[1, 1] = 0.0  # every logit 0, which is foreground: a full mask
    scores = rng.uniform(0.0, 0.1, size=(s, s, classes))
    hot = rng.random((s, s, classes)) < 0.3
    hot[0, 0, 0] = hot[1, 1, :] = True
    scores[hot] = rng.uniform(0.2, 1.0, size=int(hot.sum()))
    cat, ker, feat = CategoryGrid(scores), KernelGrid(kernels, e), FeatureMap(feature)

    got = assemble_masks(cat, ker, feat)
    want = _per_cell_walk(cat, ker, feat)
    assert got == want
    # One BinaryMask per hit cell, shared by that cell's classes: the i-th
    # output shares its mask with the same earlier outputs as in the walk.
    def sharing(masks):
        first = {}
        return [first.setdefault(id(m.mask), i) for i, m in enumerate(masks)]

    assert sharing(got) == sharing(want)
    # Cell (1, 1), every logit 0, gives one full mask shared by its three
    # classes; other cells may happen to give full masks too.
    center = [m for m in got if m.score in scores[1, 1].tolist()]
    assert [m.category for m in center] == [0, 1, 2]
    assert center[0].mask.area == 6 * width
    assert center[0].mask is center[1].mask is center[2].mask
    quiet = CategoryGrid(np.minimum(scores, 0.1))
    assert assemble_masks(quiet, ker, feat) == []


def _full_masks(hits: int, height: int, width: int) -> list:
    """assemble_masks on `hits` cells whose masks are all full, so none is
    dropped."""
    scores = np.zeros((3, 3, 2))
    scores.reshape(9, 2)[:hits, 0] = 0.5
    return assemble_masks(
        CategoryGrid(scores),
        KernelGrid(np.ones((3, 3, 2)), 2),
        FeatureMap(np.ones((height, width, 2))),
    )


def test_assemble_masks_packs_each_cell_block_into_one_read_only_block(monkeypatch):
    # At an aligned width the chunk rule splits the cells as blocks of
    # 2^20 // (H * W) float64 logits did: 3 cells of 512x576 a block.
    bases = {id(m.mask.words.base) for m in _full_masks(7, 512, 576)}
    assert len(bases) == -(-7 // ((1 << 20) // (512 * 576))) == 3
    # 7 hit cells of 4x70 (two words a row) in blocks of 3.
    monkeypatch.setattr(masks_module, "_SCRATCH_BYTES", 3 * 8 * 4 * 2)
    out = _full_masks(7, 4, 70)
    assert len(out) == 7
    bases = [m.mask.words.base for m in out]
    assert all(not b.flags.writeable for b in bases)
    assert all(not m.mask.words.flags.writeable for m in out)
    for top in range(0, 7, 3):
        assert all(b is bases[top] for b in bases[top : top + 3])
    assert len({id(b) for b in bases}) == 3


def test_assemble_masks_peak_memory_is_bounded():
    # 400 hit cells of 128x128 logits are 50 MiB of float64 in one product;
    # blocks of one scratch chunk of words, 64 float64 logits a word (8 MiB),
    # keep the peak far below that. A 100-pixel row is two words with 28
    # padding bits, so its blocks hold fewer cells.
    rng = np.random.default_rng(0)
    cat = CategoryGrid(np.full((20, 20, 1), 0.5))
    ker = KernelGrid(rng.normal(size=(20, 20, 4)), 4)
    for width in (128, 100):
        feature = FeatureMap(rng.normal(size=(128, width, 4)))
        tracemalloc.start()
        try:
            out = assemble_masks(cat, ker, feature)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out) == 400
        assert peak < 2.5 * 64 * masks_module._SCRATCH_BYTES


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
