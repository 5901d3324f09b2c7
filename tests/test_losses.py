import numpy as np
import pytest

from maskops import FOCAL_ALPHA, MASK_WEIGHT, dice_loss, focal_loss, total_loss
from maskops.masks import BinaryMask
from maskops.reference import finite_difference_grad


def test_dice_perfect_overlap():
    target = np.zeros((6, 6))
    target[2:5, 1:4] = 1.0
    pred = np.clip(target, 1e-9, 1 - 1e-9)
    loss, _ = dice_loss(pred, target)
    assert loss == pytest.approx(0.0, abs=1e-6)


def test_dice_total_miss():
    target = np.zeros((4, 4))
    target[:2] = 1.0  # balanced half/half
    pred = np.clip(1.0 - target, 1e-9, 1 - 1e-9)
    loss, _ = dice_loss(pred, target)
    assert loss == pytest.approx(1.0, abs=1e-6)


def test_dice_vanishing_masks_stay_finite():
    # epsilon keeps the denominator away from zero when both masks vanish
    target = np.zeros((3, 3))
    pred = np.full((3, 3), 1e-12)
    loss, grad = dice_loss(pred, target)
    assert np.isfinite(loss) and np.all(np.isfinite(grad))


def test_dice_accepts_spec_types():
    bm = BinaryMask.from_array(np.ones((2, 2)))
    loss, grad = dice_loss(np.full((2, 2), 0.75), bm)
    assert 0.0 <= loss <= 1.0 + 1e-9
    assert grad.shape == (2, 2)


def test_dice_symmetry_on_hardened_pred():
    rng = np.random.default_rng(1)
    q = (rng.random((5, 5)) < 0.5).astype(float)
    r = (rng.random((5, 5)) < 0.5).astype(float)
    a, _ = dice_loss(np.clip(q, 1e-9, 1 - 1e-9), r)
    b, _ = dice_loss(np.clip(r, 1e-9, 1 - 1e-9), q)
    assert a == pytest.approx(b, abs=1e-7)


def test_dice_dimension_mismatch():
    with pytest.raises(ValueError):
        dice_loss(np.full((2, 2), 0.5), np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [0.0, 1.0, np.nan, np.inf, -np.inf])
def test_dice_rejects_values_outside_open_interval(bad):
    pred = np.full((2, 2), 0.5)
    pred[1, 0] = bad
    with pytest.raises(ValueError):
        dice_loss(pred, np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 7.0, 0.5, -1.0])
def test_dice_rejects_non_binary_targets(bad):
    target = np.zeros((2, 2))
    target[0, 0] = bad
    with pytest.raises(ValueError, match="0 or 1"):
        dice_loss(np.full((2, 2), 0.5), target)


def test_dice_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(25):
        p = rng.uniform(0.1, 0.9, size=(8, 8))
        q = (rng.random((8, 8)) < 0.5).astype(float)
        _, grad = dice_loss(p, q)
        fd = finite_difference_grad(lambda x: dice_loss(x, q)[0], p.copy(), 1e-4)
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-8)
        assert np.max(np.abs(grad - fd) / denom) < 1e-4


def test_focal_example_value():
    loss, _ = focal_loss(0.3, 1, gamma=2.0)
    assert round(loss, 5) == 0.14749


def test_focal_degenerate_is_cross_entropy():
    # gamma = 0 leaves cross-entropy weighted by alpha_t.
    loss, grad = focal_loss(0.3, 1, gamma=0.0)
    assert loss == pytest.approx(-FOCAL_ALPHA * np.log(0.3), abs=1e-15)
    assert grad == pytest.approx(-FOCAL_ALPHA / 0.3, rel=1e-12)
    loss, grad = focal_loss(0.3, 0, gamma=0.0)
    assert loss == pytest.approx(-(1 - FOCAL_ALPHA) * np.log(0.7), abs=1e-15)
    assert grad == pytest.approx((1 - FOCAL_ALPHA) / 0.7, rel=1e-12)


def test_focal_confident_correct_is_near_zero():
    loss, _ = focal_loss(1 - 1e-9, 1)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_focal_domain_errors():
    for bad in (0.0, 1.0, -0.1, 1.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            focal_loss(bad, 1)
    # True and 1.0 once passed as target 1.
    for bad in (2, -1, True, 1.0):
        with pytest.raises(ValueError, match="target"):
            focal_loss(0.5, bad)
    # gamma=inf once gave a NaN gradient, and gamma=True was taken as 1.
    for bad in (-0.1, -1.0, np.nan, -np.inf, np.inf, True):
        with pytest.raises(ValueError):
            focal_loss(0.5, 0, gamma=bad)
    # math.isfinite once raised a TypeError for these.
    for bad in ("0.5", None):
        with pytest.raises(ValueError, match="gamma must be a real number"):
            focal_loss(0.5, 1, gamma=bad)
    # The end of the domain stays accepted.
    focal_loss(0.5, 1, gamma=0.0)


def test_focal_monotone_decreasing_in_p_t():
    probs = np.linspace(0.01, 0.99, 50)
    losses = [focal_loss(float(p), 1)[0] for p in probs]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    # target 0 mirrors: loss increases with pred
    losses0 = [focal_loss(float(p), 0)[0] for p in probs]
    assert all(a < b for a, b in zip(losses0, losses0[1:]))


def test_focal_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = float(rng.uniform(0.05, 0.95))
        target = int(rng.integers(0, 2))
        gamma = float(rng.choice([0.0, 1.0, 2.0, 3.0]))
        _, grad = focal_loss(p, target, gamma=gamma)
        fd = finite_difference_grad(
            lambda x: focal_loss(float(x[0]), target, gamma=gamma)[0],
            np.array([p]),
            1e-4,
        )[0]
        assert abs(grad - fd) / max(abs(grad), abs(fd), 1e-8) < 1e-4


def test_losses_non_negative():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = rng.uniform(0.01, 0.99, size=(4, 4))
        q = (rng.random((4, 4)) < 0.5).astype(float)
        assert dice_loss(p, q)[0] >= 0.0
        assert focal_loss(float(rng.uniform(0.01, 0.99)), 1)[0] >= 0.0


def test_total_loss_reduction():
    assert MASK_WEIGHT == 3.0  # SOLOv2's lambda
    assert total_loss([0.1, 0.3], [0.4]) == pytest.approx(1.4, abs=1e-12)
    assert total_loss([0.2, 0.4], []) == pytest.approx(0.3, abs=1e-12)
    assert total_loss([], [0.5]) == pytest.approx(1.5, abs=1e-12)
