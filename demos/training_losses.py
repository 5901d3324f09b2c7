"""Dice and focal losses with their analytic gradients.
Run with: python3 demos/training_losses.py"""

import numpy as np

from maskops import BinaryMask, MASK_WEIGHT, dice_loss, focal_loss, total_loss

# Dice loss measures mask overlap: 1 - 2*sum(p*q) / (sum(p^2) + sum(q^2)).
# A perfect prediction scores ~0, a disjoint one ~1, and unlike plain
# pixelwise BCE it doesn't drown small objects in background pixels.
target = np.zeros((8, 8), dtype=bool)
target[2:6, 2:6] = True

perfect = np.where(target, 0.999, 0.001)
shifted = np.where(np.roll(target, 2, axis=1), 0.999, 0.001)
for name, pred in (("near-perfect", perfect), ("shifted", shifted)):
    loss, grad = dice_loss(pred, BinaryMask.from_array(target))
    print(f"dice {name:>12}: loss={loss:.4f}  grad range "
          f"[{grad.min():+.4f}, {grad.max():+.4f}]")

# The gradient is analytic — compare one entry against a finite difference.
pred = np.clip(np.random.default_rng(1).random((8, 8)), 0.01, 0.99)
loss, grad = dice_loss(pred, BinaryMask.from_array(target))
step = 1e-5
bumped = pred.copy()
bumped[3, 3] += step
fd = (dice_loss(bumped, BinaryMask.from_array(target))[0] - loss) / step
print(f"dice grad[3,3] analytic={grad[3, 3]:+.6f}  finite-diff={fd:+.6f}")

# Focal loss is cross-entropy times (1 - p_t)^gamma: confident-and-correct
# predictions are down-weighted so training focuses on the hard ones.
print("\np_t      gamma=0    gamma=1    gamma=2")
for p in (0.3, 0.6, 0.9):
    row = [focal_loss(p, 1, gamma=g)[0] for g in (0.0, 1.0, 2.0)]
    print(f"{p:.1f}   " + "  ".join(f"{v:9.5f}" for v in row))
# gamma=0 is plain cross-entropy weighted by FOCAL_ALPHA; higher gamma crushes the
# already-easy p_t=0.9 row hardest.

# A training step sums focal terms over grid cells and dice terms over masks,
# with the mask branch up-weighted.
cate_terms = [focal_loss(p, t)[0] for p, t in ((0.3, 1), (0.8, 1), (0.1, 0))]
mask_terms = [dice_loss(shifted, BinaryMask.from_array(target))[0]]
print(f"\ntotal = mean(cate) + {MASK_WEIGHT} * mean(mask) = "
      f"{total_loss(cate_terms, mask_terms):.4f}")
