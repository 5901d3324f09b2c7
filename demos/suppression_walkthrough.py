"""The four duplicate-suppression methods on one tiny scene, step by step.
Run with: python3 demos/suppression_walkthrough.py"""

import numpy as np

from maskops import (
    BinaryMask,
    DecayFn,
    ScoredMask,
    fast_nms,
    hard_nms,
    matrix_nms,
    pairwise_iou_matrix,
    soft_nms,
)

# Three detections of the same object family on a 1x30 strip:
#   A covers [0, 10)   score 0.90
#   B covers [1, 11)   score 0.80   (heavy overlap with A: IoU = 9/11)
#   C covers [20, 25)  score 0.70   (disjoint)
def strip(start, stop, score):
    row = np.zeros((1, 30), dtype=bool)
    row[0, start:stop] = True
    return ScoredMask(BinaryMask.from_array(row), score)

masks = [strip(0, 10, 0.90), strip(1, 11, 0.80), strip(20, 25, 0.70)]
ious = pairwise_iou_matrix([m.mask for m in masks])
print("IoU(A, B) =", round(ious.values[0, 1], 4), " IoU(A, C) =", ious.values[0, 2])

# Hard NMS: walk down by score, drop anything overlapping a kept mask by more
# than the threshold. B dies, scores never change.
hard = hard_nms(masks, ious, iou_threshold=0.5)
print("\nhard   kept:", hard.kept_indices, "scores:", hard.updated_scores)

# Fast NMS: same threshold but each mask is compared against ALL higher-scored
# masks, kept or not — one matrix reduction, slightly over-aggressive.
fast = fast_nms(masks, ious, iou_threshold=0.5)
print("fast   kept:", fast.kept_indices, "scores:", fast.updated_scores)

# Soft NMS: nothing is removed outright; every pass decays the survivors by a
# penalty on their overlap with the current winner. B keeps a small score.
decay = DecayFn("linear")
soft = soft_nms(masks, decay, score_threshold=0.05, ious=ious)
print("soft   kept:", soft.kept_indices,
      "scores:", tuple(round(s, 4) for s in soft.updated_scores))

# Matrix NMS reproduces that sequential decay idea in one shot. For mask j the
# decay is min_i f(iou_ij) / f(cmax_i) over all higher-scored i, where cmax_i
# is i's own best overlap with anything above it — the denominator discounts
# penalties handed out by masks that were probably suppressed themselves.
mat = matrix_nms(masks, ious, decay, score_threshold=0.05)
print("matrix kept:", mat.kept_indices,
      "scores:", tuple(round(s, 4) for s in mat.updated_scores))

# By hand for B (index 1): its only suppressor is A, cmax_A = 0, so the decay
# is (1 - 9/11) / (1 - 0) = 2/11 and B's score becomes 0.8 * 2/11.
print("B decayed by hand:", round(0.8 * (1 - 9 / 11), 4))

# The gaussian decay exp(-(iou^2 - cmax^2) / sigma) is gentler at mid IoU and
# never hits an exact zero; sigma tunes how sharply overlap is punished.
for sigma in (0.3, 0.5, 1.0):
    g = matrix_nms(masks, ious, DecayFn("gauss", sigma))
    print(f"gauss sigma={sigma}: B ->", round(g.updated_scores[1], 4))
