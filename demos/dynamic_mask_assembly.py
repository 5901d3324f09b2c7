"""From per-cell predicted kernels to finished instance masks.
Run with: python3 demos/dynamic_mask_assembly.py"""

import numpy as np

from maskops import (
    CategoryGrid,
    FeatureMap,
    KernelGrid,
    assemble_masks,
    coord_channels,
    dynamic_conv,
    fuse_pyramid,
    grid_index,
    inference_pipeline,
)
from maskops.bench import seeded_pipeline_inputs

rng = np.random.default_rng(0)

# The head divides the image into an S x S grid; the cell containing an
# object's center is responsible for it. Cell (i, j) flattens to k = i*S + j.
S = 4
print("cell (2, 3) of a 4x4 grid is flat index", grid_index(2, 3, S))

# Each cell predicts its own convolution kernel. Applying cell k's kernel to a
# shared feature map yields that cell's mask logits — the convolution weights
# are data, not model parameters. A kernel of length E (the feature's channel
# count) is a 1x1 conv; one of length 9E would be a 3x3 conv.
feature = FeatureMap(rng.normal(size=(8, 8, 5)))
kernels = KernelGrid(rng.normal(size=(S, S, 5)), feature_channels=5)
logits = dynamic_conv(feature, kernels.data[2:3, 3])[:, :, 0]
print("cell (2,3) logits:", logits.shape, "mean", round(float(logits.mean()), 3))

# Masks should know where they are, so the deepest pyramid level gets two
# extra channels holding normalized x / y coordinates in [-1, 1].
coords = coord_channels(3, 5)
print("x-coordinate channel of a 3x5 map:")
print(coords.data[:, :, 0])

# assemble_masks runs every (cell, class) pair scoring above 0.1: keep the
# pixels whose sigmoid reaches 0.5 (one comparison on the logits), drop
# empties. Scores come straight from the category grid.
scores = np.zeros((S, S, 2))
scores[2, 3, 0] = 0.9   # one confident cell, class 0
scores[0, 0, 1] = 0.6   # another, class 1
found = assemble_masks(CategoryGrid(scores), kernels, feature)
for m in found:
    print(f"instance: category={m.category} score={m.score} area={m.mask.area}")

# The full pipeline adds the two missing pieces: the shared feature map is
# fused from a feature pyramid (upsample each level to 1/4 scale, sum, 1x1
# mix), and overlapping instances are de-duplicated with matrix NMS.
category, kernels, pyramid = seeded_pipeline_inputs(seed=3)
fused = fuse_pyramid(pyramid)
print("\nfused pyramid ->", (fused.height, fused.width, fused.channels))

instances = inference_pipeline(category, kernels, pyramid)
print("pipeline produced", len(instances), "instances; top 3:")
for inst in instances[:3]:
    print(f"  score={inst.score:.3f} category={inst.category} box={inst.box}")
