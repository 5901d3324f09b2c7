"""Synthetic scene generation: clusters of jittered duplicate shapes that give
suppression something realistic to chew on."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .masks import (
    _chunks,
    check_mask_set_size,
    pack_masks,
    pack_outer,
    require_finite,
    require_int,
)
from .suppression import ScoredMask

SHAPES = ("rectangle", "ellipse")


@dataclass(frozen=True)
class SceneSpec:
    """Parameters for one synthetic scene.

    The dimensions, both counts and the seed are exact Python ints. Every base
    instance is replicated num_duplicates_per_instance extra times
    with jittered position, size and score, so the scene contains
    num_instances * (1 + num_duplicates_per_instance) masks in total, and
    their padded pixels (`check_mask_set_size`) may not exceed the
    MAX_MASK_SET_PIXELS that a mask-set file may decode to; an empty scene
    is sized as one mask, as an empty mask-set file is.
    """

    height: int = 128
    width: int = 128
    num_instances: int = 8
    num_duplicates_per_instance: int = 4
    shape: str = "rectangle"
    score_noise: float = 0.02
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (
            ("height", 8),
            ("width", 8),
            ("num_instances", 0),
            ("num_duplicates_per_instance", 0),
            ("seed", 0),
        ):
            require_int(getattr(self, name), name, minimum)
        if self.shape not in SHAPES:
            raise ValueError(f"shape must be one of {SHAPES}")
        if require_finite(self.score_noise, "score_noise") < 0.0:
            raise ValueError(f"score_noise must be >= 0, got {self.score_noise}")
        check_mask_set_size(self.height, self.width, self.total_masks)

    @property
    def total_masks(self) -> int:
        return self.num_instances * (1 + self.num_duplicates_per_instance)


def gen_scene(spec: SceneSpec) -> list:
    """Deterministic scene of duplicate clusters.

    Each cluster has one base mask plus jittered copies whose offsets stay
    within a quarter of the base extent, keeping within-cluster IoU high; the
    base carries the cluster's top score and the copies trail it.

    The whole scene is drawn first (`_draw`), then painted a few masks at a
    time, each few's words one shared read-only block (`_paint_blocks`).
    """
    shapes = np.array(_draw(spec), dtype=np.float64).reshape(-1, 5)
    masks = _paint_blocks(spec, *shapes[:, :4].T)
    return [ScoredMask(m, s, 0) for m, s in zip(masks, shapes[:, 4].tolist())]


def _draw(spec: SceneSpec) -> list:
    """Each mask's (cy, cx, ry, rx, score), in scene order."""
    rng = np.random.default_rng(spec.seed)
    shapes = []
    for _ in range(spec.num_instances):
        ry = float(rng.integers(max(2, spec.height // 10), max(3, spec.height // 4)))
        rx = float(rng.integers(max(2, spec.width // 10), max(3, spec.width // 4)))
        cy = float(rng.uniform(ry * 0.5, spec.height - 1 - ry * 0.5))
        cx = float(rng.uniform(rx * 0.5, spec.width - 1 - rx * 0.5))
        base_score = float(rng.uniform(0.55, 0.95))
        shapes.append(_noisy(spec, rng, cy, cx, ry, rx, base_score))
        for _ in range(spec.num_duplicates_per_instance):
            jy = rng.uniform(-ry / 4.0, ry / 4.0)
            jx = rng.uniform(-rx / 4.0, rx / 4.0)
            scale = rng.uniform(0.9, 1.1)
            s = base_score - float(rng.uniform(0.03, 0.3))
            shapes.append(
                _noisy(spec, rng, cy + jy, cx + jx, ry * scale, rx * scale, s)
            )
    return shapes


def _noisy(spec, rng, cy, cx, ry, rx, score) -> tuple:
    noisy = score + float(rng.normal(0.0, spec.score_noise))
    return cy, cx, ry, rx, float(np.clip(noisy, 1e-3, 1.0))


def _paint_blocks(spec: SceneSpec, cy, cx, ry, rx) -> list:
    """One BinaryMask per shape, clipped to the canvas (clipping is never an
    error), from float64 vectors of centres and radii.

    A rectangle is the rows within ry of cy times the columns within rx of
    cx (`pack_outer`). An ellipse is tested pixel by pixel, a few masks at a
    time, each few packed once into one block."""
    ys, xs = np.arange(spec.height), np.arange(spec.width)
    if spec.shape == "rectangle":
        in_rows = np.abs(ys - cy[:, None]) <= ry[:, None]
        return pack_outer(in_rows, np.abs(xs - cx[:, None]) <= rx[:, None])
    masks = []
    # One float64 a pixel, so each few's sum is at most _SCRATCH_BYTES.
    for part in _chunks(len(cy), 8 * spec.height * spec.width):
        y_term = ((ys - cy[part, None]) / ry[part, None]) ** 2
        x_term = ((xs - cx[part, None]) / rx[part, None]) ** 2
        masks += pack_masks(y_term[:, :, None] + x_term[:, None, :] <= 1.0)
    return masks
