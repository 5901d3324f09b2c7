"""Synthetic scene generation: clusters of jittered duplicate shapes that give
suppression something realistic to chew on."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .masks import BinaryMask
from .suppression import ScoredMask

SHAPES = ("rectangle", "ellipse")


@dataclass(frozen=True)
class SceneSpec:
    """Parameters for one synthetic scene.

    Every base instance is replicated num_duplicates_per_instance extra times
    with jittered position, size and score, so the scene contains
    num_instances * (1 + num_duplicates_per_instance) masks in total.
    """

    height: int = 128
    width: int = 128
    num_instances: int = 8
    num_duplicates_per_instance: int = 4
    shape: str = "rectangle"
    score_noise: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if self.height < 8 or self.width < 8:
            raise ValueError("scene dims must be >= 8")
        if self.num_instances < 0 or self.num_duplicates_per_instance < 0:
            raise ValueError("counts must be non-negative")
        if self.shape not in SHAPES:
            raise ValueError(f"shape must be one of {SHAPES}")
        if not self.score_noise >= 0.0:  # NaN fails too
            raise ValueError(f"score_noise must be >= 0, got {self.score_noise}")

    @property
    def total_masks(self) -> int:
        return self.num_instances * (1 + self.num_duplicates_per_instance)


def _paint(spec: SceneSpec, cy: float, cx: float, ry: float, rx: float) -> BinaryMask:
    """Paint one shape, clipped to the canvas (clipping is never an error)."""
    ys = np.arange(spec.height)[:, None]
    xs = np.arange(spec.width)[None, :]
    if spec.shape == "rectangle":
        arr = (np.abs(ys - cy) <= ry) & (np.abs(xs - cx) <= rx)
    else:
        arr = ((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 <= 1.0
    return BinaryMask.from_array(arr)


def gen_scene(spec: SceneSpec) -> list:
    """Deterministic scene of duplicate clusters.

    Each cluster has one base mask plus jittered copies whose offsets stay
    within a quarter of the base extent, keeping within-cluster IoU high; the
    base carries the cluster's top score and the copies trail it.
    """
    rng = np.random.default_rng(spec.seed)
    masks = []
    for _ in range(spec.num_instances):
        ry = float(rng.integers(max(2, spec.height // 10), max(3, spec.height // 4)))
        rx = float(rng.integers(max(2, spec.width // 10), max(3, spec.width // 4)))
        cy = float(rng.uniform(ry * 0.5, spec.height - 1 - ry * 0.5))
        cx = float(rng.uniform(rx * 0.5, spec.width - 1 - rx * 0.5))
        base_score = float(rng.uniform(0.55, 0.95))
        masks.append(_clipped_scored(spec, rng, cy, cx, ry, rx, base_score))
        for _ in range(spec.num_duplicates_per_instance):
            jy = rng.uniform(-ry / 4.0, ry / 4.0)
            jx = rng.uniform(-rx / 4.0, rx / 4.0)
            scale = rng.uniform(0.9, 1.1)
            s = base_score - float(rng.uniform(0.03, 0.3))
            masks.append(
                _clipped_scored(
                    spec, rng, cy + jy, cx + jx, ry * scale, rx * scale, s
                )
            )
    return masks


def _clipped_scored(spec, rng, cy, cx, ry, rx, score) -> ScoredMask:
    noisy = score + float(rng.normal(0.0, spec.score_noise))
    return ScoredMask(_paint(spec, cy, cx, ry, rx), float(np.clip(noisy, 1e-3, 1.0)), 0)
