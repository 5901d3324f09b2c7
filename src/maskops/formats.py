"""File formats: mask-set JSON, raw tensor files with a JSON header line,
and the result records emitted by the CLI."""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from .dynahead import CategoryGrid, FeatureMap, Instance, KernelGrid
from .masks import BinaryMask, RleMask, mask_to_box, rle_decode, rle_encode
from .suppression import ScoredMask, SuppressionResult

TENSOR_KINDS = ("feature", "kernel", "category")


def mask_set_to_dict(masks: Sequence[ScoredMask], height=None, width=None) -> dict:
    """Mask-set document: dimensions plus one RLE instance per mask.

    Explicit dimensions are only required for an empty set (e.g. a generated
    scene with zero instances)."""
    if not masks:
        if height is None or width is None:
            raise ValueError("an empty mask set needs explicit dimensions")
        return {"height": int(height), "width": int(width), "instances": []}
    h, w = masks[0].mask.height, masks[0].mask.width
    instances = []
    for m in masks:
        if (m.mask.height, m.mask.width) != (h, w):
            raise ValueError("all masks in a set must share dimensions")
        instances.append(
            {
                "score": m.score,
                "category": m.category,
                "counts": list(rle_encode(m.mask).counts),
            }
        )
    return {"height": h, "width": w, "instances": instances}


def _json_int(value, name: str) -> int:
    # bool is a subclass of int, so compare the exact type: JSON true, 1.0
    # and "1" are all rejected rather than coerced.
    if type(value) is not int:
        raise ValueError(
            f"malformed mask set: {name} must be an integer, got {value!r}"
        )
    return value


def mask_set_from_dict(doc: dict) -> list:
    """Parse a mask-set document. Dimensions, counts and categories must be
    JSON integers and scores JSON numbers; nothing is coerced."""
    try:
        h, w = _json_int(doc["height"], "height"), _json_int(doc["width"], "width")
        masks = []
        for e in doc["instances"]:
            counts, score = e["counts"], e["score"]
            if type(counts) is not list or not set(map(type, counts)) <= {int}:
                raise ValueError(
                    "malformed mask set: counts must be a list of integers"
                )
            if type(score) not in (int, float):
                raise ValueError(
                    f"malformed mask set: score must be a number, got {score!r}"
                )
            masks.append(
                ScoredMask(
                    rle_decode(RleMask(h, w, tuple(counts))),
                    float(score),
                    _json_int(e.get("category", 0), "category"),
                )
            )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed mask set: {exc}") from exc
    return masks


def write_mask_set(path, masks: Sequence[ScoredMask], height=None, width=None):
    with open(path, "w") as f:
        f.write(to_json(mask_set_to_dict(masks, height, width)))


def read_mask_set(path) -> list:
    with open(path) as f:
        return mask_set_from_dict(json.load(f))


def write_tensor(path, array: np.ndarray, kind: str):
    """JSON header line `{"shape": [...], "kind": ...}` followed by the raw
    little-endian float32 payload."""
    if kind not in TENSOR_KINDS:
        raise ValueError(f"kind must be one of {TENSOR_KINDS}")
    arr = np.asarray(array, dtype="<f4")
    header = json.dumps({"shape": list(arr.shape), "kind": kind})
    with open(path, "wb") as f:
        f.write(header.encode("ascii") + b"\n")
        f.write(arr.tobytes())


def read_tensor(path):
    """Returns (array, kind); raises ValueError on any malformed content."""
    with open(path, "rb") as f:
        header = f.readline()
        payload = f.read()
    try:
        meta = json.loads(header)
        shape = tuple(int(s) for s in meta["shape"])
        kind = meta["kind"]
    except (json.JSONDecodeError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise ValueError(f"malformed tensor header: {exc}") from exc
    if kind not in TENSOR_KINDS:
        raise ValueError(f"unknown tensor kind {kind!r}")
    expected = int(np.prod(shape)) * 4 if shape else 4
    if len(payload) != expected:
        raise ValueError("tensor payload size does not match header shape")
    arr = np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float64)
    return arr, kind


def load_feature(path) -> FeatureMap:
    arr, kind = read_tensor(path)
    if kind != "feature":
        raise ValueError(f"expected a feature tensor, got {kind!r}")
    return FeatureMap(arr)


def load_kernels(path, feature_channels: int) -> KernelGrid:
    arr, kind = read_tensor(path)
    if kind != "kernel":
        raise ValueError(f"expected a kernel tensor, got {kind!r}")
    return KernelGrid(arr, feature_channels)


def load_categories(path) -> CategoryGrid:
    arr, kind = read_tensor(path)
    if kind != "category":
        raise ValueError(f"expected a category tensor, got {kind!r}")
    return CategoryGrid(arr)


def kept_to_dict(masks: Sequence[ScoredMask], result: SuppressionResult) -> dict:
    """Suppression output record; indices reference the input mask set."""
    kept = []
    for i, s in zip(result.kept_indices, result.updated_scores):
        box = mask_to_box(masks[i].mask)
        kept.append(
            {
                "index": i,
                "score": s,
                "category": masks[i].category,
                "box": [box.x_min, box.y_min, box.x_max, box.y_max],
            }
        )
    return {"kept": kept}


def instances_to_dict(instances: Sequence[Instance]) -> dict:
    out = []
    for inst in instances:
        out.append(
            {
                "score": inst.score,
                "category": inst.category,
                "box": [inst.box.x_min, inst.box.y_min, inst.box.x_max, inst.box.y_max],
                "height": inst.mask.height,
                "width": inst.mask.width,
                "counts": list(rle_encode(inst.mask).counts),
            }
        )
    return {"instances": out}


def to_json(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"
