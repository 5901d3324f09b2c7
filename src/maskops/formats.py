"""File formats: mask-set JSON and the result records emitted by the CLI."""

from __future__ import annotations

import json
from typing import Sequence

from .dynahead import Instance
from .masks import RleMask, mask_to_box, rle_decode, rle_encode
from .suppression import ScoredMask, SuppressionResult

# Most pixels, height * width * instances, one mask set may decode to. Run
# lengths are non-negative and sum to height * width, so this also bounds
# every count. 2**27 admits up to 436 masks of 640x480.
MAX_MASK_SET_PIXELS = 1 << 27


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
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def mask_set_from_dict(doc: dict) -> list:
    """Parse a mask-set document. Dimensions, counts and categories must be
    JSON integers and scores JSON numbers; nothing is coerced. A set that
    would decode to more than MAX_MASK_SET_PIXELS pixels is rejected. Every
    rejection is a ValueError starting with "malformed mask set"."""
    try:
        h, w = _json_int(doc["height"], "height"), _json_int(doc["width"], "width")
        instances = doc["instances"]
        if h * w * len(instances) > MAX_MASK_SET_PIXELS:
            raise ValueError(
                f"{len(instances)} masks of {h}x{w} exceed "
                f"{MAX_MASK_SET_PIXELS} pixels"
            )
        masks = []
        for e in instances:
            counts, score = e["counts"], e["score"]
            if type(score) not in (int, float):
                raise ValueError(f"score must be a number, got {score!r}")
            masks.append(
                ScoredMask(
                    rle_decode(RleMask(h, w, counts)),
                    float(score),
                    _json_int(e.get("category", 0), "category"),
                )
            )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed mask set: {exc}") from exc
    return masks


def read_mask_set(path) -> list:
    with open(path) as f:
        return mask_set_from_dict(json.load(f))


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
