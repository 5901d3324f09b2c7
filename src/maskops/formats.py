"""File formats: mask-set JSON and the result records emitted by the CLI."""

from __future__ import annotations

import json
from typing import Sequence

from .dynahead import Instance
from .masks import (
    check_mask_set_size,
    decode_counts,
    encode_counts,
    mask_to_box,  # noqa: F401 - perfbench's traced run wraps formats.mask_to_box
    masks_to_boxes,
    require_int,
)
from .suppression import ScoredMask, SuppressionResult


def mask_set_to_dict(masks: Sequence[ScoredMask], height=None, width=None) -> dict:
    """Mask-set document: dimensions plus one RLE instance per mask.

    Explicit dimensions are only required for an empty set (e.g. a generated
    scene with zero instances); given for a non-empty set, they must equal
    the masks' own. Each given dimension must be an int >= 1; nothing is
    coerced. A set its reader would reject for size
    (`masks.check_mask_set_size`) is not written either."""
    for name, value in (("height", height), ("width", width)):
        if value is not None:
            require_int(value, name, 1)
    if masks:
        h, w = masks[0].mask.height, masks[0].mask.width
        if height not in (None, h) or width not in (None, w):
            raise ValueError(f"dimensions {height}x{width} differ from the masks' {h}x{w}")
    elif height is None or width is None:
        raise ValueError("an empty mask set needs explicit dimensions")
    else:
        h, w = height, width
    check_mask_set_size(h, w, len(masks))
    instances = [
        {"score": m.score, "category": m.category, "counts": counts}
        for m, counts in zip(masks, encode_counts([m.mask for m in masks]))
    ]
    return {"height": h, "width": w, "instances": instances}


def mask_set_from_dict(doc: dict) -> list:
    """Parse a mask-set document. The document and each instance must be
    JSON objects, `instances` a JSON list, each instance's counts a JSON list
    and its score a JSON number; nothing is coerced. Every rejection is a
    ValueError starting with "malformed mask set".

    The whole set is checked and decoded by one `masks.decode_counts` call,
    which applies the dimension, size-cap and count rules (to an empty set
    too) before it allocates anything; it decodes a `masks._chunks` slice
    at a time, and each slice's words are the rows of one shared read-only
    block. Categories must be ints >= 0 (`ScoredMask`)."""
    try:
        if not isinstance(doc, dict):
            raise ValueError(f"the document must be an object, got {type(doc).__name__}")
        h, w, instances = doc["height"], doc["width"], doc["instances"]
        if type(instances) is not list:
            raise ValueError(f"instances must be a list, got {type(instances).__name__}")
        for i, e in enumerate(instances):
            if not isinstance(e, dict):
                raise ValueError(f"instance {i} must be an object, got {type(e).__name__}")
        counts = [e["counts"] for e in instances]
        for c in counts:
            if type(c) is not list:
                raise ValueError(f"counts must be a list, got {type(c).__name__}")
        masks = []
        for e, mask in zip(instances, decode_counts(counts, h, w)):
            score = e["score"]
            if type(score) not in (int, float):
                raise ValueError(f"score must be a number, got {score!r}")
            masks.append(ScoredMask(mask, float(score), e.get("category", 0)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed mask set: {exc}") from exc
    return masks


def read_mask_set(path) -> list:
    with open(path) as f:
        try:
            doc = json.load(f)
        except RecursionError as exc:  # arrays or objects nested too deeply
            raise ValueError(f"malformed mask set: {exc}") from exc
    return mask_set_from_dict(doc)


def kept_to_dict(masks: Sequence[ScoredMask], result: SuppressionResult) -> dict:
    """Suppression output record; indices reference the input mask set. An
    empty kept mask has no box: its "box" is None (JSON null)."""
    indices = result.kept_indices
    boxes = masks_to_boxes([masks[i].mask for i in indices])
    kept = []
    for i, s, box in zip(indices, result.updated_scores, boxes):
        kept.append(
            {
                "index": i,
                "score": s,
                "category": masks[i].category,
                "box": None if box is None else [box.x_min, box.y_min, box.x_max, box.y_max],
            }
        )
    return {"kept": kept}


def instances_to_dict(instances: Sequence[Instance]) -> dict:
    """Pipeline output record; the instances' masks must share dimensions."""
    out = []
    for inst, counts in zip(instances, encode_counts([i.mask for i in instances])):
        out.append(
            {
                "score": inst.score,
                "category": inst.category,
                "box": [inst.box.x_min, inst.box.y_min, inst.box.x_max, inst.box.y_max],
                "height": inst.mask.height,
                "width": inst.mask.width,
                "counts": counts,
            }
        )
    return {"instances": out}


def to_json(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"
