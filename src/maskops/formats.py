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


# The field rule of each JSON object in a mask set: its keys in the order
# they are read, each with the exact container type its value must have
# (None: a scalar, typed by the rule that reads it) and its default when
# left out (_REQUIRED: none). Keys not listed are ignored.
_REQUIRED = object()
_DOCUMENT_FIELDS = (
    ("height", None, _REQUIRED),
    ("width", None, _REQUIRED),
    ("instances", list, _REQUIRED),
)
_INSTANCE_FIELDS = (
    ("counts", list, _REQUIRED),
    ("score", None, _REQUIRED),
    ("category", None, 0),
)


def _malformed(where: str, what) -> ValueError:
    return ValueError(f"malformed mask set: {where}: {what}")


def _fields(objects: list, fields: tuple, where: str) -> list:
    """The values of `fields` (a field rule) in each of `objects`, as one
    list per field. Object i is named `where.format(i)`, a text built only
    for a rejection: one that is not an object, one that lacks a required
    key, or a value of the wrong container type."""
    for i, obj in enumerate(objects):
        if not isinstance(obj, dict):
            raise _malformed(where.format(i), f"must be an object, got {type(obj).__name__}")
    columns = []
    for key, kind, default in fields:
        if default is _REQUIRED:
            try:
                values = [obj[key] for obj in objects]
            except KeyError:
                i = next(i for i, obj in enumerate(objects) if key not in obj)
                raise _malformed(where.format(i), f"{key} is missing") from None
        else:
            values = [obj.get(key, default) for obj in objects]
        if kind is not None:
            for i, value in enumerate(values):
                if type(value) is not kind:
                    got = type(value).__name__
                    raise _malformed(where.format(i), f"{key} must be a {kind.__name__}, got {got}")
        columns.append(values)
    return columns


def mask_set_from_dict(doc: dict) -> list:
    """Parse a mask-set document, read by its field rule: the document needs
    `height`, `width` and `instances` (a JSON list of objects), and each
    instance `counts` (a JSON list) and `score`; an instance's `category`
    may be left out and is then 0. Unknown keys are ignored. Nothing is
    coerced. Every rejection is a ValueError reading "malformed mask set:
    <where>: <what>", where <where> is "the document" or "instance <i>".

    The whole set is checked and decoded by one `masks.decode_counts` call,
    which applies the dimension, size-cap and count rules (to an empty set
    too) before it allocates anything; it decodes a `masks._chunks` slice
    at a time, and each slice's words are the rows of one shared read-only
    block. Scores must be finite numbers in (0, 1] and categories ints >= 0
    (`ScoredMask`)."""
    (height,), (width,), (instances,) = _fields([doc], _DOCUMENT_FIELDS, "the document")
    counts, scores, categories = _fields(instances, _INSTANCE_FIELDS, "instance {}")
    masks, i = [], None
    try:
        decoded = decode_counts(counts, height, width)
        for i, (mask, score, category) in enumerate(zip(decoded, scores, categories)):
            masks.append(ScoredMask(mask, score, category))
    except ValueError as exc:
        # A broken count rule names its mask (`masks._MaskCountsError`).
        i = getattr(exc, "index", i)
        raise _malformed("the document" if i is None else f"instance {i}", exc) from exc
    return masks


def _unique_keys(pairs: list) -> dict:
    """`json.load`'s object hook: the object, unless a key is repeated."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {json.dumps(key)}")
        obj[key] = value
    return obj


def read_mask_set(path) -> list:
    """The mask set in the UTF-8 JSON file at `path` (`mask_set_from_dict`).
    A file that is not UTF-8 or not JSON, repeats a key in an object, or
    nests arrays or objects too deeply is a ValueError reading "malformed
    mask set: the file: <what>"."""
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            raise _malformed("the file", exc) from exc
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
