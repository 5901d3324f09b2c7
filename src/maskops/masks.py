"""Binary instance masks: packed-bit storage, run-length codec, IoU, boxes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

_WORD_BITS = 64


def _pack_rows(flat: np.ndarray) -> np.ndarray:
    """Pack a flat boolean array into little-endian uint64 words (zero padded)."""
    packed = np.packbits(flat, bitorder="little")
    words = np.zeros((packed.size + 7) // 8, dtype=np.uint64)
    words.view(np.uint8)[: packed.size] = packed
    return words


def _unpack_rows(words: np.ndarray, count: int) -> np.ndarray:
    raw = words.view(np.uint8)[: (count + 7) // 8]
    return np.unpackbits(raw, count=count, bitorder="little").astype(bool)


@dataclass(frozen=True, eq=False)
class BinaryMask:
    """An immutable H x W binary mask stored as packed uint64 words.

    Bits are laid out row-major, least-significant bit first, and padding
    bits in the final word are always zero so popcounts over the raw words
    are exact areas.
    """

    height: int
    width: int
    words: np.ndarray

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError("mask dims must be >= 1")
        n_words = (self.height * self.width + _WORD_BITS - 1) // _WORD_BITS
        if self.words.dtype != np.uint64 or self.words.shape != (n_words,):
            raise ValueError("words must be a uint64 vector covering height*width bits")
        tail_bits = self.height * self.width - (n_words - 1) * _WORD_BITS
        if tail_bits < _WORD_BITS:
            tail_mask = np.uint64((1 << tail_bits) - 1)
            if self.words[-1] & ~tail_mask:
                raise ValueError("padding bits past height*width must be zero")
        self.words.setflags(write=False)

    @classmethod
    def from_array(cls, array) -> "BinaryMask":
        arr = np.asarray(array)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        flat = (arr != 0).reshape(-1)
        return cls(arr.shape[0], arr.shape[1], _pack_rows(flat))

    def to_array(self) -> np.ndarray:
        bits = _unpack_rows(self.words, self.height * self.width)
        return bits.reshape(self.height, self.width)

    @cached_property
    def area(self) -> int:
        return int(np.bitwise_count(self.words).sum(dtype=np.int64))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryMask)
            and self.height == other.height
            and self.width == other.width
            and bool(np.array_equal(self.words, other.words))
        )

    def __repr__(self) -> str:
        return f"BinaryMask({self.height}x{self.width}, area={self.area})"


@dataclass(frozen=True)
class RleMask:
    """Run-length encoding of a row-major mask.

    Counts are Python ints (not bools, floats or NumPy scalars) that alternate
    background/foreground starting with background; only the leading count may
    be zero, and the counts must sum to height * width.
    """

    height: int
    width: int
    counts: tuple

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError("mask dims must be >= 1")
        counts = tuple(self.counts)
        object.__setattr__(self, "counts", counts)
        # bool is a subclass of int, so compare exact types.
        if not set(map(type, counts)) <= {int}:
            raise ValueError("counts must be integers")
        if not counts:
            raise ValueError("counts must be non-empty")
        if counts[0] < 0 or any(c <= 0 for c in counts[1:]):
            raise ValueError("only the leading count may be zero")
        if sum(counts) != self.height * self.width:
            raise ValueError("counts must sum to height*width")


def rle_encode(mask: BinaryMask) -> RleMask:
    flat = _unpack_rows(mask.words, mask.height * mask.width).astype(np.int8)
    edges = np.flatnonzero(np.diff(flat)) + 1
    bounds = np.concatenate(([0], edges, [flat.size]))
    counts = np.diff(bounds)
    if flat[0]:  # leading zero-length background run
        counts = np.concatenate(([0], counts))
    return RleMask(mask.height, mask.width, tuple(counts.tolist()))


def rle_decode(rle: RleMask) -> BinaryMask:
    counts = np.asarray(rle.counts, dtype=np.int64)
    # Repeat bools, not ints: the expanded mask is then 1 byte per pixel.
    values = np.arange(counts.size) % 2 == 1  # background first
    flat = np.repeat(values, counts)
    return BinaryMask(rle.height, rle.width, _pack_rows(flat))


def _check_same_dims(a: BinaryMask, b: BinaryMask):
    if a.height != b.height or a.width != b.width:
        raise ValueError("masks must share dimensions")


def mask_iou(a: BinaryMask, b: BinaryMask) -> float:
    """Exact intersection-over-union via popcounts on the packed words."""
    _check_same_dims(a, b)
    inter = int(np.bitwise_count(a.words & b.words).sum(dtype=np.int64))
    union = a.area + b.area - inter
    return inter / union if union else 0.0


@dataclass(frozen=True, eq=False)
class IoUMatrix:
    """Strict upper-triangular pairwise IoU matrix (diagonal and below are zero)."""

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.dtype != np.float64:
            raise ValueError("values must be a square float64 matrix")
        if np.any(np.tril(v) != 0.0):
            raise ValueError("diagonal and lower triangle must be zero")
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise ValueError("IoU entries must lie in [0, 1]")
        v.setflags(write=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def pairwise_iou_matrix(masks: Sequence[BinaryMask]) -> IoUMatrix:
    """All-pairs IoU over a mask list, upper triangle only."""
    n = len(masks)
    out = np.zeros((n, n), dtype=np.float64)
    if n > 1:
        first = masks[0]
        for m in masks[1:]:
            _check_same_dims(first, m)
        words = np.stack([m.words for m in masks])
        areas = np.array([m.area for m in masks], dtype=np.int64)
        for i in range(n - 1):
            inter = np.bitwise_count(words[i] & words[i + 1 :]).sum(
                axis=1, dtype=np.int64
            )
            union = areas[i] + areas[i + 1 :] - inter
            np.divide(inter, union, out=out[i, i + 1 :], where=union > 0)
    return IoUMatrix(out)


@dataclass(frozen=True)
class Box:
    """Inclusive pixel-coordinate bounding box."""

    x_min: int
    y_min: int
    x_max: int
    y_max: int

    def __post_init__(self):
        if min(self.x_min, self.y_min) < 0:
            raise ValueError("box coordinates must be non-negative")
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError("box max must be >= min on both axes")

    @property
    def width(self) -> int:
        return self.x_max - self.x_min + 1

    @property
    def height(self) -> int:
        return self.y_max - self.y_min + 1

    @property
    def area(self) -> int:
        return self.width * self.height


def mask_to_box(mask: BinaryMask) -> Box:
    """Tight bounding box of the foreground; raises on an empty mask."""
    arr = mask.to_array()
    ys = np.flatnonzero(arr.any(axis=1))
    xs = np.flatnonzero(arr.any(axis=0))
    if ys.size == 0:
        raise ValueError("empty mask has no bounding box")
    return Box(int(xs[0]), int(ys[0]), int(xs[-1]), int(ys[-1]))


def box_to_mask(box: Box, height: int, width: int) -> BinaryMask:
    """Paint a box as a filled mask on an H x W canvas."""
    if box.x_max >= width or box.y_max >= height:
        raise ValueError("box exceeds canvas")
    arr = np.zeros((height, width), dtype=bool)
    arr[box.y_min : box.y_max + 1, box.x_min : box.x_max + 1] = True
    return BinaryMask.from_array(arr)


def box_iou(a: Box, b: Box) -> float:
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min) + 1
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min) + 1
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)
