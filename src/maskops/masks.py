"""Binary instance masks: packed-bit storage, run-length codec, IoU, boxes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

_WORD_BITS = 64

# Most pixels, height * width * instances, one mask set may decode to. Run
# lengths are non-negative and sum to height * width, so this also bounds
# every count. 2**27 admits up to 436 masks of 640x480. The mask-set reader
# and `SceneSpec` both apply it.
MAX_MASK_SET_PIXELS = 1 << 27


def require_int(value, name: str, minimum: int) -> int:
    """`value` if it is a Python int >= `minimum`, else a ValueError.

    The type must be exactly int: bool (a subclass of int), float and NumPy
    integer scalars are rejected rather than coerced. Every exact-int check
    in the package is a call to this function."""
    if type(value) is not int or value < minimum:
        raise ValueError(f"{name} must be an int >= {minimum}, got {value!r}")
    return value


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
        require_int(self.height, "height", 1)
        require_int(self.width, "width", 1)
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
        require_int(self.height, "height", 1)
        require_int(self.width, "width", 1)
        counts = tuple(self.counts)
        object.__setattr__(self, "counts", counts)
        # require_int's exact-type rule, applied to all counts at once.
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
        # One min and one max, not two comparisons: NaN fails both tests.
        if v.size and not (v.min() >= 0.0 and v.max() <= 1.0):
            raise ValueError("IoU entries must lie in [0, 1]")
        v.setflags(write=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def pairwise_iou_matrix(masks: Sequence[BinaryMask]) -> IoUMatrix:
    """All-pairs IoU over a mask list, upper triangle only.

    When the width is a multiple of 64, each image row is `cols` whole
    words, and word c of every row forms strip c; otherwise the whole mask
    is one strip. A pair's intersection is the sum of its per-strip counts,
    and a mask with no bit in a strip skips it.

    Within a strip, a mask's word span runs from its first to its last
    non-zero word, and the masks are visited in order of their first word
    (`lo`). In that order, the masks after k that start at or past k's
    exclusive end `hi` are a suffix, and none of them can meet mask k. So
    row k popcounts only the rows between k and that suffix, and only over
    k's span. The counts are exact integers and each IoU is one float64
    division of them, so the matrix equals the all-pairs one bit for bit.
    """
    n = len(masks)
    out = np.zeros((n, n), dtype=np.float64)
    if n < 2:
        return IoUMatrix(out)
    first = masks[0]
    for m in masks[1:]:
        _check_same_dims(first, m)
    cols = first.width // _WORD_BITS if first.width % _WORD_BITS == 0 else 1
    # Counts and areas are integers below 2**53, so float64 holds them, and
    # sums them across strips and forms each union, exactly.
    areas = np.zeros(n, dtype=np.float64)
    # `out` gathers each pair's count at (i, j) or (j, i), in whichever
    # order a strip visits the pair; the mirror below adds the two. Only
    # one strip's words are held at a time.
    for c in range(cols):
        strip = np.array([m.words[c::cols] for m in masks])
        areas += np.bitwise_count(strip).sum(axis=1, dtype=np.int64)
        nz = strip != 0
        idx = np.flatnonzero(nz.any(axis=1))
        nz = nz[idx]
        lo = nz.argmax(axis=1)
        hi = nz.shape[1] - nz[:, ::-1].argmax(axis=1)
        order = np.argsort(lo, kind="stable")
        idx, lo, hi = idx[order], lo[order], hi[order]
        words = strip[idx]
        del strip, nz
        stop = np.searchsorted(lo, hi)
        inter = np.zeros((idx.size, idx.size), dtype=np.float64)
        for k in range(idx.size - 1):
            span = slice(lo[k], hi[k])
            inter[k, k + 1 : stop[k]] = np.bitwise_count(
                words[k, span] & words[k + 1 : stop[k], span]
            ).sum(axis=1, dtype=np.int64)
        del words
        out[np.ix_(idx, idx)] += inter
        del inter
    out += out.T
    union = np.add.outer(areas, areas)
    union -= out
    np.divide(out, union, out=out, where=union > 0)
    del union
    return IoUMatrix(np.triu(out, 1))


@dataclass(frozen=True)
class Box:
    """Inclusive pixel-coordinate bounding box."""

    x_min: int
    y_min: int
    x_max: int
    y_max: int

    def __post_init__(self):
        for name in ("x_min", "y_min", "x_max", "y_max"):
            require_int(getattr(self, name), name, 0)
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError("box max must be >= min on both axes")


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

