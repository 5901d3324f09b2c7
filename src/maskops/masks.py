"""Binary instance masks: packed-bit storage, run-length codec, IoU, boxes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

_WORD_BITS = 64

# Most padded pixels, height * 64 * cols * instances, one mask set may
# decode to, where each row is padded to `cols` whole words (`_row_words`).
# Run lengths are non-negative and sum to height * width, so this also bounds
# every count. 2**27 admits up to 436 masks of 640x480 (an aligned width).
# `decode_counts`, the mask-set reader and `SceneSpec` apply it through
# `check_mask_set_size`.
MAX_MASK_SET_PIXELS = 1 << 27

# Bytes of scratch space that `decode_counts`, `encode_counts`,
# `masks_to_boxes`, `pack_outer`, `scenes.gen_scene` and
# `dynahead.assemble_masks` work through: each takes the masks one `_chunks`
# slice at a time, so none holds a temporary the size of the whole set.
# `pairwise_iou_matrix` and `IoUMatrix` take the IoU rows the same way.
_SCRATCH_BYTES = 1 << 17


def require_int(value, name: str, minimum: int) -> int:
    """`value` if it is a Python int >= `minimum`, else a ValueError.

    The type must be exactly int: bool (a subclass of int), float and NumPy
    integer scalars are rejected rather than coerced. Every exact-int check
    in the package is a call to this function."""
    if type(value) is not int or value < minimum:
        raise ValueError(f"{name} must be an int >= {minimum}, got {value!r}")
    return value


def require_finite(value, name: str):
    """`value` if it is a finite real number, else a ValueError. A bool or
    NumPy bool passes a real-valued setting's range check (True == 1) but is
    not a number, and NaN or an infinity is not a usable setting, so all
    are rejected, as is anything `math.isfinite` cannot take (a string,
    None, an int past float64); each caller keeps its own range check. Every
    finite-real check in the package is a call to this function."""
    try:
        finite = math.isfinite(value)
    except (TypeError, OverflowError):
        finite = False
    if isinstance(value, (bool, np.bool_)) or not finite:
        raise ValueError(
            f"{name} must be a real number (finite, not bool), got {value!r}"
        )
    return value


def _row_words(width: int) -> int:
    """Words per image row: `cols = ceil(width / 64)`."""
    return -(-width // _WORD_BITS)


def _row_tail(width: int) -> np.uint64:
    """The pixel bits of a row's last word; the rest are padding."""
    return np.uint64((1 << ((width - 1) % _WORD_BITS + 1)) - 1)


def _chunks(n: int, item_bytes: int) -> list:
    """The consecutive slices of range(n), each as many items of
    `item_bytes` bytes as fit in _SCRATCH_BYTES, and at least one; the last
    may hold fewer."""
    step = max(1, _SCRATCH_BYTES // item_bytes)
    return [slice(top, min(top + step, n)) for top in range(0, n, step)]


def check_mask_set_size(height: int, width: int, count: int):
    """A ValueError if `count` masks of height x width, each row padded to
    whole words, exceed MAX_MASK_SET_PIXELS. An empty set is sized as one
    mask, so its dimensions alone must fit too."""
    row = _WORD_BITS * _row_words(width)
    if height * row * max(count, 1) > MAX_MASK_SET_PIXELS:
        raise ValueError(
            f"{count} masks of {height}x{width} (rows padded to {row} pixels) "
            f"exceed {MAX_MASK_SET_PIXELS} pixels"
        )


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """The inverse of `_unpack_rows`: pack an (n, h, w) boolean stack into
    little-endian uint64 words, each row `cols` whole words with zero
    padding bits, as one (n, h * cols) block that owns its memory.

    The stack is made contiguous first: `packbits` along the width of a
    strided view (such as a transposed (h, w, n) map) runs about twice as
    slowly as the copy and the contiguous pack together."""
    n, h, w = bits.shape
    cols = _row_words(w)
    block = np.zeros((n, h * cols), dtype=np.uint64)
    packed = np.packbits(np.ascontiguousarray(bits), axis=2, bitorder="little")
    # Zero bytes past each row's packed bytes pad it to whole words.
    block.view(np.uint8).reshape(n, h, 8 * cols)[..., : packed.shape[2]] = packed
    return block


def _unpack_rows(words: np.ndarray, h: int, w: int) -> np.ndarray:
    """The pixels of each row of an (n, h * cols) block of masks' words, as
    an (n, h, w) boolean array."""
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little").view(bool)
    return bits.reshape(len(words), h, -1)[..., :w]


@dataclass(frozen=True, eq=False)
class BinaryMask:
    """An immutable H x W binary mask stored as packed uint64 words.

    Each image row is `cols = ceil(W / 64)` whole words, least-significant
    bit first, so pixel (y, x) is bit x % 64 of word y * cols + x // 64.
    The padding bits past W in each row's last word are always zero, so
    popcounts over the raw words are exact areas.

    Ownership: `words` is wrapped, not copied, and made read-only, even
    when it is the caller's own; pass a copy to keep yours writable.
    """

    height: int
    width: int
    words: np.ndarray

    def __post_init__(self):
        require_int(self.height, "height", 1)
        require_int(self.width, "width", 1)
        cols = _row_words(self.width)
        if (
            not isinstance(self.words, np.ndarray)
            or self.words.dtype != np.uint64
            or self.words.shape != (self.height * cols,)
        ):
            raise ValueError("words must be a uint64 vector of height * ceil(width/64)")
        # An aligned width has no padding bits, so only others are checked.
        if self.width % _WORD_BITS and np.any(
            self.words[cols - 1 :: cols] & ~_row_tail(self.width)
        ):
            raise ValueError("padding bits past width in each row must be zero")
        self.words.setflags(write=False)

    @classmethod
    def from_array(cls, array) -> "BinaryMask":
        arr = np.asarray(array)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls(arr.shape[0], arr.shape[1], _pack_rows((arr != 0)[None])[0])

    def to_array(self) -> np.ndarray:
        return _unpack_rows(self.words[None], self.height, self.width)[0]

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


def _block_masks(block: np.ndarray, height: int, width: int) -> list:
    """One BinaryMask per row of an (n, height * cols) uint64 block. The
    block is made read-only, and the masks' words are its rows."""
    block.setflags(write=False)
    return [BinaryMask(height, width, words) for words in block]


def pack_masks(bits: np.ndarray) -> list:
    """One BinaryMask per (h, w) plane of an (n, h, w) boolean stack; the
    masks' words are the rows of one shared read-only block (`_pack_rows`)."""
    return _block_masks(_pack_rows(bits), *bits.shape[1:])


def pack_outer(in_rows: np.ndarray, in_cols: np.ndarray) -> list:
    """One BinaryMask per row i of an (n, h) boolean row test and an (n, w)
    column test, whose pixel (y, x) is in_rows[i, y] & in_cols[i, x]. Each
    image row of mask i is either zero words or its packed column test, so
    no pixel array is built. The masks are packed one `_chunks` slice of
    words at a time, and each slice's words are one shared read-only block."""
    (n, h), w = in_rows.shape, in_cols.shape[1]
    row_words = _pack_rows(in_cols[:, None, :])
    cols = row_words.shape[1]
    masks = []
    for part in _chunks(n, 8 * h * cols):
        words, tests = row_words[part], in_rows[part]
        block = np.zeros((len(words), h * cols), dtype=np.uint64)
        np.copyto(block.reshape(-1, h, cols), words[:, None], where=tests[:, :, None])
        masks += _block_masks(block, h, w)
    return masks


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
        _checked_counts([counts], self.height * self.width)


def _checked_counts(count_lists: Sequence[Sequence], pixels: int) -> tuple:
    """All counts of a set of RLE masks of `pixels` pixels each, as one flat
    int64 array, and the index in it just past each mask's last count; a
    ValueError unless every mask's counts follow the RleMask rules."""
    lengths = np.array([len(c) for c in count_lists], dtype=np.int64)
    flat = list(chain.from_iterable(count_lists))
    # require_int's exact-type rule, applied to all counts at once.
    if not set(map(type, flat)) <= {int}:
        raise ValueError("counts must be integers")
    if not lengths.all():
        raise ValueError("counts must be non-empty")
    try:
        counts = np.array(flat, dtype=np.int64)
    except OverflowError:  # a Python int past int64, so far outside [0, pixels]
        raise ValueError(f"counts must lie in [0, {pixels}]") from None
    del flat
    ends = np.cumsum(lengths)
    starts = ends - lengths
    # Bounded counts also bound each sum below, so no int64 sum wraps around.
    if counts.size and counts.max() > pixels:
        raise ValueError(f"counts must lie in [0, {pixels}]")
    bad = counts <= 0
    bad[starts] = counts[starts] < 0
    if bad.any():
        raise ValueError("only the leading count may be zero")
    if np.any(np.add.reduceat(counts, starts) != pixels):
        raise ValueError("counts must sum to height*width")
    return counts, ends


def _prefix_xor(toggles: np.ndarray):
    """Turn each row of an (m, words) block of toggle bits, in place, into
    the prefix XOR of its bits: each bit becomes the parity of the toggles
    at or before it in its row."""
    tmp = np.empty_like(toggles)
    for shift in (1, 2, 4, 8, 16, 32):
        np.left_shift(toggles, shift, out=tmp)
        toggles ^= tmp
    # Each word's top bit is now the parity of its toggles; the running XOR
    # of the top bits, all ones where it is odd, flips the row's next word.
    # The flat views keep the XOR unbuffered; the zeroed last column keeps
    # each row's parity out of the next row.
    np.right_shift(toggles, _WORD_BITS - 1, out=tmp)
    np.bitwise_xor.accumulate(tmp, axis=1, out=tmp)
    np.negative(tmp, out=tmp)
    tmp[:, -1] = 0
    toggles.reshape(-1)[1:] ^= tmp.reshape(-1)[:-1]


def decode_counts(count_lists: Sequence[Sequence], height: int, width: int) -> list:
    """Check the RLE counts of a set of height x width masks, one sequence
    per mask, with RleMask's rules, and decode them without expanding any
    pixel to a byte.

    Every run end but a mask's last flips the pixel value, so each sets one
    toggle bit. A prefix XOR of the toggles then gives the pixels: within a
    word by six shift-XOR steps, across words by XORing in the parity of the
    same mask's earlier words. The masks are decoded one `_chunks` slice of
    words at a time, so the arrays made from their counts stay small, and
    each slice's words are the rows of one read-only (k, height * cols)
    uint64 block. A set past MAX_MASK_SET_PIXELS (`check_mask_set_size`) is
    a ValueError before anything is allocated."""
    require_int(height, "height", 1)
    require_int(width, "width", 1)
    check_mask_set_size(height, width, len(count_lists))
    cols = _row_words(width)
    n_words = height * cols
    masks = []
    for part in _chunks(len(count_lists), 8 * n_words):
        counts, ends = _checked_counts(count_lists[part], height * width)
        block = np.zeros((len(ends), n_words), dtype=np.uint64)
        # The running sum of the counts is a toggle's pixel index p in the
        # masks laid end to end. Each mask holds whole image rows, so p is
        # row y = p // width, column x = p % width of `block`: its bit
        # y * 64 * cols + x.
        last = ends - 1
        toggles = np.delete(np.cumsum(counts, out=counts), last)
        y, x = np.divmod(toggles, width)
        toggles = y * (_WORD_BITS * cols) + x
        word = toggles >> 6
        bits = toggles.view(np.uint64)
        np.left_shift(np.uint64(1), bits & np.uint64(63), out=bits)
        # Toggle indices increase, so each word's toggles are one run of them.
        new_word = np.ones(word.size, dtype=bool)
        np.not_equal(word[1:], word[:-1], out=new_word[1:])
        first = np.flatnonzero(new_word)
        block.reshape(-1)[word[first]] = np.bitwise_or.reduceat(bits, first)
        _prefix_xor(block)
        if width % _WORD_BITS:  # a row that ends in foreground fills its padding
            block[:, cols - 1 :: cols] &= _row_tail(width)
        masks += _block_masks(block, height, width)
    return masks


def encode_counts(masks: Sequence[BinaryMask]) -> list:
    """The inverse of `decode_counts`: the RLE counts of each of a set of
    masks that share dimensions, as a list of ints (RleMask's rules), with a
    leading 0 when its first pixel is set.

    The masks are unpacked a few at a time and laid end to end, each pixel
    compared with the one before it in its mask (a mask's first pixel with
    background), so one `flatnonzero` finds every run start. Each mask's
    counts are the gaps between its run starts and its end."""
    if not masks:
        return []
    h, w = check_same_dims(*masks)
    pixels = h * w
    count_lists = []
    # Each word unpacks to 64 bytes, so a chunk's pixels fit _SCRATCH_BYTES.
    for part in _chunks(len(masks), 64 * h * _row_words(w)):
        chunk = masks[part]
        k = len(chunk)
        flat = _unpack_rows(np.array([m.words for m in chunk]), h, w).reshape(k, pixels)
        starts = np.empty((k, pixels), dtype=bool)
        starts[:, 0] = flat[:, 0]
        np.not_equal(flat[:, 1:], flat[:, :-1], out=starts[:, 1:])
        starts = np.flatnonzero(starts)
        # Mask r ends at pixel (r + 1) * pixels of the chunk, after cut[r]
        # run starts, so its end is bounds[cut[r] + r] and its last count
        # is runs[cut[r] + r].
        ends = pixels * np.arange(1, k + 1)
        cut = np.searchsorted(starts, ends)
        bounds = np.insert(starts, cut, ends)
        runs = np.diff(bounds, prepend=0).tolist()
        stops = (cut + np.arange(1, k + 1)).tolist()
        count_lists += [runs[a:b] for a, b in zip([0] + stops[:-1], stops)]
    return count_lists


def rle_encode(mask: BinaryMask) -> RleMask:
    return RleMask(mask.height, mask.width, tuple(encode_counts([mask])[0]))


def rle_decode(rle: RleMask) -> BinaryMask:
    return decode_counts([rle.counts], rle.height, rle.width)[0]


def check_same_dims(first: BinaryMask, *rest: BinaryMask) -> tuple:
    """`first`'s (height, width) if every mask has them, else a ValueError."""
    if any(m.height != first.height or m.width != first.width for m in rest):
        raise ValueError("masks must share dimensions")
    return first.height, first.width


def mask_iou(a: BinaryMask, b: BinaryMask) -> float:
    """Exact intersection-over-union via popcounts on the packed words."""
    check_same_dims(a, b)
    inter = int(np.bitwise_count(a.words & b.words).sum(dtype=np.int64))
    union = a.area + b.area - inter
    return inter / union if union else 0.0


@dataclass(frozen=True, eq=False)
class IoUMatrix:
    """Strict upper-triangular pairwise IoU matrix (diagonal and below are zero).

    The check reads the diagonal and lower triangle a `_chunks` slice of
    rows at a time, so it copies no n x n array.

    Ownership: `values` is wrapped, not copied, and made read-only, even
    when it is the caller's own; pass a copy to keep yours writable.
    """

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if (
            not isinstance(v, np.ndarray)
            or v.ndim != 2
            or v.shape[0] != v.shape[1]
            or v.dtype != np.float64
        ):
            raise ValueError("values must be a square float64 matrix")
        if v.size:
            n = v.shape[0]
            for part in _chunks(n, 8 * n):
                if np.any(np.tril(v[part], part.start) != 0.0):
                    raise ValueError("diagonal and lower triangle must be zero")
            # One min and one max, not two comparisons: NaN fails both tests.
            if not (v.min() >= 0.0 and v.max() <= 1.0):
                raise ValueError("IoU entries must lie in [0, 1]")
        v.setflags(write=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def pairwise_iou_matrix(masks: Sequence[BinaryMask]) -> IoUMatrix:
    """All-pairs IoU over a mask list, upper triangle only.

    Each image row is `cols` whole words, and word c of every row forms
    strip c. A pair's intersection is the sum of its per-strip counts, and a
    mask with no bit in a strip skips it.

    Within a strip, a mask's word span runs from its first to its last
    non-zero word, and the masks are visited in order of their first word
    (`lo`). In that order, the masks after k that start at or past k's
    exclusive end `hi` are a suffix, and none of them can meet mask k. So
    row k popcounts only the band of rows between k and that suffix, and
    only over k's span. Each band's counts are added straight into the
    result at (min(a, b), max(a, b)) for masks a and b, so the upper
    triangle gathers every pair's count in whichever order a strip visits
    it. The counts are exact integers and each IoU is one float64 division
    of them, so the matrix equals the all-pairs one bit for bit.

    The result is the only n x n array: one strip's words are held at a
    time, and the band indices, the unions and `IoUMatrix`'s check are built
    a `_chunks` slice of rows at a time.
    """
    n = len(masks)
    out = np.zeros((n, n), dtype=np.float64)
    if n < 2:
        return IoUMatrix(out)
    height, width = check_same_dims(*masks)
    # A strip holds `height` words of a mask, so one pair's count in it is
    # at most 64 * height, which uint32 holds below 2**26 rows.
    if height >= 1 << 26:
        raise ValueError(f"pairwise IoU needs masks under 2**26 rows, got {height}")
    cols = _row_words(width)
    # Counts and areas are integers below 2**53, so float64 holds them, and
    # sums them across strips and forms each union, exactly.
    areas = np.zeros(n, dtype=np.float64)
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
        lo, hi = lo.tolist(), hi.tolist()  # Python ints slice faster
        # Row k's band is rows k+1 ... stop[k]-1. A slice of rows holds at
        # most n counts, and n of each index array, of 8 bytes a row; its
        # counts lie end to end, row k's at s:e.
        for part in _chunks(idx.size - 1, 8 * n):
            first = np.arange(part.start + 1, part.stop + 1)
            sizes = stop[part] - first
            ends = np.cumsum(sizes)
            starts = ends - sizes
            counts = np.empty(ends[-1], dtype=np.uint32)
            for k, s, e in zip(range(part.start, part.stop), starts.tolist(), ends.tolist()):
                span = slice(lo[k], hi[k])
                np.bitwise_count(words[k, span] & words[k + 1 : k + 1 + e - s, span]).sum(
                    axis=1, dtype=np.uint32, out=counts[s:e]
                )
            # A pair meets at most once in a strip, so no index repeats.
            a = np.repeat(idx[part], sizes)
            b = idx[np.arange(ends[-1]) + np.repeat(first - starts, sizes)]
            out[np.minimum(a, b), np.maximum(a, b)] += counts
        del words
    for part in _chunks(n, 8 * n):
        union = areas[part, None] + areas
        union -= out[part]
        np.divide(out[part], union, out=out[part], where=union > 0)
    return IoUMatrix(out)


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


def masks_to_boxes(masks: Sequence[BinaryMask]) -> list:
    """Tight bounding box of each mask's foreground, None for an empty mask.
    The masks must share dimensions.

    A row is occupied when one of its words is non-zero, and the columns
    are the pixels of the OR of a mask's rows, so only that one row is
    unpacked. The masks' words are stacked a few masks at a time."""
    if not masks:
        return []
    h, w = check_same_dims(*masks)
    cols = _row_words(w)
    boxes = []
    for part in _chunks(len(masks), 8 * h * cols):
        words = np.array([m.words for m in masks[part]]).reshape(-1, h, cols)
        ys = words.any(axis=2)
        xs = _unpack_rows(np.bitwise_or.reduce(words, axis=1), 1, w)[:, 0]
        x_min, y_min = xs.argmax(axis=1).tolist(), ys.argmax(axis=1).tolist()
        # The first set pixel from the far end, counted back from that end.
        x_back = xs[:, ::-1].argmax(axis=1).tolist()
        y_back = ys[:, ::-1].argmax(axis=1).tolist()
        boxes += [
            Box(x0, y0, w - 1 - xb, h - 1 - yb) if any_set else None
            for x0, y0, xb, yb, any_set in zip(
                x_min, y_min, x_back, y_back, ys.any(axis=1).tolist()
            )
        ]
    return boxes


def mask_to_box(mask: BinaryMask) -> Box:
    """Tight bounding box of the foreground; raises on an empty mask."""
    (box,) = masks_to_boxes([mask])
    if box is None:
        raise ValueError("empty mask has no bounding box")
    return box


def box_to_mask(box: Box, height: int, width: int) -> BinaryMask:
    """Paint a box as a filled mask on an H x W canvas (ints >= 1)."""
    require_int(height, "height", 1)
    require_int(width, "width", 1)
    if box.x_max >= width or box.y_max >= height:
        raise ValueError("box exceeds canvas")
    arr = np.zeros((height, width), dtype=bool)
    arr[box.y_min : box.y_max + 1, box.x_min : box.x_max + 1] = True
    return BinaryMask.from_array(arr)

