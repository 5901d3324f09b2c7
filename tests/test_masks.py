import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from maskops import (
    BinaryMask,
    Box,
    IoUMatrix,
    RleMask,
    SceneSpec,
    box_to_mask,
    gen_scene,
    mask_iou,
    mask_to_box,
    masks_to_boxes,
    pairwise_iou_matrix,
    rle_decode,
    rle_encode,
)
from maskops import masks as masks_module
from maskops import reference
from maskops.formats import mask_set_from_dict
from maskops.masks import require_int


def random_mask(rng, max_dim=20):
    h = int(rng.integers(1, max_dim + 1))
    w = int(rng.integers(1, max_dim + 1))
    return BinaryMask.from_array(rng.random((h, w)) < rng.uniform(0, 1))


def test_from_array_round_trip():
    arr = np.array([[0, 1, 1], [0, 0, 1]], dtype=bool)
    m = BinaryMask.from_array(arr)
    assert m.height == 2 and m.width == 3
    assert np.array_equal(m.to_array(), arr)
    assert m.area == 3


def test_mask_equality_and_repr():
    a = BinaryMask.from_array([[1, 0], [0, 1]])
    b = BinaryMask.from_array([[1, 0], [0, 1]])
    c = BinaryMask.from_array([[1, 0], [1, 1]])
    assert a == b and a != c
    assert "2x2" in repr(a)


def test_from_array_rejects_bad_shapes():
    with pytest.raises(ValueError):
        BinaryMask.from_array(np.zeros(4))
    with pytest.raises(ValueError):
        BinaryMask.from_array(np.zeros((0, 3)))


def test_words_padding_validated():
    with pytest.raises(ValueError):
        BinaryMask(1, 3, np.array([0xFF], dtype=np.uint64))
    # A list once failed with an AttributeError on `.dtype`.
    for words in ([1], (1,), None):
        with pytest.raises(ValueError, match="uint64 vector"):
            BinaryMask(1, 1, words)


@pytest.mark.parametrize(
    "bits,counts",
    [
        ([[0, 1, 1, 0, 0, 1]], (1, 2, 2, 1)),
        ([[0, 0], [0, 0]], (4,)),
        ([[1, 1], [1, 1]], (0, 4)),
        ([[1]], (0, 1)),
        ([[0]], (1,)),
    ],
)
def test_rle_encode_examples(bits, counts):
    assert rle_encode(BinaryMask.from_array(bits)).counts == counts


def test_rle_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(500):
        m = random_mask(rng)
        rle = rle_encode(m)
        assert sum(rle.counts) == m.height * m.width
        back = rle_decode(rle)
        assert back == m
        assert rle_encode(back) == rle


# Each RleMask rule with its message; `mask_set_from_dict` applies the same
# rules (tests/test_formats.py).
RLE_VALIDATION_CASES = [
    (2, 2, (4, 1), "sum to height"),       # sum exceeds h*w
    (2, 2, (2, 0, 2), "only the leading"),  # interior zero
    (2, 2, (), "non-empty"),                # empty
    (2, 2, (1, -1, 4), "only the leading"),  # negative
    (1, 4, (2.9, 2.0), "integers"),         # floats, once truncated to (2, 2)
    (1, 4, (2.0, 2), "integers"),           # integral float
    (1, 2, (True, 1), "integers"),          # bool
    (1, 4, (np.int64(4),), "integers"),
    (1, 4, (-1, 5), "lie in"),              # negative, and a count past h*w
    (1, 4, (-1,), "only the leading"),      # negative leading count
    (1, 4, (5,), "lie in"),                 # one count past h*w
    (1, 4, (2**70,), "lie in"),             # past int64
    # Four counts of 2**62 wrap an int64 sum back to 4.
    (1, 4, (4, 2**62, 2**62, 2**62, 2**62), "lie in"),
]


@pytest.mark.parametrize(
    "h,w,counts,message",
    RLE_VALIDATION_CASES,
    ids=[f"{h}-{w}-counts{i}" for i, (h, w, _, _) in enumerate(RLE_VALIDATION_CASES)],
)
def test_rle_validation(h, w, counts, message):
    with pytest.raises(ValueError, match=message):
        RleMask(h, w, counts)


@pytest.mark.parametrize("h,w,counts,message", RLE_VALIDATION_CASES)
def test_mask_set_reader_applies_the_rle_rules(h, w, counts, message):
    # A valid mask first, so the bad one is not the set's first.
    instances = [{"counts": [h * w], "score": 0.5}, {"counts": list(counts), "score": 0.5}]
    doc = {"height": h, "width": w, "instances": instances}
    with pytest.raises(ValueError, match=f"malformed mask set: .*{message}"):
        mask_set_from_dict(doc)


def test_rle_decode_peak_memory():
    # A 2048x2048 mask of three runs: decoding sets one toggle bit per run
    # end in the packed words and never expands a pixel to a byte.
    n = 2048 * 2048
    rle = RleMask(2048, 2048, (1000, n - 2000, 1000))
    tracemalloc.start()
    try:
        mask = rle_decode(rle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mask.area == n - 2000
    assert peak < n // 2


def test_decode_counts_applies_the_pixel_cap(monkeypatch):
    # Rows of 64 pixels are one word each. A cap of 256 admits 4 rows (or
    # two 2-row masks); 16 rows, or three 2-row masks, fail before decoding.
    monkeypatch.setattr(masks_module, "MAX_MASK_SET_PIXELS", 256)
    assert rle_decode(RleMask(4, 64, (0, 256))).area == 256
    assert len(masks_module.decode_counts([[128], [128]], 2, 64)) == 2
    with pytest.raises(ValueError, match="1 masks of 16x64 .* exceed 256 pixels"):
        rle_decode(RleMask(16, 64, (1024,)))
    with pytest.raises(ValueError, match="3 masks of 2x64 .* exceed 256 pixels"):
        masks_module.decode_counts([[128]] * 3, 2, 64)


def test_rle_leading_zero_allowed():
    r = RleMask(1, 2, (0, 2))
    assert rle_decode(r).area == 2


def test_iou_identities():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = random_mask(rng, 12)
        b = BinaryMask.from_array(rng.random((a.height, a.width)) < 0.5)
        iab = mask_iou(a, b)
        assert iab == mask_iou(b, a)
        assert 0.0 <= iab <= 1.0
        if a.area:
            assert mask_iou(a, a) == 1.0


def test_iou_of_empty_masks_is_zero():
    e = BinaryMask.from_array(np.zeros((3, 3)))
    assert mask_iou(e, e) == 0.0


def test_iou_dimension_mismatch():
    with pytest.raises(ValueError):
        mask_iou(
            BinaryMask.from_array(np.ones((2, 2))),
            BinaryMask.from_array(np.ones((2, 3))),
        )


def test_pairwise_matches_direct():
    rng = np.random.default_rng(3)
    masks = [
        BinaryMask.from_array(rng.random((15, 9)) < rng.uniform(0, 1))
        for _ in range(30)
    ]
    got = pairwise_iou_matrix(masks)
    assert got.n == 30
    for i in range(30):
        assert np.all(got.values[i, : i + 1] == 0.0)
        for j in range(i + 1, 30):
            assert got.values[i, j] == mask_iou(masks[i], masks[j])


# Dims whose bit count is not a multiple of 64 (1x1, 5x7, 3x130), and wide
# ones (8x256: 32 words) where a mask's word span is narrower than the stack.
_iou_dims = st.sampled_from([(1, 1), (5, 7), (3, 130), (8, 256), (1, 64)]) | (
    st.tuples(st.integers(1, 24), st.integers(1, 24))
)


@st.composite
def _span_mask(draw, h, w):
    """An h x w mask: empty, full, one pixel in the first or last word (the
    last word holds the last row's last (w - 1) % 64 + 1 pixels), one
    row-major run of pixels (runs far apart have disjoint spans), or random."""
    n = h * w
    flat = np.zeros(n, dtype=bool)
    kind = draw(st.sampled_from(["empty", "full", "first", "last", "run", "random"]))
    if kind == "full":
        flat[:] = True
    elif kind == "first":
        flat[draw(st.integers(0, min(63, w - 1)))] = True
    elif kind == "last":
        flat[draw(st.integers(n - 1 - (w - 1) % 64, n - 1))] = True
    elif kind == "run":
        start = draw(st.integers(0, n - 1))
        flat[start : start + draw(st.integers(1, n - start))] = True
    elif kind == "random":
        flat = draw(arrays(bool, n))
    return BinaryMask.from_array(flat.reshape(h, w))


@st.composite
def _iou_stacks(draw):
    h, w = draw(_iou_dims)
    return draw(st.lists(_span_mask(h, w), max_size=12))


@st.composite
def _word_span_stacks(draw):
    """Up to 24 masks whose word spans are new, equal to an earlier mask's,
    nested in it, share its first word, or start on its last word; some are
    empty. A span indexes the mask's h * cols words. Each mask sets every
    `step`-th bit from a pixel in its first word to one in its last, and
    padding bits are then dropped, so its span is exactly the drawn one."""
    h, w = draw(st.sampled_from([(8, 64), (3, 130), (5, 77)]))
    cols = -(-w // 64)
    last_word = h * cols - 1

    def pixels(word):  # the last word of a row holds (w - 1) % 64 + 1 pixels
        return 64 if word % cols < cols - 1 else (w - 1) % 64 + 1

    spans, masks = [], []
    for _ in range(draw(st.integers(0, 24))):
        flat = np.zeros(h * 64 * cols, dtype=bool)
        kind = draw(st.sampled_from(["empty", "new", "equal", "nested", "first", "on_last"]))
        if kind != "empty":
            if kind == "new" or not spans:
                a = draw(st.integers(0, last_word))
                b = draw(st.integers(a, last_word))
            else:
                a, b = draw(st.sampled_from(spans))
                if kind == "nested":
                    a = draw(st.integers(a, b))
                    b = draw(st.integers(a, b))
                elif kind == "first":
                    b = draw(st.integers(a, last_word))
                elif kind == "on_last":
                    a, b = b, draw(st.integers(b, last_word))
            spans.append((a, b))
            start = draw(st.integers(64 * a, 64 * a + pixels(a) - 1))
            end = draw(st.integers(max(start, 64 * b), 64 * b + pixels(b) - 1))
            step = draw(st.integers(1, 5))
            flat[start : end + 1 : step] = True
            flat[end] = True
        masks.append(BinaryMask.from_array(flat.reshape(h, 64 * cols)[:, :w]))
    return masks


@st.composite
def _strip_stacks(draw):
    """Up to 16 masks of h x 64*cols pixels (cols 1-4), so each row is
    `cols` whole words and word c of each row lies in strip c. A mask is
    empty, full, one pixel, a rectangle inside one word column or one
    crossing column boundaries, or a rectangle in an earlier rectangle's
    column that starts on its first row (same first word in that strip) or
    on its last row (starts on its last word there)."""
    h = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 4))
    spans, masks = [], []  # spans: (column, first row, last row)
    for _ in range(draw(st.integers(0, 16))):
        arr = np.zeros((h, 64 * cols), dtype=bool)
        kind = draw(st.sampled_from(
            ["empty", "full", "pixel", "inside", "across", "first", "on_last"]
        ))
        if kind == "full":
            arr[:] = True
        elif kind == "pixel":
            arr[draw(st.integers(0, h - 1)), draw(st.integers(0, 64 * cols - 1))] = True
        elif kind != "empty":
            if kind in ("first", "on_last") and spans:
                c, a, b = draw(st.sampled_from(spans))
                y0 = a if kind == "first" else b
                y1 = draw(st.integers(y0, h - 1))
                c0 = c1 = c
            else:
                y0 = draw(st.integers(0, h - 1))
                y1 = draw(st.integers(y0, h - 1))
                c0 = draw(st.integers(0, cols - 1))
                c1 = c0 if kind == "inside" else draw(st.integers(c0, cols - 1))
            x0 = draw(st.integers(64 * c0, 64 * c0 + 63))
            x1 = draw(st.integers(max(x0, 64 * c1), 64 * c1 + 63))
            arr[y0 : y1 + 1, x0 : x1 + 1] = True
            spans += [(c, y0, y1) for c in range(c0, c1 + 1)]
        masks.append(BinaryMask.from_array(arr))
    return masks


def _rows(h, w, *row_sets):
    """One h x w mask per set of full rows (64-pixel rows are whole words)."""
    out = []
    for rows in row_sets:
        arr = np.zeros((h, w), dtype=bool)
        arr[list(rows)] = True
        out.append(BinaryMask.from_array(arr))
    return out


# Rows 0-1 and row 1: the second mask starts on the first one's last word.
# Rows 2, 0-2 and 1-2: first words 2, 0, 1, so the visiting order is a
# 3-cycle, not its own inverse. At width 128 each pair meets in both strips.
# 256 scratch bytes hold 2 rows of 12 masks' IoUs and 1 row of 24, so the
# band, the unions and `IoUMatrix`'s check each run over many row slices;
# 2**17 is the default.
@settings(deadline=None, max_examples=300)
@given(_iou_stacks() | _word_span_stacks() | _strip_stacks(), st.sampled_from([256, 1 << 17]))
@example(_rows(2, 64, [0, 1], [1]), 1 << 17)
@example(_rows(3, 64, [2], [0, 1, 2], [1, 2]), 1 << 17)
@example(_rows(3, 128, [2], [0, 1, 2], [1, 2]), 256)
def test_pairwise_span_crop_matches_mask_iou(masks, scratch):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(masks_module, "_SCRATCH_BYTES", scratch)
        got = pairwise_iou_matrix(masks).values
    assert got.shape == (len(masks), len(masks))
    for i in range(len(masks)):
        assert np.all(got[i, : i + 1] == 0.0)
        for j in range(i + 1, len(masks)):
            assert got[i, j] == mask_iou(masks[i], masks[j])


@settings(deadline=None)
@given(_iou_dims.flatmap(lambda dims: _span_mask(*dims)))
@example(BinaryMask.from_array([[1]]))
@example(BinaryMask.from_array(np.arange(3 * 130).reshape(3, 130) % 3 == 0))
@example(BinaryMask.from_array(np.arange(8 * 256).reshape(8, 256) % 7 < 3))
def test_rle_round_trip_any_mask(mask):
    rle = rle_encode(mask)
    assert rle_decode(rle) == mask
    assert rle_encode(rle_decode(rle)) == rle


# Each image row is ceil(w / 64) whole words with zero padding bits. Widths
# 1-200 cover one to four words a row; the explicit examples sit on each
# side of one and two whole words. Their masks have every third pixel set,
# so some rows end in foreground.
_EDGE_WIDTHS = (63, 64, 65, 127, 129, 200)


def _at_edge_widths(build):
    """Decorate a property with one explicit example per edge width."""
    def decorate(test):
        for w in _EDGE_WIDTHS:
            test = example(build(np.arange(3 * w).reshape(3, w) % 3 == 0))(test)
        return test
    return decorate


@st.composite
def _row_arrays(draw, max_masks=1):
    """1-`max_masks` boolean arrays of one h x w shape, w in 1-200."""
    h = draw(st.integers(1, 5))
    w = draw(st.sampled_from(_EDGE_WIDTHS) | st.integers(1, 200))
    return draw(st.lists(arrays(bool, (h, w)), min_size=1, max_size=max_masks))


@settings(deadline=None, max_examples=200)
@given(_row_arrays(max_masks=4))
@_at_edge_widths(lambda a: [a, ~a])
def test_array_mask_rle_and_set_reader_round_trip_at_any_width(arrs):
    h, w = arrs[0].shape
    masks = [BinaryMask.from_array(a) for a in arrs]
    counts = []
    for a, m in zip(arrs, masks):
        assert m.words.shape == (h * -(-w // 64),)
        assert np.array_equal(m.to_array(), a) and m.area == a.sum()
        rle = rle_encode(m)
        assert reference.rle_decode_repeat(rle.counts, h, w) == m
        assert rle_decode(rle) == m
        counts.append(list(rle.counts))
    doc = {"height": h, "width": w,
           "instances": [{"counts": c, "score": 0.5} for c in counts]}
    got = [s.mask for s in mask_set_from_dict(doc)]
    assert got == masks
    assert [list(rle_encode(m).counts) for m in got] == counts


@settings(deadline=None, max_examples=200)
@given(_row_arrays(max_masks=6))
@_at_edge_widths(lambda a: [a, np.zeros_like(a), a[:, ::-1]])
def test_masks_to_boxes_matches_reference_at_any_width(arrs):
    masks = [BinaryMask.from_array(a) for a in arrs]
    assert masks_to_boxes(masks) == [reference.mask_box(m) for m in masks]


@settings(deadline=None, max_examples=200)
@given(_row_arrays(max_masks=4).map(np.array))
# Strided (n, h, w) views of an (h, w, n) stack, as assemble_masks packs.
@_at_edge_widths(lambda a: np.stack([a, ~a, a[::-1]], axis=2).transpose(2, 0, 1))
def test_pack_rows_inverts_unpack_rows_at_any_width(bits):
    n, h, w = bits.shape
    block = masks_module._pack_rows(bits)
    assert block.dtype == np.uint64 and block.shape == (n, h * -(-w // 64))
    assert np.array_equal(masks_module._unpack_rows(block, h, w), bits)
    for i in range(n):
        assert np.array_equal(block[i], BinaryMask.from_array(bits[i]).words)


@st.composite
def _count_stacks(draw):
    """An (n, h, w) boolean stack, w in 1-200, whose masks are each random,
    empty, full or random with the first pixel set, and a scratch size: 1
    byte encodes one mask at a time, 48 and 300 a few, 2**17 is the default."""
    n, h = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    w = draw(st.sampled_from(_EDGE_WIDTHS) | st.integers(1, 200))
    bits = draw(arrays(bool, (n, h, w)))
    for i, kind in enumerate(draw(st.lists(st.sampled_from("rzfs"), min_size=n, max_size=n))):
        if kind == "z":
            bits[i] = False
        elif kind == "f":
            bits[i] = True
        elif kind == "s":
            bits[i, 0, 0] = True
    return bits, draw(st.sampled_from([1, 48, 300, 1 << 17]))


@settings(deadline=None, max_examples=300)
@given(_count_stacks())
# The edge-width mask starts with a set pixel; its complement does not.
@_at_edge_widths(lambda a: (np.stack([a, ~a, np.zeros_like(a), np.ones_like(a), a]), 48))
def test_encode_counts_is_the_per_mask_encoder_and_inverts_decode_counts(case):
    bits, scratch = case
    n, h, w = bits.shape
    masks = masks_module.pack_masks(bits)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(masks_module, "_SCRATCH_BYTES", scratch)
        counts = masks_module.encode_counts(masks)
    assert counts == [reference.rle_encode_runs(m) for m in masks]
    assert {type(c) for mask_counts in counts for c in mask_counts} == {int}
    assert masks_module.decode_counts(counts, h, w) == masks


_outer_dims = st.tuples(
    st.integers(1, 9), st.integers(1, 5), st.sampled_from(_EDGE_WIDTHS) | st.integers(1, 200)
)


@settings(deadline=None, max_examples=200)
@given(
    _outer_dims.flatmap(lambda d: st.tuples(arrays(bool, d[:2]), arrays(bool, (d[0], d[2])))),
    st.sampled_from([1, 48, 300, 1 << 17]),
)
def test_pack_outer_packs_the_outer_product_of_row_and_column_tests(tests, scratch):
    rows, cols = tests
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(masks_module, "_SCRATCH_BYTES", scratch)
        got = masks_module.pack_outer(rows, cols)
    assert got == masks_module.pack_masks(rows[:, :, None] & cols[:, None, :])
    for m in got:
        assert not m.words.flags.writeable and not m.words.base.flags.writeable


def test_encode_counts_needs_shared_dims():
    a = BinaryMask.from_array(np.ones((2, 2)))
    b = BinaryMask.from_array(np.ones((2, 3)))
    assert masks_module.encode_counts([]) == []
    with pytest.raises(ValueError, match="share dimensions"):
        masks_module.encode_counts([a, a, b])


def test_check_same_dims_returns_the_shared_dims():
    a = BinaryMask.from_array(np.ones((2, 3)))
    assert masks_module.check_same_dims(a) == (2, 3)
    assert masks_module.check_same_dims(a, BinaryMask.from_array(np.zeros((2, 3)))) == (2, 3)
    for other in (np.ones((3, 2)), np.ones((2, 2))):
        with pytest.raises(ValueError, match="share dimensions"):
            masks_module.check_same_dims(a, a, BinaryMask.from_array(other))


def _slices_of(n, step):
    """range(n) cut every `step` items, as lists of indices."""
    return [list(range(n))[top : top + step] for top in range(0, n, step)]


# Each mask loop passes the bytes it bounds per mask of h x w: the packed
# words (8 h cols), the encoder's unpacked pixels (64 h cols) or an
# ellipse's float64 pixels (8 h w). Each partition must stay the one that
# `max(1, _SCRATCH_BYTES // (8 * n_words))` masks a chunk gave, with
# n_words = h cols, 8 h cols and h w.
@settings(deadline=None, max_examples=300)
@given(st.integers(0, 2000), st.integers(1, 1 << 18), st.integers(1, 400), st.integers(1, 700))
def test_chunks_cut_range_n_by_the_scratch_budget(n, item_bytes, h, w):
    scratch = masks_module._SCRATCH_BYTES
    chunks = masks_module._chunks(n, item_bytes)
    assert [list(range(n)[s]) for s in chunks] == _slices_of(
        n, max(1, scratch // item_bytes)
    )
    bounds = [0] + [s.stop for s in chunks]
    assert [s.start for s in chunks] == bounds[:-1] and bounds[-1] == n
    assert all(s.step is None for s in chunks)
    cols = -(-w // 64)
    units = ((8 * h * cols, h * cols), (64 * h * cols, 8 * h * cols), (8 * h * w, h * w))
    for unit, n_words in units:
        got = [list(range(n)[s]) for s in masks_module._chunks(n, unit)]
        assert got == _slices_of(n, max(1, scratch // (8 * n_words)))


# 45 masks of 200x336 (6 words a row) decode 13 to a 128 KiB chunk of
# words, so in blocks of 13, 13, 13 and 6; 45 of 37x100 fit in one.
@pytest.mark.parametrize("h,w,sizes", [(200, 336, [13, 13, 13, 6]), (37, 100, [45])])
def test_decoded_masks_are_read_only_rows_of_one_block_per_chunk(h, w, sizes):
    spec = SceneSpec(height=h, width=w, num_instances=9, num_duplicates_per_instance=4,
                     shape="ellipse")
    want = [m.mask for m in gen_scene(spec)]
    got = masks_module.decode_counts(masks_module.encode_counts(want), h, w)
    assert got == want
    blocks = []  # each block with the index of its first mask
    for i, m in enumerate(got):
        if not blocks or m.words.base is not blocks[-1][1]:
            blocks.append((i, m.words.base))
    assert [len(block) for _, block in blocks] == sizes
    assert len({id(block) for _, block in blocks}) == len(sizes)
    for first, block in blocks:
        assert block.dtype == np.uint64 and block.shape[1] == h * -(-w // 64)
        assert not block.flags.writeable
        for j, row in enumerate(block):
            words = got[first + j].words
            assert words.base is block and not words.flags.writeable
            assert words.ctypes.data == row.ctypes.data


@st.composite
def _padding_bits(draw):
    """(h, w, row, bit): a width with padding (not a multiple of 64), and one
    padding bit of one row, indexed in that row's words (`bit` >= w)."""
    h = draw(st.integers(1, 5))
    w = draw(st.integers(1, 200).filter(lambda w: w % 64))
    return h, w, draw(st.integers(0, h - 1)), draw(st.integers(w, 64 * -(-w // 64) - 1))


# The edge widths but 64, which has no padding bits.
@settings(deadline=None)
@given(_padding_bits())
@example((1, 63, 0, 63))
@example((3, 65, 1, 65))
@example((3, 127, 0, 127))
@example((4, 129, 2, 191))
@example((2, 200, 1, 255))
def test_a_padding_bit_in_any_row_is_rejected(case):
    h, w, row, bit = case
    cols = -(-w // 64)
    words = BinaryMask.from_array(np.ones((h, w), dtype=bool)).words.copy()
    words[row * cols + bit // 64] |= np.uint64(1) << np.uint64(bit % 64)
    with pytest.raises(ValueError, match="padding bits"):
        BinaryMask(h, w, words)


@settings(deadline=None)
@given(_iou_stacks())
def test_iou_is_symmetric(masks):
    got = pairwise_iou_matrix(masks).values
    for i, a in enumerate(masks):
        for j in range(i, len(masks)):
            assert mask_iou(a, masks[j]) == mask_iou(masks[j], a)
            if j > i:
                assert got[i, j] == mask_iou(masks[j], a)


def _iou_peak_within_bound(masks):
    """Beside the n x n result, `pairwise_iou_matrix` holds two stacks of
    one strip's words while it reorders the strip, and at most six
    temporaries of `_SCRATCH_BYTES`: the band's counts and index arrays,
    built one slice of rows at a time."""
    n = len(masks)
    tracemalloc.start()
    try:
        pairwise_iou_matrix(masks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    strip = n * masks[0].words.nbytes // masks_module._row_words(masks[0].width)
    return peak < n * n * 8 + 2 * strip + 6 * masks_module._SCRATCH_BYTES


def test_pairwise_iou_peak_memory():
    # The crowd_suppress scene: 125 instances x (1 + 3 duplicates) at
    # 256x256, so 4 strips. Peak 3.88 MB against a bound of 4.83 MB.
    spec = SceneSpec(height=256, width=256, num_instances=125, num_duplicates_per_instance=3)
    assert _iou_peak_within_bound([m.mask for m in gen_scene(spec)])


def test_pairwise_iou_peak_memory_dense():
    # 500 full 256x256 masks, so every strip's band is the whole upper
    # triangle. Peak 4.49 MB against a bound of 4.83 MB; building the band's
    # index arrays in one piece peaks at 9.1 MB.
    full = BinaryMask.from_array(np.ones((256, 256), dtype=bool))
    assert _iou_peak_within_bound([full] * 500)


def test_pairwise_iou_row_limit():
    # Each strip's counts are summed in uint32: one pair's count in a strip
    # is at most 64 bits a row, so masks of 2**26 rows are refused rather
    # than miscounted. A zero-stride word vector stands in for their words.
    def tall(rows):
        return BinaryMask(rows, 64, np.broadcast_to(np.zeros(1, np.uint64), (rows,)))

    with pytest.raises(ValueError, match="under 2\\*\\*26 rows, got 67108864"):
        pairwise_iou_matrix([tall(1 << 26)] * 2)


def test_pairwise_empty_and_single():
    assert pairwise_iou_matrix([]).n == 0
    assert pairwise_iou_matrix([BinaryMask.from_array([[1]])]).n == 1


@pytest.mark.parametrize(
    "cell, value, message",
    [
        ((0, 1), np.nan, r"\[0, 1\]"),
        ((0, 1), -0.5, r"\[0, 1\]"),
        ((0, 1), 1.5, r"\[0, 1\]"),
        ((0, 1), np.inf, r"\[0, 1\]"),
        ((1, 1), np.nan, "lower triangle"),
        ((1, 0), np.nan, "lower triangle"),
        ((1, 0), 0.5, "lower triangle"),
    ],
)
def test_iou_matrix_rejects_bad_entries(cell, value, message):
    values = np.zeros((2, 2))
    values[cell] = value
    with pytest.raises(ValueError, match=message):
        IoUMatrix(values)


def test_iou_matrix_checks_each_row_slice(monkeypatch):
    # 256 scratch bytes make row slices 0-2, 3-5, 6-8 and 9 of a 10 x 10
    # matrix. Any one non-zero or NaN at or below the diagonal is caught,
    # in whichever slice it lies, and any value just above it is not.
    monkeypatch.setattr(masks_module, "_SCRATCH_BYTES", 256)
    assert len(masks_module._chunks(10, 80)) == 4
    for i in range(10):
        for j in range(i + 1):
            for value in (0.5, np.nan):
                values = np.zeros((10, 10))
                values[i, j] = value
                with pytest.raises(ValueError, match="diagonal and lower triangle must be zero"):
                    IoUMatrix(values)
    upper = np.triu(np.full((10, 10), 0.5), 1)
    assert IoUMatrix(upper).n == 10


def test_iou_matrix_accepts_bounds_and_empty():
    assert IoUMatrix(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.25], [0.0, 0.0, 0.0]])).n == 3
    assert IoUMatrix(np.zeros((0, 0))).n == 0
    with pytest.raises(ValueError, match="square float64"):
        IoUMatrix(np.zeros((2, 3)))
    # A nested list once failed with an AttributeError on `.ndim`.
    for values in ([[0.0]], None):
        with pytest.raises(ValueError, match="square float64"):
            IoUMatrix(values)


@pytest.mark.parametrize(
    "pixels,expected",
    [
        ([(1, 1), (2, 3)], Box(1, 1, 3, 2)),
        ([(0, 0)], Box(0, 0, 0, 0)),
    ],
)
def test_mask_to_box(pixels, expected):
    arr = np.zeros((4, 5), dtype=bool)
    for r, c in pixels:
        arr[r, c] = True
    assert mask_to_box(BinaryMask.from_array(arr)) == expected


def test_mask_to_box_full():
    assert mask_to_box(BinaryMask.from_array(np.ones((3, 7)))) == Box(0, 0, 6, 2)


def test_mask_to_box_empty_raises():
    with pytest.raises(ValueError):
        mask_to_box(BinaryMask.from_array(np.zeros((2, 2))))


# A scratch of 1 byte boxes one mask at a time; 2**17 is the default.
@settings(deadline=None, max_examples=200)
@given(_iou_stacks() | _strip_stacks(), st.sampled_from([1, 300, 1 << 17]))
def test_masks_to_boxes_matches_the_pixels(masks, scratch):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(masks_module, "_SCRATCH_BYTES", scratch)
        got = masks_to_boxes(masks)
    want = [reference.mask_box(m) for m in masks]
    assert got == want
    assert [box is None for box in got] == [m.area == 0 for m in masks]
    for m, box in zip(masks, got):
        if box is not None:
            assert mask_to_box(m) == box


def test_masks_to_boxes_needs_shared_dims():
    a = BinaryMask.from_array(np.ones((2, 2)))
    b = BinaryMask.from_array(np.ones((2, 3)))
    assert masks_to_boxes([]) == []
    with pytest.raises(ValueError, match="share dimensions"):
        masks_to_boxes([a, b])


def test_box_paint_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x0, y0 = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        box = Box(x0, y0, x0 + int(rng.integers(0, 5)), y0 + int(rng.integers(0, 5)))
        assert mask_to_box(box_to_mask(box, 12, 12)) == box


def test_box_validation():
    with pytest.raises(ValueError):
        Box(2, 0, 1, 0)
    with pytest.raises(ValueError):
        Box(-1, 0, 1, 1)
    with pytest.raises(ValueError):
        box_to_mask(Box(0, 0, 5, 5), 4, 4)
    # The canvas sides are exact ints >= 1: True once raised TypeError and
    # 0 said "box exceeds canvas".
    for h, w in ((True, 3), (0, 3), (3, 2.0), (3, np.int64(3))):
        with pytest.raises(ValueError, match="must be an int >= 1"):
            box_to_mask(Box(0, 0, 0, 0), h, w)


NOT_EXACT_INTS = [2.5, True, np.int64(2)]


@pytest.mark.parametrize("bad", NOT_EXACT_INTS)
def test_require_int_rejects_non_ints(bad):
    assert require_int(2, "n", 1) == 2
    with pytest.raises(ValueError, match="n must be an int >= 1"):
        require_int(bad, "n", 1)
    with pytest.raises(ValueError, match="got 0"):
        require_int(0, "n", 1)


@pytest.mark.parametrize("bad", NOT_EXACT_INTS)
@pytest.mark.parametrize("field", ["height", "width"])
def test_mask_dims_are_exact_ints(field, bad):
    # A float height once reached rle_decode as a TypeError, and a bool one
    # was written to a mask-set file as JSON true.
    dims = {"height": 2, "width": 2, field: bad}
    with pytest.raises(ValueError, match=field):
        BinaryMask(dims["height"], dims["width"], np.zeros(1, dtype=np.uint64))
    with pytest.raises(ValueError, match=field):
        RleMask(dims["height"], dims["width"], (4,))


@pytest.mark.parametrize("bad", NOT_EXACT_INTS)
@pytest.mark.parametrize("field", ["x_min", "y_min", "x_max", "y_max"])
def test_box_coordinates_are_exact_ints(field, bad):
    coords = {"x_min": 0, "y_min": 0, "x_max": 3, "y_max": 3, field: bad}
    with pytest.raises(ValueError, match=field):
        Box(**coords)
