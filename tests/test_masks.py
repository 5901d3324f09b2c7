import tracemalloc

import numpy as np
import pytest

from maskops import (
    BinaryMask,
    Box,
    RleMask,
    box_iou,
    box_to_mask,
    mask_iou,
    mask_to_box,
    pairwise_iou_matrix,
    rle_decode,
    rle_encode,
)


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


@pytest.mark.parametrize(
    "h,w,counts",
    [
        (2, 2, (4, 1)),      # sum exceeds h*w
        (2, 2, (2, 0, 2)),   # interior zero
        (2, 2, ()),          # empty
        (2, 2, (1, -1, 4)),  # negative
        (1, 4, (2.9, 2.0)),  # floats, once truncated to (2, 2)
        (1, 4, (2.0, 2)),    # integral float
        (1, 2, (True, 1)),   # bool
        (1, 4, (np.int64(4),)),
    ],
)
def test_rle_validation(h, w, counts):
    with pytest.raises(ValueError):
        RleMask(h, w, counts)


def test_rle_decode_peak_memory():
    # A 2048x2048 mask of three runs: decoding expands to one byte per pixel
    # before packing to bits, never to an integer per pixel.
    n = 2048 * 2048
    rle = RleMask(2048, 2048, (1000, n - 2000, 1000))
    tracemalloc.start()
    try:
        mask = rle_decode(rle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mask.area == n - 2000
    assert peak < 2 * n


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


def test_pairwise_empty_and_single():
    assert pairwise_iou_matrix([]).n == 0
    assert pairwise_iou_matrix([BinaryMask.from_array([[1]])]).n == 1


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


def test_box_iou_examples():
    a = Box(0, 0, 1, 1)
    assert box_iou(a, a) == 1.0
    assert box_iou(a, Box(5, 5, 6, 6)) == 0.0
    assert box_iou(a, Box(1, 1, 2, 2)) == pytest.approx(1 / 7)


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
