import numpy as np
import pytest

from fplab.countvec import CountVector, from_bincount
from fplab.errors import ConsistencyError


def test_total_and_getitem():
    cv = CountVector(np.array([3, 0, 2], dtype=np.int64))
    assert cv.total == 5 and cv.p == 3
    assert cv[0] == 3 and cv[2] == 2
    assert cv.as_list() == [3, 0, 2]


def test_expected_total_check():
    with pytest.raises(ConsistencyError, match="mass"):
        CountVector(np.array([1, 1], dtype=np.int64), expected_total=3)


def test_rejects_negative():
    with pytest.raises(ConsistencyError):
        CountVector(np.array([1, -1], dtype=np.int64))
    with pytest.raises(ConsistencyError):
        CountVector([1, -1])
    with pytest.raises(ConsistencyError):
        CountVector([1 << 70, -1])


def test_sum_of_squares_exact_beyond_int64():
    big = 1 << 40
    cv = CountVector([big, big, 0])
    assert cv.sum_of_squares() == 2 * big * big  # 2^81: exact
    arr = CountVector(np.full(7, 1 << 30, dtype=np.int64))
    assert arr.sum_of_squares() == 7 * (1 << 60)


def test_python_int_backing():
    cv = CountVector([1 << 70, 2])
    assert cv.counts.dtype == object
    assert cv.total == (1 << 70) + 2
    assert cv[0] == 1 << 70
    small = CountVector([3, 2])
    assert small.counts.dtype == np.int64
    for v in (cv, small):
        assert all(type(t) is int for t in v.as_list())
    # numpy alone would read [2^63, 1] as float64; the entries must stay exact ints
    edge = CountVector([1 << 63, 1])
    assert edge.counts.dtype == object and edge.total == (1 << 63) + 1


def test_uint64_beyond_int64_is_held_exactly():
    # a cast to int64 would wrap 2^63 to a negative entry
    big = CountVector(np.array([1 << 63, 1], dtype=np.uint64))
    assert big.counts.dtype == object and big.as_list() == [1 << 63, 1]
    assert big.total == (1 << 63) + 1
    assert type(big[0]) is int
    top = CountVector(np.array([(1 << 64) - 1, 0, 5], dtype=np.uint64), expected_total=(1 << 64) + 4)
    assert top.as_list() == [(1 << 64) - 1, 0, 5]
    small = CountVector(np.array([(1 << 63) - 1, 2], dtype=np.uint64))
    assert small.counts.dtype == np.int64 and small.as_list() == [(1 << 63) - 1, 2]
    assert CountVector(np.array([], dtype=np.uint64)).total == 0


def test_from_bincount():
    cv = from_bincount(np.array([0, 2, 2, 4]), 5, expected_total=4)
    assert cv.as_list() == [1, 0, 2, 0, 1]
