import warnings

import numpy as np
import pytest

from fplab.countvec import CountVector, from_bincount, sum_of_squares
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
        CountVector(np.array([1, -1], dtype=object))
    with pytest.raises(ConsistencyError):
        CountVector(np.array([1 << 70, -1], dtype=object))


@pytest.mark.parametrize("counts", [
    np.array([0.5, 1.7, 2.9]), np.array([1.9, 2.2], dtype=object), np.array([1.0, -0.5]),
    np.array([1 << 70, 0.5], dtype=object),
    np.array([1 + 0j, 2]), np.array([3, 0.5], dtype=object), np.array([True, False]),
    np.array([1j, 2], dtype=object), np.array([None, 2], dtype=object),
    np.array(["a", 2], dtype=object),
], ids=["float-array", "float-list", "negative-float", "big-int-and-float", "complex",
        "object-float", "bool", "object-complex", "object-none", "object-str"])
def test_rejects_entries_that_are_not_integers(counts):
    # each was once truncated to integers, or held as given
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConsistencyError, match="integers"):
            CountVector(counts)


def test_sum_of_squares_exact_beyond_int64():
    big = 1 << 40
    cv = CountVector(np.array([big, big, 0], dtype=np.int64))
    assert cv.sum_of_squares() == 2 * big * big  # 2^81: exact
    arr = CountVector(np.full(7, 1 << 30, dtype=np.int64))
    assert arr.sum_of_squares() == 7 * (1 << 60)


@pytest.mark.parametrize("top, n", [
    (3037000499, 1),       # max^2 * n just below 2^63: one int64 dot
    (3037000500, 1),       # just above: the exact path
    ((1 << 30) - 1, 8),    # 8 * (2^30 - 1)^2 < 2^63
    (1 << 30, 8),          # 8 * 2^60 = 2^63
    ((1 << 62) + 12345, 1000),
])
def test_sum_of_squares_matches_python_ints(top, n):
    rng = np.random.default_rng(top % 1000 + n)
    x = rng.integers(0, top, size=n, endpoint=True)
    x[0] = top
    assert sum_of_squares(x) == sum(v * v for v in x.tolist())
    assert CountVector(x).sum_of_squares() == sum(v * v for v in x.tolist())


def test_python_int_backing():
    cv = CountVector(np.array([1 << 70, 2], dtype=object))
    assert cv.counts.dtype == object
    assert cv.total == (1 << 70) + 2
    assert cv[0] == 1 << 70
    small = CountVector(np.array([3, 2], dtype=np.int64))
    assert small.counts.dtype == np.int64
    for v in (cv, small):
        assert all(type(t) is int for t in v.as_list())
    # past 2^63 the entries stay exact ints
    edge = CountVector(np.array([1 << 63, 1], dtype=object))
    assert edge.counts.dtype == object and edge.total == (1 << 63) + 1


@pytest.mark.parametrize("counts", [
    [3, 0, 2], (3, 0, 2), np.array([3, 0, 2], dtype=np.uint64),
    np.array([3, 0, 2], dtype=np.int32), np.array([1 << 63, 1], dtype=np.uint64),
], ids=["list", "tuple", "uint64", "int32", "uint64-beyond-int64"])
def test_takes_only_what_the_library_builds(counts):
    # an int64 array or an object array of Python ints; a list or another
    # integer dtype was once converted
    with pytest.raises(ConsistencyError, match="int64 or object array"):
        CountVector(counts)


def test_from_bincount():
    cv = from_bincount(np.array([0, 2, 2, 4]), 5, expected_total=4)
    assert cv.as_list() == [1, 0, 2, 0, 1]
