"""Length-p vectors of exact nonnegative counts indexed by residue class."""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError


class CountVector:
    """counts[lam] = how many input tuples land on residue lam.

    `counts` is what the library builds: an int64 array while every entry
    fits, and an array of dtype object, holding Python ints, when entries
    can pass 2^63 (the exact convolution route's output above a
    coefficient bound of 2^62). `total` is always an exact Python int.
    Anything else, like a list, another dtype, a float entry or a negative
    entry, raises ConsistencyError.
    """

    __slots__ = ("counts", "p", "total")

    def __init__(self, counts: np.ndarray, *, expected_total: int | None = None):
        kind = counts.dtype if isinstance(counts, np.ndarray) else type(counts).__name__
        if kind not in (np.int64, object):
            raise ConsistencyError(
                f"count vector entries must be integers in an int64 or object array, got {kind}")
        try:
            negative = counts.size and counts.min() < 0
        except TypeError:  # an object entry that is not a real number: complex, None, str
            raise ConsistencyError("count vector entries must be integers") from None
        if negative:
            raise ConsistencyError("negative entry in count vector")
        # int64 partial sums can overflow silently; sum Python ints when in doubt.
        exact = kind == object or (counts.size and counts.size * int(counts.max()) >= 1 << 62)
        total = counts.sum(dtype=object if exact else np.int64)
        # a sum of Python numbers is an integer only when every entry is one
        if not isinstance(total, (int, np.integer)):
            raise ConsistencyError("count vector entries must be integers")
        self.counts, self.p, self.total = counts, len(counts), int(total)
        if expected_total is not None and self.total != expected_total:
            raise ConsistencyError(
                f"count vector mass {self.total} != expected {expected_total}")

    def __getitem__(self, lam: int) -> int:
        return int(self.counts[lam])

    def __len__(self) -> int:
        return self.p

    def as_list(self) -> list[int]:
        return self.counts.tolist()

    def sum_of_squares(self) -> int:
        """Exact sum of squared entries (arbitrary precision)."""
        if self.counts.dtype == object:
            return int(np.dot(self.counts, self.counts))  # Python ints: exact
        return sum_of_squares(self.counts)

    def __repr__(self):
        return f"CountVector(p={self.p}, total={self.total})"


def sum_of_squares(x: np.ndarray) -> int:
    """Exact sum of x^2 over a nonnegative int64 array.

    One int64 dot when max^2 * n < 2^63, where no partial sum can
    overflow. Otherwise the exact path: _exact_dot halves the entries'
    bits until each of its int64 dots is below that limit.
    """
    if x.size == 0:
        return 0
    top = int(x.max())
    if top * top * x.size < 1 << 63:
        return int(np.dot(x, x))
    return _exact_dot(x, x, top, top)


def _exact_dot(x: np.ndarray, y: np.ndarray, x_max: int, y_max: int) -> int:
    """Exact <x, y> of nonnegative int64 arrays whose maxima are at most x_max, y_max.

    The factor with the larger maximum is split as hi * 2^w + lo, w half
    its bits, until max(x) * max(y) * n < 2^63 holds for every dot.
    """
    if x_max * y_max * x.size < 1 << 63:
        return int(np.dot(x, y))
    if x_max < y_max:
        x, y, x_max, y_max = y, x, y_max, x_max
    w = x_max.bit_length() // 2
    return ((_exact_dot(x >> w, y, x_max >> w, y_max) << w)
            + _exact_dot(x & ((1 << w) - 1), y, (1 << w) - 1, y_max))


def from_bincount(indices: np.ndarray, p: int, expected_total: int | None = None) -> CountVector:
    """Count vector from a flat array of residue indices."""
    return CountVector(np.bincount(indices, minlength=p), expected_total=expected_total)
