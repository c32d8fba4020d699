"""Length-p vectors of exact nonnegative counts indexed by residue class."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConsistencyError


class CountVector:
    """counts[lam] = how many input tuples land on residue lam.

    `counts` is always a numpy array: int64 while every entry fits, and
    dtype object, holding Python ints, when entries can pass 2^63 (the
    exact convolution route's output above a coefficient bound of 2^62).
    `total` is always an exact Python int.
    """

    __slots__ = ("counts", "p", "total")

    def __init__(self, counts: np.ndarray | Sequence[int], *, expected_total: int | None = None):
        if not isinstance(counts, np.ndarray):
            try:
                counts = np.array(counts, dtype=np.int64)
            except OverflowError:  # an entry beyond int64
                counts = np.array(counts, dtype=object)
        elif counts.dtype == np.uint64 and counts.size and counts.max() >= 1 << 63:
            counts = counts.astype(object)  # beyond int64: exact, as from a list
        elif counts.dtype != object:
            counts = counts.astype(np.int64, copy=False)
        if counts.size and counts.min() < 0:
            raise ConsistencyError("negative entry in count vector")
        # int64 partial sums can overflow silently; sum Python ints when in doubt.
        exact = counts.dtype == object or (
            counts.size and counts.size * int(counts.max()) >= 1 << 62)
        total = int(counts.sum(dtype=object if exact else np.int64))
        self.counts = counts
        self.p = len(counts)
        self.total = total
        if expected_total is not None and total != expected_total:
            raise ConsistencyError(
                f"count vector mass {total} != expected {expected_total}")

    def __getitem__(self, lam: int) -> int:
        return int(self.counts[lam])

    def __len__(self) -> int:
        return self.p

    def as_list(self) -> list[int]:
        return self.counts.tolist()

    def sum_of_squares(self) -> int:
        """Exact sum of squared entries (arbitrary precision)."""
        vals, reps = np.unique(self.counts, return_counts=True)
        return sum(int(v) * int(v) * int(r) for v, r in zip(vals, reps))

    def __repr__(self):
        return f"CountVector(p={self.p}, total={self.total})"


def from_bincount(indices: np.ndarray, p: int, expected_total: int | None = None) -> CountVector:
    """Count vector from a flat array of residue indices."""
    return CountVector(np.bincount(indices, minlength=p).astype(np.int64),
                       expected_total=expected_total)
