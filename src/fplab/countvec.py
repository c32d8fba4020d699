"""Length-p vectors of exact nonnegative counts indexed by residue class."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConsistencyError


class CountVector:
    """counts[lam] = how many input tuples land on residue lam.

    Backed by an int64 array when every entry fits, by a list of Python
    ints otherwise (outputs of the exact convolution route can exceed
    64 bits). `total` is always an exact Python int.
    """

    __slots__ = ("counts", "p", "total")

    def __init__(self, counts: np.ndarray | Sequence[int], *, expected_total: int | None = None):
        if isinstance(counts, np.ndarray):
            if counts.dtype != np.int64:
                counts = counts.astype(np.int64)
            if counts.size and int(counts.min()) < 0:
                raise ConsistencyError("negative entry in count vector")
            # int64 partial sums can overflow silently; widen when in doubt.
            if counts.size and counts.size * int(counts.max()) >= 1 << 62:
                total = int(sum(int(v) for v in counts))
            else:
                total = int(counts.sum())
        else:
            counts = list(counts)
            if any(v < 0 for v in counts):
                raise ConsistencyError("negative entry in count vector")
            total = sum(counts)
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
        if isinstance(self.counts, np.ndarray):
            return [int(v) for v in self.counts]
        return list(self.counts)

    def sum_of_squares(self) -> int:
        """Exact sum of squared entries (arbitrary precision)."""
        if isinstance(self.counts, np.ndarray):
            vals, reps = np.unique(self.counts, return_counts=True)
            return sum(int(v) * int(v) * int(r) for v, r in zip(vals, reps))
        return sum(v * v for v in self.counts)

    def __repr__(self):
        return f"CountVector(p={self.p}, total={self.total})"


def from_bincount(indices: np.ndarray, p: int, expected_total: int | None = None) -> CountVector:
    """Count vector from a flat array of residue indices."""
    return CountVector(np.bincount(indices, minlength=p).astype(np.int64),
                       expected_total=expected_total)
