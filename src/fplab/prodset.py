"""Product and ratio sets: exact cardinalities plus hypothesis evaluation.

A product h*m of units is the sum dlog(h) + dlog(m) over Z_{p-1}, so the
product set is the support of one convolution of dlog-indexed count
vectors; a ratio m/h negates dlog(h). Both need p <= MAX_DLOG_PRIME (2^26).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import dlog_convolution, residue_order
from .envelopes import product_set_branch
from .errors import DomainError, ZeroInIntervalError
from .modfield import PrimeContext
from .sets import Interval, ResidueSet

_MISSING_LIST_CAP = 1 << 16


@dataclass(frozen=True)
class ProductSetReport:
    """Cardinality of a product/ratio set and which sufficient condition held."""

    p: int
    H: int
    M: int
    size: int
    missing: int
    hypothesis_branch: str    # "A" | "B" | "none"
    epsilon: float
    missing_residues: tuple[int, ...] | None = None

    def __post_init__(self):
        if not 0 <= self.size <= self.p or self.missing != self.p - self.size:
            raise DomainError("inconsistent product-set report")


def _occupancy(units: np.ndarray, scale: int, mset: ResidueSet, ctx: PrimeContext,
               budget: int | None) -> np.ndarray:
    """Dense table of the residues u^scale * m, from the support of a dlog convolution."""
    return residue_order(dlog_convolution([(units, scale), (mset.elems, 1)], ctx, budget),
                         ctx) > 0


def _report(occ: np.ndarray, interval: Interval, mset: ResidueSet,
            epsilon: float, list_missing: bool) -> ProductSetReport:
    p = interval.p
    size = int(occ.sum())
    missing = None
    if list_missing:
        if p > _MISSING_LIST_CAP:
            raise DomainError(f"missing-residue listing capped at p <= {_MISSING_LIST_CAP}")
        missing = tuple(int(v) for v in np.nonzero(~occ)[0])
    return ProductSetReport(
        p=p, H=interval.H, M=mset.M, size=size, missing=p - size,
        hypothesis_branch=product_set_branch(interval.H, mset.M, p, epsilon),
        epsilon=epsilon, missing_residues=missing)


def product_set(interval: Interval, mset: ResidueSet, ctx: PrimeContext,
                epsilon: float = 0.05, budget: int | None = None,
                list_missing: bool = False) -> ProductSetReport:
    """Exact size of {h*m mod p}; 0 is a product exactly when the interval covers it."""
    if interval.p != ctx.p or mset.p != ctx.p:
        raise DomainError("interval/set modulus does not match context")
    elems = interval.elements()
    occ = _occupancy(elems[elems != 0], 1, mset, ctx, budget)
    occ[0] = interval.contains_zero
    return _report(occ, interval, mset, epsilon, list_missing)


def ratio_set(interval: Interval, mset: ResidueSet, ctx: PrimeContext,
              epsilon: float = 0.05, budget: int | None = None,
              list_missing: bool = False) -> ProductSetReport:
    """Exact size of {m/h mod p}: the product set of the inverted interval."""
    if interval.p != ctx.p or mset.p != ctx.p:
        raise DomainError("interval/set modulus does not match context")
    if interval.contains_zero:
        raise ZeroInIntervalError("ratio set needs a denominator-safe interval (0 not in H)")
    occ = _occupancy(interval.elements(), -1, mset, ctx, budget)
    return _report(occ, interval, mset, epsilon, list_missing)
