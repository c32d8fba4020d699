"""Product and ratio sets: exact cardinalities plus hypothesis evaluation.

A product h*m of units is the sum dlog(h) + dlog(m) over Z_{p-1}, so the
product set is the support of one convolution of dlog-indexed count
vectors, counted in dlog order: dlog is a bijection from the units onto
Z_{p-1}, so no entry is gathered back to residues. A ratio m/h negates
dlog(h). Both need p <= MAX_DLOG_PRIME (2^26).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import dlog_convolution
from .envelopes import product_set_branch
from .errors import check_epsilon
from .modfield import PrimeContext
from .sets import Interval, ResidueSet, require_modulus


@dataclass(frozen=True)
class ProductSetReport:
    """Cardinality of a product/ratio set and which sufficient condition held."""

    p: int
    H: int
    M: int
    size: int
    hypothesis_branch: str    # "A" | "B" | "none"
    epsilon: float

    @property
    def missing(self) -> int:
        """The residues mod p that are not in the set."""
        return self.p - self.size


def _support(units: np.ndarray, scale: int, mset: ResidueSet, ctx: PrimeContext,
             budget: int | None) -> int:
    """The number of distinct u^scale * m: the support of their dlog-indexed counts."""
    conv = dlog_convolution([(units, scale), (mset.elems, 1)], ctx, budget)
    return np.count_nonzero(conv.counts)


def _report(size: int, interval: Interval, mset: ResidueSet,
            epsilon: float) -> ProductSetReport:
    p = interval.p
    return ProductSetReport(
        p=p, H=interval.H, M=mset.M, size=size,
        hypothesis_branch=product_set_branch(interval.H, mset.M, p, epsilon),
        epsilon=epsilon)


def product_set(interval: Interval, mset: ResidueSet, ctx: PrimeContext,
                epsilon: float = 0.05, budget: int | None = None) -> ProductSetReport:
    """Exact size of {h*m mod p}; 0 is a product exactly when the interval covers it."""
    check_epsilon(epsilon)
    require_modulus(ctx, interval, mset)
    elems = interval.elements()
    size = _support(elems[elems != 0], 1, mset, ctx, budget) + interval.contains_zero
    return _report(size, interval, mset, epsilon)


def ratio_set(interval: Interval, mset: ResidueSet, ctx: PrimeContext,
              epsilon: float = 0.05, budget: int | None = None) -> ProductSetReport:
    """Exact size of {m/h mod p}: the product set of the inverted interval."""
    check_epsilon(epsilon)
    require_modulus(ctx, interval, mset)
    return _report(_support(interval.units(), -1, mset, ctx, budget), interval, mset, epsilon)
