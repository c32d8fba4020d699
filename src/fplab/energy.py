"""Pair-coincidence counts: multiplicative energies and reciprocal-power
additive energies.

Every quantity here is an exact integer, computed as a sum of squared
entries of a count vector instead of enumerating pairs of pairs
(O((H*M)^2)). Product maps m * x^(-s) are additive over Z_{p-1} once
every unit is replaced by its discrete log, dlog(m * x^(-s)) =
dlog(m) - s * dlog(x), so product count vectors are convolutions of
dlog-indexed count vectors (the identity behind
J = (1/(p-1)) sum_chi |S_H(chi)|^2 |S_M(chi)|^2).
"""

from __future__ import annotations

import numpy as np

from . import convolve
from .countvec import CountVector, from_bincount
from .errors import DomainError, integer
from .modfield import PrimeContext, recip_power_values
from .sets import Interval, ResidueSet, require_modulus, shifted_interval


def dlog_counts(units: np.ndarray, scale: int, ctx: PrimeContext) -> CountVector:
    """Count vector over Z_{p-1} of scale * dlog(u): the units u^scale, dlog-indexed."""
    n = ctx.p - 1
    return from_bincount(ctx.dlog[units].astype(np.int64) * (scale % n) % n, n)


def dlog_convolution(factors: list[tuple[np.ndarray, int]], ctx: PrimeContext,
                     budget: int | None) -> CountVector:
    """The convolution over Z_{p-1} of dlog_counts(units, scale) for each factor.

    Planned from the factor sizes before the dlog table or any count vector
    is built, so a refused call allocates nothing of length p; k_fold_count
    then plans the same masses again and runs its plan.
    """
    convolve.plan_convolution(ctx.p - 1, [len(units) for units, _ in factors], budget)
    return convolve.k_fold_count([dlog_counts(units, scale, ctx) for units, scale in factors],
                                 budget=budget)


def residue_order(values: np.ndarray, ctx: PrimeContext) -> np.ndarray:
    """A dlog-indexed array gathered back to residues: entry u is values[dlog(u)], entry 0 is 0."""
    out = np.zeros(ctx.p, dtype=values.dtype)
    out[1:] = values[ctx.dlog[1:]]
    return out


def _dlog_product(interval: Interval, mset: ResidueSet, s: int, ctx: PrimeContext,
                  budget: int | None) -> CountVector:
    """The count vector of m * x^(-s) over M x X, dlog-indexed over Z_{p-1}."""
    units = interval.units()
    require_modulus(ctx, mset, interval)
    s = integer("s", s)
    if s == 0:
        raise DomainError("exponent s must be nonzero")
    return dlog_convolution([(mset.elems, 1), (units, -s)], ctx, budget)


def count_vector_product(interval: Interval, mset: ResidueSet, s: int,
                         ctx: PrimeContext, budget: int | None = None) -> CountVector:
    """counts[lam] = #{(m, x) in M x X : m * x^(-s) = lam mod p}.

    Needs p <= MAX_DLOG_PRIME (2^26) for the dlog table.
    """
    conv = _dlog_product(interval, mset, s, ctx, budget)
    return CountVector(residue_order(conv.counts, ctx), expected_total=interval.H * mset.M)


def energy_J(interval: Interval, mset: ResidueSet, ctx: PrimeContext,
             budget: int | None = None) -> int:
    """Coincidences h1*m1 = h2*m2 mod p over an initial interval and a set.

    The sum of squares of the dlog-indexed product counts: a permutation
    of count_vector_product's, whose one other entry (residue 0) is 0.
    """
    if interval.L != 0:
        raise DomainError("initial-interval energy requires L = 0 (use energy_Js for shifts)")
    return _dlog_product(interval, mset, -1, ctx, budget).sum_of_squares()


def energy_Js(L: int, interval: Interval, mset: ResidueSet, s: int,
              ctx: PrimeContext, budget: int | None = None) -> int:
    """Coincidences m1*x1^(-s) = m2*x2^(-s) over the shifted interval L + {1..H}."""
    if interval.L != 0:
        raise DomainError("pass the base interval {1..H}; the shift goes in L")
    x = shifted_interval(L, interval.H, ctx)
    return _dlog_product(x, mset, s, ctx, budget).sum_of_squares()


def triple_R(j_len: int, k_len: int, mset: ResidueSet, ctx: PrimeContext,
             budget: int | None = None) -> int:
    """Coincidences j1*k1*m1 = j2*k2*m2 mod p (two initial intervals, one set).

    The sum of squares of counts[lam] = #{(j,k,m): j*k*m = lam mod p}, a
    product of two 2-fold convolutions, j*k first and then times the set.
    The planner prices and gates each one on its own, and j*k, with at
    most j_len*k_len support pairs, takes the support-pair route when the
    intervals are short.
    """
    j_len, k_len = integer("j_len", j_len), integer("k_len", k_len)
    if not (1 <= j_len <= ctx.p - 1 and 1 <= k_len <= ctx.p - 1):
        raise DomainError("interval lengths must lie in 1..p-1")
    jk = dlog_convolution([(np.arange(1, j_len + 1), 1), (np.arange(1, k_len + 1), 1)],
                          ctx, budget)
    conv = convolve.k_fold_count([jk, dlog_counts(mset.elems, 1, ctx)], budget=budget)
    return conv.sum_of_squares()  # dlog order: a permutation of the residue-order counts


def recip_power_counts(interval: Interval, s: int, ctx: PrimeContext) -> CountVector:
    """u[lam] = #{x in X : x^(-s) = lam mod p} (fiber sizes of the power map)."""
    require_modulus(ctx, interval)
    vals = recip_power_values(interval.units(), s, ctx)
    return from_bincount(vals, ctx.p, expected_total=interval.H)


def additive_energy_recip(interval_x: Interval, s: int, ell: int,
                          ctx: PrimeContext, budget: int | None = None) -> int:
    """Solutions of x1^(-s)+...+xl^(-s) = x(l+1)^(-s)+...+x(2l)^(-s) over X^(2l)."""
    ell = integer("ell", ell, low=1)
    u = recip_power_counts(interval_x, s, ctx)
    if ell == 1:
        return u.sum_of_squares()
    w = convolve.k_fold_count([u] * ell, budget=budget)
    return w.sum_of_squares()
