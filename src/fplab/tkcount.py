"""k-fold congruence counts T_k(lam) and their deviation from the main term.

T_k(lam) counts tuples (m_1, x_1, ..., m_k, x_k) with
sum_i m_i * x_i^(-s) = lam mod p; it is the k-fold cyclic convolution of
the per-factor count vectors. Deviations are measured against the exact
rational main term (prod of masses)/p, so no double rounding occurs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import convolve
from .countvec import CountVector
from .energy import count_vector_product
from .envelopes import tk_hypotheses, tk_main_term
from .errors import DomainError
from .modfield import PrimeContext
from .sets import ResidueSet, shifted_interval


@dataclass(frozen=True, eq=False)
class TkReport:
    """Everything one k-fold experiment produced."""

    k: int
    p: int
    H: int
    s: int
    set_sizes: tuple[int, ...]
    shifts: tuple[int, ...]
    epsilon: float
    main_term: Fraction
    counts: CountVector
    max_abs_dev: float
    mean_abs_dev: float
    dev_at: dict[int, float]
    hyp_flags: tuple[bool, bool, bool]
    hyp_margins: tuple[float, float, float]

    @property
    def total(self) -> int:
        return self.counts.total

    @property
    def flag_bits(self) -> str:
        """hyp_flags as a string of 0s and 1s, the report's `flags` cell."""
        return "".join("1" if f else "0" for f in self.hyp_flags)


def _dev_stats(counts: CountVector, p: int,
               sample_lambdas) -> tuple[float, float, dict[int, float]]:
    """max/mean of |T(lam)*p/mass - 1|, mass = counts.total, from exact integer numerators.

    The entries t >= tau = ceil(mass/p) are those with t*p >= mass, so with
    S_a their sum and N_a their number, sum_t |t*p - mass| is
    p*(2*S_a - mass) + mass*(n - 2*N_a): exact for int64 and object
    backing, with no full-length temporary of Python ints.
    """
    c, mass = counts.counts, counts.total
    max_num = max(int(c.max()) * p - mass, mass - int(c.min()) * p)
    above = c >= -(-mass // p)
    s_above = int(c[above].sum(dtype=object))
    sum_num = p * (2 * s_above - mass) + mass * (counts.p - 2 * int(above.sum()))
    max_dev = float(Fraction(max_num, mass))
    mean_dev = float(Fraction(sum_num, mass * p))
    dev_at = {int(lam): float(Fraction(counts[lam] * p - mass, mass))
              for lam in sample_lambdas}
    return max_dev, mean_dev, dev_at


def _factor_counts(factors: list[tuple[ResidueSet, int]], H: int, s: int,
                   ctx: PrimeContext, budget: int | None) -> list[CountVector]:
    """One count vector per (set, shift) factor over the interval shift + {1..H}."""
    vectors = []
    for mset, shift in factors:
        x = shifted_interval(shift, H, ctx, require_denominator_safe=True)
        vectors.append(count_vector_product(x, mset, s, ctx, budget))
    return vectors


def tk_experiment(k: int, factors: list[tuple[ResidueSet, int]], H: int, s: int,
                  ctx: PrimeContext, epsilon: float = 0.05,
                  budget: int | None = None, sample_lambdas=(),
                  allow_unequal: bool = False) -> TkReport:
    """T_k over the given (set, shift) factors, all sharing interval length H."""
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if len(factors) != k:
        raise DomainError(f"expected {k} factors, got {len(factors)}")
    sizes = [mset.M for mset, _ in factors]
    if not allow_unequal and len(set(sizes)) > 1:
        raise DomainError(
            f"factor sets have unequal sizes {sizes}; pass allow_unequal to override")
    # each factor's mass is H * M; no list of factors outlives the convolution,
    # which frees each one once it has gone into a pair product
    main_term = tk_main_term([H * m for m in sizes], ctx.p)
    counts = convolve.k_fold_count(_factor_counts(factors, H, s, ctx, budget), budget=budget)
    max_dev, mean_dev, dev_at = _dev_stats(counts, ctx.p, sample_lambdas)
    flags, margins = tk_hypotheses(H, min(sizes), ctx.p, epsilon)
    return TkReport(
        k=k, p=ctx.p, H=H, s=s, set_sizes=tuple(sizes),
        shifts=tuple(shift for _, shift in factors), epsilon=epsilon,
        main_term=main_term,
        counts=counts, max_abs_dev=max_dev, mean_abs_dev=mean_dev,
        dev_at=dev_at, hyp_flags=flags, hyp_margins=margins)


def tk_spectral_check(k: int, factors: list[tuple[ResidueSet, int]], H: int, s: int,
                      ctx: PrimeContext, sample_lambdas,
                      budget: int | None = None) -> list[float]:
    """|spectral - exact| at each sampled lam.

    The spectral route re-derives every T_k(lam) at once as
    (1/p) * sum_a prod_i F_i(a) * e_p(-a*lam), one inverse transform of the
    product of F_i, the transforms of the factors' count vectors; the
    exact route is the convolution.
    """
    vectors = _factor_counts(factors, H, s, ctx, budget)
    if len(vectors) != k or k < 2:
        raise DomainError("factor list does not match k")
    exact = convolve.k_fold_count(vectors, budget=budget)
    product = np.ones(ctx.p, dtype=np.complex128)
    for v in vectors:
        product *= convolve.length_p_transform(v.counts)
    spectral = np.conj(convolve.length_p_transform(np.conj(product))).real / ctx.p
    return [abs(float(spectral[lam]) - exact[lam]) for lam in sample_lambdas]
