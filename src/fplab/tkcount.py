"""k-fold congruence counts T_k(lam) and their deviation from the main term.

T_k(lam) counts tuples (m_1, x_1, ..., m_k, x_k) with
sum_i m_i * x_i^(-s) = lam mod p; it is the k-fold cyclic convolution of
the per-factor count vectors. Deviations are measured against the exact
rational main term (prod of masses)/p, so no double rounding occurs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import convolve
from .countvec import CountVector
from .energy import count_vector_product
from .envelopes import tk_hypotheses
from .errors import DomainError, check_epsilon, integer
from .modfield import PrimeContext
from .sets import ResidueSet, shifted_interval


@dataclass(frozen=True, eq=False)
class TkReport:
    """Everything one k-fold experiment produced."""

    k: int
    p: int
    H: int
    s: int
    M: int
    epsilon: float
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
    def main_term(self) -> Fraction:
        """The exact expected T_k(lam): the product of the factor masses over p."""
        return Fraction(self.total, self.p)

    @property
    def flag_bits(self) -> str:
        """hyp_flags as a string of 0s and 1s, the report's `flags` cell."""
        return "".join("1" if f else "0" for f in self.hyp_flags)


def _dev_stats(counts: CountVector, p: int,
               lambdas: list[int]) -> tuple[float, float, dict[int, float]]:
    """max/mean of |T(lam)*p/mass - 1|, mass = counts.total, from exact integer numerators.

    dev_at holds the deviation at each residue of `lambdas`.

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
    dev_at = {lam: float(Fraction(counts[lam] * p - mass, mass)) for lam in lambdas}
    return max_dev, mean_dev, dev_at


def _residues(sample_lambdas, p: int) -> list[int]:
    """The sampled lam as residues 0..p-1, so lam and lam + p name one point."""
    return [integer("sample lambda", lam) % p for lam in sample_lambdas]


def _tk_args(k: int, factors: list, H: int) -> tuple[int, int]:
    """k and H as ints, k >= 2, with one factor per k."""
    k, H = integer("k", k, low=2), integer("H", H)
    if len(factors) != k:
        raise DomainError("factor list does not match k")
    return k, H


def check_tk_budget(k: int, H: int, M: int, p: int, budget: int | None) -> None:
    """Refuse T_k over k sets of M elements each, before any set is drawn.

    The convolution is planned for k factors of mass H * M as one array k
    times. The floors depend only on the masses and on which factors are
    one array, and equal factors floor lowest (no later factor is
    transformed), so a request refused here would be refused whatever was
    drawn, while every request the planner admits after the draw is
    admitted here; the chain's meter may still stop it mid-chain. The
    refusal is the planner's ("needs at least" where the floors refuse).
    A k, H or M out of range is left to the DomainErrors of tk_experiment
    and of the set and interval builders.
    """
    if k < 2 or not (0 < H < p and 0 < M < p):
        return
    convolve.plan_convolution(p, [H * M] * k, budget, layout=[0] * k)


def _factor_counts(factors: list[tuple[ResidueSet, int]], H: int, s: int,
                   ctx: PrimeContext, budget: int | None) -> list[CountVector]:
    """The count vector of each (set, shift) factor over the interval shift + {1..H}.

    Factors with equal set contents and equal shifts mod p share one
    vector, so the paper's T_k over one set M and one interval X builds
    one vector, which k_fold_count then transforms once. The k-fold
    convolution of the vectors is planned first, from their masses H * M
    and this sharing, as k_fold_count will plan it: a call whose floors
    pass the budget builds no vector and no dlog table. A call admitted
    here can still be stopped by the chain's meter, after the vectors.
    """
    keys = [(mset.elems.tobytes(), shift % ctx.p) for mset, shift in factors]
    convolve.plan_convolution(ctx.p, [H * mset.M for mset, _ in factors], budget, layout=keys)
    built: dict[tuple[bytes, int], CountVector] = {}
    vectors = []
    for (mset, shift), key in zip(factors, keys):
        if key not in built:
            x = shifted_interval(shift, H, ctx)
            built[key] = count_vector_product(x, mset, s, ctx, budget)
        vectors.append(built[key])
    return vectors


def tk_experiment(k: int, factors: list[tuple[ResidueSet, int]], H: int, s: int,
                  ctx: PrimeContext, epsilon: float = 0.05,
                  budget: int | None = None, sample_lambdas=()) -> TkReport:
    """T_k over the given (set, shift) factors, all sharing interval length H."""
    check_epsilon(epsilon)
    k, H = _tk_args(k, factors, H)
    lambdas = _residues(sample_lambdas, ctx.p)
    sizes = [mset.M for mset, _ in factors]
    if len(set(sizes)) > 1:
        raise DomainError(f"factor sets have unequal sizes {sizes}")
    # no list of factors outlives the convolution, which frees each one after
    # its last step
    counts = convolve.k_fold_count(_factor_counts(factors, H, s, ctx, budget), budget=budget)
    max_dev, mean_dev, dev_at = _dev_stats(counts, ctx.p, lambdas)
    flags, margins = tk_hypotheses(H, sizes[0], ctx.p, epsilon)
    return TkReport(
        k=k, p=ctx.p, H=H, s=s, M=sizes[0], epsilon=epsilon, counts=counts,
        max_abs_dev=max_dev, mean_abs_dev=mean_dev, dev_at=dev_at, hyp_flags=flags, hyp_margins=margins)


def tk_spectral_check(k: int, factors: list[tuple[ResidueSet, int]], H: int, s: int,
                      ctx: PrimeContext, sample_lambdas,
                      budget: int | None = None) -> list[float]:
    """|spectral - exact| at each sampled lam.

    The spectral route re-derives every T_k(lam) at once as
    (1/p) * sum_a prod_i F_i(a) * e_p(-a*lam), one inverse transform of the
    product of F_i, the transforms of the factors' count vectors; the
    exact route is the convolution. Factors that share a count vector
    share its transform, which is made once and multiplied in once per
    factor.
    """
    k, H = _tk_args(k, factors, H)
    lambdas = _residues(sample_lambdas, ctx.p)
    vectors = _factor_counts(factors, H, s, ctx, budget)
    exact = convolve.k_fold_count(vectors, budget=budget)
    product = np.ones(ctx.p, dtype=np.complex128)
    for v, uses in Counter(vectors).items():
        spectrum = convolve.length_p_transform(v.counts)
        for _ in range(uses):
            product *= spectrum
    spectral = _hermitian_inverse(product) / ctx.p
    return [abs(float(spectral[lam]) - exact[lam]) for lam in lambdas]


def _hermitian_inverse(product: np.ndarray) -> np.ndarray:
    """sum_a P[a] * e_p(-a*lam) at every lam, for P with P[-a] = conj P[a].

    Such a sum is real. With R and I the real and imaginary parts of P,
    R even and I odd, it is sum_a R[a] cos + I[a] sin of 2*pi*a*lam/p,
    which is Re D + Im D for D the transform of the real vector R + I:
    one real-input transform, which convolves only half its rows.
    """
    d = convolve.length_p_transform(product.real + product.imag)
    return d.real + d.imag
