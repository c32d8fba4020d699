"""Closed-form bound envelopes and main terms, with every o(1) exponent set to 0.

The asymptotic statements these mirror carry unspecified constants; the
sweep harness therefore reports measured/envelope ratios rather than
asserting the bounds pointwise. Exact-exponent comparisons (H >= p^(2/3)
and the like) are done in integers to avoid float-boundary artifacts.
"""

from __future__ import annotations

from fractions import Fraction
from math import log, prod


def pair_energy_envelope(H: int, M: int, p: int) -> float:
    """Envelope for the product-coincidence count J over {1..H} x M.

    Three regimes split on H vs p^(2/3) and M vs p^(1/3); the leading
    term in the dense regimes is H^2 M^2 / p.
    """
    main = H * H * M * M / p
    if H ** 3 >= p * p:
        return main + H * M
    if M ** 3 >= p:
        return main + H * M ** 1.75 * p ** -0.25 + M * M
    return H * M + M * M


def recip_energy_envelope(H: int, p: int, ell: int) -> float:
    """Envelope for the 2*ell-fold reciprocal-power additive energy."""
    return H ** (2 * ell * ell / (ell + 1)) + H ** (2 * ell) / p


def frac_sum_envelope(H: int, M: int, p: int, ell: int) -> float:
    """Envelope for sum_m |sum_x e_p(a*m*x^(-s))|."""
    inner = p / (M * H ** (2 * ell / (ell + 1))) + 1 / M
    return H * M * inner ** (1 / (2 * ell))


def holder_norm(alpha, ell: int) -> float:
    """l_(ell/(ell-1)) norm of the weights; the sup norm when ell = 1."""
    import numpy as np
    mags = np.abs(np.asarray(alpha, dtype=np.complex128))
    if ell == 1:
        return float(mags.max()) if mags.size else 0.0
    q = ell / (ell - 1)
    return float((mags ** q).sum() ** (1 / q))


def weighted_frac_sum_envelope(alpha, H: int, M: int, p: int, ell: int) -> float:
    """Envelope for the weighted double sum with |beta_x| <= 1."""
    inner = p / (M * H ** (2 * ell / (ell + 1))) + 1 / M
    return holder_norm(alpha, ell) * H * M ** (1 / ell) * inner ** (1 / (2 * ell))


def triple_main_term(j_len: int, k_len: int, M: int, p: int) -> Fraction:
    """Expected value of the triple-product coincidence count R."""
    return Fraction(j_len * j_len * k_len * k_len * M * M, p - 1)


def tk_main_term(masses: list[int], p: int) -> Fraction:
    """Expected value of T_k(lam): (prod of factor masses) / p."""
    return Fraction(prod(masses), p)


def burgess_envelope(k_len: int, p: int) -> float:
    """Initial-interval character-sum envelope K^(1/2) * p^(3/16)."""
    return k_len ** 0.5 * p ** 0.1875


def product_set_branch(H: int, M: int, p: int, epsilon: float) -> str:
    """Which sufficient condition for near-full product sets holds: 'A', 'B', or 'none'.

    A: H >= p^(2/3) and H*M >= p^(1+eps)
    B: H < p^(2/3), M >= p^(1/3) and H*M^(1/4) >= p^(3/4+eps)
    """
    lp = log(p)
    wide = H ** 3 >= p * p
    if wide and log(H) + log(M) >= (1 + epsilon) * lp:
        return "A"
    if not wide and M ** 3 >= p and log(H) + 0.25 * log(M) >= (0.75 + epsilon) * lp:
        return "B"
    return "none"


def tk_hypotheses(H: int, M: int, p: int, epsilon: float) -> tuple[tuple[bool, bool, bool],
                                                                   tuple[float, float, float]]:
    """The three sufficient inequalities for the k-fold asymptotic, with margins.

    Each compares a product of powers of H and M against p^(1+eps); the
    margin is the log-p exponent surplus (positive = holds).
    """
    lh, lm, lp = log(H), log(M), log(p)
    margins = (
        ((24 / 17) * lh + (11 / 17) * lm - (1 + epsilon) * lp) / lp,
        (1.8 * lh + 0.4 * lm - (1 + epsilon) * lp) / lp,
        (1.2 * lh + lm - (1 + epsilon) * lp) / lp,
    )
    flags = tuple(m > 0 for m in margins)
    return flags, margins
