"""Closed-form bound envelopes and main terms, with every o(1) exponent set to 0.

The asymptotic statements these mirror carry unspecified constants; the
sweep harness therefore reports measured/envelope ratios rather than
asserting the bounds pointwise. Exact-exponent comparisons (H >= p^(2/3)
and the like) are done in integers to avoid float-boundary artifacts.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, log

from .errors import DomainError


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
    """Envelope for the 2*ell-fold reciprocal-power additive energy.

    DomainError when it exceeds the float range.
    """
    try:
        envelope = H ** (2 * ell * ell / (ell + 1)) + H ** (2 * ell) / p
    except OverflowError:
        envelope = inf
    if envelope == inf:
        raise DomainError(f"recip energy envelope exceeds the float range at H={H} and ell={ell}")
    return envelope


def value_ratio(value: int | float, envelope: float) -> float:
    """value / envelope; DomainError when the value exceeds the float range."""
    try:
        return value / envelope
    except OverflowError:
        raise DomainError("measured value exceeds the float range") from None


def frac_sum_envelope(H: int, M: int, p: int, ell: int) -> float:
    """Envelope for sum_m |sum_x e_p(a*m*x^(-s))|."""
    inner = p / (M * H ** (2 * ell / (ell + 1))) + 1 / M
    return H * M * inner ** (1 / (2 * ell))


def triple_main_term(j_len: int, k_len: int, M: int, p: int) -> Fraction:
    """Expected value of the triple-product coincidence count R."""
    return Fraction(j_len * j_len * k_len * k_len * M * M, p - 1)


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
