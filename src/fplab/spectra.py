"""Additive and multiplicative character sums.

Complete-sum tables W[c] = sum_x e_p(c * x^(-s)) come from one
prime-length Fourier transform of the reciprocal-power count vector.
Character spectra S[t] = sum_u chi_t(u) are the length-(p-1) transform of
the dlog-reindexed indicator v. Since v is real and p-1 is even, that
transform is one complex FFT of half length M = (p-1)/2: v is packed as
z[j] = v[2j] + i*v[2j+1], and the spectra of its even and odd halves are
untangled from Z = fft(z) by the conjugate symmetry of a real input.
Entries that are integers by symmetry (the c = 0 / principal-character
slots, and the full-group spectrum) are snapped to their exact values
after the float transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convolve import length_p_transform
from .energy import recip_power_counts
from .envelopes import frac_sum_envelope, weighted_frac_sum_envelope
from .errors import DomainError
from .modfield import PrimeContext, recip_power_values
from .sets import Interval, ResidueSet, initial_interval

_BETA_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class CompleteSumTable:
    """W[c] = sum over x in X of e_p(c * x^(-s)), for every multiplier c."""

    W: np.ndarray
    p: int
    H: int
    L: int
    s: int


@dataclass(frozen=True, eq=False)
class CharSpectrum:
    """S[t] = sum over u in U of chi_t(u), characters indexed by exponent t."""

    S: np.ndarray
    p: int
    set_size: int


@dataclass(frozen=True)
class FracSumResult:
    """Absolute-value fractional sum with its envelope (o(1) = 0)."""

    value: float
    envelope: float
    trivial_bound: float
    ell: int


@dataclass(frozen=True)
class WeightedFracSumResult:
    value: complex
    envelope: float
    ell: int


def complete_sum_table(interval_x: Interval, s: int, ctx: PrimeContext) -> CompleteSumTable:
    """All p complete sums at once: the transform of the x^(-s) fiber counts."""
    u = recip_power_counts(interval_x, s, ctx)
    w = length_p_transform(u.counts)
    w[0] = complex(interval_x.H)  # exact: all phases are 1 at c = 0
    return CompleteSumTable(W=w, p=ctx.p, H=interval_x.H, L=interval_x.L, s=s)


def kloosterman_frac_sum(a: int, mset: ResidueSet, interval_x: Interval, s: int,
                         ctx: PrimeContext, ell: int = 2,
                         table: CompleteSumTable | None = None) -> FracSumResult:
    """S = sum over m of |W[a*m mod p]|, with the ell-parameterized envelope."""
    if ell < 1:
        raise DomainError(f"ell must be >= 1, got {ell}")
    p = ctx.p
    if table is None:
        table = complete_sum_table(interval_x, s, ctx)
    idx = (a % p) * mset.elems % p
    value = float(np.abs(table.W[idx]).sum())
    h, m = interval_x.H, mset.M
    return FracSumResult(value=value,
                         envelope=frac_sum_envelope(h, m, p, ell),
                         trivial_bound=float(h * m), ell=ell)


def weighted_frac_sum(alpha, beta, a: int, mset: ResidueSet, interval_x: Interval,
                      s: int, ctx: PrimeContext, ell: int = 2) -> WeightedFracSumResult:
    """sum_m sum_x alpha_m * beta_x * e_p(a*m*x^(-s)), |beta_x| <= 1.

    alpha is indexed by mset.elems order, beta by interval order
    (L+1, ..., L+H).
    """
    p = ctx.p
    alpha = np.asarray(alpha, dtype=np.complex128)
    beta = np.asarray(beta, dtype=np.complex128)
    if alpha.shape != (mset.M,):
        raise DomainError(f"alpha must have one weight per set element ({mset.M})")
    if beta.shape != (interval_x.H,):
        raise DomainError(f"beta must have one weight per interval element ({interval_x.H})")
    bad = np.abs(beta) > 1 + _BETA_SLACK
    if bool(bad.any()):
        raise DomainError(f"|beta| exceeds 1 at position {int(np.argmax(bad))}")
    vals = recip_power_values(interval_x.elements(), s, ctx)
    u = np.zeros(p, dtype=np.complex128)
    np.add.at(u, vals, beta)
    w = length_p_transform(u)
    idx = (a % p) * mset.elems % p
    value = complex(np.dot(alpha, w[idx]))
    return WeightedFracSumResult(
        value=value,
        envelope=weighted_frac_sum_envelope(alpha, interval_x.H, mset.M, p, ell),
        ell=ell)


def char_spectrum(u_set: ResidueSet | Interval, ctx: PrimeContext) -> CharSpectrum:
    """All p-1 character sums of a subset of the multiplicative group.

    S[t] = sum_j v[j] e^(2 pi i t j/(p-1)) = conj(fft(v))[t] for the 0/1
    indicator v of dlog(U). With Z = fft(z) of the packed z[j] = v[2j] +
    i*v[2j+1] at length M = (p-1)/2, the halves' spectra are
    E[k] = (Z[k] + conj Z[-k mod M])/2 and O[k] = (Z[k] - conj Z[-k mod M])/(2i),
    and fft(v)[k] = E[k] + w^k O[k], fft(v)[k+M] = E[k] - w^k O[k] with
    w = e^(-2 pi i/(p-1)). The twiddles are made on every call.
    """
    p = ctx.p
    if isinstance(u_set, Interval):
        if u_set.contains_zero:
            raise DomainError("character sums need 0 not in U")
        elems = u_set.elements()
    else:
        elems = u_set.elems
    n = elems.size
    s = np.zeros(p - 1, dtype=np.complex128)
    if n == p - 1:  # full group: orthogonality is exact
        s[0] = n
        return CharSpectrum(S=s, p=p, set_size=n)
    m = (p - 1) // 2  # PrimeContext refuses p = 2, so p - 1 is even
    z = np.zeros(m, dtype=np.complex128)
    z.view(np.float64)[ctx.dlog[elems]] = 1.0  # z[j] = v[2j] + i*v[2j+1]
    z = np.fft.fft(z)
    zr = np.conj(np.roll(z[::-1], 1))  # conj Z[-k mod M]
    low, high = s[:m], s[m:]
    np.add(z, zr, out=low)  # 2E
    z -= zr  # 2iO
    angle = np.arange(m) * (-2 * np.pi / (p - 1))
    np.cos(angle, out=zr.real)
    np.sin(angle, out=zr.imag)
    zr *= -0.5j  # w^k / (2i)
    z *= zr  # w^k O
    low *= 0.5  # E
    np.subtract(low, z, out=high)
    low += z
    np.conj(s, out=s)
    s[0] = complex(n)  # principal character counts the set exactly
    return CharSpectrum(S=s, p=p, set_size=n)


def burgess_ratio(k_len: int, ctx: PrimeContext) -> float:
    """max over t != 0 of |S_K(chi_t)| / (K^(1/2) * p^(3/16)) for K = {1..k_len}."""
    spec = char_spectrum(initial_interval(k_len, ctx), ctx)
    top = float(np.abs(spec.S[1:]).max()) if ctx.p > 2 else 0.0
    return top / (k_len ** 0.5 * ctx.p ** 0.1875)
