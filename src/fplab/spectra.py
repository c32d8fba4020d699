"""Additive and multiplicative character sums.

Complete-sum tables W[c] = sum_x e_p(c * x^(-s)) come from one
prime-length Fourier transform of the reciprocal-power count vector.
Character spectra S[t] = sum_u chi_t(u) are the length-(p-1) transform of
the dlog-reindexed indicator v. Since v is real and p-1 is even, that
transform is one complex FFT of half length M = (p-1)/2: v is packed as
z[j] = v[2j] + i*v[2j+1], and the spectra of its even and odd halves are
untangled from Z = fft(z) by the conjugate symmetry of a real input.
The FFT runs in place in z, split by one Cooley-Tukey step at the largest
prime factor q of M (_split_fft), so that where q is large numpy runs
Bluestein's algorithm on rows of length q, not on the whole length M. The
upper half of the output array is the scratch: it holds the split's
twiddles and its read-out of Z, then the mirror conj Z[-k mod M] and the
untangle's twiddles until it is written, so a call holds its output, z
and one float array of M angles.
Entries that are integers by symmetry (the c = 0 / principal-character
slots, and the full-group spectrum) are snapped to their exact values
after the float transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convolve import length_p_transform
from .energy import recip_power_counts
from .envelopes import burgess_envelope, frac_sum_envelope
from .errors import integer
from .modfield import PrimeContext, prime_factors
from .sets import Interval, ResidueSet, initial_interval, require_modulus


@dataclass(frozen=True, eq=False)
class CompleteSumTable:
    """W[c] = sum over x in X of e_p(c * x^(-s)), for every multiplier c."""

    W: np.ndarray


@dataclass(frozen=True, eq=False)
class CharSpectrum:
    """S[t] = sum over u in U of chi_t(u), characters indexed by exponent t."""

    S: np.ndarray


@dataclass(frozen=True)
class FracSumResult:
    """Absolute-value fractional sum with its envelope (o(1) = 0)."""

    value: float
    envelope: float
    trivial_bound: float


def complete_sum_table(interval_x: Interval, s: int, ctx: PrimeContext) -> CompleteSumTable:
    """All p complete sums at once: the transform of the x^(-s) fiber counts."""
    u = recip_power_counts(interval_x, s, ctx)
    w = length_p_transform(u.counts)  # W[0] is u's mass, checked to be H
    return CompleteSumTable(W=w)


def kloosterman_frac_sum(a: int, mset: ResidueSet, interval_x: Interval, s: int,
                         ctx: PrimeContext, ell: int = 2) -> FracSumResult:
    """S = sum over m of |W[a*m mod p]|, with the ell-parameterized envelope."""
    ell = integer("ell", ell, low=1)
    a = integer("a", a)
    require_modulus(ctx, mset, interval_x)
    p = ctx.p
    table = complete_sum_table(interval_x, s, ctx)
    idx = (a % p) * mset.elems % p
    value = float(np.abs(table.W[idx]).sum())
    h, m = interval_x.H, mset.M
    return FracSumResult(value=value,
                         envelope=frac_sum_envelope(h, m, p, ell),
                         trivial_bound=float(h * m))


def _split_fft(z: np.ndarray, scratch: np.ndarray) -> None:
    """z = fft(z) in place; scratch is overwritten (M = z.size entries).

    With q the largest prime factor of M and r = M/q, z is read as r rows
    of q: length-r DFTs down the columns, row k1 times e^(-2 pi i k1*n2/M),
    length-q DFTs along the rows, and Z[k1 + r*k2] = a[k1, k2] read back
    through scratch. The angles k1*n2 <= (r-1)(q-1) < M < 2^53 are exact
    integers. A prime M (r = 1) is one length-M FFT. Past 64 rows, q <= M/64
    and the row transforms run in one call.
    """
    m = z.size
    q = max(prime_factors(m), default=1)
    r = m // q
    rows = z.reshape(r, q)
    np.fft.fft(rows, axis=0, out=rows)
    twiddle = scratch.reshape(r, q)
    angle = twiddle.real
    np.multiply.outer(np.arange(r, dtype=np.float64), np.arange(q, dtype=np.float64), out=angle)
    angle *= -2 * np.pi / m
    np.sin(angle, out=twiddle.imag)
    np.cos(angle, out=angle)
    rows *= twiddle
    # numpy's FFT of several rows in one call holds a second Bluestein work
    # buffer (+15 MB at q = 166667): up to 64 rows, each row is one call
    for block in rows if r <= 64 else (rows,):
        np.fft.fft(block, out=block)
    scratch.reshape(q, r)[...] = rows.T
    z[...] = scratch


def char_spectrum(u_set: ResidueSet | Interval, ctx: PrimeContext) -> CharSpectrum:
    """All p-1 character sums of a subset of the multiplicative group.

    S[t] = sum_j v[j] e^(2 pi i t j/(p-1)) = conj(fft(v))[t] for the 0/1
    indicator v of dlog(U). With Z = fft(z) of the packed z[j] = v[2j] +
    i*v[2j+1] at length M = (p-1)/2, the halves' spectra are
    E[k] = (Z[k] + conj Z[-k mod M])/2 and O[k] = (Z[k] - conj Z[-k mod M])/(2i),
    and fft(v)[k] = E[k] + w^k O[k], fft(v)[k+M] = E[k] - w^k O[k] with
    w = e^(-2 pi i/(p-1)). The twiddles are made on every call.
    """
    require_modulus(ctx, u_set)
    p = ctx.p
    elems = u_set.units() if isinstance(u_set, Interval) else u_set.elems
    n = elems.size
    s = np.zeros(p - 1, dtype=np.complex128)
    if n == p - 1:  # full group: orthogonality is exact
        s[0] = n
        return CharSpectrum(S=s)
    m = (p - 1) // 2  # PrimeContext refuses p = 2, so p - 1 is even
    z = np.zeros(m, dtype=np.complex128)
    z.view(np.float64)[ctx.dlog[elems]] = 1.0  # z[j] = v[2j] + i*v[2j+1]
    low, high = s[:m], s[m:]
    _split_fft(z, high)
    np.conj(z[:0:-1], out=high[1:])  # high is scratch: conj Z[-k mod M]
    high[0] = np.conj(z[0])
    np.add(z, high, out=low)  # 2E
    z -= high  # 2iO
    angle = np.arange(m, dtype=np.float64)
    angle *= -2 * np.pi / (p - 1)
    np.cos(angle, out=high.real)
    np.sin(angle, out=high.imag)
    high *= -0.5j  # w^k / (2i)
    z *= high  # w^k O
    low *= 0.5  # E
    np.subtract(low, z, out=high)
    low += z
    np.conj(s, out=s)
    s[0] = complex(n)  # principal character counts the set exactly
    return CharSpectrum(S=s)


def burgess_ratio(k_len: int, ctx: PrimeContext) -> float:
    """max over t != 0 of |S_K(chi_t)| / (K^(1/2) * p^(3/16)) for K = {1..k_len}."""
    spec = char_spectrum(initial_interval(k_len, ctx), ctx)
    top = float(np.abs(spec.S[1:]).max())
    return top / burgess_envelope(k_len, ctx.p)
