"""Exact cyclic convolution over an index group Z_n, and prime-length DFTs.

Additive problems convolve over Z_p; product problems convolve over
Z_{p-1} after reindexing every unit by its discrete log. Three strategies,
each exact for the coefficient bound it is planned with:

  direct  support pairs: every product of two nonzero entries is scattered
          to (i + j) mod n with int64 accumulation; exact below 2^63.
          Chosen when its pair count, weighted by PAIR_COST, undercuts the
          transform work.
  float   power-of-two real FFTs of the zero-padded factors, one inverse,
          fold mod n, round. The worst-case rounding error for a
          coefficient bound B and transform length N is ~ B * eps * c*log2(N)
          with eps = 2^-53, so rounding is certified for B < 2^40 at any
          desk-scale length (error << 0.5); the residual is also checked
          at run time.
  ntt     number-theoretic transforms modulo several ~31-bit primes with
          power-of-two-friendly multiplicative groups, recombined by the
          Chinese remainder theorem. No rounding at all; used whenever the
          bound exceeds the float route's certified capacity.

The prime-length Fourier transform (for complete exponential-sum tables)
uses the chirp factorization c*l = (c^2 + l^2 - (c-l)^2)/2 to reduce a
length-p transform to one power-of-two circular convolution of length
>= 2p-1, or a direct O(p^2) table-lookup product below a small threshold.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Sequence

import numpy as np

from .countvec import CountVector
from .errors import DEFAULT_BUDGET, BudgetError, ConsistencyError, check_budget
from .modfield import find_primitive_root

log = logging.getLogger(__name__)

# Cost of one support pair in transform work units (one unit is one of the
# N*log2(N) steps of a transform). Measured on 2 x86 vCPUs with numpy 2.4 at
# n = 10^4..10^6: 8-16 ns per pair against 0.8-1.4 ns per unit.
PAIR_COST = 10
DIRECT_DFT_THRESHOLD = 128     # transform length at or below: O(n^2) table product
FLOAT_EXACT_BOUND = 1 << 40    # float route certified below this coefficient bound

# 31-bit primes q with large power-of-two factors of q-1; products of any
# four exceed 2^120, which covers every desk-scale coefficient bound.
_NTT_POOL = (2013265921, 1811939329, 469762049, 2113929217, 167772161, 754974721)
_PAIR_BLOCK = 1 << 22          # support pairs scattered per block


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


@dataclass(frozen=True)
class ConvolutionPlan:
    """How a convolution will run: strategy, certified bound, moduli."""

    n: int                         # length of the index group Z_n
    strategy: str                  # "direct" | "float" | "ntt"
    bound: int                     # proven upper bound on any output coefficient
    lin_length: int                # linear-convolution length k*(n-1)+1
    fft_length: int                # power-of-two length used by float/ntt
    moduli: tuple[int, ...] = ()   # ntt primes (empty otherwise)


@lru_cache(maxsize=None)
def _ntt_prime_info(q: int) -> tuple[int, int]:
    """(two-adicity of q-1, primitive root of q)."""
    m = q - 1
    adicity = (m & -m).bit_length() - 1
    return adicity, find_primitive_root(q)


def plan_convolution(n: int, masses: Sequence[int], budget: int | None = None) -> ConvolutionPlan:
    """Select the cheapest exact strategy for a k-fold length-n convolution.

    The coefficient bound is the product of all masses (safe: every output
    entry is at most the total number of tuples); it decides which routes
    are exact. A transform route does about (k+1) * N * log2(N) work per
    modulus; the support-pair route visits at most pair_work pairs, each
    support being capped by its mass and by n, and is chosen when
    PAIR_COST * pair_work is no larger. A route whose own work exceeds the
    budget is passed over; the call is refused only when none fits.
    """
    k = len(masses)
    if k < 1:
        raise BudgetError("no factors to convolve", required=0)
    bound = prod(int(m) for m in masses)
    lin_length = k * (n - 1) + 1
    size = _next_pow2(lin_length)
    transform_work = (k + 1) * size * size.bit_length()
    if bound < FLOAT_EXACT_BOUND:
        transform = ConvolutionPlan(n, "float", bound, lin_length, size)
        what = "float transform convolution"
    else:
        moduli = _select_ntt_moduli(bound, size)
        transform = ConvolutionPlan(n, "ntt", bound, lin_length, size, moduli)
        transform_work *= len(moduli)
        what = "multi-modulus exact convolution"
    limit = DEFAULT_BUDGET if budget is None else budget
    if bound < 1 << 63:  # int64 accumulation is exact
        pair_work = _pair_work(n, masses)
        if pair_work <= limit and (PAIR_COST * pair_work <= transform_work
                                   or transform_work > limit):
            return ConvolutionPlan(n, "direct", bound, lin_length, 0)
        if pair_work < transform_work:  # neither fits: refuse with the smaller need
            check_budget(pair_work, budget, "support-pair convolution")
    check_budget(transform_work, budget, what)
    if transform.strategy == "ntt":
        log.info("convolution bound %d >= 2^40: escalating to exact ntt route "
                 "(%d moduli, length %d)", bound, len(transform.moduli), size)
    return transform


def _pair_work(n: int, masses: Sequence[int]) -> int:
    """Upper bound on the support pairs the direct route visits, factor by factor."""
    support, work = min(int(masses[0]), n), 0
    for m in masses[1:]:
        pairs = support * min(int(m), n)
        work += pairs
        support = min(pairs, n)
    return work


def _select_ntt_moduli(bound: int, n: int) -> tuple[int, ...]:
    usable = [q for q in _NTT_POOL if (1 << _ntt_prime_info(q)[0]) >= n]
    chosen = []
    capacity = 1
    for q in usable:
        chosen.append(q)
        capacity *= q
        if capacity > bound:
            return tuple(chosen)
    raise BudgetError(
        f"coefficient bound {bound} exceeds exact-route capacity {capacity} "
        f"at transform length {n}", required=bound)


def _check_plan(plan: ConvolutionPlan, n: int, masses: Sequence[int]) -> None:
    if plan.n != n:
        raise BudgetError(f"plan is for length {plan.n}, vectors have length {n}",
                          required=0)
    bound = prod(int(m) for m in masses)
    if bound > plan.bound:
        required = "ntt" if plan.strategy != "ntt" else "larger modulus pool"
        raise BudgetError(
            f"coefficient bound {bound} exceeds plan bound {plan.bound}; "
            f"required strategy: {required}", required=bound)
    if plan.strategy != "direct" and len(masses) * (n - 1) + 1 > max(plan.lin_length, 1):
        raise BudgetError("plan sized for fewer factors than supplied",
                          required=len(masses) * (n - 1) + 1)


# ---------------------------------------------------------------------------
# number-theoretic transform over a 31-bit prime, power-of-two length


@lru_cache(maxsize=16)
def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.uint32)
    rev = np.zeros(n, dtype=np.uint32)
    for b in range(bits):
        rev = (rev << 1) | ((idx >> b) & 1)
    return rev


@lru_cache(maxsize=16)
def _ntt_tables(q: int, n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(forward root powers, inverse root powers, n^-1 mod q) for length n."""
    adicity, g = _ntt_prime_info(q)
    if (1 << adicity) < n:
        raise ConsistencyError(f"modulus {q} cannot host a length-{n} transform")
    w = pow(g, (q - 1) // n, q)
    pows = np.empty(n, dtype=np.uint64)
    pows[0] = 1
    size = 1
    while size < n:
        step = min(size, n - size)
        wp = pow(w, size, q)
        pows[size:size + step] = (pows[:step] * np.uint64(wp)) % np.uint64(q)
        size += step
    inv_pows = np.roll(pows[::-1], 1).copy()   # inv_pows[k] = w^(-k)
    return pows, inv_pows, pow(n, q - 2, q)


def _ntt(vec: np.ndarray, q: int, pows: np.ndarray) -> np.ndarray:
    """Iterative radix-2 transform; vec is uint64 with entries < q."""
    n = vec.size
    a = vec[_bit_reverse_indices(n)].astype(np.uint64)
    qq = np.uint64(q)
    length = 2
    while length <= n:
        half = length >> 1
        step = n // length
        tw = pows[0:step * half:step]
        b = a.reshape(-1, length)
        u = b[:, :half]
        v = (b[:, half:] * tw) % qq
        b[:, half:] = (u + (qq - v)) % qq
        b[:, :half] = (u + v) % qq
        length <<= 1
    return a


def _ntt_forward(vec: np.ndarray, q: int, n: int) -> np.ndarray:
    pows, _, _ = _ntt_tables(q, n)
    return _ntt(vec, q, pows)


def _ntt_inverse(vec: np.ndarray, q: int, n: int) -> np.ndarray:
    _, inv_pows, n_inv = _ntt_tables(q, n)
    out = _ntt(vec, q, inv_pows)
    return (out * np.uint64(n_inv)) % np.uint64(q)


def _crt_combine(residues: list[np.ndarray], moduli: tuple[int, ...]) -> list[int]:
    """Exact reconstruction of each entry from its residues (result < prod(moduli))."""
    big_q = prod(moduli)
    coeffs = []
    for q in moduli:
        m = big_q // q
        coeffs.append(m * pow(m % q, q - 2, q))
    cols = [r.tolist() for r in residues]
    return [sum(c * r for c, r in zip(coeffs, row)) % big_q for row in zip(*cols)]


# ---------------------------------------------------------------------------
# the three convolution routes


def _fold(linear: np.ndarray, n: int) -> np.ndarray:
    """Wrap a linear-convolution result onto Z_n indices."""
    full = linear.size - linear.size % n
    out = linear[:full].reshape(-1, n).sum(axis=0)
    out[:linear.size - full] += linear[full:]
    return out


def _pair_kfold(vectors: list[np.ndarray], n: int) -> np.ndarray:
    """Scatter each product of two nonzero entries to (i + j) mod n, one factor at a time."""
    out = vectors[0]
    for vec in vectors[1:]:
        i, j = np.flatnonzero(out), np.flatnonzero(vec)
        wi, wj = out[i], vec[j]
        if i.size > j.size:
            i, j, wi, wj = j, i, wj, wi
        acc = np.zeros(n, dtype=np.int64)
        rows = max(1, _PAIR_BLOCK // max(1, j.size))
        for start in range(0, i.size, rows):
            idx = i[start:start + rows, None] + j
            np.subtract(idx, n, out=idx, where=idx >= n)
            np.add.at(acc, idx.ravel(), (wi[start:start + rows, None] * wj).ravel())
        out = acc
    return out


def _float_kfold(vectors: list[np.ndarray], n: int, plan: ConvolutionPlan) -> np.ndarray:
    size = plan.fft_length
    spectrum = np.fft.rfft(vectors[0], size)
    for vec in vectors[1:]:
        spectrum *= np.fft.rfft(vec, size)
    folded = _fold(np.fft.irfft(spectrum, size)[:plan.lin_length], n)
    rounded = np.rint(folded)
    residual = float(np.abs(folded - rounded, out=folded).max())
    if residual > 0.25:
        raise ConsistencyError(
            f"float convolution rounding residual {residual:.3g} exceeds 0.25")
    return rounded.astype(np.int64)


def _ntt_kfold(vectors: list[np.ndarray], n: int, plan: ConvolutionPlan) -> list[int]:
    size = plan.fft_length
    residues = []
    for q in plan.moduli:
        qq = np.uint64(q)
        spectrum = None
        for vec in vectors:
            padded = np.zeros(size, dtype=np.uint64)
            padded[:n] = (vec.astype(np.uint64)) % qq
            f = _ntt_forward(padded, q, size)
            spectrum = f if spectrum is None else (spectrum * f) % qq
        linear = _ntt_inverse(spectrum, q, size)[:plan.lin_length]
        residues.append(_fold(linear, n) % qq)
    return _crt_combine(residues, plan.moduli)


def k_fold_count(vectors: Sequence[CountVector], plan: ConvolutionPlan | None = None,
                 budget: int | None = None) -> CountVector:
    """The k-fold cyclic convolution of length-n count vectors, exactly.

    Support pairs, or pointwise products in the transform domain, one
    inverse transform and a fold onto Z_n; strategy per plan (auto-planned
    when omitted). Total mass is verified against the product of input
    masses on every call.
    """
    if len(vectors) < 2:
        raise BudgetError("k-fold convolution needs at least two factors", required=2)
    n = vectors[0].p
    if any(v.p != n for v in vectors):
        raise ConsistencyError("count vectors have mismatched lengths")
    masses = [v.total for v in vectors]
    if plan is None:
        plan = plan_convolution(n, masses, budget)
    else:
        _check_plan(plan, n, masses)
    expected = prod(masses)

    arrays = []
    for v in vectors:
        if not isinstance(v.counts, np.ndarray):
            raise ConsistencyError("input count vectors must be 64-bit backed")
        arrays.append(v.counts)
    if plan.strategy == "direct":
        return CountVector(_pair_kfold(arrays, n), expected_total=expected)
    if plan.strategy == "float":
        return CountVector(_float_kfold(arrays, n, plan), expected_total=expected)
    out = _ntt_kfold(arrays, n, plan)
    if plan.bound < 1 << 62:
        return CountVector(np.asarray(out, dtype=np.int64), expected_total=expected)
    return CountVector(out, expected_total=expected)


def cyclic_convolve(u: CountVector, v: CountVector,
                    plan: ConvolutionPlan | None = None,
                    budget: int | None = None) -> CountVector:
    """w[lam] = sum_mu u[mu] * v[(lam - mu) mod n], exact integers."""
    return k_fold_count([u, v], plan, budget)


# ---------------------------------------------------------------------------
# prime-length discrete Fourier transform (positive-sign convention)


@lru_cache(maxsize=4)
def _chirp_tables(n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(chirp, transformed filter, fft length) for a length-n transform."""
    t = np.arange(n, dtype=np.int64)
    # reduce t^2 mod 2n before forming the angle: keeps sin/cos arguments small
    sq = (t * t) % (2 * n)
    chirp = np.exp(1j * np.pi * sq / n)
    m = _next_pow2(2 * n - 1)
    filt = np.zeros(m, dtype=np.complex128)
    filt[:n] = np.conj(chirp)
    filt[m - n + 1:] = np.conj(chirp[1:][::-1])
    return chirp, np.fft.fft(filt), m


def length_p_transform(u: np.ndarray) -> np.ndarray:
    """hat_u[c] = sum_lam u[lam] * exp(2*pi*i*c*lam/n) for n = len(u).

    Chirp reduction to a power-of-two circular convolution; direct
    table-lookup product below DIRECT_DFT_THRESHOLD.
    """
    u = np.asarray(u, dtype=np.complex128)
    n = u.size
    if n == 1:
        return u.copy()
    if n <= DIRECT_DFT_THRESHOLD:
        idx = np.arange(n, dtype=np.int64)
        table = np.exp(2j * np.pi * np.arange(n) / n)
        return table[np.outer(idx, idx) % n] @ u
    chirp, filt_hat, m = _chirp_tables(n)
    a = np.zeros(m, dtype=np.complex128)
    a[:n] = u * chirp
    conv = np.fft.ifft(np.fft.fft(a) * filt_hat)[:n]
    return chirp * conv
