"""Exact cyclic convolution over an index group Z_n, and prime-length DFTs.

Additive problems convolve over Z_p; product problems convolve over
Z_{p-1} after reindexing every unit by its discrete log. Two strategies:

  direct  support pairs: every product of two nonzero entries is scattered
          to (i + j) mod n with int64 accumulation; exact below 2^63.
          Chosen when its pair count, weighted by PAIR_COST, undercuts the
          transform work.
  float   a cyclic chain of certified two-factor float products at
          C = next_pow2(2n-1). Step t multiplies the accumulator (the
          first factor, then the product so far) by factor t. Either side
          may be split into b-bit limbs, x = sum_i x_i 2^(b i) with
          0 <= x_i < 2^b; a side whose entries are below 2^b stays one
          limb. Each limb is transformed once (real FFTs at C), and for
          each limb-index sum s the products of the limb spectra with
          i + j = s are added and inverted once. Each inverse is folded
          onto Z_n and rounded, and the parts are carry-normalised into
          base-2^b int64 digits, which the next step splits at its own
          width. After the last step the digits join into an int64 array
          when the coefficient bound (the product of the masses) is below
          2^62, and into an object array of Python ints otherwise.

The certificate. Percival (C. Percival, Math. Comp. 72 (2003), 387-395)
bounds the error of a radix-2 float convolution of length N = 2^m by
||x||_2 ||y||_2 gamma(N), with
gamma = (1+eps)^(3m) (1+eps sqrt5)^(3m+1) (1+beta)^(3m) - 1, eps = 2^-53
and beta the error of the twiddle factors. Before the inverse of sum s is
used, sum_{i+j=s} ||x_i||_2 ||y_j||_2 gamma(C) must be below 1/4. The
norms are exact integers (countvec.sum_of_squares) of the very limbs that
are multiplied. Folding adds two entries, so every folded error is below
1/2 and rounding is exact. The limb width b of a step is the widest that
certifies every sum, worked out from these norms at each step; it is not
a setting. A width is rejected first from Cauchy-Schwarz lower bounds on
its low limbs' norms, ||x_0||^2 >= (sum x_0)^2 / n, and its exact norms
are taken only when those bounds certify. What is assumed of numpy's
pocketfft: at power-of-two lengths its real transforms err no more than
Percival's radix-2 transform with correctly rounded twiddles (beta = eps).
That is not proved here, so the rounding residual of every inverse is
still checked, and a residual above 0.25, far beyond anything the bound
allows in practice, raises ConsistencyError.

Spectra. One rule, kept by the executor and charged by the planner. A
side that is one whole factor (the first factor in step 1, factor t in
step t) carries its array's key, and a key counts as made only when its
side is whole (one limb): that spectrum is made once and kept while a
later operand uses it. The first factor's is made before factor 1's, so
[u]*2 transforms u once. The accumulator after step 1, and every limb,
carry no key: their spectra are streamed, each made when the first sum
that needs it comes up. A spectrum is multiplied in place on its last
sum exactly when it is not kept.

One work model prices every plan, and plan_convolution is the only budget
gate and the only source of a plan: k_fold_count plans every call itself.
A float plan is charged its transforms times C * log2(C). Each step is
charged the transforms it would run at the worst-case norms its masses
allow (see _bound_norms), with the width chosen from those bounds by the
executor's rule. Actual norms are never larger, so the executor's width is
never narrower, its limbs never more, and it never runs more transforms
than it was charged. The support-pair route costs its pairs. Planning logs
nothing; the float route logs one line when it runs: its steps, the limbs
and width of each, the transforms run against those charged, the largest
certified bound and the largest rounding residual.

The prime-length Fourier transform (for complete exponential-sum tables)
uses the chirp factorization c*l = (c^2 + l^2 - (c-l)^2)/2 to reduce a
length-p transform to one power-of-two circular convolution of length
>= 2p-1, at every length p >= 2.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, prod
from typing import Callable, Hashable, Sequence

import numpy as np

from .countvec import CountVector, sum_of_squares
from .errors import DEFAULT_BUDGET, BudgetError, ConsistencyError, check_budget

log = logging.getLogger(__name__)

# Cost of one support pair in transform work units (one unit is one of the
# N*log2(N) steps of a transform). Measured on 2 x86 vCPUs with numpy 2.4 at
# n = 10^4..10^6: 8-16 ns per pair against 0.8-1.4 ns per unit.
PAIR_COST = 10
_PAIR_BLOCK = 1 << 22          # support pairs scattered per block
_WORD = 62                     # widest limb or digit: every one is an int64 array

# one side's limb norms: norms(b, count) gives the squared l2 norms of its
# first `count` limbs at width b, or of all of them when count is None;
# norms(b, 1, floor=True) may give a lower bound on limb 0's instead
Norms = Callable[..., list]


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


@dataclass(frozen=True)
class ConvolutionPlan:
    """How a convolution will run: strategy, coefficient bound, length, charge."""

    n: int                         # length of the index group Z_n
    strategy: str                  # "direct" | "float"
    bound: int                     # product of the masses: no coefficient exceeds it
    fft_length: int                # C = next_pow2(2n-1) for "float", 0 for "direct"
    transforms: int = 0            # float transforms charged at the worst-case norms
    moduli: tuple[int, ...] = ()   # always empty: no route works modulo primes


def plan_convolution(n: int, masses: Sequence[int], budget: int | None = None,
                     layout: Sequence[Hashable] | None = None) -> ConvolutionPlan:
    """Select the cheapest exact strategy for a k-fold length-n convolution.

    This is the one place that prices work. The coefficient bound is the
    product of all masses (safe: every output entry is at most the total
    number of tuples). `layout` names each factor's array, equal names
    marking one array (default: k distinct arrays); a float plan
    transforms an array held whole once. The float route costs the
    transforms _chain_transforms charges times C*log2(C). The support-pair
    route (bound < 2^63) costs pair_work, the pairs it visits at most, each
    support being capped by its mass and by n; it is chosen when PAIR_COST
    * pair_work is no larger than the transform work. A route whose own
    work exceeds the budget is passed over; the call is refused only when
    none fits, with `required` the smaller need. Planning has no side
    effects: it logs nothing and allocates nothing of length n.
    """
    k = len(masses)
    if k < 1:
        raise BudgetError("no factors to convolve", required=0)
    masses = [int(m) for m in masses]
    keys = list(range(k)) if layout is None else list(layout)
    bound = prod(masses)
    size = _next_pow2(2 * n - 1)
    transforms = _chain_transforms(n, masses, keys, size)
    transform_work = transforms * size * (size.bit_length() - 1)
    limit = DEFAULT_BUDGET if budget is None else budget
    if bound < 1 << 63:  # int64 accumulation is exact
        pair_work = _pair_work(n, masses)
        if pair_work <= limit and (PAIR_COST * pair_work <= transform_work
                                   or transform_work > limit):
            return ConvolutionPlan(n, "direct", bound, 0)
        if pair_work < transform_work:  # neither fits: refuse with the smaller need
            check_budget(pair_work, budget, "support-pair convolution")
    check_budget(transform_work, budget, "float transform convolution")
    return ConvolutionPlan(n, "float", bound, size, transforms)


def _pair_work(n: int, masses: Sequence[int]) -> int:
    """Upper bound on the support pairs the direct route visits, factor by factor."""
    support, work = min(masses[0], n), 0
    for m in masses[1:]:
        pairs = support * min(m, n)
        work += pairs
        support = min(pairs, n)
    return work


def _chain_transforms(n: int, masses: list[int], keys: list, size: int) -> int:
    """The transforms the float chain is charged: what it runs at worst-case norms.

    Each step takes its width from _bound_norms by the executor's rule
    (_width) and inverts once per limb-index sum. Its forward transforms
    follow the module's spectrum rule: a side that is one whole factor
    (the first factor in step 1, factor t in step t) carries its array's
    key, and a key counts as made only when its side is whole (one limb);
    a made key is not charged again. The accumulator after step 1, and
    every limb, carry no key and are charged every time.
    """
    gamma = _gamma(size)
    made, transforms, acc, x_key = set(), 0, masses[0], keys[0]
    for y_key, mass in zip(keys[1:], masses[1:]):
        b, _ = _width(_bound_norms(acc, n), _bound_norms(mass, n),
                      acc.bit_length(), mass.bit_length(), gamma)
        x_limbs, y_limbs = _limb_count(acc.bit_length(), b), _limb_count(mass.bit_length(), b)
        for key, limbs in ((x_key, x_limbs), (y_key, y_limbs)):
            whole = limbs == 1 and key is not None
            transforms += 0 if whole and key in made else limbs
            if whole:
                made.add(key)
        transforms += x_limbs + y_limbs - 1
        acc, x_key = acc * mass, None
    return transforms


# ---------------------------------------------------------------------------
# the certificate: Percival's bound from exact limb norms


@lru_cache(maxsize=None)
def _gamma(length: int) -> float:
    """Percival's error factor gamma(2^m), with beta = eps = 2^-53, rounded up.

    Evaluated through log1p and expm1, then raised by 2^-40 relative, which
    covers the float rounding of this evaluation and of the comparison
    that uses it.
    """
    m = length.bit_length() - 1
    eps = 2.0 ** -53
    growth = 6 * m * math.log1p(eps) + (3 * m + 1) * math.log1p(eps * math.sqrt(5))
    return math.expm1(growth) * (1 + 2.0 ** -40)


def _limb_count(bits: int, b: int) -> int:
    """Limbs of width b of a side whose entries have at most `bits` bits."""
    return max(1, -(-bits // b))


def _bound_norms(mass: int, n: int) -> Norms:
    """Squared-norm bounds for the limbs of any nonnegative vector of this mass on Z_n.

    Every entry is at most the mass, so limb i at width b has entries at
    most D = min(mass >> b*i, 2^b - 1) and a mass of at most
    mass >> b*i; its squared l2 norm is at most min((mass >> b*i) * D,
    n * D^2). A point mass meets the bound when it is one limb. These are
    the planner's norms, so `floor` changes nothing.
    """
    bits = mass.bit_length()

    def norms(b: int, count: int | None = None, floor: bool = False) -> list[int]:
        out = []
        for i in range(_limb_count(bits, b) if count is None else count):
            top = mass >> (b * i)
            d = min(top, (1 << b) - 1)
            out.append(min(top * d, n * d * d))
        return out

    return norms


def _exact_norms(digits: list[np.ndarray], width: int, bits: int) -> Norms:
    """The exact squared l2 norms of the limbs of sum_i digits[i] * 2^(width*i).

    With `floor`, limb 0's is bounded below by Cauchy-Schwarz,
    ||x_0||^2 >= (sum x_0)^2 / n, from a sum that every rounding lowers:
    no exact norm is taken.
    """
    def norms(b: int, count: int | None = None, floor: bool = False) -> list[int]:
        limbs = _limb_count(bits, b)
        if floor:
            limb = _limb(digits, width, b, 0, limbs)
            return [_sum_floor(limb) ** 2 // limb.size]
        return [sum_of_squares(_limb(digits, width, b, j, limbs))
                for j in range(limbs if count is None else count)]

    return norms


def _sum_floor(x: np.ndarray) -> int:
    """A lower bound on the sum of a nonnegative int64 array: exact when it fits int64.

    The entries are shifted right until their sum cannot overflow, so the
    shifted-out bits are all that is lost.
    """
    shift = max(0, int(x.max()).bit_length() + x.size.bit_length() - 63)
    return int((x >> shift if shift else x).sum()) << shift


def _ceil_sqrt(v: int) -> int:
    return isqrt(v - 1) + 1 if v else 0


def _sum_bound(xs: list[int], ys: list[int]) -> int:
    """max over s of sum_{i+j=s} ||x_i|| ||y_j||, each term rounded up, from squared norms."""
    sums = [0] * (len(xs) + len(ys) - 1)
    for i, a in enumerate(xs):
        for j, c in enumerate(ys):
            sums[i + j] += _ceil_sqrt(a * c)
    return max(sums)


def _width(x_norms: Norms, y_norms: Norms, x_bits: int, y_bits: int,
           gamma: float) -> tuple[int, float]:
    """(b, certified bound): the widest limb width whose every sum certifies.

    Widths run up to `top`, where both sides are one limb, or to _WORD.
    `top` is tried first. Below it, the low limbs' term (s = 0) never falls
    as b grows, so bisection finds the widest width at which that term
    certifies; the full certificate is then checked from there down. `top`
    and each bisection probe are rejected first from lower bounds on the
    low limbs' norms (the s = 0 term); exact norms are taken only when
    those certify. Width 1 certifies at any desk-scale n, since its limbs
    are 0/1 vectors.
    """
    def bound(b: int, count: int | None = None, floor: bool = False) -> float:
        return _sum_bound(x_norms(b, count, floor=floor),
                          y_norms(b, count, floor=floor)) * gamma

    top = min(_WORD, max(1, x_bits, y_bits))
    if bound(top, 1, floor=True) < 0.25:
        worst = bound(top)
        if worst < 0.25:
            return top, worst
    lo, hi = 1, top - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if bound(mid, 1, floor=True) < 0.25 and bound(mid, 1) < 0.25:
            lo = mid
        else:
            hi = mid - 1
    for b in range(lo, 0, -1):
        worst = bound(b)
        if worst < 0.25:
            return b, worst
    raise ConsistencyError("no limb width certifies the float product")


# ---------------------------------------------------------------------------
# limbs, carries and the final join


def _limb(digits: list[np.ndarray], width: int, b: int, j: int, count: int) -> np.ndarray:
    """Limb j of `count` at width b of sum_i digits[i] * 2^(width*i).

    That is bits [j*b, (j+1)*b) of every entry, the last limb taking all
    the bits above. Every digit but the top one is below 2^width. A limb
    that is one whole digit is that digit's array, not a copy.
    """
    lo = j * b
    hi = None if j == count - 1 else lo + b
    limb = None
    for i, d in enumerate(digits):
        start = i * width
        stop = None if i == len(digits) - 1 else start + width
        if (stop is not None and stop <= lo) or (hi is not None and start >= hi):
            continue
        first = max(start, lo)
        part = d >> (first - start) if first > start else d
        if hi is not None and (stop is None or hi < stop):
            part = part & ((1 << (hi - first)) - 1)
        if first > lo:
            part = part << (first - lo)
        limb = part if limb is None else limb | part
    return limb


def _carry(parts: list[np.ndarray], b: int) -> list[np.ndarray]:
    """Base-2^b digits of sum_s parts[s] * 2^(b*s), each below 2^b but the top one.

    The parts are nonnegative int64 arrays below 2^45 and are overwritten;
    top digits that are zero everywhere are dropped.
    """
    mask = (1 << b) - 1
    digits, carry = [], 0
    for z in parts:
        z += carry
        carry = z >> b
        z &= mask
        digits.append(z)
    digits.append(carry)
    while len(digits) > 1 and not digits[-1].any():
        digits.pop()
    return digits


def _bits(digits: list[np.ndarray], width: int) -> int:
    """Bit length of the largest entry of sum_i digits[i] * 2^(width*i)."""
    return (len(digits) - 1) * width + int(digits[-1].max()).bit_length()


def _join(digits: list[np.ndarray], width: int, bound: int) -> np.ndarray:
    """The exact vector: int64 below a coefficient bound of 2^62, else Python ints.

    Above, the digits regroup into 62-bit words that are joined by Horner in
    place on an object array; `word + radix * out` would hold a second
    full-length object array.
    """
    if bound < 1 << _WORD:
        return _limb(digits, width, _WORD, 0, 1)
    count = _limb_count(_bits(digits, width), _WORD)
    out = _limb(digits, width, _WORD, count - 1, count).astype(object)
    for j in range(count - 2, -1, -1):
        out *= 1 << _WORD
        out += _limb(digits, width, _WORD, j, count).astype(object)
    return out


# ---------------------------------------------------------------------------
# the two convolution routes


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


def _rounded(folded: np.ndarray) -> tuple[np.ndarray, float]:
    """(int64 counts, rounding residual) of one folded inverse, which is overwritten."""
    rounded = np.rint(folded)
    folded -= rounded
    residual = float(np.abs(folded, out=folded).max())
    if residual > 0.25:
        raise ConsistencyError(
            f"float convolution rounding residual {residual:.3g} exceeds 0.25")
    return rounded.astype(np.int64), residual


def _float_chain(arrays: list, n: int, plan: ConvolutionPlan) -> np.ndarray:
    """The chain of certified two-factor float products; see the module docstring.

    A factor's entry in `arrays` is cleared once its step has read it, so a
    factor no one else holds is freed as the chain goes. Logs what it ran.
    """
    size = plan.fft_length
    gamma = _gamma(size)
    keys = [id(a) for a in arrays]
    last = {key: t for t, key in enumerate(keys)}
    kept = {}  # key -> spectrum of a whole factor that a later operand uses
    digits, width, x_key = [arrays[0]], _WORD, keys[0]
    bits = _bits(digits, width)
    arrays[0] = None
    run, steps, certified, residual = 0, [], 0.0, 0.0

    def spectrum(limb: np.ndarray, key: Hashable | None, at: int) -> np.ndarray:
        """The spectrum of the limb of operand `at`, kept when its key has a later operand."""
        nonlocal run
        if key not in kept:
            run += 1
            kept[key] = np.fft.rfft(limb, size)
        return kept[key] if last.get(key, at) > at else kept.pop(key)

    for t in range(1, len(keys)):
        y, arrays[t] = arrays[t], None
        y_bits = _bits([y], _WORD)
        b, bound = _width(_exact_norms(digits, width, bits), _exact_norms([y], _WORD, y_bits),
                          bits, y_bits, gamma)
        x_limbs, y_limbs = _limb_count(bits, b), _limb_count(y_bits, b)
        x_key = x_key if x_limbs == 1 else None
        live = {0: spectrum(_limb(digits, width, b, 0, x_limbs), x_key, t - 1)}
        ys = [spectrum(_limb([y], _WORD, b, j, y_limbs), keys[t] if y_limbs == 1 else None, t)
              for j in range(y_limbs)]
        y = None
        kept = {k: v for k, v in kept.items() if last[k] > t}  # none outlives its last use
        parts = []
        for s in range(x_limbs + y_limbs - 1):
            if 0 < s < x_limbs:
                live[s] = spectrum(_limb(digits, width, b, s, x_limbs), None, t - 1)
            z = None
            for i in range(max(0, s - y_limbs + 1), min(s, x_limbs - 1) + 1):
                if i == s - y_limbs + 1:  # the last sum that uses x_i
                    term = live.pop(i)
                    term = np.multiply(term, ys[s - i], out=None if x_key in kept else term)
                else:
                    term = live[i] * ys[s - i]
                z = term if z is None else np.add(z, term, out=z)
                term = None
            if s == x_limbs + y_limbs - 2:  # the factor spectra are spent
                ys = None
            linear = np.fft.irfft(z, size)
            z = None
            folded = _fold(linear[:2 * n - 1], n)
            linear = None
            part, res = _rounded(folded)
            folded = None
            run += 1
            parts.append(part)
            residual = max(residual, res)
        digits = parts if len(parts) == 1 else _carry(parts, b)
        width, x_key = b, None
        bits = _bits(digits, width)
        steps.append(f"{x_limbs}x{y_limbs}@{b}")
        certified = max(certified, bound)
    if run > plan.transforms:
        raise ConsistencyError(f"float chain ran {run} transforms, {plan.transforms} charged")
    log.info("float convolution at length %d: %d step(s) %s (limbs x limbs @ width), "
             "%d of %d charged transforms, certified bound %.3g, largest residual %.3g",
             size, len(steps), " ".join(steps), run, plan.transforms, certified, residual)
    return _join(digits, width, plan.bound)


def _run(arrays: list, n: int, plan: ConvolutionPlan) -> np.ndarray:
    """The convolution over Z_n of int64 factor arrays, run as `plan` says.

    k_fold_count's executor. The float chain clears each entry of `arrays`
    as it reads it.
    """
    if plan.strategy == "direct":
        return _pair_kfold(arrays, n)
    return _float_chain(arrays, n, plan)


def k_fold_count(vectors: Sequence[CountVector], *, budget: int | None = None) -> CountVector:
    """The k-fold cyclic convolution of length-n count vectors, exactly.

    plan_convolution plans the call for the vectors' masses and distinct
    arrays, refusing it before any transform runs when no route fits the
    budget; the plan then runs as support pairs or as the float chain.
    Total mass is verified against the product of input masses on every
    call.
    """
    if len(vectors) < 2:
        raise BudgetError("k-fold convolution needs at least two factors", required=2)
    n = vectors[0].p
    if any(v.p != n for v in vectors):
        raise ConsistencyError("count vectors have mismatched lengths")
    plan = plan_convolution(n, [v.total for v in vectors], budget,
                            layout=[id(v.counts) for v in vectors])
    if any(v.counts.dtype != np.int64 for v in vectors):
        raise ConsistencyError("input count vectors must be 64-bit backed")
    arrays = [v.counts for v in vectors]
    del vectors  # a factor the caller holds no more is freed after its step
    return CountVector(_run(arrays, n, plan), expected_total=plan.bound)


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

    Chirp reduction to a power-of-two circular convolution.
    """
    u = np.asarray(u, dtype=np.complex128)
    n = u.size
    if n == 1:
        return u.copy()
    chirp, filt_hat, m = _chirp_tables(n)
    a = np.zeros(m, dtype=np.complex128)
    a[:n] = u * chirp
    conv = np.fft.ifft(np.fft.fft(a) * filt_hat)[:n]
    return chirp * conv
