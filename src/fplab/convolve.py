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
          Chinese remainder theorem (Garner's mixed-radix digits). No
          rounding at all; used whenever the bound exceeds the float
          route's certified capacity. Two schedules per modulus: linear
          (transform every factor at N = next_pow2(k(n-1)+1), multiply,
          invert once) and cyclic (fold onto Z_n after every product, so
          each step works at C = next_pow2(2n-1)). With d distinct factor
          arrays among the k, linear takes d+1 transforms at N and cyclic
          d+2k-3 at C; the planner picks the cheaper, and a stage of k
          factors runs cyclic exactly when k(n-1)+1 exceeds its fft_length.
          Float pairs: when two factors' mass product is below 2^40, the
          float route computes their product exactly at C (with its
          run-time residual check), and the NTT stage then multiplies the
          ~k/2 pair products and the unpaired factors. Copies of one array
          pair with each other first, and a repeated pair is computed once.
          The pairs leave the bound, and so the moduli, unchanged. A
          paired plan is charged its float transforms plus the NTT
          transforms of its stage, and the planner takes it only when that
          is below the unpaired plan's work; plan.pairs records the layout.
          T_6 over six factors of mass ~2^18.3 at n=10^5 thus runs three
          float pairs (9 float transforms at 2^18) and 6 cyclic NTTs at
          2^18 per modulus, not 15; the energy [u]*4 at the same n runs
          w = u*u once, then [w, w] linear at 2^18 (2 NTTs per modulus, not
          2 at 2^19). No option selects the pairing.

The moduli of an NTT plan are independent until the CRT, and numpy
releases the interpreter lock inside the uint64 butterflies, so from
transform length 2^15 on they run on min(#moduli, cores) threads: the
calling thread takes every t-th modulus from the first, and the rest go
to one shared pool of cores - 1 threads, built on first use. A sweep's
worker threads share that pool, so its NTT work runs on at most
workers + cores - 1 threads, and pool tasks never wait on one another.
The caller builds the cached twiddle and bit-reversal tables before
anything is submitted, so no long-lived table lives in a pool thread's
malloc arena. No option selects the thread count, and the budget prices
work, not wall time. The residues meet in modulus order, so counts do not
depend on the thread count.

Transform routes transform a factor that appears several times (the
repeated factors of an additive energy) once. One work model prices every
plan, and plan_convolution is the only budget gate and the only source of
a plan: k_fold_count plans every call itself. A transform plan costs the
transforms it runs times length * log2(length), times the number of NTT
moduli; the support-pair route costs its pairs. The same number picks the
schedule, weighs the routes and meets the budget. Planning logs nothing;
the NTT route and its float pair stage each log one line of what they ran
when they run.

The prime-length Fourier transform (for complete exponential-sum tables)
uses the chirp factorization c*l = (c^2 + l^2 - (c-l)^2)/2 to reduce a
length-p transform to one power-of-two circular convolution of length
>= 2p-1, at every length p >= 2.
"""

from __future__ import annotations

import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Callable, Hashable, Iterator, Sequence

import numpy as np

from .countvec import CountVector
from .errors import DEFAULT_BUDGET, BudgetError, ConsistencyError, check_budget
from .modfield import find_primitive_root, power_table

log = logging.getLogger(__name__)

# Cost of one support pair in transform work units (one unit is one of the
# N*log2(N) steps of a transform). Measured on 2 x86 vCPUs with numpy 2.4 at
# n = 10^4..10^6: 8-16 ns per pair against 0.8-1.4 ns per unit.
PAIR_COST = 10
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
    fft_length: int                # power-of-two length used by float/ntt; an ntt
                                   # stage of k factors is cyclic when k(n-1)+1 exceeds it
    moduli: tuple[int, ...] = ()   # ntt primes (empty otherwise)
    pairs: tuple[tuple[int, int], ...] = ()  # factor index pairs an ntt plan
                                   # convolves first on the float route


@lru_cache(maxsize=None)
def _ntt_prime_info(q: int) -> tuple[int, int]:
    """(two-adicity of q-1, primitive root of q)."""
    m = q - 1
    adicity = (m & -m).bit_length() - 1
    return adicity, find_primitive_root(q)


def plan_convolution(n: int, masses: Sequence[int], budget: int | None = None,
                     layout: Sequence[Hashable] | None = None) -> ConvolutionPlan:
    """Select the cheapest exact strategy for a k-fold length-n convolution.

    This is the one place that prices work. The coefficient bound is the
    product of all masses (safe: every output entry is at most the total
    number of tuples); it decides which routes are exact. `layout` names
    each factor's array, equal names marking one array (default: k
    distinct arrays), and a transform route transforms each of its d
    distinct arrays once. A transform route costs the transforms it runs
    times L*log2(L) at its length L, times the number of NTT moduli: d+1
    transforms for the float route and the linear NTT schedule, d+2k-3 for
    the cyclic one (see _ntt_schedule). An NTT plan may first convolve
    pairs of factors on the float route (see _ntt_plan); it is chosen only
    when its float and NTT transforms together cost less than the unpaired
    plan. The support-pair route costs pair_work, the pairs it visits at
    most, each support being capped by its mass and by n; it is chosen when
    PAIR_COST * pair_work is no larger than the transform work. A route
    whose own work exceeds the budget is passed over; the call is refused
    only when none fits, with `required` the smaller need. Planning has no
    side effects: it logs nothing and allocates nothing of length n.
    """
    k = len(masses)
    if k < 1:
        raise BudgetError("no factors to convolve", required=0)
    keys = list(range(k)) if layout is None else list(layout)
    bound = prod(int(m) for m in masses)
    if bound < FLOAT_EXACT_BOUND:
        size = _next_pow2(k * (n - 1) + 1)
        transform = ConvolutionPlan(n, "float", bound, size)
        transform_work = (len(set(keys)) + 1) * _transform_units(size)
        what = "float transform convolution"
    else:
        transform_work, transform = min(
            (_ntt_plan(n, keys, bound, pairs) for pairs in ((), _float_pairs(masses, keys))),
            key=lambda candidate: candidate[0])
        what = "multi-modulus exact convolution"
    limit = DEFAULT_BUDGET if budget is None else budget
    if bound < 1 << 63:  # int64 accumulation is exact
        pair_work = _pair_work(n, masses)
        if pair_work <= limit and (PAIR_COST * pair_work <= transform_work
                                   or transform_work > limit):
            return ConvolutionPlan(n, "direct", bound, 0)
        if pair_work < transform_work:  # neither fits: refuse with the smaller need
            check_budget(pair_work, budget, "support-pair convolution")
    check_budget(transform_work, budget, what)
    return transform


def _transform_units(length: int) -> int:
    """Work units of one power-of-two transform: length * log2(length)."""
    return length * (length.bit_length() - 1)


def _ntt_schedule(k: int, distinct: int, n: int, size: int) -> tuple[int, int]:
    """(transform length, transforms per modulus) of the cheaper NTT schedule.

    Each of the `distinct` factor arrays is transformed once. The linear
    schedule does so at the padded length `size` and inverts once:
    distinct+1 transforms. The cyclic one folds onto Z_n after each
    product, so it works at next_pow2(2n-1): distinct factor transforms,
    k-1 inverses and k-2 transforms of the folded accumulator.
    """
    cyc = _next_pow2(2 * n - 1)
    linear, cyclic = distinct + 1, distinct + 2 * k - 3
    if cyc < size and cyclic * _transform_units(cyc) < linear * _transform_units(size):
        return cyc, cyclic
    return size, linear


def _float_pairs(masses: Sequence[int], keys: list) -> tuple[tuple[int, int], ...]:
    """Disjoint factor index pairs whose mass product is below FLOAT_EXACT_BOUND.

    Copies of one array pair with each other first, so [u]*4 pairs as
    (u, u), (u, u) and needs one product. The factors left over pair the
    lightest with the heaviest that fits it, which forms as many pairs as
    any rule can.
    """
    masses = [int(m) for m in masses]
    copies: dict = {}
    for i, key in enumerate(keys):
        copies.setdefault(key, []).append(i)
    pairs, left = [], []
    for idx in copies.values():
        if masses[idx[0]] ** 2 < FLOAT_EXACT_BOUND:
            pairs += zip(idx[0::2], idx[1::2])
            idx = idx[len(idx) & ~1:]
        left += idx
    left.sort(key=masses.__getitem__)
    lo, hi = 0, len(left) - 1
    while lo < hi:
        if masses[left[lo]] * masses[left[hi]] < FLOAT_EXACT_BOUND:
            pairs.append((left[lo], left[hi]))
            lo += 1
        hi -= 1
    return tuple(pairs)


def _pair_stage(factors: list, pairs: Sequence[tuple[int, int]],
                product: Callable) -> list:
    """The NTT stage's factors: product(a, b) for each pair, then the unpaired factors."""
    paired = {i for pair in pairs for i in pair}
    return ([product(factors[i], factors[j]) for i, j in pairs]
            + [f for i, f in enumerate(factors) if i not in paired])


def _ntt_plan(n: int, keys: list, bound: int,
              pairs: tuple[tuple[int, int], ...]) -> tuple[int, ConvolutionPlan]:
    """(work, plan) of an NTT plan.

    The plan first convolves each pair of factors on the float route at
    C = next_pow2(2n-1), computing a pair of the same two arrays once: two
    forward transforms and one inverse, or one forward when both factors
    are one array. Its NTT stage then multiplies the pair products and the
    unpaired factors. The pairs leave the bound, and so the moduli, as
    they are; its work is the float transforms plus the NTT transforms.
    """
    stage = _pair_stage(keys, pairs, lambda a, b: ("pair", frozenset((a, b))))
    products = set(stage[:len(pairs)])
    pair_transforms = sum(len(pair) + 1 for _, pair in products)
    size = _next_pow2(len(stage) * (n - 1) + 1)
    moduli = _select_ntt_moduli(bound, size)
    length, per_modulus = _ntt_schedule(len(stage), len(set(stage)), n, size)
    work = (per_modulus * len(moduli) * _transform_units(length)
            + pair_transforms * _transform_units(_next_pow2(2 * n - 1)))
    return work, ConvolutionPlan(n, "ntt", bound, length, moduli, pairs)


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


# ---------------------------------------------------------------------------
# threads for the moduli of an exact convolution

# Shorter transforms run serially. On 2 vCPUs, threads cost up to 42% at
# length 2^11, broke even at 2^13, varied from -20% to +4% at 2^14 and
# saved 26-45% from 2^15 on.
_THREAD_MIN_LENGTH = 1 << 15

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _cores() -> int:
    """CPUs this process may run on; sizes the shared pool and each call's threads."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ntt_threads(plan: ConvolutionPlan) -> int:
    """Threads the moduli of an NTT plan run on, the calling thread included."""
    if plan.fft_length < _THREAD_MIN_LENGTH:
        return 1
    return min(len(plan.moduli), _cores())


def _shared_pool() -> ThreadPoolExecutor:
    """The cores - 1 threads every NTT convolution of the process shares, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, _cores() - 1), thread_name_prefix="fplab-ntt")
        return _pool


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
def _ntt_tables(q: int, n: int) -> tuple[np.ndarray, int]:
    """(root powers w^0..w^(n/2-1), n^-1 mod q) for length n.

    The butterflies of a length-n transform read twiddles below n/2 only.
    """
    adicity, g = _ntt_prime_info(q)
    if (1 << adicity) < n:
        raise ConsistencyError(f"modulus {q} cannot host a length-{n} transform")
    w = pow(g, (q - 1) // n, q)
    return power_table(w, max(1, n >> 1), q), pow(n, q - 2, q)


def _ntt_forward(vec: np.ndarray, q: int, n: int) -> np.ndarray:
    """Iterative radix-2 length-n transform of vec (uint64, entries < q) zero-padded.

    Butterfly sums and differences lie below 2q, so one conditional
    subtraction reduces them: min(s, s - q) is s - q when s >= q, and s
    otherwise, because s - q then wraps around to above 2^63. Each stage
    holds two half-length temporaries, v and d.
    """
    pows = _ntt_tables(q, n)[0]
    a = np.zeros(n, dtype=np.uint64)
    a[_bit_reverse_indices(n)[:vec.size]] = vec  # bit reversal is an involution
    qq = np.uint64(q)
    length = 2
    while length <= n:
        half = length >> 1
        step = n // length
        tw = pows[0:step * half:step]
        b = a.reshape(-1, length)
        u, w = b[:, :half], b[:, half:]
        v = w * tw
        v %= qq
        d = u + qq
        d -= v
        np.add(u, v, out=v)          # v = s
        np.subtract(v, qq, out=u)
        np.minimum(u, v, out=u)
        np.subtract(d, qq, out=v)
        np.minimum(d, v, out=w)
        length <<= 1
    return a


def _ntt_inverse(vec: np.ndarray, q: int, n: int) -> np.ndarray:
    """Inverse length-n transform: the forward one read at (n - j) mod n, times n^-1."""
    out = _ntt_forward(vec, q, n)
    out[1:] = out[:0:-1].copy()
    out *= np.uint64(_ntt_tables(q, n)[1])
    out %= np.uint64(q)
    return out


def _crt_combine(residues: list[np.ndarray], moduli: tuple[int, ...],
                 bound: int) -> np.ndarray:
    """Exact entries (each < bound <= prod(moduli)) from their residues, by Garner.

    The mixed-radix digits d_i < q_i of x = d_0 + q_0*(d_1 + q_1*(d_2 + ...))
    are computed in uint64, where every product of two residues stays below
    2^63. Below 2^62 the Horner sum runs in wrapping uint64 arithmetic and
    is exact, since it is exact mod 2^64, and the result is int64. Above,
    digits pair up into limbs d_i + q_i*d_(i+1) < 2^62, joined by Horner in
    place on an object array of Python ints, the result's dtype.
    """
    digits = []
    for x, q in zip(residues, moduli):
        qq = np.uint64(q)
        for d, qd in zip(digits, moduli):
            x = (x + (qq - d % qq)) * np.uint64(pow(qd, -1, q)) % qq
        digits.append(x)
    if bound < 1 << 62:
        out = digits[-1]
        for d, q in zip(digits[-2::-1], moduli[-2::-1]):
            out = out * np.uint64(q) + d
        return out.astype(np.int64)
    limbs, radices = [], []
    for i in range(0, len(digits), 2):
        limb, radix = digits[i], moduli[i]
        if i + 1 < len(digits):
            limb = limb + digits[i + 1] * np.uint64(radix)
            radix *= moduli[i + 1]
        limbs.append(limb)
        radices.append(radix)
    # in place: `limb + radix * out` would hold a second full-length object array
    out = limbs[-1].astype(object)
    for limb, radix in zip(limbs[-2::-1], radices[-2::-1]):
        out *= radix
        out += limb.astype(object)
    return out


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


def _spectra(vectors: list[np.ndarray],
             transform: Callable[[np.ndarray], np.ndarray]) -> Iterator[np.ndarray]:
    """Each factor's transform in order, computing each distinct array once.

    A spectrum is held only while a later position still uses its array.
    The first one yielded is the caller's to overwrite; later ones may be
    held for a later position and are read-only.
    """
    last = {id(vec): i for i, vec in enumerate(vectors)}
    held = {}
    for i, vec in enumerate(vectors):
        key = id(vec)
        spectrum = held.pop(key, None)
        if spectrum is None:
            spectrum = transform(vec)
        if last[key] > i:
            held[key] = spectrum
            if i == 0:
                spectrum = spectrum.copy()
        yield spectrum


def _float_kfold(vectors: list[np.ndarray], n: int, size: int) -> np.ndarray:
    spectra = _spectra(vectors, lambda vec: np.fft.rfft(vec, size))
    spectrum = next(spectra)
    for f in spectra:
        spectrum *= f
    del f  # one spectrum less held through the inverse transform
    folded = _fold(np.fft.irfft(spectrum, size)[:len(vectors) * (n - 1) + 1], n)
    rounded = np.rint(folded)
    residual = float(np.abs(folded - rounded, out=folded).max())
    if residual > 0.25:
        raise ConsistencyError(
            f"float convolution rounding residual {residual:.3g} exceeds 0.25")
    return rounded.astype(np.int64)


def _float_pair_products(arrays: list[np.ndarray], n: int,
                         pairs: tuple[tuple[int, int], ...]) -> list[np.ndarray]:
    """The NTT stage's factors: each pair's product on the float route, then the rest.

    A pair of the same two arrays as an earlier pair shares its product, so
    the NTT stage transforms that product once too. Logs the products and
    transforms it ran.
    """
    size = _next_pow2(2 * n - 1)
    done = {}

    def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        key = frozenset((id(a), id(b)))
        if key not in done:
            done[key] = _float_kfold([a, b], n, size)
        return done[key]

    stage = _pair_stage(arrays, pairs, product)
    # one forward transform per distinct array of a pair, and one inverse
    log.info("float pair stage: %d product(s) (%d transforms) at length %d",
             len(done), sum(len(key) + 1 for key in done), size)
    return stage


def _ntt_residue(vectors: list[np.ndarray], n: int, size: int, cyclic: bool,
                 q: int) -> np.ndarray:
    """The k-fold convolution mod q, folded onto Z_n: multiply spectra, invert, fold.

    The linear schedule inverts once, after the last product. The cyclic
    one folds after every product, whose linear part has 2n-1 entries, and
    transforms the folded accumulator again for the next factor.
    """
    span = 2 * n - 1 if cyclic else len(vectors) * (n - 1) + 1
    last = len(vectors) - 1
    qq = np.uint64(q)
    spectra = _spectra(vectors, lambda vec: _ntt_forward(vec.astype(np.uint64) % qq, q, size))
    spectrum = next(spectra)
    for i, f in enumerate(spectra, 1):
        spectrum *= f
        del f  # one spectrum less held through the inverse transform
        spectrum %= qq
        if cyclic or i == last:
            acc = _fold(_ntt_inverse(spectrum, q, size)[:span], n) % qq
            if i < last:
                spectrum = _ntt_forward(acc, q, size)
    return acc


def _ntt_kfold(vectors: list[np.ndarray], n: int, plan: ConvolutionPlan) -> np.ndarray:
    """Every modulus's residue on _ntt_threads threads, then the CRT in modulus order.

    The schedule is cyclic exactly when the k factors' linear convolution,
    k(n-1)+1 entries, does not fit in fft_length. With t threads, share j
    takes the moduli j, j+t, j+2t, ...; the calling thread runs share 0 and
    the shared pool the others. Logs the schedule and transforms it ran.
    """
    size, moduli = plan.fft_length, plan.moduli
    k = len(vectors)
    cyclic = k * (n - 1) + 1 > size
    # cached tables built in a pool thread would pin that thread's malloc arena
    _bit_reverse_indices(size)
    for q in moduli:
        _ntt_tables(q, size)
    threads = _ntt_threads(plan)

    def share(first: int) -> list[np.ndarray]:
        return [_ntt_residue(vectors, n, size, cyclic, q) for q in moduli[first::threads]]

    futures = [_shared_pool().submit(share, j) for j in range(1, threads)]
    try:
        own = share(0)
    finally:
        wait(futures)
    residues = [None] * len(moduli)
    residues[0::threads] = own
    for j, future in enumerate(futures, 1):
        residues[j::threads] = future.result()
    # per modulus, _ntt_residue transforms each distinct array once, then
    # inverts once (linear) or k-1 times, re-transforming k-2 accumulators
    transforms = len({id(v) for v in vectors}) + (2 * k - 3 if cyclic else 1)
    log.info("exact ntt convolution, bound %d: %s schedule, length %d, moduli %s, "
             "%d transforms on %d thread(s)", plan.bound, "cyclic" if cyclic else "linear",
             size, ",".join(map(str, moduli)), transforms * len(moduli), threads)
    return _crt_combine(residues, moduli, plan.bound)


def _run(arrays: list[np.ndarray], n: int, plan: ConvolutionPlan) -> np.ndarray:
    """The convolution over Z_n of int64 factor arrays, run as `plan` says.

    k_fold_count's executor; it runs any plan as given. The float pair
    stage replaces the list's contents in place, so a factor no one else
    holds is freed before the NTT stage starts.
    """
    if plan.strategy == "direct":
        return _pair_kfold(arrays, n)
    if plan.strategy == "float":
        return _float_kfold(arrays, n, plan.fft_length)
    if plan.pairs:
        arrays[:] = _float_pair_products(arrays, n, plan.pairs)
    return _ntt_kfold(arrays, n, plan)


def k_fold_count(vectors: Sequence[CountVector], *, budget: int | None = None) -> CountVector:
    """The k-fold cyclic convolution of length-n count vectors, exactly.

    plan_convolution plans the call for the vectors' masses and distinct
    arrays, refusing it before any transform runs when no route fits the
    budget; the plan then runs as support pairs, or as pointwise products
    in the transform domain, inverse transforms and folds onto Z_n. Total
    mass is verified against the product of input masses on every call.
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
    del vectors  # a factor the caller holds no more is freed once it is paired
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
