"""Exact cyclic convolution over an index group Z_n, and prime-length DFTs.

Additive problems convolve over Z_p; product problems convolve over
Z_{p-1} after reindexing every unit by its discrete log. Two strategies:

  direct  support pairs: every product of two nonzero entries is scattered
          to (i + j) mod n with int64 accumulation; exact below 2^63.
          Chosen when its pair count, weighted by PAIR_COST, undercuts the
          transform work.
  float   a chain of certified two-factor float products at
          C = next_pow2(2n-1), in the cyclic order: step t multiplies
          the accumulator (the first factor, then the product so far)
          by factor t. Either side may be split into b-bit limbs,
          x = sum_i x_i 2^(b i) with 0 <= x_i < 2^b; a side whose
          entries are below 2^b stays one limb. Each limb is
          transformed once, and for each limb-index sum s the products
          of the limb spectra with i + j = s are added and inverted
          once. Each inverse is rounded, folded onto Z_n, and the parts
          are carry-normalised into base-2^b int64 digits, which the
          next step splits at its own width. After the last step the
          digits join into an int64 array when the chain's own product
          of the masses, which bounds every coefficient, is below 2^62,
          and into an object array of Python ints otherwise.

Phases. Every product runs at half length, C/2. Write a limb as
x(t) = x_e(t^2) + t x_o(t^2), x_e its even entries and x_o its odd ones.
Then x y = (x_e y_e + t^2 x_o y_o) + t (x_e y_o + x_o y_e), a polynomial
identity, so one path serves odd n (additive problems) and even n
(products over Z_{p-1}) alike. A limb's spectrum is the pair of real FFTs
at C/2 of x_e and x_o. A sum's spectrum is a pair too: the even phase
sums x_e y_e + w x_o y_o, where the twiddle w_k = e^(-2 pi i k/(C/2))
shifts x_o y_o by one place, and the odd phase sums x_e y_o + x_o y_e.
Each phase is inverted at C/2 and rounded: the even phase holds the n
entries 2m of the linear product, the odd phase its n-1 entries 2m+1,
and neither wraps, since C/2 >= n (the phase length is 1 at n = 1,
where C = 1). The rounded phases are then folded onto Z_n exactly, in
int64. One phase pair, forward or inverse, is one transform wherever
transforms are counted: the floors, the meter and the log line. Each
step makes the twiddle after its factor's forward transforms and drops
it with the factor spectra, before its last inverse, and the products
are formed in blocks over x's spectra where they are not kept.

The certificate. Percival (C. Percival, Math. Comp. 72 (2003), 387-395)
bounds the error of a radix-2 float convolution of length N = 2^m by
||x||_2 ||y||_2 gamma(N), with
gamma = (1+eps)^(3m) (1+eps sqrt5)^(3m+1) (1+beta)^(3m) - 1, eps = 2^-53
and beta the error of the twiddle factors. Before the inverse of sum s is
used, sum_{i+j=s} ||x_i||_2 ||y_j||_2 gamma(C) must be below 1/4. Each
limb's squared norm is bounded by one rule (_limb_norms) from what is
known of its side: the bits of its largest entry, its mass and, when the
side is one int64 array, its exact squared norm (countvec.sum_of_squares).
No limb is cut to be measured. The bound is taken at C, and it bounds
each phase of a product run at C/2. The even phase errs by at most
(||x_e|| ||y_e|| + ||x_o|| ||y_o||) gamma(C/2) from its two products, plus
what the twiddle adds to the second, and by Cauchy-Schwarz
||x_e|| ||y_e|| + ||x_o|| ||y_o|| <= ||x|| ||y|| (the odd phase likewise).
The gap gamma(C) - gamma(C/2) = (6 + 3 sqrt5) eps, about 12.7 eps to
first order, covers the twiddle's error (at most 3.6 eps measured, from
its rounded angle and sine and cosine), its complex multiply (sqrt5 eps)
and the add. So every entry of a phase errs by less than 1/4 and rounds
exactly, and the fold adds integers. The limb width b of a step is the
widest that certifies every sum under these bounds; it is not a setting.
What is assumed of numpy's pocketfft: at the power-of-two length C/2 its
real transforms err no more than Percival's radix-2 transform with
correctly rounded twiddles (beta = eps). That is not proved here. It is
measured by fft_error_ratios, which `fplab selftest` runs on the
installed numpy, and the rounding residual of each phase of every
inverse is still checked: a residual above 0.25, far beyond anything the
bound allows in practice, raises ConsistencyError.

Packed products. The only step of a one-step chain (k = 2) runs as one
real FFT product at C/2 where its own certificate holds, in place of the
phase pairs. It is a branch of the executor's step loop, fed the two
sides (bits, mass, exact squared norm) the step has already taken.
With x = x_e(t^2) + t x_o(t^2) as above, pack x' = x_e + 2^w x_o into one
int64 vector of ceil(n/2) entries, and y' likewise (y' = x' when y is
x, whose spectrum is then squared). Then x'y' = P0 + 2^w P1 + 2^(2w) P2,
with P0 = x_e y_e, P1 = x_e y_o + x_o y_e and P2 = x_o y_o. Every entry
of each P is an entry of the linear product x y or a part of one, so by
Cauchy-Schwarz at most ||x|| ||y||. The radix 2^w, w the bit length of
ceil(||x|| ||y||) from the exact squared norms, is therefore above every
entry, and the digits of the rounded x'y' separate exactly: the even
phase is P0[m] + P2[m-1] and the odd phase is P1[m], which _fold takes
as it takes the phases. No twiddle is made. The product runs packed only
where each side's entries have at most 62 - w bits, so x' and y' fit
int64, and where ||x'|| ||y'|| gamma(C/2) < 1/4, Percival's bound for a
plain real product at the power-of-two length C/2 under the same
assumption on pocketfft as below; that bound also keeps x'y' below 2^51,
exact in float64. The residual of its one inverse is checked against
0.25 like every other. Each packed real FFT counts as one transform, so
a packed step runs 3 (2 when y is x), its floor. Otherwise the step runs
as phase pairs, from the same two sides; the certificate makes the
choice, not a setting.

The order. _float_chain walks the cyclic order in place: step t, for
t = 1 to k - 1, multiplies x (input 0 in step 1, then the product so far,
which lives in a local) by y, input t, and the planner's floors (_floors)
take the same order. One function, _transforms, gives the transforms a
phase-pair step runs from x's limbs, y's limbs and whether y's spectrum
is already made; the floors, the meter and the packed step all read it.

Spectra. An input array carries an id, the first position of that array
in the layout (_ids). The executor clears each slot of its input list as
it reads it, so an input array is dropped at its id's last read, and a
factor no one else holds is freed as the chain goes. An input read whole
(one limb) keeps its phase spectra while a later factor reads its id; its
id's last read ends them, also when that read is split. So [u]*2
transforms u once: x's spectrum is made first and y finds it. The spectra
of a split side's limbs are streamed, each made when the first sum that
needs it comes up, and x's are multiplied in place on their last sum
unless they are kept.

One work model: a transform costs C * log2(C) units, and each step of
the chain has a run floor (_floors), the transforms it runs at least
whatever its sides hold, from the executor's own width rule at the least
its masses allow. plan_convolution is the only source of a plan, and
k_fold_count plans every call itself. The planner refuses a request
whose floors' work passes the budget ("needs at least"), and picks the
support-pair route, which costs its pairs, where PAIR_COST times those is
no more than the floors' work. The chain meters what it runs: before
each step it knows the step's width and limbs from its real sides, and
so the transforms the step runs, and it refuses when those run so far,
plus this step's, plus the floors of the rest, pass the budget. So no
run passes the budget: a request is refused before any transform when
its floors pass it, and otherwise at the latest before the step that
would. A step that runs fewer transforms than its floor is a
ConsistencyError. Planning logs nothing; the float route logs one line
when it runs: its length C and phase length C/2, its steps, the limbs
and width of each (a packed step as packed@2^w, its radix), the
transforms run and the sum of the floors, the largest certified bound
and the largest rounding residual.

The prime-length Fourier transform (for complete exponential-sum tables)
runs Rader's algorithm at an odd prime length n: numbering the units by
the powers of a primitive root turns it into two real correlations of
length h = (n-1)/2, a cyclic one for the real parts and a negacyclic one
for the imaginary parts. Each is read off a linear correlation with a
kernel of length n - 2, by real FFTs at the smallest 2^a * 3^b length
L >= n - 2 (pocketfft's radix 3 runs about as fast as its radix 2).
Its input is real, so hat_u[n-c] = conj hat_u[c], and a complex input is
refused; a length that is not an odd prime is a DomainError.
Buffers: the powers of the root and the spectra of the two kernels are
cached once per length. A call gathers its two sides as h floats each,
runs one rfft and one irfft for each, keeps the h rows of each and
allocates its output last.

Buffers on glibc. numpy's FFT allocates its scratch on every call, and
glibc maps a request above its mmap threshold afresh, so every call at
2^20 mapped and faulted in 16 MiB. Once per process, before the first
transform whose float64 input is 4 MiB or more, _hold_heap sets glibc's
M_MMAP_THRESHOLD to 32 MiB (its own cap on 64-bit) and M_TRIM_THRESHOLD
to 64 MiB, so scratch below 2^21 comes from pages the process holds.
Smaller runs never switch: set from the start, the thresholds raised the
T_6 fixture's peak. Nor do a sweep's worker threads: glibc gives each
thread an arena, and with the thresholds held each keeps its freed
scratch. Once switched, _join trims the heap before it builds its object
array, whose Python ints live outside it.
"""

from __future__ import annotations

import logging
import math
import os
import threading
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import isqrt, prod
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from .countvec import CountVector, sum_of_squares
from .errors import DEFAULT_BUDGET, BudgetError, ConsistencyError, DomainError, integer
from .modfield import find_primitive_root, is_prime, power_table

log = logging.getLogger(__name__)

# Cost of one support pair in transform work units (one unit is one of the
# N*log2(N) steps of a transform). Measured on 2 x86 vCPUs with numpy 2.4 at
# n = 10^4..10^6: 8-16 ns per pair against 0.8-1.4 ns per unit.
PAIR_COST = 10
_PAIR_BLOCK = 1 << 22          # support pairs scattered per block
_WORD = 62                     # widest limb or digit: every one is an int64 array
_BLOCK = 1 << 16               # spectrum entries multiplied per block
_HEAP_SWITCH = 4 << 20         # bytes of transform input that switch the heap policy on
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters
# the heap policy's state: process-wide, as the thresholds it sets are
_heap_switched = False
_libc = None                   # the C library, once the policy has set its thresholds


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def _hold_heap(nbytes: int) -> None:
    """The heap policy (module docstring), switched on by the first transform of `nbytes` >= 4 MiB.

    It switches once per process, on the main thread alone, and logs one
    INFO line with mallopt's two return values (1 where a value is taken).
    Where the C library is not glibc or has no mallopt, nothing is set and
    nothing is logged.
    """
    global _heap_switched, _libc
    if (_heap_switched or nbytes < _HEAP_SWITCH
            or threading.current_thread() is not threading.main_thread()):
        return
    _heap_switched = True
    try:
        import ctypes
        os.confstr("CS_GNU_LIBC_VERSION")  # defined on glibc alone
        libc = ctypes.CDLL(None)
        libc.mallopt.argtypes, libc.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        libc.malloc_trim.argtypes, libc.malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
        mmap = libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        trim = libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    except (OSError, AttributeError, TypeError, ValueError):
        return
    _libc = libc
    log.info("heap held for transforms of %d bytes and more: mallopt(M_MMAP_THRESHOLD, "
             "32 MiB) returned %d, mallopt(M_TRIM_THRESHOLD, 64 MiB) returned %d",
             _HEAP_SWITCH, mmap, trim)


@dataclass(frozen=True)
class ConvolutionPlan:
    """How a convolution will run: strategy, length, floors and budget."""

    strategy: str                  # "direct" | "float"
    # C = next_pow2(2n-1) for "float", 0 for "direct": the length the work
    # and the certificate are taken at. The chain runs every product at C/2,
    # as phase pairs or as one packed product (module docstring).
    fft_length: int
    floors: tuple[int, ...]        # each float step's run floor (_floors), () for "direct"
    budget: int                    # the budget the plan was admitted under, which the chain meters
    moduli: tuple[int, ...] = ()   # always empty: no route works modulo primes


def plan_convolution(n: int, masses: Sequence[int], budget: int | None = None,
                     layout: Sequence[Hashable] | None = None) -> ConvolutionPlan:
    """Select the cheapest exact strategy for a k-fold length-n convolution.

    This is the one source of a plan. `layout` names each factor's array,
    equal names marking one array (default: k distinct arrays). The float
    chain's work is priced at its run floors (_floors), the transforms
    each step runs at least, times C*log2(C). The support-pair route exists
    where the product of all masses, which bounds every output entry (the
    total number of tuples), is below 2^63; it costs pair_work, the pairs
    it visits at most, each support being capped by its mass and by n, and
    it is chosen when PAIR_COST * pair_work is no larger than the floors'
    work. A route whose own work exceeds the budget is passed over; the
    call is refused only when none fits, with `required` the smaller need,
    the floors' work being a lower bound ("needs at least", naming C and
    the floors by step). An admitted float plan carries its floors and the
    budget, which the chain meters as it runs. Whether the product of the masses reaches 2^63 is read from a
    product capped there (_pair_work); no plan forms the product itself.
    n must be a positive integer, each mass an integer >= 0, and a layout
    must name one array per mass: anything else is a DomainError. Planning
    has no side effects: it logs nothing and allocates nothing of length n.
    """
    n, k = integer("n", n, low=1), len(masses)
    if k < 1:
        raise DomainError("no factors to convolve")
    masses = [integer("mass", m, low=0) for m in masses]
    keys = list(range(k)) if layout is None else list(layout)
    if len(keys) != k:
        raise DomainError(f"the layout names {len(keys)} arrays for {k} factors")
    size = _next_pow2(2 * n - 1)
    limit = DEFAULT_BUDGET if budget is None else integer("budget", budget, low=0)
    pair_work = _pair_work(n, masses)
    floors = tuple(_floors(n, masses, keys, size))
    floor_work = sum(floors) * size * (size.bit_length() - 1)
    if pair_work is not None and pair_work <= limit and (PAIR_COST * pair_work <= floor_work
                                                         or floor_work > limit):
        return ConvolutionPlan("direct", 0, (), limit)
    if floor_work > limit:  # neither route fits: refuse with the smaller need
        if pair_work is not None and pair_work < floor_work:
            raise BudgetError(f"support-pair convolution needs {pair_work} operations, budget is "
                              f"{limit}", required=pair_work)
        shown = [str(f) for f in floors]
        shown[6:-6] = ["..."] if k > 13 else shown[6:-6]  # a long chain's first and last six
        raise BudgetError(f"float transform convolution needs at least {floor_work} operations: "
                          f"{sum(floors)} transforms ({', '.join(shown)}) at "
                          f"2^{size.bit_length() - 1}, budget is {limit}", required=floor_work)
    return ConvolutionPlan("float", size, floors, limit)


def _pair_work(n: int, masses: Sequence[int]) -> int | None:
    """Upper bound on the support pairs the direct route visits, factor by factor.

    None where the product of the masses reaches 2^63, past which int64
    accumulation is not exact. That product is formed capped at 2^63, so
    this test never multiplies out many masses, and once it reaches 2^63
    the walk stops, unless a zero mass would bring it back to 0.
    """
    support, work, bound, zero = min(masses[0], n), 0, min(masses[0], 1 << 63), 0 in masses
    for m in masses[1:]:
        if bound == 1 << 63 and not zero:
            return None
        pairs = support * min(m, n)
        work += pairs
        support, bound = min(pairs, n), min(bound * m, 1 << 63)
    return work if bound < 1 << 63 else None


# ---------------------------------------------------------------------------
# the float chain's steps: ids, transforms and floors


def _ids(keys: Iterable[Hashable]) -> list[int]:
    """Each factor's id: the first position of its array (its key) in the layout."""
    first = {}
    return [first.setdefault(key, i) for i, key in enumerate(keys)]


def _transforms(x_limbs: int, y_limbs: int, y_made: bool) -> int:
    """The transforms a phase-pair step runs, with y's spectrum already made or not.

    Each limb of x is transformed (no spectrum of x is made before its
    step), and each of y's unless its spectrum is made; each of the
    x_limbs + y_limbs - 1 limb-index sums is inverted once. A packed step
    runs it at one limb each: 3, or 2 when y is x.
    """
    return 2 * x_limbs + y_limbs - 1 + (0 if y_made else y_limbs)


def _least(mass: int, n: int) -> tuple[int, int, int]:
    """The side (bits, mass, whole) at the least a mass on Z_n allows, as _limb_norms takes it.

    Some entry is at least ceil(mass/n), so the largest has at least its
    bits, and by Cauchy-Schwarz the squared norm is at least ceil(mass^2/n).
    """
    return (-(-mass // n)).bit_length(), mass, -(-mass * mass // n)


def _floors(n: int, masses: list[int], keys: list, size: int) -> Iterator[int]:
    """Each step's run floor: the transforms the float chain runs at least at that step.

    The floor of step t is _transforms at x's least limbs,
    L = ceil(bits(ceil(m_x/n)) / b_max), m_x the mass of x (input 0 in
    step 1, then the product so far), with y as one limb, made when an
    earlier factor read y's array: 2L, plus one when none did. The proof,
    for any sides of these masses:
    - The executor takes the width from its sides (bits, mass, exact
      squared norm). Every term of limb 0's bound (_limb_norms) is
      nondecreasing in the bits and the norm (a side with no exact norm
      drops that term), so from the least sides (_least) the bound is at
      most the executor's at every width, and so is the low limbs' term
      (s = 0) of the certificate.
    - That term never falls as the width grows. So at every width past
      b_max, the widest at which it passes from the least sides
      (_low_width), it fails from the executor's sides too, and the full
      certificate, never below it, fails: the executor's width is at most
      b_max, or b_max spans the least bits of both sides and the floor
      counts x as one limb.
    - So x has at least L limbs. No spectrum of x exists before its step,
      so each limb is transformed, and each limb-index sum is inverted:
      at least as many inverses as x has limbs. y's spectrum can be kept
      only if an earlier factor read its array; otherwise y is
      transformed at least once, and more limbs of y only add
      transforms. A packed step runs this floor at one limb.
    Cost at any k: limb 0's bound from a mass m is the same for every
    m >= n * 2^62, so each mass is capped there for the width, and a run of
    equal capped sides searches the width once. The product of the masses
    is carried as mant * 2^shift, mant truncated to its top bits once it
    passes 2^64 times the cap: exact until then, and after it a lower bound
    above the cap, whose ceil(m_x/n) has at least the bits of
    floor(mant/n) * 2^shift. A zero mass makes the product exact again:
    mant = 0, shift = 0. So a floor stays a floor, and no product of many
    masses is formed.
    """
    ids, gamma, cap = _ids(keys), _gamma(size), n << _WORD
    top = cap.bit_length() + 64  # mant's bits once it is truncated
    mant, shift, last, b = masses[0], 0, None, 1
    for t in range(1, len(ids)):
        capped = (cap if shift else min(mant, cap), min(masses[t], cap))
        if capped != last:
            b, last = max(1, _low_width(*(_least(m, n) for m in capped), n, gamma)), capped
        bits = (mant // n if shift else -(-mant // n)).bit_length() + shift
        yield _transforms(_limb_count(bits, b), 1, ids[t] < t)
        mant *= masses[t]
        drop = max(0, mant.bit_length() - top)
        mant, shift = mant >> drop, shift + drop if mant else 0  # a zero product is exact


# ---------------------------------------------------------------------------
# the certificate: Percival's bound from bounds on the limb norms


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


def _limb_norms(b: int, bits: int, mass: int, n: int,
                whole: int | None = None) -> Iterator[int]:
    """Bounds on the squared l2 norms of the b-bit limbs of a side, limb 0 first.

    The side is a nonnegative vector on Z_n whose entries have at most
    `bits` bits and sum to `mass`; `whole`, when given, is its exact
    squared norm. Limb i has entries at most D = min(top >> b*i, 2^b - 1),
    top = min(mass, 2^bits - 1), a mass of at most mass >> b*i, and it is
    entrywise at most the side, so its squared norm is at most
    min((mass >> b*i) * D, n * D^2, whole).
    """
    top = min(mass, (1 << bits) - 1)
    for i in range(_limb_count(bits, b)):
        d = min(top >> (b * i), (1 << b) - 1)
        norm = min((mass >> (b * i)) * d, n * d * d)
        yield norm if whole is None else min(norm, whole)


def _ceil_sqrt(v: int) -> int:
    return isqrt(v - 1) + 1 if v else 0


def _sum_bound(xs: list[int], ys: list[int]) -> int:
    """max over s of sum_{i+j=s} ||x_i|| ||y_j||, each term rounded up, from squared norms."""
    sums = [0] * (len(xs) + len(ys) - 1)
    for i, a in enumerate(xs):
        for j, c in enumerate(ys):
            sums[i + j] += _ceil_sqrt(a * c)
    return max(sums)


def _certified(x: tuple, y: tuple, n: int, gamma: float, b: int,
               count: int | None = None) -> float:
    """gamma times the largest sum over the first `count` limbs of each side at width b (all: None).

    x and y are the sides' (bits, mass, whole), as _limb_norms takes them.
    """
    xs, ys = (list(islice(_limb_norms(b, bits, mass, n, whole), count))
              for bits, mass, whole in (x, y))
    return _sum_bound(xs, ys) * gamma


def _low_width(x: tuple, y: tuple, n: int, gamma: float) -> int:
    """The widest width at which the low limbs' term (s = 0) certifies, 0 if none.

    Widths run up to where both sides are one limb, or to _WORD. Limb 0's
    bound is a minimum of terms that never fall as b grows (`whole` a
    constant among them), so that term never falls either, and bisection
    finds the widest width at which it passes. The full certificate is
    never below it, so no wider width certifies.
    """
    widths = range(1, min(_WORD, max(1, x[0], y[0])) + 1)
    return bisect_left(widths, True, key=lambda b: _certified(x, y, n, gamma, b, 1) >= 0.25)


def _width(x: tuple, y: tuple, n: int, gamma: float) -> tuple[int, float]:
    """(b, certified bound): the widest limb width whose every sum certifies.

    The full certificate is checked from _low_width down. Width 1
    certifies at any desk-scale n, since its limbs are 0/1 vectors.
    """
    for b in range(_low_width(x, y, n, gamma), 0, -1):
        worst = _certified(x, y, n, gamma, b)
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


def _side(digits: list[np.ndarray], width: int, mass: int) -> tuple[int, int, int | None]:
    """(bits, mass, whole) of sum_i digits[i] * 2^(width*i), as _limb_norms takes them.

    The exact squared norm `whole` is taken only when the side fits one
    int64 array.
    """
    bits = _bits(digits, width)
    whole = sum_of_squares(_limb(digits, width, _WORD, 0, 1)) if bits <= _WORD else None
    return bits, mass, whole


def _join(digits: list[np.ndarray], width: int, bound: int) -> np.ndarray:
    """The exact vector: int64 below a coefficient bound of 2^62, else Python ints.

    Above, the digits regroup into 62-bit words that are joined by Horner in
    place on an object array; `word + radix * out` would hold a second
    full-length object array. Each word is added as its int64 array, which
    numpy converts in buffered chunks, not as an object copy.
    """
    if bound < 1 << _WORD:
        return _limb(digits, width, _WORD, 0, 1)
    if _libc is not None:  # the Python ints live outside the heap: return its free pages first
        _libc.malloc_trim(0)
    count = _limb_count(_bits(digits, width), _WORD)
    out = _limb(digits, width, _WORD, count - 1, count).astype(object)
    for j in range(count - 2, -1, -1):
        out *= 1 << _WORD
        out += _limb(digits, width, _WORD, j, count)
    return out


# ---------------------------------------------------------------------------
# the two convolution routes


def _fold(even: np.ndarray, odd: np.ndarray, n: int) -> np.ndarray:
    """Wrap a linear result onto Z_n from its phases: entry 2m is even[m], 2m+1 is odd[m].

    The result has 2n-1 entries, so even holds n and odd n-1. Entry n+i
    wraps onto i, and n+i has the parity of i exactly when n is even.
    """
    out = np.empty(n, dtype=even.dtype)
    evens, odds = out[0::2], out[1::2]
    evens[:] = even[:evens.size]
    odds[:] = odd[:odds.size]
    low, high = (evens, odds) if n % 2 == 0 else (odds, evens)
    low += even[evens.size:]
    high[:(n - 1) // 2] += odd[odds.size:]
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


def _rounded(phase: np.ndarray) -> tuple[np.ndarray, float]:
    """(int64 counts, rounding residual) of one phase of an inverse, which is overwritten."""
    rounded = np.rint(phase)
    phase -= rounded
    residual = float(np.abs(phase, out=phase).max(initial=0.0))
    if residual > 0.25:
        raise ConsistencyError(
            f"float convolution rounding residual {residual:.3g} exceeds 0.25")
    return rounded.astype(np.int64), residual


def _packed(x: list[np.ndarray], y: list[np.ndarray], x_side: tuple, y_side: tuple, n: int,
            half: int) -> tuple[np.ndarray, int, float, float] | None:
    """(x * y on Z_n, radix bits w, certified bound, residual) of one-array sides, packed.

    One real product of the packed operands; see the module docstring. x
    and y each hold their side's one int64 array, and x_side and y_side
    are their (bits, mass, exact squared norm), as _side gives them. None
    where it does not certify, with x and y untouched. Otherwise both are
    cleared once packed, so a factor no one else holds is freed before the
    transforms. When y is x, its one spectrum is squared.
    """
    (x_bits, _, x_norm), (y_bits, _, y_norm) = x_side, y_side
    w = _ceil_sqrt((x_norm or 0) * (y_norm or 0)).bit_length()  # no norm: past 62 bits
    if max(x_bits, y_bits) + w > _WORD:  # a packed entry could pass 2^63
        return None
    packs = []
    for side in (x, y)[:1 if y[0] is x[0] else 2]:
        pack = np.zeros((n + 1) // 2, dtype=np.int64)
        pack[:n // 2] = side[0][1::2]
        pack <<= w
        pack += side[0][0::2]
        packs.append(pack)
    norms = [sum_of_squares(pack) for pack in packs]
    bound = _ceil_sqrt(norms[0] * norms[-1]) * _gamma(half)
    if bound >= 0.25:
        return None
    del x[:], y[:]
    spectrum = np.fft.rfft(packs.pop(0), half)
    spectrum *= np.fft.rfft(packs.pop(), half) if packs else spectrum
    z, residual = _rounded(np.fft.irfft(spectrum, half)[:n])
    spectrum = None
    mask = (1 << w) - 1
    odd = z[:n - 1] >> w
    odd &= mask
    top = z[:n - 1] >> 2 * w
    z &= mask
    z[1:] += top  # P2 lands one place up in the even phase
    top = None
    return _fold(z, odd, n), w, bound, residual


def _phases(limb: np.ndarray, half: int) -> tuple[np.ndarray, np.ndarray]:
    """A limb's phase spectra: the real FFTs at `half` of its even and of its odd entries."""
    return np.fft.rfft(limb[0::2], half), np.fft.rfft(limb[1::2], half)


def _twiddle(half: int) -> np.ndarray:
    """e^(-2 pi i k / half) for k = 0..half//2: a shift by one place at length `half`.

    Where 8 divides half, cos and sin are taken for k <= half/8 only: the
    angles are formed in the imaginary half of those entries, their
    cosines written to its real half and their sines taken in place. The
    rest are filled by the exact reflections w_{half/4-k} = -i conj(w_k)
    and w_{half/2-k} = -conj(w_k), which only swap and negate, so each
    entry errs exactly as the one it reflects.
    """
    twiddle = np.empty(half // 2 + 1, dtype=np.complex128)
    octant = half // 8 if half % 8 == 0 else half // 2
    head = twiddle[:octant + 1]
    np.multiply(np.arange(octant + 1), -2 * np.pi / half, out=head.imag)
    np.cos(head.imag, out=head.real)
    np.sin(head.imag, out=head.imag)
    if octant < half // 2:
        re, im, quarter = twiddle.real, twiddle.imag, half // 4
        np.negative(im[:octant], out=re[quarter:octant:-1])
        np.negative(re[:octant], out=im[quarter:octant:-1])
        np.negative(re[:quarter], out=re[2 * quarter:quarter:-1])
        im[2 * quarter:quarter:-1] = im[:quarter]
    return twiddle


def _phase_product(x: tuple, y: tuple, twiddle: np.ndarray,
                   overwrite: bool) -> tuple[np.ndarray, np.ndarray]:
    """The phase spectra (even, odd) of x * y, from the phase spectra of x and of y.

    even = x_e y_e + twiddle * x_o y_o and odd = x_e y_o + x_o y_e, formed
    _BLOCK entries at a time, so no temporary is longer than a block. They
    are written over x's spectra when `overwrite`, and y's are never
    written; each block is read whole before it is written, so y may be x.
    """
    (xe, xo), (ye, yo) = x, y
    even, odd = (xe, xo) if overwrite else (np.empty_like(xe), np.empty_like(xo))
    for lo in range(0, xe.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        shifted = xo[block] * yo[block]
        shifted *= twiddle[block]
        e = xe[block] * ye[block]
        e += shifted
        o = np.multiply(xe[block], yo[block], out=shifted)
        o += xo[block] * ye[block]
        even[block], odd[block] = e, o
    return even, odd


def _float_chain(arrays: list, masses: list[int], n: int,
                 plan: ConvolutionPlan) -> np.ndarray:
    """The chain of certified two-factor float products; see the module docstring.

    masses[t] is the sum of arrays[t]. Step t multiplies x, arrays[0] in
    step 1 and then the product so far, by y = arrays[t]. Each entry of
    `arrays` is cleared as it is read, so an input array is dropped at its
    id's (_ids) last read, and a factor no one else holds is freed as the
    chain goes. x's mass, the product of the masses so far, is the bound
    the last digits join at. Before each phase-pair step the meter knows
    the transforms it will run (_transforms, from its width and limbs): it
    raises BudgetError when those run so far, plus this step's, plus the
    floors of the steps after it, pass plan.budget. A packed step runs its
    floor, which the planner admitted. A step that runs fewer transforms
    than its floor is a ConsistencyError. Logs what it ran.
    """
    size = plan.fft_length
    half = max(1, size // 2)  # the phase length; C = 1 only at n = 1
    _hold_heap(8 * half)
    gamma, unit = _gamma(size), size * (size.bit_length() - 1)
    ids = _ids(id(a) for a in arrays)
    last = {i: t for t, i in enumerate(ids)}  # each id's last read
    kept = {}  # id -> phase spectra of an input read whole that a later factor reads
    x_id, x_mass, x_width = 0, masses[0], _WORD  # x_id: None once x is a product
    x_digits, arrays[0] = [arrays[0]], None
    run, steps, certified, residual = 0, [], 0.0, 0.0
    rest = sum(plan.floors)  # the floors of the steps not yet begun
    for t, floor in zip(range(1, len(masses)), plan.floors, strict=True):
        rest -= floor
        y_id = ids[t]
        y_digits, arrays[t] = [arrays[t]], None
        x_side, y_side = _side(x_digits, x_width, x_mass), _side(y_digits, _WORD, masses[t])
        x_mass *= masses[t]  # from here on, the mass of the product this step makes
        if len(masses) == 2 and (packed := _packed(x_digits, y_digits, x_side, y_side, n, half)):
            z, w, certified, residual = packed
            x_digits, x_width, run = [z], _WORD, _transforms(1, 1, y_id == x_id)
            steps.append((f"packed@2^{w}", run))
            continue
        b, bound = _width(x_side, y_side, n, gamma)
        x_limbs, y_limbs = _limb_count(x_side[0], b), _limb_count(y_side[0], b)
        y_made = y_limbs == 1 and (y_id in kept or y_id == x_id)
        transforms = _transforms(x_limbs, y_limbs, y_made)
        if (need := (run + transforms + rest) * unit) > plan.budget:
            raise BudgetError(f"float transform convolution needs at least {need} operations "
                              f"before step {t} of {len(plan.floors)}: {run} transforms run, "
                              f"{transforms} in this step and {rest} at the floors of the rest at "
                              f"2^{size.bit_length() - 1}, budget is {plan.budget}", required=need)
        live = {0: _phases(_limb(x_digits, x_width, b, 0, x_limbs), half)}
        if x_limbs == 1:  # x's array is not held here beside y's transforms
            x_digits = None
            if x_id is not None and last[x_id]:  # input 0 read whole, and read again
                kept[x_id] = live[0]
        ys = [kept[y_id] if y_made else _phases(_limb(y_digits, _WORD, b, j, y_limbs), half)
              for j in range(y_limbs)]
        if y_limbs == 1 and last[y_id] > t:
            kept[y_id] = ys[0]
        y_digits, twiddle = None, _twiddle(half)
        kept = {i: v for i, v in kept.items() if last[i] > t}  # none outlives its id's last read
        parts = []
        for s in range(x_limbs + y_limbs - 1):
            if 0 < s < x_limbs:
                live[s] = _phases(_limb(x_digits, x_width, b, s, x_limbs), half)
            z = None
            for i in range(max(0, s - y_limbs + 1), min(s, x_limbs - 1) + 1):
                final = i == s - y_limbs + 1  # the last sum that uses x_i
                x_spec = live.pop(i) if final else live[i]
                term = _phase_product(x_spec, ys[s - i], twiddle, final and x_id not in kept)
                z = term if z is None else tuple(np.add(a, c, out=a) for a, c in zip(z, term))
                term = x_spec = None
            if s == x_limbs + y_limbs - 2:  # the factor spectra and the twiddle are spent
                ys = twiddle = None
            (even, odd), z = z, None
            even, res_even = _rounded(np.fft.irfft(even, half)[:n])
            odd, res_odd = _rounded(np.fft.irfft(odd, half)[:n - 1])
            parts.append(_fold(even, odd, n))
            even = odd = None
            residual = max(residual, res_even, res_odd)
        x_digits = parts if len(parts) == 1 else _carry(parts, b)
        x_id, x_width, parts = None, b, None
        run += transforms
        steps.append((f"{x_limbs}x{y_limbs}@{b}", transforms))
        certified = max(certified, bound)
    if any(ran < floor for (_, ran), floor in zip(steps, plan.floors)):
        raise ConsistencyError(f"float chain steps ran {[ran for _, ran in steps]} transforms, "
                               f"under their floors {list(plan.floors)}")
    log.info("float convolution at length %d (phases at %d): %d step(s) %s "
             "(limbs x limbs @ width), %d transforms run, floor %d, certified bound %.3g, "
             "largest residual %.3g", size, half, len(steps),
             " ".join(text for text, _ in steps), run, sum(plan.floors), certified, residual)
    return _join(x_digits, x_width, x_mass)


def _run(arrays: list, masses: list[int], n: int, plan: ConvolutionPlan) -> np.ndarray:
    """The convolution over Z_n of int64 factor arrays of these masses, run as `plan` says.

    k_fold_count's executor. The float chain clears each entry of `arrays`
    as it reads it.
    """
    if plan.strategy == "direct":
        return _pair_kfold(arrays, n)
    return _float_chain(arrays, masses, n, plan)


def k_fold_count(vectors: Sequence[CountVector], *, budget: int | None = None) -> CountVector:
    """The k-fold cyclic convolution of length-n count vectors, exactly.

    plan_convolution plans the call for the vectors' masses and distinct
    arrays, refusing it before any transform runs when no route fits the
    budget; the plan then runs as support pairs or as the float chain,
    whose meter refuses before a step that would pass the budget.
    Total mass is verified against the product of input masses on every
    call. Fewer than two factors is a DomainError.
    """
    if len(vectors) < 2:
        raise DomainError("k-fold convolution needs at least two factors")
    n = vectors[0].p
    if any(v.p != n for v in vectors):
        raise ConsistencyError("count vectors have mismatched lengths")
    masses = [v.total for v in vectors]
    plan = plan_convolution(n, masses, budget, layout=[id(v.counts) for v in vectors])
    if any(v.counts.dtype != np.int64 for v in vectors):
        raise ConsistencyError("input count vectors must be 64-bit backed")
    arrays = [v.counts for v in vectors]
    del vectors  # a factor the caller holds no more is freed after its step
    return CountVector(_run(arrays, masses, n, plan), expected_total=prod(masses))


def fft_error_ratios() -> list[tuple[int, float, float]]:
    """(C, phase-pair ratio, packed ratio) for C = 2^8..2^12: pocketfft against Percival's bound.

    The certificate's one assumption (module docstring), measured on the
    installed numpy against the exact int64 np.convolve. A ratio is the
    worst error of a length's products over the bound the certificate
    takes for them, over three seeded families of sides: random 20-bit
    entries, the constant 2^20 - 1, and random entries from {0, 2^20 - 1}.
    The phase pair multiplies two sides of n = C/2 entries as the chain
    does, with _phases, _twiddle and _phase_product, against
    ||x|| ||y|| gamma(C).
    The packed product is one real product at C/2 of sides of
    ceil(n/2) = n/2 entries, as _packed runs it, against
    ||x'|| ||y'|| gamma(C/2). Every certified product assumes both ratios
    below 1.
    """
    rng, top = np.random.default_rng(0), (1 << 20) - 1
    families = (lambda size: rng.integers(0, top + 1, size),
                lambda size: np.full(size, top, dtype=np.int64),
                lambda size: rng.integers(0, 2, size) * top)

    def ratio(z: np.ndarray, x: np.ndarray, y: np.ndarray, length: int) -> float:
        error = float(np.abs(z - np.convolve(x, y)).max())
        return error / (math.sqrt(sum_of_squares(x) * sum_of_squares(y)) * _gamma(length))

    rows = []
    for size in (1 << m for m in range(8, 13)):
        half = n = size // 2
        phase = packed = 0.0
        for draw in families:
            x, y = draw(n), draw(n)
            even, odd = _phase_product(_phases(x, half), _phases(y, half), _twiddle(half), False)
            z = np.empty(2 * n - 1)
            z[0::2], z[1::2] = np.fft.irfft(even, half)[:n], np.fft.irfft(odd, half)[:n - 1]
            phase = max(phase, ratio(z, x, y, size))
            x, y = x[:n // 2], y[:n // 2]
            spectrum = np.fft.rfft(x, half)
            spectrum *= np.fft.rfft(y, half)
            packed = max(packed, ratio(np.fft.irfft(spectrum, half)[:n - 1], x, y, half))
        rows.append((size, phase, packed))
    return rows


# ---------------------------------------------------------------------------
# prime-length discrete Fourier transform (positive-sign convention)


def _smooth_length(n: int) -> int:
    """The smallest 2^a * 3^b that is at least n."""
    best, three = _next_pow2(n), 1
    while three < best:
        best = min(best, three * _next_pow2(-(-n // three)))
        three *= 3
    return best


@lru_cache(maxsize=4)
def _rader_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(e - 1, cos kernel spectrum, sin kernel spectrum, L) for an odd prime n.

    e[m] = g^m mod n for m < h = (n-1)/2, g = find_primitive_root(n); the
    table keeps e - 1, so that x[1:][e - 1] = x[e] and x[:0:-1][e - 1] =
    x[n - e] index without a temporary. The kernels have length n - 2:
    cos(2*pi*e[j mod h]/n), and sigma(j) = sin(2*pi*e[j]/n) for j < h,
    -sin(2*pi*e[j-h]/n) for j >= h. Each is laid into one zeroed float
    array of length L = _smooth_length(n - 2) and its rfft kept.
    """
    h, size = (n - 1) // 2, _smooth_length(n - 2)
    e = power_table(find_primitive_root(n), h, n).view(np.int64)
    kernel, spectra = np.zeros(size), []
    for trig, sign in ((np.cos, 1.0), (np.sin, -1.0)):
        np.multiply(e, 2 * np.pi / n, out=kernel[:h])
        trig(kernel[:h], out=kernel[:h])
        np.multiply(kernel[:h - 1], sign, out=kernel[h:n - 2])
        spectra.append(np.fft.rfft(kernel))
    e -= 1
    return e, spectra[0], spectra[1], size


def _correlation_rows(spec: np.ndarray, kernel_hat: np.ndarray, size: int, h: int) -> np.ndarray:
    """c[a] = sum_m x[m] * K[a + m] for a < h, from the rffts of x and K at size.

    spec, the rfft X of x, is turned into conj(X) * K's spectrum in place.
    Every a + m <= 2h - 2 = n - 3 < size, so no term wraps around.
    """
    np.conjugate(spec, out=spec)
    spec *= kernel_hat
    return np.fft.irfft(spec, size)[:h].copy()


def length_p_transform(u: np.ndarray) -> np.ndarray:
    """W[c] = sum_lam u[lam] * exp(2*pi*i*c*lam/n) for a real u of odd prime length n.

    Rader's algorithm. Let g be a primitive root mod n, h = (n-1)/2 and
    e[m] = g^m mod n for m < h. g^h is a square root of 1 other than 1,
    so g^h = -1 and g^(m+h) = n - e[m]: the units are e and n - e, each
    once. With z(j) = exp(2*pi*i*g^j/n), z(j+h) = conj z(j), so for c = e[a]

        W[c] = u[0] + sum_m u[e[m]] z(a+m) + u[n-e[m]] conj z(a+m)
             = u[0] + sum_m P[m] Re z(a+m) + i * sum_m Q[m] Im z(a+m),

    P = u[e] + u[n-e] and Q = u[e] - u[n-e] real. Re z(j) =
    cos(2*pi*e[j mod h]/n) is h-periodic and Im z(j) = sigma(j) changes
    sign at j = h, so these are the real and imaginary parts of W[e[a]]:
    a cyclic and a negacyclic correlation of length h. Both read kernels
    at a + m <= n - 3 only, so each is one linear correlation with a
    kernel of length n - 2, exact through real FFTs at any L >= n - 2.
    The other rows need no work. For real u, conj W[c] = sum_lam u[lam]
    * exp(-2*pi*i*c*lam/n) = W[n-c], so W[n - e[a]] = conj W[e[a]]; and
    W[0] = sum_lam u[lam], every phase being 1.

    A complex u is a ConsistencyError (its rows n - e are not these
    conjugates) and a length that is not an odd prime a DomainError, both
    before any table is built.
    """
    u = np.asarray(u)
    if np.iscomplexobj(u):
        raise ConsistencyError("the prime-length transform takes a real input")
    n = u.size
    if n % 2 == 0 or not is_prime(n):
        raise DomainError(f"the prime-length transform needs an odd prime length, got {n}")
    e1, cos_hat, sin_hat, size = _rader_tables(n)
    _hold_heap(8 * size)
    h = e1.size
    # each array goes at its last read and the output comes last: that
    # order sets the call's peak
    plus = u[1:][e1].astype(np.float64, copy=False)
    mirror = u[:0:-1][e1]
    minus = plus - mirror
    plus += mirror
    del mirror
    spec = np.fft.rfft(plus, size)
    del plus
    re = _correlation_rows(spec, cos_hat, size, h)
    np.fft.rfft(minus, size, out=spec)
    del minus
    im = _correlation_rows(spec, sin_hat, size, h)
    del spec
    re += u[0]
    w = np.empty(n, dtype=np.complex128)
    w[0] = u.sum()
    up, down = w[1:], w[:0:-1]  # up[e1] is W[e], down[e1] is W[n - e]
    up.real[e1] = re
    up.imag[e1] = im
    down.real[e1] = re
    np.negative(im, out=im)
    down.imag[e1] = im
    return w
