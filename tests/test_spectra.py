import cmath
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fplab import convolve, spectra
from fplab.countvec import CountVector
from fplab.energy import additive_energy_recip, energy_Js, recip_power_counts
from fplab.errors import ConsistencyError, DomainError, ZeroInIntervalError
from fplab.modfield import (PrimeContext, batch_inverse, build_dlog_table, find_primitive_root,
                            is_prime)
from fplab.prodset import product_set, ratio_set
from fplab.sets import (ResidueSet, initial_interval, random_subset, residue_set,
                        set_from_file, shifted_interval)
from fplab.spectra import (burgess_ratio, char_spectrum, complete_sum_table,
                           kloosterman_frac_sum)
from fplab.tkcount import tk_experiment, tk_spectral_check

import oracles


def test_complete_sum_w0_is_exact(ctx):
    c = ctx(1009)
    t = complete_sum_table(initial_interval(500, c), 3, c)
    assert t.W[0] == 500 + 0j


def test_complete_sum_full_interval_inverse(ctx):
    # x -> x^(-1) permutes the units, so each nonzero multiplier sums to -1
    c = ctx(5)
    t = complete_sum_table(initial_interval(4, c), 1, c)
    for ci in range(1, 5):
        assert abs(t.W[ci] - (-1)) < 1e-9


def test_complete_sum_squares_structure(ctx):
    # s = 2 on the full punctured line hits each square twice
    c7 = ctx(7)
    t = complete_sum_table(initial_interval(6, c7), 2, c7)
    expect = 2 * sum(cmath.exp(2j * cmath.pi * r / 7) for r in (1, 2, 4))
    assert abs(t.W[1] - expect) < 1e-9
    # at p = 1 mod 4 the squares are negation-symmetric, so every W[c] is real
    c13 = ctx(13)
    t13 = complete_sum_table(initial_interval(12, c13), 2, c13)
    assert np.abs(t13.W.imag).max() < 1e-9


def _row_gate(p, sum_of_squares, size):
    """Rounding gate of one transform row: log2(L) * 2^-53 * sqrt(p) * ||u||_2.

    L is the length of the FFT behind the row (the 2^a * 3^b length of
    the prime-length transform's correlations, or a power of two), or a
    bound on it, and u the transformed vector; every sampled row error
    measured here is below a tenth of it.
    """
    return math.log2(size) * 2.0 ** -53 * math.sqrt(p) * math.sqrt(sum_of_squares)


@pytest.mark.parametrize("p,H,L,s", [(101, 40, 7, 1), (499, 200, 0, 2), (1999, 500, 300, 3),
                                     (1000003, 15849, 12345, 1)])
def test_complete_sum_matches_direct(p, H, L, s):
    # sampled rows, rows c and p - c among them, against direct summation
    # within the rounding gate at the length L the transform correlates at
    # (the smallest 2^a * 3^b >= p - 2), and Parseval over the whole table:
    # sum_c |W[c]|^2 = p * sum_lam u[lam]^2 for the fibre counts u
    c = PrimeContext.of(p)
    x = shifted_interval(L, H, c)
    t = complete_sum_table(x, s, c)
    x_elems = x.elements().tolist()
    squares = recip_power_counts(x, s, c).sum_of_squares()
    gate = _row_gate(p, squares, convolve._rader_tables(p)[3])
    for ci in (0, 1, 2, p // 2, p // 2 + 1, p - 1):
        assert abs(t.W[ci] - oracles.complete_sum(x_elems, s, ci, p)) < gate
    rhs = p * squares
    assert abs(float((np.abs(t.W) ** 2).sum()) - rhs) <= 1e-9 * rhs


def test_complete_sum_table_memory():
    # with the transform's tables warm, one table at p = 100003 holds the
    # int64 fibre counts, the h = (p-1)/2 rows of each correlation and the
    # table itself at its peak; the correlations run at L = 104976 >= p - 2.
    # Measured 2.05 * 16p bytes
    p = 100003
    c = PrimeContext.of(p)
    x = shifted_interval(12345, 3163, c)
    complete_sum_table(x, 1, c)
    tracemalloc.start()
    try:
        complete_sum_table(x, 1, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.37 * 16 * p


def test_complete_sum_all_entries_vs_direct():
    # full-table comparison against an O(pH) evaluation with its own phases
    p, H, L, s = 499, 200, 61, 2
    c = PrimeContext.of(p)
    x = shifted_interval(L, H, c)
    t = complete_sum_table(x, s, c)
    vals = np.asarray(oracles.recip_values(x.elements().tolist(), s, p))
    phases = np.exp(2j * np.pi * np.arange(p) / p)
    direct = phases[np.outer(np.arange(p), vals) % p].sum(axis=1)
    assert np.abs(t.W - direct).max() < 1e-6


@pytest.mark.parametrize("p,H,L,s", [(101, 40, 7, 1), (997, 300, 100, 2)])
def test_complete_sum_parseval(p, H, L, s):
    c = PrimeContext.of(p)
    x = shifted_interval(L, H, c)
    t = complete_sum_table(x, s, c)
    from fplab.energy import additive_energy_recip, recip_power_counts
    u = recip_power_counts(x, s, c)
    lhs = float((np.abs(t.W) ** 2).sum())
    rhs = p * u.sum_of_squares()
    assert abs(lhs - rhs) <= 1e-9 * rhs
    # the squared-mass side is the ell = 1 reciprocal energy
    assert u.sum_of_squares() == additive_energy_recip(x, s, 1, c)


def test_kloosterman_examples(ctx):
    c5 = ctx(5)
    x = initial_interval(4, c5)
    res = kloosterman_frac_sum(0, residue_set([1, 2, 3], c5), x, 1, c5)
    assert res.value == 3 * 4  # a = 0: every inner sum equals H

    res = kloosterman_frac_sum(1, residue_set([1], c5), x, 1, c5)
    assert abs(res.value - 1) < 1e-9

    res = kloosterman_frac_sum(1, residue_set([1, 2], c5), x, 1, c5)
    assert abs(res.value - 2) < 1e-9


def test_kloosterman_dilation_invariance(ctx):
    c = ctx(101)
    x = shifted_interval(13, 30, c)
    m_elems = random_subset(12, 5, c).elems.tolist()
    mset = residue_set(m_elems, c)
    scale = 17
    inv_scale = pow(scale, 99, 101)
    scaled = residue_set(sorted(inv_scale * m % 101 for m in m_elems), c)
    a = 29
    lhs = kloosterman_frac_sum(a, mset, x, 2, c).value
    rhs = kloosterman_frac_sum(a * scale % 101, scaled, x, 2, c).value
    assert abs(lhs - rhs) < 1e-9 * max(1.0, lhs)


def test_kloosterman_trivial_bound(ctx):
    c = ctx(1009)
    x = shifted_interval(44, 100, c)
    mset = random_subset(60, 3, c)
    for a in (1, 5, 1008):
        res = kloosterman_frac_sum(a, mset, x, 2, c)
        assert res.value <= res.trivial_bound


def test_char_spectrum_basics(ctx):
    c = ctx(101)
    u = random_subset(10, 3, c)
    spec = char_spectrum(u, c)
    assert spec.S[0] == 10 + 0j
    # Parseval for a 0/1 indicator: sum |S|^2 = (p-1) * #U
    total = float((np.abs(spec.S) ** 2).sum())
    assert abs(total - 100 * 10) <= 1e-9 * 1000

    full = residue_set(list(range(1, 101)), c)
    spec_full = char_spectrum(full, c)
    assert spec_full.S[0] == 100 + 0j
    assert np.abs(spec_full.S[1:]).max() == 0.0


def test_char_spectrum_matches_direct(ctx):
    c = ctx(101)
    u_elems = random_subset(8, 9, c).elems.tolist()
    spec = char_spectrum(residue_set(u_elems, c), c)
    for t in (0, 1, 2, 50, 99):
        expect = oracles.char_sum(u_elems, t, c.g, 101)
        assert abs(spec.S[t] - expect) < 1e-6


@pytest.mark.parametrize("p,kind", [(3, "set"), (5, "set"), (101, "set"), (499, "set"),
                                    (499, "interval"), (1019, "set"), (607, "set"),
                                    (211, "set"), (257, "set"), (521, "set")])
def test_char_spectrum_all_entries_vs_direct(p, kind):
    # full-spectrum comparison, independent exponent sums; the packed
    # transform runs at half length M = (p-1)/2, split as r rows of its
    # largest prime factor q: M = 1, 2, 50 (even), 249 (odd), 509 (prime:
    # r = 1, one FFT), 303 = 3 * 101, 105 = 3 * 5 * 7, 128 = 2^7 (q = 2)
    # and 260 = 20 * 13 (more rows than columns, r = 20 > q = 13).
    # L = 2^20 bounds every transform length these gates cover
    c = PrimeContext.of(p)
    if kind == "interval":
        u_set = shifted_interval(100, 150, c)
        u_elems = u_set.elements().tolist()
    else:
        u_elems = random_subset(min(37, p - 2), 17, c).elems.tolist()
        u_set = residue_set(u_elems, c)
    spec = char_spectrum(u_set, c)
    logs = np.asarray([oracles.discrete_log(u, c.g, p) for u in u_elems])
    t = np.arange(p - 1)
    direct = np.exp(2j * np.pi * ((np.outer(t, logs) % (p - 1)) / (p - 1))).sum(axis=1)
    assert np.abs(spec.S - direct).max() < _row_gate(p, len(u_elems), 1 << 20)


def test_char_spectrum_at_scale():
    # p = 10^6 + 3, #U = p^0.7: sampled rows against direct summation over
    # logs checked by pow, and Parseval sum_t |S[t]|^2 = (p-1) * #U
    p = 1000003
    c = PrimeContext.of(p)
    u = random_subset(math.ceil(p ** 0.7), 29, c)
    spec = char_spectrum(u, c).S
    logs = c.dlog[u.elems].astype(np.int64)
    assert all(pow(c.g, k, p) == x for x, k in zip(u.elems.tolist(), logs.tolist()))
    gate = _row_gate(p, u.M, 1 << 20)
    for t in np.random.default_rng(3).integers(1, p - 1, size=8).tolist():
        direct = np.exp(2j * np.pi * ((t * logs) % (p - 1)) / (p - 1)).sum()
        assert abs(spec[t] - direct) < gate
    rhs = (p - 1) * u.M
    assert abs(float((np.abs(spec) ** 2).sum()) - rhs) <= 1e-12 * rhs


def test_char_spectrum_memory():
    # with the dlog table warm, one spectrum at p = 100003 holds its output
    # (p - 1 complex), the packed half-length array it transforms in place
    # and the float angles of its twiddles: 1.75 * 16p bytes at its traced
    # peak, where a fresh FFT output and mirror copies took 2.54 * 16p
    p = 100003
    c = PrimeContext.of(p)
    u = random_subset(math.ceil(p ** 0.7), 29, c)
    char_spectrum(u, c)
    tracemalloc.start()
    try:
        char_spectrum(u, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.93 * 16 * p


@pytest.mark.parametrize("m", [1, 2, 303, 260, 2 * 3 * 5 * 7 * 13, 17 * 17 * 3, 6007 * 2])
def test_split_fft_matches_numpy(m):
    # the split transform against numpy's whole-length one
    z = np.random.default_rng(m).integers(0, 2, size=2 * m).astype(np.float64).view(np.complex128)
    expect, squares = np.fft.fft(z), float((np.abs(z) ** 2).sum())
    spectra._split_fft(z, np.full(m, np.nan, dtype=np.complex128))
    assert np.abs(z - expect).max() < _row_gate(m, squares, 1 << 20)


# Child run: the growth of the child's peak RSS over one char_spectrum call
# at p = 1000003, dlog table and set built first, printed in MB. The peak is
# the child's own VmHWM: its ru_maxrss would start at the launching
# process's peak, which Linux carries over exec.
_SPECTRUM_GROWTH = """
import math
from fplab.modfield import PrimeContext
from fplab.sets import random_subset
from fplab.spectra import char_spectrum

def peak_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

c = PrimeContext.of(1000003)
u = random_subset(math.ceil(c.p ** 0.7), 29, c)
c.dlog
before = peak_kb()
char_spectrum(u, c)
print((peak_kb() - before) / 1024)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM (Linux)")
def test_char_spectrum_rss_growth():
    # M = 3 * 166667: the split runs three length-166667 row transforms,
    # one call each, where numpy's whole-length Bluestein grew the peak by
    # 52-53 MB. The first verified run grew it by 19.8 MB (later runs
    # 21.6-21.7 MB); the ceiling is that run with 1.5x headroom
    env = {**os.environ, "PYTHONPATH": str(Path(spectra.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", _SPECTRUM_GROWTH], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert float(done.stdout) < 1.5 * 19.8


def test_char_spectrum_accepts_intervals(ctx):
    c = ctx(101)
    spec = char_spectrum(initial_interval(10, c), c)
    assert spec.S[0] == 10 + 0j
    with pytest.raises(DomainError):
        char_spectrum(shifted_interval(99, 5, c), c)


def test_burgess_examples(ctx):
    c = ctx(101)
    assert burgess_ratio(100, c) == 0.0  # complete interval: sums vanish
    assert abs(burgess_ratio(1, c) - 101 ** -0.1875) < 1e-12
    r = burgess_ratio(10, c)
    assert 0 < r < float("inf")
    # oracle: direct maximization over characters
    best = max(abs(oracles.char_sum(range(1, 11), t, c.g, 101)) for t in range(1, 100))
    assert abs(r - best / (10 ** 0.5 * 101 ** 0.1875)) < 1e-9


_C101, _C1009 = PrimeContext.of(101), PrimeContext.of(1009)
_IV101, _IV1009 = initial_interval(20, _C101), initial_interval(20, _C1009)
_SET101, _SET1009 = residue_set([2, 3, 5], _C101), residue_set([2, 3, 5], _C1009)
_FOREIGN_MODULUS = {
    "recip_power_counts": lambda: recip_power_counts(_IV101, 1, _C1009),
    "complete_sum_table": lambda: complete_sum_table(_IV101, 1, _C1009),
    "kloosterman_set": lambda: kloosterman_frac_sum(1, _SET101, _IV1009, 1, _C1009),
    "kloosterman_interval": lambda: kloosterman_frac_sum(1, _SET1009, _IV101, 1, _C1009),
    "char_spectrum_set": lambda: char_spectrum(_SET101, _C1009),
    "char_spectrum_interval": lambda: char_spectrum(_IV101, _C1009),
}


@pytest.mark.parametrize("case", sorted(_FOREIGN_MODULUS))
def test_spectral_entry_points_refuse_another_modulus(case):
    # each input built for another modulus is refused instead of giving a
    # value; the matching inputs still run
    with pytest.raises(DomainError, match="modulus does not match"):
        _FOREIGN_MODULUS[case]()
    assert kloosterman_frac_sum(1, _SET1009, _IV1009, 1, _C1009).value > 0


_REFUSED_INPUTS = {
    "energy_Js_shifted_base": (
        lambda: energy_Js(0, shifted_interval(3, 5, _C101), _SET101, 1, _C101),
        DomainError, "pass the base interval"),
    "tk_spectral_factor_count": (
        lambda: tk_spectral_check(3, [(_SET101, 0)] * 2, 4, 1, _C101, [0]),
        DomainError, "factor list does not match k"),
    "k_fold_lengths": (
        lambda: convolve.k_fold_count([CountVector(np.array([1, 0, 0])),
                                        CountVector(np.array([1, 0, 0, 0, 0]))]),
        ConsistencyError, "mismatched lengths"),
    "residue_set_order": (
        lambda: ResidueSet(np.array([3, 2]), 101), DomainError, "strictly increasing"),
    "tk_lambda_float": (
        lambda: tk_experiment(3, [(_SET101, 0)] * 3, 4, 1, _C101, sample_lambdas=[1.5]),
        DomainError, "sample lambda must be an integer, got 1.5"),
    "tk_lambda_numpy_float": (
        lambda: tk_experiment(3, [(_SET101, 0)] * 3, 4, 1, _C101,
                              sample_lambdas=[np.float64(2.0)]),
        DomainError, "sample lambda must be an integer"),
    "tk_lambda_str": (
        lambda: tk_experiment(3, [(_SET101, 0)] * 3, 4, 1, _C101, sample_lambdas=["a"]),
        DomainError, "sample lambda must be an integer"),
    "tk_lambda_bool": (
        lambda: tk_experiment(3, [(_SET101, 0)] * 3, 4, 1, _C101, sample_lambdas=[True]),
        DomainError, "sample lambda must be an integer, got True"),
    "tk_shift_float": (
        lambda: tk_experiment(3, [(_SET101, 0.5)] * 3, 4, 1, _C101),
        DomainError, "L must be an integer, got 0.5"),
    "tk_spectral_lambda_float": (
        lambda: tk_spectral_check(3, [(_SET101, 0)] * 3, 4, 1, _C101, [1.5]),
        DomainError, "sample lambda must be an integer"),
    "kloosterman_a_float": (
        lambda: kloosterman_frac_sum(1.5, _SET101, _IV101, 1, _C101),
        DomainError, "a must be an integer"),
    "kloosterman_a_bool": (
        lambda: kloosterman_frac_sum(True, _SET101, _IV101, 1, _C101),
        DomainError, "a must be an integer"),
    "burgess_k_len_float": (
        lambda: burgess_ratio(2.5, _C101), DomainError, "H must be an integer, got 2.5"),
    "shifted_interval_L_float": (
        lambda: shifted_interval(1.5, 3, _C101), DomainError, "L must be an integer"),
    "initial_interval_H_float": (
        lambda: initial_interval(2.5, _C101), DomainError, "H must be an integer"),
    "tk_s_float": (
        lambda: tk_experiment(3, [(_SET101, 0)] * 3, 4, 1.5, _C101),
        DomainError, "s must be an integer, got 1.5"),
    "complete_sum_s_float": (
        lambda: complete_sum_table(_IV101, 1.5, _C101), DomainError, "s must be an integer"),
    "residue_set_float": (
        lambda: residue_set([1.5, 2.9], _C101),
        DomainError, "residue set elements must be integers, got float64 entries"),
    "residue_set_array_float": (
        lambda: ResidueSet(np.array([1.5, 2.9]), 101),
        DomainError, "residue set elements must be integers"),
    "batch_inverse_float": (
        lambda: batch_inverse([1.5], _C101), DomainError, "elements must be integers"),
    "prime_context_float": (
        lambda: PrimeContext(101.0), DomainError, "p must be an integer, got 101.0"),
    "random_subset_seed_float": (
        lambda: random_subset(3, 1.5, _C101), DomainError, "seed must be an integer"),
    "random_subset_M_float": (
        lambda: random_subset(2.5, 1, _C101), DomainError, "M must be an integer, got 2.5"),
    "kloosterman_ell_float": (
        lambda: kloosterman_frac_sum(1, _SET101, _IV101, 1, _C101, ell=1.5),
        DomainError, "ell must be an integer, got 1.5"),
    "recip_energy_ell_float": (
        lambda: additive_energy_recip(_IV101, 1, 1.5, _C101),
        DomainError, "ell must be an integer, got 1.5"),
    "char_spectrum_interval_through_zero": (
        lambda: char_spectrum(shifted_interval(99, 4, _C101), _C101),
        ZeroInIntervalError, "interval L=99, H=4 covers 0 mod 101"),
    "product_set_epsilon_negative": (
        lambda: product_set(_IV101, _SET101, _C101, epsilon=-1),
        DomainError, "epsilon must be a finite number >= 0, got -1"),
    "product_set_epsilon_nan": (
        lambda: product_set(_IV101, _SET101, _C101, epsilon=math.nan),
        DomainError, "epsilon must be a finite number >= 0, got nan"),
    "ratio_set_epsilon_nan": (
        lambda: ratio_set(_IV101, _SET101, _C101, epsilon=math.nan),
        DomainError, "epsilon must be a finite number >= 0"),
    "tk_epsilon_str": (
        lambda: tk_experiment(3, [(_SET101, 0)] * 3, 4, 1, _C101, epsilon="a"),
        DomainError, "epsilon must be a finite number >= 0, got 'a'"),
    "tk_epsilon_bool": (
        lambda: tk_experiment(3, [(_SET101, 0)] * 3, 4, 1, _C101, epsilon=True),
        DomainError, "epsilon must be a finite number >= 0, got True"),
    "product_set_epsilon_none": (
        lambda: product_set(_IV101, _SET101, _C101, epsilon=None),
        DomainError, "epsilon must be a finite number >= 0, got None"),
    "tk_epsilon_nan": (
        lambda: tk_experiment(3, [(_SET101, 0)] * 3, 4, 1, _C101, epsilon=math.nan),
        DomainError, "epsilon must be a finite number >= 0"),
    "tk_budget_nan": (
        lambda: tk_experiment(3, [(_SET101, 0)] * 3, 5, 1, _C101, budget=math.nan),
        DomainError, "budget must be an integer, got nan"),
    "tk_budget_str": (
        lambda: tk_experiment(3, [(_SET101, 0)] * 3, 5, 1, _C101, budget="a"),
        DomainError, "budget must be an integer, got 'a'"),
    "tk_budget_float": (
        lambda: tk_experiment(3, [(_SET101, 0)] * 3, 5, 1, _C101, budget=1.5),
        DomainError, "budget must be an integer, got 1.5"),
    "tk_budget_bool": (
        lambda: tk_experiment(3, [(_SET101, 0)] * 3, 5, 1, _C101, budget=True),
        DomainError, "budget must be an integer, got True"),
    "tk_budget_negative": (
        lambda: tk_experiment(3, [(_SET101, 0)] * 3, 5, 1, _C101, budget=-1),
        DomainError, "budget must be >= 0, got -1"),
    "plan_convolution_budget_nan": (
        lambda: convolve.plan_convolution(101, [5, 5], budget=math.nan),
        DomainError, "budget must be an integer, got nan"),
    "plan_convolution_mass_float": (
        lambda: convolve.plan_convolution(101, [2.7, 3]),
        DomainError, "mass must be an integer, got 2.7"),
    "plan_convolution_mass_negative": (
        lambda: convolve.plan_convolution(101, [-5, 3]), DomainError, "mass must be >= 0, got -5"),
    "plan_convolution_mass_bool": (
        lambda: convolve.plan_convolution(101, [True, 3]),
        DomainError, "mass must be an integer, got True"),
    "plan_convolution_mass_str": (
        lambda: convolve.plan_convolution(101, ["3", 3]),
        DomainError, "mass must be an integer, got '3'"),
    "plan_convolution_n_negative": (
        lambda: convolve.plan_convolution(-7, [5, 5]), DomainError, "n must be >= 1, got -7"),
    "plan_convolution_n_zero": (
        lambda: convolve.plan_convolution(0, [5, 5]), DomainError, "n must be >= 1, got 0"),
    "plan_convolution_n_float": (
        lambda: convolve.plan_convolution(2.5, [5, 5]),
        DomainError, "n must be an integer, got 2.5"),
    "plan_convolution_layout_short": (
        lambda: convolve.plan_convolution(101, [300] * 3, layout=[0]),
        DomainError, "the layout names 1 arrays for 3 factors"),
    "plan_convolution_layout_long": (
        lambda: convolve.plan_convolution(101, [5, 5], layout=[0, 1, 2]),
        DomainError, "the layout names 3 arrays for 2 factors"),
    "is_prime_float": (
        lambda: is_prime(7.5), DomainError, "n must be an integer, got 7.5"),
    "find_primitive_root_float": (
        lambda: find_primitive_root(101.0), DomainError, "p must be an integer, got 101.0"),
    "build_dlog_table_g_float": (
        lambda: build_dlog_table(101, 2.5), DomainError, "g must be an integer, got 2.5"),
    "build_dlog_table_p_float": (
        lambda: build_dlog_table(101.0, 2), DomainError, "p must be an integer, got 101.0"),
    "set_from_file_descriptor": (
        lambda: set_from_file(123, _C101),
        DomainError, "set file path must be a str or os.PathLike, got 123"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_INPUTS))
def test_library_entry_points_refuse_bad_inputs(case):
    call, error, message = _REFUSED_INPUTS[case]
    with pytest.raises(error, match=message):
        call()
