import cmath
import math

import numpy as np
import pytest

from fplab.energy import recip_power_counts
from fplab.errors import DomainError
from fplab.modfield import PrimeContext
from fplab.sets import initial_interval, random_subset, residue_set, shifted_interval
from fplab.spectra import (burgess_ratio, char_spectrum, complete_sum_table,
                           kloosterman_frac_sum, weighted_frac_sum)

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

    L is the length of the power-of-two transform behind the row, or a
    bound on it, and u the transformed vector; every sampled row error
    measured here is below a tenth of it.
    """
    return math.log2(size) * 2.0 ** -53 * math.sqrt(p) * math.sqrt(sum_of_squares)


@pytest.mark.parametrize("p,H,L,s", [(101, 40, 7, 1), (499, 200, 0, 2), (1999, 500, 300, 3),
                                     (1000003, 15849, 12345, 1)])
def test_complete_sum_matches_direct(p, H, L, s):
    # sampled rows against direct summation within the chirp's rounding
    # gate at L = next_pow2(2p-1), and Parseval over the whole table:
    # sum_c |W[c]|^2 = p * sum_lam u[lam]^2 for the fibre counts u
    c = PrimeContext.of(p)
    x = shifted_interval(L, H, c, require_denominator_safe=True)
    t = complete_sum_table(x, s, c)
    x_elems = x.elements().tolist()
    squares = recip_power_counts(x, s, c).sum_of_squares()
    gate = _row_gate(p, squares, 1 << (2 * p - 2).bit_length())
    for ci in (0, 1, 2, p // 2, p - 1):
        assert abs(t.W[ci] - oracles.complete_sum(x_elems, s, ci, p)) < gate
    rhs = p * squares
    assert abs(float((np.abs(t.W) ** 2).sum()) - rhs) <= 1e-9 * rhs


def test_complete_sum_all_entries_vs_direct():
    # full-table comparison against an O(pH) evaluation with its own phases
    p, H, L, s = 499, 200, 61, 2
    c = PrimeContext.of(p)
    x = shifted_interval(L, H, c, require_denominator_safe=True)
    t = complete_sum_table(x, s, c)
    vals = np.asarray(oracles.recip_values(x.elements().tolist(), s, p))
    phases = np.exp(2j * np.pi * np.arange(p) / p)
    direct = phases[np.outer(np.arange(p), vals) % p].sum(axis=1)
    assert np.abs(t.W - direct).max() < 1e-6


@pytest.mark.parametrize("p,H,L,s", [(101, 40, 7, 1), (997, 300, 100, 2)])
def test_complete_sum_parseval(p, H, L, s):
    c = PrimeContext.of(p)
    x = shifted_interval(L, H, c, require_denominator_safe=True)
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
    x = shifted_interval(13, 30, c, require_denominator_safe=True)
    m_elems = random_subset(12, 5, c).elems.tolist()
    mset = residue_set(m_elems, c)
    scale = 17
    inv_scale = pow(scale, 99, 101)
    scaled = residue_set(sorted(inv_scale * m % 101 for m in m_elems), c)
    a = 29
    t = complete_sum_table(x, 2, c)
    lhs = kloosterman_frac_sum(a, mset, x, 2, c, table=t).value
    rhs = kloosterman_frac_sum(a * scale % 101, scaled, x, 2, c, table=t).value
    assert abs(lhs - rhs) < 1e-9 * max(1.0, lhs)


def test_kloosterman_trivial_bound(ctx):
    c = ctx(1009)
    x = shifted_interval(44, 100, c, require_denominator_safe=True)
    mset = random_subset(60, 3, c)
    for a in (1, 5, 1008):
        res = kloosterman_frac_sum(a, mset, x, 2, c)
        assert res.value <= res.trivial_bound


def test_weighted_reductions(ctx):
    c = ctx(101)
    x = shifted_interval(3, 20, c, require_denominator_safe=True)
    mset = random_subset(8, 11, c)
    ones_a = np.ones(8)
    ones_b = np.ones(20)
    a = 7
    plain = kloosterman_frac_sum(a, mset, x, 1, c)
    weighted = weighted_frac_sum(ones_a, ones_b, a, mset, x, 1, c)
    # alpha = beta = 1 collapses to the plain double sum: |value| <= S
    assert abs(weighted.value) <= plain.value + 1e-9
    direct = sum(oracles.complete_sum(x.elements().tolist(), 1, a * m % 101, 101)
                 for m in mset.elems.tolist())
    assert abs(weighted.value - direct) < 1e-6

    res0 = weighted_frac_sum(ones_a, ones_b, 0, mset, x, 1, c)
    assert abs(res0.value - 8 * 20) < 1e-9  # (sum alpha)(sum beta)

    zero_b = np.zeros(20)
    assert abs(weighted_frac_sum(ones_a, zero_b, a, mset, x, 1, c).value) < 1e-12


def test_weighted_beta_validation(ctx):
    c = ctx(101)
    x = initial_interval(5, c)
    mset = residue_set([1, 2], c)
    beta = np.ones(5)
    beta[3] = 1.5
    with pytest.raises(DomainError, match="position 3"):
        weighted_frac_sum(np.ones(2), beta, 1, mset, x, 1, c)
    with pytest.raises(DomainError):
        weighted_frac_sum(np.ones(3), np.ones(5), 1, mset, x, 1, c)


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
                                    (499, "interval")])
def test_char_spectrum_all_entries_vs_direct(p, kind):
    # full-spectrum comparison, independent exponent sums; the packed
    # transform runs at half length M = (p-1)/2 = 1, 2, 50 (even) and 249
    # (odd). L = 2^20 bounds every transform length these gates cover,
    # numpy's Bluestein padding at p = 1000003 included
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
