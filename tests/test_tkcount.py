import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fplab import convolve, tkcount
from fplab.countvec import CountVector
from fplab.errors import DomainError
from fplab.modfield import PrimeContext
from fplab.sets import random_subset, residue_set
from fplab.tkcount import _dev_stats, tk_experiment, tk_spectral_check

import oracles
from test_spectra import _row_gate


def test_six_fold_tiny_example(ctx):
    c = ctx(3)
    ms = residue_set([1], c)
    rep = tk_experiment(6, [(ms, 0)] * 6, 2, 1, c)
    assert rep.counts.as_list() == [22, 21, 21]
    assert rep.total == 64
    assert rep.main_term == Fraction(64, 3)


def test_two_fold_singleton(ctx):
    c = ctx(7)
    ms = residue_set([1], c)
    rep = tk_experiment(2, [(ms, 0)] * 2, 1, 1, c)
    expect = [0] * 7
    expect[2] = 1  # 1/1 + 1/1 = 2
    assert rep.counts.as_list() == expect


def test_matches_enumeration_random(ctx):
    import numpy as np
    rng = np.random.default_rng(5)
    for p in (11, 23):
        c = PrimeContext.of(p)
        for k in (2, 3, 4):
            H = int(rng.integers(1, 4))
            M = int(rng.integers(1, 4))
            s = int(rng.integers(1, 4))
            factors = []
            value_lists = []
            for i in range(k):
                mset = random_subset(M, 100 + i, c)
                L = int(rng.integers(0, p - H))
                factors.append((mset, L))
                x_elems = [(L + j) % p for j in range(1, H + 1)]
                value_lists.append(oracles.factor_values(mset.elems.tolist(),
                                                         x_elems, s, p))
            rep = tk_experiment(k, factors, H, s, c)
            assert rep.counts.as_list() == oracles.tk_counts(value_lists, p)


def test_mass_conservation_and_zero_mean_dev(ctx):
    c = ctx(101)
    factors = [(random_subset(6, i, c), 3 * i % 60) for i in range(6)]
    rep = tk_experiment(6, factors, 8, 2, c)
    assert rep.total == (8 * 6) ** 6
    # signed deviations cancel exactly: sum T = mass
    signed = sum(Fraction(t * 101 - (8 * 6) ** 6, (8 * 6) ** 6)
                 for t in rep.counts.as_list())
    assert signed == 0


def test_shift_covariance_under_dilation(ctx):
    # scaling every factor set by c sends T(lam) to T(c^(-1) lam)
    p = 31
    c = PrimeContext.of(p)
    m_lists = [sorted(random_subset(3, 40 + i, c).elems.tolist()) for i in range(3)]
    factors = [(residue_set(m, c), 2) for m in m_lists]
    base = tk_experiment(3, factors, 4, 1, c).counts.as_list()
    scale = 11
    scaled_factors = [(residue_set(sorted(scale * m % p for m in ms), c), 2)
                      for ms in m_lists]
    scaled = tk_experiment(3, scaled_factors, 4, 1, c).counts.as_list()
    inv = pow(scale, p - 2, p)
    assert all(scaled[lam] == base[inv * lam % p] for lam in range(p))


def test_unequal_sizes_guard(ctx):
    c = ctx(11)
    a = residue_set([1, 2], c)
    b = residue_set([3], c)
    with pytest.raises(DomainError, match="unequal"):
        tk_experiment(2, [(a, 0), (b, 0)], 2, 1, c)


def test_k_validation(ctx):
    c = ctx(11)
    ms = residue_set([1], c)
    with pytest.raises(DomainError):
        tk_experiment(1, [(ms, 0)], 2, 1, c)
    with pytest.raises(DomainError):
        tk_experiment(3, [(ms, 0)] * 2, 2, 1, c)


def test_equal_factors_share_one_count_vector(ctx, monkeypatch):
    # six distinct set objects with equal contents, and shifts equal mod p
    c = ctx(101)
    factors = [(residue_set([2, 7, 19], c), 4 + 101 * (i % 2)) for i in range(6)]
    calls = []
    build = tkcount.count_vector_product
    monkeypatch.setattr(tkcount, "count_vector_product",
                        lambda *a: calls.append(1) or build(*a))
    rep = tk_experiment(6, factors, 3, 1, c)
    assert len(calls) == 1
    vectors = [build(tkcount.shifted_interval(4, 3, c), factors[0][0], 1, c)
               for _ in range(6)]
    assert rep.counts.as_list() == convolve.k_fold_count(vectors).as_list()
    # a different shift builds a second vector
    calls.clear()
    tk_experiment(6, factors[:5] + [(factors[5][0], 5)], 3, 1, c)
    assert len(calls) == 2


def test_dev_at_sampling(ctx):
    c = ctx(3)
    ms = residue_set([1], c)
    rep = tk_experiment(6, [(ms, 0)] * 6, 2, 1, c, sample_lambdas=[0, 1])
    assert rep.dev_at[0] == float(Fraction(22 * 3 - 64, 64))
    assert rep.dev_at[1] == float(Fraction(21 * 3 - 64, 64))


def test_sample_lambdas_are_reduced_mod_p(ctx):
    # lam and lam + p name one point: p, -1 and 2p + 3 sample 0, p - 1 and 3
    p = 101
    c = ctx(p)
    factors = [(random_subset(5, 3, c), 2)] * 3
    raw, reduced = [p, -1, 2 * p + 3], [0, p - 1, 3]
    rep = tk_experiment(3, factors, 4, 1, c, sample_lambdas=raw)
    assert rep.dev_at == tk_experiment(3, factors, 4, 1, c, sample_lambdas=reduced).dev_at
    assert list(rep.dev_at) == reduced
    assert (tk_spectral_check(3, factors, 4, 1, c, sample_lambdas=raw)
            == tk_spectral_check(3, factors, 4, 1, c, sample_lambdas=reduced))


def test_spectral_check_small(ctx):
    c = ctx(101)
    factors = [(random_subset(8, 7 + i, c), 5) for i in range(6)]
    residuals = tk_spectral_check(6, factors, 8, 1, c, sample_lambdas=[0, 1, 50, 100])
    assert all(r < 1e-3 for r in residuals)


def test_spectral_check_transforms_each_distinct_factor_once(ctx, monkeypatch):
    # T_6 over one set and one shift at p = 10007: one factor vector, so
    # one forward transform and the one inverse
    c = ctx(10007)
    mset = random_subset(9, 3, c)
    calls, transform = [], convolve.length_p_transform

    def spy(u):
        calls.append(u)
        return transform(u)

    monkeypatch.setattr(convolve, "length_p_transform", spy)
    residuals = tk_spectral_check(6, [(mset, 3)] * 6, 9, 1, c, sample_lambdas=[0, 1, 5003])
    assert len(calls) == 2 and all(r < 0.5 for r in residuals)


def test_spectral_check_two_fold_hand_case(ctx):
    c = ctx(7)
    ms = residue_set([1], c)
    residuals = tk_spectral_check(2, [(ms, 0)] * 2, 1, 1, c,
                                  sample_lambdas=list(range(7)))
    assert all(r < 1e-9 for r in residuals)


@pytest.mark.parametrize("p", [7, 101, 1009, 10007, 100003])
def test_hermitian_inverse_matches_the_complex_route(p):
    # the spectral check's product of real-input transforms is Hermitian;
    # its inverse from one real-input transform must match numpy's complex
    # FFT of the product, sum_a P[a] * e_p(-a*lam), within the row gate of
    # the real transform's length
    rng = np.random.default_rng(p)
    product = np.ones(p, dtype=np.complex128)
    for _ in range(3):
        product *= convolve.length_p_transform(rng.integers(0, 3, size=p))
    complex_route = np.fft.fft(product).real
    squares = float((np.abs(product) ** 2).sum())
    gate = _row_gate(p, squares, convolve._rader_tables(p)[3])
    assert np.abs(tkcount._hermitian_inverse(product) - complex_route).max() < gate


@pytest.mark.parametrize("k, H", [(3.0, 4), (np.float64(3.0), 4), (3, 4.5), (3, np.float64(4.0))],
                         ids=["k_float", "k_numpy_float", "H_float", "H_numpy_float"])
def test_tk_experiment_refuses_non_integer_k_and_H(ctx, k, H):
    c = ctx(101)
    with pytest.raises(DomainError, match="must be an integer"):
        tk_experiment(k, [(residue_set([2, 3, 5], c), 0)] * 3, H, 1, c)


def test_tk_experiment_takes_numpy_integers(ctx):
    c = ctx(101)
    rep = tk_experiment(np.int64(3), [(residue_set([2, 3, 5], c), 0)] * 3, np.int64(4), 1, c,
                        sample_lambdas=[np.int64(5)])
    assert (rep.k, rep.H, list(rep.dev_at)) == (3, 4, [5])
    assert type(rep.k) is int and type(rep.H) is int and type(next(iter(rep.dev_at))) is int


def test_hypothesis_flags(ctx):
    c = ctx(10007)
    # H = M = 159 = ceil(p^0.55): all three sufficient inequalities hold
    factors = [(random_subset(159, i, c), 0) for i in range(6)]
    rep = tk_experiment(6, factors, 159, 1, c, epsilon=0.02)
    assert rep.hyp_flags == (True, True, True)
    assert all(m > 0 for m in rep.hyp_margins)


@pytest.mark.parametrize("m, dtype", [(10, np.int64), (1 << 61, np.int64), (1 << 80, object)])
def test_dev_stats_matches_python_int_oracle(m, dtype):
    # entries on both sides of tau = m and three with t*p == mass exactly;
    # m = 2^61 puts mass*p above 2^62 and the int64 total above 2^63
    p = 7
    t_values = [m, m - 1, m + 1, m, m - 5, m + 5, m]
    cv = CountVector(t_values)
    assert cv.counts.dtype == dtype and cv.total == 7 * m
    assert _dev_stats(cv, p, [0, 1, 5]) == \
        oracles.dev_stats(t_values, cv.total, p, [0, 1, 5])
    # a mass that p does not divide: tau = ceil(mass/p) falls between entries
    p = 101
    t_values = [m + v for v in np.random.default_rng(4).integers(0, 50, size=p).tolist()]
    cv = CountVector(t_values)
    assert cv.counts.dtype == dtype and cv.total % p
    assert _dev_stats(cv, p, [3, 100]) == \
        oracles.dev_stats(t_values, cv.total, p, [3, 100])


def test_dev_stats_builds_no_full_length_object_temporary():
    # |t*p - mass| over a whole object vector would allocate about 13 MB here
    n = 100003
    rng = np.random.default_rng(3)
    cv = CountVector(np.array([v << 40 for v in rng.integers(1, 1 << 40, size=n).tolist()],
                              dtype=object))
    tracemalloc.start()
    try:
        _dev_stats(cv, n, [0, 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
