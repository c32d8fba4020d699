"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Frozen thresholds marked CALIBRATED were recorded from the first
verified run; every quantity they gate is exact integer arithmetic on
seeded inputs, so reruns reproduce them bit for bit.
"""

import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from fplab import energy, prodset, spectra, tkcount, verify
from fplab.modfield import PrimeContext
from fplab.sets import (SplitMix64, initial_interval, mix_seed, random_subset,
                        residue_set, shifted_interval)

import oracles

_SMALL_PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31]

# CALIBRATED: observed max|dev| on the first verified run was
# 2.44e-11 / 1.18e-12 / 4.28e-14; frozen with ~2x headroom.
TK_DEV_CEILING = {10007: 5.0e-11, 30011: 2.5e-12, 100003: 1.0e-13}
TK_TREND_SEED = 271828

# CALIBRATED: observed max|dev| on the first verified run was
# 5.80e-9 / 2.48e-11 / 7.66e-14; frozen with ~2x headroom.
PAPER_DEV_CEILING = {10007: 1.2e-8, 100003: 5.0e-11, 1000003: 1.6e-13}
PAPER_SEED = 271828

# CALIBRATED: observed fitted exponent 0.862 on the first verified run.
PRODSET_SLOPE_BOUND = 0.90
PRODSET_SEED = 314159

# CALIBRATED: observed sweep-wide max ratio 0.168 on the first verified run.
KLOOSTERMAN_RATIO_BOUND = 0.5
KLOOSTERMAN_SEED = 161803


@pytest.fixture(scope="module")
def tk_trend_reports():
    """The three seeded six-fold runs shared by criteria 2 and 6."""
    t0 = time.time()
    reports = []
    for p in (10007, 30011, 100003):
        ctx = PrimeContext.of(p)
        h = math.ceil(p ** 0.55)
        factors = [(random_subset(h, mix_seed(TK_TREND_SEED, i), ctx), 0)
                   for i in range(6)]
        reports.append(tkcount.tk_experiment(6, factors, h, 1, ctx, epsilon=0.02))
    return reports, time.time() - t0


def test_criterion_01_oracle_equivalence_counts():
    t0 = time.time()
    for instance in range(200):
        rng = SplitMix64(mix_seed(12345, instance))
        p = _SMALL_PRIMES[rng.below(len(_SMALL_PRIMES))]
        ctx = PrimeContext.of(p)
        h = 1 + rng.below(min(6, p - 1))
        m = 1 + rng.below(min(6, p - 1))
        shift = rng.below(max(1, p - h))
        s = [-3, -2, -1, 1, 2, 3][rng.below(6)]
        ell = 1 + rng.below(3)
        k = 2 + rng.below(5)
        k_len = 1 + rng.below(min(5, p - 1))
        mset = random_subset(m, rng.next_u64(), ctx)
        m_elems = mset.elems.tolist()
        iv = initial_interval(h, ctx)
        x_elems = [(shift + i) % p for i in range(1, h + 1)]

        assert energy.energy_J(iv, mset, ctx) == \
            oracles.energy_J(range(1, h + 1), m_elems, p)
        assert energy.energy_Js(shift, iv, mset, s, ctx) == \
            oracles.energy_Js(x_elems, m_elems, s, p)
        assert energy.triple_R(h, k_len, mset, ctx) == \
            oracles.triple_R(h, k_len, m_elems, p)
        x = shifted_interval(shift, h, ctx)
        assert energy.additive_energy_recip(x, s, ell, ctx) == \
            oracles.recip_energy(x_elems, s, ell, p)

        factors, value_lists = [], []
        for i in range(k):
            fm = random_subset(m, rng.next_u64(), ctx)
            fl = rng.below(p - h)
            factors.append((fm, fl))
            fx = [(fl + j) % p for j in range(1, h + 1)]
            value_lists.append(oracles.factor_values(fm.elems.tolist(), fx, s, p))
        rep = tkcount.tk_experiment(k, factors, h, s, ctx)
        assert rep.counts.as_list() == oracles.tk_counts(value_lists, p)
    elapsed = time.time() - t0
    assert elapsed < 60
    print(f"\nACCEPTANCE 1 PASS: 200 instances, J/Js/R/recip/Tk all match "
          f"enumeration exactly ({elapsed:.1f}s)")


def test_criterion_02_mass_conservation(tk_trend_reports):
    reports, _ = tk_trend_reports
    for rep in reports:
        mass = 1
        for h_i, m_i in zip([rep.H] * rep.k, [rep.M] * rep.k):
            mass *= h_i * m_i
        assert rep.total == mass  # also asserted in-code on every convolution
    # a mid-size extra sample on the exact route
    ctx = PrimeContext.of(1009)
    h = math.ceil(1009 ** 0.55)
    factors = [(random_subset(h, mix_seed(777, i), ctx), 0) for i in range(6)]
    rep = tkcount.tk_experiment(6, factors, h, 2, ctx)
    assert rep.total == (h * h) ** 6
    print("\nACCEPTANCE 2 PASS: sum of T_k equals the product of masses exactly "
          "up to p = 100003, H = M = p^0.55")


def test_criterion_03_route_agreement():
    residual_cap = 0.5
    ctx101 = PrimeContext.of(101)
    factors = [(random_subset(8, 7 + i, ctx101), 5) for i in range(6)]
    res = tkcount.tk_spectral_check(6, factors, 8, 1, ctx101,
                                    sample_lambdas=[0, 1, 2, 50, 100])
    assert all(r < residual_cap for r in res)

    ctx_big = PrimeContext.of(10007)
    factors = [(random_subset(9, 50 + i, ctx_big), 3) for i in range(6)]
    res_big = tkcount.tk_spectral_check(6, factors, 9, 1, ctx_big,
                                        sample_lambdas=[0, 1, 5003, 10006])
    assert all(r < residual_cap for r in res_big)

    # pair energy against the character-orthogonality identity
    for p, h, m, seed in [(101, 20, 10, 3), (1009, 60, 40, 4), (10007, 120, 80, 99)]:
        ctx = PrimeContext.of(p)
        mset = random_subset(m, seed, ctx)
        iv = initial_interval(h, ctx)
        j_exact = energy.energy_J(iv, mset, ctx)
        sh = spectra.char_spectrum(iv, ctx).S
        sm = spectra.char_spectrum(mset, ctx).S
        j_char = float((np.abs(sh) ** 2 * np.abs(sm) ** 2).sum()) / (p - 1)
        assert abs(j_char - j_exact) <= 1e-6 * j_exact
    print("\nACCEPTANCE 3 PASS: spectral/convolution routes agree below 0.5; "
          "pair energy matches the character identity to 1e-6")


def test_criterion_04_parseval_identities():
    pool = [101, 257, 499, 1009, 2003, 4999, 9973]
    for instance in range(50):
        rng = SplitMix64(mix_seed(24680, instance))
        p = pool[rng.below(len(pool))]
        ctx = PrimeContext.of(p)
        h = 2 + rng.below(p // 2)
        shift = rng.below(p - h)
        s = 1 + rng.below(3)
        m = 1 + rng.below(p // 2)
        x = shifted_interval(shift, h, ctx)
        table = spectra.complete_sum_table(x, s, ctx)
        u = energy.recip_power_counts(x, s, ctx)
        lhs = float((np.abs(table.W) ** 2).sum())
        rhs = float(p * u.sum_of_squares())
        assert abs(lhs - rhs) <= 1e-9 * rhs

        mset = random_subset(m, rng.next_u64(), ctx)
        spec = spectra.char_spectrum(mset, ctx)
        lhs = float((np.abs(spec.S) ** 2).sum())
        rhs = float((p - 1) * m)
        assert abs(lhs - rhs) <= 1e-9 * rhs
    print("\nACCEPTANCE 4 PASS: both Parseval identities hold to 1e-9 "
          "on 50 random instances")


def test_criterion_05_paper_inequalities():
    pool = [11, 17, 31, 61, 101]
    for instance in range(1000):
        rng = SplitMix64(mix_seed(13579, instance))
        p = pool[rng.below(len(pool))]
        ctx = PrimeContext.of(p)
        h = 1 + rng.below(min(8, p - 2))
        m = 1 + rng.below(min(8, p - 1))
        shift = rng.below(p - h)
        s = 1 + rng.below(4)
        mset = random_subset(m, rng.next_u64(), ctx)
        iv = initial_interval(h, ctx)
        # sliding bound for the product map
        j_init = energy.energy_J(iv, mset, ctx)
        j_shift = energy.energy_Js(shift, iv, mset, -1, ctx)
        assert j_shift <= 2 * j_init + m * m
        # reciprocal-power sign symmetry, exactly
        assert energy.energy_Js(shift, iv, mset, s, ctx) == \
            energy.energy_Js(shift, iv, mset, -s, ctx)
    print("\nACCEPTANCE 5 PASS: sliding bound and s/-s symmetry hold on "
          "1000 seeded instances each")


def test_criterion_06_tk_trend(tk_trend_reports):
    reports, elapsed = tk_trend_reports
    devs = []
    for rep in reports:
        assert rep.hyp_flags == (True, True, True)
        assert math.isfinite(rep.max_abs_dev)
        assert rep.max_abs_dev < TK_DEV_CEILING[rep.p]
        devs.append(rep.max_abs_dev)
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.5
    assert elapsed < 300
    print(f"\nACCEPTANCE 6 PASS: max|dev| strictly decreasing "
          f"({devs[0]:.3e} > {devs[1]:.3e} > {devs[2]:.3e}), all under "
          f"calibrated ceilings, {elapsed:.0f}s total")


def test_criterion_07_product_set_trend():
    rows = []
    for p in (10007, 30011, 100003):
        ctx = PrimeContext.of(p)
        h = math.ceil(p ** (2 / 3))
        m = math.ceil(p ** 0.4)
        mset = random_subset(m, mix_seed(PRODSET_SEED, p), ctx)
        rep = prodset.product_set(initial_interval(h, ctx), mset, ctx, epsilon=0.05)
        assert rep.hypothesis_branch == "A"
        assert 0 < rep.missing < p
        rows.append({"p": p, "value": rep.missing, "skip_reason": ""})
    slope, _, _ = verify.fit_exponent(rows, "p", "value")
    assert slope < 1.0
    assert slope < PRODSET_SLOPE_BOUND
    print(f"\nACCEPTANCE 7 PASS: missing-count exponent {slope:.3f} < 1 "
          f"(frozen regression bound {PRODSET_SLOPE_BOUND})")


def test_criterion_08_frac_sum_envelope_sanity():
    p = 10007
    ctx = PrimeContext.of(p)
    ratios = []
    idx = 0
    for s in (1, 2):
        for ell in (2, 3):
            for expo in (0.4, 0.5, 0.6):
                n = math.ceil(p ** expo)
                rng = SplitMix64(mix_seed(KLOOSTERMAN_SEED, idx))
                idx += 1
                mset = random_subset(n, rng.next_u64(), ctx)
                shift = rng.below(p - n)
                x = shifted_interval(shift, n, ctx)
                a = 1 + rng.below(p - 1)
                res = spectra.kloosterman_frac_sum(a, mset, x, s, ctx, ell=ell)
                assert res.value <= res.trivial_bound
                ratios.append(res.value / res.envelope)
    top = max(ratios)
    assert math.isfinite(top)
    assert top < KLOOSTERMAN_RATIO_BOUND
    print(f"\nACCEPTANCE 8 PASS: 12-instance sweep, S <= H*M everywhere, "
          f"max observed/envelope ratio {top:.3f} (bound {KLOOSTERMAN_RATIO_BOUND})")


def test_criterion_09_burgess_diagnostic():
    recorded = {}
    for p in (1009, 10007):
        ctx = PrimeContext.of(p)
        for k_len in (math.ceil(p ** 0.5), math.ceil(p ** (2 / 3))):
            r = spectra.burgess_ratio(k_len, ctx)
            assert math.isfinite(r) and r > 0
            recorded[(p, k_len)] = r
        assert spectra.burgess_ratio(p - 1, ctx) == 0.0
    lines = ", ".join(f"p={p} K={k}: {r:.4f}" for (p, k), r in recorded.items())
    print(f"\nACCEPTANCE 9 PASS: burgess ratios finite and recorded ({lines}); "
          f"complete interval returns exactly 0")


def test_criterion_10_cli_reproducibility(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("measure = kloosterman\nprimes = 101\nh_exp = 0.4 0.5\n"
                   "m_exp = 0.4\nl_policy = random\nseed = 2\n")
    setfile = tmp_path / "set"
    setfile.write_text("1\n2\n")
    invocations = [
        ["prodset", "--p", "101", "--H", "10", "--set", "random:5", "--seed", "7"],
        ["energy", "--kind", "Js", "--p", "101", "--H", "8", "--L", "3",
         "--s", "2", "--set", "random:6", "--seed", "8"],
        ["expsum", "--p", "101", "--H", "10", "--L", "2", "--s", "1",
         "--a", "9", "--set", f"file:{setfile}"],
        ["tk", "--p", "31", "--H", "3", "--s", "1", "--k", "3",
         "--set", "random:3", "--seed", "10", "--lambdas", "0,5"],
        ["sweep", "--config", str(cfg)],
        ["selftest"],
    ]
    for argv in invocations:
        cmd = [sys.executable, "-m", "fplab", *argv]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == 0, (argv, first.stderr.decode())
        assert second.returncode == 0
        assert first.stdout == second.stdout, argv
    print("\nACCEPTANCE 10 PASS: byte-identical repeated output for all "
          "six subcommands")


def test_criterion_11_papers_own_setting():
    # the paper's T_6 over one set M and one interval X = {1..H}, s = 1,
    # with H = #M = ceil(p^(17/35 + 0.02)), M drawn as README's recipe
    # draws it. The spectral route's counts pass 2^53 here, so it is held
    # to criterion 03's relative gate where its absolute one cannot apply.
    # At p = 1000003 that check would run the exact T_6 a second time
    t0 = time.time()
    devs = []
    for p, h in ((10007, 106), (100003, 338), (1000003, 1083)):
        assert h == math.ceil(p ** (17 / 35 + 0.02))
        ctx = PrimeContext.of(p)
        factors = [(residue_set(random.Random(PAPER_SEED).sample(range(1, p), h), ctx), 0)] * 6
        rep = tkcount.tk_experiment(6, factors, h, 1, ctx, epsilon=0.02)
        assert rep.total == (h * h) ** 6
        assert rep.max_abs_dev < PAPER_DEV_CEILING[p]
        devs.append(rep.max_abs_dev)
        if p < 10 ** 6:
            lambdas = [0, 1, 2, p // 2, p - 1]
            res = tkcount.tk_spectral_check(6, factors, h, 1, ctx, sample_lambdas=lambdas)
            assert all(r < max(0.5, 1e-6 * rep.counts[lam]) for r, lam in zip(res, lambdas))
    assert devs[0] > devs[1] > devs[2]
    print(f"\nACCEPTANCE 11 PASS: one-set T_6 at H = #M = p^(17/35+0.02) keeps its exact "
          f"mass, agrees with the spectral route at p <= 100003, and max|dev| strictly "
          f"decreases ({devs[0]:.3e} > {devs[1]:.3e} > {devs[2]:.3e}) under calibrated "
          f"ceilings, {time.time() - t0:.1f}s total")
