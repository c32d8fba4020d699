import logging
import re
import weakref
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fplab import convolve, countvec, sets, tkcount
from fplab.convolve import (ConvolutionPlan, k_fold_count,
                            length_p_transform, plan_convolution)
from fplab.countvec import CountVector
from fplab.errors import BudgetError, ConsistencyError
from fplab.modfield import PrimeContext

import oracles


def _cv(values):
    return CountVector(np.asarray(values, dtype=np.int64))


def _run(vecs, plan):
    """The counts a hand-built plan gives, run by k_fold_count's executor."""
    return convolve._run([v.counts for v in vecs], vecs[0].p, plan).tolist()


def test_identity_element():
    delta = _cv([1, 0, 0, 0, 0])
    v = _cv([3, 1, 4, 1, 5])
    assert k_fold_count([delta, v]).as_list() == v.as_list()


def test_tiny_example():
    u = _cv([0, 1, 1])
    assert k_fold_count([u, u]).as_list() == [2, 1, 1]


def test_mass_multiplies():
    u = _cv([2, 0, 5])
    v = _cv([1, 1, 1])
    w = k_fold_count([u, v])
    assert w.total == u.total * v.total


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_matches_schoolbook(data):
    p = data.draw(st.sampled_from([3, 5, 7, 31]))
    u = data.draw(st.lists(st.integers(0, 5), min_size=p, max_size=p))
    v = data.draw(st.lists(st.integers(0, 5), min_size=p, max_size=p))
    got = k_fold_count([_cv(u), _cv(v)]).as_list()
    assert got == oracles.cyclic_convolve(u, v, p)


def test_kfold_matches_enumeration_small():
    # p <= 31, per-factor mass <= 16, k <= 6
    rng = np.random.default_rng(11)
    for p in (5, 17, 31):
        for k in (2, 3, 6):
            vecs = []
            values = []
            for _ in range(k):
                vals = rng.integers(1, p, size=rng.integers(2, 5)).tolist()
                counts = [0] * p
                for t in vals:
                    counts[t] += 1
                vecs.append(_cv(counts))
                values.append(vals)
            got = k_fold_count(vecs).as_list()
            assert got == oracles.tk_counts(values, p)


def _chain_logs(caplog):
    """(transforms run, transforms charged, steps) of each float chain's log line."""
    out = []
    for record in caplog.records:
        m = re.search(r"\d+ step\(s\) (.*) \(limbs x limbs @ width\), (\d+) of (\d+) charged",
                      record.getMessage())
        if m:
            out.append((int(m[2]), int(m[3]), m[1].split()))
    return out


def _spy_transforms(monkeypatch):
    """The arrays passed to np.fft.rfft and the count of np.fft.irfft calls, as they run."""
    calls = {"rfft": [], "irfft": 0}
    rfft, irfft = np.fft.rfft, np.fft.irfft

    def forward(a, *args):
        calls["rfft"].append(a)
        return rfft(a, *args)

    def inverse(*args):
        calls["irfft"] += 1
        return irfft(*args)

    monkeypatch.setattr(np.fft, "rfft", forward)
    monkeypatch.setattr(np.fft, "irfft", inverse)
    return calls


def _expect(vecs):
    expect = vecs[0].as_list()
    for v in vecs[1:]:
        expect = oracles.cyclic_convolve(expect, v.as_list(), v.p)
    return expect


def test_strategies_agree_on_medium_instance():
    rng = np.random.default_rng(3)
    p = 211
    vecs = [_cv(rng.integers(0, 3, size=p)) for _ in range(3)]
    auto = plan_convolution(p, [v.total for v in vecs])
    assert auto.strategy == "float"
    direct = ConvolutionPlan(p, "direct", auto.bound, 0)
    assert k_fold_count(vecs).as_list() == _run(vecs, direct) == _expect(vecs)


def test_strategy_escalation_and_logging(caplog):
    # a bound above 2^40 runs the float chain too, which logs one line
    # when it runs; planning logs nothing
    rng = np.random.default_rng(10)
    vecs = [_cv(rng.integers(0, 65, size=1009)) for _ in range(3)]  # masses near 2^15
    with caplog.at_level(logging.INFO, logger="fplab.convolve"):
        plan = plan_convolution(1009, [v.total for v in vecs])
        assert plan.strategy == "float" and plan.bound >= 1 << 40
        assert plan.fft_length == 2048 and plan.moduli == ()
        assert caplog.records == []
        assert k_fold_count(vecs).as_list() == _expect(vecs)
    # the worst case of these masses splits the second step, but the
    # actual norms certify both steps whole: 3 + 3 transforms
    ((run, charged, steps),) = _chain_logs(caplog)
    assert run == 6 < charged == plan.transforms
    assert [step.split("@")[0] for step in steps] == ["1x1", "1x1"]
    # few support pairs: the pair route undercuts any transform
    small = plan_convolution(1009, [4, 4])
    assert small.strategy == "direct"
    # full supports: 1922 pairs cost more than six length-64 transforms
    tiny = plan_convolution(31, [1000, 1000, 1000])
    assert tiny.strategy == "float" and tiny.transforms == 6
    dense = plan_convolution(1009, [600, 600])
    assert dense.strategy == "float"


def test_plan_refusals():
    with pytest.raises(BudgetError):
        plan_convolution(101, [10, 10], budget=1)
    with pytest.raises(BudgetError, match="at least two"):
        k_fold_count([_cv([1, 2, 3])])


def test_plans_are_charged_the_transforms_they_run():
    # T_6 at n = 100003 with masses 1000: at worst-case norms steps 1-2
    # stay one limb (3 + 2 transforms), steps 3-5 split the accumulator
    # into two limbs (2 + 1 forward, 2 inverse each): 21 transforms at 2^18
    units = (1 << 18) * 18
    charge = 21 * units
    assert charge == 99_090_432
    plan = plan_convolution(100003, [1000] * 6, budget=charge)
    assert plan == ConvolutionPlan(100003, "float", 1000 ** 6, 1 << 18, 21)
    with pytest.raises(BudgetError) as exc:
        plan_convolution(100003, [1000] * 6, budget=charge - 1)
    assert exc.value.required == charge
    # one step: 2 forward transforms and 1 inverse at 2048, or 1 forward
    # when both factors are one array
    float_charge = 3 * 2048 * 11
    assert plan_convolution(1009, [600, 600], budget=float_charge).strategy == "float"
    with pytest.raises(BudgetError) as exc:
        plan_convolution(1009, [600, 600], budget=float_charge - 1)
    assert exc.value.required == float_charge
    assert plan_convolution(1009, [600, 600], budget=2 * 2048 * 11,
                            layout=[0, 0]).strategy == "float"


@pytest.mark.parametrize("k,charge", [(2, 2), (3, 4)])
def test_float_route_transforms_a_repeated_factor_once(monkeypatch, k, charge):
    # [u]*k: u's spectrum is made once, as the first factor, and serves
    # every step; each later step transforms only the accumulator
    rng = np.random.default_rng(2)
    u = _cv(rng.integers(0, 3, size=211))
    plan = plan_convolution(211, [u.total] * k, layout=[0] * k)
    assert plan.strategy == "float" and plan.transforms == charge
    calls = _spy_transforms(monkeypatch)
    assert k_fold_count([u] * k).as_list() == _expect([u] * k)
    assert [a is u.counts for a in calls["rfft"]] == [True] + [False] * (k - 2)
    assert calls["irfft"] == k - 1
    # the chain refuses to run more transforms than its plan was charged
    short = ConvolutionPlan(211, "float", plan.bound, plan.fft_length, charge - 1)
    with pytest.raises(ConsistencyError, match=f"ran {charge} transforms, {charge - 1} charged"):
        _run([u] * k, short)


def test_planner_charges_worst_case_limbs():
    # [u]*4 at n = 100003 with a mass of 3163 (the recip_e4 energy): at
    # worst-case norms steps 1 and 2 are one limb (u transformed once,
    # then one accumulator transform and one inverse each) and step 3
    # splits the accumulator in two: 2 + 2 + 4 transforms
    power = plan_convolution(100003, [3163] * 4, layout=[0] * 4)
    assert power.strategy == "float" and power.transforms == 8
    # four distinct factors transform each of them: 3 + 3 + 5
    assert plan_convolution(100003, [3163] * 4).transforms == 11
    # point masses of 2^23 - 1: every step splits both sides, so one array
    # three times is charged as much as three arrays
    assert plan_convolution(211, [(1 << 23) - 1] * 3).transforms == 16
    assert plan_convolution(211, [(1 << 23) - 1] * 3, layout=[0] * 3).transforms == 16
    # a zero mass certifies one limb at once
    assert plan_convolution(211, [0, 5, 5]).strategy == "direct"


def test_kfold_plans_for_its_distinct_factors(caplog, monkeypatch):
    # n = 1009, k = 4, masses near 2^14.6: four distinct factors, or one
    # factor four times, whose whole-array spectrum is made once
    n = 1009
    rng = np.random.default_rng(4)
    vecs = [_cv(rng.integers(0, 50, size=n)) for _ in range(4)]
    calls = _spy_transforms(monkeypatch)
    for factors in (vecs, [vecs[0]] * 4):
        expect = _expect(factors)
        caplog.clear()
        calls["rfft"].clear()
        calls["irfft"] = 0
        with caplog.at_level(logging.INFO, logger="fplab.convolve"):
            assert k_fold_count(factors).as_list() == expect
        ((run, charged, steps),) = _chain_logs(caplog)
        assert run == len(calls["rfft"]) + calls["irfft"] <= charged
        assert charged == plan_convolution(n, [v.total for v in factors],
                                           layout=[id(v.counts) for v in factors]).transforms
        assert steps[0].startswith("1x1@")
        assert sum(a is factors[0].counts for a in calls["rfft"]) == 1


def _paired_case(case):
    """Factors whose chain splits in various ways at n = 211, and repeated arrays."""
    n = 211
    rng = np.random.default_rng(len(case))

    def vec(top):
        return _cv(rng.integers(0, top, size=n))

    if case.startswith("distinct"):  # bounds near 2^43, 2^58 and 2^60
        k = int(case[-1])
        return [vec({3: 200, 5: 30, 6: 10}[k]) for _ in range(k)]
    if case == "power":
        return [vec(100)] * 4
    if case == "mixed":
        u, v, w, x = (vec(1000) for _ in range(4))
        return [u, u, v, w, w, x]
    if case == "some":
        # masses near 2^20.7 and 2^11.7: heavy and light factors mixed
        heavy, light = 1 << 14, 32
        return [vec(heavy), vec(light), vec(heavy), vec(heavy), vec(light)]
    assert case == "object"  # bound near 2^99, above 2^62
    return [vec(1 << 11) for _ in range(6)]


@pytest.mark.parametrize("case", ["distinct3", "distinct5", "distinct6", "power",
                                  "mixed", "some", "object"])
def test_float_paired_plans_match_the_oracle(case, caplog):
    # every float plan is a chain of paired (two-factor) products
    vecs = _paired_case(case)
    masses = [v.total for v in vecs]
    plan = plan_convolution(vecs[0].p, masses, layout=[id(v.counts) for v in vecs])
    assert plan.strategy == "float"
    with caplog.at_level(logging.INFO, logger="fplab.convolve"):
        got = k_fold_count(vecs)
    assert got.as_list() == _expect(vecs)
    assert got.counts.dtype == (object if plan.bound >= 1 << 62 else np.int64)
    assert (got.counts.dtype == object) == (case in ("mixed", "some", "object"))
    ((run, charged, steps),) = _chain_logs(caplog)
    assert run <= charged == plan.transforms and len(steps) == len(vecs) - 1


def test_l2_certificate_admits_a_pair_the_mass_rule_refused(caplog):
    # 0/1 factors of masses 33 * 2^15 and 32 * 2^15: the mass product is
    # 2^40.04, which a 2^40 mass rule would refuse, but ||a|| ||b|| = 2^20.02
    # certifies one limb. Both are 61-periodic on Z_n, n = 61 * 2^15, so
    # their convolution is 2^15 times the one of their periods on Z_61.
    m, reps = 61, 1 << 15
    rng = np.random.default_rng(14)
    periods = [np.zeros(m, dtype=np.int64) for _ in range(2)]
    periods[0][rng.choice(m, 33, replace=False)] = 1
    periods[1][rng.choice(m, 32, replace=False)] = 1
    a, b = (_cv(np.tile(period, reps)) for period in periods)
    assert a.total * b.total >= 1 << 40
    with caplog.at_level(logging.INFO, logger="fplab.convolve"):
        got = k_fold_count([a, b])
    assert _chain_logs(caplog) == [(3, 3, ["1x1@1"])]  # one limb: width = largest entry's bits
    small = oracles.cyclic_convolve(periods[0].tolist(), periods[1].tolist(), m)
    assert np.array_equal(got.counts, np.tile(np.asarray(small) * reps, reps))


def test_certificate_adds_every_limb_product_of_a_sum():
    # from squared norms: the sum s = 1 is ||x_0|| ||y_1|| + ||x_1|| ||y_0||
    # = 2*5 + 3*4, the largest of the three sums
    assert convolve._sum_bound([4, 9], [16, 25]) == 22
    assert convolve._sum_bound([2], [3]) == 3  # sqrt(6), rounded up
    # Percival's factor at 2^18 with beta = eps: (6m + sqrt5 (3m+1)) eps
    assert 230 < convolve._gamma(1 << 18) * 2 ** 53 < 231


def test_norm_floors_never_exceed_exact_norms():
    # a probe is rejected from a floor, so the floor must be a true lower bound
    assert convolve._sum_floor(np.full(4, (1 << 62) - 1)) <= 4 * ((1 << 62) - 1)
    assert convolve._sum_floor(np.arange(1000)) == 499500  # fits int64: exact
    rng = np.random.default_rng(16)
    for top in (1 << 20, 1 << 45, 1 << 62):
        x = rng.integers(0, top, size=4099)
        norms = convolve._exact_norms([x], convolve._WORD, int(x.max()).bit_length())
        for b in (7, 31, 61):
            (low,), (exact,) = norms(b, 1, floor=True), norms(b, 1)
            assert 0.7 * exact <= low <= exact


def test_width_probes_reject_from_norm_floors(monkeypatch, caplog):
    # T_6 at p = 100003 on six random sets: a width whose norm floors
    # already fail takes no exact norm. Exact norms at every width tried
    # made 98 exact-path dots (countvec._exact_dot, recursion included);
    # the floors leave 33, and the widths are those the exact norms choose.
    p, h = 100003, 563
    c = PrimeContext(p)
    factors = [(sets.random_subset(h, sets.mix_seed(1, 1, p, i), c), 0) for i in range(6)]
    calls, exact_dot = [0], countvec._exact_dot

    def spy(*args):
        calls[0] += 1
        return exact_dot(*args)

    monkeypatch.setattr(countvec, "_exact_dot", spy)
    with caplog.at_level(logging.INFO, logger="fplab.convolve"):
        tkcount.tk_experiment(6, factors, h, 1, c, epsilon=0.02)
    assert calls[0] == 33
    ((run, charged, steps),) = _chain_logs(caplog)
    assert (run, charged, steps) == (27, 51, ["1x1@4", "1x1@20", "2x1@26", "3x1@25", "4x1@24"])


def test_uncertified_products_are_never_run_unsplit(monkeypatch, caplog):
    # entries near 2^30 at n = 211: ||x|| ||y|| is near 2^67, far past
    # what rounds exactly, so no whole factor is ever transformed
    rng = np.random.default_rng(15)
    vecs = [_cv(rng.integers(1 << 29, 1 << 30, size=211)) for _ in range(2)]
    norms = [v.sum_of_squares() for v in vecs]
    assert norms[0] * norms[1] * convolve._gamma(512) ** 2 >= 1 / 16
    calls = _spy_transforms(monkeypatch)
    with caplog.at_level(logging.INFO, logger="fplab.convolve"):
        assert k_fold_count(vecs).as_list() == _expect(vecs)
    assert calls["rfft"] and not any(a is v.counts for a in calls["rfft"] for v in vecs)
    assert all(int(a.max()) < 1 << 26 for a in calls["rfft"])
    ((run, charged, (step,)),) = _chain_logs(caplog)
    assert not step.startswith("1x1@") and run <= charged


def test_paired_plans_run_the_transforms_they_are_charged(monkeypatch, caplog):
    # point masses of 2^23 - 1, every bit set: the worst case of their
    # masses, so each step splits exactly as the planner charged it, and
    # the chain runs every charged transform
    n = 211
    vecs = []
    for i in range(3):
        counts = np.zeros(n, dtype=np.int64)
        counts[3 + 70 * i] = (1 << 23) - 1
        vecs.append(_cv(counts))
    masses = [v.total for v in vecs]
    caplog.set_level(logging.INFO, logger="fplab.convolve")
    plan = plan_convolution(n, masses)
    assert plan.transforms == 16 and plan.fft_length == 512
    charge = plan.transforms * 512 * 9
    calls = _spy_transforms(monkeypatch)
    assert caplog.records == []  # planning alone logs nothing
    expect = k_fold_count(vecs, budget=charge).as_list()
    assert expect == _expect(vecs)
    ((run, charged, steps),) = _chain_logs(caplog)
    assert run == charged == len(calls["rfft"]) + calls["irfft"] == 16
    assert steps == ["2x2@22", "3x2@22"]
    # the planner refuses one unit less before any transform runs
    calls["rfft"].clear()
    caplog.clear()
    with pytest.raises(BudgetError) as exc:
        k_fold_count(vecs, budget=charge - 1)
    assert exc.value.required == charge and calls["rfft"] == [] and caplog.records == []
    # one of them three times splits like three: no spectrum is reused
    calls["irfft"] = 0
    assert k_fold_count([vecs[0]] * 3, budget=charge).as_list() == _expect([vecs[0]] * 3)
    assert len(calls["rfft"]) + calls["irfft"] == 16


def test_budget_below_a_paired_plan_is_refused_before_any_transform(monkeypatch):
    # [u]*4 at n = 1009: u is transformed once, and the plan is charged
    # its worst-case steps at 2048
    rng = np.random.default_rng(12)
    u = _cv(rng.integers(0, 50, size=1009))
    plan = plan_convolution(1009, [u.total] * 4, layout=[0] * 4)
    assert plan.strategy == "float" and plan.fft_length == 2048
    charge = plan.transforms * 2048 * 11

    def refuse(*args, **kwargs):
        raise AssertionError("a transform ran before the budget check")

    with monkeypatch.context() as m:
        for name in ("rfft", "irfft"):
            m.setattr(np.fft, name, refuse)
        with pytest.raises(BudgetError) as exc:
            k_fold_count([u] * 4, budget=charge - 1)
    assert exc.value.required == charge
    assert k_fold_count([u] * 4, budget=charge).as_list() == _expect([u] * 4)


def test_any_factor_order_gives_the_same_counts():
    # each order takes other limb widths at each step
    rng = np.random.default_rng(13)
    vecs = [_cv(rng.integers(0, top, size=211)) for top in (1000, 3, 1 << 20, 50)]
    expect = k_fold_count(vecs).as_list()
    assert expect == _expect(vecs)
    for order in ((3, 2, 1, 0), (1, 3, 0, 2), (2, 0, 3, 1)):
        assert k_fold_count([vecs[i] for i in order]).as_list() == expect


def test_factors_are_freed_after_their_last_step(monkeypatch):
    # a factor only the convolution holds is gone once its step has read
    # it: at the first inverse only the first factor and the ones after
    # the second are alive, and at the last inverse none is
    refs, masses, alive = [], [], []

    def factors():
        vecs = _paired_case("distinct6")
        refs.extend(weakref.ref(v.counts) for v in vecs)
        masses.extend(v.total for v in vecs)
        return vecs

    irfft = np.fft.irfft

    def inverse(*args):
        alive.append([ref() is not None for ref in refs])
        return irfft(*args)

    monkeypatch.setattr(np.fft, "irfft", inverse)
    got = k_fold_count(factors())  # no assert: its rewriting would hold the list
    assert got.total == prod(masses)
    assert alive[0] == [True, False] + [True] * 4 and not any(alive[-1])


def test_concentrated_factors_agree_with_the_direct_route():
    # two entries carry almost all of the mass, so single coefficients
    # reach a sixteenth of a bound just under 2^40
    p = 1009
    for k, big in ((2, (1 << 19) - 4), (3, 1 << 12)):
        vecs = []
        for f in range(k):
            counts = np.zeros(p, dtype=np.int64)
            counts[[3 + f, 500 + 7 * f]] = [big, big - 5 - f]
            counts[[11, 600 + f, 1000]] += [1, 2, 3]
            vecs.append(_cv(counts))
        auto = plan_convolution(p, [v.total for v in vecs])
        assert auto.strategy == "float"
        assert auto.bound < 1 << 40 <= 4 * auto.bound
        got = k_fold_count(vecs)
        assert got.as_list() == _run(vecs, ConvolutionPlan(p, "direct", auto.bound, 0))
        assert max(got.as_list()) >= auto.bound >> 4


def test_float_route_certificate_rejects_uncertified_plans(monkeypatch):
    # an inverse transform that errs by 0.4 can no longer be certified to
    # round exactly: the run-time residual check raises
    rng = np.random.default_rng(5)
    vecs = [_cv(rng.integers(0, 1 << 10, size=211)) for _ in range(3)]
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a: irfft(*a) + 0.4)
    with pytest.raises(ConsistencyError, match="residual"):
        k_fold_count(vecs)


def test_exact_route_with_huge_counts():
    # coefficients far beyond 2^63 stay exact
    p = 67
    u = _cv([1 << 20] * p)
    w = k_fold_count([u] * 3)
    assert w.total == u.total ** 3
    # every entry equals (2^20)^3 * 67^2 by symmetry
    expect = (1 << 60) * 67 * 67
    assert w.counts.dtype == object
    assert all(v == expect for v in w.as_list())
    # an object-backed vector is an output only, never a factor
    with pytest.raises(ConsistencyError, match="64-bit"):
        k_fold_count([w, u])


def test_transform_examples():
    delta = np.zeros(11)
    delta[0] = 1.0
    out = length_p_transform(delta)
    assert np.allclose(out, np.ones(11), atol=1e-12)

    rng = np.random.default_rng(0)
    u = rng.integers(0, 2, size=101).astype(float)
    f = length_p_transform(u)
    assert abs(f[0] - u.sum()) < 1e-9


def test_transform_round_trip():
    rng = np.random.default_rng(1)
    u = rng.integers(0, 2, size=101).astype(float)
    f = length_p_transform(u)
    back = np.conj(length_p_transform(np.conj(f)))
    assert np.abs(back - 101 * u).max() < 1e-6


@pytest.mark.parametrize("n", [31, 127, 131, 211, 1009])
def test_transform_matches_direct_dft(n):
    rng = np.random.default_rng(n)
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    got = length_p_transform(u)
    expect = np.asarray(oracles.dft(u.tolist()))
    assert np.abs(got - expect).max() < 1e-6
