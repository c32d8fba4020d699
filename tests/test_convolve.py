import logging
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fplab import convolve
from fplab.convolve import (ConvolutionPlan, cyclic_convolve, k_fold_count,
                            length_p_transform, plan_convolution,
                            _crt_combine, _next_pow2, _ntt_forward, _ntt_inverse,
                            _select_ntt_moduli, _NTT_POOL)
from fplab.countvec import CountVector
from fplab.errors import BudgetError, ConsistencyError
from fplab.modfield import is_prime

import oracles


def _cv(values):
    return CountVector(np.asarray(values, dtype=np.int64))


def test_identity_element():
    delta = _cv([1, 0, 0, 0, 0])
    v = _cv([3, 1, 4, 1, 5])
    assert cyclic_convolve(delta, v).as_list() == v.as_list()


def test_tiny_example():
    u = _cv([0, 1, 1])
    assert cyclic_convolve(u, u).as_list() == [2, 1, 1]


def test_mass_multiplies():
    u = _cv([2, 0, 5])
    v = _cv([1, 1, 1])
    w = cyclic_convolve(u, v)
    assert w.total == u.total * v.total


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_matches_schoolbook(data):
    p = data.draw(st.sampled_from([3, 5, 7, 31]))
    u = data.draw(st.lists(st.integers(0, 5), min_size=p, max_size=p))
    v = data.draw(st.lists(st.integers(0, 5), min_size=p, max_size=p))
    got = cyclic_convolve(_cv(u), _cv(v)).as_list()
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


def test_strategies_agree_on_medium_instance():
    rng = np.random.default_rng(3)
    p = 211
    vecs = [_cv(rng.integers(0, 3, size=p)) for _ in range(3)]
    auto = plan_convolution(p, [v.total for v in vecs])
    assert auto.strategy == "float"
    ntt_plan = ConvolutionPlan(p, "ntt", auto.bound, auto.lin_length,
                               auto.fft_length,
                               _select_ntt_moduli(auto.bound, auto.fft_length))
    a = k_fold_count(vecs, auto)
    b = k_fold_count(vecs, ntt_plan)
    assert a.as_list() == b.as_list()


def test_strategy_escalation_and_logging(caplog):
    # bound above 2^40 must route to the exact multi-modulus path
    masses = [1 << 15] * 3
    with caplog.at_level(logging.INFO, logger="fplab.convolve"):
        plan = plan_convolution(1009, masses)
    assert plan.strategy == "ntt"
    assert len(plan.moduli) >= 2
    assert any("escalating" in r.message for r in caplog.records)
    # few support pairs: the pair route undercuts any transform
    small = plan_convolution(1009, [4, 4])
    assert small.strategy == "direct"
    # full supports: 1922 pairs cost more than four length-128 transforms
    tiny = plan_convolution(31, [1000, 1000, 1000])
    assert tiny.strategy == "float"
    dense = plan_convolution(1009, [600, 600])
    assert dense.strategy == "float"


def test_ntt_pool_is_sound():
    for q in _select_ntt_moduli(1 << 120, 1 << 24):
        assert is_prime(q)
        assert (q - 1) % (1 << 24) == 0


def test_plan_refusals():
    plan = plan_convolution(101, [4, 4])
    big = _cv([100] * 101)
    with pytest.raises(BudgetError, match="required strategy"):
        k_fold_count([big, big], plan)
    with pytest.raises(BudgetError):
        plan_convolution(101, [10, 10], budget=1)
    with pytest.raises(BudgetError):
        _select_ntt_moduli(1 << 500, 1 << 20)
    # a cyclic plan must still hold one product of two factors
    short = ConvolutionPlan(101, "ntt", 1 << 50, 301, 128, _select_ntt_moduli(1 << 50, 512))
    with pytest.raises(BudgetError, match="transform length 128"):
        k_fold_count([big] * 3, short)


def test_plans_are_charged_the_transforms_they_run():
    # T_6 at n = 100003, two moduli: three float pair products at 2^18
    # (3 transforms each), then 6 cyclic transforms at 2^18 per modulus
    units = (1 << 18) * 18
    charge = (3 * 3 + 6 * 2) * units
    assert charge == 99_090_432
    # unpaired, the same plan would run 15 cyclic transforms per modulus
    assert convolve._ntt_plan(100003, list(range(6)), 1000 ** 6, ())[0] == 15 * 2 * units
    plan = plan_convolution(100003, [1000] * 6, budget=200_000_000)
    assert plan.strategy == "ntt" and len(plan.moduli) == 2 and len(plan.pairs) == 3
    assert plan.fft_length == 1 << 18 < plan.lin_length
    assert plan_convolution(100003, [1000] * 6, budget=charge) == plan
    with pytest.raises(BudgetError) as exc:
        plan_convolution(100003, [1000] * 6, budget=charge - 1)
    assert exc.value.required == charge
    # float route: d+1 transforms at N = 2048, so one distinct factor is cheaper
    float_charge = 3 * 2048 * 11
    assert plan_convolution(1009, [600, 600], budget=float_charge).strategy == "float"
    with pytest.raises(BudgetError) as exc:
        plan_convolution(1009, [600, 600], budget=float_charge - 1)
    assert exc.value.required == float_charge
    assert plan_convolution(1009, [600, 600], budget=2 * 2048 * 11,
                            layout=[0, 0]).strategy == "float"


@pytest.fixture
def ntt_cores(monkeypatch):
    """Force the core count that sizes the NTT threads and their shared pool.

    Plans of every length are threaded. Each forced count gets a fresh
    pool, shut down before the process's own pool is restored.
    """
    monkeypatch.setattr(convolve, "_THREAD_MIN_LENGTH", 1)
    monkeypatch.setattr(convolve, "_pool", None)

    def force(cores):
        if convolve._pool is not None:
            convolve._pool.shutdown()
        monkeypatch.setattr(convolve, "_cores", lambda: cores)
        convolve._pool = None

    yield force
    if convolve._pool is not None:
        convolve._pool.shutdown()


def _ntt_plans(n, vecs):
    """Hand-built linear and cyclic NTT plans for the given factors."""
    bound = 1
    for v in vecs:
        bound *= v.total
    lin = len(vecs) * (n - 1) + 1
    moduli = _select_ntt_moduli(bound, _next_pow2(lin))
    return (ConvolutionPlan(n, "ntt", bound, lin, _next_pow2(lin), moduli),
            ConvolutionPlan(n, "ntt", bound, lin, _next_pow2(2 * n - 1), moduli))


@pytest.mark.parametrize("k", [2, 3, 6])
@pytest.mark.parametrize("repeated", [False, True])
def test_cyclic_and_linear_ntt_schedules_agree(k, repeated, monkeypatch, ntt_cores):
    # n = 53: the cyclic length 128 is below the linear one for k >= 3;
    # for k = 2 the two schedules coincide
    n = 53
    rng = np.random.default_rng(7 * k + repeated)
    if repeated:
        vecs = [_cv(rng.integers(0, 1000, size=n))] * k
    else:
        vecs = [_cv(rng.integers(0, 1000, size=n)) for _ in range(k)]
    expect = vecs[0].as_list()
    for v in vecs[1:]:
        expect = oracles.cyclic_convolve(expect, v.as_list(), n)
    linear, cyclic = _ntt_plans(n, vecs)
    assert (cyclic.fft_length < cyclic.lin_length) == (k > 2)
    ntt_cores(len(linear.moduli))  # one thread per modulus
    calls = []
    forward = convolve._ntt_forward
    monkeypatch.setattr(convolve, "_ntt_forward", lambda *a: calls.append(1) or forward(*a))
    for plan in (linear, cyclic):
        calls.clear()
        assert k_fold_count(vecs, plan).as_list() == expect
        # inverses run the forward transform too; a repeated factor is transformed once
        factors = 1 if repeated else k
        steps = 1 if plan.fft_length >= plan.lin_length else 2 * k - 3
        assert len(calls) == (factors + steps) * len(plan.moduli)


@pytest.mark.parametrize("moduli, top", [(2, 100), (3, 10 ** 5), (4, 10 ** 8)])
def test_threaded_and_serial_ntt_agree(moduli, top, ntt_cores):
    # n = 211, k = 3: the cyclic length 512 is below the linear 1024, and
    # entries below `top` need `moduli` moduli
    n, k = 211, 3
    rng = np.random.default_rng(moduli)
    u = _cv(rng.integers(0, top, size=n))
    for vecs in ([_cv(rng.integers(0, top, size=n)) for _ in range(k)], [u] * k):
        expect = vecs[0].as_list()
        for v in vecs[1:]:
            expect = oracles.cyclic_convolve(expect, v.as_list(), n)
        linear, cyclic = _ntt_plans(n, vecs)
        assert len(linear.moduli) == moduli and cyclic.fft_length < cyclic.lin_length
        for plan in (linear, cyclic):
            ntt_cores(1)
            assert k_fold_count(vecs, plan).as_list() == expect
            for cores in range(2, moduli + 1):
                ntt_cores(cores)
                assert k_fold_count(vecs, plan).as_list() == expect


def test_ntt_tables_are_built_on_the_calling_thread(monkeypatch, ntt_cores):
    # a cached table built in a pool thread would pin that thread's malloc arena
    misses = []
    for name in ("_ntt_tables", "_bit_reverse_indices"):
        build = getattr(convolve, name).__wrapped__

        def recorded(*args, build=build):
            misses.append(threading.current_thread())
            return build(*args)

        monkeypatch.setattr(convolve, name, lru_cache(maxsize=16)(recorded))
    ntt_cores(4)
    rng = np.random.default_rng(8)
    vecs = [_cv(rng.integers(0, 1000, size=211)) for _ in range(4)]
    plan = plan_convolution(211, [v.total for v in vecs])
    assert len(plan.moduli) == 3
    expect = vecs[0].as_list()
    for v in vecs[1:]:
        expect = oracles.cyclic_convolve(expect, v.as_list(), 211)
    assert k_fold_count(vecs, plan).as_list() == expect
    assert len(misses) == 1 + len(plan.moduli)
    assert set(misses) == {threading.current_thread()}


def test_concurrent_callers_build_one_pool(monkeypatch, ntt_cores):
    # more callers than cores race to build the shared pool on first use
    built = []

    class Counted(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(convolve, "ThreadPoolExecutor", Counted)
    rng = np.random.default_rng(6)
    vecs = [_cv(rng.integers(0, 10 ** 5, size=211)) for _ in range(3)]
    plan = _ntt_plans(211, vecs)[1]
    ntt_cores(1)
    expect = k_fold_count(vecs, plan).as_list()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for rounds in range(1, 6):
            ntt_cores(3)
            start, results = threading.Barrier(8), []

            def caller():
                start.wait()
                results.append(k_fold_count(vecs, plan).as_list())

            callers = [threading.Thread(target=caller) for _ in range(8)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in callers)
            assert results == [expect] * 8
            for extra in built[rounds:]:
                extra.shutdown()
            assert len(built) == rounds
    finally:
        sys.setswitchinterval(interval)


def test_float_route_transforms_a_repeated_factor_once(monkeypatch):
    rng = np.random.default_rng(2)
    u = _cv(rng.integers(0, 3, size=211))
    expect = oracles.cyclic_convolve(oracles.cyclic_convolve(u.as_list(), u.as_list(), 211),
                                     u.as_list(), 211)
    plan = plan_convolution(211, [u.total] * 3)
    assert plan.strategy == "float"
    calls = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda *a: calls.append(1) or rfft(*a))
    assert k_fold_count([u] * 3, plan).as_list() == expect
    assert len(calls) == 1


def test_planner_picks_the_ntt_schedule(caplog):
    n = 100003
    with caplog.at_level(logging.INFO, logger="fplab.convolve"):
        six = plan_convolution(n, [1000] * 6)
        two = plan_convolution(n, [1 << 21] * 2)
        four = plan_convolution(n, [1 << 20] * 4)
        power = plan_convolution(n, [1 << 20] * 4, layout=[0] * 4)
        paired_power = plan_convolution(n, [1 << 12] * 4, layout=[0] * 4)
    plans = (six, two, four, power, paired_power)
    assert {plan.strategy for plan in plans} == {"ntt"}
    # six factors pair into three float products, which run cyclic
    assert (six.fft_length, six.lin_length) == (1 << 18, 300007)
    assert six.pairs == ((0, 5), (1, 4), (2, 3))
    assert two.fft_length == 1 << 18 >= two.lin_length
    # 2^20 * 2^20 is not below 2^40, so these do not pair. Four distinct
    # factors: 9 transforms at 2^18 beat 5 at 2^19; one factor four times:
    # 2 transforms at 2^19 beat 6 at 2^18
    assert two.pairs == four.pairs == power.pairs == ()
    assert four.fft_length == 1 << 18 < four.lin_length
    assert power.fft_length == 1 << 19 >= power.lin_length
    # [u]*4 with a light u: w = u*u once on the float route, then [w, w]
    # linear at 2^18, 2 transforms per modulus
    assert paired_power.pairs == ((0, 1), (2, 3))
    assert paired_power.fft_length == 1 << 18 >= paired_power.lin_length
    messages = [r.message for r in caplog.records]
    assert "cyclic schedule, length 262144" in messages[0]
    assert f"{6 * len(six.moduli)} transforms" in messages[0]
    assert f"on {min(len(six.moduli), convolve._cores())} thread(s)" in messages[0]
    assert messages[0].endswith(
        "after 3 float pair product(s) (9 transforms) at length 262144")
    assert "linear schedule, length 262144" in messages[1]
    assert f"cyclic schedule, length 262144, moduli {four.moduli[0]}" in messages[2]
    assert f"{9 * len(four.moduli)} transforms" in messages[2]
    assert "linear schedule, length 524288" in messages[3]
    assert f"{2 * len(power.moduli)} transforms" in messages[3]
    assert not any("float pair" in m for m in messages[1:4])
    assert "linear schedule, length 262144" in messages[4]
    assert f"{2 * len(paired_power.moduli)} transforms" in messages[4]
    assert messages[4].endswith(
        "after 1 float pair product(s) (2 transforms) at length 262144")


def test_kfold_plans_for_its_distinct_factors(caplog):
    # n = 1009, k = 4, masses near 2^14.6: four distinct factors make two
    # float pair products, one factor four times one, and either way the
    # NTT stage multiplies two arrays, linear at 2048
    n = 1009
    rng = np.random.default_rng(4)
    vecs = [_cv(rng.integers(0, 50, size=n)) for _ in range(4)]
    for factors in (vecs, [vecs[0]] * 4):
        expect = factors[0].as_list()
        for v in factors[1:]:
            expect = oracles.cyclic_convolve(expect, v.as_list(), n)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fplab.convolve"):
            assert k_fold_count(factors).as_list() == expect
        products = 2 if factors is vecs else 1
        assert "linear schedule, length 2048" in caplog.records[0].message
        assert f"after {products} float pair product(s)" in caplog.records[0].message
        assert "on 1 thread(s)" in caplog.records[0].message  # too short to hand over


def _paired_case(case):
    """Factors for a float-paired NTT plan at n = 211, and the pairs it expects."""
    n = 211
    rng = np.random.default_rng(len(case))

    def vec(top):
        return _cv(rng.integers(0, top, size=n))

    if case.startswith("distinct"):  # bounds near 2^43, 2^58 and 2^60
        k = int(case[-1])
        return [vec({3: 200, 5: 30, 6: 10}[k]) for _ in range(k)], k // 2
    if case == "power":
        return [vec(100)] * 4, 2
    if case == "mixed":
        u, v, w, x = (vec(1000) for _ in range(4))
        return [u, u, v, w, w, x], 3
    if case == "some":
        # masses near 2^20.7 and 2^11.7: two heavy factors do not pair, so
        # each light one pairs with a heavy one and one heavy one is left
        heavy, light = 1 << 14, 32
        return [vec(heavy), vec(light), vec(heavy), vec(heavy), vec(light)], 2
    assert case == "object"  # bound near 2^99, above 2^62
    return [vec(1 << 11) for _ in range(6)], 3


@pytest.mark.parametrize("case", ["distinct3", "distinct5", "distinct6", "power",
                                  "mixed", "some", "object"])
def test_float_paired_plans_match_the_oracle(case, monkeypatch):
    vecs, pairs = _paired_case(case)
    n = vecs[0].p
    masses = [v.total for v in vecs]
    plan = plan_convolution(n, masses, layout=[id(v.counts) for v in vecs])
    assert plan.strategy == "ntt" and len(plan.pairs) == pairs
    assert all(masses[i] * masses[j] < convolve.FLOAT_EXACT_BOUND for i, j in plan.pairs)
    unpaired = sorted(set(range(len(vecs))) - {i for pair in plan.pairs for i in pair})
    if case == "some":
        assert masses[unpaired[0]] ** 2 >= convolve.FLOAT_EXACT_BOUND
    expect = vecs[0].as_list()
    for v in vecs[1:]:
        expect = oracles.cyclic_convolve(expect, v.as_list(), n)
    products = []
    pair_kfold = convolve._float_kfold
    monkeypatch.setattr(convolve, "_float_kfold",
                        lambda *a: products.append(1) or pair_kfold(*a))
    got = k_fold_count(vecs)
    assert got.as_list() == expect
    assert got.counts.dtype == (object if plan.bound >= 1 << 62 else np.int64)
    assert (got.counts.dtype == object) == (case in ("mixed", "some", "object"))
    # a pair of the same two arrays is computed once
    assert len(products) == {"power": 1, "mixed": 3}.get(case, pairs)


def test_paired_plans_run_the_transforms_they_are_charged(monkeypatch):
    # T_6 over six distinct factors at n = 211: 3 float pairs (6 forward
    # transforms, 3 inverse) at 512, then 6 cyclic NTTs at 512 per modulus
    vecs, _ = _paired_case("distinct6")
    masses = [v.total for v in vecs]
    plan = plan_convolution(211, masses)
    assert plan.fft_length == 512 < plan.lin_length == 631
    charge = (9 + 6 * len(plan.moduli)) * 512 * 9
    assert plan_convolution(211, masses, budget=charge) == plan
    calls = []
    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, lambda *a, f=getattr(np.fft, name):
                            calls.append("float") or f(*a))
    forward = convolve._ntt_forward
    monkeypatch.setattr(convolve, "_ntt_forward", lambda *a: calls.append("ntt") or forward(*a))
    expect = k_fold_count(vecs, plan).as_list()
    assert calls.count("float") == 9 and calls.count("ntt") == 6 * len(plan.moduli)
    # the planner refuses one unit less before any transform runs
    calls.clear()
    with pytest.raises(BudgetError) as exc:
        k_fold_count(vecs, budget=charge - 1)
    assert exc.value.required == charge and calls == []
    assert k_fold_count(vecs, budget=charge).as_list() == expect


def test_budget_below_a_paired_plan_is_refused_before_any_transform(monkeypatch):
    # [u]*4 at n = 1009: w = u*u on the float route (one rfft, one irfft at
    # 2048), then [w, w] linear at 2048, 2 NTTs per modulus
    rng = np.random.default_rng(12)
    u = _cv(rng.integers(0, 50, size=1009))
    plan = plan_convolution(1009, [u.total] * 4, layout=[0] * 4)
    assert plan.pairs == ((0, 1), (2, 3)) and plan.fft_length == 2048
    charge = (2 + 2 * len(plan.moduli)) * 2048 * 11

    def refuse(*args, **kwargs):
        raise AssertionError("a transform ran before the budget check")

    with monkeypatch.context() as m:
        for name in ("rfft", "irfft"):
            m.setattr(np.fft, name, refuse)
        m.setattr(convolve, "_ntt_forward", refuse)
        with pytest.raises(BudgetError) as exc:
            k_fold_count([u] * 4, budget=charge - 1)
    assert exc.value.required == charge
    expect = u.as_list()
    for _ in range(3):
        expect = oracles.cyclic_convolve(expect, u.as_list(), 1009)
    assert k_fold_count([u] * 4, budget=charge).as_list() == expect


def test_explicit_paired_plans_are_checked():
    rng = np.random.default_rng(13)
    vecs = [_cv(rng.integers(0, 1000, size=211)) for _ in range(4)]
    plan = plan_convolution(211, [v.total for v in vecs])
    assert plan.pairs
    expect = k_fold_count(vecs, plan).as_list()
    # any disjoint pairs of light factors give the same counts
    for pairs in (((0, 1), (2, 3)), ((3, 0),), ((1, 2),)):
        lin = (4 - len(pairs)) * 210 + 1
        other = ConvolutionPlan(211, "ntt", plan.bound, lin, 512, plan.moduli, pairs)
        assert k_fold_count(vecs, other).as_list() == expect
    bad = {"overlap": ((0, 1), (1, 2)), "range": ((0, 4),), "stage": ((0, 1), (2, 3))}
    for what, pairs in bad.items():
        factors = vecs[:3] if what == "stage" else vecs
        with pytest.raises(BudgetError, match="disjoint pairs"):
            k_fold_count(factors, ConvolutionPlan(211, "ntt", plan.bound, 421, 512,
                                                  plan.moduli, pairs))
    with pytest.raises(BudgetError, match="disjoint pairs"):
        k_fold_count(vecs[:2], ConvolutionPlan(211, "float", 1 << 39, 421, 512, (), ((0, 1),)))
    # a pair at or above 2^40 would leave the float route's certified range
    heavy = [_cv(rng.integers(1 << 14, 1 << 15, size=211)) for _ in range(3)]
    bound = prod(v.total for v in heavy)
    forged = ConvolutionPlan(211, "ntt", bound, 421, 512,
                             _select_ntt_moduli(bound, 512), ((0, 1),))
    with pytest.raises(BudgetError, match="beyond the float route"):
        k_fold_count(heavy, forged)
    # the NTT stage must still be long enough for its factors
    short = ConvolutionPlan(211, "ntt", plan.bound, 421, 512, plan.moduli, ((0, 1),))
    with pytest.raises(BudgetError, match="fewer factors"):
        k_fold_count(vecs, short)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_garner_matches_textbook_crt(m):
    moduli = _NTT_POOL[:m]
    big_q = 1
    for q in moduli:
        big_q *= q
    rng = np.random.default_rng(m)
    residues = [np.concatenate([[0, q - 1, 0, q - 1], rng.integers(0, q, size=200)])
                .astype(np.uint64) for q in moduli]
    residues[0][2] = moduli[0] - 1
    residues[-1][3] = 0
    # the textbook formula: sum of r_i * (Q/q_i) * ((Q/q_i)^-1 mod q_i), mod Q
    coeffs = [(big_q // q) * pow(big_q // q % q, q - 2, q) for q in moduli]
    expect = [sum(c * int(r[i]) for c, r in zip(coeffs, residues)) % big_q
              for i in range(residues[0].size)]
    got = _crt_combine(residues, moduli, big_q)
    if big_q < 1 << 62:
        assert got.dtype == np.int64
    else:
        assert got.dtype == object and all(type(v) is int for v in got)
    assert got.tolist() == expect
    # entries known to lie below 2^62 come back as int64 whatever the moduli
    small = [v % (1 << 62) for v in expect]
    got = _crt_combine([np.asarray([v % q for v in small], dtype=np.uint64) for q in moduli],
                       moduli, max(small) + 1)
    assert got.dtype == np.int64 and got.tolist() == small


def test_ntt_inverse_undoes_forward():
    rng = np.random.default_rng(9)
    for q in (_NTT_POOL[0], _NTT_POOL[-1]):
        for bits in range(1, 19):
            x = rng.integers(0, q, size=1 << bits).astype(np.uint64)
            x[0] = q - 1
            assert np.array_equal(_ntt_inverse(_ntt_forward(x, q, x.size), q, x.size), x)


def test_float_route_near_its_bound_matches_ntt():
    # concentrated factors: two entries carry almost all of the mass, so
    # single output coefficients reach a sixteenth of a bound just under 2^40
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
        ntt_plan = ConvolutionPlan(p, "ntt", auto.bound, auto.lin_length,
                                   auto.fft_length,
                                   _select_ntt_moduli(auto.bound, auto.fft_length))
        got = k_fold_count(vecs, auto)
        assert got.as_list() == k_fold_count(vecs, ntt_plan).as_list()
        assert max(got.as_list()) >= auto.bound >> 4


def test_float_route_certificate_rejects_uncertified_plans():
    # a float plan forged for coefficients near 2^51 must fail its residual check
    p = 211
    rng = np.random.default_rng(5)
    vecs = [_cv(rng.integers(1 << 21, 1 << 22, size=p)) for _ in range(2)]
    bound = vecs[0].total * vecs[1].total
    forged = ConvolutionPlan(p, "float", bound, 2 * p - 1, 512)
    with pytest.raises(ConsistencyError, match="residual"):
        k_fold_count(vecs, forged)


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
