import hashlib
import logging
import re
import tracemalloc
import weakref
from dataclasses import replace
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fplab import convolve, countvec, sets, tkcount
from fplab.convolve import (ConvolutionPlan, k_fold_count,
                            length_p_transform, plan_convolution)
from fplab.countvec import CountVector
from fplab.errors import BudgetError, ConsistencyError, DomainError
from fplab.modfield import PrimeContext, is_prime

import oracles


def _cv(values):
    return CountVector(np.asarray(values, dtype=np.int64))


def _run(vecs, plan):
    """The counts a hand-built plan gives, run by k_fold_count's executor."""
    return convolve._run([v.counts for v in vecs], [v.total for v in vecs], vecs[0].p,
                         plan).tolist()


def _float_plan(vecs, budget=10 ** 15):
    """A hand-built float plan for these factors, at the planner's floors and this budget."""
    n, masses = vecs[0].p, [v.total for v in vecs]
    size = convolve._next_pow2(2 * n - 1)
    floors = tuple(convolve._floors(n, masses, [id(v.counts) for v in vecs], size))
    return ConvolutionPlan(n, "float", prod(masses), size, floors, budget)


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


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_float_chain_matches_the_pair_oracle(data):
    # odd and even n, the smallest included; factors whose entries need 2
    # to 4 limbs at the widths that certify, and repeated factors. Both
    # k_fold_count's own plan and a float plan must give the oracle's counts
    n = data.draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 16, 17, 64, 101]))
    k = data.draw(st.sampled_from([2, 3, 4]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    bits = data.draw(st.lists(st.sampled_from([1, 12, 30, 45, 61]), min_size=k, max_size=k))
    arrays = [_cv(rng.integers(0, 1 << b, size=n)) for b in bits]
    vecs = [arrays[i] for i in data.draw(st.lists(st.integers(0, k - 1), min_size=k,
                                                  max_size=k))]
    expect = _expect(vecs)
    assert k_fold_count(vecs).as_list() == expect
    assert _run(vecs, _float_plan(vecs)) == expect


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
    """(transforms run, sum of the floors, steps) of each float chain's log line."""
    return [line for line in (_chain_line(r.getMessage()) for r in caplog.records) if line]


def _chain_line(message):
    """(transforms run, sum of the floors, steps) of a float chain's log line, else None."""
    m = re.search(r"\d+ step\(s\) (.*) \(limbs x limbs @ width\), (\d+) transforms run, "
                  r"floor (\d+),", message)
    return (int(m[2]), int(m[3]), m[1].split()) if m else None


def _step_runs(monkeypatch):
    """The transforms each float step runs, appended as the chain walks _schedule.

    Counted from numpy's calls: a packed step makes one call per transform,
    a phase-pair step two (its log line's step text tells them apart).
    """
    calls, runs, schedule = [0], [], convolve._schedule

    def count(fft):
        def call(*args, **kwargs):
            calls[0] += 1
            return fft(*args, **kwargs)
        return call

    def spy(*args):
        for step in schedule(*args):
            start = calls[0]
            yield step
            runs.append(calls[0] - start)

    monkeypatch.setattr(np.fft, "rfft", count(np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", count(np.fft.irfft))
    monkeypatch.setattr(convolve, "_schedule", spy)
    return runs


def _per_step(runs, steps):
    """Transforms by step, from _step_runs' calls and the log line's steps."""
    return [calls if step.startswith("packed") else calls // 2 for calls, step in zip(runs, steps)]


def _spy_transforms(monkeypatch):
    """The arrays passed to np.fft.rfft, the count of np.fft.irfft calls and
    every transform's length, as they run.

    A float chain transforms a limb as two phase views, each with the limb
    as its base; a packed product transforms each packed operand once.
    """
    calls = {"rfft": [], "irfft": 0, "lengths": []}
    rfft, irfft = np.fft.rfft, np.fft.irfft

    def forward(a, n):
        calls["rfft"].append(a)
        calls["lengths"].append(n)
        return rfft(a, n)

    def inverse(a, n):
        calls["irfft"] += 1
        calls["lengths"].append(n)
        return irfft(a, n)

    monkeypatch.setattr(np.fft, "rfft", forward)
    monkeypatch.setattr(np.fft, "irfft", inverse)
    return calls


def _packed_form(x, norms):
    """x_e + 2^w x_o as Python ints, w the bit length of the ceiling of sqrt(norms)."""
    w = convolve._ceil_sqrt(norms).bit_length()
    odd = x[1::2] + [0] * (len(x) % 2)
    return [e + (o << w) for e, o in zip(x[0::2], odd)]


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
    direct = ConvolutionPlan(p, "direct", auto.bound, 0, (), auto.budget)
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
    # both steps are one limb, at their floors: 3 + 3 transforms
    ((run, floor, steps),) = _chain_logs(caplog)
    assert run == 6 == floor and plan.floors == (3, 3)
    assert [step.split("@")[0] for step in steps] == ["1x1", "1x1"]
    # few support pairs: the pair route undercuts any transform
    small = plan_convolution(1009, [4, 4])
    assert small.strategy == "direct"
    # full supports: 1922 pairs cost more than the floors' six length-64 transforms
    tiny = plan_convolution(31, [1000, 1000, 1000])
    assert tiny.strategy == "float" and tiny.floors == (3, 3)
    dense = plan_convolution(1009, [600, 600])
    assert dense.strategy == "float"


def test_plan_refusals():
    with pytest.raises(BudgetError):
        plan_convolution(101, [10, 10], budget=1)
    # too few factors is a domain error, not a refusal on budget
    for vectors in ([], [_cv([1, 2, 3])]):
        with pytest.raises(DomainError, match="at least two"):
            k_fold_count(vectors)
    with pytest.raises(DomainError, match="no factors"):
        plan_convolution(101, [])


def test_plans_are_charged_the_transforms_they_run():
    # T_6 at n = 100003 with masses 1000, six arrays: at its floor every
    # step transforms x and y once and inverts once, but in step 5 the
    # accumulator of mass 10^15 has an entry of at least 10^10 (34 bits),
    # which its least sides certify only as two limbs: 3 + 3 + 3 + 3 + 5
    units = (1 << 18) * 18
    charge = 17 * units
    assert charge == 80_216_064
    plan = plan_convolution(100003, [1000] * 6, budget=charge)
    assert plan == ConvolutionPlan(100003, "float", 1000 ** 6, 1 << 18, (3, 3, 3, 3, 5), charge)
    message = "needs at least 80216064 operations: 17 transforms (3, 3, 3, 3, 5) at 2^18, budget"
    with pytest.raises(BudgetError, match=re.escape(message)) as exc:
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


def test_plans_are_pinned_over_a_grid():
    # every plan or refusal over n, k, masses, layouts and budgets: the
    # strategy, floors, length and bound, or the refusal's message and
    # `required` (2646 cases: 1157 direct, 1244 float, 245 refused).
    # A change to the floors or the schedule that moves any of them
    # changes the digest
    masses = (0, 1, 5, 600, 563 ** 2, (1 << 23) - 1, 1 << 40)
    lines = []
    for n in (1, 2, 7, 101, 211, 1009, 100003):
        for k in (2, 3, 6):
            cases = [(m,) * k for m in masses]
            cases += [tuple(masses[(3 * i + j) % 7] for i in range(k)) for j in range(7)]
            for case in cases:
                for layout in (None, [0] * k, [i % 2 for i in range(k)]):
                    for budget in (None, 10 ** 4, 10 ** 12):
                        try:
                            plan = plan_convolution(n, case, budget, layout=layout)
                            out = (f"{plan.strategy} {plan.floors} {plan.fft_length} "
                                   f"{plan.bound}")
                        except BudgetError as exc:
                            out = f"refused {exc} | {exc.required}"
                        lines.append(f"{n} {case} {layout} {budget}: {out}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "3c67b3cc1052c4ef00d04baf767582b10d0d530160837c25a330d25b33028c92"


@pytest.mark.parametrize("k,floor", [(2, 2), (3, 4)])
def test_float_route_transforms_a_repeated_factor_once(monkeypatch, k, floor):
    # [u]*k: u's spectrum is made once, as the first factor, and serves
    # every step; each later step transforms only the accumulator
    rng = np.random.default_rng(2)
    u = _cv(rng.integers(0, 3, size=211))
    plan = plan_convolution(211, [u.total] * k, layout=[0] * k)
    assert plan.strategy == "float" and sum(plan.floors) == floor
    calls = _spy_transforms(monkeypatch)
    assert k_fold_count([u] * k).as_list() == _expect([u] * k)
    if k == 2:  # one packed product: u packed, transformed once and squared, one inverse
        (packed,) = calls["rfft"]
        assert packed.tolist() == _packed_form(u.as_list(), u.sum_of_squares() ** 2)
        assert calls["irfft"] == 1 and calls["lengths"] == [plan.fft_length // 2] * 2
    else:
        assert [a.base is u.counts for a in calls["rfft"]] == [True, True] + [False, False] * (k - 2)
        assert calls["irfft"] == 2 * (k - 1)
    # a step that runs fewer transforms than its floor is a bug the chain reports
    high = replace(plan, floors=plan.floors[:-1] + (plan.floors[-1] + 1,))
    runs = [2] * (k - 1)
    with pytest.raises(ConsistencyError, match=re.escape(
            f"steps ran {runs} transforms, under their floors {list(high.floors)}")):
        _run([u] * k, high)


def test_planner_floors_each_step():
    # [u]*4 at n = 100003 with a mass of 3163 (the recip_e4 energy): at
    # the least its masses allow every step is one limb, and u, made in
    # step 1, is kept for the later steps: 2 + 2 + 2 transforms
    power = plan_convolution(100003, [3163] * 4, layout=[0] * 4)
    assert power.strategy == "float" and power.floors == (2, 2, 2)
    # four distinct factors transform each of them: 3 + 3 + 3
    assert plan_convolution(100003, [3163] * 4).floors == (3, 3, 3)
    # masses of 2^23 - 1: x floors at two limbs in step 2; one array three
    # times floors one transform a step below three arrays
    assert plan_convolution(211, [(1 << 23) - 1] * 3).floors == (3, 5)
    assert plan_convolution(211, [(1 << 23) - 1] * 3, layout=[0] * 3).floors == (2, 4)
    # a zero mass certifies one limb at once
    assert plan_convolution(211, [0, 5, 5]).strategy == "direct"


def test_the_papers_t6_is_admitted_at_its_run_floors():
    # the paper's T_6 at p = 1000003 over one set M and one interval X,
    # H = #M = 1083: admitted at the default budget at the 22 transforms
    # its chain runs at 2^21 (968,884,224 units); over six sets it floors
    # at 27 and is refused by planning alone, before any transform
    one = plan_convolution(1000003, [1083 * 1083] * 6, layout=[0] * 6)
    assert one.strategy == "float" and one.floors == (2, 2, 4, 6, 8)
    assert sum(one.floors) * one.fft_length * 21 == 968_884_224
    with pytest.raises(BudgetError, match=r"needs at least 1189085184 operations: 27 transforms "
                                          r"\(3, 3, 5, 7, 9\) at 2\^21, budget is 1000000000"):
        plan_convolution(1000003, [1083 * 1083] * 6)


def test_float_floor_never_exceeds_the_run(monkeypatch, caplog):
    # each step's floor is a lower bound on what it runs, whatever its
    # sides hold: point masses, flat and sparse sides of random masses,
    # about one in ten of them zero, as distinct arrays and as one array k
    # times
    rng = np.random.default_rng(16)
    runs = _step_runs(monkeypatch)
    caplog.set_level(logging.INFO, logger="fplab.convolve")

    def check(vecs):
        plan = _float_plan(vecs)
        runs.clear()
        caplog.clear()
        assert sum(_run(vecs, plan)) == plan.bound
        ((run, floor, steps),) = _chain_logs(caplog)
        assert 2 * (len(vecs) - 1) <= floor == sum(plan.floors) <= run
        assert all(f <= r for f, r in zip(plan.floors, _per_step(runs, steps)))

    for n in (2, 3, 7, 211, 1009):
        for k in (2, 3, 6, 12):
            for shape in ("point", "flat", "sparse"):
                arrays = []
                for top in rng.integers(1, 40, size=k) * (rng.random(k) >= 0.1):
                    counts = np.zeros(n, dtype=np.int64)
                    where = {"point": [rng.integers(n)], "flat": slice(None),
                             "sparse": rng.choice(n, max(1, n // 16), replace=False)}[shape]
                    if top:
                        counts[where] = rng.integers(1, 1 << int(top), size=counts[where].size)
                    arrays.append(_cv(counts))
                for vecs in (arrays, [arrays[0]] * k):
                    check(vecs)
    # a zero mass after a product carried truncated (2^160 passes 2^64
    # times the cap 211 * 2^62): the product is 0 again, and its side one limb
    point = np.zeros(211, dtype=np.int64)
    point[3] = 1 << 40
    vecs = [_cv(point)] * 4 + [_cv(np.zeros(211, dtype=np.int64)), _cv(point)]
    assert convolve._pair_work(211, [v.total for v in vecs]) is not None
    assert plan_convolution(211, [v.total for v in vecs]).floors == (5, 11, 15, 7, 3)
    check(vecs)
    assert k_fold_count(vecs).as_list() == [0] * 211


def test_oversize_chains_are_refused_at_their_floor(monkeypatch):
    # [u]*10000 with a mass of 5: no pair route (5^10000 > 2^63), and the
    # float floors alone exceed the budget. No product of all the masses is
    # formed before the refusal, and the floors of a long chain are named
    # by their first and last six steps
    def no_product(values):
        raise AssertionError("the product of the masses was formed")

    monkeypatch.setattr(convolve, "prod", no_product)
    floors = list(convolve._floors(101, [5] * 10000, [0] * 10000, 256))
    floor = sum(floors) * 256 * 8
    named = ", ".join(map(str, floors[:6] + ["..."] + floors[-6:]))
    message = f"needs at least {floor} operations: {sum(floors)} transforms ({named}) at 2^8,"
    with pytest.raises(BudgetError, match=re.escape(message)) as exc:
        plan_convolution(101, [5] * 10000, budget=floor - 1, layout=[0] * 10000)
    assert exc.value.required == floor and floors[:6] == [2] * 6
    # the pair route's work is exact where it exists: refusals keep their need
    with pytest.raises(BudgetError, match="support-pair convolution needs 5000 ") as exc:
        plan_convolution(100, [50, 100], budget=100)
    assert exc.value.required == 5000


def test_float_floor_searches_a_width_only_when_its_sides_change(monkeypatch):
    # [5]*10000 at n = 101: the accumulator 5^t is capped at 101 * 2^62 from
    # t = 30 on (5^29 < 101 * 2^62 <= 5^30), so the sides of steps 30 to 9999
    # repeat and only the first 30 steps search a width. From t = 98 on
    # (5^98 passes 2^64 times the cap) the product is carried as a
    # truncated lower bound; the floors sum to those of the exact product
    calls, low = [], convolve._low_width
    monkeypatch.setattr(convolve, "_low_width", lambda *args: calls.append(args) or low(*args))
    floors = list(convolve._floors(101, [5] * 10000, [0] * 10000, 256))
    assert sum(floors) == 5810916 and len(calls) == 30
    b = low(*(convolve._least(m, 101) for m in (101 << 62, 5)), 101, convolve._gamma(256))
    mass, exact = 1, []
    for _ in floors:
        mass *= 5
        exact.append(2 * convolve._limb_count((-(-mass // 101)).bit_length(), b))
    assert floors[29:] == exact[29:]


def test_chains_are_refused_once_a_lower_bound_on_their_need_passes_the_budget(monkeypatch,
                                                                               caplog):
    # three distinct point masses of 2^40 - 1 at n = 211 (no pair route):
    # their floors are 5 + 11 transforms at 512 (4608 units each), but the
    # chain runs 3x3@18 (11) and 5x3@18 (15). A budget of 16 * 4608 - 1 is
    # refused by planning, before any transform; at 110000 the meter stops
    # before step 2, which with step 1's 11 would pass it, and before that
    # step's first transform; at 26 * 4608 the chain runs
    n, unit = 211, 512 * 9
    vecs = []
    for i in range(3):
        counts = np.zeros(n, dtype=np.int64)
        counts[3 + 70 * i] = (1 << 40) - 1
        vecs.append(_cv(counts))
    plan = plan_convolution(n, [v.total for v in vecs])
    assert plan.floors == (5, 11) and plan.budget == 10 ** 9
    runs = _step_runs(monkeypatch)
    with pytest.raises(BudgetError, match=f"needs at least {16 * unit} operations: 16 transforms"):
        k_fold_count(vecs, budget=16 * unit - 1)
    assert runs == []
    with pytest.raises(BudgetError, match=re.escape(
            "needs at least 119808 operations before step 2 of 2: 11 transforms run, 15 in this "
            "step and 0 at the floors of the rest at 2^9, budget is 110000")) as exc:
        k_fold_count(vecs, budget=110000)
    assert exc.value.required == 119808 == 26 * unit and runs == [2 * 11]
    runs.clear()
    with caplog.at_level(logging.INFO, logger="fplab.convolve"):
        assert k_fold_count(vecs, budget=26 * unit).as_list() == _expect(vecs)
    assert _chain_logs(caplog) == [(26, 16, ["3x3@18", "5x3@18"])] and runs == [22, 30]
    # 50 distinct factors of mass 2^40: planning alone refuses one unit
    # below the floors' work, and the plan carries the floors it admits
    masses = [1 << 40] * 50
    floors = list(convolve._floors(n, masses, list(range(50)), 512))
    assert sum(floors) == 5505
    with pytest.raises(BudgetError, match=f"needs at least {5505 * unit} operations") as exc:
        plan_convolution(n, masses, budget=5505 * unit - 1)
    assert exc.value.required == 5505 * unit
    assert plan_convolution(n, masses, budget=5505 * unit).floors == tuple(floors)


@pytest.mark.parametrize("n", [210, 211])
def test_float_chain_transforms_run_at_half_length(monkeypatch, caplog, n):
    # each operand is transformed as its even and odd phases, and each
    # limb-index sum inverted as two phases: every forward and inverse runs
    # at C/2, two per transform counted, at even and odd n alike
    rng = np.random.default_rng(n)
    u = _cv(rng.integers(0, 1 << 20, size=n))
    vecs = [u, _cv(rng.integers(0, 1000, size=n)), u, _cv(rng.integers(0, 1 << 40, size=n))]
    plan = plan_convolution(n, [v.total for v in vecs], layout=[id(v.counts) for v in vecs])
    calls = _spy_transforms(monkeypatch)
    with caplog.at_level(logging.INFO, logger="fplab.convolve"):
        assert k_fold_count(vecs).as_list() == _expect(vecs)
    ((run, floor, steps),) = _chain_logs(caplog)
    assert plan.fft_length == 512 and "at length 512 (phases at 256)" in caplog.text
    assert set(calls["lengths"]) == {plan.fft_length // 2}
    assert len(calls["lengths"]) == 2 * run and run >= floor == sum(plan.floors)
    assert any(not step.startswith("1x1@") for step in steps)


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
        ((run, floor, steps),) = _chain_logs(caplog)
        assert 2 * run == len(calls["rfft"]) + calls["irfft"] and run >= floor
        assert floor == sum(plan_convolution(n, [v.total for v in factors],
                                             layout=[id(v.counts) for v in factors]).floors)
        assert steps[0].startswith("1x1@")
        assert sum(a.base is factors[0].counts for a in calls["rfft"]) == 2


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
    ((run, floor, steps),) = _chain_logs(caplog)
    assert run >= floor == sum(plan.floors) and len(steps) == len(vecs) - 1


def _float_run(vecs, caplog):
    """(counts, steps) of a hand-built float plan at the planner's floors."""
    plan = _float_plan(vecs)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="fplab.convolve"):
        got = _run(vecs, plan)
    ((run, floor, steps),) = _chain_logs(caplog)
    assert run >= floor == sum(plan.floors)
    return got, steps


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 17, 101, 210, 211])
def test_packed_products_match_the_oracle(caplog, n):
    # one-step chains whose packed certificate holds run as one real
    # product of packed operands, at odd and even n, squared and distinct
    rng = np.random.default_rng(n)
    for top in (2, 3, 7):
        x, y = (_cv(rng.integers(0, top, size=n)) for _ in range(2))
        for vecs in ([x, y], [x, x]):
            got, steps = _float_run(vecs, caplog)
            assert got == oracles.cyclic_convolve(vecs[0].as_list(), vecs[1].as_list(), n)
            w = convolve._ceil_sqrt(vecs[0].sum_of_squares() * vecs[1].sum_of_squares())
            assert steps == [f"packed@2^{w.bit_length()}"]


@pytest.mark.parametrize("n", [5, 6, 9, 16])
def test_packed_digits_fill_their_radix(caplog, n):
    # point masses a and b with a * b = 2^w - 1 = ||x|| ||y||: the one
    # product entry fills its digit, in the even (P0 and P2) and odd (P1)
    # phases and where it wraps past n
    for a, b in ((15, 17), (255, 1), (1, 4095), (3, 85), (7, 73)):
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 3), (n - 1, n - 1), (n - 2, n - 1)):
            x, y = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
            x[i], y[j] = a, b
            expect = [0] * n
            expect[(i + j) % n] = a * b
            got, steps = _float_run([_cv(x), _cv(y)], caplog)
            assert got == expect and steps == [f"packed@2^{(a * b).bit_length()}"]


def test_packed_certificate_that_fails_runs_phase_pairs(monkeypatch, caplog):
    # dense 10-bit entries at n = 211: ||x|| ||y|| certifies one limb of
    # phase pairs at C, but ||x'|| ||y'|| at the radix 2^27 is far past
    # what rounds; and a point mass of 2^40 in an odd place, which one
    # limb certifies but whose shift by its radix 2^41 would pass 2^63
    rng = np.random.default_rng(17)
    dense = [_cv(rng.integers(0, 1 << 10, size=211)) for _ in range(2)]
    point = np.zeros(211, dtype=np.int64)
    point[1] = 1 << 40
    calls, norms, sum_of_squares = _spy_transforms(monkeypatch), [], convolve.sum_of_squares
    monkeypatch.setattr(convolve, "sum_of_squares", lambda a: norms.append(a.size)
                        or sum_of_squares(a))
    # the phase step reuses the sides the packed certificate took: each
    # side's exact norm once, and the packed norms only where w fits
    for vecs, step, sizes in ((dense, "1x1@10", [211, 211, 106, 106]),
                              ([_cv(point), _cv([1] + [0] * 210)], "1x1@41", [211, 211])):
        calls.update(rfft=[], irfft=0, lengths=[])
        norms.clear()
        got, steps = _float_run(vecs, caplog)
        assert got == _expect(vecs) and steps == [step] and norms == sizes
        assert [a.base is v.counts for a in calls["rfft"] for v in vecs].count(True) == 4
        assert calls["irfft"] == 2 and set(calls["lengths"]) == {256}


def test_width_steps_down_from_a_low_width_whose_full_certificate_fails():
    # 29-bit sides of mass 2^43 at n = 2^15: the low limbs' term certifies
    # at width 14, but the full certificate there is 0.40, in [1/4, 1/2),
    # so the width steps down to 13
    n = 1 << 15
    gamma, side = convolve._gamma(1 << 16), (29, 1 << 43, None)
    low = convolve._low_width(side, side, n, gamma)
    assert low == 14 and 0.25 <= convolve._certified(side, side, n, gamma, low) < 0.5
    b, worst = convolve._width(side, side, n, gamma)
    assert b == low - 1 and worst < 0.25


def _even_sides(n, count, top):
    """Two equal int64 arrays of length n holding `top` at the first `count`
    even places, and their _side: packing leaves them unshifted."""
    arrays = [np.zeros(n, dtype=np.int64) for _ in range(2)]
    for a in arrays:
        a[:2 * count:2] = top
    side = convolve._side(arrays[:1], convolve._WORD, count * top)
    return arrays, side


def test_packed_refuses_a_bound_between_a_quarter_and_a_half():
    # 1000 entries of 2^17 - 1 at n = 2^14: the packed bound is 0.34 and
    # the radix fits (17 + 44 bits), so only the 1/4 gate refuses
    n, half = 1 << 14, 1 << 14
    (x, y), side = _even_sides(n, 1000, (1 << 17) - 1)
    w = side[2].bit_length()
    assert side[0] + w <= convolve._WORD
    assert 0.25 <= side[2] * convolve._gamma(half) < 0.5
    assert convolve._packed([x], [y], side, side, n, half) is None
    assert x.any() and y.any()


def test_packed_refuses_entries_that_could_reach_2_to_63():
    # 6 entries of 2^20 - 1 at n = 16: bits + w = 20 + 43 = 63, where the
    # packed bound, 0.039, would certify
    n, half = 16, 16
    (x, y), side = _even_sides(n, 6, (1 << 20) - 1)
    assert side[0] + side[2].bit_length() == 63
    assert side[2] * convolve._gamma(half) < 0.25
    assert convolve._packed([x], [y], side, side, n, half) is None


def test_packed_rounding_residual_is_checked(monkeypatch):
    # the one inverse of a packed product erring by 0.4 cannot round exactly
    rng = np.random.default_rng(6)
    vecs = [_cv(rng.integers(0, 3, size=211)) for _ in range(2)]
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a: irfft(*a) + 0.4)
    with pytest.raises(ConsistencyError, match="residual"):
        k_fold_count(vecs)


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


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 2.0 ** -53,
                    reason="needs an extended-precision reference")
@pytest.mark.parametrize("half", [1 << 9, 1 << 17, 1 << 20])
def test_twiddle_error_fits_the_gap_between_lengths(half):
    # the odd x odd phase product is shifted by a twiddle that errs by at
    # most 4 eps; with its complex multiply (sqrt5 eps) and the add (eps)
    # it stays inside gamma(C) - gamma(C/2), about 12.7 eps
    twiddle = convolve._twiddle(half).astype(np.clongdouble)
    pi = np.longdouble("3.14159265358979323846264338327950288")
    angle = -2 * pi * np.arange(half // 2 + 1, dtype=np.longdouble) / half
    err = float(np.abs(twiddle - (np.cos(angle) + 1j * np.sin(angle))).max()) * 2 ** 53
    assert err < 4
    gap = (convolve._gamma(2 * half) - convolve._gamma(half)) * 2 ** 53
    assert 4 + 5 ** 0.5 + 1 < gap < 13


def test_twiddle_takes_cos_and_sin_of_one_octant(monkeypatch):
    # where 8 divides the length, cos and sin run on k <= half/8 and the
    # other entries are exact reflections of those
    sizes, cos = [], np.cos
    monkeypatch.setattr(np, "cos", lambda a, **kw: sizes.append(a.size) or cos(a, **kw))
    for half in (1, 2, 4, 8, 16, 1 << 10):
        sizes.clear()
        twiddle = convolve._twiddle(half)
        k = np.arange(half // 2 + 1)
        assert sizes == [half // 8 + 1 if half % 8 == 0 else half // 2 + 1]
        assert np.abs(twiddle - np.exp(-2j * np.pi * k / half)).max() < 2 ** -50
        if half >= 8:
            octant, quarter = half // 8, half // 4
            assert np.array_equal(twiddle[quarter:octant:-1], -1j * np.conj(twiddle[:octant]))
            assert np.array_equal(twiddle[:quarter:-1], -np.conj(twiddle[:quarter]))


def test_width_is_the_widest_that_certifies_every_sum():
    # _width's bisection on the low limbs' term and downward scan agree with
    # a scan of every width, on planner sides (mass only) and executor sides
    # (real bits and an exact norm)
    n = 100003
    gamma = convolve._gamma(1 << 18)

    def widest(x, y):
        def bound(b):
            xs, ys = (list(convolve._limb_norms(b, *side[:2], n, side[2])) for side in (x, y))
            return convolve._sum_bound(xs, ys) * gamma
        top = min(convolve._WORD, max(1, x[0], y[0]))
        b = max(b for b in range(1, top + 1) if bound(b) < 0.25)
        return b, bound(b)

    sides = [(m.bit_length(), m, None) for m in (1, 563 * 563, 3163 ** 3, 10 ** 20, 2 ** 70)]
    sides += [(bits, mass, mass * mass // n) for bits, mass, _ in sides[1:]]
    sides += [(30, 10 ** 12, None), (45, 2 ** 60, 2 ** 104)]
    for x in sides:
        for y in sides:
            assert convolve._width(x, y, n, gamma) == widest(x, y)


def _limbs_of(x, b):
    count = convolve._limb_count(int(x.max()).bit_length(), b)
    return [convolve._limb([x], convolve._WORD, b, i, count) for i in range(count)]


def test_limb_norm_bounds_never_undercut_exact_norms():
    # every bound is at least the exact squared norm of the limb it stands
    # for, from the executor's inputs (real bits, mass, with and without
    # the side's exact norm) and from the planner's (the mass alone),
    # and the executor's bounds never exceed the planner's
    rng = np.random.default_rng(16)
    n = 4099
    point = np.zeros(n, dtype=np.int64)
    point[7] = (1 << 53) + 12345
    vecs = [rng.integers(0, top, size=n) for top in (1 << 20, 1 << 45, 1 << 62)]
    vecs += [point, rng.integers(0, 2, size=n)]
    for x in vecs:
        mass, bits = CountVector(x).total, int(x.max()).bit_length()
        whole = countvec.sum_of_squares(x)
        for b in (1, 7, 31, 61):
            exact = [countvec.sum_of_squares(limb) for limb in _limbs_of(x, b)]
            planned = list(convolve._limb_norms(b, mass.bit_length(), mass, n))
            for cap in (None, whole):
                bounds = list(convolve._limb_norms(b, bits, mass, n, cap))
                assert len(bounds) == len(exact) <= len(planned)
                assert all(e <= bound <= plan for e, bound, plan in zip(exact, bounds, planned))
    # a point mass meets its bound in its top limb
    b = 31
    assert list(convolve._limb_norms(b, 54, int(point.sum()), n))[-1] == \
        countvec.sum_of_squares(_limbs_of(point, b)[-1])


def test_t6_widths_come_from_the_limb_norm_bounds(monkeypatch, caplog):
    # T_6 at p = 100003 on six random sets: each step's width comes from
    # the bounds on its sides' limb norms, and the norm work is one exact
    # norm of each side held as one int64 array (four accumulators and five
    # factors), never of a cut limb
    p, h = 100003, 563
    c = PrimeContext(p)
    factors = [(sets.random_subset(h, sets.mix_seed(1, 1, p, i), c), 0) for i in range(6)]
    calls, sum_of_squares = [], convolve.sum_of_squares

    def spy(x):
        calls.append(x.size)
        return sum_of_squares(x)

    monkeypatch.setattr(convolve, "sum_of_squares", spy)
    with caplog.at_level(logging.INFO, logger="fplab.convolve"):
        tkcount.tk_experiment(6, factors, h, 1, c, epsilon=0.02)
    assert calls == [p] * 9
    ((run, floor, steps),) = _chain_logs(caplog)
    assert (run, floor, steps) == (27, 27, ["1x1@4", "1x1@20", "2x1@24", "3x1@24", "4x1@24"])


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
    assert calls["rfft"] and not any(a.base is v.counts for a in calls["rfft"] for v in vecs)
    assert all(int(a.max()) < 1 << 26 for a in calls["rfft"])
    ((run, floor, (step,)),) = _chain_logs(caplog)
    assert not step.startswith("1x1@") and run >= floor


def test_paired_plans_run_the_transforms_they_are_charged(monkeypatch, caplog):
    # point masses of 2^23 - 1, every bit set: the chain's meter charges
    # each step the transforms it runs, 7 (2x2@21) and 9 (3x2@19), above
    # their floors of 3 and 5
    n = 211
    vecs = []
    for i in range(3):
        counts = np.zeros(n, dtype=np.int64)
        counts[3 + 70 * i] = (1 << 23) - 1
        vecs.append(_cv(counts))
    masses = [v.total for v in vecs]
    caplog.set_level(logging.INFO, logger="fplab.convolve")
    plan = plan_convolution(n, masses)
    assert plan.floors == (3, 5) and plan.fft_length == 512
    charge = 16 * 512 * 9
    calls = _spy_transforms(monkeypatch)
    assert caplog.records == []  # planning alone logs nothing
    expect = k_fold_count(vecs, budget=charge).as_list()
    assert expect == _expect(vecs)
    ((run, floor, steps),) = _chain_logs(caplog)
    assert (run, floor) == (16, 8) and len(calls["rfft"]) + calls["irfft"] == 2 * 16
    assert steps == ["2x2@21", "3x2@19"]
    # the meter refuses one unit less before step 2: step 1's 7 transforms
    # ran, and none of step 2's
    calls.update(rfft=[], irfft=0)
    caplog.clear()
    with pytest.raises(BudgetError, match="before step 2 of 2: 7 transforms run, 9 in this step") \
            as exc:
        k_fold_count(vecs, budget=charge - 1)
    assert exc.value.required == charge and len(calls["rfft"]) + calls["irfft"] == 2 * 7
    assert caplog.records == []
    # one of them three times splits like three: no spectrum is reused
    calls.update(rfft=[], irfft=0)
    assert k_fold_count([vecs[0]] * 3, budget=charge).as_list() == _expect([vecs[0]] * 3)
    assert len(calls["rfft"]) + calls["irfft"] == 2 * 16


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_planner_and_executor_agree_on_the_spectrum_rule_for_every_layout(data):
    # point masses of 2^a - 1, every bit set, are the worst case of their
    # masses, and flat sides with entries near the mean the least, for any
    # pattern of repeated arrays: every step runs at least its floor, the
    # meter charges what the chain runs (its run's work is admitted and
    # one unit less is refused; a packed step runs its floor, so there the
    # planner refuses the float route), and the planner's floors are the plan's
    n = data.draw(st.sampled_from([5, 16, 17, 64, 101, 211]))
    k = data.draw(st.integers(2, 5))
    layout = data.draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    arrays = []
    for _ in range(k):
        counts = np.zeros(n, dtype=np.int64)
        top = (1 << data.draw(st.integers(1, 62))) - 1
        if data.draw(st.booleans()):
            counts[data.draw(st.integers(0, n - 1))] = top
        else:
            counts[:] = top // n + np.arange(n) % 2
        arrays.append(_cv(counts))
    vecs = [arrays[i] for i in layout]
    plan = _float_plan(vecs)
    size = plan.fft_length
    unit = size * (size.bit_length() - 1)
    records, logger = [], logging.getLogger("fplab.convolve")
    handler = logging.Handler()
    handler.emit = records.append
    logger.addHandler(handler)
    level = logger.level
    logger.setLevel(logging.INFO)
    try:
        with pytest.MonkeyPatch.context() as mp:
            runs = _step_runs(mp)
            assert _run(vecs, plan) == _expect(vecs)
        (record,) = records
        run, floor, steps = _chain_line(record.getMessage())
        assert all(f <= r for f, r in zip(plan.floors, _per_step(runs, steps)))
        assert floor == sum(plan.floors) <= run == sum(_per_step(runs, steps))
        assert _run(vecs, replace(plan, budget=run * unit)) == _expect(vecs)
        if steps[0].startswith("packed"):  # the one step runs its floor, which the planner gates
            assert run == floor
            try:
                below = plan_convolution(n, [v.total for v in vecs], budget=run * unit - 1,
                                         layout=layout).strategy
            except BudgetError:
                below = None
            assert below in (None, "direct")
        else:
            with pytest.raises(BudgetError) as exc:
                _run(vecs, replace(plan, budget=run * unit - 1))
            assert exc.value.required <= run * unit
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    auto = plan_convolution(n, [v.total for v in vecs], budget=10 ** 15, layout=layout)
    assert auto.strategy == "direct" or auto.floors == plan.floors


def test_spectra_are_dropped_at_their_ids_last_read(monkeypatch, caplog):
    # [u, v, u]: u is one whole array in step 1, whose spectrum is kept for
    # step 2, where u is read split. That read is u's last, so its kept
    # spectrum is gone before step 2 inverts anything
    rng = np.random.default_rng(19)
    u, v = _cv(rng.integers(0, 1 << 20, size=211)), _cv(rng.integers(0, 16, size=211))
    spectra, inverses, rfft, irfft = [], [], np.fft.rfft, np.fft.irfft

    def forward(a, n):
        out = rfft(a, n)
        if a.base is u.counts:
            spectra.append(weakref.ref(out))
        return out

    def inverse(a, n):
        inverses.append(sum(ref() is not None for ref in spectra))
        return irfft(a, n)

    monkeypatch.setattr(np.fft, "rfft", forward)
    monkeypatch.setattr(np.fft, "irfft", inverse)
    got, steps = _float_run([u, v, u], caplog)
    assert got == _expect([u, v, u])
    assert steps[0] == "1x1@20" and steps[1].split("x")[1].split("@")[0] != "1"
    assert inverses[:2] == [2, 2] and inverses[2:] == [0] * (len(inverses) - 2)


def test_budget_below_a_paired_plan_is_refused_before_any_transform(monkeypatch):
    # [u]*4 at n = 1009: u is transformed once, and the plan is charged
    # its floors at 2048, which are what it runs
    rng = np.random.default_rng(12)
    u = _cv(rng.integers(0, 50, size=1009))
    plan = plan_convolution(1009, [u.total] * 4, layout=[0] * 4)
    assert plan.strategy == "float" and plan.fft_length == 2048 and plan.floors == (2, 2, 4)
    charge = sum(plan.floors) * 2048 * 11

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
    # it, and a one-limb accumulator once its phases are transformed: at
    # the first inverse only the factors after the second are alive (the
    # first is one limb in step 1), and at the last inverse none is
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
    assert alive[0] == [False, False] + [True] * 4 and not any(alive[-1])


def test_products_are_dropped_at_their_read(monkeypatch):
    # step 1's product is one limb in step 2, so its array is gone once its
    # phases are transformed, before factor 2's are; so are the spectra of
    # step 1's last sum once its phases are inverted
    rng = np.random.default_rng(3)
    vecs = [_cv(rng.integers(0, 3, size=211)) for _ in range(3)]
    refs, alive, fold, rfft = [], [], convolve._fold, np.fft.rfft

    def spy_fold(*args):
        out = fold(*args)
        refs.append(weakref.ref(out))
        return out

    def forward(a, n):
        if a.base is vecs[2].counts:
            alive.append([ref() is not None for ref in refs])
        out = rfft(a, n)
        if a.base is vecs[0].counts:  # step 1's x, multiplied in place into its last sum
            refs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(convolve, "_fold", spy_fold)
    monkeypatch.setattr(np.fft, "rfft", forward)
    assert _run(vecs, _float_plan(vecs)) == _expect(vecs)
    assert alive == [[False] * 3] * 2


def test_packed_factors_are_freed_before_their_transforms(monkeypatch):
    # once packed and certified, factors only the convolution holds are
    # gone before the first forward transform
    rng = np.random.default_rng(18)
    supports = [rng.choice(1009, 500, replace=False) for _ in range(2)]
    refs, alive, rfft = [], [], np.fft.rfft

    def factors():
        arrays = [np.bincount(support, minlength=1009) for support in supports]
        refs.extend(weakref.ref(a) for a in arrays)
        return arrays

    def forward(*args):
        alive.append([ref() is not None for ref in refs])
        return rfft(*args)

    monkeypatch.setattr(np.fft, "rfft", forward)
    plan = plan_convolution(1009, [500, 500])
    assert plan.strategy == "float"
    got = convolve._run(factors(), [500, 500], 1009, plan)
    expect = _expect([_cv(np.bincount(support, minlength=1009)) for support in supports])
    assert alive == [[False, False]] * 2 and got.tolist() == expect


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
        direct = ConvolutionPlan(p, "direct", auto.bound, 0, (), auto.budget)
        assert got.as_list() == _run(vecs, direct)
        assert max(got.as_list()) >= auto.bound >> 4


def test_float_route_certificate_rejects_uncertified_plans(monkeypatch):
    # an inverse transform that errs by 0.4 can no longer be certified to
    # round exactly: the run-time residual check raises, when every phase
    # errs and when only the even (first) or only the odd (second) one does
    rng = np.random.default_rng(5)
    vecs = [_cv(rng.integers(0, 1 << 10, size=211)) for _ in range(3)]
    irfft = np.fft.irfft
    for phases in ({0, 1}, {0}, {1}):
        calls = iter(range(1 << 20))
        monkeypatch.setattr(np.fft, "irfft", lambda *a, calls=calls, phases=phases:
                            irfft(*a) + 0.4 * (next(calls) % 2 in phases))
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
    # the transform f of a real u is Hermitian, and sum_a f[a] * e_p(-a*lam) = p * u[lam]
    rng = np.random.default_rng(1)
    u = rng.integers(0, 2, size=101).astype(float)
    f = length_p_transform(u)
    back = tkcount._hermitian_inverse(f)
    assert np.abs(back - 101 * u).max() < 1e-6


@pytest.mark.parametrize("n", [31, 127, 131, 211, 1009])
def test_transform_matches_direct_dft(n):
    # real inputs that are not integers, against the direct DFT
    rng = np.random.default_rng(n)
    u = rng.normal(size=n)
    got = length_p_transform(u)
    expect = np.asarray(oracles.dft(u.tolist()))
    assert np.abs(got - expect).max() < 1e-6


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 1009] + list(filter(is_prime, range(3, 200, 2))))
def test_real_transform_mirrors_the_half_it_computes(n, dtype):
    # a real input of odd prime length correlates the rows e = g^m, m < n//2,
    # only; the rest must match the DFT and be the conjugates of the rows
    # computed. Any other length is refused
    rng = np.random.default_rng(n)
    u = rng.integers(-50, 100, size=n).astype(dtype)
    if n % 2 == 0 or not is_prime(n):
        with pytest.raises(DomainError, match="odd prime length"):
            length_p_transform(u)
        return
    got = length_p_transform(u)
    gate = 1e-9 * (1 + np.abs(u).sum())
    assert got.dtype == np.complex128 and got.shape == (n,)
    assert np.abs(got - np.asarray(oracles.dft(u.tolist()))).max() < gate
    assert all(got[n - c] == np.conj(got[c]) for c in range(1, n))


@pytest.mark.parametrize("n", [3, 5, 7, 101, 1009])
def test_rader_rows_and_their_mirrors_are_the_units(n):
    # e = g^m mod n for m < (n-1)/2 and n - e together are 1..n-1, each once
    e = convolve._rader_tables(n)[0] + 1
    assert sorted(np.concatenate([e, n - e]).tolist()) == list(range(1, n))


def test_transform_refuses_a_length_that_is_not_an_odd_prime():
    convolve._rader_tables.cache_clear()
    for n in (1, 2, 4, 8, 9, 64, 1001):
        with pytest.raises(DomainError, match=f"odd prime length, got {n}"):
            length_p_transform(np.ones(n))
    assert convolve._rader_tables.cache_info().misses == 0


def test_transform_refuses_a_complex_input():
    # the upper rows are filled as conjugates, which holds for a real input only
    with pytest.raises(ConsistencyError, match="real input"):
        length_p_transform(np.ones(5) + 1j)


def test_one_table_build_per_length():
    # the powers of the root and both kernel spectra are built once per
    # length, the kernels at the smallest 2^a * 3^b >= n - 2
    n = 1009
    convolve._rader_tables.cache_clear()
    first = convolve._rader_tables(n)
    length_p_transform(np.ones(n))
    assert convolve._rader_tables(n) is first and first[3] == 1024
    assert convolve._rader_tables.cache_info().misses == 1
    assert [convolve._smooth_length(p - 2) for p in (100003, 1000003)] == [104976, 1 << 20]


def test_cold_rader_tables_build_in_place():
    # a first build at p = 100003 holds the powers of the root, one kernel
    # array of length L = 104976 and the two kernel spectra: 1.90 * 16p
    # bytes at its traced peak
    p = 100003
    convolve._rader_tables.cache_clear()
    tracemalloc.start()
    try:
        convolve._rader_tables(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.83 * 16 * p
