import csv
import io
import logging
import math
import re
from dataclasses import replace

import pytest

from fplab import verify
from fplab.errors import DomainError
from fplab.modfield import PrimeContext
from fplab.sets import SplitMix64, initial_interval, mix_seed, random_subset
from fplab.verify import (CSV_COLUMNS, SweepConfig, fit_exponent, fmt_number,
                          parse_config, run_sweep)

BASIC = """
# a tiny sweep
measure = energy_j
primes  = 11, 13
h_exp   = 0.4 0.6
m_exp   = 0.5
s       = 1
seed    = 9
"""


def test_parse_config_roundtrip():
    cfg = parse_config(BASIC)
    assert cfg.measure == "energy_j"
    assert cfg.primes == (11, 13)
    assert cfg.h_exps == (0.4, 0.6)
    assert cfg.m_exps == (0.5,)
    assert cfg.seed == 9
    assert cfg.out_format == "csv"


def test_parse_config_errors():
    tk3 = "measure = tk\nprimes = 3\nh_exp = 0.5\n"
    for text, match in [
        (tk3 + "bogus = 1\n", "unknown config keys"),
        ("measure = tk\n", "requires at least"),
        ("measure tk\n", "key = value"),
        ("measure = nope\nprimes = 3\nh_exp = 0.5\n", "unknown measure"),
        ("measure = tk\nprimes = 9\nh_exp = 0.5\n", "not an odd prime"),
        ("measure = tk\nprimes = 101 2147483659\nh_exp = 0.5\n", "supported range"),
        ("measure = tk\nprimes = 1O1\nh_exp = 0.5\n", "primes: '1O1' is not an integer"),
        (tk3 + "k = six\n", "k: 'six' is not an integer"),
        ("measure = tk\nprimes = 3\nh_exp = half\n", "h_exp: 'half' is not a finite number"),
        ("measure = tk\nprimes = 3\nh_exp = nan\n", "h_exp: 'nan' is not a finite number"),
        (tk3 + "l_policy = explicit:x\n", "l_policy: 'x' is not an integer"),
        (tk3 + "epsilon = -1\n", "epsilon must be a finite number >= 0"),
        (tk3 + "epsilon = inf\n", "epsilon: 'inf' is not a finite number"),
        (tk3 + "budget = -1\n", "budget must be >= 0, got -1"),
        (tk3 + "workers = 0\n", "workers must be >= 1, got 0"),
        (tk3 + "workers = -3\n", "workers must be >= 1, got -3"),
    ]:
        with pytest.raises(DomainError, match=match):
            parse_config(text)


@pytest.mark.parametrize("field, value", [("workers", 2.5), ("workers", True), ("k", 2.5),
                                          ("k", "6")])
def test_library_config_refuses_non_integer_counts(field, value):
    with pytest.raises(DomainError, match=f"{field} must be an integer, got {value!r}"):
        SweepConfig(measure="tk", primes=(3,), h_exps=(0.5,), **{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("h_exps", "a", "h_exps entry must be a finite number, got 'a'"),
    ("h_exps", True, "h_exps entry must be a finite number, got True"),
    ("m_exps", math.nan, "m_exps entry must be a finite number, got nan"),
    ("m_exps", -math.inf, "m_exps entry must be a finite number, got -inf"),
    ("s_list", 1.5, "s_list entry must be an integer, got 1.5"),
    ("ell_list", 2.5, "ell_list entry must be an integer, got 2.5"),
    ("ell_list", True, "ell_list entry must be an integer, got True"),
])
def test_library_config_refuses_bad_grid_entries(field, value, message):
    # each once ran: a bare TypeError or ValueError from run_sweep, a bool
    # as exponent 1, or a tk sweep reporting ell = 2.5
    grid = {"h_exps": (0.5,), field: (0.5, value) if field.endswith("exps") else (1, value)}
    with pytest.raises(DomainError, match=re.escape(message)):
        SweepConfig(measure="tk", primes=(101,), k=3, **grid)


REQUIRED = {"measure": "tk", "primes": "3", "h_exp": "0.5"}


def _config(lines: dict) -> SweepConfig:
    return parse_config("".join(f"{key} = {value}\n" for key, value in lines.items()))


def test_the_required_keys_alone_take_every_default():
    assert _config(REQUIRED) == SweepConfig(measure="tk", primes=(3,), h_exps=(0.5,))


@pytest.mark.parametrize("key, text, field, value", [
    ("measure", "burgess", "measure", "burgess"),
    ("primes", "5, 7", "primes", (5, 7)),
    ("h_exp", "0.25 0.75", "h_exps", (0.25, 0.75)),
    ("m_exp", "0.3,0.7", "m_exps", (0.3, 0.7)),
    ("s", "2 3", "s_list", (2, 3)),
    ("ell", "4", "ell_list", (4,)),
    ("k", "3", "k", 3),
    ("l_policy", "explicit:7", "l_policy", "explicit:7"),
    ("epsilon", "0.125", "epsilon", 0.125),
    ("seed", "42", "seed", 42),
    ("budget", "12345", "budget", 12345),
    ("workers", "3", "workers", 3),
    ("format", "jsonl", "out_format", "jsonl"),
    ("out", "rows.csv", "out_path", "rows.csv"),
])
def test_each_config_key_sets_its_field(key, text, field, value):
    # the key sets its field, and no other field moves
    assert _config({**REQUIRED, key: text}) == replace(_config(REQUIRED), **{field: value})


def test_empty_grid():
    cfg = parse_config("measure = energy_j\nprimes =\nh_exp = 0.5\n")
    sink = io.StringIO()
    rows = run_sweep(cfg, sink=sink)
    assert rows == []
    assert sink.getvalue() == ",".join(CSV_COLUMNS) + "\n"


def test_determinism_byte_identical():
    cfg = parse_config(BASIC)
    a, b = io.StringIO(), io.StringIO()
    run_sweep(cfg, sink=a)
    run_sweep(cfg, sink=b)
    assert a.getvalue() == b.getvalue()
    assert a.getvalue().startswith(",".join(CSV_COLUMNS))


def test_jsonl_stream_matches_rows():
    import json
    cfg = parse_config(BASIC + "format = jsonl\n")
    sink = io.StringIO()
    rows = run_sweep(cfg, sink=sink)
    lines = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert len(lines) == len(rows) == 4
    assert lines[0]["measure"] == "energy_j"
    assert [r["index"] for r in lines] == [0, 1, 2, 3]


def test_row_reproducible_in_isolation():
    cfg = parse_config("measure = energy_j\nprimes = 101\nh_exp = 0.5\n"
                       "m_exp = 0.5\nseed = 4\n")
    row = run_sweep(cfg)[0]
    # re-derive the instance from the row's recorded parameters alone
    ctx = PrimeContext(row.p)
    rng = SplitMix64(row.seed)
    mset = random_subset(row.M, rng.next_u64(), ctx)
    from fplab.energy import energy_J
    assert energy_J(initial_interval(row.H, ctx), mset, ctx) == row.value
    assert row.seed == mix_seed(4, 0)


def test_skip_reasons():
    # m_exp = 1.0 gives M = p > p-1: skipped with a machine-readable reason
    cfg = parse_config("measure = energy_j\nprimes = 11\nh_exp = 0.5\nm_exp = 1.0\n")
    rows = run_sweep(cfg)
    assert rows[0].skip_reason == "m_exceeds_field"
    # sizes whose p^exponent overflows a float are skipped too, not a traceback
    cfg = parse_config("measure = energy_j\nprimes = 101\nh_exp = 1000 0.5\n"
                       "m_exp = 1000\n")
    rows = run_sweep(cfg)
    assert [r.skip_reason for r in rows] == ["h_exceeds_field", "m_exceeds_field"]
    assert (rows[0].H, rows[1].H, rows[1].M) == (None, 11, None)
    cfg = parse_config("measure = energy_j\nprimes = 101\nh_exp = 0.9\n"
                       "m_exp = 0.9\nbudget = 10\n")
    rows = run_sweep(cfg)
    assert rows[0].skip_reason == "budget_exceeded"
    # failures never abort the sweep: later points still run
    cfg = parse_config("measure = energy_j\nprimes = 101 11\nh_exp = 0.9\n"
                       "m_exp = 0.9\nbudget = 2000\n")
    rows = run_sweep(cfg)
    assert rows[0].skip_reason == "budget_exceeded"
    assert rows[1].skip_reason == "" and rows[1].value > 0
    # a recip energy envelope beyond the float range is a domain skip, not an error
    cfg = parse_config("measure = recip_energy\nprimes = 101\nh_exp = 0.34\nell = 221 222\n")
    rows = run_sweep(cfg)
    assert rows[0].H == 5 and rows[0].skip_reason == "" and 0 < rows[0].ratio < 2
    assert rows[1].skip_reason == ("domain:recip energy envelope exceeds the float range "
                                   "at H=5 and ell=222")


def test_explicit_shift_policy_end_to_end():
    # L = 95 puts 0 inside 95 + {1..11} mod 101, which is skipped; mod 1009
    # the interval 96..127 is denominator-safe and the energy is computed
    cfg = parse_config("measure = energy_js\nprimes = 101 1009\nh_exp = 0.5\n"
                       "l_policy = explicit:95\n")
    sink = io.StringIO()
    run_sweep(cfg, sink=sink)
    assert sink.getvalue().splitlines()[1:] == [
        "0,energy_js,101,11,11,95,1,2,6,0.05,6791897765849424158,,,,,interval_covers_zero",
        "1,energy_js,1009,32,32,95,1,2,6,0.05,16860738450190168606,2000,4507.72078224,"
        "0.443683204133,,",
    ]


# one fault per config, at p = 101 with H = M = 11; L = 95 puts 0 inside
# 95 + {1..11} mod 101
_REFUSAL_ROWS = {
    "measure = recip_energy\nl_policy = explicit:95\n":
        "0,recip_energy,101,11,11,95,1,2,6,0.05,6791897765849424158,,,,,interval_covers_zero",
    "measure = kloosterman\nl_policy = explicit:95\n":
        "0,kloosterman,101,11,11,95,1,2,6,0.05,6791897765849424158,,,,,interval_covers_zero",
    "measure = tk\nk = 3\nl_policy = explicit:95\n":
        "0,tk,101,11,11,95,1,2,3,0.05,6791897765849424158,,,,,interval_covers_zero",
    "measure = recip_energy\nell = 0\n":
        '0,recip_energy,101,11,11,0,1,0,6,0.05,6791897765849424158,,,,,'
        '"domain:ell must be >= 1, got 0"',
    "measure = energy_js\ns = 0\n":
        "0,energy_js,101,11,11,0,0,2,6,0.05,6791897765849424158,,,,,"
        "domain:exponent s must be nonzero",
    "measure = tk\nk = 1\n":
        '0,tk,101,11,11,0,1,2,1,0.05,6791897765849424158,,,,,"domain:k must be >= 2, got 1"',
}


@pytest.mark.parametrize("text", sorted(_REFUSAL_ROWS))
def test_refusal_rows_are_pinned(text):
    sink = io.StringIO()
    run_sweep(parse_config(text + "primes = 101\nh_exp = 0.5\n"), sink=sink)
    assert sink.getvalue().splitlines()[1:] == [_REFUSAL_ROWS[text]]


def test_tk_sweep_is_refused_before_any_set_is_drawn(monkeypatch):
    # k = 20000: refused on the floors of one array 20000 times, before the
    # point draws its sets
    draws, random_subset_ = [], verify.random_subset
    monkeypatch.setattr(verify, "random_subset", lambda *a: draws.append(a) or random_subset_(*a))
    cfg = parse_config("measure = tk\nprimes = 10007\nh_exp = 0.5\nm_exp = 0.5\nk = 20000\n")
    assert [row.skip_reason for row in run_sweep(cfg)] == ["budget_exceeded"]
    assert draws == []


def test_workers_preserve_order():
    cfg = parse_config(BASIC)
    seq = run_sweep(cfg)
    par = run_sweep(SweepConfig(**{**cfg.__dict__, "workers": 4}))
    assert [r.csv_cells() for r in seq] == [r.csv_cells() for r in par]


def test_threaded_sweep_matches_serial(caplog):
    # tk at m_exp 0.8: every point's T_6 splits its later steps into limbs
    text = "measure = tk\nprimes = 1009 3001\nh_exp = 0.5\nm_exp = 0.8\n"
    reports = []
    for workers in (1, 2):
        sink = io.StringIO()
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fplab.convolve"):
            run_sweep(parse_config(text + f"workers = {workers}\n"), sink=sink)
        reports.append(sink.getvalue())
        chains = [r.getMessage() for r in caplog.records if "float convolution" in r.getMessage()]
        steps = [step for line in chains for step in line.split(" (limbs")[0].split()
                 if "x" in step and "@" in step]
        assert any(not step.startswith("1x1@") for step in steps)
    assert reports[0] == reports[1] and reports[0].count("\n") == 3


def test_all_measures_produce_rows():
    for measure in ("prodset", "ratio", "energy_j", "energy_js", "recip_energy",
                    "kloosterman", "burgess", "tk"):
        cfg = parse_config(f"measure = {measure}\nprimes = 101\nh_exp = 0.45\n"
                           "m_exp = 0.4\nl_policy = random\nk = 3\nseed = 12\n")
        row = run_sweep(cfg)[0]
        assert row.skip_reason == "", (measure, row.skip_reason)
        assert row.ratio is not None and row.ratio >= 0


def test_fit_exponent_examples():
    mk = lambda x, y: {"p": x, "value": y, "skip_reason": ""}
    slope, intercept, resid = fit_exponent([mk(1, 1), mk(2, 2), mk(3, 3)], "p", "value")
    assert abs(slope - 1) < 1e-12 and abs(resid) < 1e-12
    slope, _, _ = fit_exponent([mk(1, 5), mk(2, 5), mk(3, 5)], "p", "value")
    assert abs(slope) < 1e-12
    with pytest.raises(DomainError, match="degenerate"):
        fit_exponent([mk(2, 1), mk(2, 2), mk(2, 3)], "p", "value")
    with pytest.raises(DomainError, match=">= 3"):
        fit_exponent([mk(1, 1), mk(2, 2)], "p", "value")


def test_fit_exponent_drops_skipped_and_non_positive_rows():
    mk = lambda x, y, skip="": {"p": x, "value": y, "skip_reason": skip}
    usable = [mk(1, 1), mk(2, 2), mk(3, 3)]
    dropped = [mk(4, 100, "budget_exceeded"), mk(5, 0), mk(6, -1), mk(0, 7)]
    assert fit_exponent(usable + dropped, "p", "value") == fit_exponent(usable, "p", "value")
    with pytest.raises(DomainError, match=">= 3 usable rows, got 2"):
        fit_exponent(usable[:2] + dropped, "p", "value")


def test_an_unexpected_error_is_one_row_and_the_sweep_goes_on(monkeypatch):
    energy_J = verify.energy.energy_J

    def broken_at_101(interval, mset, ctx, budget=None):
        if ctx.p == 101:
            raise RuntimeError("a fault inside the measure")
        return energy_J(interval, mset, ctx, budget)

    monkeypatch.setattr(verify.energy, "energy_J", broken_at_101)
    cfg = parse_config("measure = energy_j\nprimes = 101 11\nh_exp = 0.5\nm_exp = 0.5\n")
    rows = run_sweep(cfg)
    assert [row.skip_reason for row in rows] == ["error:RuntimeError", ""]
    assert rows[0].value is None and rows[1].value > 0


def test_fmt_number_stability():
    assert fmt_number(3) == "3"
    assert fmt_number(0.1 + 0.2) == "0.3"
    assert fmt_number(1234567.891234567) == "1234567.89123"
    assert fmt_number(None) == ""
    assert fmt_number(True) == "1"
    assert fmt_number(False) == "0"


def test_csv_quotes_a_skip_reason_with_a_comma():
    cfg = parse_config("measure = prodset\nprimes = 67108879 101\nh_exp = 0.1\nm_exp = 0.1\n")
    sink = io.StringIO()
    run_sweep(cfg, sink=sink)
    rows = list(csv.DictReader(io.StringIO(sink.getvalue())))
    assert [list(row) for row in rows] == [list(CSV_COLUMNS)] * 2
    assert rows[0]["skip_reason"] == ("domain:dense dlog table capped at p <= 2^26, "
                                      "got p=67108879")
    # the row without a comma is byte-identical to the unquoted writer's
    assert sink.getvalue().splitlines()[2] == (
        "1,prodset,101,2,2,0,1,2,6,0.05,16860738450190168606,97,101,0.960396039604,none,")
