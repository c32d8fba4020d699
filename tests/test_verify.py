import csv
import io

import pytest

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
        ("measure = tk\nprimes = 1O1\nh_exp = 0.5\n", "primes: '1O1' is not an integer"),
        (tk3 + "k = six\n", "k: 'six' is not an integer"),
        ("measure = tk\nprimes = 3\nh_exp = half\n", "h_exp: 'half' is not a finite number"),
        ("measure = tk\nprimes = 3\nh_exp = nan\n", "h_exp: 'nan' is not a finite number"),
        (tk3 + "l_policy = explicit:x\n", "l_policy: 'x' is not an integer"),
        (tk3 + "epsilon = -1\n", "epsilon must be a finite number >= 0"),
        (tk3 + "epsilon = inf\n", "epsilon: 'inf' is not a finite number"),
    ]:
        with pytest.raises(DomainError, match=match):
            parse_config(text)


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


def test_workers_preserve_order():
    cfg = parse_config(BASIC)
    seq = run_sweep(cfg)
    par = run_sweep(SweepConfig(**{**cfg.__dict__, "workers": 4}))
    assert [r.csv_cells() for r in seq] == [r.csv_cells() for r in par]


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


def test_fmt_number_stability():
    assert fmt_number(3) == "3"
    assert fmt_number(0.1 + 0.2) == "0.3"
    assert fmt_number(1234567.891234567) == "1234567.89123"
    assert fmt_number(None) == ""


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
