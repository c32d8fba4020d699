"""The runner: output checks, fail_rate, traced runs and the result contract.

These run the real workloads at small sizes (cli_sweep at its own size, a
few seconds per pass). Run with `python3 -m pytest perfbench/tests`.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run
from perfbench.workloads import CliSweep, ProductPairs, RecipSpectra, TkExact

SMALL = [TkExact(primes=(101, 211)), ProductPairs(p=1009),
         RecipSpectra(p=1009, energies=(("recip_e2", 1009, 0.7, 2), ("recip_e4", 211, 0.7, 4)))]


@pytest.mark.parametrize("workload", SMALL + [CliSweep()], ids=lambda w: w.name)
def test_traced_and_untraced_runs_give_identical_outputs(workload, tmp_path):
    plain = run.run(workload, 7, 1, 0, workdir=str(tmp_path), probes=1)
    traced = run.run(workload, 7, 1, 1, workdir=str(tmp_path))
    assert plain.failed == 0, plain.problems
    # the traced run compares its traced pass with its untraced first pass
    assert traced.failed == 0, traced.problems
    assert traced.summaries == plain.summaries
    assert traced.metrics["trace.traced_wall_s"][0] > 0
    assert [m for m, _ in run.END_TO_END] == list(plain.metrics)


def test_wrong_expected_value_makes_fail_rate_positive(tmp_path):
    workload = TkExact(primes=(101,))
    good = run.run(workload, 3, 1, 0, workdir=str(tmp_path), probes=1)
    assert run.run(workload, 3, 1, 0, good.summaries, str(tmp_path), probes=1).failed == 0
    wrong = json.loads(json.dumps(good.summaries))
    wrong["tk_p101"]["total"] += 1
    bad = run.run(workload, 3, 1, 0, wrong, str(tmp_path), probes=1)
    assert bad.failed / bad.attempted > 0
    assert any("recorded value" in p for p in bad.problems)


def test_tail_reports_max_when_too_few_samples():
    assert run._tail([3.0, 1.0, 2.0]) == (3.0, 100.0, True)
    value, pct, flagged = run._tail([float(i) for i in range(40)])
    assert (value, flagged) == (29.0, False) and pct == 75.0


def test_benchmark_json_lists_what_the_runner_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run._per_layer_names())
    assert [w["name"] for w in bench["workloads"]] == list(run.NAMES)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tk_exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
