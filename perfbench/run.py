"""Run a benchmark workload against the fplab sources of this checkout.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of tk_exact, product_pairs, recip_spectra, cli_sweep, or `all`,
which runs the four one after another, each in its own process so that
peak memory stays per workload. Every input is derived from --seed. A run
repeats its workload's pass round(S / nominal pass length) times, at least
once, so a faster commit does the same work as its parent. With --trace 0 it
prints the end-to-end metrics; with --trace 1 it runs an untraced warm-up
pass, then alternates traced and untraced passes (at least one of each), and
prints the per-layer metrics from the spans. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")
WORK = os.path.join(HERE, "_work")
EXPECTED = os.path.join(HERE, "expected.json")
NAMES = ("tk_exact", "product_pairs", "recip_spectra", "cli_sweep")
DEFAULT_SEED = 1
SETUP_PROBES = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

END_TO_END = (("wall_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _per_layer_names():
    from perfbench.spans import TRACED

    names = [(f"{fn}.{key}", unit) for fn in TRACED
             for key, unit in (("calls", "count"), ("time_s", "s"), ("self_s", "s"))]
    names += [
        ("modfield.batch_inverse.elements", "count"),
        ("modfield.recip_power_values.elements", "count"),
        ("sets.random_subset.elements", "count"),
        ("energy.count_vector_product.pairs", "count"),
        ("energy.count_vector_product.ns_per_pair", "ns"),
        ("prodset.pairs", "count"),
        ("prodset.ns_per_pair", "ns"),
        ("convolve.plan.float", "count"),
        ("convolve.plan.ntt", "count"),
        ("convolve.plan.direct", "count"),
        ("convolve.k_fold_count.fft_length", "count"),
        ("convolve.k_fold_count.moduli", "count"),
        ("convolve.k_fold_count.transforms", "count"),
        ("convolve.k_fold_count.bytes_computed", "B"),
        ("verify.run_sweep.rows", "count"),
        ("cli.import_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.traced_wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
    ]
    return tuple(names)


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)   # name -> (value, unit, n, note)
    summaries: dict = field(default_factory=dict)  # op name -> pass-0 summary
    spans: list = field(default_factory=list)


def _matches(got, want) -> bool:
    """Exact equality, except floats agree to 1e-9 relative."""
    if isinstance(want, float) or isinstance(got, float):
        return isinstance(got, (int, float)) and isinstance(want, (int, float)) and \
            abs(got - want) <= 1e-9 * max(abs(got), abs(want), 1.0)
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and \
            all(_matches(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and \
            all(_matches(g, w) for g, w in zip(got, want))
    return got == want


def _tail(values):
    """(value, percentile, flagged): the highest percentile with TAIL_BEYOND samples
    beyond it, or the max, flagged, when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, True
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, False


def _probe_setups(name, seed, passes, workdir, count):
    probe_dir = os.path.join(workdir, "probe")
    os.makedirs(probe_dir, exist_ok=True)
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), name, str(seed),
             str(passes), probe_dir],
            capture_output=True, text=True, timeout=120, stdin=subprocess.DEVNULL)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {name} failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run(workload, seed, seconds, trace, expected=None, workdir=WORK, probes=SETUP_PROBES):
    """Set up and run one workload; verify every output outside the timed phase.

    `expected` maps op name to the summary recorded for this seed, or is None.
    """
    from perfbench.spans import Tracer

    passes = max(1, round(seconds / workload.nominal_pass_s))
    schedule = [False] * passes
    if trace:
        # pass 0 builds fplab.convolve's module-level tables; it is left out of
        # the traced/untraced comparison so that both sides run warm
        schedule = [i % 2 == 1 for i in range(max(passes, 3))]
    setup_samples = [] if trace else _probe_setups(workload.name, seed, len(schedule),
                                                   workdir, probes)
    tracer = Tracer() if trace else None

    def installed(on):
        return tracer.installed() if on else contextlib.nullcontext()

    if tracer:
        tracer.op = "setup"
    with installed(trace):
        state = workload.setup(seed, len(schedule), workdir)

    out = RunResult()
    walls, latencies, rss_kb, bounds = [], [], [], []
    for index, traced in enumerate(schedule):
        ops = workload.ops(state, index)
        results, problems = {}, {}
        with installed(traced):
            start = time.perf_counter_ns()
            for j, op in enumerate(ops):
                if tracer:
                    tracer.op = f"{index}.{j}"
                t0 = time.perf_counter()
                try:
                    results[op.name] = op.call(tracer if traced else None)
                except Exception as exc:  # a failed op is counted, never fatal
                    problems[op.name] = [f"raised {type(exc).__name__}: {exc}"]
                if not traced:
                    latencies.append(time.perf_counter() - t0)
            end = time.perf_counter_ns()
        walls.append((end - start) / 1e9)
        bounds.append((start, end))
        if workload.children:
            rss_kb += [r.max_rss_kb for r in results.values()]

        try:
            checked = workload.check(state, index, results)
        except Exception as exc:  # a check that cannot read an output fails the pass
            checked = {name: [f"check raised {type(exc).__name__}: {exc}"] for name in results}
        for name, errs in checked.items():
            problems.setdefault(name, []).extend(errs)
        for name, result in results.items():
            summary = workload.summary(state, name, result)
            if index == 0:
                out.summaries[name] = summary
            elif summary != out.summaries.get(name):
                problems.setdefault(name, []).append("output differs from pass 0")
            if expected is not None and not _matches(summary, expected.get(name)):
                problems.setdefault(name, []).append(
                    f"output differs from the recorded value: {summary}")
        out.attempted += len(ops)
        for name, errs in problems.items():
            if errs:
                out.failed += 1
                out.problems += [f"pass {index} {name}: {e}" for e in errs]
        del results
        if "ctxs" in state:  # this pass's dlog and phase tables go before the next pass
            state["ctxs"][index] = None

    if trace:
        out.spans = tracer.spans
        out.metrics = _layer_metrics(tracer.spans, schedule, walls, bounds)
        return out
    tail, pct, flagged = _tail(latencies)
    if workload.children:
        peak = max(rss_kb, default=0) / 1024
        peak_n = f"max over {len(rss_kb)} children"
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        peak_n = "1 process"
    n_ops = f"n={len(latencies)} ops"
    out.metrics = {
        "wall_s": (statistics.median(walls), "s", f"median of n={len(walls)} passes", ""),
        "op_p50_s": (statistics.median(latencies), "s", n_ops, ""),
        "op_tail_s": (tail, "s", n_ops, "max: too few ops for a percentile, flagged"
                      if flagged else f"p{pct:.1f}"),
        "setup_s": (statistics.median(setup_samples), "s",
                    f"median of n={len(setup_samples)} cold set-ups", ""),
        "peak_rss_mb": (peak, "MB", peak_n, ""),
    }
    return out


def _layer_metrics(spans, schedule, walls, bounds):
    """Per-layer values for one set-up plus one traced pass (mean over traced passes)."""
    from perfbench.spans import covered_ns, layer_totals

    traced = [i for i, t in enumerate(schedule) if t]
    setup_rows = layer_totals([s for s in spans if s.op == "setup"])
    pass_rows = layer_totals([s for s in spans if s.op != "setup"
                              and int(s.op.split(".")[0]) in traced])

    def get(name, key):
        a = setup_rows.get(name, {}).get(key, 0)
        b = pass_rows.get(name, {}).get(key, 0)
        if key in ("fft_length", "moduli"):
            return max(a, b)
        return a + b / len(traced)

    values = {metric: get(*metric.rsplit(".", 1)) for metric, _ in _per_layer_names()}
    values["convolve.plan.float"] = get("convolve.plan_convolution", "plan.float")
    values["convolve.plan.ntt"] = get("convolve.plan_convolution", "plan.ntt")
    values["convolve.plan.direct"] = get("convolve.plan_convolution", "plan.direct")
    pairs = get("energy.count_vector_product", "pairs")
    values["energy.count_vector_product.pairs"] = pairs
    values["energy.count_vector_product.ns_per_pair"] = (
        1e9 * get("energy.count_vector_product", "time_s") / pairs if pairs else 0.0)
    pairs = get("prodset.product_set", "pairs") + get("prodset.ratio_set", "pairs")
    values["prodset.pairs"] = pairs
    values["prodset.ns_per_pair"] = 1e9 * (get("prodset.product_set", "time_s")
                                           + get("prodset.ratio_set", "time_s")) / pairs \
        if pairs else 0.0
    values["cli.import_s"] = get("cli.import", "time_s")

    unattributed = []
    for i in traced:
        lo, hi = bounds[i]
        roots = [(s.start_ns, s.end_ns) for s in spans
                 if s.parent is None and s.op != "setup" and int(s.op.split(".")[0]) == i]
        unattributed.append((hi - lo - covered_ns(roots, lo, hi)) / 1e9)
    traced_wall = statistics.median(walls[i] for i in traced)
    untraced_wall = statistics.median(w for i, (w, t) in enumerate(zip(walls, schedule))
                                      if i > 0 and not t)
    values["trace.unattributed_s"] = statistics.median(unattributed)
    values["trace.traced_wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return {name: (values[name], unit, f"{len(traced)} traced passes", "")
            for name, unit in _per_layer_names()}


def _git_commit():
    """HEAD of the checkout, or None where it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              stdin=subprocess.DEVNULL)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None  # no work tree here, or ROOT only sits inside another repository's
    return lines[1]


def machine_record(seed):
    import numpy

    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
        # glibc's _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE
        caches = {"l2_bytes": libc.sysconf(191), "l3_bytes": libc.sysconf(194)}
    except (OSError, AttributeError):
        caches = {"l2_bytes": None, "l3_bytes": None}
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, **caches, "commit": _git_commit(), "seed": seed}


def _print_report(name, seed, seconds, trace, result):
    print(f"== {name} seed={seed} seconds={seconds} trace={trace}")
    for metric, (value, unit, n, note) in result.metrics.items():
        if trace and value == 0:
            continue
        print(f"{name:14s} {metric:42s} {value:14.6g} {unit:5s} {n}"
              + (f" ({note})" if note else ""))
    if not trace:
        rate = result.failed / result.attempted
        print(f"{name:14s} {'fail_rate':42s} {rate:14.6g} {'1':5s} "
              f"{result.failed} failed of n={result.attempted} ops")
    else:
        selfs = sorted(((v[0], m.removesuffix(".self_s")) for m, v in result.metrics.items()
                        if m.endswith(".self_s") or m == "cli.import_s"), reverse=True)[:6]
        print(f"{name:14s} largest self times: "
              + ", ".join(f"{m} {v:.3f}s" for v, m in selfs))
    for problem in result.problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)


def _run_all(args):
    """Each workload in its own child process; their reports are passed through."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, stdin=subprocess.DEVNULL)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "fplab", "__init__.py")):
        print(f"error: no fplab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    if args.workload == "all":
        return _run_all(args)

    from perfbench.spans import write_jsonl
    from perfbench.workloads import WORKLOADS

    expected = None
    if args.seed == DEFAULT_SEED:
        with open(EXPECTED, encoding="ascii") as fh:
            expected = json.load(fh)[args.workload]
    workdir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
                     expected, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _print_report(args.workload, args.seed, args.seconds, args.trace, result)
    if args.trace:
        path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.jsonl")
        write_jsonl(result.spans, path)
        print(f"spans: {len(result.spans)} written to {os.path.relpath(path, ROOT)}")
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(args.seed), "fail_rate": result.failed / result.attempted,
              "metrics": {m: {"value": v, "unit": u, "n": n, "note": note}
                          for m, (v, u, n, note) in result.metrics.items()}}
    print("record: " + json.dumps(record))
    print(json.dumps({"correct": result.failed == 0, "attempted": result.attempted,
                      "failed": result.failed,
                      "metrics": {m: {"value": v, "unit": u}
                                  for m, (v, u, _, _) in result.metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
