"""Print the peak RSS of one benchmark workload after each of its steps.

    python tools/peak_by_op.py WORKLOAD [--seed N]

Runs WORKLOAD's passes in this process as perfbench/run.py does at its
default 15 s (the same number of passes, each pass's outputs and contexts
dropped after its check), untimed and untraced, with the workloads of
perfbench/workloads.py read as they are. After the set-up, after each op
and after each pass's check it prints one line: the step (`setup`,
`PASS.OP` or `PASS.check`), this process's ru_maxrss in MB, and the
minor page faults (ru_minflt) and system CPU milliseconds (ru_stime)
the step took. Child processes (cli_sweep's) are not counted.
"""

from __future__ import annotations

import argparse
import resource
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from perfbench import workloads  # noqa: E402

SECONDS = 15  # perfbench/run.py's default --seconds


def _steps(workload, seed: int, passes: int, workdir: str):
    """Run the set-up, each op and each check, yielding each one's name when it is done."""
    state = workload.setup(seed, passes, workdir)
    yield "setup"
    for index in range(passes):
        results = {}
        for op in workload.ops(state, index):
            results[op.name] = op.call(None)
            yield f"{index}.{op.name}"
        workload.check(state, index, results)
        yield f"{index}.check"
        del results
        if "ctxs" in state:
            state["ctxs"][index] = None


def probe(workload, seed: int, passes: int, workdir: str):
    """Yield (step, peak RSS in MB, minor faults, system ms) after the set-up, each op
    and each check; the last two count the step alone."""
    last = resource.getrusage(resource.RUSAGE_SELF)
    for step in _steps(workload, seed, passes, workdir):
        now = resource.getrusage(resource.RUSAGE_SELF)
        yield (step, now.ru_maxrss / 1024, now.ru_minflt - last.ru_minflt,
               round((now.ru_stime - last.ru_stime) * 1000))
        last = now


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    passes = max(1, round(SECONDS / workload.nominal_pass_s))
    with tempfile.TemporaryDirectory() as workdir:
        for step, peak, faults, system_ms in probe(workload, args.seed, passes, workdir):
            print(f"{step}\t{peak:.1f} MB\t{faults} faults\t{system_ms} ms sys", flush=True)


if __name__ == "__main__":
    main()
