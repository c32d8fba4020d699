"""Print the peak RSS of one benchmark workload after each of its steps.

    python tools/peak_by_op.py WORKLOAD [--seed N]

Runs WORKLOAD's passes in this process as perfbench/run.py does at its
default 15 s (the same number of passes, each pass's outputs and contexts
dropped after its check), untimed and untraced, with the workloads of
perfbench/workloads.py read as they are. After the set-up, after each op
and after each pass's check it prints one line: the step (`setup`,
`PASS.OP` or `PASS.check`) and this process's ru_maxrss in MB. Child
processes (cli_sweep's) are not counted.
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


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def probe(workload, seed: int, passes: int, workdir: str):
    """Yield (step, peak RSS in MB) after the set-up, each op and each check."""
    state = workload.setup(seed, passes, workdir)
    yield "setup", _peak_mb()
    for index in range(passes):
        results = {}
        for op in workload.ops(state, index):
            results[op.name] = op.call(None)
            yield f"{index}.{op.name}", _peak_mb()
        workload.check(state, index, results)
        yield f"{index}.check", _peak_mb()
        del results
        if "ctxs" in state:
            state["ctxs"][index] = None


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    passes = max(1, round(SECONDS / workload.nominal_pass_s))
    with tempfile.TemporaryDirectory() as workdir:
        for step, peak in probe(workload, args.seed, passes, workdir):
            print(f"{step}\t{peak:.1f} MB", flush=True)


if __name__ == "__main__":
    main()
