"""Record the default seed's outputs, which later runs compare exactly.

    python3 perfbench/record_expected.py [WORKLOAD ...]

Runs one pass of each named workload (all by default) with the default seed
and rewrites those entries of perfbench/expected.json. Every count fplab
returns is exact, so an entry changes only when a change to fplab changes a
result; record again only after confirming that the new result is right.
"""

import json
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

from perfbench import run  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main(names: list[str]) -> int:
    expected = {}
    if os.path.exists(run.EXPECTED):
        with open(run.EXPECTED, encoding="ascii") as fh:
            expected = json.load(fh)
    workdir = os.path.join(run.WORK, f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    for name in names or run.NAMES:
        result = run.run(WORKLOADS[name], run.DEFAULT_SEED, 1, 0, None, workdir, probes=1)
        if result.failed:
            print("\n".join(result.problems), file=sys.stderr)
            return 1
        expected[name] = result.summaries
        print(f"recorded {len(result.summaries)} outputs of {name}")
    with open(run.EXPECTED, "w", encoding="ascii") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
