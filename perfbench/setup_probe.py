"""One cold set-up of a workload, in a fresh interpreter; prints its seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED PASSES WORKDIR

The clock starts before fplab is imported and stops once the workload's
PrimeContexts and seeded inputs exist, which is what `setup_s` measures.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]


def main(argv: list[str]) -> int:
    name, seed, passes, workdir = argv[0], int(argv[1]), int(argv[2]), argv[3]
    start = time.perf_counter()
    from perfbench.workloads import WORKLOADS

    WORKLOADS[name].setup(seed, passes, workdir)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
