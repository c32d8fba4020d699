"""Entry point for the `fplab` children of the cli_sweep workload.

    python3 perfbench/cli_child.py [--trace-out FILE --op ID] <fplab arguments>

Times the import of `fplab.cli`, then calls `fplab.cli.main`. With
--trace-out it installs the span wrappers first and writes the spans
(including one `cli.import` span) to FILE when main returns.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, op, argv = argv[1], argv[3], argv[4:]
    start = time.perf_counter_ns()
    import fplab.cli
    end = time.perf_counter_ns()
    if trace_out is None:
        return fplab.cli.main(argv)

    from perfbench.spans import Tracer, write_jsonl

    tracer = Tracer()
    tracer.op = op
    tracer.record("cli.import", start, end)
    try:
        with tracer.installed():
            return fplab.cli.main(argv)
    finally:
        write_jsonl(tracer.spans, trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
