"""List the statements of src/fplab that a test run never executes.

Runs pytest in this process under a standard-library line tracer
(sys.settrace, and threading.settrace for the threads it starts, such as
the sweep's worker pool), then prints each statement of src/fplab that
has bytecode and never ran, one per line as `file:line: text`, and their
number last.

    python tools/stmt_coverage.py [PYTEST_ARG ...]

The default arguments run the tier-1 suite (tests/, quiet, continuing past
collection errors). A trace slows the suite several times over; it is a
diagnostic, not part of tier 1.

Child processes are not traced. A statement reached only from a child,
such as a CLI run in a subprocess, is therefore listed: cli.main's
MemoryError branch, which the CLI tests reach only in a child under a
memory cap, is one.

A statement counts as run when a line event fired on any of its own
lines: a simple statement's whole span, or a compound statement's
decorators and header up to its body. Executable lines are the lines
the compiled module's code objects map bytecode to.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _code_lines(code) -> set[int]:
    """The lines that a code object and every code object nested in it map bytecode to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _own_lines(node: ast.stmt) -> range:
    """A statement's own lines: its whole span, or for a compound one, up to its body."""
    first = min([d.lineno for d in getattr(node, "decorator_list", [])] + [node.lineno])
    body = getattr(node, "body", None)
    if not body:
        return range(first, node.end_lineno + 1)
    return range(first, max(body[0].lineno, node.lineno + 1))


def never_run(path: Path, hits: set[int]) -> list[tuple[int, str]]:
    """(line, text) of each statement of the module at path with bytecode and no line in hits."""
    source = path.read_text(encoding="utf-8")
    executable = _code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    missed = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            own = executable.intersection(_own_lines(node))
            if own and not own & hits:
                missed.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(missed)


@contextmanager
def traced(files: list[Path]):
    """Record (file, line) of each line event in the given files, on every new thread too.

    Yields a dict from each file to the set of its lines that ran. The
    tracers in place before are restored on exit.
    """
    hits = {path: set() for path in files}
    tracers = {}

    def tracer(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            lines = hits.get(Path(name).resolve())
            tracers[name] = None if lines is None else tracer(lines)
        return tracers[name]

    saved = sys.gettrace(), threading.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        yield hits
    finally:
        sys.settrace(saved[0])
        threading.settrace(saved[1])


def main(argv: list[str]) -> int:
    src = str(ROOT / "src")
    sys.path.insert(0, src)  # and for the CLI children that the tests start
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    files = sorted((ROOT / "src" / "fplab").rglob("*.py"))
    with traced(files) as hits:
        code = pytest.main(argv or [str(ROOT / "tests"), "-q", "--continue-on-collection-errors"])
    missed = 0
    for path in files:
        for line, text in never_run(path, hits[path]):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
            missed += 1
    print(f"{missed} statements never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
