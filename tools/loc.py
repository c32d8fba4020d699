"""Count code-only and physical lines of Python sources, by one rule.

A line is code when a token other than a comment, NL, NEWLINE, INDENT,
DEDENT or ENDMARKER spans it, and no string-expression statement (a
docstring, or any statement that is a bare string) spans it. Physical
lines are the file's newline count.

    python tools/loc.py [PATH ...]

Each PATH is a .py file or a directory searched for them recursively;
the default is src/fplab and tests. One line per PATH: code-only lines,
physical lines, PATH.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return len(lines)


def count(path: Path) -> tuple[int, int]:
    """(code-only, physical) lines of a .py file or of every .py file under a directory."""
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    code = physical = 0
    for f in files:
        source = f.read_text(encoding="utf-8")
        code += code_lines(source)
        physical += source.count("\n")
    return code, physical


def main(argv: list[str]) -> None:
    for arg in argv or ["src/fplab", "tests"]:
        code, physical = count(Path(arg))
        print(f"{code} code-only / {physical} physical  {arg}")


if __name__ == "__main__":
    main(sys.argv[1:])
