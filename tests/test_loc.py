import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "loc", Path(__file__).resolve().parents[1] / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

_SNIPPET = '''"""A module docstring
over two lines."""

# a comment-only line
x = max(
    1,  # a trailing comment
    2,
)

y = """a string
used as a value"""


def f():
    """A function docstring."""
    return y
'''


def test_line_count_rule(tmp_path):
    # code: the call's four lines, the value string's two, def and return;
    # not the docstrings, the comment-only line or the blank lines
    assert loc.code_lines(_SNIPPET) == 8
    path = tmp_path / "snippet.py"
    path.write_text(_SNIPPET, encoding="utf-8")
    assert loc.count(path) == (8, 16)
    assert loc.count(tmp_path) == (8, 16)
