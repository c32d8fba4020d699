import importlib.util
import sys
import threading
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "stmt_coverage", Path(__file__).resolve().parents[1] / "tools" / "stmt_coverage.py")
stmt_coverage = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(stmt_coverage)

_TOY = '''"""A toy module."""
import functools


def sign(x):
    if x < 0:
        return -1
    return 1 if x else 0


@functools.cache
def never(
        x):
    raise RuntimeError(
        f"not called with {x}")
'''


def test_statements_that_never_ran(tmp_path):
    path = (tmp_path / "toy.py").resolve()
    path.write_text(_TOY, encoding="utf-8")
    before = sys.gettrace()
    with stmt_coverage.traced([path]) as hits:
        spec = importlib.util.spec_from_file_location("toy", path)
        toy = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(toy)
        toy.sign(5)
    assert sys.gettrace() is before
    # the import ran both headers; sign(5) skips the negative branch
    assert stmt_coverage.never_run(path, hits[path]) == [
        (7, "return -1"), (14, "raise RuntimeError(")]
    # a thread started under the trace is traced too
    with stmt_coverage.traced([path]) as hits:
        worker = threading.Thread(target=toy.sign, args=(-1,))
        worker.start()
        worker.join()
    assert 7 in hits[path] and 8 not in hits[path]
