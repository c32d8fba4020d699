"""The heap policy of fplab.convolve.

The policy switches once per process, so each case that lets it switch
runs in a child process of its own. glibc alone has the thresholds it sets.
"""

import ctypes
import logging
import os
import platform
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

import fplab
from fplab import convolve

_GLIBC = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                            reason="sets glibc's malloc thresholds")

# Two distinct sets of H = ceil(p^0.7) = 15849 dlog positions at p = 1000003:
# their product over Z_(p-1) runs as one packed real FFT product at
# C/2 = 2^20, as product_pairs' energies and product sets do.
_PACKED = """
import logging, resource, sys
import numpy as np
from fplab.convolve import k_fold_count
from fplab.countvec import CountVector

logging.basicConfig(level=logging.INFO, stream=sys.stdout, format="%(name)s: %(message)s")

rng, vecs = np.random.default_rng(7), []
for _ in range(2):
    v = np.zeros(1000002, dtype=np.int64)
    v[rng.choice(v.size, 15849, replace=False)] = 1
    vecs.append(CountVector(v))

def packed():
    return k_fold_count(vecs)

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
"""


def _child(script: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(Path(fplab.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return done.stdout.splitlines()


def _switches(lines: list[str]) -> int:
    return sum(line.startswith("fplab.convolve: heap held") for line in lines)


@_GLIBC
def test_a_warm_large_transform_takes_its_scratch_from_the_heap():
    # the second of two identical packed products at p = 1000003. Without
    # the policy each of its three FFTs at 2^20 maps and faults in about
    # 4064 pages of scratch: the call took 17005-17006 faults in four
    # children. CALIBRATED: the first verified run with it took 0 faults
    # (0-1 in eight); the ceiling of 1,000 is that run with room for the
    # interpreter's own allocations
    lines = _child(_PACKED + """
packed()
before = faults()
packed()
print("faults", faults() - before)
""")
    (faults,) = (int(line.split()[1]) for line in lines if line.startswith("faults"))
    assert faults < 1000


@_GLIBC
def test_only_a_large_transform_switches_the_policy_once():
    # T_6 at p = 10007 transforms at 2^14: no switch. The first packed
    # product at p = 1000003 switches it, and the next does not again
    lines = _child(_PACKED + """
import math
from fplab import sets, tkcount
from fplab.modfield import PrimeContext
c = PrimeContext(10007)
h = math.ceil(c.p ** 0.55)
factors = [(sets.random_subset(h, sets.mix_seed(1, 1, c.p, i), c), 0) for i in range(6)]
tkcount.tk_experiment(6, factors, h, 1, c, epsilon=0.02)
print("--")
packed()
print("--")
packed()
""")
    small, first, second = "\n".join(lines).split("--")
    assert [_switches(part.splitlines()) for part in (small, first, second)] == [0, 1, 0]
    assert "float convolution at length 2097152" in first  # the chain's own line is kept


def _not_glibc(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("lack", ["not-glibc", "no-mallopt"])
def test_without_glibc_mallopt_nothing_is_set(monkeypatch, caplog, lack):
    # a C library that is not glibc, or one without mallopt: the switch is
    # spent, nothing is set or logged, and _libc, which the join's trim
    # reads, stays None
    monkeypatch.setattr(convolve, "_heap_switched", False)
    monkeypatch.setattr(convolve, "_libc", None)
    if lack == "not-glibc":
        monkeypatch.setattr(convolve.os, "confstr", _not_glibc)
    else:
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
    with caplog.at_level(logging.INFO, logger="fplab.convolve"):
        convolve._hold_heap(1 << 30)
    assert convolve._heap_switched and convolve._libc is None and caplog.records == []


def test_a_worker_thread_does_not_switch_the_policy(monkeypatch, caplog):
    # a sweep's worker threads each allocate from a glibc arena of their
    # own, which would keep its freed scratch once the thresholds are held
    monkeypatch.setattr(convolve, "_heap_switched", False)
    monkeypatch.setattr(convolve, "_libc", None)
    with caplog.at_level(logging.INFO, logger="fplab.convolve"):
        worker = threading.Thread(target=convolve._hold_heap, args=(1 << 30,))
        worker.start()
        worker.join()
    assert not convolve._heap_switched and caplog.records == []
