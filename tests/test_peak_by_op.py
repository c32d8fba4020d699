import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "peak_by_op", Path(__file__).resolve().parents[1] / "tools" / "peak_by_op.py")
peak_by_op = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(peak_by_op)


def test_peaks_follow_the_steps_of_each_pass_and_never_fall(tmp_path):
    workload = peak_by_op.workloads.TkExact(primes=(101,))
    steps = list(peak_by_op.probe(workload, 1, 2, str(tmp_path)))
    assert [step[0] for step in steps] == ["setup", "0.tk_p101", "0.check",
                                           "1.tk_p101", "1.check"]
    peaks = [step[1] for step in steps]
    assert 0 < peaks[0] and peaks == sorted(peaks)
    # each step's minor page faults and system milliseconds
    counts = [value for step in steps for value in step[2:]]
    assert len(counts) == 2 * len(steps)
    assert all(type(value) is int and value >= 0 for value in counts)
