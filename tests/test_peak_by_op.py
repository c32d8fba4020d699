import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "peak_by_op", Path(__file__).resolve().parents[1] / "tools" / "peak_by_op.py")
peak_by_op = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(peak_by_op)


def test_peaks_follow_the_steps_of_each_pass_and_never_fall(tmp_path):
    workload = peak_by_op.workloads.TkExact(primes=(101,))
    steps = list(peak_by_op.probe(workload, 1, 2, str(tmp_path)))
    assert [step for step, _ in steps] == ["setup", "0.tk_p101", "0.check",
                                           "1.tk_p101", "1.check"]
    peaks = [peak for _, peak in steps]
    assert 0 < peaks[0] and peaks == sorted(peaks)
