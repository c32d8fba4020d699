"""Spans around fplab's public functions, recorded from outside the package.

`Tracer.installed()` replaces each function in TRACED in every fplab module
namespace that binds it (and patches methods on their class), records one
span per call, and puts the originals back on exit. Spans stay in memory
until the caller writes them out with `write_jsonl`.

A span is (id, parent, op, name, start_ns, end_ns, counts). `parent` is the
enclosing traced call on the same thread; a call made on a worker thread with
no open span of its own is parented to the innermost span open on the thread
that installed the tracer (that is how `run_sweep` reaches its thread pool).
Times come from `perf_counter_ns`, which is CLOCK_MONOTONIC on Linux, so
spans written by child processes line up with the parent's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    op: str | None
    name: str
    start_ns: int
    end_ns: int
    counts: dict | None


def _elements(args, kwargs, result, originals):
    return {"elements": len(result)}


def _subset_elements(args, kwargs, result, originals):
    return {"elements": result.M}


def _vector_pairs(args, kwargs, result, originals):
    return {"pairs": result.total}  # the vector's mass is checked to equal H*M


def _report_pairs(args, kwargs, result, originals):
    return {"pairs": result.H * result.M}


def _plan_strategy(args, kwargs, result, originals):
    return {"plan." + result.strategy: 1}


def _rows(args, kwargs, result, originals):
    return {"rows": len(result)}


def _kfold_work(args, kwargs, result, originals):
    """Transform count and bytes, computed from the public plan, not measured.

    One transform per factor plus the inverse, per NTT modulus; each is
    modelled as a radix-2 pass that reads and writes the whole length-N
    64-bit array once per stage, 16 * N * log2(N) bytes.
    """
    vectors = args[0]
    plan = args[1] if len(args) > 1 else kwargs.get("plan")
    if plan is None:
        plan = originals["convolve.plan_convolution"](
            vectors[0].p, [v.total for v in vectors], budget=1 << 62)
    n = plan.fft_length
    if plan.strategy == "direct":
        transforms = 0
    else:
        transforms = (len(vectors) + 1) * max(1, len(plan.moduli))
    return {"fft_length": n, "moduli": len(plan.moduli), "transforms": transforms,
            "bytes_computed": transforms * 16 * n * max(0, n.bit_length() - 1)}


# "<module>.<function>" or "<module>.<Class>.<method>" -> work counter.
# "modfield.PrimeContext" wraps the constructor.
TRACED = {
    "modfield.PrimeContext": None,
    "modfield.build_dlog_table": None,
    "modfield.batch_inverse": _elements,
    "modfield.recip_power_values": _elements,
    "sets.random_subset": _subset_elements,
    "energy.count_vector_product": _vector_pairs,
    "energy.recip_power_counts": None,
    "energy.energy_J": None,
    "energy.energy_Js": None,
    "energy.additive_energy_recip": None,
    "prodset.product_set": _report_pairs,
    "prodset.ratio_set": _report_pairs,
    "convolve.plan_convolution": _plan_strategy,
    "convolve.k_fold_count": _kfold_work,
    "convolve.length_p_transform": None,
    "spectra.complete_sum_table": None,
    "spectra.kloosterman_frac_sum": None,
    "spectra.char_spectrum": None,
    "spectra.burgess_ratio": None,
    "tkcount.tk_experiment": None,
    "verify.run_sweep": _rows,
    "verify.ReportRow.csv_cells": None,
    "verify.ReportRow.json_obj": None,
    "cli.main": None,
}


def _resolve(name):
    """(owner, attribute, original) for a TRACED name."""
    parts = name.split(".")
    owner = importlib.import_module("fplab." + parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if isinstance(getattr(owner, attr), type):
        return getattr(owner, attr), "__init__", getattr(owner, attr).__init__
    return owner, attr, getattr(owner, attr)


class Tracer:
    """In-memory span recorder; `op` labels the spans of the current operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        self.originals: dict = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            home = tracer._home_stack
            parent = stack[-1] if stack else (home[-1] if home else None)
            sid = next(tracer._ids)
            stack.append(sid)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                counts = None
                if counter is not None and result is not None:
                    counts = counter(args, kwargs, result, tracer.originals)
                tracer.spans.append(Span(sid, parent, tracer.op, name, start, end, counts))

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TRACED function in every fplab namespace; restore on exit."""
        patches = []
        try:
            for name, counter in TRACED.items():
                owner, attr, original = _resolve(name)
                self.originals[name] = original
                wrapper = self._wrap(name, original, counter)
                if attr == "__init__" or isinstance(owner, type):
                    patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for mod_name, module in list(sys.modules.items()):
                    if mod_name != "fplab" and not mod_name.startswith("fplab."):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, key, original))
                            setattr(module, key, wrapper)
            self._home_stack = self._stack()
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)
            self._home_stack = []

    def record(self, name, start_ns, end_ns, parent=None):
        """Add a span timed by the caller (e.g. an import)."""
        sid = next(self._ids)
        self.spans.append(Span(sid, parent, self.op, name, start_ns, end_ns, None))
        return sid

    def merge_jsonl(self, path):
        """Append spans a child process wrote, with ids shifted to stay unique."""
        with open(path, encoding="ascii") as fh:
            loaded = [Span(**json.loads(line)) for line in fh if line.strip()]
        offset = next(self._ids)
        top = offset
        for span in loaded:
            parent = None if span.parent is None else span.parent + offset
            self.spans.append(span._replace(id=span.id + offset, parent=parent))
            top = max(top, span.id + offset)
        self._ids = itertools.count(top + 1)


def write_jsonl(spans, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for span in spans:
            fh.write(json.dumps(span._asdict()) + "\n")


def covered_ns(intervals, lo=None, hi=None) -> int:
    """Length of the union of [start, end) intervals, clipped to [lo, hi)."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if lo is not None:
            start = max(start, lo)
        if hi is not None:
            end = min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_ns(spans) -> dict[int, int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start_ns, span.end_ns))
    return {span.id: (span.end_ns - span.start_ns)
            - covered_ns(children.get(span.id, ()), span.start_ns, span.end_ns)
            for span in spans}


def layer_totals(spans) -> dict[str, dict]:
    """Per span name: calls, time_s, self_s and summed work counts.

    `fft_length` and `moduli` are maxima, not sums.
    """
    own = self_ns(spans)
    out: dict[str, dict] = {}
    for span in spans:
        row = out.setdefault(span.name, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["time_s"] += (span.end_ns - span.start_ns) / 1e9
        row["self_s"] += own[span.id] / 1e9
        for key, value in (span.counts or {}).items():
            if key in ("fft_length", "moduli"):
                row[key] = max(row.get(key, 0), value)
            else:
                row[key] = row.get(key, 0) + value
    return out
