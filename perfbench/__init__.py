"""Benchmark for fplab: four seeded workloads, end-to-end and per-layer metrics.

Run one workload with `python3 perfbench/run.py --workload tk_exact`; see
RATIONALE.md for why each workload exists and what each metric means.
"""
