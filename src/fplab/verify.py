"""Sweep harness: run parameter grids, evaluate envelopes, fit trend exponents.

Configs are flat key = value text (documented in the README); reports are
CSV with a frozen column order, or an equivalent JSON-lines stream. Every
grid point is seeded deterministically from (config seed, grid index), so
identical configs reproduce byte-identical reports.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import energy, envelopes, prodset, spectra, tkcount
from .errors import DEFAULT_BUDGET, BudgetError, DomainError, ZeroInIntervalError
from .modfield import MAX_PRIME, PrimeContext, is_prime
from .sets import (SplitMix64, initial_interval, mix_seed, random_subset,
                   shifted_interval)

MEASURES = ("prodset", "ratio", "energy_j", "energy_js", "recip_energy",
            "kloosterman", "burgess", "tk")

CSV_COLUMNS = ("index", "measure", "p", "H", "M", "L", "s", "ell", "k",
               "epsilon", "seed", "value", "envelope", "ratio", "flags",
               "skip_reason")


def fmt_number(x) -> str:
    """Canonical text form: ints verbatim, floats at 12 significant digits."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def _number(kind, key: str, text: str):
    """kind(text) for kind int or float, floats finite; else a DomainError naming key."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or kind is float and not math.isfinite(value):
        raise DomainError(f"config key {key}: {text!r} is not "
                          f"{'an integer' if kind is int else 'a finite number'}")
    return value


@dataclass(frozen=True)
class SweepConfig:
    measure: str
    primes: tuple[int, ...]
    h_exps: tuple[float, ...]
    m_exps: tuple[float, ...] = (0.5,)
    s_list: tuple[int, ...] = (1,)
    ell_list: tuple[int, ...] = (2,)
    k: int = 6
    l_policy: str = "zero"          # zero | random | explicit:<int>
    epsilon: float = 0.05
    seed: int = 1
    budget: int = DEFAULT_BUDGET
    workers: int = 1
    out_format: str = "csv"         # csv | jsonl
    out_path: str = ""

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise DomainError(f"unknown measure {self.measure!r}; one of {MEASURES}")
        if self.out_format not in ("csv", "jsonl"):
            raise DomainError(f"format must be csv or jsonl, got {self.out_format!r}")
        if self.l_policy.startswith("explicit:"):
            _number(int, "l_policy", self.l_policy[len("explicit:"):])
        elif self.l_policy not in ("zero", "random"):
            raise DomainError(f"bad L policy {self.l_policy!r}")
        if not 0 <= self.epsilon < math.inf:
            raise DomainError(f"epsilon must be a finite number >= 0, got {self.epsilon!r}")
        for p in self.primes:
            if not is_prime(p) or p < 3:
                raise DomainError(f"{p} is not an odd prime")
            if p >= MAX_PRIME:  # refused before any row is written
                raise DomainError(f"p={p} exceeds the supported range (< 2^31)")


class _Record:
    """The one cell formatter and JSON normaliser of every report record.

    A subclass supplies items(): its (column, value) pairs in column order.
    """

    def csv_cells(self) -> list[str]:
        return [v if isinstance(v, str) else fmt_number(v) for _, v in self.items()]

    def json_obj(self) -> dict:
        obj = {}
        for name, v in self.items():
            if isinstance(v, float):
                v = float(format(v, ".12g"))
            elif isinstance(v, np.integer):
                v = int(v)
            obj[name] = v
        return obj


class Record(_Record, dict):
    """A CLI command's report record: column -> value, in column order."""


@dataclass(frozen=True)
class ReportRow(_Record):
    index: int
    measure: str
    p: int
    H: int | None = None
    M: int | None = None
    L: int | None = None
    s: int | None = None
    ell: int | None = None
    k: int | None = None
    epsilon: float | None = None
    seed: int | None = None
    value: float | int | None = None
    envelope: float | None = None
    ratio: float | None = None
    flags: str = ""
    skip_reason: str = ""

    def items(self) -> list[tuple[str, object]]:
        return [(name, getattr(self, name)) for name in CSV_COLUMNS]


def write_report(records, sink, out_format: str, columns=CSV_COLUMNS) -> None:
    """The one report writer: records to sink as CSV or as JSON lines.

    CSV starts with the header, also when there are no records, and quotes
    only cells that hold a comma, a quote or a line break. Any other
    out_format ("json" from the CLI, "jsonl" from sweeps) writes one JSON
    object per line. Each record is written as soon as `records` yields it.
    """
    if out_format == "csv":
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow(rec.csv_cells())
    else:
        for rec in records:
            sink.write(json.dumps(rec.json_obj()) + "\n")


def parse_config(text: str) -> SweepConfig:
    """Parse the flat key = value format ('#' starts a comment)."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line {lineno}: expected key = value, got {line!r}")
        key, val = line.split("=", 1)
        raw[key.strip().lower()] = val.strip()

    def one(kind, key, default):
        return _number(kind, key, raw[key]) if key in raw else default

    def many(kind, key, default):
        if key not in raw:
            return default
        return tuple(_number(kind, key, t) for t in raw[key].replace(",", " ").split())

    known = {"measure", "primes", "h_exp", "m_exp", "s", "ell", "k", "l_policy",
             "epsilon", "seed", "budget", "workers", "format", "out"}
    unknown = set(raw) - known
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    if "measure" not in raw or "primes" not in raw or "h_exp" not in raw:
        raise DomainError("config requires at least: measure, primes, h_exp")
    return SweepConfig(
        measure=raw["measure"],
        primes=many(int, "primes", ()),
        h_exps=many(float, "h_exp", ()),
        m_exps=many(float, "m_exp", (0.5,)),
        s_list=many(int, "s", (1,)),
        ell_list=many(int, "ell", (2,)),
        k=one(int, "k", 6),
        l_policy=raw.get("l_policy", "zero"),
        epsilon=one(float, "epsilon", 0.05),
        seed=one(int, "seed", 1),
        budget=one(int, "budget", DEFAULT_BUDGET),
        workers=one(int, "workers", 1),
        out_format=raw.get("format", "csv"),
        out_path=raw.get("out", ""),
    )


def _sized(p: int, exponent: float) -> int | None:
    """ceil(p^exponent); None when p^exponent overflows a float, far beyond the field."""
    try:
        return math.ceil(p ** exponent)
    except OverflowError:
        return None


def _draw_shift(policy: str, rng: SplitMix64, p: int, h: int) -> int:
    if policy == "zero":
        return 0
    if policy == "random":
        return rng.below(p - h)  # shifts in [0, p-h) never wrap through 0
    return int(policy.split(":", 1)[1])


def _run_point(cfg: SweepConfig, index: int, point) -> ReportRow:
    p, h_exp, m_exp, s, ell = point
    seed = mix_seed(cfg.seed, index)
    base = ReportRow(index=index, measure=cfg.measure, p=p, s=s, ell=ell,
                     k=cfg.k, epsilon=cfg.epsilon, seed=seed)
    h = _sized(p, h_exp)
    m = _sized(p, m_exp)
    if h is None or h > p - 1:
        return replace(base, H=h, skip_reason="h_exceeds_field")
    if m is None or m > p - 1:
        return replace(base, H=h, M=m, skip_reason="m_exceeds_field")
    ctx = PrimeContext.of(p)
    rng = SplitMix64(seed)
    set_seed = rng.next_u64()
    shift = _draw_shift(cfg.l_policy, rng, p, h)
    try:
        return _measure(cfg, base, ctx, h, m, shift, s, ell, set_seed, rng)
    except BudgetError:
        return replace(base, H=h, M=m, L=shift, skip_reason="budget_exceeded")
    except ZeroInIntervalError:
        return replace(base, H=h, M=m, L=shift, skip_reason="interval_covers_zero")
    except DomainError as exc:
        return replace(base, H=h, M=m, L=shift, skip_reason=f"domain:{exc}")
    except Exception as exc:  # a broken point must never abort the sweep
        return replace(base, H=h, M=m, L=shift, skip_reason=f"error:{type(exc).__name__}")


def _measure(cfg: SweepConfig, base: ReportRow, ctx: PrimeContext,
             h: int, m: int, shift: int, s: int, ell: int,
             set_seed: int, rng: SplitMix64) -> ReportRow:
    p = ctx.p
    measure = cfg.measure
    mset = None
    if measure != "burgess":
        mset = random_subset(m, set_seed, ctx)

    if measure in ("prodset", "ratio"):
        fn = prodset.product_set if measure == "prodset" else prodset.ratio_set
        rep = fn(initial_interval(h, ctx), mset, ctx,
                 epsilon=cfg.epsilon, budget=cfg.budget)
        return replace(base, H=h, M=m, L=0, value=rep.missing,
                       envelope=float(p), ratio=rep.missing / p,
                       flags=rep.hypothesis_branch)

    if measure == "energy_j":
        val = energy.energy_J(initial_interval(h, ctx), mset, ctx, cfg.budget)
        env = envelopes.pair_energy_envelope(h, m, p)
        return replace(base, H=h, M=m, L=0, value=val, envelope=env,
                       ratio=val / env)

    if measure == "energy_js":
        val = energy.energy_Js(shift, initial_interval(h, ctx), mset, s, ctx, cfg.budget)
        env = envelopes.pair_energy_envelope(h, m, p)
        return replace(base, H=h, M=m, L=shift, value=val, envelope=env,
                       ratio=val / env)

    if measure == "recip_energy":
        x = shifted_interval(shift, h, ctx, require_denominator_safe=True)
        val = energy.additive_energy_recip(x, s, ell, ctx, cfg.budget)
        env = envelopes.recip_energy_envelope(h, p, ell)
        return replace(base, H=h, M=m, L=shift, value=val, envelope=env,
                       ratio=val / env)

    if measure == "kloosterman":
        x = shifted_interval(shift, h, ctx, require_denominator_safe=True)
        a = 1 + rng.below(p - 1)
        res = spectra.kloosterman_frac_sum(a, mset, x, s, ctx, ell=ell)
        return replace(base, H=h, M=m, L=shift, value=res.value,
                       envelope=res.envelope, ratio=res.value / res.envelope)

    if measure == "burgess":
        env = envelopes.burgess_envelope(h, p)
        ratio = spectra.burgess_ratio(h, ctx)
        return replace(base, H=h, M=None, L=0, value=ratio * env,
                       envelope=env, ratio=ratio)

    # tk: k independently seeded factor sets, shifts drawn per factor
    factors = []
    for _ in range(cfg.k):
        factors.append((random_subset(m, rng.next_u64(), ctx),
                        _draw_shift(cfg.l_policy, rng, p, h)))
    rep = tkcount.tk_experiment(cfg.k, factors, h, s, ctx,
                                epsilon=cfg.epsilon, budget=cfg.budget)
    return replace(base, H=h, M=m, L=factors[0][1], value=rep.max_abs_dev,
                   envelope=1.0, ratio=rep.max_abs_dev,
                   flags=rep.flag_bits)


def _grid_rows(cfg: SweepConfig):
    """Every grid point's row, in grid order, computed on cfg.workers threads."""
    grid = list(enumerate(itertools.product(cfg.primes, cfg.h_exps, cfg.m_exps,
                                            cfg.s_list, cfg.ell_list)))
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            yield from pool.map(lambda args: _run_point(cfg, *args), grid)
    else:
        for index, point in grid:
            yield _run_point(cfg, index, point)


def run_sweep(cfg: SweepConfig, sink=None) -> list[ReportRow]:
    """Execute every grid point; write each row to sink as it is done, if given.

    The grid is the cartesian product primes x h_exp x m_exp x s x ell,
    in that nesting order; rows are ordered by grid index regardless of
    worker scheduling.
    """
    if sink is None:
        return list(_grid_rows(cfg))
    rows: list[ReportRow] = []

    def streamed():
        for row in _grid_rows(cfg):
            rows.append(row)
            yield row

    write_report(streamed(), sink, cfg.out_format)
    return rows


def fit_exponent(rows, x_field: str, y_field: str) -> tuple[float, float, float]:
    """Least-squares slope/intercept/RMS-residual of log(y) against log(x).

    Rows may be ReportRow instances or plain dicts; skipped rows and
    non-positive values are excluded.
    """
    xs, ys = [], []
    for row in rows:
        row = dict(row.items())
        if row.get("skip_reason"):
            continue
        x, y = row.get(x_field), row.get(y_field)
        if x is None or y is None or x <= 0 or y <= 0:
            continue
        xs.append(math.log(float(x)))
        ys.append(math.log(float(y)))
    if len(xs) < 3:
        raise DomainError(f"exponent fit needs >= 3 usable rows, got {len(xs)}")
    if max(xs) - min(xs) < 1e-12:
        raise DomainError("exponent fit is degenerate: x is constant")
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * np.asarray(xs) + intercept
    residual = float(np.sqrt(np.mean((np.asarray(ys) - pred) ** 2)))
    return float(slope), float(intercept), residual
