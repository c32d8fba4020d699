"""Command-line front end: one subcommand per computation, reproducible output.

Exit codes: 0 success, 2 usage/domain error, 3 budget refusal. All floats
are serialized at 12 significant digits so identical invocations produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from dataclasses import replace

import numpy as np

from . import convolve, energy, envelopes, prodset, spectra, tkcount, verify
from .errors import DEFAULT_BUDGET, BudgetError, DomainError, SetFileError
from .modfield import PrimeContext, batch_inverse, mod_pow
from .sets import (ResidueSet, initial_interval, mix_seed, random_subset,
                   residue_set, set_from_file, shifted_interval)
from .verify import Record, fmt_number

_TK_VALUE_CAP = 128  # emit full T_k vectors only for p at or below this


class _Parser(argparse.ArgumentParser):
    """Usage errors become one-line DomainErrors (exit 2), with no usage block."""

    def error(self, message):
        raise DomainError(message)


def _epsilon(text: str) -> float:
    """--eps: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"needs a finite number >= 0, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fplab",
        description="Counting problems and exponential sums in prime fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, needs_set=True):
        sp.add_argument("--p", type=int, required=True, help="odd prime modulus")
        sp.add_argument("--H", type=int, required=True, help="interval length")
        sp.add_argument("--L", type=int, default=0, help="interval shift (default 0)")
        sp.add_argument("--eps", type=_epsilon, default=0.05, help="hypothesis epsilon")
        sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        sp.add_argument("--out", default="", help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        if needs_set:
            sp.add_argument("--set", required=True, dest="set_spec",
                            help="file:PATH or random:M")
            sp.add_argument("--seed", type=int, default=None,
                            help="required with random sets, forbidden with file sets")

    sp = sub.add_parser("prodset", help="product/ratio set cardinality")
    common(sp)
    sp.add_argument("--ratio", action="store_true", help="ratio set m/h instead of h*m")

    sp = sub.add_parser("energy", help="pair/triple coincidence counts")
    common(sp)
    sp.add_argument("--kind", choices=("J", "Js", "R", "recip"), default="Js")
    sp.add_argument("--s", type=int, default=1)
    sp.add_argument("--ell", type=int, default=2)
    sp.add_argument("--Klen", type=int, default=1,
                    help="second interval length for kind R")

    sp = sub.add_parser("expsum", help="absolute fractional exponential sum")
    common(sp)
    sp.add_argument("--s", type=int, default=1)
    sp.add_argument("--a", type=int, required=True, help="sum multiplier")
    sp.add_argument("--ell", type=int, default=2, help="envelope parameter")

    sp = sub.add_parser("tk", help="k-fold congruence count deviations")
    common(sp)
    sp.add_argument("--s", type=int, default=1)
    sp.add_argument("--k", type=int, default=6)
    sp.add_argument("--lambdas", default="",
                    help="comma-separated residues to report deviations at")

    sp = sub.add_parser("sweep", help="run a parameter sweep from a config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None, help="override config output path")
    sp.add_argument("--format", choices=("csv", "jsonl"), default=None)

    sub.add_parser("selftest", help="run the embedded small-instance oracle suite")
    return parser


def _load_set(spec: str, seed, ctx: PrimeContext, factor_index: int | None = None) -> ResidueSet:
    if spec.startswith("file:"):
        if seed is not None:
            raise DomainError("--seed is meaningless with --set file:... (remove it)")
        return set_from_file(spec[5:], ctx)
    if spec.startswith("random:"):
        if seed is None:
            raise DomainError("--set random:M requires --seed")
        try:
            m = int(spec[7:])
        except ValueError:
            raise DomainError(f"--set random:M needs an integer size, got {spec!r}") from None
        eff = seed if factor_index is None else mix_seed(seed, factor_index)
        return random_subset(m, eff, ctx)
    raise DomainError(f"--set must be file:PATH or random:M, got {spec!r}")


def _cmd_prodset(args) -> Record:
    ctx = PrimeContext.of(args.p)
    mset = _load_set(args.set_spec, args.seed, ctx)
    interval = shifted_interval(args.L, args.H, ctx)
    fn = prodset.ratio_set if args.ratio else prodset.product_set
    rep = fn(interval, mset, ctx, epsilon=args.eps, budget=args.budget)
    return Record(
        command="ratio" if args.ratio else "prodset",
        p=rep.p, H=rep.H, L=interval.L, M=rep.M, size=rep.size, missing=rep.missing,
        branch=rep.hypothesis_branch, epsilon=rep.epsilon)


def _cmd_energy(args) -> Record:
    ctx = PrimeContext.of(args.p)
    mset = _load_set(args.set_spec, args.seed, ctx)
    base = initial_interval(args.H, ctx)
    if args.kind == "J":
        value = energy.energy_J(base, mset, ctx, args.budget)
        envelope = envelopes.pair_energy_envelope(args.H, mset.M, args.p)
    elif args.kind == "Js":
        value = energy.energy_Js(args.L, base, mset, args.s, ctx, args.budget)
        envelope = envelopes.pair_energy_envelope(args.H, mset.M, args.p)
    elif args.kind == "R":
        value = energy.triple_R(args.H, args.Klen, mset, ctx, args.budget)
        envelope = float(envelopes.triple_main_term(args.H, args.Klen, mset.M, args.p))
    else:
        x = shifted_interval(args.L, args.H, ctx, require_denominator_safe=True)
        value = energy.additive_energy_recip(x, args.s, args.ell, ctx, args.budget)
        envelope = envelopes.recip_energy_envelope(args.H, args.p, args.ell)
    return Record(
        command="energy", kind=args.kind, p=args.p, H=args.H, L=args.L, s=args.s,
        ell=args.ell, Klen=args.Klen, M=mset.M, value=value, envelope=envelope,
        ratio=value / envelope)


def _cmd_expsum(args) -> Record:
    ctx = PrimeContext.of(args.p)
    mset = _load_set(args.set_spec, args.seed, ctx)
    x = shifted_interval(args.L, args.H, ctx, require_denominator_safe=True)
    res = spectra.kloosterman_frac_sum(args.a, mset, x, args.s, ctx, ell=args.ell)
    return Record(
        command="expsum", p=args.p, H=args.H, L=args.L, s=args.s, a=args.a,
        ell=args.ell, M=mset.M, value=res.value, envelope=res.envelope,
        trivial=res.trivial_bound, ratio=res.value / res.envelope)


def _cmd_tk(args) -> Record:
    ctx = PrimeContext.of(args.p)
    factors = []
    for i in range(args.k):
        idx = i if args.set_spec.startswith("random:") else None
        factors.append((_load_set(args.set_spec, args.seed, ctx, factor_index=idx), args.L))
    try:
        lambdas = [int(t) % args.p for t in args.lambdas.split(",") if t.strip()]
    except ValueError:
        raise DomainError(f"--lambdas needs comma-separated integers, "
                          f"got {args.lambdas!r}") from None
    rep = tkcount.tk_experiment(args.k, factors, args.H, args.s, ctx,
                                epsilon=args.eps, budget=args.budget,
                                sample_lambdas=lambdas)
    return Record(
        command="tk", k=rep.k, p=rep.p, H=rep.H, L=args.L, s=rep.s,
        M=rep.set_sizes[0], epsilon=rep.epsilon,
        main_term=f"{rep.main_term.numerator}/{rep.main_term.denominator}",
        total=rep.total, max_abs_dev=rep.max_abs_dev, mean_abs_dev=rep.mean_abs_dev,
        flags=rep.flag_bits,
        dev_at=";".join(f"{lam}={fmt_number(d)}" for lam, d in rep.dev_at.items()),
        t_values=(";".join(str(v) for v in rep.counts.as_list())
                  if args.p <= _TK_VALUE_CAP else ""))


def _out(path: str):
    """The report sink: the file at path, or stdout when path is empty."""
    if path:
        return open(path, "w", encoding="ascii", newline="")
    return contextlib.nullcontext(sys.stdout)


def _report(args) -> int:
    """Run a report command and write its report (one record, or a sweep)."""
    if args.command == "sweep":
        with open(args.config, "r", encoding="ascii") as fh:
            cfg = verify.parse_config(fh.read())
        cfg = replace(cfg, out_format=args.format or cfg.out_format,
                      out_path=cfg.out_path if args.out is None else args.out)
        with _out(cfg.out_path) as sink:
            verify.run_sweep(cfg, sink)
    else:
        record = _RECORDS[args.command](args)
        with _out(args.out) as sink:
            verify.write_report([record], sink, args.format, tuple(record))
    return 0


def _selftest_checks():
    ctx7 = PrimeContext.of(7)
    ctx101 = PrimeContext.of(101)

    def check_modfield():
        vals = list(range(1, 101))
        inv = batch_inverse(vals, ctx101)
        assert inv == [mod_pow(v, -1, ctx101) for v in vals]
        return "batch inverse of 100 units matches mod_pow"

    def check_sets():
        a = random_subset(10, 42, ctx101)
        b = random_subset(10, 42, ctx101)
        assert a.elems.tolist() == b.elems.tolist()
        return "seeded subset generation is reproducible"

    def check_prodset():
        iv = initial_interval(2, ctx7)
        ms = residue_set([1, 3], ctx7)
        rep = prodset.product_set(iv, ms, ctx7)
        naive = {h * m % 7 for h in (1, 2) for m in (1, 3)}
        assert rep.size == len(naive) == 4
        return "occupancy size matches hash-set oracle"

    def check_energy():
        iv = initial_interval(2, ctx7)
        ms = residue_set([1, 3], ctx7)
        brute = sum(1 for h1 in (1, 2) for h2 in (1, 2) for m1 in (1, 3)
                    for m2 in (1, 3) if h1 * m1 % 7 == h2 * m2 % 7)
        assert energy.energy_J(iv, ms, ctx7) == brute == 4
        return "pair energy matches quadruple enumeration"

    def check_convolve():
        from .countvec import CountVector
        u = CountVector(np.array([0, 1, 1], dtype=np.int64))
        w = convolve.cyclic_convolve(u, u)
        assert w.as_list() == [2, 1, 1]
        return "cyclic convolution matches pair enumeration"

    def check_spectra():
        iv = initial_interval(100, ctx101)
        table = spectra.complete_sum_table(iv, 1, ctx101)
        direct = sum(np.exp(2j * np.pi * (pow(x, 99, 101)) / 101) for x in range(1, 101))
        assert abs(table.W[1] - direct) < 1e-6
        return "complete-sum table matches direct evaluation"

    def check_tkcount():
        ctx3 = PrimeContext.of(3)
        ms = residue_set([1], ctx3)
        rep = tkcount.tk_experiment(6, [(ms, 0)] * 6, 2, 1, ctx3)
        assert rep.counts.as_list() == [22, 21, 21]
        return "6-fold count matches full enumeration"

    def check_verify():
        rows = [{"p": 10, "value": 1000, "skip_reason": ""},
                {"p": 100, "value": 1000000, "skip_reason": ""},
                {"p": 1000, "value": 1000000000, "skip_reason": ""}]
        slope, _, resid = verify.fit_exponent(rows, "p", "value")
        assert abs(slope - 3.0) < 1e-9 and resid < 1e-9
        return "exponent fit recovers a cubic trend"

    return [("modfield", check_modfield), ("sets", check_sets),
            ("prodset", check_prodset), ("energy", check_energy),
            ("convolve", check_convolve), ("spectra", check_spectra),
            ("tkcount", check_tkcount), ("verify", check_verify)]


def _cmd_selftest() -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            detail = check()
            print(f"ok {name}: {detail}")
        except Exception as exc:
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    if failures:
        print(f"{failures} selftest check(s) failed")
        return 1
    print("all selftest checks passed")
    return 0


_RECORDS = {
    "prodset": _cmd_prodset,
    "energy": _cmd_energy,
    "expsum": _cmd_expsum,
    "tk": _cmd_tk,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _cmd_selftest() if args.command == "selftest" else _report(args)
    except BudgetError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 3
    except (DomainError, SetFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError:  # the one text input: the sweep config or the set file
        path = args.config if args.command == "sweep" else args.set_spec[len("file:"):]
        print(f"error: {path}: not ASCII text", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
