"""Command-line front end: one subcommand per computation, reproducible output.

Exit codes: 0 success, 2 usage/domain error, 3 budget refusal (an array
the process cannot allocate included). All floats are serialized at 12
significant digits so identical invocations produce byte-identical
reports.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import replace

from . import convolve, prodset, spectra, tkcount, verify
from .errors import DEFAULT_BUDGET, BudgetError, DomainError, SetFileError, check_epsilon
from .modfield import PrimeContext
from .sets import ResidueSet, mix_seed, random_subset, set_from_file, shifted_interval
from .verify import Record, fmt_number

_TK_VALUE_CAP = 128  # emit full T_k vectors only for p at or below this
_DEFAULTS = {"L": 0, "s": 1, "ell": 2, "Klen": 1}
# the options each energy kind does not read: a value but the default is refused
_ENERGY_IGNORES = {"J": ("L", "s", "ell", "Klen"), "Js": ("ell", "Klen"),
                   "R": ("L", "s", "ell"), "recip": ("Klen",)}


class _Parser(argparse.ArgumentParser):
    """Usage errors become one-line DomainErrors (exit 2), with no usage block."""

    def error(self, message):
        raise DomainError(message)


def _eps(text: str) -> float:
    """--eps, read through errors.check_epsilon; argparse shows the refusal as one line."""
    try:
        return check_epsilon(float(text))
    except ValueError:  # not a number, or check_epsilon's DomainError
        raise argparse.ArgumentTypeError(f"needs a finite number >= 0, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fplab",
        description="Counting problems and exponential sums in prime fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):  # the flags every report command reads
        sp.add_argument("--p", type=int, required=True, help="odd prime modulus")
        sp.add_argument("--H", type=int, required=True, help="interval length")
        sp.add_argument("--L", type=int, default=_DEFAULTS["L"], help="interval shift (default 0)")
        sp.add_argument("--out", default="", help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--set", required=True, dest="set_spec", help="file:PATH or random:M")
        sp.add_argument("--seed", type=int, default=None,
                        help="required with random sets, forbidden with file sets")

    sp = sub.add_parser("prodset", help="product/ratio set cardinality")
    common(sp)
    sp.add_argument("--eps", type=_eps, default=0.05, help="hypothesis epsilon")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--ratio", action="store_true", help="ratio set m/h instead of h*m")

    sp = sub.add_parser("energy", help="pair/triple coincidence counts")
    common(sp)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--kind", choices=tuple(_ENERGY_IGNORES), default="Js")
    sp.add_argument("--s", type=int, default=_DEFAULTS["s"])
    sp.add_argument("--ell", type=int, default=_DEFAULTS["ell"])
    sp.add_argument("--Klen", type=int, default=_DEFAULTS["Klen"],
                    help="second interval length for kind R")

    sp = sub.add_parser("expsum", help="absolute fractional exponential sum")
    common(sp)
    sp.add_argument("--s", type=int, default=_DEFAULTS["s"])
    sp.add_argument("--a", type=int, required=True, help="sum multiplier")
    sp.add_argument("--ell", type=int, default=_DEFAULTS["ell"], help="envelope parameter")

    sp = sub.add_parser("tk", help="k-fold congruence count deviations")
    common(sp)
    sp.add_argument("--eps", type=_eps, default=0.05, help="hypothesis epsilon")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--s", type=int, default=_DEFAULTS["s"])
    sp.add_argument("--k", type=int, default=6)
    sp.add_argument("--lambdas", default="",
                    help="comma-separated residues to report deviations at")

    sp = sub.add_parser("sweep", help="run a parameter sweep from a config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None, help="override config output path")
    sp.add_argument("--format", choices=("csv", "jsonl"), default=None)

    sub.add_parser("selftest", help="measure the installed FFT's error against the certificate")
    return parser


def _load_set(spec: str, seed, ctx: PrimeContext, factor_index: int | None = None) -> ResidueSet:
    if spec.startswith("file:"):
        if seed is not None:
            raise DomainError("--seed is meaningless with --set file:... (remove it)")
        return set_from_file(spec[5:], ctx)
    if spec.startswith("random:"):
        eff = seed if factor_index is None else mix_seed(seed, factor_index)
        return random_subset(_random_size(spec, seed), eff, ctx)
    raise DomainError(f"--set must be file:PATH or random:M, got {spec!r}")


def _random_size(spec: str, seed) -> int:
    """M of `--set random:M`, which needs a seed."""
    if seed is None:
        raise DomainError("--set random:M requires --seed")
    try:
        return int(spec[7:])
    except ValueError:
        raise DomainError(f"--set random:M needs an integer size, got {spec!r}") from None


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
    ignored = [f"--{name}" for name in _ENERGY_IGNORES[args.kind]
               if getattr(args, name) != _DEFAULTS[name]]
    if ignored:
        raise DomainError(f"--kind {args.kind} ignores {', '.join(ignored)}")
    ctx = PrimeContext.of(args.p)
    mset = _load_set(args.set_spec, args.seed, ctx)
    return Record(
        command="energy", kind=args.kind, p=args.p, H=args.H, L=args.L, s=args.s,
        ell=args.ell, Klen=args.Klen, M=mset.M,
        **verify.energy_values(args.kind, ctx, mset, args.H, args.L, args.s, args.ell,
                               args.budget, args.Klen))


def _cmd_expsum(args) -> Record:
    ctx = PrimeContext.of(args.p)
    mset = _load_set(args.set_spec, args.seed, ctx)
    x = shifted_interval(args.L, args.H, ctx)
    res = spectra.kloosterman_frac_sum(args.a, mset, x, args.s, ctx, ell=args.ell)
    return Record(
        command="expsum", p=args.p, H=args.H, L=args.L, s=args.s, a=args.a,
        ell=args.ell, M=mset.M, value=res.value, envelope=res.envelope,
        trivial=res.trivial_bound, ratio=res.value / res.envelope)


def _cmd_tk(args) -> Record:
    ctx = PrimeContext.of(args.p)
    if args.set_spec.startswith("random:"):  # refused, if at all, before any set is drawn
        tkcount.check_tk_budget(args.k, args.H, _random_size(args.set_spec, args.seed), args.p,
                                args.budget)
        msets = [_load_set(args.set_spec, args.seed, ctx, factor_index=i) for i in range(args.k)]
    else:  # one set M for every factor, read once
        msets = [_load_set(args.set_spec, args.seed, ctx)] * args.k
    factors = [(mset, args.L) for mset in msets]
    try:
        lambdas = [int(t) for t in args.lambdas.split(",") if t.strip()]
    except ValueError:
        raise DomainError(f"--lambdas needs comma-separated integers, "
                          f"got {args.lambdas!r}") from None
    rep = tkcount.tk_experiment(args.k, factors, args.H, args.s, ctx,
                                epsilon=args.eps, budget=args.budget,
                                sample_lambdas=lambdas)
    return Record(
        command="tk", k=rep.k, p=rep.p, H=rep.H, L=args.L, s=rep.s,
        M=rep.M, epsilon=rep.epsilon,
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


def _cmd_selftest() -> int:
    """One line per length of convolve.fft_error_ratios; a ratio that reaches 1 fails (exit 1)."""
    failed = False
    for size, phase, packed in convolve.fft_error_ratios():
        ok = phase < 1 and packed < 1
        failed = failed or not ok
        print(f"{'ok' if ok else 'FAIL'} C=2^{size.bit_length() - 1}: worst FFT error over "
              f"Percival's bound {phase:.3g} (phase pair), {packed:.3g} (packed)")
    if failed:
        print("an FFT product erred beyond Percival's bound")
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
    except MemoryError as exc:  # no route prices the bytes of its arrays before allocating
        print(f"budget refusal: out of memory: {exc}", file=sys.stderr)
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
