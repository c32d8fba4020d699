"""The benchmark's four workloads: seeded inputs, timed operations, output checks.

A workload builds everything it needs in `setup` (the part `setup_s` times:
importing fplab, constructing PrimeContexts, generating the seeded inputs).
`ops` lists the operations of one pass; every pass of a run repeats the same
inputs on a PrimeContext of its own, so each pass builds its own dlog and
phase tables, and the runner drops them once the pass is checked. The
transform tables that fplab.convolve caches per module outlive a pass, so
only pass 0 builds those.
`summary` reduces an output to the values recorded for the default seed, and
`check` tests identities that hold for every seed. Both run outside the timed
phase. Every fplab call goes through a module attribute (`energy.energy_J`,
not a name imported here), so the span wrappers of a traced run see it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from fplab import energy, prodset, sets, spectra, tkcount
from fplab.modfield import PrimeContext

_HERE = os.path.dirname(os.path.abspath(__file__))
CLI_CHILD = os.path.join(_HERE, "cli_child.py")
SAMPLES = 8          # spectrum entries checked against direct summation
SPECTRUM_TOL = 1e-6  # absolute, per sampled entry
FLOAT_REL_TOL = 1e-9


@dataclass
class Op:
    """One timed operation; `call(tracer)` returns its output."""

    name: str
    call: Callable


def _rng(seed: int, *indices: int) -> sets.SplitMix64:
    return sets.SplitMix64(sets.mix_seed(seed, *indices))


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _energy_problems(value: int, h: int, m: int, p: int) -> list[str]:
    """Pair-energy identities: N <= E <= N*min(H, M) and E >= N^2/(p-1), N = H*M."""
    n = h * m
    if not max(n, _ceil_div(n * n, p - 1)) <= value <= n * min(h, m):
        return [f"energy {value} outside [max(N, N^2/(p-1)), N*min(H,M)] for N={n}"]
    return []


def _size_problems(size: int, h: int, m: int, p: int, pair_energy=None) -> list[str]:
    """max(H, M) <= |product set| <= min(p-1, H*M), and |set| * E >= (H*M)^2."""
    out = []
    if not max(h, m) <= size <= min(p - 1, h * m):
        out.append(f"size {size} outside [max(H,M), min(p-1,H*M)]")
    if pair_energy is not None and size * pair_energy < (h * m) ** 2:
        out.append(f"size {size} * energy {pair_energy} < (H*M)^2 (Cauchy-Schwarz)")
    return out


def _close(a: float, b: float, rel: float = FLOAT_REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


# ---------------------------------------------------------------------------
# tk_exact: the acceptance T_k trend fixture, exact NTT route


class TkExact:
    name = "tk_exact"
    nominal_pass_s = 9.5
    children = False
    K = 6

    def __init__(self, primes=(10007, 30011, 100003)):
        self.primes = tuple(primes)

    def setup(self, seed, passes, workdir):
        ctxs = [{p: PrimeContext(p) for p in self.primes} for _ in range(passes)]
        inputs = {}
        for p in self.primes:
            h = math.ceil(p ** 0.55)
            factors = [(sets.random_subset(h, sets.mix_seed(seed, 1, p, i), ctxs[0][p]), 0)
                       for i in range(self.K)]
            inputs[p] = (h, factors)
        return {"ctxs": ctxs, "inputs": inputs}

    def ops(self, state, index):
        out = []
        for p in self.primes:
            h, factors = state["inputs"][p]
            ctx = state["ctxs"][index][p]
            out.append(Op(f"tk_p{p}", lambda tracer, h=h, f=factors, c=ctx:
                          tkcount.tk_experiment(self.K, f, h, 1, c, epsilon=0.02)))
        return out

    @staticmethod
    def _max_num(rep):
        mass = rep.total
        return max(abs(int(t) * rep.p - mass) for t in rep.counts.as_list())

    def summary(self, state, name, rep):
        return {"total": rep.total, "max_num": self._max_num(rep),
                "main_term": f"{rep.main_term.numerator}/{rep.main_term.denominator}"}

    def check(self, state, index, results):
        problems = {}
        for name, rep in results.items():
            h = rep.H
            mass = (h * h) ** self.K
            counts = rep.counts.as_list()
            errs = []
            if len(counts) != rep.p or min(counts) < 0:
                errs.append("count vector has the wrong length or a negative entry")
            if sum(counts) != mass or rep.total != mass:
                errs.append(f"sum of T_k is {sum(counts)}, product of masses is {mass}")
            if rep.main_term != Fraction(mass, rep.p):
                errs.append("main term is not mass/p")
            if rep.max_abs_dev != float(Fraction(self._max_num(rep), mass)):
                errs.append("max_abs_dev disagrees with the max numerator")
            problems[name] = errs
        return problems


# ---------------------------------------------------------------------------
# product_pairs: dense product problems, the pairwise kernels


class ProductPairs:
    name = "product_pairs"
    nominal_pass_s = 11.3
    children = False
    EXPONENT = 0.7

    def __init__(self, p=1000003):
        self.p = p
        self.h = math.ceil(p ** self.EXPONENT)

    def setup(self, seed, passes, workdir):
        ctxs = [PrimeContext(self.p) for _ in range(passes)]
        mset = sets.random_subset(self.h, sets.mix_seed(seed, 2, 0), ctxs[0])
        shift = _rng(seed, 2, 1).below(self.p - self.h)
        return {"ctxs": ctxs, "mset": mset, "shift": shift,
                "base": sets.initial_interval(self.h, ctxs[0])}

    def ops(self, state, index):
        ctx, mset, base = state["ctxs"][index], state["mset"], state["base"]
        return [
            Op("energy_J", lambda tracer: energy.energy_J(base, mset, ctx)),
            Op("energy_Js", lambda tracer: energy.energy_Js(state["shift"], base, mset, 2, ctx)),
            Op("product_set", lambda tracer: prodset.product_set(base, mset, ctx)),
            Op("ratio_set", lambda tracer: prodset.ratio_set(base, mset, ctx)),
        ]

    def summary(self, state, name, result):
        if name.startswith("energy"):
            return {"value": int(result)}
        return {"size": result.size}

    def check(self, state, index, results):
        h, p = self.h, self.p
        pair_energy = results.get("energy_J")
        problems = {}
        for name, result in results.items():
            if name.startswith("energy"):
                problems[name] = _energy_problems(int(result), h, h, p)
            else:
                problems[name] = _size_problems(result.size, h, h, p, pair_energy)
        return problems


# ---------------------------------------------------------------------------
# recip_spectra: the float and NTT routes of convolve, and the chirp DFT


class RecipSpectra:
    name = "recip_spectra"
    nominal_pass_s = 4.4
    children = False

    # (name, prime, interval exponent, ell): ell=2 and 3 take the float
    # route at lengths 2^21 and 2^22, ell=4 the NTT route (2 moduli, 2^19).
    ENERGIES = (("recip_e2", 1000003, 0.7, 2), ("recip_e3", 1000003, 0.6, 3),
                ("recip_e4", 100003, 0.7, 4))

    def __init__(self, p=1000003, energies=ENERGIES):
        self.p = p
        self.energies = tuple(energies)
        self.primes = sorted({p} | {e[1] for e in self.energies})

    def setup(self, seed, passes, workdir):
        p = self.p
        ctxs = [{q: PrimeContext(q) for q in self.primes} for _ in range(passes)]
        c0 = ctxs[0][p]
        rng = _rng(seed, 3, 0)
        intervals = {}
        for name, q, expo, _ in self.energies:
            h = math.ceil(q ** expo)
            intervals[name] = sets.shifted_interval(rng.below(q - h), h, ctxs[0][q])
        h = math.ceil(p ** 0.7)
        return {
            "ctxs": ctxs,
            "intervals": intervals,
            "x": sets.shifted_interval(rng.below(p - h), h, c0),
            "a": 1 + rng.below(p - 1),
            "kset": sets.random_subset(math.ceil(p ** 0.5), rng.next_u64(), c0),
            "uset": sets.random_subset(h, rng.next_u64(), c0),
            "k_len": math.ceil(p ** 0.5),
            "samples": [1 + rng.below(p - 2) for _ in range(SAMPLES)],
            "reference": {},
        }

    def ops(self, state, index):
        ctxs, x = state["ctxs"][index], state["x"]
        c = ctxs[self.p]
        out = [Op(name, lambda tracer, iv=state["intervals"][name], ell=ell, cq=ctxs[q]:
                  energy.additive_energy_recip(iv, 1, ell, cq))
               for name, q, _, ell in self.energies]
        out += [
            Op("sum_table_s1", lambda tracer: spectra.complete_sum_table(x, 1, c)),
            Op("sum_table_s2", lambda tracer: spectra.complete_sum_table(x, 2, c)),
            Op("kloosterman", lambda tracer: spectra.kloosterman_frac_sum(
                state["a"], state["kset"], x, 1, c)),
            Op("char_spectrum", lambda tracer: spectra.char_spectrum(state["uset"], c)),
            Op("burgess", lambda tracer: spectra.burgess_ratio(state["k_len"], c)),
        ]
        return out

    def summary(self, state, name, result):
        if name.startswith("recip_e"):
            return {"value": int(result)}
        if name.startswith("sum_table"):
            vec = result.W
        elif name == "char_spectrum":
            vec = result.S
        elif name == "kloosterman":
            return {"value": result.value}
        else:
            return {"value": float(result)}
        return {"entry0": vec[0].real, "parseval": float(np.sum(np.abs(vec) ** 2)),
                "samples": [[vec[c].real, vec[c].imag] for c in state["samples"]]}

    def _fibers(self, state, s):
        """x^(-s) mod p for the interval, by Python's pow (independent of fplab)."""
        cache = state["reference"]
        if s not in cache:
            xs = state["x"].elements().tolist()
            cache[s] = np.asarray([pow(v, -s, self.p) for v in xs], dtype=np.int64)
        return cache[s]

    def check(self, state, index, results):
        p = self.p
        problems = {}
        for name, q, expo, ell in self.energies:
            if name in results:
                h = state["intervals"][name].H
                e = int(results[name])
                lo = max(h ** ell, _ceil_div(h ** (2 * ell), q))
                ok = lo <= e <= h ** (2 * ell - 1)
                problems[name] = [] if ok else [f"E_{ell} = {e} outside [{lo}, H^(2l-1)]"]
        for s in (1, 2):
            name = f"sum_table_s{s}"
            if name not in results:
                continue
            w, errs = results[name].W, []
            vals = self._fibers(state, s)
            if w[0] != state["x"].H:
                errs.append("W[0] != H")
            fib = np.bincount(vals, minlength=p)
            if not _close(float(np.sum(np.abs(w) ** 2)), float(p * int(np.dot(fib, fib)))):
                errs.append("Parseval: sum |W|^2 != p * sum u^2")
            for c in state["samples"]:
                direct = np.exp(2j * np.pi * ((c * vals) % p) / p).sum()
                if abs(direct - w[c]) > SPECTRUM_TOL:
                    errs.append(f"W[{c}] off direct summation by {abs(direct - w[c]):.3g}")
            problems[name] = errs
        if "kloosterman" in results:
            res, errs = results["kloosterman"], []
            if not 0 <= res.value <= res.trivial_bound:
                errs.append("sum exceeds the trivial bound H*M")
            table = results.get("sum_table_s1")
            if table is not None:
                idx = (state["a"] * state["kset"].elems) % p
                if not _close(res.value, float(np.abs(table.W[idx]).sum())):
                    errs.append("sum disagrees with the s=1 complete-sum table")
            problems["kloosterman"] = errs
        ctx = state["ctxs"][index][p]
        if "char_spectrum" in results:
            spec, errs = results["char_spectrum"].S, []
            elems = state["uset"].elems
            n = elems.size
            if spec[0] != n:
                errs.append("S[0] != |U|")
            if not _close(float(np.sum(np.abs(spec) ** 2)), float((p - 1) * n)):
                errs.append("Parseval: sum |S|^2 != (p-1)|U|")
            logs = ctx.dlog[elems].astype(np.int64)
            for u, k in zip(elems[:SAMPLES].tolist(), logs[:SAMPLES].tolist()):
                if pow(ctx.g, k, p) != u:
                    errs.append(f"dlog[{u}] is wrong")
            for t in state["samples"]:
                direct = np.exp(2j * np.pi * ((t * logs) % (p - 1)) / (p - 1)).sum()
                if abs(direct - spec[t]) > SPECTRUM_TOL:
                    errs.append(f"S[{t}] off direct summation by {abs(direct - spec[t]):.3g}")
            problems["char_spectrum"] = errs
        if "burgess" in results:
            k, n = state["k_len"], p - 1
            rest = n * k - k * k  # sum over t != 0 of |S_K(chi_t)|^2
            norm = k ** 0.5 * p ** 0.1875
            lo, hi = math.sqrt(rest / (n - 1)) / norm, math.sqrt(rest) / norm
            ok = lo * (1 - FLOAT_REL_TOL) <= results["burgess"] <= hi * (1 + FLOAT_REL_TOL)
            problems["burgess"] = [] if ok else ["ratio outside the Parseval range"]
        return problems


# ---------------------------------------------------------------------------
# cli_sweep: small and sparse instances through the fplab CLI, one child at a time


@dataclass
class CliResult:
    code: int
    text: str       # the report: the --out file for sweeps, stdout otherwise
    stderr: str
    max_rss_kb: int


def run_cli(argv, workdir, tracer, out_path=None) -> CliResult:
    """Run `fplab <argv>` in a child through cli_child.py and wait for it.

    With a tracer, the child records spans under the tracer's current op and
    they are merged here. Peak memory comes from the child's own rusage.
    """
    cmd = [sys.executable, CLI_CHILD]
    spans_path = None
    if tracer is not None:
        spans_path = os.path.join(workdir, f"spans-{tracer.op}.jsonl")
        cmd += ["--trace-out", spans_path, "--op", str(tracer.op)]
    if out_path and os.path.exists(out_path):
        os.remove(out_path)  # a report left by an earlier pass must not pass for this one
    out_file = os.path.join(workdir, "stdout.txt")
    err_file = os.path.join(workdir, "stderr.txt")
    with open(out_file, "wb") as out, open(err_file, "wb") as err:
        proc = subprocess.Popen(cmd + list(argv), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path or out_file, encoding="ascii", errors="replace") as fh:
        text = fh.read()
    with open(err_file, encoding="ascii", errors="replace") as fh:
        stderr = fh.read()
    if spans_path is not None and os.path.exists(spans_path):
        tracer.merge_jsonl(spans_path)
    return CliResult(proc.returncode, text, stderr, usage.ru_maxrss)


def _rows(text: str) -> list[dict]:
    if text.startswith("{"):
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    return list(csv.DictReader(io.StringIO(text)))


class CliSweep:
    name = "cli_sweep"
    nominal_pass_s = 5.2
    children = True

    # (name, config lines): one sweep per measure, one of them threaded and
    # one writing JSON lines; every grid point has H*M well under p*log(p).
    SWEEPS = (
        ("sweep_tk", "measure = tk\nprimes = 1009 3001 10007\nh_exp = 0.5\nm_exp = 0.5\nk = 6\n"),
        ("sweep_energy_js", "measure = energy_js\nprimes = 10007 30011 100003\nh_exp = 0.5\n"
                            "m_exp = 0.5 0.6\ns = 1 2\nl_policy = random\nworkers = 2\n"),
        ("sweep_kloosterman", "measure = kloosterman\nprimes = 10007 30011 100003\nh_exp = 0.5\n"
                              "m_exp = 0.5\ns = 1 2\nl_policy = random\nformat = jsonl\n"),
        ("sweep_prodset", "measure = prodset\nprimes = 10007 30011 100003\nh_exp = 0.6 0.66\n"
                          "m_exp = 0.4\n"),
    )
    GRID_SIZES = {"sweep_tk": 3, "sweep_energy_js": 12, "sweep_kloosterman": 6,
                  "sweep_prodset": 6}
    # single-shot commands: (command, primes, H exponent, M exponent)
    SHOTS = (("prodset", (10007, 30011, 100003), 0.6, 0.4),
             ("tk", (1009, 3001, 10007), 0.5, 0.5),
             ("energy", (10007, 30011, 100003), 0.6, 0.4))

    def setup(self, seed, passes, workdir):
        rng = _rng(seed, 4, 0)
        commands = []
        for name, body in self.SWEEPS:
            cfg = os.path.join(workdir, name + ".cfg")
            out = os.path.join(workdir, name + ".out")
            with open(cfg, "w", encoding="ascii") as fh:
                fh.write(body + f"seed = {rng.next_u64()}\n")
            commands.append((name, ["sweep", "--config", cfg, "--out", out], out, None))
        for command, primes, h_exp, m_exp in self.SHOTS:
            for p in primes:
                h, m = math.ceil(p ** h_exp), math.ceil(p ** m_exp)
                argv = [command, "--p", str(p), "--H", str(h),
                        "--set", f"random:{m}", "--seed", str(rng.next_u64() >> 33)]
                if command == "energy":
                    argv += ["--kind", "J"]
                commands.append((f"{command}_p{p}", argv, None, (p, h, m)))
        return {"workdir": workdir, "commands": commands}

    def ops(self, state, index):
        return [Op(name, lambda tracer, a=argv, o=out: run_cli(a, state["workdir"], tracer, o))
                for name, argv, out, _ in state["commands"]]

    def summary(self, state, name, result):
        return {"code": result.code, "text": result.text}

    def check(self, state, index, results):
        sizes = {name: size for name, _, _, size in state["commands"]}
        problems = {}
        for name, result in results.items():
            if result.code != 0:
                problems[name] = [f"exit code {result.code}: {result.stderr.strip()[-200:]}"]
                continue
            try:
                rows = _rows(result.text)
                errs = (self._sweep_problems(name, rows) if name.startswith("sweep")
                        else self._shot_problems(name, rows, *sizes[name]))
            except (KeyError, ValueError, IndexError) as exc:
                errs = [f"unreadable report: {type(exc).__name__}: {exc}"]
            problems[name] = errs
        return problems

    def _sweep_problems(self, name, rows):
        errs = []
        if len(rows) != self.GRID_SIZES[name]:
            errs.append(f"{len(rows)} rows, expected {self.GRID_SIZES[name]}")
        for i, row in enumerate(rows):
            if int(row["index"]) != i or row["skip_reason"]:
                errs.append(f"row {i}: index {row['index']}, skip {row['skip_reason']!r}")
                continue
            p, h, m = int(row["p"]), int(row["H"]), int(row["M"])
            value = float(row["value"])
            if row["measure"] == "energy_js":
                errs += _energy_problems(int(row["value"]), h, m, p)
            elif row["measure"] == "prodset":
                errs += _size_problems(p - int(row["value"]), h, m, p)
            elif row["measure"] == "kloosterman" and not 0 < value <= h * m:
                errs.append(f"row {i}: |sum| {value} outside (0, H*M]")
            elif row["measure"] == "tk" and not (math.isfinite(value) and value >= 0):
                errs.append(f"row {i}: max deviation {value} is not a finite nonnegative")
        return errs

    @staticmethod
    def _shot_problems(name, rows, p, h, m):
        (row,) = rows
        if row["command"] == "prodset":
            size = int(row["size"])
            errs = _size_problems(size, h, m, p)
            return errs + ([] if size + int(row["missing"]) == p else ["size + missing != p"])
        if row["command"] == "energy":
            return _energy_problems(int(row["value"]), h, m, p)
        total = int(row["total"])
        errs = [] if total == (h * m) ** int(row["k"]) else ["total != (H*M)^k"]
        if Fraction(row["main_term"]) != Fraction(total, p):
            errs.append("main_term != total/p")
        return errs


WORKLOADS = {w.name: w for w in (TkExact(), ProductPairs(), RecipSpectra(), CliSweep())}
