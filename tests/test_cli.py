import argparse
import importlib
import json
import operator
import os
import pathlib
import pkgutil
import re
import shlex
import subprocess
import sys

import pytest

import fplab
from fplab import cli, convolve, tkcount
from fplab.cli import main
from fplab.convolve import plan_convolution


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Runs the CLI in a child whose address space is capped at 2 GiB, so a
# request for a length-p array at p > 2^31 fails there instead of paging.
_CAPPED_CLI = ("import resource, runpy, sys; "
               "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
               "sys.argv[0] = 'fplab'; runpy.run_module('fplab', run_name='__main__')")


def run_capped_cli(*argv):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _CAPPED_CLI, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    return done.returncode, done.stdout, done.stderr


@pytest.fixture
def singleton1(tmp_path):
    path = tmp_path / "singleton1"
    path.write_text("1\n")
    return str(path)


def test_tk_tiny_example(capsys, singleton1):
    code, out, _ = run_cli(capsys, "tk", "--p", "3", "--H", "2", "--s", "1",
                           "--k", "6", "--set", f"file:{singleton1}", "--L", "0")
    assert code == 0
    header, row = out.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["t_values"] == "22;21;21"
    assert cells["main_term"] == "64/3"
    assert cells["total"] == "64"


def test_expsum_a_zero(capsys, singleton1):
    code, out, _ = run_cli(capsys, "expsum", "--p", "5", "--s", "1", "--H", "4",
                           "--L", "0", "--set", f"file:{singleton1}", "--a", "0")
    assert code == 0
    header, row = out.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["value"] == "4"


def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [f"ok C=2^{m}" for m in range(8, 13)]
    assert lines[-1] == "all selftest checks passed"


def test_selftest_fails_under_a_tightened_bound(capsys, monkeypatch):
    gamma = convolve._gamma
    monkeypatch.setattr(convolve, "_gamma", lambda length: gamma(length) / 1e3)
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    assert out.startswith("FAIL C=2^8:") and "all selftest checks passed" not in out


def test_fft_error_ratios_are_measured_and_below_the_bound():
    # a broken oracle reading no error fails here as surely as one reading too much
    rows = convolve.fft_error_ratios()
    assert [size for size, _, _ in rows] == [1 << m for m in range(8, 13)]
    assert all(0 < ratio < 1 for _, *ratios in rows for ratio in ratios)


def test_selftest_does_not_rest_on_assert():
    # under python -O every assert is stripped; the check must print and exit alike
    runs = [subprocess.run([sys.executable, *flag, "-m", "fplab", "selftest"],
                           capture_output=True, timeout=120) for flag in ((), ("-O",))]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout


def test_prodset_and_ratio(capsys, singleton1):
    code, out, _ = run_cli(capsys, "prodset", "--p", "7", "--H", "6",
                           "--set", f"file:{singleton1}")
    assert code == 0
    cells = dict(zip(*[line.split(",") for line in out.strip().splitlines()]))
    assert cells["size"] == "6" and cells["missing"] == "1"

    code, out, _ = run_cli(capsys, "prodset", "--p", "7", "--H", "2", "--ratio",
                           "--set", "random:3", "--seed", "5")
    assert code == 0


# the options each energy kind reads, beside --p, --H and the set
_ENERGY_READS = {"J": (), "Js": ("--L", "1", "--s", "2"), "R": ("--Klen", "2"),
                 "recip": ("--L", "1", "--s", "2", "--ell", "2")}


def test_energy_kinds(capsys):
    for kind, reads in _ENERGY_READS.items():
        code, out, _ = run_cli(capsys, "energy", "--kind", kind, "--p", "11", "--H", "3",
                               *reads, "--set", "random:4", "--seed", "3")
        assert code == 0, (kind, out)
        header, row = out.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert int(cells["value"]) > 0


def test_energy_refuses_options_its_kind_ignores(capsys):
    # a value but the default of an option the kind does not read would be
    # reported beside a value not taken with it: one line, exit 2
    ignores = {"J": ("--L", "--s", "--ell", "--Klen"), "Js": ("--ell", "--Klen"),
               "R": ("--L", "--s", "--ell"), "recip": ("--Klen",)}
    base = ("energy", "--p", "101", "--H", "8", "--set", "random:6", "--seed", "8")
    for kind, options in ignores.items():
        for option in options:
            code, out, err = run_cli(capsys, *base, "--kind", kind, option, "5")
            assert (code, out) == (2, "") and err == f"error: --kind {kind} ignores {option}\n"
        # the default itself, given or not, reports the same bytes
        defaults = {"--L": "0", "--s": "1", "--ell": "2", "--Klen": "1"}
        given = [a for option in options for a in (option, defaults[option])]
        plain = run_cli(capsys, *base, "--kind", kind)
        assert plain[0] == 0 and run_cli(capsys, *base, "--kind", kind, *given) == plain
    code, _, err = run_cli(capsys, *base, "--kind", "J", "--L", "5", "--s", "2")
    assert code == 2 and err == "error: --kind J ignores --L, --s\n"


def test_seed_rules(capsys, singleton1):
    code, _, err = run_cli(capsys, "prodset", "--p", "7", "--H", "2",
                           "--set", f"file:{singleton1}", "--seed", "4")
    assert code == 2 and "seed" in err
    code, _, err = run_cli(capsys, "prodset", "--p", "7", "--H", "2",
                           "--set", "random:3")
    assert code == 2 and "seed" in err
    code, _, err = run_cli(capsys, "prodset", "--p", "7", "--H", "2",
                           "--set", "bogus:3")
    assert code == 2


def test_budget_exit_code(capsys):
    code, _, err = run_cli(capsys, "energy", "--kind", "J", "--p", "101",
                           "--H", "50", "--set", "random:50", "--seed", "1",
                           "--budget", "10")
    assert code == 3 and "budget" in err.lower()
    # a budget below 0 is a bad value, not a refusal
    code, _, err = run_cli(capsys, "energy", "--kind", "J", "--p", "101",
                           "--H", "50", "--set", "random:50", "--seed", "1",
                           "--budget", "-1")
    assert code == 2 and err == "error: budget must be >= 0, got -1\n"
    # the README's worked example: T_6 at p = 100003 over six sets of
    # H = M = 563 floors at 27 float transforms at 2^18, 27 * 2^18 * 18 =
    # 127401984 units, which its chain runs
    assert plan_convolution(100003, [563 * 563] * 6).floors == (3, 3, 5, 7, 9)
    code, _, err = run_cli(capsys, "tk", "--p", "100003", "--H", "563", "--k", "6",
                           "--set", "random:563", "--seed", "1", "--budget", "127401983")
    assert code == 3 and err.count("\n") == 1
    assert "needs at least 127401984 operations: 27 transforms (3, 3, 5, 7, 9) at 2^18" in err


def test_budget_refusal_mid_chain(capsys, singleton1):
    # T_8 at p = 101 over M = {1} and X = {1..100}, s = 50: x^(-50) is the
    # quadratic character, so each factor is two point masses of 50. Its
    # floors are 16 transforms at 2^8 (32768 units), but steps 6 and 7 run
    # split (2x1), 18 in all: at a budget between the two the meter stops
    # the chain before step 6, with 10 transforms run
    argv = ("tk", "--p", "101", "--H", "100", "--k", "8", "--s", "50",
            "--set", f"file:{singleton1}")
    assert run_cli(capsys, *argv, "--budget", "36864")[0] == 0
    code, out, err = run_cli(capsys, *argv, "--budget", "35000")
    assert (code, out) == (3, "") and err.count("\n") == 1
    assert err == ("budget refusal: float transform convolution needs at least 36864 operations "
                   "before step 6 of 7: 10 transforms run, 4 in this step and 4 at the floors of "
                   "the rest at 2^8, budget is 35000\n")


def test_flags_a_command_does_not_read_are_refused(capsys):
    # energy never read --eps, nor expsum --eps or --budget: each was once
    # accepted and ignored
    rand = ("--p", "101", "--H", "5", "--set", "random:5", "--seed", "1")
    for argv in (("energy", "--kind", "J", *rand, "--eps", "7"),
                 ("expsum", "--a", "3", *rand, "--eps", "0"),
                 ("expsum", "--a", "3", *rand, "--budget", "1")):
        assert run_cli(capsys, *argv[:-2])[0] == 0
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err == f"error: unrecognized arguments: {' '.join(argv[-2:])}\n"


def test_tk_is_refused_before_any_set_is_drawn(capsys, monkeypatch):
    # 20000 random sets: T_20000 planned as one array 20000 times, the
    # lowest floors of any draw, already passes the budget, so the request
    # is refused with that lower bound before a set is drawn; a k below 2
    # is still the experiment's own domain error
    draws, random_subset = [], cli.random_subset
    monkeypatch.setattr(cli, "random_subset", lambda *a: draws.append(a) or random_subset(*a))
    code, out, err = run_cli(capsys, "tk", "--p", "10007", "--H", "100", "--k", "20000",
                             "--set", "random:100", "--seed", "1")
    assert code == 3 and out == "" and err.count("\n") == 1 and "needs at least" in err
    assert draws == []
    code, _, err = run_cli(capsys, "tk", "--p", "101", "--H", "5", "--k", "1",
                           "--set", "random:5", "--seed", "1")
    assert code == 2 and "k must be >= 2" in err


def test_oversize_chain_is_refused_before_it_is_priced(capsys, monkeypatch):
    # E_10000 at p = 101 with H = 5: 5^10000 rules out the pair route and
    # the float floors alone (11900755968) exceed the budget, so no step's
    # width is scanned, at a budget far below them and at one just below
    widths = []
    monkeypatch.setattr(convolve, "_width", lambda *args: widths.append(args))
    for budget in ("1000", "10000000000"):
        code, _, err = run_cli(capsys, "energy", "--kind", "recip", "--p", "101", "--H", "5",
                               "--ell", "10000", "--set", "random:3", "--seed", "1",
                               "--budget", budget)
        assert code == 3 and "needs at least" in err and widths == []


def test_domain_error_exit_code(capsys, singleton1, tmp_path, monkeypatch):
    # interval through 0 for a denominator map
    code, _, err = run_cli(capsys, "expsum", "--p", "7", "--H", "3", "--L", "5",
                           "--s", "1", "--a", "1", "--set", f"file:{singleton1}")
    assert code == 2 and "0 mod" in err
    # a residue list that does not parse
    code, _, err = run_cli(capsys, "tk", "--p", "31", "--H", "3", "--k", "3",
                           "--set", "random:3", "--seed", "1", "--lambdas", "0,x")
    assert code == 2 and err.count("\n") == 1 and "--lambdas" in err
    # an epsilon that is not a finite number >= 0, refused before any set is drawn
    draws, random_subset = [], cli.random_subset
    monkeypatch.setattr(cli, "random_subset", lambda *a: draws.append(a) or random_subset(*a))
    for command in ("prodset", "tk"):
        for eps in ("nan", "inf", "-1", "x"):
            code, _, err = run_cli(capsys, command, "--p", "101", "--H", "3",
                                   "--set", "random:3", "--seed", "1", "--eps", eps)
            assert code == 2 and err.count("\n") == 1
            assert "--eps" in err and "finite number >= 0" in err
    assert draws == []
    # argparse usage errors: one line, no usage block
    code, _, err = run_cli(capsys, "prodset", "--p", "x", "--H", "3",
                           "--set", "random:3", "--seed", "1")
    assert code == 2 and err == "error: argument --p: invalid int value: 'x'\n"
    code, _, err = run_cli(capsys, "prodset", "--p", "101")
    assert code == 2 and err.count("\n") == 1 and "--H" in err
    # a recip energy whose envelope is beyond the float range (it fits at ell = 221)
    recip = ("energy", "--kind", "recip", "--p", "101", "--H", "5", "--set", "random:3",
             "--seed", "1", "--ell")
    assert run_cli(capsys, *recip, "221")[0] == 0
    code, out, err = run_cli(capsys, *recip, "222")
    assert (code, out) == (2, "")
    assert err == "error: recip energy envelope exceeds the float range at H=5 and ell=222\n"
    # primes above 2^31, whose length-p arrays no route can hold
    for argv in (("energy", "--kind", "recip", "--p", "2147483659"),
                 ("energy", "--kind", "recip", "--p", "1099511627689"),
                 ("expsum", "--a", "3", "--p", "2147483659")):
        code, out, err = run_capped_cli(*argv, "--H", "10", "--set", "random:5", "--seed", "1")
        assert (code, out) == (2, "") and err.count("\n") == 1, err
        assert "exceeds the supported range (< 2^31)" in err
    # the largest supported prime: its length-p arrays do not fit under the cap
    for argv in (("energy", "--kind", "recip"), ("expsum", "--a", "3")):
        code, out, err = run_capped_cli(*argv, "--p", "2147483647", "--H", "10",
                                        "--set", "random:5", "--seed", "1")
        assert (code, out) == (3, "") and err.count("\n") == 1, err
        assert err.startswith("budget refusal: out of memory")
    # each input refusal below names its own check: --ell 0 would exit 2
    # without it too, through the convolution's "needs at least two factors"
    comments = tmp_path / "comments"
    comments.write_text("# no residues here\n\n")
    sweep = "measure = prodset\nprimes = 101\nh_exp = 0.5\nm_exp = 0.5\n"
    xml, sometimes = tmp_path / "xml.cfg", tmp_path / "sometimes.cfg"
    xml.write_text(sweep + "format = xml\n")
    sometimes.write_text(sweep + "l_policy = sometimes\n")
    rand = ("--p", "101", "--H", "5", "--set", "random:3", "--seed", "1")
    for argv, message in (
            (("prodset", "--p", "101", "--H", "3", "--set", "random:x", "--seed", "1"),
             "needs an integer size"),
            (("energy", "--kind", "Js", "--s", "0", *rand), "exponent s must be nonzero"),
            (("energy", "--kind", "R", "--Klen", "0", *rand), "k_len must lie in 1..100, got 0"),
            (("energy", "--kind", "recip", "--ell", "0", *rand), "ell must be >= 1"),
            (("expsum", "--a", "1", "--ell", "0", *rand), "ell must be >= 1"),
            (("prodset", "--p", "101", "--H", "3", "--set", f"file:{comments}"),
             "file holds no residues"),
            (("sweep", "--config", str(xml)), "format must be csv or jsonl"),
            (("sweep", "--config", str(sometimes)), "bad L policy 'sometimes'")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and err.count("\n") == 1, argv
        assert message in err, (argv, err)


# Report bytes recorded before the CLI and the sweep shared one report
# writer; every report must stay byte-identical to them.
SWEEP_CFG = ("measure = kloosterman\nprimes = 101\nh_exp = 0.4\nm_exp = 0.4 1.0\n"
             "l_policy = random\nseed = 2\n")
T_VALUES = ("21;26;25;24;19;22;18;23;26;22;26;25;24;22;27;22;28;24;25;24;18;18;22;22;29;24;25;"
            "26;22;20;30")
PINNED = {
    "prodset --p 101 --H 10 --set random:5 --seed 7": (
        "command,p,H,L,M,size,missing,branch,epsilon\nprodset,101,10,0,5,43,58,none,0.05\n",
        '{"command": "prodset", "p": 101, "H": 10, "L": 0, "M": 5, "size": 43, "missing": 58, '
        '"branch": "none", "epsilon": 0.05}\n'),
    "energy --kind Js --p 101 --H 8 --L 3 --s 2 --set random:6 --seed 8": (
        "command,kind,p,H,L,s,ell,Klen,M,value,envelope,ratio\n"
        "energy,Js,101,8,3,2,2,1,6,68,116.858153074,0.581902059986\n",
        '{"command": "energy", "kind": "Js", "p": 101, "H": 8, "L": 3, "s": 2, "ell": 2, '
        '"Klen": 1, "M": 6, "value": 68, "envelope": 116.858153074, "ratio": 0.581902059986}\n'),
    # the other energy kinds, recorded before the CLI and the sweep shared
    # one map from an energy kind to its value and envelope
    "energy --kind J --p 101 --H 8 --set random:6 --seed 8": (
        "command,kind,p,H,L,s,ell,Klen,M,value,envelope,ratio\n"
        "energy,J,101,8,0,1,2,1,6,74,116.858153074,0.633246359396\n",
        '{"command": "energy", "kind": "J", "p": 101, "H": 8, "L": 0, "s": 1, "ell": 2, '
        '"Klen": 1, "M": 6, "value": 74, "envelope": 116.858153074, "ratio": 0.633246359396}\n'),
    "energy --kind R --p 101 --H 8 --Klen 3 --set random:6 --seed 8": (
        "command,kind,p,H,L,s,ell,Klen,M,value,envelope,ratio\n"
        "energy,R,101,8,0,1,2,3,6,474,207.36,2.28587962963\n",
        '{"command": "energy", "kind": "R", "p": 101, "H": 8, "L": 0, "s": 1, "ell": 2, '
        '"Klen": 3, "M": 6, "value": 474, "envelope": 207.36, "ratio": 2.28587962963}\n'),
    "energy --kind recip --p 101 --H 8 --L 3 --s 2 --ell 3 --set random:6 --seed 8": (
        "command,kind,p,H,L,s,ell,Klen,M,value,envelope,ratio\n"
        "energy,recip,101,8,3,2,3,1,6,4394,14180.7226515,0.309857269477\n",
        '{"command": "energy", "kind": "recip", "p": 101, "H": 8, "L": 3, "s": 2, "ell": 3, '
        '"Klen": 1, "M": 6, "value": 4394, "envelope": 14180.7226515, '
        '"ratio": 0.309857269477}\n'),
    "expsum --p 101 --H 10 --L 2 --s 1 --a 9 --set random:4 --seed 9": (
        "command,p,H,L,s,a,ell,M,value,envelope,trivial,ratio\n"
        "expsum,101,10,2,1,9,2,4,11.1507883645,43.6802364432,40,0.25528223454\n",
        '{"command": "expsum", "p": 101, "H": 10, "L": 2, "s": 1, "a": 9, "ell": 2, "M": 4, '
        '"value": 11.1507883645, "envelope": 43.6802364432, "trivial": 40.0, '
        '"ratio": 0.25528223454}\n'),
    "expsum --p 100003 --H 2000 --L 777 --s 2 --a 12345 --set random:300 --seed 11": (
        "command,p,H,L,s,a,ell,M,value,envelope,trivial,ratio\n"
        "expsum,100003,2000,777,2,12345,2,300,12372.8717287,215243.43754,600000,0.057483154284\n",
        '{"command": "expsum", "p": 100003, "H": 2000, "L": 777, "s": 2, "a": 12345, "ell": 2, '
        '"M": 300, "value": 12372.8717287, "envelope": 215243.43754, "trivial": 600000.0, '
        '"ratio": 0.057483154284}\n'),
    "tk --p 31 --H 3 --s 1 --k 3 --set random:3 --seed 10 --lambdas 0,5": (
        "command,k,p,H,L,s,M,epsilon,main_term,total,max_abs_dev,mean_abs_dev,flags,dev_at,"
        "t_values\ntk,3,31,3,0,1,3,0.05,729/31,729,0.275720164609,0.104871896987,000,"
        "0=-0.106995884774;5=-0.0644718792867,"
        f"{T_VALUES}\n",
        '{"command": "tk", "k": 3, "p": 31, "H": 3, "L": 0, "s": 1, "M": 3, "epsilon": 0.05, '
        '"main_term": "729/31", "total": 729, "max_abs_dev": 0.275720164609, '
        '"mean_abs_dev": 0.104871896987, "flags": "000", '
        f'"dev_at": "0=-0.106995884774;5=-0.0644718792867", "t_values": "{T_VALUES}"}}\n'),
    "sweep --config {cfg}": (
        "index,measure,p,H,M,L,s,ell,k,epsilon,seed,value,envelope,ratio,flags,skip_reason\n"
        "0,kloosterman,101,7,7,63,1,2,6,0.05,7235116703822611636,18.6341299496,"
        "51.5014824571,0.361817350892,,\n"
        "1,kloosterman,101,7,101,,1,2,6,0.05,16171810823986729605,,,,,m_exceeds_field\n",
        '{"index": 0, "measure": "kloosterman", "p": 101, "H": 7, "M": 7, "L": 63, "s": 1, '
        '"ell": 2, "k": 6, "epsilon": 0.05, "seed": 7235116703822611636, "value": 18.6341299496, '
        '"envelope": 51.5014824571, "ratio": 0.361817350892, "flags": "", "skip_reason": ""}\n'
        '{"index": 1, "measure": "kloosterman", "p": 101, "H": 7, "M": 101, "L": null, "s": 1, '
        '"ell": 2, "k": 6, "epsilon": 0.05, "seed": 16171810823986729605, "value": null, '
        '"envelope": null, "ratio": null, "flags": "", "skip_reason": "m_exceeds_field"}\n'),
}


def test_readme_cli_examples_run(capsys):
    # each `fplab` line in the fenced block under the README's "## CLI" but
    # the sweep, which needs a config file, writes one header and one record
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    examples = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("fplab ") and not line.startswith("fplab sweep")]
    assert len(examples) == 5
    for argv in examples:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out.count("\n") == 2 and out.startswith("command,"), argv


def test_readme_package_map_matches_the_code():
    # every backticked name in a module row of the README's package map
    # resolves in that module (`PrimeContext.of(p)` as PrimeContext.of), the
    # cli row names the parser's subcommands, and every module has a row
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## Package map\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for module, contents in re.findall(r"^\| `(\w+)` +\| (.*) \|$", table, re.MULTILINE):
        rows[module] = re.findall(r"`([A-Za-z_][\w.]*)(?:\([^`]*\))?`", contents)
    missing = []
    for module, names in rows.items():
        if module != "cli":
            for name in names:
                try:
                    operator.attrgetter(name)(importlib.import_module(f"fplab.{module}"))
                except AttributeError:
                    missing.append(f"{module}.{name}")
    assert missing == []
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert rows["cli"] == ["fplab", *subparsers.choices]
    assert set(rows) == {m.name for m in pkgutil.iter_modules(fplab.__path__)} - {"__main__"}


def test_reproducible_outputs(capsys, tmp_path):
    """Every report, run twice, matches the pinned bytes; selftest repeats too."""
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    for argv, (csv_text, json_text) in PINNED.items():
        argv = argv.format(cfg=cfg).split()
        json_flag = "jsonl" if argv[0] == "sweep" else "json"
        for fmt, expected in (("csv", csv_text), (json_flag, json_text)):
            run = argv + ["--format", fmt]
            assert run_cli(capsys, *run) == run_cli(capsys, *run) == (0, expected, ""), run
    assert run_cli(capsys, "selftest") == run_cli(capsys, "selftest")


def test_sweep_to_file(capsys, tmp_path):
    cfg = tmp_path / "s.cfg"
    out_path = tmp_path / "rows.csv"
    cfg.write_text("measure = burgess\nprimes = 101\nh_exp = 0.5 0.66\n")
    code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                         "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 3 and lines[0].startswith("index,measure")


def test_json_format(capsys):
    code, out, _ = run_cli(capsys, "energy", "--kind", "J", "--p", "11",
                           "--H", "3", "--set", "random:4", "--seed", "3",
                           "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["command"] == "energy" and rec["value"] > 0


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "prodset", "--p", "7", "--H", "2",
                           "--set", "file:/nonexistent/path")
    assert code == 2


@pytest.fixture
def bad_inputs(tmp_path):
    """A directory, a non-ASCII set file and a non-ASCII sweep config."""
    (tmp_path / "set.txt").write_bytes(b"1\n\xc3\xa9\n")
    (tmp_path / "sweep.cfg").write_bytes(b"measure = burgess\nprimes = 101\n"
                                         b"h_exp = 0.5  # \xc3\xa9\n")
    return tmp_path


@pytest.mark.parametrize("argv, path", [
    (["prodset", "--p", "7", "--H", "2", "--set", "file:{d}"], "{d}"),
    (["prodset", "--p", "7", "--H", "2", "--set", "file:{d}/set.txt"], "{d}/set.txt"),
    (["sweep", "--config", "{d}"], "{d}"),
    (["sweep", "--config", "{d}/sweep.cfg"], "{d}/sweep.cfg"),
    (["prodset", "--p", "7", "--H", "2", "--set", "random:3", "--seed", "1",
      "--out", "{d}"], "{d}"),
], ids=["set-dir", "set-non-ascii", "config-dir", "config-non-ascii", "out-dir"])
def test_unreadable_paths_are_usage_errors(capsys, bad_inputs, argv, path):
    code, _, err = run_cli(capsys, *[a.format(d=bad_inputs) for a in argv])
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert path.format(d=bad_inputs) in err


def test_product_problem_above_dlog_cap_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "prodset", "--p", "67108879", "--H", "3",
                           "--set", "random:3", "--seed", "1")
    assert code == 2 and "2^26" in err


# Recorded before factors with equal contents shared one count vector.
T6_FILE_SET = (
    "command,k,p,H,L,s,M,epsilon,main_term,total,max_abs_dev,mean_abs_dev,flags,dev_at,t_values\n"
    "tk,6,31,3,4,1,3,0.05,531441/31,531441,0.0543221166602,0.0220169495342,000,"
    "0=0.036792419102;5=-0.00415662321876,17774;17438;17946;17569;17006;17072;16729;16309;"
    "17160;16898;17277;17956;17372;17582;17381;16608;16607;16714;16212;17182;17217;17268;"
    "17998;17423;17262;17252;16663;16527;17053;16614;17372\n")


def test_tk_over_one_file_set_builds_one_count_vector(capsys, tmp_path, monkeypatch):
    # the paper's T_6 over one set M and one interval X: the set file is
    # read once and one count vector is built, with the recorded bytes
    path = tmp_path / "set3"
    path.write_text("2\n7\n19\n")
    reads, builds = [], []
    read, build = cli.set_from_file, tkcount.count_vector_product
    monkeypatch.setattr(cli, "set_from_file", lambda *a: reads.append(1) or read(*a))
    monkeypatch.setattr(tkcount, "count_vector_product",
                        lambda *a: builds.append(1) or build(*a))
    assert run_cli(capsys, "tk", "--p", "31", "--H", "3", "--s", "1", "--k", "6",
                   "--set", f"file:{path}", "--L", "4", "--lambdas", "0,5") == \
        (0, T6_FILE_SET, "")
    assert reads == builds == [1]
