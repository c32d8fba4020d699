import json

import pytest

from fplab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    assert out.count("ok ") == 8
    assert "all selftest checks passed" in out


def test_prodset_and_ratio(capsys, singleton1):
    code, out, _ = run_cli(capsys, "prodset", "--p", "7", "--H", "6",
                           "--set", f"file:{singleton1}")
    assert code == 0
    cells = dict(zip(*[line.split(",") for line in out.strip().splitlines()]))
    assert cells["size"] == "6" and cells["missing"] == "1"

    code, out, _ = run_cli(capsys, "prodset", "--p", "7", "--H", "2", "--ratio",
                           "--set", "random:3", "--seed", "5")
    assert code == 0


def test_energy_kinds(capsys):
    for kind in ("J", "Js", "R", "recip"):
        code, out, _ = run_cli(capsys, "energy", "--kind", kind, "--p", "11",
                               "--H", "3", "--L", "1", "--s", "2", "--ell", "2",
                               "--Klen", "2", "--set", "random:4", "--seed", "3")
        assert code == 0, (kind, out)
        header, row = out.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert int(cells["value"]) > 0


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


def test_domain_error_exit_code(capsys, singleton1):
    # interval through 0 for a denominator map
    code, _, err = run_cli(capsys, "expsum", "--p", "7", "--H", "3", "--L", "5",
                           "--s", "1", "--a", "1", "--set", f"file:{singleton1}")
    assert code == 2 and "0 mod" in err
    # a residue list that does not parse
    code, _, err = run_cli(capsys, "tk", "--p", "31", "--H", "3", "--k", "3",
                           "--set", "random:3", "--seed", "1", "--lambdas", "0,x")
    assert code == 2 and err.count("\n") == 1 and "--lambdas" in err
    # an epsilon that is not a finite number >= 0
    for eps in ("nan", "inf", "-1"):
        code, _, err = run_cli(capsys, "prodset", "--p", "101", "--H", "3",
                               "--set", "random:3", "--seed", "1", "--eps", eps)
        assert code == 2 and err.count("\n") == 1 and "--eps" in err
    # argparse usage errors: one line, no usage block
    code, _, err = run_cli(capsys, "prodset", "--p", "x", "--H", "3",
                           "--set", "random:3", "--seed", "1")
    assert code == 2 and err == "error: argument --p: invalid int value: 'x'\n"
    code, _, err = run_cli(capsys, "prodset", "--p", "101")
    assert code == 2 and err.count("\n") == 1 and "--H" in err


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
    "expsum --p 101 --H 10 --L 2 --s 1 --a 9 --set random:4 --seed 9": (
        "command,p,H,L,s,a,ell,M,value,envelope,trivial,ratio\n"
        "expsum,101,10,2,1,9,2,4,11.1507883645,43.6802364432,40,0.25528223454\n",
        '{"command": "expsum", "p": 101, "H": 10, "L": 2, "s": 1, "a": 9, "ell": 2, "M": 4, '
        '"value": 11.1507883645, "envelope": 43.6802364432, "trivial": 40.0, '
        '"ratio": 0.25528223454}\n'),
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
