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


def test_reproducible_outputs(capsys, singleton1, tmp_path):
    invocations = [
        ["prodset", "--p", "101", "--H", "10", "--set", "random:5", "--seed", "7"],
        ["energy", "--kind", "Js", "--p", "101", "--H", "8", "--L", "3",
         "--s", "2", "--set", "random:6", "--seed", "8"],
        ["expsum", "--p", "101", "--H", "10", "--L", "2", "--s", "1", "--a", "9",
         "--set", "random:4", "--seed", "9"],
        ["tk", "--p", "31", "--H", "3", "--s", "1", "--k", "3",
         "--set", "random:3", "--seed", "10", "--lambdas", "0,5"],
        ["selftest"],
    ]
    for argv in invocations:
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2, argv

    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("measure = kloosterman\nprimes = 101\nh_exp = 0.4 0.5\n"
                   "m_exp = 0.4\nl_policy = random\nseed = 2\n")
    code1, out1, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    code2, out2, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code1 == code2 == 0 and out1 == out2


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
