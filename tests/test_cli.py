import json
import math

import pytest

from conftest import field_file
from under_O import run_under_O
from classgroup import cli
from classgroup.errors import Stalled


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_qi(tmp_path, capsys):
    path = field_file(tmp_path, [1, 0, 1])
    code, out, _ = run_cli(capsys, ["compute", path, "--seed", "1"])
    assert code == cli.EXIT_ACCEPT
    data = json.loads(out)
    assert data["group"]["class_number"] == "1"
    assert data["verdict"] == "ACCEPT"


def test_compute_writes_out_file(tmp_path, capsys):
    path = field_file(tmp_path, [1, 0, 1])
    out_path = tmp_path / "result.json"
    code, _, _ = run_cli(capsys, ["compute", path, "--seed", "1",
                                  "--out", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["group"]["class_number"] == "1"


def test_compute_corrupt_field_file(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run_cli(capsys, ["compute", str(p)])
    assert code == cli.EXIT_INPUT
    p2 = tmp_path / "reducible.json"
    p2.write_text(json.dumps({"poly": [-1, 0, 1]}))
    code, _, _ = run_cli(capsys, ["compute", str(p2)])
    assert code == cli.EXIT_INPUT


def test_prime_bound_below_two_is_input_error(tmp_path, capsys):
    path = field_file(tmp_path, [1, 0, 1])
    for argv in (["compute", path], ["verify", path, "--h", "1", "--reg", "1"]):
        code, _, err = run_cli(capsys, argv + ["--prime-bound", "1"])
        assert code == cli.EXIT_INPUT
        assert "prime bound 1 is below 2" in err


def test_stalled_exit_code(tmp_path, capsys, monkeypatch):
    path = field_file(tmp_path, [1, 0, 1])

    def boom(cfg):
        raise Stalled("starved", {"trials": 0})

    monkeypatch.setattr(cli, "run_compute", boom)
    code, _, err = run_cli(capsys, ["compute", path])
    assert code == cli.EXIT_STALLED


def test_verify_subcommand(tmp_path, capsys):
    path = field_file(tmp_path, [1, 0, 1])
    code, out, _ = run_cli(capsys, ["verify", path, "--h", "1", "--reg", "1.0"])
    assert code == cli.EXIT_ACCEPT
    data = json.loads(out)
    assert data["verdict"] == "ACCEPT"
    assert set(data) == {"ratio", "verdict", "residue", "prime_bound", "w",
                         "regulator"}
    code, out, _ = run_cli(capsys, ["verify", path, "--h", "2", "--reg", "1.0"])
    assert code == cli.EXIT_REJECT


def test_rho_and_lnot(capsys):
    code, out, _ = run_cli(capsys, ["rho", "2"])
    assert code == 0
    assert abs(float(out) - (1 - math.log(2))) < 1e-10
    code, out, _ = run_cli(capsys, ["lnot", "1", "0.5", "1000000"])
    assert code == 0
    assert abs(float(out) - 1000.0) < 1e-6


def test_reduce_subcommand(tmp_path, capsys):
    m = tmp_path / "mat.txt"
    m.write_text("2 2\n1 4\n0 1\n")
    code, out, _ = run_cli(capsys, ["reduce", str(m)])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "2 2"
    m2 = tmp_path / "id.txt"
    m2.write_text("2 2\n1 0\n0 1\n")
    code, out, _ = run_cli(capsys, ["reduce", str(m2)])
    rows = [l.split() for l in out.strip().splitlines()[1:]]
    assert rows == [["1", "0"], ["0", "1"]]


def test_params_and_classify_subcommands(tmp_path, capsys):
    path = field_file(tmp_path, [5, 0, 1])
    code, out, _ = run_cli(capsys, ["params", path, "--omega",
                                    str(math.log2(7))])
    assert code == 0
    data = json.loads(out)
    assert abs(data["predicted"]["c"] - 1.136) < 1e-3
    code, out, _ = run_cli(capsys, ["classify", path])
    assert code == 0
    assert 0 <= json.loads(out)["alpha"] <= 1


def test_factorbase_and_collect_subcommands(tmp_path, capsys, caplog):
    path = field_file(tmp_path, [1, 0, 1])
    code, out, _ = run_cli(capsys, ["factorbase", path, "--B", "10"])
    assert code == 0
    norms = [json.loads(l)["norm"] for l in out.strip().splitlines()]
    assert norms == [2, 5, 5, 9]
    import logging
    with caplog.at_level(logging.INFO, logger="classgroup.relations"):
        code, out, err = run_cli(capsys, ["collect", path, "--B", "10",
                                          "--seed", "3"])
    assert code == 0
    rows = [json.loads(l) for l in out.strip().splitlines()]
    assert len(rows) >= 8
    progress = [r for r in caplog.records if "bach_rank" in r.getMessage()]
    assert progress  # trials/hits/rank streamed while collecting


def test_compute_determinism_and_threads(tmp_path, capsys):
    path = field_file(tmp_path, [5, 0, 1])

    def result(threads):
        code, out, _ = run_cli(capsys, ["compute", path, "--seed", "5",
                                        "--threads", str(threads)])
        assert code == 0
        data = json.loads(out)
        data["statistics"].pop("wall_time_s")
        data["config"].pop("threads")
        return json.dumps(data, sort_keys=True)

    assert result(1) == result(1)
    assert result(1) == result(4)


def test_resume_reaches_same_group(tmp_path, capsys, monkeypatch):
    # force a REJECT in round 0: the pipeline must retain relations, double K
    # and land on the same group as an undisturbed run
    from classgroup import analytic as analytic_mod
    path = field_file(tmp_path, [5, 0, 1])
    cfg = cli.RunConfig(field_path=path, seed=9)
    clean = cli.run_compute(cfg)
    calls = {"n": 0}
    real_verify = analytic_mod.verify

    def flaky(h, reg, an, field):
        calls["n"] += 1
        if calls["n"] == 1:
            return 9.0, "REJECT"
        return real_verify(h, reg, an, field)

    monkeypatch.setattr(cli.analytic, "verify", flaky)
    resumed = cli.run_compute(cli.RunConfig(field_path=path, seed=9))
    assert resumed.verdict == "ACCEPT"
    assert len(resumed.statistics["rounds"]) == 2
    assert resumed.group.elementary_divisors == clean.group.elementary_divisors
    assert resumed.group.class_number == clean.group.class_number


def test_kernel_computed_only_with_units(tmp_path, monkeypatch):
    # unit rank 0 needs no kernel, and the class group needs no transform;
    # with units, each round that reaches the regulator takes one kernel
    from classgroup import analytic as analytic_mod
    from classgroup import intlinalg
    calls = {"left_kernel": 0, "hnf_with_transform": 0, "regulator": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cli, "left_kernel",
                        counted("left_kernel", cli.left_kernel))
    monkeypatch.setattr(intlinalg, "hnf_with_transform",
                        counted("hnf_with_transform",
                                intlinalg.hnf_with_transform))
    monkeypatch.setattr(cli.analytic, "regulator_from_kernel",
                        counted("regulator",
                                analytic_mod.regulator_from_kernel))
    res = cli.run_compute(cli.RunConfig(
        field_path=field_file(tmp_path, [6, -1, 1]), seed=3))
    assert res.verdict == "ACCEPT" and res.group.class_number == 3
    assert calls == {"left_kernel": 0, "hnf_with_transform": 0,
                     "regulator": len(res.statistics["rounds"])}, calls

    # sqrt(2), with round 0 forced to REJECT so that two rounds reach the
    # regulator
    real_verify = analytic_mod.verify
    verdicts = []

    def flaky(h, reg, an, field):
        verdicts.append(h)
        if len(verdicts) == 1:
            return 9.0, "REJECT"
        return real_verify(h, reg, an, field)

    monkeypatch.setattr(cli.analytic, "verify", flaky)
    calls.update(left_kernel=0, hnf_with_transform=0, regulator=0)
    res = cli.run_compute(cli.RunConfig(
        field_path=field_file(tmp_path, [-2, 0, 1]), seed=3))
    assert res.verdict == "ACCEPT" and len(verdicts) == 2
    assert calls["regulator"] == 2
    assert calls["left_kernel"] == calls["hnf_with_transform"] == 2, calls


def _malformed_matrices(tmp_path):
    """Matrix files that do not match their header: a long row, a short row,
    a missing row, an extra row, a header without m, a header that is not
    numeric, an empty matrix."""
    texts = ["2 2\n1 0 7\n0 1\n", "2 2\n1 0\n0\n", "2 2\n1 0\n",
             "2 2\n1 0\n0 1\n5 5\n", "2\n1 0\n", "two 2\n1 0\n0 1\n",
             "2 0\n\n\n"]
    paths = []
    for i, text in enumerate(texts):
        m = tmp_path / f"bad{i}.txt"
        m.write_text(text)
        paths.append(str(m))
    return paths


def test_bad_cli_input_is_input_error(tmp_path, capsys):
    path = field_file(tmp_path, [5, 0, 1])
    for omega in ("5", "1.5"):
        code, out, err = run_cli(capsys, ["params", path, "--omega", omega])
        assert (code, out) == (cli.EXIT_INPUT, ""), err
        assert "outside [2, 3]" in err
    for argv in (["0.5", "-1", "100"], ["-0.5", "1", "100"]):
        code, out, err = run_cli(capsys, ["lnot"] + argv)
        assert (code, out) == (cli.EXIT_INPUT, ""), err
        assert "alpha >= 0 and c >= 0" in err
    for m in _malformed_matrices(tmp_path):
        code, out, err = run_cli(capsys, ["reduce", m])
        assert (code, out) == (cli.EXIT_INPUT, ""), (m, err)


_BAD_INPUT_UNDER_O = """
import json, sys, tempfile
from classgroup import cli

assert not __debug__, "run with python -O"
with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
    json.dump({"poly": [5, 0, 1]}, f)
with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as g:
    g.write("2 2\\n1 0 7\\n0 1\\n")
for argv in (["params", f.name, "--omega", "5"], ["lnot", "0.5", "-1", "100"],
             ["reduce", g.name]):
    print(argv[0], cli.main(argv))
"""


def test_bad_cli_input_is_input_error_under_python_O():
    assert run_under_O(_BAD_INPUT_UNDER_O) == [
        f"{cmd} {cli.EXIT_INPUT}" for cmd in ("params", "lnot", "reduce")]


def test_collect_and_compute_choose_same_bound_and_block(tmp_path, capsys,
                                                          monkeypatch):
    # both subcommands hand collect the same B and beta on the same field
    seen = []

    def stop(field, fb, ccfg, **kwargs):
        seen.append((ccfg.bound_B, ccfg.beta))
        raise Stalled("stopped", {"trials": 0})

    monkeypatch.setattr(cli, "collect", stop)
    for coeffs in ([5, 0, 1], [1, 1, 1, 1, 1], [-1, -1, 0, 1]):
        path = field_file(tmp_path, coeffs)
        for extra in ([], ["--B", "17", "--beta", "9"]):
            seen.clear()
            assert run_cli(capsys, ["compute", path] + extra)[0] == \
                cli.EXIT_STALLED
            assert run_cli(capsys, ["collect", path] + extra)[0] == \
                cli.EXIT_INPUT
            assert len(seen) == 2 and seen[0] == seen[1], (coeffs, seen)
            if extra:
                assert seen[0] == (17, len(coeffs) - 1)
