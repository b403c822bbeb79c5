import json

import pytest

from teachdim.cli import main

POINT_CLASS = "4 3\n100 100\n010 010\n001 001\n000 000\n"
K3_GRAPH = "3 3\n0 1\n0 2\n1 2\n"
EMPTY2_GRAPH = "2 0\n"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pointclass.txt").write_text(POINT_CLASS)
    (tmp_path / "k3.graph").write_text(K3_GRAPH)
    (tmp_path / "empty2.graph").write_text(EMPTY2_GRAPH)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- compute family -----------------------------------------------------------


def test_ts(workdir, capsys):
    code, out, _ = run(capsys, "ts", "--concept", "000", "pointclass.txt")
    assert code == 0
    assert "TS = 3" in out


def test_ts_unknown_concept(workdir, capsys):
    code, _, err = run(capsys, "ts", "--concept", "nope", "pointclass.txt")
    assert code == 2
    assert "nope" in err


def test_td(workdir, capsys):
    code, out, _ = run(capsys, "td", "pointclass.txt")
    assert code == 0
    assert "TD = 3 (concept 000)" in out


def test_tdmin(workdir, capsys):
    code, out, _ = run(capsys, "tdmin", "pointclass.txt")
    assert code == 0
    assert "TD_min = 1 (concept 100)" in out


def test_rtd_with_plan(workdir, capsys):
    code, out, _ = run(capsys, "rtd", "pointclass.txt", "--plan-out", "pf.plan")
    assert code == 0
    assert "RTD = 1" in out
    code, out, _ = run(capsys, "plan-check", "pointclass.txt", "pf.plan")
    assert code == 0
    assert "plan valid: width 1" in out


def test_rtd_json(workdir, capsys):
    code, out, _ = run(capsys, "rtd", "pointclass.txt", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rtd"] == 1
    assert doc["inputs"][0]["path"] == "pointclass.txt"
    assert len(doc["inputs"][0]["sha256"]) == 64
    assert len(doc["plan"]) == 4


def test_plan_check_invalid_is_exit_1(workdir, capsys):
    (workdir / "bad.plan").write_text("000 0\n100 0\n010 1\n001 2\n")
    code, out, _ = run(capsys, "plan-check", "pointclass.txt", "bad.plan")
    assert code == 1
    assert "plan invalid" in out


def test_plan_check_malformed_is_exit_2(workdir, capsys):
    (workdir / "short.plan").write_text("000 0\n")
    code, _, err = run(capsys, "plan-check", "pointclass.txt", "short.plan")
    assert code == 2


def test_rtd_oracle_cap_exit_3(workdir, capsys):
    rows = [f"{i:05b}" for i in range(20)]
    (workdir / "big.txt").write_text(
        f"20 5\n" + "\n".join(f"{r} {r}" for r in rows) + "\n"
    )
    code, _, err = run(capsys, "rtd-oracle", "big.txt")
    assert code == 3
    assert "cap" in err


def test_rtd_oracle_ok(workdir, capsys):
    code, out, _ = run(capsys, "rtd-oracle", "pointclass.txt")
    assert code == 0
    assert "RTD (subset oracle) = 1" in out


def test_parse_error_exit_2(workdir, capsys):
    (workdir / "junk.txt").write_text("not a class\n")
    code, _, err = run(capsys, "td", "junk.txt")
    assert code == 2
    assert "line" in err


# -- gadget ---------------------------------------------------------------------


def test_gadget_with_verify(workdir, capsys):
    code, out, err = run(capsys, "gadget", "1", "--verify")
    assert code == 0
    assert out.startswith("3 3\nlabels: z0 z1 z2\n")
    assert "properties 1,2,3: PASS" in err


def test_gadget_k2_shape(workdir, capsys):
    code, out, _ = run(capsys, "gadget", "2")
    assert code == 0
    assert out.startswith("10 5\n")


def test_gadget_zero_exit_2(workdir, capsys):
    code, _, _ = run(capsys, "gadget", "0")
    assert code == 2


# -- reduce ----------------------------------------------------------------------


def test_reduce_rtd_writes_files(workdir, capsys):
    code, out, _ = run(capsys, "reduce", "rtd", "k3.graph", "1")
    assert code == 0
    class_text = (workdir / "k3.rtd-k1.class").read_text()
    assert class_text.startswith("12 18\n")
    meta = json.loads((workdir / "k3.rtd-k1.meta.json").read_text())
    assert meta["z_points"] == 3 and meta["gadget_size"] == 3


def test_reduce_shinohara_dedups(workdir, capsys):
    code, out, _ = run(capsys, "reduce", "shinohara", "k3.graph")
    assert code == 0
    class_text = (workdir / "k3.shinohara.class").read_text()
    assert class_text.startswith("2 3\n")
    meta = json.loads((workdir / "k3.shinohara.meta.json").read_text())
    assert meta["star"] == "ones"


def test_reduce_rejects_single_vertex(workdir, capsys):
    (workdir / "single.graph").write_text("1 0\n")
    code, _, _ = run(capsys, "reduce", "rtd", "single.graph", "1")
    assert code == 2


def test_reduce_deterministic_bytes(workdir, capsys):
    run(capsys, "reduce", "rtd", "k3.graph", "1", "--out", "a")
    run(capsys, "reduce", "rtd", "k3.graph", "1", "--out", "b")
    assert (workdir / "a.class").read_bytes() == (workdir / "b.class").read_bytes()
    assert (
        workdir / "a.meta.json"
    ).read_bytes() == (workdir / "b.meta.json").read_bytes()


# -- verify ------------------------------------------------------------------------


def test_verify_yes_case(workdir, capsys):
    code, out, _ = run(capsys, "verify", "k3.graph", "1")
    assert code == 0
    assert "domset: YES" in out
    assert "rtd <= 1: YES" in out
    assert "verdict: EQUIVALENT" in out


def test_verify_no_case(workdir, capsys):
    code, out, _ = run(capsys, "verify", "empty2.graph", "1")
    assert code == 0
    assert "domset: NO" in out
    assert "rtd <= 1: NO" in out
    assert "verdict: EQUIVALENT" in out


def test_verify_rejects_non_dominating_witness(workdir, capsys, monkeypatch):
    # The re-check must survive `python -O`, so it cannot be an assert.
    monkeypatch.setattr("teachdim.cli.has_dominating_set", lambda g, k: (True, (0,)))
    code, out, err = run(capsys, "verify", "empty2.graph", "1")
    assert code == 1
    assert "non-dominating witness" in err
    assert "EQUIVALENT" not in out


def test_verify_negative_observation_cap_exit_2(workdir, capsys):
    code, out, err = run(capsys, "verify", "k3.graph", "1", "--max-observation-sets", "-5")
    assert code == 2
    assert "max_sets must be >= 0" in err
    assert "EQUIVALENT" not in out


@pytest.mark.parametrize("graph", ["k3.graph", "empty2.graph"])
def test_verify_json_step_times(workdir, capsys, graph):
    code, out, _ = run(capsys, "verify", graph, "1", "--json")
    assert code == 0
    rep = json.loads(out)
    steps = rep["steps_ms"]
    assert list(steps) == ["build", "domset", "decision", "witness_plan", "extract", "observations"]
    assert all(v >= 0 for v in steps.values())
    # Step times are whole microseconds, so their exact sum has three decimals.
    assert round(sum(steps.values()), 3) <= rep["duration_ms"]
    assert steps["observations"] > 0
    if not rep["domset"]:
        assert steps["witness_plan"] == steps["extract"] == 0


def test_verify_k_above_n_exit_2(workdir, capsys):
    code, _, _ = run(capsys, "verify", "k3.graph", "9")
    assert code == 2


def test_verify_budget_exit_3(workdir, capsys):
    (workdir / "big.graph").write_text("9 0\n")
    code, _, err = run(capsys, "verify", "big.graph", "1")
    assert code == 3
    assert "budget" in err


# -- gen and bench --------------------------------------------------------------------


def test_gen_deterministic(workdir, capsys):
    run(capsys, "gen", "6", "0.5", "42", "--out", "a.graph")
    run(capsys, "gen", "6", "0.5", "42", "--out", "b.graph")
    assert (workdir / "a.graph").read_bytes() == (workdir / "b.graph").read_bytes()


def test_gen_complete_graph(workdir, capsys):
    code, out, _ = run(capsys, "gen", "4", "1", "0")
    assert code == 0
    text = (workdir / "er_n4_p1.0_s0.graph").read_text()
    assert text.startswith("4 6\n")


def test_bench_default_sweep(workdir, capsys):
    code, out, _ = run(capsys, "bench", "N=2..5", "k=1..2", "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,k,concepts,points,rtd,milliseconds"
    assert len(lines) == 9  # header + 8 rows


def test_bench_bad_sweep_exit_2(workdir, capsys):
    code, _, _ = run(capsys, "bench", "Q=1..2")
    assert code == 2
