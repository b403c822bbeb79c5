import hashlib
import json
import os
from pathlib import Path

import pytest

from teachdim import (
    CapacityError,
    GadgetReport,
    InvalidArgumentError,
    InvalidPlanError,
    InvariantError,
    MalformedPlanError,
    ObservationReport,
    ParseError,
    SoundnessViolationError,
    TeachdimError,
    TeachingPlan,
    witness_plan,
)
from teachdim.cli import main

POINT_CLASS = "4 3\n100 100\n010 010\n001 001\n000 000\n"
K3_GRAPH = "3 3\n0 1\n0 2\n1 2\n"
EMPTY2_GRAPH = "2 0\n"
POINT_PLAN = "100 0\n010 1\n001 2\n000\n"  # `rtd`'s plan for POINT_CLASS


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


def test_rtd_oracle_negative_cap_exit_2(workdir, capsys):
    code, out, err = run(capsys, "rtd-oracle", "pointclass.txt", "--cap", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: cap must be >= 0, got -1\n"


def test_rtd_oracle_ok(workdir, capsys):
    code, out, _ = run(capsys, "rtd-oracle", "pointclass.txt")
    assert code == 0
    assert "RTD (subset oracle) = 1" in out


def test_rtd_oracle_cap_0(workdir, capsys):
    # A cap of 0 refuses every nonempty class but still admits the empty one.
    code, out, err = run(capsys, "rtd-oracle", "pointclass.txt", "--cap", "0")
    assert (code, out) == (3, "")
    assert "subset oracle over 4 concepts exceeds the cap of 0" in err
    (workdir / "none.txt").write_text("0 2\n")
    assert run(capsys, "rtd-oracle", "none.txt", "--cap", "0") == (0, "RTD (subset oracle) = 0\n", "")


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


def test_gadget_verify_counterexample_exit_1(workdir, capsys, monkeypatch):
    monkeypatch.setattr(
        "teachdim.cli.verify_gadget", lambda g: GadgetReport(True, False, True, (2, "100", (1,)))
    )
    code, out, err = run(capsys, "gadget", "1", "--verify")
    assert code == 1
    assert out.startswith("3 3\nlabels: z0 z1 z2\n")
    assert err == (
        "property 1: PASS\nproperty 2: FAIL\nproperty 3: PASS\n"
        "counterexample: property 2, concept 100, points [1]\n"
    )


def test_gadget_k2_shape(workdir, capsys):
    code, out, _ = run(capsys, "gadget", "2")
    assert code == 0
    assert out.startswith("10 5\n")


def test_gadget_zero_exit_2(workdir, capsys):
    code, _, _ = run(capsys, "gadget", "0")
    assert code == 2


def test_gadget_above_the_cap_exit_3(workdir, capsys):
    # The cap is a budget, as `rtd-oracle --cap` is, not a usage error.
    for k in ("7", "100000"):
        code, out, err = run(capsys, "gadget", k)
        assert code == 3
        assert out == ""
        assert f"k = {k} exceeds the gadget cap of 6" in err


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


def test_verify_invalid_witness_plan_is_a_violation(workdir, capsys, monkeypatch):
    def emptied(out, witness):
        (label, _), *rest = witness_plan(out, witness).steps
        return TeachingPlan(((label, ()), *rest))

    monkeypatch.setattr("teachdim.cli.witness_plan", emptied)
    code, out, err = run(capsys, "verify", "k3.graph", "1")
    assert (code, err) == (1, "")
    assert "witness plan:" not in out
    assert "verdict: VIOLATION\n  problem: witness plan invalid: step 0 ('h100', {}) fails" in out
    code, out, err = run(capsys, "verify", "k3.graph", "1", "--json")
    assert (code, err) == (1, "")
    rep = json.loads(out)
    assert rep["verdict"] == "VIOLATION"
    assert [p.split(":")[0] for p in rep["problems"]] == ["witness plan invalid"]
    assert "witness_plan_width" not in rep
    assert rep["extracted_dominating_set"] == [0]


def _widened(out, witness):
    """The witness plan with one more point in its first step: still valid, but of width 2."""
    (label, pts), *rest = witness_plan(out, witness).steps
    return TeachingPlan(((label, (*pts, out.klass.width - 1)), *rest))


def _unsound(out, pattern, points):
    raise SoundnessViolationError("forced")


@pytest.mark.parametrize(
    "name, fake, problem",
    [
        ("witness_plan", _widened, "witness plan width 2 exceeds k"),
        ("extract_domset", _unsound, "soundness extraction failed: forced"),
        (
            "check_observations",
            lambda out, max_sets: ObservationReport(7, True, ("h100", (0,))),
            "observation counterexample: ('h100', (0,))",
        ),
        (
            "_strip_decision",
            lambda klass, k, top, lex: (k, None),
            "dominating-set answer and RTD decision disagree",
        ),
    ],
)
def test_verify_failed_check_is_a_violation(workdir, capsys, monkeypatch, name, fake, problem):
    monkeypatch.setattr(f"teachdim.cli.{name}", fake)
    code, out, err = run(capsys, "verify", "k3.graph", "1")
    assert (code, err) == (1, "")
    assert out.endswith(f"verdict: VIOLATION\n  problem: {problem}\n")
    code, out, err = run(capsys, "verify", "k3.graph", "1", "--json")
    assert (code, err) == (1, "")
    rep = json.loads(out)
    assert (rep["verdict"], rep["problems"]) == ("VIOLATION", [problem])


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


def test_bench_skips_n_below_2(workdir, capsys):
    code, out, err = run(capsys, "bench", "N=1..2", "k=1")
    assert code == 0
    assert err == "skipping N=1 k=1 (N < 2)\n"
    header, *rows = out.splitlines()
    assert [row.split(",")[:2] for row in rows] == [["2", "1"]]


def test_bench_bad_sweep_exit_2(workdir, capsys):
    code, _, _ = run(capsys, "bench", "Q=1..2")
    assert code == 2


# -- exit statuses ----------------------------------------------------------------


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (CapacityError("too big"), 3, "error"),
        (SoundnessViolationError("no domset"), 1, "SOUNDNESS VIOLATION"),
        (InvariantError("bad witness"), 1, "INTERNAL ERROR"),
        (ParseError("bad header", 1), 2, "error"),
        (InvalidArgumentError("bad k"), 2, "error"),
        (MalformedPlanError("short plan"), 2, "error"),
        (InvalidPlanError(0, "000", "step 0 fails"), 2, "error"),
        (TeachdimError("cannot write"), 2, "error"),
    ],
)
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_exit_table(workdir, capsys, monkeypatch, error, code, prefix, flags):
    def fail(*_):
        raise error

    monkeypatch.setattr("teachdim.cli._cmd_td", fail)
    assert run(capsys, "td", "pointclass.txt", *flags) == (code, "", f"{prefix}: {error}\n")


def test_other_errors_propagate(workdir, capsys, monkeypatch):
    def fail(*_):
        raise KeyError("not ours")

    monkeypatch.setattr("teachdim.cli._cmd_td", fail)
    with pytest.raises(KeyError):
        main(["td", "pointclass.txt", "--json"])
    assert capsys.readouterr().out == ""


# -- reading and writing files ------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["td", "bin.txt"],
        ["plan-check", "pointclass.txt", "bin.txt"],
        ["verify", "bin.txt", "1"],
        ["reduce", "rtd", "bin.txt", "1"],
    ],
)
def test_undecodable_input_exit_2(workdir, capsys, argv):
    (workdir / "bin.txt").write_bytes(b"\xff\xfe2 2\n")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "cannot read bin.txt: not " in err and " text" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["rtd", "pointclass.txt", "--plan-out", "nodir/p.plan"],
        ["reduce", "rtd", "k3.graph", "1", "--out", "nodir/x"],
        ["gen", "3", "0.5", "1", "--out", "nodir/g.graph"],
        ["bench", "N=2", "k=1", "--out", "nodir/b.csv"],
    ],
)
def test_write_to_missing_directory_exit_2(workdir, capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "cannot write nodir/" in err
    assert not (workdir / "nodir").exists()


def test_failed_rename_keeps_targets_and_leaves_no_temporary(workdir, capsys, monkeypatch):
    (workdir / "x.class").write_text("old class\n")
    (workdir / "x.meta.json").write_text("old meta\n")
    (workdir / "p.plan").write_text("old plan\n")
    before = sorted(p.name for p in workdir.iterdir())

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr("teachdim.cli.os.replace", refuse)
    code, _, err = run(capsys, "reduce", "rtd", "k3.graph", "1", "--out", "x")
    assert code == 2
    assert "cannot write x.class: Permission denied" in err
    code, _, err = run(capsys, "rtd", "pointclass.txt", "--plan-out", "p.plan")
    assert code == 2
    assert (workdir / "x.class").read_text() == "old class\n"
    assert (workdir / "x.meta.json").read_text() == "old meta\n"
    assert (workdir / "p.plan").read_text() == "old plan\n"
    assert sorted(p.name for p in workdir.iterdir()) == before


def test_second_rename_failing_leaves_no_temporary(workdir, capsys, monkeypatch):
    real, calls = os.replace, []

    def second_fails(src, dst):
        calls.append((Path(dst).name, sorted(p.name for p in workdir.glob("*.tmp"))))
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        real(src, dst)

    monkeypatch.setattr("teachdim.cli.os.replace", second_fails)
    code, _, err = run(capsys, "reduce", "rtd", "k3.graph", "1", "--out", "x")
    assert code == 2
    assert "cannot write x.meta.json: No space left on device" in err
    # Both temporary files were written before the first rename.
    assert [name for name, _ in calls] == ["x.class", "x.meta.json"]
    assert [len(temps) for _, temps in calls] == [2, 1]
    assert sorted(p.name for p in workdir.iterdir()) == [
        "empty2.graph", "k3.graph", "pointclass.txt", "x.class"
    ]


def test_writes_leave_only_their_targets(workdir, capsys):
    umask = os.umask(0)
    os.umask(umask)
    (workdir / "p.plan").write_text("stale\n")
    os.chmod(workdir / "p.plan", 0o600)
    assert run(capsys, "rtd", "pointclass.txt", "--plan-out", "p.plan")[0] == 0
    assert run(capsys, "reduce", "rtd", "k3.graph", "1", "--out", "x")[0] == 0
    assert run(capsys, "gen", "3", "0.5", "1", "--out", "g.graph")[0] == 0
    assert run(capsys, "bench", "N=2", "k=1", "--out", "b.csv")[0] == 0
    written = ["b.csv", "g.graph", "p.plan", "x.class", "x.meta.json"]
    assert sorted(p.name for p in workdir.iterdir()) == sorted(
        written + ["empty2.graph", "k3.graph", "pointclass.txt"]
    )
    # A new file is created under the umask, as a plain write creates it.
    for name in written:
        assert (workdir / name).stat().st_mode & 0o777 == 0o666 & ~umask
    assert (workdir / "p.plan").read_text() == POINT_PLAN


def test_plan_out_writes_through_a_symlink(workdir, capsys):
    (workdir / "real.plan").write_text("stale\n")
    (workdir / "link.plan").symlink_to("real.plan")
    assert run(capsys, "rtd", "pointclass.txt", "--plan-out", "link.plan")[0] == 0
    assert (workdir / "link.plan").is_symlink()
    assert (workdir / "real.plan").read_text() == POINT_PLAN


def test_json_inputs_hash_the_parsed_bytes(workdir, capsys):
    (workdir / "crlf.txt").write_bytes(POINT_CLASS.replace("\n", "\r\n").encode())
    code, out, _ = run(capsys, "rtd", "crlf.txt", "--plan-out", "pf.plan", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rtd"] == 1
    data = (workdir / "crlf.txt").read_bytes()
    assert doc["inputs"] == [{"path": "crlf.txt", "sha256": hashlib.sha256(data).hexdigest()}]
    code, out, _ = run(capsys, "plan-check", "crlf.txt", "pf.plan", "--json")
    assert [i["path"] for i in json.loads(out)["inputs"]] == ["crlf.txt", "pf.plan"]


def test_each_input_is_read_once(workdir, capsys, monkeypatch):
    reads, real = [], Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self.name) or real(self))
    monkeypatch.setattr(Path, "read_text", lambda self, *a, **kw: pytest.fail("read twice"))
    assert run(capsys, "rtd", "pointclass.txt", "--json")[0] == 0
    assert run(capsys, "verify", "k3.graph", "1", "--json")[0] == 0
    assert reads == ["pointclass.txt", "k3.graph"]
