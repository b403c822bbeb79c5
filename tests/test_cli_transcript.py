"""The CLI's exact bytes: stdout, stderr, exit status and written files of every subcommand.

`cli_transcript.json` holds the expected record of each call in CALLS.  Each
call runs in a directory that holds only INPUTS, and the record names every
file the call left there by the SHA-256 of its bytes.  Timings are masked
before comparing and hashing; messages that name the locale's encoding are
left out, as they differ between machines.
"""

import contextlib
import hashlib
import io
import json
import os
import re
from pathlib import Path

from teachdim.cli import main

EXPECTED = Path(__file__).with_name("cli_transcript.json")

INPUTS = {
    "point.class": "4 3\n100 100\n010 010\n001 001\n000 000\n",
    "named.class": "# four concepts\n4 3\nlabels: p q r\nA 110\nB 011\nC 101\nD 000\n",
    "big.class": "".join(["20 5\n"] + [f"{i:05b} {i:05b}\n" for i in range(20)]),
    "one.class": "1 0\nc\n",
    "junk.class": "not a class\n",
    "point.plan": "100 0\n010 1\n001 2\n000\n",
    "bad.plan": "000 0\n100 0\n010 1\n001 2\n",
    "short.plan": "000 0\n",
    "k3.graph": "3 3\n0 1\n0 2\n1 2\n",
    "empty2.graph": "2 0\n",
    "path4.graph": "4 3\n0 1\n1 2\n2 3\n",
    "single.graph": "1 0\n",
    "empty9.graph": "9 0\n",
    "twice.graph": "3 2\n0 1\n1 0\n",
}

CALLS = [
    ["ts", "--concept", "000", "point.class"],
    ["ts", "--concept", "000", "point.class", "--json"],
    ["ts", "--concept", "B", "named.class"],
    ["ts", "--concept", "D", "named.class", "--json"],
    ["ts", "--concept", "nope", "point.class"],
    ["td", "point.class"],
    ["td", "named.class", "--json"],
    ["td", "junk.class"],
    ["td", "missing.class", "--json"],
    ["tdmin", "point.class"],
    ["tdmin", "named.class", "--json"],
    ["rtd", "point.class"],
    ["rtd", "named.class", "--json"],
    ["rtd", "point.class", "--plan-out", "p.plan"],
    ["rtd", "named.class", "--plan-out", "n.plan", "--json"],
    ["rtd", "point.class", "--plan-out", "nodir/p.plan"],
    ["rtd", "one.class", "--json"],
    ["rtd-oracle", "point.class"],
    ["rtd-oracle", "named.class", "--json"],
    ["rtd-oracle", "point.class", "--cap", "3"],
    ["rtd-oracle", "big.class", "--json"],
    ["rtd-oracle", "point.class", "--cap", "-1"],
    ["plan-check", "point.class", "point.plan"],
    ["plan-check", "point.class", "point.plan", "--json"],
    ["plan-check", "point.class", "bad.plan"],
    ["plan-check", "point.class", "bad.plan", "--json"],
    ["plan-check", "point.class", "short.plan"],
    ["plan-check", "point.class", "short.plan", "--json"],
    ["plan-check", "junk.class", "point.plan", "--json"],
    ["gadget", "1"],
    ["gadget", "2"],
    ["gadget", "1", "--verify"],
    ["gadget", "2", "--verify"],
    ["gadget", "0"],
    ["reduce", "rtd", "k3.graph", "1"],
    ["reduce", "rtd", "k3.graph", "1", "--json"],
    ["reduce", "rtd", "path4.graph", "2", "--out", "x"],
    ["reduce", "shinohara", "k3.graph"],
    ["reduce", "shinohara", "path4.graph", "--out", "s", "--json"],
    ["reduce", "rtd", "k3.graph"],
    ["reduce", "shinohara", "k3.graph", "1"],
    ["reduce", "rtd", "single.graph", "1"],
    ["reduce", "rtd", "twice.graph", "1"],
    ["reduce", "rtd", "k3.graph", "1", "--out", "nodir/x"],
    ["verify", "k3.graph", "1"],
    ["verify", "k3.graph", "1", "--json"],
    ["verify", "empty2.graph", "1"],
    ["verify", "empty2.graph", "1", "--json"],
    ["verify", "path4.graph", "2"],
    ["verify", "path4.graph", "1", "--json"],
    ["verify", "path4.graph", "2", "--max-observation-sets", "10"],
    ["verify", "path4.graph", "2", "--max-observation-sets", "10", "--json"],
    ["verify", "k3.graph", "1", "--max-observation-sets", "-5"],
    ["verify", "k3.graph", "9"],
    ["verify", "single.graph", "1", "--json"],
    ["verify", "empty9.graph", "1"],
    ["verify", "k3.graph", "3", "--json"],
    ["gen", "6", "0.5", "42"],
    ["gen", "4", "1", "0"],
    ["gen", "5", "0.3", "7", "--out", "g.graph"],
    ["gen", "3", "0.5", "1", "--out", "nodir/g.graph"],
    ["bench", "N=2..3", "k=1..3", "--seed", "3"],
    ["bench", "N=2", "k=1", "--out", "b.csv"],
    ["bench", "N=2", "k=1", "--out", "nodir/b.csv"],
    ["bench", "Q=1..2"],
    ["bench", "N=0"],
    ["bench", "k=x"],
]

_DURATION = re.compile(r'("duration_ms": )[-+.e0-9]+')
_STEPS = re.compile(r'"steps_ms": \{[^}]*\}')
_STEP_VALUE = re.compile(r'(": )[-+.e0-9]+')
_BENCH_MS = re.compile(r"^((?:\d+,){5})[.0-9]+$", re.M)


def mask(text: str) -> str:
    """The text with `duration_ms`, each `steps_ms` value and bench's milliseconds as `#`."""
    text = _DURATION.sub(r"\1#", text)
    text = _STEPS.sub(lambda m: _STEP_VALUE.sub(r"\1#", m[0]), text)
    return _BENCH_MS.sub(r"\1#", text)


def record(argv: list[str], workdir: Path) -> dict:
    """Run one call in workdir, which holds only INPUTS, and remove what it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    files = {}
    for path in sorted(workdir.iterdir()):
        if path.name not in INPUTS:
            files[path.name] = hashlib.sha256(mask(path.read_bytes().decode()).encode()).hexdigest()
            path.unlink()
    return {"argv": argv, "exit": code, "stdout": mask(out.getvalue()),
            "stderr": mask(err.getvalue()), "files": files}


def transcript(workdir: Path) -> list[dict]:
    for name, text in INPUTS.items():
        (workdir / name).write_text(text)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return [record(argv, workdir) for argv in CALLS]
    finally:
        os.chdir(cwd)


def test_transcript_matches_the_recorded_bytes(tmp_path):
    got = transcript(tmp_path)
    assert {entry["exit"] for entry in got} == {0, 1, 2, 3}
    assert {entry["argv"][0] for entry in got} == {
        "ts", "td", "tdmin", "rtd", "rtd-oracle", "plan-check", "gadget", "reduce", "verify",
        "gen", "bench",
    }
    assert got == json.loads(EXPECTED.read_text())
