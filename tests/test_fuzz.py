"""A seeded fuzz of the three text formats, through the parsers and the CLI.

Small valid class, graph and plan texts are mutated a few characters or
lines at a time.  Each mutant must parse to a value that survives a
serialize/parse round trip, or fail with a `ParseError` naming its line; and
the CLI must answer every mutant with an exit status of 0-3.
"""

import random

import pytest

from teachdim import (
    ParseError,
    parse_class,
    parse_graph,
    parse_plan,
    serialize_class,
    serialize_graph,
    serialize_plan,
)
from teachdim.cli import main

CLASSES = [
    "# point functions\n4 3\nlabels: p q r\nA 100\nB 010\nC 001\nD 000\n",
    "3 2\nA 10\nB 01\nC 11\n",
    "# no points\n2 0\nlabels:\nx\n",
]
GRAPHS = ["# a path\n4 3\n0 1\n1 2\n2 3\n", "3 3\n0 1\n0 2\n1 2\n", "2 0\n"]
PLANS = ["A 0\nB 1\nC 2\nD\n", "# out of order\nD\nA 0 1\nB 1\nC 2 0\n"]
BASE_CLASS, BASE_PLAN = CLASSES[0], PLANS[0]  # a class and a plan that passes on it
PIECES = ["0", "1", "2", " ", "\t", "\n", "\r", "#", "-", "x", "A", "é", "labels:", "labels: a"]
FORMATS = {
    "class": (CLASSES, parse_class, serialize_class),
    "graph": (GRAPHS, parse_graph, serialize_graph),
    "plan": (PLANS, parse_plan, serialize_plan),
}


def mutate(rng: random.Random, text: str) -> str:
    """One to three edits: a character deleted, inserted or replaced, a line dropped or doubled."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(5)
        if op == 0:
            text = text[:i] + text[i + 1 :]
        elif op == 1:
            text = text[:i] + rng.choice(PIECES) + text[i:]
        elif op == 2:
            text = text[:i] + rng.choice(PIECES) + text[i + 1 :]
        else:
            lines = text.splitlines(keepends=True) or [""]
            j = rng.randrange(len(lines))
            lines[j : j + 1] = [] if op == 3 else [lines[j]] * 2
            text = "".join(lines)
    return text


def small_counts(text: str) -> bool:
    """Whether the numbers on the first meaningful line, a header's counts, have at most two digits."""
    bodies = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    header = next((body for body in bodies if body), "")
    for part in header.split():
        try:
            if int(part) >= 100:
                return False
        except ValueError:
            pass
    return True


def mutants(kind: str, count: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    texts = FORMATS[kind][0]
    out = []
    while len(out) < count:
        text = mutate(rng, rng.choice(texts))
        if small_counts(text):
            out.append(text)
    return out


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_mutants_round_trip_or_name_their_line(kind):
    _, parse, serialize = FORMATS[kind]
    parsed = 0
    for text in mutants(kind, 400, seed=1):
        try:
            value = parse(text)
        except ParseError as e:
            assert e.line is not None or str(e).startswith("empty input"), (text, str(e))
            continue
        assert parse(serialize(value)) == value, text
        parsed += 1
    assert parsed  # some mutants stay well formed, so the round trip is exercised


def test_cli_answers_every_mutant_with_an_exit_status(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "base.class").write_text(BASE_CLASS, encoding="utf-8")
    (tmp_path / "base.plan").write_text(BASE_PLAN, encoding="utf-8")
    calls = {
        "class": [["td", "m.class"], ["rtd", "m.class"], ["plan-check", "m.class", "base.plan"]],
        "graph": [["verify", "m.graph", "1"], ["reduce", "shinohara", "m.graph"]],
        "plan": [["plan-check", "base.class", "m.plan"]],
    }
    codes = set()
    for kind, argvs in calls.items():
        for text in mutants(kind, 100, seed=2):
            (tmp_path / f"m.{kind}").write_text(text, encoding="utf-8")
            for argv in argvs:
                code = main(argv + ["--json"] * (argv[0] != "reduce"))
                capsys.readouterr()
                assert code in (0, 1, 2, 3), (argv, text)
                codes.add(code)
    assert {0, 2} <= codes
