"""Seeded workloads for the teachdim CLI and the checks that judge their answers.

Every workload is a fixed list of strata.  One cycle runs one instance of
each stratum, in list order; the seed only picks the graphs and classes
inside a stratum, so every seed exercises the same mix of code paths and
sizes.  The expected answers come from this file's own brute force (graph
domination, teaching-set separation, closed-form counts), never from the
package under test.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable


class CheckFailed(Exception):
    """The program gave an answer the benchmark's own checks reject."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Instance:
    """One generated input: its files, what to run, and what must come out.

    `tag` splits per-layer timings (yes/no for the reduction's verdict,
    narrow/wide for the oracle's table limit); it is empty where no split is
    reported.
    """

    stratum: str
    tag: str
    files: dict[str, str]
    expect: dict = field(default_factory=dict)
    texts: dict[str, str] = field(default_factory=dict)  # path -> content to write in set-up


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    strata: tuple[tuple, ...]
    make: Callable[[random.Random, tuple, str], Instance]
    run: Callable[[Instance, Callable], None]
    # Places per cycle beyond the tail percentile (see run.py's _typical_cycle).
    tail_beyond: int


# -- independent oracles -------------------------------------------------------


def domination_number(n: int, edges: list[tuple[int, int]], limit: int) -> int:
    """Smallest dominating-set size of the graph, or limit + 1 if it exceeds limit."""
    closed = [1 << v for v in range(n)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    full = (1 << n) - 1
    for size in range(min(limit, n) + 1):
        for combo in itertools.combinations(closed, size):
            covered = 0
            for m in combo:
                covered |= m
            if covered == full:
                return size
    return limit + 1


def random_graph_with_gamma(rng: random.Random, n: int, gamma: int) -> list[tuple[int, int]]:
    """Erdos-Renyi graph, density drawn per try, kept once its domination number is gamma."""
    while True:
        p = rng.uniform(0.05, 0.7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if domination_number(n, edges, gamma) == gamma:
            return edges


def random_rows(rng: random.Random, m: int, width: int) -> list[str]:
    return ["".join(str(b >> i & 1) for i in range(width)) for b in rng.sample(range(1 << width), m)]


def read_class_rows(text: str) -> dict[str, str]:
    """Label -> bitstring from the class text format (header, optional labels line)."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    body = lines[1:]
    if body and body[0][0] == "labels:":
        body = body[1:]
    return {label: bits for label, bits in body}


def check_teaching_set(rows: dict[str, str], label: str, points: list[int]) -> None:
    own = rows[label]
    for other, bits in rows.items():
        if other != label:
            check(any(bits[i] != own[i] for i in points),
                  f"witness {points} does not separate {label} from {other}")


def graph_text(n: int, edges: list[tuple[int, int]]) -> str:
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def class_text(rows: list[str]) -> str:
    lines = [f"{len(rows)} {len(rows[0])}"] + [f"c{i} {r}" for i, r in enumerate(rows)]
    return "\n".join(lines) + "\n"


def reduction_shape(n: int, k: int) -> tuple[int, int]:
    """(concepts, points) of the dominating-set reduction: q(N+1) over 2pN, p = 2k+1."""
    p = 2 * k + 1
    return comb(p, k) * (n + 1), 2 * p * n


def _json(out: str) -> dict:
    try:
        return json.loads(out)
    except json.JSONDecodeError as e:
        raise CheckFailed(f"output is not JSON: {e}") from None


# -- reduce-rtd ----------------------------------------------------------------

# (k, N, dominating set of size <= k exists).  Yes-instances have domination
# number exactly k and no-instances exactly k+1: the tight cases, where the
# decision has to search deepest, and which keep the cost of a stratum close
# to the same for every seed.  k=3 stops at N=5: one N=6 instance takes 4-6 s,
# a quarter of a run, and k=3 no-instances (domination number 4, so
# near-empty graphs) take 7-40 s each.  k2-n7-no appears four times, with
# five cheaper and five dearer strata around it, so the median lands in the
# middle of one stratum and is taken over four of its inputs per cycle;
# k3-n4-yes appears twice, ranked fourth and fifth by cost, so the tail (four
# instances per cycle beyond it) lands in the middle of it.
REDUCE_RTD_STRATA = (
    (2, 4, True), (2, 8, True), (2, 10, True), (2, 12, True),
    (2, 4, False), (2, 7, False), (2, 7, False), (2, 7, False), (2, 7, False),
    (2, 10, False), (2, 12, False),
    (3, 4, True), (3, 4, True), (3, 5, True),
)


def _make_reduce_rtd(rng: random.Random, stratum: tuple, prefix: str) -> Instance:
    k, n, yes = stratum
    edges = random_graph_with_gamma(rng, n, k if yes else k + 1)
    return Instance(f"k{k}-n{n}-{'yes' if yes else 'no'}", "yes" if yes else "no",
                    {"graph": prefix + ".graph", "out": prefix + ".red"},
                    {"k": k, "n": n, "domset": yes},
                    {prefix + ".graph": graph_text(n, edges)})


def _run_reduce_rtd(inst: Instance, cli: Callable) -> None:
    k, n = inst.expect["k"], inst.expect["n"]
    out = inst.files["out"]
    rep = _json(cli(["reduce", "rtd", inst.files["graph"], str(k), "--out", out, "--json"])[0])
    check((rep["concepts"], rep["points"]) == reduction_shape(n, k),
          f"reduced class is {rep['concepts']}x{rep['points']}")
    value = _json(cli(["rtd", out + ".class", "--plan-out", out + ".plan", "--json"])[0])["rtd"]
    check((value <= k) == inst.expect["domset"],
          f"RTD {value} vs k={k} contradicts dominating set {inst.expect['domset']}")
    plan = _json(cli(["plan-check", out + ".class", out + ".plan", "--json"])[0])
    check(plan["valid"] is True and plan["width"] == value,
          f"plan-check gave {plan.get('valid')} width {plan.get('width')}, RTD {value}")


# -- verify --------------------------------------------------------------------

# (N, k, --max-observation-sets or None for the exhaustive default, domination
# number).  The capped strata run the sampled replay path; the rest replay
# every set.  As in reduce-rtd, a fixed domination number keeps a stratum's
# cost close to the same for every seed, and the strata mix yes- and
# no-instances.  The six k=1 rows are the cheapest, so the median lands
# between the two N=6 ones; n6-k2-no, ranked second and third by cost,
# appears twice so the tail (two instances per cycle beyond it) lands in it.
VERIFY_STRATA = (
    (4, 1, None, 1), (5, 1, None, 1), (6, 1, None, 1),
    (4, 1, None, 2), (5, 1, None, 2), (6, 1, None, 2),
    (4, 2, None, 2),
    (5, 2, 2000, 2), (6, 2, 2000, 3), (6, 2, 2000, 3),
)


def _make_verify(rng: random.Random, stratum: tuple, prefix: str) -> Instance:
    n, k, max_sets, gamma = stratum
    edges = random_graph_with_gamma(rng, n, gamma)
    concepts, width = reduction_shape(n, k)
    candidates = sum(comb(width, s) for s in range(k + 2))
    exhaustive = max_sets is None
    sets = candidates if exhaustive else max_sets + 1  # the empty set plus the sample
    yes = gamma <= k
    return Instance(f"n{n}-k{k}-{'yes' if yes else 'no'}-{'exhaustive' if exhaustive else 'sampled'}",
                    "", {"graph": prefix + ".graph"},
                    {"k": k, "max_sets": max_sets, "exhaustive": exhaustive,
                     "domset": yes, "sets_checked": concepts * sets},
                    {prefix + ".graph": graph_text(n, edges)})


def _run_verify(inst: Instance, cli: Callable) -> None:
    e = inst.expect
    argv = ["verify", inst.files["graph"], str(e["k"]), "--json"]
    if e["max_sets"] is not None:
        argv += ["--max-observation-sets", str(e["max_sets"])]
    rep = _json(cli(argv)[0])
    check(rep["verdict"] == "EQUIVALENT", f"verdict {rep['verdict']}: {rep.get('problems')}")
    check(rep["domset"] == e["domset"] and rep["rtd_at_most_k"] == e["domset"],
          f"domset {rep['domset']}, rtd<=k {rep['rtd_at_most_k']}, expected {e['domset']}")
    check(rep["observation_sets_checked"] == e["sets_checked"]
          and rep["observations_exhaustive"] == e["exhaustive"],
          f"{rep['observation_sets_checked']} observation checks, expected {e['sets_checked']}")


# -- oracle-teach ----------------------------------------------------------------

# ("oracle", concepts, width) runs rtd-oracle, rtd, td and tdmin on a random
# class; half the oracle rows fit the oracle's 12-column table limit, half
# take the plain fallback.  The wide rows stay at 10-12 concepts: one
# 14-concept wide class costs 1.7-4 s, so a run would hold only a few.
# ("reduction", k, N, dominating set exists) runs reduce, then ts, td and
# tdmin on the reduced class, and ("gadget", K) runs `gadget K --verify`:
# the kernel entered directly, many shallow successful searches and no RTD
# loop.  Ranked by cost, the 14x12 rows and gadget 4 (all about 180 ms) fill
# the 6th to 8th of the 12 places, so the median lands among them; the tail
# (two places per cycle beyond it) lands among the 12x14 and 12x16 rows.
ORACLE_TEACH_STRATA = (
    ("oracle", 10, 10), ("oracle", 12, 11), ("oracle", 12, 12),
    ("oracle", 14, 12), ("oracle", 14, 12),
    ("oracle", 10, 14), ("oracle", 12, 13), ("oracle", 12, 14),
    ("oracle", 12, 16), ("oracle", 12, 16),
    ("reduction", 1, 6, False), ("gadget", 4),
)
ORACLE_TABLE_WIDTH = 12


def _make_oracle_teach(rng: random.Random, stratum: tuple, prefix: str) -> Instance:
    kind = stratum[0]
    if kind == "oracle":
        _, m, width = stratum
        tag = "narrow" if width <= ORACLE_TABLE_WIDTH else "wide"
        return Instance(f"m{m}-w{width}", tag, {"class": prefix + ".class"}, {},
                        {prefix + ".class": class_text(random_rows(rng, m, width))})
    if kind == "reduction":
        _, k, n, yes = stratum
        edges = random_graph_with_gamma(rng, n, k if yes else k + 1)
        return Instance(f"reduction-k{k}-n{n}-{'yes' if yes else 'no'}", "",
                        {"graph": prefix + ".graph", "out": prefix + ".red"},
                        {"k": k, "n": n, "domset": yes,
                         "concept": "h" + "1" * k + "0" * (k + 1)},
                        {prefix + ".graph": graph_text(n, edges)})
    return Instance(f"gadget-{stratum[1]}", "", {}, {"k": stratum[1]})


def _ts_td_tdmin(cli: Callable, path: str, concept: str) -> dict:
    ts = _json(cli(["ts", path, "--concept", concept, "--json"])[0])
    td = _json(cli(["td", path, "--json"])[0])["td"]
    td_min = _json(cli(["tdmin", path, "--json"])[0])["td_min"]
    check(td >= ts["ts"] >= td_min and len(ts["witness"]) == ts["ts"],
          f"TD {td} >= TS {ts['ts']} >= TD_min {td_min} fails")
    check_teaching_set(read_class_rows(Path(path).read_text()), concept, ts["witness"])
    return ts


def _run_oracle_teach(inst: Instance, cli: Callable) -> None:
    e = inst.expect
    if "class" in inst.files:
        path = inst.files["class"]
        oracle = _json(cli(["rtd-oracle", path, "--json"])[0])["rtd"]
        value = _json(cli(["rtd", path, "--json"])[0])["rtd"]
        td = _json(cli(["td", path, "--json"])[0])["td"]
        td_min = _json(cli(["tdmin", path, "--json"])[0])["td_min"]
        check(oracle == value, f"subset oracle {oracle} != rtd {value}")
        check(td >= value >= td_min, f"TD {td} >= RTD {value} >= TD_min {td_min} fails")
    elif "domset" in e:
        k, out = e["k"], inst.files["out"]
        cli(["reduce", "rtd", inst.files["graph"], str(k), "--out", out])
        ts = _ts_td_tdmin(cli, out + ".class", e["concept"])
        # Completeness puts a k-point teaching set on a constraint concept when
        # a k-dominating set exists; soundness rules one out otherwise; the
        # gadget needs at least k points either way.
        check((ts["ts"] == k) if e["domset"] else (ts["ts"] > k),
              f"TS {ts['ts']} of {e['concept']} contradicts dominating set {e['domset']}")
    else:
        k = e["k"]
        out, err = cli(["gadget", str(k), "--verify"])
        check("properties 1,2,3: PASS" in err, f"gadget {k} --verify: {err.strip()}")
        rows = set(read_class_rows(out).values())
        expected = {"".join("1" if i in s else "0" for i in range(2 * k + 1))
                    for s in itertools.combinations(range(2 * k + 1), k)}
        check(rows == expected, f"gadget {k} is not the weight-{k} class")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reduce-rtd",
                 "reduce, rtd --plan-out, plan-check on tight yes/no graphs: teaching.rtd "
                 "does >=95% of the work, with deep failing probes",
                 REDUCE_RTD_STRATA, _make_reduce_rtd, _run_reduce_rtd, 4),
        Workload("verify",
                 "verify --json, exhaustive and sampled: observation replay is ~98% of the "
                 "work, the RTD decision ~2%",
                 VERIFY_STRATA, _make_verify, _run_verify, 2),
        Workload("oracle-teach",
                 "rtd-oracle, rtd, td, tdmin on classes straddling the oracle's 12-column "
                 "table limit, plus ts/td/tdmin on a reduction and gadget 4 --verify",
                 ORACLE_TEACH_STRATA, _make_oracle_teach, _run_oracle_teach, 2),
    )
}
