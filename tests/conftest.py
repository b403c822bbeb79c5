"""Shared fixtures and definition-level brute-force oracles.

The oracles here work on raw row tuples and never touch the package's
search machinery, so they can arbitrate when implementation and spec-level
expectations disagree.  The `ref_*` functions at the end are literal,
unoptimised versions of rewritten package functions, kept as test references.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from math import comb

import pytest

from teachdim import (
    ConceptClass,
    GadgetReport,
    Graph,
    ObservationReport,
    build_gadget,
    is_teaching_set,
    min_teaching_set,
    ones_extension,
)


def make_class(rows, labels=None, point_labels=None) -> ConceptClass:
    return ConceptClass.from_rows(rows, labels=labels, point_labels=point_labels)


@pytest.fixture
def point_functions() -> ConceptClass:
    """Three point functions plus the all-zero concept over three points."""
    return make_class(["100", "010", "001", "000"])


def random_class(rng: random.Random, max_concepts=10, max_points=8) -> ConceptClass:
    width = rng.randint(1, max_points)
    n = rng.randint(1, min(max_concepts, 2**width))
    masks = rng.sample(range(2**width), n)
    rows = [tuple((m >> i) & 1 for i in range(width)) for m in masks]
    return ConceptClass.from_rows(rows, labels=[f"c{i}" for i in range(n)])


def all_labeled_graphs(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


# -- brute-force oracles -------------------------------------------------------


def bf_is_teaching_set(rows, ci, points) -> bool:
    return all(
        any(rows[o][x] != rows[ci][x] for x in points)
        for o in range(len(rows))
        if o != ci
    )


def bf_min_ts(rows, ci) -> tuple[int, tuple[int, ...]]:
    width = len(rows[ci])
    for size in range(width + 1):
        for points in itertools.combinations(range(width), size):
            if bf_is_teaching_set(rows, ci, points):
                return size, points
    raise AssertionError("distinct rows are always separable")


def bf_rtd(rows) -> int:
    """RTD straight from the definition: best over orderings via memoized recursion."""
    rows = tuple(tuple(r) for r in rows)

    @lru_cache(maxsize=None)
    def best(members: tuple[tuple[int, ...], ...]) -> int:
        if not members:
            return 0
        out = None
        for i in range(len(members)):
            ts, _ = bf_min_ts(members, i)
            rest = members[:i] + members[i + 1 :]
            v = max(ts, best(rest))
            out = v if out is None else min(out, v)
        return out

    return best(rows)


def bf_min_domset(g: Graph) -> tuple[int, tuple[int, ...]]:
    def dominated(u, T):
        return any(v == u or (min(u, v), max(u, v)) in g.edges for v in T)

    for size in range(g.n + 1):
        for T in itertools.combinations(range(g.n), size):
            if all(dominated(u, T) for u in range(g.n)):
                return size, T
    raise AssertionError("V always dominates")


def ref_check_observations(out, *, max_size=None, max_sets=250_000, seed=0):
    """The observation replay pair by pair, straight from its statement.

    For every concept in class order and every candidate set in order, it
    rebuilds the set's mask and z-projection and compares the two teaching
    tests; `check_observations` must return an equal report on every input.
    """
    limit = out.k + 1 if max_size is None else max_size
    width = out.klass.width
    total = sum(comb(width, s) for s in range(limit + 1))
    exhaustive = total <= max_sets
    if exhaustive:
        candidate_sets = [
            combo
            for s in range(limit + 1)
            for combo in itertools.combinations(range(width), s)
        ]
    else:
        rng = random.Random(seed)
        candidate_sets = [()]
        for _ in range(max_sets):
            s = rng.randint(1, limit)
            candidate_sets.append(tuple(sorted(rng.sample(range(width), s))))

    gadget = build_gadget(out.k)
    gmasks = [c.mask() for c in gadget.klass.concepts]
    pattern_index = {c.bitstring(): i for i, c in enumerate(gadget.klass.concepts)}
    # Per-point projections: z-coordinate bit for VZ points, (column, z bit) for ZV.
    vz_zbit = [
        1 << out.point_map[i].zpoint if out.point_map[i].block == "VZ" else 0
        for i in range(width)
    ]
    zv_col = [
        out.point_map[i].vertex if out.point_map[i].block == "ZV" else -1
        for i in range(width)
    ]
    zv_zbit = [
        1 << out.point_map[i].zpoint if out.point_map[i].block == "ZV" else 0
        for i in range(width)
    ]

    def teaches_in_gadget(gi: int, zmask: int) -> bool:
        return all(
            (gmasks[gj] ^ gmasks[gi]) & zmask for gj in range(len(gmasks)) if gj != gi
        )

    masks = [out.klass.row_mask(i) for i in range(len(out.klass.concepts))]
    groups: dict[int | None, list[int]] = {}
    for i, (label, ref) in enumerate(out.concept_map):
        groups.setdefault(ref.vertex, []).append(i)

    checked = 0
    for ci, (label, ref) in enumerate(out.concept_map):
        family = groups[ref.vertex]
        gi = pattern_index[ref.pattern]
        for combo in candidate_sets:
            smask = 0
            for i in combo:
                smask |= 1 << i
            lhs = all(
                (masks[cj] ^ masks[ci]) & smask for cj in family if cj != ci
            )
            if ref.kind == "constraint":
                zmask = 0
                for i in combo:
                    zmask |= vz_zbit[i]
            else:
                zmask = 0
                for i in combo:
                    if zv_col[i] == ref.vertex:
                        zmask |= zv_zbit[i]
            rhs = teaches_in_gadget(gi, zmask)
            checked += 1
            if lhs != rhs:
                return ObservationReport(checked, exhaustive, (label, combo))
    return ObservationReport(checked, exhaustive, None)


def ref_verify_gadget(g):
    """The three gadget properties by the literal triple loop.

    Property 2 calls `is_teaching_set` for every concept and every k-point
    set; `verify_gadget` must return an equal report on every gadget.
    """
    k = g.k
    klass = g.klass
    p1 = p2 = p3 = True
    counter = None
    for c in klass.concepts:
        ts = min_teaching_set(c, klass)
        if ts.size != k:
            p1 = False
            if counter is None:
                counter = (1, c.label, ts.witness)
            break
    for c in klass.concepts:
        stop = False
        for points in itertools.combinations(range(klass.width), k):
            if is_teaching_set(c, klass, points) and any(c.values[i] == 0 for i in points):
                p2 = False
                if counter is None:
                    counter = (2, c.label, points)
                stop = True
                break
        if stop:
            break
    extended = ones_extension(klass)
    for c in klass.concepts:
        ts = min_teaching_set(c, extended)
        if ts.size < k + 1:
            p3 = False
            if counter is None:
                counter = (3, c.label, ts.witness)
            break
    return GadgetReport(p1, p2, p3, counter)
