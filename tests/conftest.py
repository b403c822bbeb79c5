"""Shared fixtures and definition-level brute-force oracles.

The oracles here work on raw row tuples and never touch the package's
search machinery, so they can arbitrate when implementation and spec-level
expectations disagree.  The `ref_*` functions at the end are literal,
unoptimised versions of rewritten package functions, kept as test references.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache, reduce
from math import comb
from operator import and_, or_

import pytest

from teachdim import (
    Concept,
    ConceptClass,
    ConceptRef,
    GadgetReport,
    Graph,
    InvalidArgumentError,
    InvariantError,
    ObservationReport,
    PointRef,
    ReductionOutput,
    ShinoharaResult,
    TeachingPlan,
    build_gadget,
    is_teaching_set,
    min_teaching_set,
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


def dominates(g: Graph, u: int, v: int) -> bool:
    """u dominates v: they are the same vertex or share an edge."""
    return u == v or (min(u, v), max(u, v)) in g.edges


def ones_extension(klass: ConceptClass) -> ConceptClass:
    """`klass` with the all-one concept, labelled by its bitstring, appended.

    A class that already holds the all-one row is its own extension.
    """
    ones = (1,) * klass.width
    if any(c.values == ones for c in klass.concepts):
        return klass
    label = "1" * klass.width or "ones"
    return ConceptClass(klass.domain, klass.concepts + (Concept(label, ones),))


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


def bf_verify_gadget(g) -> GadgetReport:
    """The three gadget properties straight from their definitions, on raw rows.

    The all-one row is added to the rows as to a set, so a class that holds
    it is its own extension.
    """
    k, width = g.k, g.klass.width
    rows = [c.values for c in g.klass.concepts]
    labels = g.klass.labels()
    extended = rows if (1,) * width in rows else rows + [(1,) * width]
    fails = {}
    for i in range(len(rows)):
        size, points = bf_min_ts(rows, i)
        if size != k:
            fails.setdefault(1, (1, labels[i], points))
        for points in itertools.combinations(range(width), k):
            if bf_is_teaching_set(rows, i, points) and 0 in [rows[i][x] for x in points]:
                fails.setdefault(2, (2, labels[i], points))
                break
        size, points = bf_min_ts(extended, i)
        if size <= k:
            fails.setdefault(3, (3, labels[i], points))
    first = fails[min(fails)] if fails else None
    return GadgetReport(1 not in fails, 2 not in fails, 3 not in fails, first)


def ref_check_observations(out, *, max_sets=250_000):
    """The observation replay pair by pair, straight from its statement.

    For every concept in class order and every candidate set in order, it
    rebuilds the set's mask and z-projection and compares the two teaching
    tests; `check_observations` must return an equal report on every input.
    """
    limit = out.k + 1
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
        rng = random.Random(0)
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


def ref_shinohara_reduce(g):
    """`shinohara_reduce` as it built its rows as tuples of ints, value by value."""
    if g.n == 0:
        raise InvalidArgumentError("reduction needs a nonempty graph")
    rows: dict[tuple[int, ...], list[int]] = {}
    order: list[tuple[int, ...]] = []
    for u in range(g.n):
        row = tuple(0 if dominates(g, v, u) else 1 for v in range(g.n))
        # u dominates itself, so no vertex row can be all-one.
        if row[u] != 0:
            raise InvariantError(f"vertex {g.vertex_label(u)} does not dominate itself")
        if row not in rows:
            rows[row] = []
            order.append(row)
        rows[row].append(u)
    star = (1,) * g.n
    if star in rows:
        raise InvariantError("a vertex row is all-one")
    domain = tuple(g.vertex_label(i) for i in range(g.n))
    concepts = []
    merges = []
    for row in order:
        members = rows[row]
        kept = f"c_{g.vertex_label(members[0])}"
        concepts.append(Concept(kept, row))
        if len(members) > 1:
            merges.append((kept, tuple(g.vertex_label(u) for u in members)))
    star_label = "ones"
    concepts.append(Concept(star_label, star))
    return ShinoharaResult(
        ConceptClass(domain, tuple(concepts)), star_label, tuple(merges)
    )


def ref_domset_to_rtd(g, k):
    """`domset_to_rtd` as it built its rows as tuples of ints, value by value.

    `domset_to_rtd` now writes each row as a bitstring; its class and
    sidecar bytes must equal this build's on every graph.
    """
    n = g.n
    if n < 2:
        raise InvalidArgumentError("reduction requires at least 2 vertices")
    if not (1 <= k <= n):
        raise InvalidArgumentError(f"k must lie in 1..{n}, got {k}")
    gadget = build_gadget(k)
    p, q = gadget.p, gadget.q
    patterns = [c.bitstring() for c in gadget.klass.concepts]

    points: list[str] = []
    point_map: list[PointRef] = []
    for v in range(n):
        for z in range(p):
            points.append(f"(v{v + 1},z{z})")
            point_map.append(PointRef("VZ", v, z))
    for z in range(p):
        for v in range(n):
            points.append(f"(z{z},v{v + 1})")
            point_map.append(PointRef("ZV", v, z))

    # Row slices follow the point order above: VZ v-major, then ZV z-major.
    dom_row = [
        tuple(1 if dominates(g, v, u) else 0 for v in range(n)) for u in range(n)
    ]
    concepts: list[Concept] = []
    concept_map: list[tuple[str, ConceptRef]] = []
    for pat, gc in zip(patterns, gadget.klass.concepts):
        vz = tuple(gc.values[z] for v in range(n) for z in range(p))
        zv = (1,) * (p * n)
        label = f"h{pat}"
        concepts.append(Concept(label, vz + zv))
        concept_map.append((label, ConceptRef("constraint", None, pat)))
    for u in range(n):
        vz = tuple(1 - dom_row[u][v] for v in range(n) for z in range(p))
        for pat, gc in zip(patterns, gadget.klass.concepts):
            zv = tuple(
                1 if (gc.values[z] == 1 and v == u) else 0
                for z in range(p)
                for v in range(n)
            )
            label = f"{g.vertex_label(u)}.h{pat}"
            concepts.append(Concept(label, vz + zv))
            concept_map.append((label, ConceptRef("vertex", u, pat)))

    klass = ConceptClass(tuple(points), tuple(concepts))
    if len(klass.concepts) != q * (n + 1) or klass.width != 2 * p * n:
        raise InvariantError(
            f"reduced class is {len(klass.concepts)} x {klass.width}, "
            f"expected {q * (n + 1)} x {2 * p * n}"
        )
    return ReductionOutput(
        klass, g, k, p, q, tuple(point_map), tuple(concept_map), gadget
    )


# -- a hitting-set kernel that copies its masks at every node ---------------------
# A literal reference for the kernel in `teaching.py`, which walks one
# size-sorted mask list without copying it and raises k straight to the bound
# a failed round proves: every value, witness and plan must equal these.


def ref_packing(masks: list[int]) -> tuple[int, int]:
    """Greedily packed pairwise-disjoint masks, each needing its own point: (count, union)."""
    count = packed = 0
    for m in masks:
        if not m & packed:
            count += 1
            packed |= m
    return count, packed


def ref_small_hitting_set(masks: list[int], r: int) -> int | None:
    """Some set of at most r points hitting every mask, as a bitmask, or None.

    A bounded search tree (Niedermeier 2006) that branches on each point of the
    smallest mask, lowest first, off an explicit stack, so it never recurses.
    """
    stack = [(masks, r, 0)]
    while stack:
        masks, r, chosen = stack.pop()
        if not masks:
            return chosen
        if r == 1 and (common := reduce(and_, masks)):
            return chosen | common & -common
        if r > 1 and ref_packing(masks)[0] <= r:
            d = min(masks, key=int.bit_count)
            for i in reversed(range(d.bit_length())):
                if d >> i & 1:  # take point i, and leave out the points of d below it
                    keep = ~(d & ((1 << i) - 1))
                    child = [m & keep for m in masks if not m >> i & 1]
                    stack.append((child, r - 1, chosen | 1 << i))
    return None


def ref_min_hitting_set(diffs: list[int], budget: int) -> tuple[list[int], int, int] | None:
    """Deepen from the packing bound to the least size of a set hitting every mask.

    Returns the distinct masks sorted by size, that size and one such set as a
    bitmask, or None above `budget`.
    """
    masks = sorted(set(diffs), key=int.bit_count)
    size = ref_packing(masks)[0]
    while size <= budget and (found := ref_small_hitting_set(masks, size)) is None:
        size += 1
    return None if size > budget else (masks, size, found)


def ref_lex_min_hitting_set(diffs: list[int], budget: int) -> tuple[int, ...] | None:
    """Smallest, then lexicographically least, set of bit positions hitting every mask.

    Returns None above `budget`.  Masks must be nonzero: equal rows never get here.
    """
    if (hit := ref_min_hitting_set(diffs, budget)) is None:
        return None
    masks, size, found = hit
    # Fix the least set point by point: the lowest q below found's lowest point
    # after which size - 1 points above q still hit the masks q misses, else
    # found's lowest point.  Only packed points fit if they need all `size`.
    chosen = 0
    while masks:
        p = (found & -found).bit_length() - 1
        count, packed = ref_packing(masks)
        fits = (packed if count == size else reduce(or_, masks)) & ((1 << p) - 1)
        while fits:
            q = (fits & -fits).bit_length() - 1
            cut = [m & (-1 << q + 1) for m in masks if not m >> q & 1]
            rest = ref_small_hitting_set(cut, size - 1)
            if rest is not None:
                p, found = q, rest | 1 << q
                break
            fits &= fits - 1
        chosen |= 1 << p
        found ^= 1 << p
        size -= 1
        masks = [m & (-1 << p + 1) for m in masks if not m >> p & 1]
    return tuple(i for i in range(chosen.bit_length()) if chosen >> i & 1)


def ref_strip_decision(
    klass: ConceptClass, k: int, top: int, rng: random.Random | None
) -> tuple[int, TeachingPlan | None]:
    """Strip as rtd_decision does, but raise k up to `top` when a round strips nothing."""
    masks = list(map(klass.row_mask, range(len(klass.concepts))))
    remaining = list(range(len(masks)))
    steps: list[tuple[str, tuple[int, ...]]] = []
    while remaining:
        order = remaining if rng is None else rng.sample(remaining, len(remaining))
        for ci in order:
            witness = ref_lex_min_hitting_set([masks[j] ^ masks[ci] for j in remaining if j != ci], k)
            if witness is not None:
                steps.append((klass.concepts[ci].label, witness))
                remaining.remove(ci)
                break
        else:
            if k == top:
                return k, None
            k += 1
    return k, TeachingPlan(tuple(steps))
