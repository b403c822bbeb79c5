"""Dominating-set-to-teaching reductions and their executable correctness checks.

Two constructions live here.  The single-concept one (`shinohara_reduce`)
turns a graph into a class where teaching the all-one concept is exactly
dominating the graph.  The main one (`domset_to_rtd`) embeds the graph into
a class whose recursive teaching dimension is <= k precisely when the graph
has a k-vertex dominating set.

Layout of the main construction, for an N-vertex graph and the weight-k
gadget class H over Z (p = |Z| = 2k+1, q = |H|):

  domain X, 2pN points:   block VZ = V x Z first, v-major, then
                          block ZV = Z x V, z-major
  constraint concept per h in H:   1 everywhere on ZV, h(z) at (v, z)
  vertex concept per (u, h):       at (v, z): 0 iff v dominates u
                                   at (z, v): 1 iff h(z) = 1 and v = u

The completeness and soundness arguments are shipped as operations:
`witness_plan` turns a dominating set into a checkable width-k plan, and
`extract_domset` decodes a small teaching set of a constraint concept back
into a verified dominating set, aborting loudly if that ever fails.
"""

from __future__ import annotations

import itertools
import json
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from math import comb

from .errors import InvalidArgumentError, InvariantError, SoundnessViolationError
from .gadget import Gadget, build_gadget
from .graph import Graph
from .model import ConceptClass, TeachingPlan, _check_indices, _points, _taught, is_teaching_set

DEFAULT_MAX_OBSERVATION_SETS = 250_000


@dataclass(frozen=True)
class PointRef:
    """What a domain index of a reduced class stands for.

    block is "VZ" or "ZV"; `vertex` and `zpoint` are the 0-based coordinates
    regardless of the block's pair order.
    """

    block: str
    vertex: int
    zpoint: int


@dataclass(frozen=True)
class ConceptRef:
    """Tag of a reduced-class concept: its kind, source vertex (if any), pattern."""

    kind: str  # "constraint" or "vertex"
    vertex: int | None
    pattern: str  # bitstring of the gadget member


@dataclass(frozen=True)
class ReductionOutput:
    """The reduced concept class, the gadget it replicates, and what interprets them."""

    klass: ConceptClass
    graph: Graph
    k: int
    p: int
    q: int
    point_map: tuple[PointRef, ...]
    concept_map: tuple[tuple[str, ConceptRef], ...]
    gadget: Gadget

    def vz_index(self, v: int, z: int) -> int:
        """Domain index of the VZ-block point (v, z)."""
        return v * self.p + z

    def zv_index(self, z: int, v: int) -> int:
        """Domain index of the ZV-block point (z, v)."""
        return self.graph.n * self.p + z * self.graph.n + v

    def constraint_label(self, pattern: str) -> str:
        return f"h{pattern}"


@dataclass(frozen=True)
class ShinoharaResult:
    """Output of the single-concept reduction.

    `star_label` names the appended all-one concept; `merges` lists, for each
    group of vertices whose rows coincided, the kept concept label and the
    vertex labels that were folded into it (groups of one are not reported).
    """

    klass: ConceptClass
    star_label: str
    merges: tuple[tuple[str, tuple[str, ...]], ...]


@dataclass(frozen=True)
class ObservationReport:
    """Result of replaying the two projection observations, exhaustively or on a sample."""

    sets_checked: int
    exhaustive: bool
    counterexample: tuple[str, tuple[int, ...]] | None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def _undominated(g: Graph, u: int) -> str:
    """The bitstring over the vertices that is 0 at each vertex dominating u."""
    return f"{(1 << g.n) - 1 ^ g.closed_neighborhood_mask(u):0{g.n}b}"[::-1]


def shinohara_reduce(g: Graph) -> ShinoharaResult:
    """One concept per vertex (0 where dominated) plus the all-one concept.

    A point set teaches the all-one concept exactly when the corresponding
    vertex set dominates the graph, so its minimum teaching-set size equals
    the graph's domination number.  Vertices with identical rows are merged
    before construction and reported.
    """
    if g.n == 0:
        raise InvalidArgumentError("reduction needs a nonempty graph")
    rows: dict[str, list[int]] = {}  # row -> its vertices, in first-seen order
    for u in range(g.n):
        row = _undominated(g, u)
        # u dominates itself, so no vertex row can be all-one.
        if row[u] != "0":
            raise InvariantError(f"vertex {g.vertex_label(u)} does not dominate itself")
        rows.setdefault(row, []).append(u)
    star = "1" * g.n
    if star in rows:
        raise InvariantError("a vertex row is all-one")
    kept = [f"c_{g.vertex_label(members[0])}" for members in rows.values()]
    merges = tuple(
        (label, tuple(map(g.vertex_label, members)))
        for label, members in zip(kept, rows.values())
        if len(members) > 1
    )
    star_label = "ones"
    klass = ConceptClass.from_rows(
        [*rows, star], kept + [star_label], list(map(g.vertex_label, range(g.n)))
    )
    return ShinoharaResult(klass, star_label, merges)


def _check_instance(n: int, k: int) -> None:
    """Reject an instance the reduction does not take: it needs N >= 2 and 1 <= k <= N."""
    if n < 2:
        raise InvalidArgumentError("reduction requires at least 2 vertices")
    if not (1 <= k <= n):
        raise InvalidArgumentError(f"k must lie in 1..{n}, got {k}")


def domset_to_rtd(g: Graph, k: int) -> ReductionOutput:
    """Build the reduced concept class for the instance (g, k).

    Requires 1 <= k <= N and N >= 2; the output has q(N+1) concepts over
    2pN points and satisfies: g has a dominating set of size <= k iff the
    class's recursive teaching dimension is <= k.
    """
    n = g.n
    _check_instance(n, k)
    gadget = build_gadget(k)
    p, q = gadget.p, gadget.q
    patterns = [c.bitstring() for c in gadget.klass.concepts]

    point_labels: list[str] = []
    point_map: list[PointRef] = []
    for v in range(n):
        for z in range(p):
            point_labels.append(f"(v{v + 1},z{z})")
            point_map.append(PointRef("VZ", v, z))
    for z in range(p):
        for v in range(n):
            point_labels.append(f"(z{z},v{v + 1})")
            point_map.append(PointRef("ZV", v, z))

    # Rows follow the point order above: VZ v-major, then ZV z-major.
    rows: list[str] = []
    concept_map: list[tuple[str, ConceptRef]] = []
    for pat in patterns:
        rows.append(pat * n + "1" * (p * n))
        concept_map.append((f"h{pat}", ConceptRef("constraint", None, pat)))
    for u in range(n):
        # VZ: 0 at (v, z) iff v dominates u.  ZV: the pattern in u's column, 0 elsewhere.
        vz = _undominated(g, u).translate({ord("0"): "0" * p, ord("1"): "1" * p})
        column = {ord("0"): "0" * n, ord("1"): "0" * u + "1" + "0" * (n - u - 1)}
        for pat in patterns:
            rows.append(vz + pat.translate(column))
            concept_map.append((f"{g.vertex_label(u)}.h{pat}", ConceptRef("vertex", u, pat)))

    klass = ConceptClass.from_rows(rows, [label for label, _ in concept_map], point_labels)
    if len(klass.concepts) != q * (n + 1) or klass.width != 2 * p * n:
        raise InvariantError(
            f"reduced class is {len(klass.concepts)} x {klass.width}, "
            f"expected {q * (n + 1)} x {2 * p * n}"
        )
    return ReductionOutput(
        klass, g, k, p, q, tuple(point_map), tuple(concept_map), gadget
    )


def witness_plan(out: ReductionOutput, dominating: Iterable[int]) -> TeachingPlan:
    """The explicit width-k teaching plan extracted from a k-size dominating set.

    Constraint concepts come first, each taught on the positional pairing of
    the dominating set with the member's support; then the vertex concepts,
    grouped by vertex, each taught on its support placed in the vertex's
    ZV column.  The result always passes `check_plan` at width <= k.
    """
    T = sorted(set(dominating))
    if len(T) != out.k:
        raise InvalidArgumentError(
            f"dominating set must have size exactly k = {out.k}, got {len(T)}"
        )
    if not out.graph.dominated_by(T):
        raise InvalidArgumentError(f"{[out.graph.vertex_label(v) for v in T]} does not dominate the graph")
    # `concept_map` is in class order: the constraints, then each vertex's
    # family, both in gadget order.
    sups = [tuple(_points(c.mask())) for c in out.gadget.klass.concepts]
    sets = [tuple(out.vz_index(v, z) for v, z in zip(T, sup, strict=True)) for sup in sups]
    sets += [tuple(out.zv_index(z, u) for z in sup) for u in range(out.graph.n) for sup in sups]
    return TeachingPlan(tuple(zip((label for label, _ in out.concept_map), sets, strict=True)))


def extract_domset(
    out: ReductionOutput, pattern: str, points: Iterable[int]
) -> tuple[int, ...]:
    """Decode a small teaching set of a constraint concept into a dominating set.

    `points` must be a teaching set of the constraint concept for `pattern`
    with respect to the full reduced class, of size <= k.  The construction
    forces such a set to live in the VZ block and to show only ones; its
    vertex projection is then a dominating set of size <= k, which is
    verified before returning.  Any violation raises SoundnessViolationError,
    since it would contradict the reduction's guarantee.
    """
    label = out.constraint_label(pattern)
    if not (len(pattern) == out.p and all(ch in "01" for ch in pattern)):
        raise InvalidArgumentError(f"pattern {pattern!r} is not a length-{out.p} bitstring")
    try:
        concept = out.klass.concept(label)
    except InvalidArgumentError:
        raise InvalidArgumentError(
            f"pattern {pattern!r} is not a gadget member of this reduction"
        ) from None
    pts = _check_indices(points, out.klass.width)
    if len(pts) > out.k:
        raise SoundnessViolationError(
            f"teaching set has size {len(pts)} > k = {out.k}"
        )
    if not is_teaching_set(concept, out.klass, pts):
        raise SoundnessViolationError(
            f"{sorted(pts)} is not a teaching set of {label!r} in the reduced class"
        )
    for i in pts:
        ref = out.point_map[i]
        if ref.block != "VZ":
            raise SoundnessViolationError(
                f"teaching set touches the ZV block at index {i}, "
                "contradicting the construction's soundness argument"
            )
        if not concept.mask() >> i & 1:
            raise SoundnessViolationError(
                f"teaching set shows a zero of {label!r} at index {i}"
            )
    T = tuple(sorted({out.point_map[i].vertex for i in pts}))
    if not out.graph.dominated_by(T):
        raise SoundnessViolationError(
            f"projected set {[out.graph.vertex_label(v) for v in T]} does not dominate the graph"
        )
    return T


def check_observations(
    out: ReductionOutput,
    *,
    max_sets: int = DEFAULT_MAX_OBSERVATION_SETS,
) -> ObservationReport:
    """Replay the two block-projection facts the construction relies on.

    For point sets S up to size k+1 (exhaustively when the count fits in
    `max_sets`, otherwise on a sample drawn from `random.Random(0)`):

      * S teaches a constraint concept within the constraint family iff the
        z-projection of S's VZ part teaches the pattern within the gadget;
      * S teaches a vertex concept (u, h) within u's family iff the
        z-projection of S's ZV part in column u teaches h within the gadget.

    Every (concept, set) pair gets its verdict, and the first mismatch,
    scanned concept-by-concept in class order and set by set within a
    concept, is reported as a counterexample; `sets_checked` counts the pairs
    up to and including it.

    The work is shared without skipping a pair.  Each set becomes one point
    mask s.  A family's `support` is the OR of the XORs of its actual class
    rows, so every difference mask d of the family lies inside it and
    d & s == d & (s & support): the left side depends on s & support only.
    The z-projection reads only the concept's block `sel` (VZ, or the ZV
    column u), so the right side depends on s & sel only.  Because `support`
    comes from the rows, not from the intended layout, a tampered bit
    anywhere in a family's rows enters its key s & (support | sel) and is
    still caught.  Two key points with the same column over the family's
    rows and the same z-bit (0 outside sel) split the rows alike and project
    to the same z, so the verdicts depend only on which such classes a set
    touches: each class set is decided once for every concept of the
    family, on its classes' lowest points.  In exhaustive mode that set is
    the first candidate touching exactly those classes (any other is, point
    by point, at least as high), so its size-then-lex index gives
    `sets_checked` and no candidate is listed.  A sampled set can fail only
    if its class set does, so a family whose class sets fit in `max_sets`
    (an untampered one has 2k+1 classes) decides them all, and the sample,
    drawn once per call, only locates a failing one: an untampered
    reduction's replay draws no random numbers.  A family with more class
    sets (only a tampered class has one) decides just the sampled ones.

    The verdicts read only a family's shape: its classes (column and z-bit),
    its concepts' gadget members and, when only sampled class sets are
    decided, those sets.  Each distinct shape is decided once per call, one
    for all N+1 families of an untampered reduction, and a failing class set
    is mapped back to the family's own points only to locate it.
    """
    if max_sets < 0:
        raise InvalidArgumentError(f"max_sets must be >= 0, got {max_sets}")
    width = out.klass.width
    # No set is larger than the domain.
    limit = min(out.k + 1, width)
    total = sum(comb(width, s) for s in range(limit + 1))
    exhaustive = total <= max_sets
    bits = [1 << i for i in range(width)]
    n_sets = total if exhaustive else max_sets + 1
    set_masks: list[int] = []  # the empty set, then the sample, drawn on first use

    def first_sampled(keymask: int, low: dict[int, int]) -> dict[int, tuple[int, int]]:
        # Class set -> (index, mask) of the first sampled set touching exactly
        # it.  Sets are sorted and duplicate-free, so a mask gives its tuple back.
        if not set_masks:
            rng = random.Random(0)
            set_masks.append(0)
            for _ in range(max_sets):
                s = rng.randint(1, limit)
                set_masks.append(sum(bits[i] for i in rng.sample(range(width), s)))
        first: dict[int, tuple[int, int]] = {}
        # Built from the last set to the first, so each key keeps its first index.
        keys = dict(zip(map(keymask.__and__, reversed(set_masks)), range(n_sets - 1, -1, -1)))
        for key, idx in keys.items():
            cs = sum({low[i] for i in _points(key)})
            first[cs] = min(first.get(cs, (n_sets, 0)), (idx, set_masks[idx]))
        return first

    gmasks = [c.mask() for c in out.gadget.klass.concepts]
    pattern_index = {c.bitstring(): i for i, c in enumerate(out.gadget.klass.concepts)}
    zbit = [1 << ref.zpoint for ref in out.point_map]
    masks = [out.klass.row_mask(i) for i in range(len(out.klass.concepts))]
    # One family per vertex, None for the constraints; its concepts share `support` and `sel`.
    families: dict[int | None, list[int]] = {}
    for ci, (_, ref) in enumerate(out.concept_map):
        families.setdefault(ref.vertex, []).append(ci)

    first_fail: dict[int, tuple[int, int]] = {}  # concept -> (index, mask) of its first failing set
    gadget_taught: dict[int, list[bool]] = {}  # z-mask -> which gadget members it teaches
    failing: dict[tuple, list[tuple[int, list[int]]]] = {}  # shape -> (class set, family positions)
    for vertex, family in families.items():
        rows = [masks[cj] for cj in family]
        support = 0
        for row in rows:
            support |= row ^ rows[0]
        if vertex is None:
            sel = (1 << out.graph.n * out.p) - 1  # the VZ block
        else:
            sel = sum(1 << out.zv_index(z, vertex) for z in range(out.p))
        keymask = support | sel
        # A key point's class is its column over the rows and its z-bit (0
        # outside sel).  Class j, the j-th by lowest point, is bit j of a
        # class set; `low` maps each key point to its class's bit.
        classes: dict[tuple, int] = {}  # (column, z-bit) -> bit
        low: dict[int, int] = {}
        lowest: dict[int, int] = {}  # bit -> the class's lowest point
        for i in _points(keymask):
            column = tuple(row >> i & 1 for row in rows)
            low[i] = classes.setdefault((column, zbit[i] if sel >> i & 1 else 0), bits[len(classes)])
            lowest.setdefault(low[i], i)
        # A family whose class sets fit in `max_sets` (they do whenever
        # `total` does) decides them all; otherwise each sampled one maps to
        # (index, mask) of the first sampled set that touches exactly it.
        fits = sum(comb(len(classes), s) for s in range(limit + 1)) <= max_sets
        first = None if fits else first_sampled(keymask, low)
        # The verdicts read only the shape, so each distinct one is decided once.
        gis = tuple(pattern_index[out.concept_map[ci][1].pattern] for ci in family)
        shape = (tuple(classes), gis, first and tuple(first))
        if shape not in failing:
            class_bits = bits[: len(classes)]
            sets = first or [sum(c) for s in range(limit + 1) for c in itertools.combinations(class_bits, s)]
            crows = [sum(b for (column, _), b in classes.items() if column[r]) for r in range(len(rows))]
            class_z = [z for _, z in classes]
            zmasks = [sum({class_z[j] for j in _points(c)}) for c in sets]
            zs = [z for z in dict.fromkeys(zmasks) if z not in gadget_taught]
            gadget_taught.update(zip(zs, _taught(gmasks, zs)))
            rhs_of = {z: [gadget_taught[z][gi] for gi in gis] for z in set(zmasks)}
            failing[shape] = [
                (c, [pos for pos, (left, right) in enumerate(zip(lhs, rhs_of[z])) if left != right])
                for c, lhs, z in zip(sets, _taught(crows, sets), zmasks)
                if lhs != rhs_of[z]
            ]
        located = None
        for c, positions in failing[shape]:
            if exhaustive:
                # The first candidate touching exactly these classes takes their lowest points.
                pts = [lowest[bits[j]] for j in _points(c)]
                found = (_set_index(pts, width), sum(map(bits.__getitem__, pts)))
            elif first:
                found = first[c]
            else:
                located = located or first_sampled(keymask, low)
                if (found := located.get(c)) is None:
                    continue  # no sampled set touches exactly these classes
            for ci in map(family.__getitem__, positions):
                first_fail[ci] = min(first_fail.get(ci, found), found)
    if first_fail:
        ci = min(first_fail)
        idx, mask = first_fail[ci]
        return ObservationReport(
            ci * n_sets + idx + 1, exhaustive, (out.concept_map[ci][0], tuple(_points(mask)))
        )
    return ObservationReport(len(out.concept_map) * n_sets, exhaustive, None)


def _set_index(points: Sequence[int], width: int) -> int:
    """Index of sorted `points` among the subsets of range(width), by size, then lex.

    Later sets of its size are counted as in Knuth, TAOCP 4A, 7.2.1.3.
    """
    s = len(points)
    before = sum(comb(width, t) for t in range(s + 1)) - 1
    return before - sum(comb(width - 1 - c, s - j) for j, c in enumerate(points))


# -- sidecar metadata --------------------------------------------------------


def metadata_json(out: ReductionOutput) -> str:
    """Deterministic JSON sidecar describing a reduced instance."""
    doc = {
        "kind": "domset-to-rtd",
        "k": out.k,
        "vertices": out.graph.n,
        "z_points": out.p,
        "gadget_size": out.q,
        "num_concepts": len(out.klass.concepts),
        "num_points": out.klass.width,
        "graph": {
            "n": out.graph.n,
            "edges": [list(e) for e in sorted(out.graph.edges)],
        },
        "points": [
            {
                "index": i,
                "label": out.klass.domain[i],
                "block": ref.block,
                "vertex": ref.vertex,
                "zpoint": ref.zpoint,
            }
            for i, ref in enumerate(out.point_map)
        ],
        "concepts": [
            {
                "label": label,
                "kind": ref.kind,
                "vertex": ref.vertex,
                "pattern": ref.pattern,
            }
            for label, ref in out.concept_map
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def shinohara_metadata_json(result: ShinoharaResult, g: Graph) -> str:
    doc = {
        "kind": "shinohara",
        "vertices": g.n,
        "star": result.star_label,
        "num_concepts": len(result.klass.concepts),
        "merged": [
            {"kept": kept, "vertices": list(vs)} for kept, vs in result.merges
        ],
        "graph": {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
