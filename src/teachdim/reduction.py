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
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from .errors import InvalidArgumentError, InvariantError, SoundnessViolationError
from .gadget import DEFAULT_K_CAP, Gadget, build_gadget
from .graph import Graph, dominates
from .model import Concept, ConceptClass, DomainPoint, TeachingPlan, is_teaching_set


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
    """The reduced concept class plus everything needed to interpret it."""

    klass: ConceptClass
    graph: Graph
    k: int
    p: int
    q: int
    point_map: tuple[PointRef, ...]
    concept_map: tuple[tuple[str, ConceptRef], ...]

    def __post_init__(self):
        object.__setattr__(self, "_refs", dict(self.concept_map))

    @property
    def n_vertices(self) -> int:
        return self.graph.n

    def concept_ref(self, label: str) -> ConceptRef:
        try:
            return self._refs[label]  # type: ignore[attr-defined]
        except KeyError:
            raise InvalidArgumentError(f"no concept labelled {label!r} in reduction") from None

    def vz_index(self, v: int, z: int) -> int:
        """Domain index of the VZ-block point (v, z)."""
        return v * self.p + z

    def zv_index(self, z: int, v: int) -> int:
        """Domain index of the ZV-block point (z, v)."""
        return self.n_vertices * self.p + z * self.n_vertices + v

    def constraint_label(self, pattern: str) -> str:
        return f"h{pattern}"

    def vertex_concept_label(self, u: int, pattern: str) -> str:
        return f"{self.graph.vertex_label(u)}.h{pattern}"


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
    """Result of replaying the two projection observations on sampled sets."""

    sets_checked: int
    exhaustive: bool
    counterexample: tuple[str, tuple[int, ...]] | None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def nu_pairing(a: Sequence, b: Sequence) -> tuple[tuple, ...]:
    """Positional pairing of two equal-size sequences, in their given orders.

    Both projections of the result are onto: the first one equals `a`, the
    second equals `b`.
    """
    if len(a) != len(b):
        raise InvalidArgumentError(
            f"pairing requires equal sizes, got {len(a)} and {len(b)}"
        )
    return tuple(zip(a, b))


def shinohara_reduce(g: Graph) -> ShinoharaResult:
    """One concept per vertex (0 where dominated) plus the all-one concept.

    A point set teaches the all-one concept exactly when the corresponding
    vertex set dominates the graph, so its minimum teaching-set size equals
    the graph's domination number.  Vertices with identical rows are merged
    before construction and reported.
    """
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
    domain = tuple(DomainPoint(i, g.vertex_label(i)) for i in range(g.n))
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


def domset_to_rtd(g: Graph, k: int, *, gadget_cap: int = DEFAULT_K_CAP) -> ReductionOutput:
    """Build the reduced concept class for the instance (g, k).

    Requires 1 <= k <= N and N >= 2; the output has q(N+1) concepts over
    2pN points and satisfies: g has a dominating set of size <= k iff the
    class's recursive teaching dimension is <= k.
    """
    n = g.n
    if n < 2:
        raise InvalidArgumentError("reduction requires at least 2 vertices")
    if not (1 <= k <= n):
        raise InvalidArgumentError(f"k must lie in 1..{n}, got {k}")
    gadget = build_gadget(k, cap=gadget_cap)
    p, q = gadget.p, gadget.q
    patterns = [c.bitstring() for c in gadget.klass.concepts]

    points: list[DomainPoint] = []
    point_map: list[PointRef] = []
    for v in range(n):
        for z in range(p):
            points.append(DomainPoint(len(points), f"(v{v + 1},z{z})"))
            point_map.append(PointRef("VZ", v, z))
    for z in range(p):
        for v in range(n):
            points.append(DomainPoint(len(points), f"(z{z},v{v + 1})"))
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
        klass, g, k, p, q, tuple(point_map), tuple(concept_map)
    )


def _gadget_of(out: ReductionOutput) -> Gadget:
    return build_gadget(out.k)


def _support_of(pattern: str) -> tuple[int, ...]:
    return tuple(i for i, ch in enumerate(pattern) if ch == "1")


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
    for v in T:
        if not (0 <= v < out.n_vertices):
            raise InvalidArgumentError(f"vertex {v} outside the graph")
    full = (1 << out.n_vertices) - 1
    covered = 0
    for v in T:
        covered |= out.graph.closed_neighborhood_mask(v)
    if covered != full:
        raise InvalidArgumentError(f"{[out.graph.vertex_label(v) for v in T]} does not dominate the graph")
    steps: list[tuple[str, tuple[int, ...]]] = []
    gadget = _gadget_of(out)
    supports = [_support_of(c.bitstring()) for c in gadget.klass.concepts]
    patterns = [c.bitstring() for c in gadget.klass.concepts]
    for pat, sup in zip(patterns, supports):
        pairs = nu_pairing(T, list(sup))
        steps.append(
            (out.constraint_label(pat), tuple(out.vz_index(v, z) for v, z in pairs))
        )
    for u in range(out.n_vertices):
        for pat, sup in zip(patterns, supports):
            steps.append(
                (out.vertex_concept_label(u, pat), tuple(out.zv_index(z, u) for z in sup))
            )
    return TeachingPlan(tuple(steps))


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
    pts = tuple(sorted(set(points)))
    for i in pts:
        if not (0 <= i < out.klass.width):
            raise InvalidArgumentError(f"point index {i} out of range")
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
        if concept.values[i] != 1:
            raise SoundnessViolationError(
                f"teaching set shows a zero of {label!r} at index {i}"
            )
    T = tuple(sorted({out.point_map[i].vertex for i in pts}))
    full = (1 << out.n_vertices) - 1
    covered = 0
    for v in T:
        covered |= out.graph.closed_neighborhood_mask(v)
    if covered != full:
        raise SoundnessViolationError(
            f"projected set {[out.graph.vertex_label(v) for v in T]} does not dominate the graph"
        )
    return T


def check_observations(
    out: ReductionOutput,
    *,
    max_size: int | None = None,
    max_sets: int = 250_000,
    seed: int = 0,
) -> ObservationReport:
    """Replay the two block-projection facts the construction relies on.

    For point sets S up to size k+1 (exhaustively when the count fits in
    `max_sets`, otherwise on a seeded deterministic sample):

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
    column u), so the right side depends on s & sel only.  Sets with equal
    key s & (support | sel) thus get equal verdicts, and each distinct key
    is decided once for every concept of the family.  A concept's first
    failing set is the first set whose key fails.  Because `support` comes
    from the rows, not from the intended layout, a tampered bit anywhere in
    a family's rows enters its key and is still caught.
    """
    if max_sets < 0:
        raise InvalidArgumentError(f"max_sets must be >= 0, got {max_sets}")
    if max_size is not None and max_size < 0:
        raise InvalidArgumentError(f"max_size must be >= 0, got {max_size}")
    width = out.klass.width
    # No set is larger than the domain, so a larger cap means the width.
    limit = min(out.k + 1 if max_size is None else max_size, width)
    total = sum(comb(width, s) for s in range(limit + 1))
    exhaustive = total <= max_sets
    bits = [1 << i for i in range(width)]
    # Candidate sets as point masks: by size, then lexicographically, or the
    # empty set followed by the sample.  Sets are sorted and duplicate-free,
    # so a mask gives its tuple back.
    set_masks: list[int] = []
    if exhaustive:
        for s in range(limit + 1):
            set_masks.extend(map(sum, itertools.combinations(bits, s)))
    else:
        rng = random.Random(seed)
        set_masks.append(0)
        for _ in range(max_sets):
            s = rng.randint(1, limit)
            set_masks.append(sum(bits[i] for i in rng.sample(range(width), s)))
    n_sets = len(set_masks)

    gadget = _gadget_of(out)
    gmasks = [c.mask() for c in gadget.klass.concepts]
    pattern_index = {c.bitstring(): i for i, c in enumerate(gadget.klass.concepts)}
    zbit = [1 << ref.zpoint for ref in out.point_map]
    masks = [out.klass.row_mask(i) for i in range(len(out.klass.concepts))]
    families: dict[int | None, list[int]] = {}
    # Concepts of one family and one kind share `support` and `sel`.
    units: dict[tuple[int | None, str], list[int]] = {}
    for ci, (_, ref) in enumerate(out.concept_map):
        families.setdefault(ref.vertex, []).append(ci)
        units.setdefault((ref.vertex, ref.kind), []).append(ci)

    first_fail: dict[int, int] = {}
    for (vertex, kind), unit in units.items():
        family = families[vertex]
        rows = [masks[cj] for cj in family]
        support = 0
        for row in rows:
            support |= row ^ rows[0]
        if kind == "constraint":
            sel = sum(bits[i] for i, ref in enumerate(out.point_map) if ref.block == "VZ")
        else:
            sel = sum(
                bits[i]
                for i, ref in enumerate(out.point_map)
                if ref.block == "ZV" and ref.vertex == vertex
            )
        keymask = support | sel
        # Built from the last set to the first, so each key keeps its first index.
        first = dict(zip(map(keymask.__and__, reversed(set_masks)), range(n_sets - 1, -1, -1)))
        at = [family.index(ci) for ci in unit]
        gis = [pattern_index[out.concept_map[ci][1].pattern] for ci in unit]
        rhs_of: dict[int, list[bool]] = {}
        for key, idx in first.items():
            # S teaches a member iff no other member agrees with it on S.
            projs = [row & key for row in rows]
            seen = Counter(projs)
            lhs = [seen[projs[j]] == 1 for j in at]
            zmask = 0
            rest = key & sel
            while rest:
                low = rest & -rest
                zmask |= zbit[low.bit_length() - 1]
                rest ^= low
            rhs = rhs_of.get(zmask)
            if rhs is None:
                gprojs = [gm & zmask for gm in gmasks]
                gseen = Counter(gprojs)
                rhs = rhs_of[zmask] = [gseen[gprojs[gi]] == 1 for gi in gis]
            if lhs != rhs:
                for ci, left, right in zip(unit, lhs, rhs):
                    if left != right and idx < first_fail.get(ci, n_sets):
                        first_fail[ci] = idx
    if first_fail:
        ci = min(first_fail)
        idx = first_fail[ci]
        combo = tuple(i for i in range(width) if set_masks[idx] >> i & 1)
        return ObservationReport(
            ci * n_sets + idx + 1, exhaustive, (out.concept_map[ci][0], combo)
        )
    return ObservationReport(len(out.concept_map) * n_sets, exhaustive, None)


# -- sidecar metadata --------------------------------------------------------


def metadata_json(out: ReductionOutput) -> str:
    """Deterministic JSON sidecar describing a reduced instance."""
    doc = {
        "kind": "domset-to-rtd",
        "k": out.k,
        "vertices": out.n_vertices,
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
                "label": out.klass.domain[i].label,
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
