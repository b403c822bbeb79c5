"""Undirected simple graphs with closed-neighborhood domination queries.

Vertices are the indices 0..n-1 and print as "v1".."vN".  A vertex u
dominates v when u = v or they share an edge; a set dominates the graph when
every vertex is dominated by one of its members.  The search here is plain
exact enumeration, sized for n <= 20 and k <= 4.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import InvalidArgumentError, ParseError
from .model import _header


@dataclass(frozen=True)
class Graph:
    """n vertices and a symmetric, irreflexive edge set stored as (u, v) with u < v."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise InvalidArgumentError("vertex count must be non-negative")
        norm = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise InvalidArgumentError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidArgumentError(f"edge {e} outside vertex range 0..{self.n - 1}")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))
        masks = [1 << v for v in range(self.n)]
        for u, v in norm:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "_closed_nbr", tuple(masks))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return cls(n, frozenset((u, v) for u, v in edges))

    def vertex_label(self, v: int) -> str:
        return f"v{v + 1}"

    def closed_neighborhood_mask(self, v: int) -> int:
        return self._closed_nbr[v]  # type: ignore[attr-defined]

    def dominated_by(self, vertices: Iterable[int]) -> bool:
        """True iff every vertex is in `vertices` or adjacent to one of them."""
        covered = 0
        for v in vertices:
            if not (0 <= v < self.n):
                raise InvalidArgumentError(f"vertex {v} outside 0..{self.n - 1}")
            covered |= self._closed_nbr[v]  # type: ignore[attr-defined]
        return covered == (1 << self.n) - 1


def has_dominating_set(g: Graph, k: int) -> tuple[bool, tuple[int, ...] | None]:
    """Does some vertex set of size <= k dominate every vertex?

    Because supersets of dominating sets dominate, it is enough to try the
    sets of size exactly min(k, n); the witness is the lexicographically
    first one that works, already padded to that exact size.
    """
    if not (0 <= k <= g.n):
        raise InvalidArgumentError(f"k must lie in 0..{g.n}, got {k}")
    for combo in itertools.combinations(range(g.n), min(k, g.n)):
        if g.dominated_by(combo):
            return True, combo
    return False, None


def gen_random_graph(n: int, edge_probability: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi sample, part of the bit-exact interface.

    The generator is Python's `random.Random(seed)` (Mersenne Twister); the
    vertex pairs are visited in lexicographic order (0,1), (0,2), ...,
    (n-2,n-1) and pair (u, v) becomes an edge iff the next `random()` draw
    is < edge_probability.  Identical arguments always produce the same graph.
    """
    if n < 0:
        raise InvalidArgumentError("vertex count must be non-negative")
    if not (0.0 <= edge_probability <= 1.0):
        raise InvalidArgumentError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_probability:
                edges.add((u, v))
    return Graph(n, frozenset(edges))


# Text format: "<n> <m>" then m lines "<u> <v>" with 0-based endpoints, each edge
# once; '#' comments and blank lines allowed; serialization sorts the edge list.


def parse_graph(text: str) -> Graph:
    lineno, n, m, body_lines = _header(text, "'<n> <m>'")
    if len(body_lines) != m:
        raise ParseError(f"expected {m} edge lines, found {len(body_lines)}", lineno)
    edges: dict[tuple[int, int], int] = {}  # each edge, smaller end first, to its line
    for lineno, body in body_lines:
        toks = body.split()
        if len(toks) != 2:
            raise ParseError("edge line must be '<u> <v>'", lineno)
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", lineno) from None
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge ({u}, {v}) outside vertex range", lineno)
        e = (min(u, v), max(u, v))
        if e in edges:
            raise ParseError(f"duplicate edge ({u}, {v}) (first on line {edges[e]})", lineno)
        edges[e] = lineno
    return Graph.from_edges(n, edges)


def serialize_graph(g: Graph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
