"""The weight-k pattern class used to replicate concepts in the reduction.

For a parameter k the class consists of every length-(2k+1) bit vector with
exactly k ones, over points z0..z{2k}.  Three properties make it useful:
every member needs exactly k points to teach, every k-point teaching set
shows only ones, and adding the all-one vector pushes every member's
teaching-set size past k.  `verify_gadget` checks all three exhaustively.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb

from .errors import InvalidArgumentError, InvariantError
from .model import Concept, ConceptClass
from .teaching import min_teaching_set

DEFAULT_K_CAP = 6  # C(13, 6) = 1716 concepts at the cap


@dataclass(frozen=True)
class Gadget:
    """k, the domain size p = 2k+1, the class size q = C(p, k), and the class.

    `build_gadget` outputs always satisfy the documented shape; the record
    itself stays permissive so damaged instances can be fed to
    `verify_gadget` in tests.
    """

    k: int
    p: int
    q: int
    klass: ConceptClass


@dataclass(frozen=True)
class GadgetReport:
    """Outcome of the three property checks, with the first counterexample.

    `counterexample` is (property number, concept label, point set) for the
    first failure in property order, or None when all three hold.
    """

    property1: bool
    property2: bool
    property3: bool
    counterexample: tuple[int, str, tuple[int, ...]] | None

    @property
    def ok(self) -> bool:
        return self.property1 and self.property2 and self.property3


def build_gadget(k: int, *, cap: int = DEFAULT_K_CAP) -> Gadget:
    """All weight-k bit vectors of length 2k+1, ordered by their support sets.

    k = 0 is rejected (a one-point, one-concept class is useless downstream)
    and k above the cap is rejected to keep exhaustive verification cheap.
    """
    if not isinstance(k, int) or k < 1:
        raise InvalidArgumentError(f"k must be a positive integer, got {k!r}")
    if k > cap:
        raise InvalidArgumentError(f"k = {k} exceeds the gadget cap of {cap}")
    p = 2 * k + 1
    rows = []
    for support in itertools.combinations(range(p), k):
        rows.append("".join("1" if i in support else "0" for i in range(p)))
    klass = ConceptClass.from_rows(rows, point_labels=[f"z{i}" for i in range(p)])
    q = comb(p, k)
    if len(klass.concepts) != q:
        raise InvariantError(f"gadget has {len(klass.concepts)} members, expected C({p}, {k}) = {q}")
    return Gadget(k, p, q, klass)


def ones_extension(klass: ConceptClass) -> ConceptClass:
    """The class with the all-one concept appended, labelled by its bitstring."""
    ones = Concept("1" * klass.width if klass.width else "ones", (1,) * klass.width)
    return ConceptClass(klass.domain, klass.concepts + (ones,))


def verify_gadget(g: Gadget) -> GadgetReport:
    """Exhaustively check the three defining properties of a gadget.

    Property 1: every member's minimum teaching set has size exactly k.
    Property 2: every k-point teaching set of a member restricts it to ones.
    Property 3: with the all-one vector added, every member needs > k points.
    """
    k = g.k
    klass = g.klass
    p1 = p2 = p3 = True
    counter: tuple[int, str, tuple[int, ...]] | None = None
    for c in klass.concepts:
        ts = min_teaching_set(c, klass)
        if ts.size != k:
            p1 = False
            if counter is None:
                counter = (1, c.label, ts.witness)
            break
    # S teaches c iff no other row shares c's projection row & S, so count
    # each projection once per set; c has a zero on S iff c & S != S.
    rows = list(map(klass.row_mask, range(len(klass.concepts))))
    first: dict[int, tuple[int, ...]] = {}  # concept index -> its first failing set
    for points in itertools.combinations(range(klass.width), k):
        s = sum(1 << i for i in points)
        lone = {v for v, n in Counter(r & s for r in rows).items() if n == 1 and v != s}
        if lone:
            for ci, r in enumerate(rows):
                if r & s in lone:
                    first.setdefault(ci, points)
    if first:
        p2 = False
        ci = min(first)
        if counter is None:
            counter = (2, klass.concepts[ci].label, first[ci])
    extended = ones_extension(klass)
    for c in klass.concepts:
        ts = min_teaching_set(c, extended)
        if ts.size < k + 1:
            p3 = False
            if counter is None:
                counter = (3, c.label, ts.witness)
            break
    return GadgetReport(p1, p2, p3, counter)
