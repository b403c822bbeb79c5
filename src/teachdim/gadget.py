"""The weight-k pattern class used to replicate concepts in the reduction.

For a parameter k the class consists of every length-(2k+1) bit vector with
exactly k ones, over points z0..z{2k}.  Three properties make it useful:
every member needs exactly k points to teach, every k-point teaching set
shows only ones, and adding the all-one vector pushes every member's
teaching-set size past k.  `verify_gadget` checks all three exhaustively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .errors import CapacityError, InvalidArgumentError, InvariantError
from .model import ConceptClass, _points, _taught

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

    k = 0 is rejected (a one-point, one-concept class is useless downstream),
    and k above the cap raises CapacityError to keep exhaustive verification
    cheap.
    """
    if not isinstance(k, int) or k < 1:
        raise InvalidArgumentError(f"k must be a positive integer, got {k!r}")
    if k > cap:
        raise CapacityError(f"k = {k} exceeds the gadget cap of {cap}")
    p = 2 * k + 1
    rows = []
    for support in itertools.combinations(range(p), k):
        rows.append("".join("1" if i in support else "0" for i in range(p)))
    klass = ConceptClass.from_rows(rows, point_labels=[f"z{i}" for i in range(p)])
    q = comb(p, k)
    if len(klass.concepts) != q:
        raise InvariantError(f"gadget has {len(klass.concepts)} members, expected C({p}, {k}) = {q}")
    return Gadget(k, p, q, klass)


def verify_gadget(g: Gadget) -> GadgetReport:
    """Exhaustively check the three defining properties of a gadget.

    Property 1: every member's minimum teaching set has size exactly k.
    Property 2: every k-point teaching set of a member restricts it to ones.
    Property 3: with the all-one vector added, every member needs > k points;
    a class that already holds that vector is its own extension.

    One sweep over point sets, by size and then lexicographically, decides
    all three without the solver; it goes past size k only until every
    member has a teaching set.  A member's first teaching set is its lex-min
    minimum one.  Beside the all-one row, a set still teaches a member iff it
    teaches it and shows a zero, or the member is that row.
    """
    k = g.k
    klass = g.klass
    rows = list(map(klass.row_mask, range(len(klass.concepts))))
    bits = [1 << i for i in range(klass.width)]
    ones = sum(bits)
    # Each maps a member index to the mask of its first set that teaches it: at
    # any size, at size k showing a zero, at size <= k beside the all-one row.
    first: dict[int, int] = {}
    shows_zero: dict[int, int] = {}
    beside_ones: dict[int, int] = {}
    size = 0
    while size <= min(k, klass.width) or len(first) < len(rows):
        sets = list(map(sum, itertools.combinations(bits, size)))
        for s, taught in zip(sets, _taught(rows, sets)):
            for ci in itertools.compress(range(len(rows)), taught):
                first.setdefault(ci, s)
                zero = rows[ci] & s != s
                if size <= k and (zero or rows[ci] == ones):
                    beside_ones.setdefault(ci, s)
                if size == k and zero:
                    shows_zero.setdefault(ci, s)
        size += 1
    wrong_size = {ci: s for ci, s in first.items() if s.bit_count() != k}
    counter: tuple[int, str, tuple[int, ...]] | None = None
    for prop, failed in enumerate((wrong_size, shows_zero, beside_ones), start=1):
        if failed:
            ci = min(failed)
            counter = (prop, klass.concepts[ci].label, tuple(_points(failed[ci])))
            break
    return GadgetReport(not wrong_size, not shows_zero, not beside_ones, counter)
