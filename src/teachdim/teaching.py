"""Exact algorithms for teaching sets, TD, TD_min and the recursive teaching dimension.

The workhorse view: a point set S is a teaching set for concept c exactly
when S hits, for every competing concept c', the set of points where c and
c' differ.  All searches therefore precompute per-pair difference masks
(ints, bit i = point i) and find small hitting sets with one kernel.  Every
witness is the lexicographically smallest of the minimum-size teaching sets,
and RTD is one stripping pass in class order that raises k only when a round
strips nothing, so every result is reproducible.  The subset oracle at the
end shares none of this, so it can check RTD independently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from .errors import CapacityError, InvalidArgumentError, InvariantError
from .model import Concept, ConceptClass, TeachingPlan

DEFAULT_SUBSET_ORACLE_CAP = 15


@dataclass(frozen=True)
class TsResult:
    """Minimum teaching-set size together with one witness achieving it."""

    size: int
    witness: tuple[int, ...]


@dataclass(frozen=True)
class RtdResult:
    """RTD value together with a teaching plan of exactly that width."""

    value: int
    plan: TeachingPlan


def _packing(masks: list[int]) -> tuple[int, int]:
    """Greedily packed pairwise-disjoint masks, each needing its own point: (count, union)."""
    count = packed = 0
    for m in masks:
        if not m & packed:
            count += 1
            packed |= m
    return count, packed


def _small_hitting_set(masks: list[int], r: int) -> int | None:
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
        if r > 1 and _packing(masks)[0] <= r:
            d = min(masks, key=int.bit_count)
            for i in reversed(range(d.bit_length())):
                if d >> i & 1:  # take point i, and leave out the points of d below it
                    keep = ~(d & ((1 << i) - 1))
                    child = [m & keep for m in masks if not m >> i & 1]
                    stack.append((child, r - 1, chosen | 1 << i))
    return None


def _min_hitting_set(diffs: list[int], budget: int) -> tuple[list[int], int, int] | None:
    """Deepen from the packing bound to the least size of a set hitting every mask.

    Returns the distinct masks sorted by size, that size and one such set as a
    bitmask, or None above `budget`.
    """
    masks = sorted(set(diffs), key=int.bit_count)
    size = _packing(masks)[0]
    while size <= budget and (found := _small_hitting_set(masks, size)) is None:
        size += 1
    return None if size > budget else (masks, size, found)


def _lex_min_hitting_set(diffs: list[int], budget: int) -> tuple[int, ...] | None:
    """Smallest, then lexicographically least, set of bit positions hitting every mask.

    Returns None above `budget`.  Masks must be nonzero: equal rows never get here.
    """
    if (hit := _min_hitting_set(diffs, budget)) is None:
        return None
    masks, size, found = hit
    # Fix the least set point by point: the lowest q below found's lowest point
    # after which size - 1 points above q still hit the masks q misses, else
    # found's lowest point.  Only packed points fit if they need all `size`.
    chosen = 0
    while masks:
        p = (found & -found).bit_length() - 1
        count, packed = _packing(masks)
        fits = (packed if count == size else reduce(or_, masks)) & ((1 << p) - 1)
        while fits:
            q = (fits & -fits).bit_length() - 1
            cut = [m & (-1 << q + 1) for m in masks if not m >> q & 1]
            rest = _small_hitting_set(cut, size - 1)
            if rest is not None:
                p, found = q, rest | 1 << q
                break
            fits &= fits - 1
        chosen |= 1 << p
        found ^= 1 << p
        size -= 1
        masks = [m & (-1 << p + 1) for m in masks if not m >> p & 1]
    return tuple(i for i in range(chosen.bit_length()) if chosen >> i & 1)


def min_teaching_set(c: Concept, klass: ConceptClass) -> TsResult:
    """Smallest teaching set of `c`, a member of `klass`.

    The witness is the lexicographically least of the minimum-size ones.
    """
    witness = _teaching_search(klass, klass.member_index(c), _lex_min_hitting_set)
    return TsResult(len(witness), witness)


def _teaching_search(klass: ConceptClass, ci: int, search):
    """`search` over the difference masks of concept ci, with the whole domain as budget."""
    own = klass.row_mask(ci)
    diffs = [klass.row_mask(j) ^ own for j in range(len(klass.concepts)) if j != ci]
    if (found := search(diffs, klass.width)) is None:  # the whole domain separates distinct rows
        raise InvariantError(f"no teaching set found for {klass.concepts[ci].label!r}")
    return found


def _first_extreme(klass: ConceptClass, pick, what: str) -> tuple[int, str]:
    if not klass.concepts:
        raise InvalidArgumentError(f"{what} of an empty class is undefined")
    # Sizes only: the lex-min witness search is skipped.
    sizes = [_teaching_search(klass, ci, _min_hitting_set)[1] for ci in range(len(klass.concepts))]
    return pick(sizes), klass.concepts[sizes.index(pick(sizes))].label


def teaching_dim(klass: ConceptClass) -> tuple[int, str]:
    """Maximum TS over the class and the first concept attaining it."""
    return _first_extreme(klass, max, "teaching dimension")


def td_min(klass: ConceptClass) -> tuple[int, str]:
    """Minimum TS over the class and the first concept attaining it."""
    return _first_extreme(klass, min, "TD_min")


def rtd_decision(
    klass: ConceptClass, k: int, *, rng: random.Random | None = None
) -> tuple[bool, TeachingPlan | None]:
    """Decide RTD(klass) <= k by repeatedly stripping an easy-to-teach concept.

    Each round strips the first remaining concept, in class order, with a
    teaching set of size <= k against the remaining class.  Returns (True, plan)
    if the class empties, else (False, None).  The outcome does not depend on
    the strip order; `rng`, when given, shuffles every round's scan order.
    """
    if k < 0:
        raise InvalidArgumentError("k must be non-negative")
    _, plan = _strip_decision(klass, k, k, rng)
    return plan is not None, plan


def _strip_decision(
    klass: ConceptClass, k: int, top: int, rng: random.Random | None
) -> tuple[int, TeachingPlan | None]:
    """Strip as rtd_decision does, but raise k up to `top` when a round strips nothing."""
    masks = list(map(klass.row_mask, range(len(klass.concepts))))
    remaining = list(range(len(masks)))
    steps: list[tuple[str, tuple[int, ...]]] = []
    while remaining:
        order = remaining if rng is None else rng.sample(remaining, len(remaining))
        for ci in order:
            witness = _lex_min_hitting_set([masks[j] ^ masks[ci] for j in remaining if j != ci], k)
            if witness is not None:
                steps.append((klass.concepts[ci].label, witness))
                remaining.remove(ci)
                break
        else:
            if k == top:
                return k, None
            k += 1
    return k, TeachingPlan(tuple(steps))


def rtd(klass: ConceptClass) -> RtdResult:
    """Exact RTD: one stripping pass from k = 0, raising k only when a round strips nothing.

    Removing concepts never makes one harder to teach, so k stops at RTD(klass).
    """
    value, plan = _strip_decision(klass, 0, klass.width, None)
    return RtdResult(value, plan)


def rtd_oracle_subsets(klass: ConceptClass, *, cap: int = DEFAULT_SUBSET_ORACLE_CAP) -> int:
    """RTD via full subset enumeration: max over subclasses of their TD_min.

    Deliberately independent of the stripping procedure and the hitting-set
    kernel so the two can be checked against each other.  Every subclass is
    decided at once, level by level: at level t a subclass is easy when some
    member c has a point set T of size <= t whose agreement mask agree(c, T),
    the concepts equal to c on T, meets the subclass in c alone.  The answer
    is the first t at which every nonempty subclass is easy.  The 2^|C|
    subclasses are the bits of one int, so each level costs about
    |C| * 2^|C| bit operations, plus one step per pair of an agreement mask
    and a distinct column.  The enumeration is refused above `cap` concepts.
    """
    m = len(klass.concepts)
    if m > cap:
        raise CapacityError(
            f"subset oracle over {m} concepts exceeds the cap of {cap} "
            f"(2^{m} subclasses); raise the cap explicitly to force it"
        )
    if m == 0:
        return 0
    # Bit M of an int over 2^m bits stands for subclass M; lacks[i] marks every
    # M without concept i, and shifting by 2^i moves M to M minus concept i.
    n_sub = 1 << m
    lacks = []
    for i in range(m):
        bits, span = (1 << (1 << i)) - 1, 2 << i
        while span < n_sub:
            bits |= bits << span
            span <<= 1
        lacks.append(bits)
    full = n_sub - 1
    goal = (1 << n_sub) - 2  # every nonempty subclass
    # One-point agreement masks per concept; constant and repeated columns drop out.
    rows = [c.values for c in klass.concepts]
    columns = {sum(v << o for o, v in enumerate(col)) for col in zip(*rows)}
    singles = [{col if col >> c & 1 else full ^ col for col in columns} - {full} for c in range(m)]
    # level[c]: the values agree(c, T) first reached at |T| = t; seen[c]: all so far.
    level = [{full} for _ in range(m)]
    seen = [{full} for _ in range(m)]
    easy = 0  # subclasses whose TD_min is at most t
    t = 0
    while True:
        for c in range(m):
            # S teaches c within M iff agree(c, S) & M == 1 << c: M lies below
            # (full ^ A) | 1 << c and contains c.
            down = 0
            for a in level[c]:
                down |= 1 << (full ^ a | 1 << c)
            for i, lack in enumerate(lacks):
                down |= down >> (1 << i) & lack
            easy |= down & ~lacks[c]
        if easy == goal:
            return t
        t += 1
        for c in range(m):
            level[c] = {a & s for a in level[c] for s in singles[c]} - seen[c]
            seen[c] |= level[c]
        if not any(level):  # S = X always works within distinct rows
            raise InvariantError("no teaching set within the whole domain")
