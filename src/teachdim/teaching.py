"""Exact algorithms for teaching sets, TD, TD_min and the recursive teaching dimension.

A point set S teaches concept c exactly when S hits, for every other concept
c', the mask of points where c and c' differ (an int, bit i = point i), so
every search runs one hitting-set kernel over those masks.  Every witness is
the lexicographically least of the minimum-size teaching sets, and RTD is one
stripping pass in class order that raises k only when a round strips
nothing, so every result is reproducible.  The subset oracle at the end
shares none of this, so it can check RTD independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import takewhile
from operator import or_
from .errors import CapacityError, InvalidArgumentError, InvariantError
from .model import Concept, ConceptClass, TeachingPlan, _points

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


def _packing(masks: list[int], chosen: int, allowed: int, r: int) -> tuple[int, int | None, int]:
    """Greedily pack the unhit masks' live parts, pairwise disjoint, and stop past r.

    A mask is unhit while it misses `chosen`, and its live part is its points in `allowed`.
    Returns the count, as each packed part needs its own point, the first unhit live
    part, None if there is none, and the packed union.
    """
    count = 0
    first = None
    taken = chosen  # a mask that misses chosen and the packed parts is unhit and packs
    for m in masks:
        if not m & taken:
            live = m & allowed
            if not count:
                first = live
            count += 1
            if count > r:
                break
            taken |= live
    return count, first, taken ^ chosen


def _small_hitting_set(masks: list[int], r: int, chosen: int, allowed: int = -1) -> int | None:
    """`chosen` plus at most r points of `allowed` that hit every mask, as a bitmask, or None.

    A bounded search tree (Niedermeier 2006) that branches on each point of the first
    unhit mask, lowest first, leaving its lower points out of later branches.  Its
    nodes (chosen, allowed, r) sit on an explicit stack, and none copies the masks.
    """
    stack = [(chosen, allowed, r)]
    while stack:
        chosen, allowed, r = stack.pop()
        if r == 1:  # one AND pass: a point every unhit mask shares
            common = allowed  # negative, as `allowed` is, until a mask is unhit
            for m in masks:
                if not m & chosen and not (common := common & m):
                    break
            else:
                return chosen if common < 0 else chosen | common & -common
            continue
        count, d, _ = _packing(masks, chosen, allowed, r)
        if d is None:
            return chosen
        if count <= r:
            for i in reversed(range(d.bit_length())):
                if d >> i & 1:
                    stack.append((chosen | 1 << i, allowed & ~(d & ((1 << i) - 1)), r - 1))
    return None


def _min_hitting_set(diffs: list[int], budget: int, lex: bool = True) -> tuple[int, tuple | int | None]:
    """Deepen from the packing bound to the least size of a set hitting every mask.

    Returns that size and the lexicographically least such set as points, or
    without `lex` some such set as a bitmask.  Above `budget` the set is None
    and the size is the least one not ruled out: the packing count, or budget + 1.
    """
    masks = sorted(diffs, key=int.bit_count)
    chosen = reduce(or_, takewhile(lambda m: not m & m - 1, masks), 0)  # one-point masks lead
    size = _packing(masks, 0, -1, len(masks))[0]
    while size <= budget and (found := _small_hitting_set(masks, size - chosen.bit_count(), chosen)) is None:
        size += 1
    if size > budget or not lex:
        return size, found if size <= budget else None
    # Every hitting set holds the one-point masks.  Fix the others in order: the lowest
    # q below found's lowest point after which left - 1 points above q hit the masks
    # q misses, else that point.  Only packed points fit if the packing needs all `left`.
    found ^= chosen
    left = size - chosen.bit_count()
    allowed = -1
    while left:
        count, _, packed = _packing(masks, chosen, allowed, left)
        p = (found & -found).bit_length() - 1
        union = packed if count == left else reduce(or_, (m for m in masks if not m & chosen)) & allowed
        fits = union & ((1 << p) - 1)
        while fits:
            q = (fits & -fits).bit_length() - 1
            rest = _small_hitting_set(masks, left - 1, chosen | 1 << q, -1 << q + 1)
            if rest is not None:
                p, found = q, rest ^ chosen
                break
            fits &= fits - 1
        chosen |= 1 << p
        found ^= 1 << p
        left -= 1
        allowed = -1 << p + 1
    return size, tuple(_points(chosen))


def _diffs(rows: list[int], own: int) -> list[int]:
    """The masks where `own`, one of the distinct `rows`, differs from each other row."""
    diffs = [m ^ own for m in rows]
    diffs.remove(0)
    return diffs


def min_teaching_set(c: Concept, klass: ConceptClass) -> TsResult:
    """Smallest teaching set of `c`, a member of `klass`.

    The witness is the lexicographically least of the minimum-size ones.
    """
    rows = list(map(klass.row_mask, range(len(klass.concepts))))
    diffs = _diffs(rows, rows[klass.member_index(c)])
    return TsResult(*_min_hitting_set(diffs, klass.width))  # the whole domain hits every mask


def _first_extreme(klass: ConceptClass, pick, what: str) -> tuple[int, str]:
    if not klass.concepts:
        raise InvalidArgumentError(f"{what} of an empty class is undefined")
    rows = list(map(klass.row_mask, range(len(klass.concepts))))
    sizes = [_min_hitting_set(_diffs(rows, own), klass.width, lex=False)[0] for own in rows]
    return pick(sizes), klass.concepts[sizes.index(pick(sizes))].label


def teaching_dim(klass: ConceptClass) -> tuple[int, str]:
    """Maximum TS over the class and the first concept attaining it."""
    return _first_extreme(klass, max, "teaching dimension")


def td_min(klass: ConceptClass) -> tuple[int, str]:
    """Minimum TS over the class and the first concept attaining it."""
    return _first_extreme(klass, min, "TD_min")


def rtd_decision(klass: ConceptClass, k: int) -> tuple[bool, TeachingPlan | None]:
    """Decide RTD(klass) <= k by repeatedly stripping an easy-to-teach concept.

    Each round strips the first remaining concept, in class order, with a
    teaching set of size <= k against the remaining class.  Returns (True, plan)
    if the class empties, else (False, None).  The outcome does not depend on
    the strip order.
    """
    if k < 0:
        raise InvalidArgumentError("k must be non-negative")
    _, plan = _strip_decision(klass, k, k)
    return plan is not None, plan


def _strip_decision(
    klass: ConceptClass, k: int, top: int, lex: bool = True
) -> tuple[int, TeachingPlan | None]:
    """Strip as rtd_decision does, but when a round strips nothing raise k, up to `top`,
    to the least size its failed searches left open: no k in between strips anything.

    Without `lex` each step's set is some teaching set of at most k points, not
    the lex-min one.  Which concept a round strips never depends on its set, so
    k and whether a plan exists are the same either way.
    """
    rows = list(map(klass.row_mask, range(len(klass.concepts))))
    remaining = list(range(len(rows)))
    steps: list[tuple[str, tuple[int, ...]]] = []
    while remaining:
        alive = [rows[j] for j in remaining]
        bound = top
        for ci in remaining:
            size, witness = _min_hitting_set(_diffs(alive, rows[ci]), k, lex)
            if witness is not None:
                steps.append((klass.concepts[ci].label, witness if lex else tuple(_points(witness))))
                remaining.remove(ci)
                break
            bound = min(bound, size)
        else:
            if k == top:
                return k, None
            if bound > len(remaining).bit_length() - 1:  # TD_min(C) <= log2 |C|
                raise InvariantError(f"k raised to {bound}, above log2 |C| for |C| = {len(remaining)}")
            k = bound
    return k, TeachingPlan(tuple(steps))


def rtd(klass: ConceptClass) -> RtdResult:
    """Exact RTD: one stripping pass that raises k only when a round strips nothing.

    The pass starts at the least k the columns allow: 0 for at most one concept,
    1 when a column holds one concept's value alone, else 2; no smaller k strips
    anything.  Removing concepts never makes one harder to teach, so k stops at
    RTD(klass).
    """
    n = len(klass.concepts)
    start = 0 if n < 2 else 1 if any(col.bit_count() in (1, n - 1) for col in klass.columns()) else 2
    value, plan = _strip_decision(klass, start, klass.width)
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
    if cap < 0:
        raise InvalidArgumentError(f"cap must be >= 0, got {cap}")
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
    columns = set(klass.columns())
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
