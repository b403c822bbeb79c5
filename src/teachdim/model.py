"""Concept classes as boolean matrices, plus teaching plans and text formats.

A concept assigns a bit to every point of a finite ordered domain; a concept
class is a set of distinct concepts over one shared domain, stored row-wise.
A teaching plan orders the concepts and attaches to each one a set of domain
points intended to separate it from the concepts not yet taught; the plan's
width is the largest such set.

Everything here is immutable after construction and safe to share between
threads; all operations are pure functions of their inputs.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from .errors import (
    InvalidArgumentError,
    InvalidPlanError,
    MalformedPlanError,
    ParseError,
)


def _check_label(label: str, what: str) -> None:
    if not isinstance(label, str) or not label or label.split() != [label] or "#" in label:
        raise InvalidArgumentError(
            f"{what} label {label!r} must be a non-empty, whitespace-free and '#'-free string"
        )


_BIT_CHARS = bytes.maketrans(b"\0\1", b"01")  # the bytes 0 and 1 to the characters "0" and "1"


def _bitstring(values: Iterable[int], what: str) -> str:
    """The bitstring of `values`, each of which must equal 0 or 1."""
    values = tuple(values)
    if not all(map((0, 1).__contains__, values)):
        raise InvalidArgumentError(f"{what} has non-bit values")
    return bytes(map(bool, values)).translate(_BIT_CHARS).decode()


@dataclass(frozen=True, init=False)
class Concept:
    """A named bit vector; entry i is the concept's value on domain point i.

    The row is stored as one int, bit i = value at point i, plus its width;
    `values`, `bitstring()` and `mask()` are views of it.  Any value equal to
    0 or 1, such as True or 1.0, is stored as that bit.
    """

    label: str
    _mask: int
    _width: int

    def __init__(self, label: str, values: Iterable[int]):
        self._init(label, _bitstring(values, f"concept {label!r}"))

    @classmethod
    def _from_bits(cls, label: str, bits: str) -> Concept:
        """The concept with bitstring `bits`, which the caller checked holds only 0s and 1s."""
        c = cls.__new__(cls)
        c._init(label, bits)
        return c

    def _init(self, label: str, bits: str) -> None:
        _check_label(label, "concept")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_mask", int(bits[::-1], 2) if bits else 0)
        object.__setattr__(self, "_width", len(bits))

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(map(int, self.bitstring()))

    def bitstring(self) -> str:
        # A 1 above the top point keeps leading zeros; bin's digits read backwards from bit 0.
        return bin(self._mask | 1 << self._width)[:2:-1]

    def mask(self) -> int:
        """Values packed into an int, bit i = value at index i."""
        return self._mask


@dataclass(frozen=True)
class ConceptClass:
    """An ordered set of distinct concepts over an ordered, labelled domain.

    `domain[i]` is the label of point i.  Invariants enforced at
    construction: all labels (domain and concept) are unique, every row has
    exactly one bit per domain point, and no two rows are equal.  An empty
    domain admits at most one concept (two would be equal rows).
    """

    domain: tuple[str, ...]
    concepts: tuple[Concept, ...]

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(self.domain))
        object.__setattr__(self, "concepts", tuple(self.concepts))
        seen_pt = set()
        for label in self.domain:
            _check_label(label, "domain point")
            if label in seen_pt:
                raise InvalidArgumentError(f"duplicate domain label {label!r}")
            seen_pt.add(label)
        width = len(self.domain)
        by_label: dict[str, int] = {}
        by_mask: dict[int, str] = {}
        for i, c in enumerate(self.concepts):
            if c._width != width:
                raise InvalidArgumentError(
                    f"concept {c.label!r} has {c._width} values, expected {width}"
                )
            if c.label in by_label:
                raise InvalidArgumentError(f"duplicate concept label {c.label!r}")
            by_label[c.label] = i
            if c._mask in by_mask:
                raise InvalidArgumentError(
                    f"duplicate concept rows: {by_mask[c._mask]!r} and {c.label!r}"
                )
            by_mask[c._mask] = c.label
        object.__setattr__(self, "_by_label", by_label)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[str | Sequence[int]],
        labels: Sequence[str] | None = None,
        point_labels: Sequence[str] | None = None,
    ) -> "ConceptClass":
        """Build a class from bitstrings or bit sequences.

        Concept labels default to the rows' bitstrings; point labels default
        to "x0", "x1", ...
        """
        parsed = [r if isinstance(r, str) else _bitstring(r, "row") for r in rows]
        for r in parsed:
            if r.strip("01"):
                raise InvalidArgumentError(f"row {r!r} is not a bitstring")
        width = len(parsed[0]) if parsed else 0
        if point_labels is None:
            point_labels = [f"x{i}" for i in range(width)]
        if labels is None:
            labels = parsed
        if len(labels) != len(parsed):
            raise InvalidArgumentError("one label per row required")
        return cls(tuple(point_labels), tuple(map(Concept._from_bits, labels, parsed)))

    # -- queries ---------------------------------------------------------------

    @property
    def width(self) -> int:
        return len(self.domain)

    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.concepts)

    def index_of(self, label: str) -> int:
        try:
            return self._by_label[label]  # type: ignore[attr-defined]
        except KeyError:
            raise InvalidArgumentError(f"no concept labelled {label!r} in class") from None

    def concept(self, label: str) -> Concept:
        return self.concepts[self.index_of(label)]

    def row_mask(self, index: int) -> int:
        return self.concepts[index]._mask

    def columns(self, order: Sequence[int] | None = None) -> list[int]:
        """One int per domain point: bit t is its value in concept order[t] (default class order)."""
        concepts = self.concepts if order is None else [self.concepts[i] for i in order]
        if not concepts:
            return [0] * self.width
        return [int("".join(col)[::-1], 2) for col in zip(*(c.bitstring() for c in concepts))]

    def member_index(self, c: Concept) -> int:
        """Index of `c` in the class; the label must exist with equal values."""
        i = self.index_of(c.label)
        if self.concepts[i] != c:
            raise InvalidArgumentError(
                f"concept {c.label!r} disagrees with the class member of the same label"
            )
        return i


@dataclass(frozen=True)
class TeachingPlan:
    """An ordered sequence of (concept label, point-index set) steps.

    Point sets are stored as sorted tuples.  Whether the plan is valid for a
    given class is decided by `check_plan`; the type itself only normalizes.
    """

    steps: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        norm = tuple(
            (label, tuple(sorted(set(points)))) for label, points in self.steps
        )
        object.__setattr__(self, "steps", norm)

    @property
    def width(self) -> int:
        return max((len(pts) for _, pts in self.steps), default=0)

    def __len__(self) -> int:
        return len(self.steps)


# -- operations ------------------------------------------------------------


def _check_indices(points: Iterable[int], width: int) -> tuple[int, ...]:
    seen = set(points)
    for i in seen:
        if not isinstance(i, int):
            raise InvalidArgumentError(f"point index {i!r} is not an integer")
    pts = tuple(sorted(seen))
    for i in pts:
        if i < 0 or i >= width:
            raise InvalidArgumentError(f"point index {i} out of range [0, {width})")
    return pts


def _points(mask: int) -> Iterator[int]:
    """The indices of a mask's one bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _taught(rows: Sequence[int], sets: Iterable[int]) -> Iterator[list[bool]]:
    """For each point mask s, which of `rows` s teaches: those no other row equals on s."""
    for s in sets:
        projs = [row & s for row in rows]
        seen = Counter(projs)
        yield [seen[proj] == 1 for proj in projs]


def is_teaching_set(c: Concept, klass: ConceptClass, points: Iterable[int]) -> bool:
    """True iff every other concept of the class disagrees with `c` somewhere on `points`."""
    smask = sum(1 << i for i in _check_indices(points, klass.width))
    own = klass.row_mask(klass.member_index(c)) & smask
    return [other._mask & smask for other in klass.concepts].count(own) == 1


def check_plan(klass: ConceptClass, plan: TeachingPlan) -> int:
    """Validate a teaching plan against a class and return its width.

    Step i must use a set that separates its concept from every concept of
    the plan's suffix i..end.  Raises MalformedPlanError when the plan does
    not list the class's concepts exactly once (or uses bad indices), and
    InvalidPlanError naming the first failing step and a conflicting concept.
    """
    labels = [label for label, _ in plan.steps]
    expected = set(klass.labels())
    if len(set(labels)) != len(labels):
        dup = next(l for l in labels if labels.count(l) > 1)
        raise MalformedPlanError(f"concept {dup!r} appears more than once in plan")
    if set(labels) != expected:
        missing = sorted(expected - set(labels)) + sorted(set(labels) - expected)
        raise MalformedPlanError(f"plan does not cover the class: {missing}")
    order = [klass.index_of(label) for label in labels]
    sets = []
    for label, pts in plan.steps:
        try:
            sets.append(_check_indices(pts, klass.width))
        except InvalidArgumentError as e:
            raise MalformedPlanError(f"step for {label!r}: {e}") from None
    # Bit t of a column is the value of the plan's t-th concept; step i keeps
    # the suffix concepts that agree with concept i on each of its points.
    columns = klass.columns(order)
    full = (1 << len(order)) - 1
    width = 0
    for i, pts in enumerate(sets):
        agree = full >> i + 1 << i + 1
        for p in pts:
            agree &= columns[p] if columns[p] >> i & 1 else ~columns[p]
        if agree:
            other = labels[(agree & -agree).bit_length() - 1]
            raise InvalidPlanError(
                i,
                other,
                f"step {i} ({plan.steps[i][0]!r}, {set(pts) or '{}'}) fails: "
                f"{other!r} agrees on the chosen points",
            )
        width = max(width, len(pts))
    return width


# -- text format -------------------------------------------------------------
#
# Class files:  first meaningful line "<numConcepts> <numPoints>", an optional
# "labels: <p0> <p1> ..." line naming the domain points, then one line per
# concept: "<label> <bitstring>".  '#' starts a comment, blank lines are
# ignored, fields are whitespace-separated, output uses LF line endings and
# carries no trailing whitespace.


def _meaningful_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body))
    return out


def _header(text: str, form: str) -> tuple[int, int, int, list[tuple[int, str]]]:
    """The header's line number and two non-negative counts, and the meaningful lines after it."""
    lines = _meaningful_lines(text)
    if not lines:
        raise ParseError(f"empty input, expected {form} header")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"header must be {form}", lineno)
    try:
        counts = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("header counts must be integers", lineno) from None
    if min(counts) < 0:
        raise ParseError("header counts must be non-negative", lineno)
    return lineno, *counts, lines[1:]


def parse_class(text: str) -> ConceptClass:
    """Parse the class text format; raises ParseError with a line number."""
    header, n_concepts, n_points, rest = _header(text, "'<numConcepts> <numPoints>'")
    point_labels = [f"x{i}" for i in range(n_points)]
    # Without points, a concept may be named "labels:"; the line is the labels
    # line only when the body holds a line more than the concepts.
    if rest and rest[0][1].split()[0] == "labels:" and (n_points or len(rest) > n_concepts):
        lineno, body = rest[0]
        names = body.split()[1:]
        if len(names) != n_points:
            raise ParseError(
                f"labels line names {len(names)} points, expected {n_points}", lineno
            )
        if len(set(names)) < n_points:
            dup = next(name for i, name in enumerate(names) if name in names[:i])
            raise ParseError(f"duplicate domain label {dup!r}", lineno)
        point_labels = names
        rest = rest[1:]
    if len(rest) != n_concepts:
        where = rest[n_concepts][0] if len(rest) > n_concepts else header
        raise ParseError(
            f"expected {n_concepts} concept lines, found {len(rest)}", where
        )
    seen_labels: dict[str, int] = {}
    seen_rows: dict[str, int] = {}
    for lineno, body in rest:
        toks = body.split()
        if n_points == 0:
            if len(toks) != 1:
                raise ParseError("expected '<label>' for a 0-point class", lineno)
            label, bits = toks[0], ""
        else:
            if len(toks) != 2:
                raise ParseError("expected '<label> <bitstring>'", lineno)
            label, bits = toks
        if label in seen_labels:
            raise ParseError(
                f"duplicate concept label {label!r} (first on line {seen_labels[label]})",
                lineno,
            )
        seen_labels[label] = lineno
        if len(bits) != n_points:
            raise ParseError(
                f"bitstring has length {len(bits)}, expected {n_points}", lineno
            )
        if bits.strip("01"):
            raise ParseError(f"bitstring {bits!r} has characters outside 0/1", lineno)
        if bits in seen_rows:
            raise ParseError(
                f"duplicate concept row (same as line {seen_rows[bits]})", lineno
            )
        seen_rows[bits] = lineno
    # Every invariant ConceptClass enforces was checked above, with its line.
    return ConceptClass.from_rows(list(seen_rows), list(seen_labels), point_labels)


def serialize_class(klass: ConceptClass) -> str:
    """Deterministic text form; parse_class(serialize_class(C)) == C."""
    lines = [f"{len(klass.concepts)} {klass.width}"]
    if klass.width > 0:
        lines.append("labels: " + " ".join(klass.domain))
    for c in klass.concepts:
        lines.append(f"{c.label} {c.bitstring()}" if klass.width > 0 else c.label)
    return "\n".join(lines) + "\n"


# Plan files: one line per step, "<concept-label> <idx> <idx> ...", an empty
# point set being a bare label.  Same comment and whitespace rules as above.


def parse_plan(text: str) -> TeachingPlan:
    steps = []
    for lineno, body in _meaningful_lines(text):
        toks = body.split()
        label = toks[0]
        try:
            pts = tuple(int(t) for t in toks[1:])
        except ValueError:
            raise ParseError("point indices must be integers", lineno) from None
        if any(p < 0 for p in pts):
            raise ParseError("point indices must be non-negative", lineno)
        steps.append((label, pts))
    return TeachingPlan(tuple(steps))


def serialize_plan(plan: TeachingPlan) -> str:
    lines = []
    for label, pts in plan.steps:
        lines.append(label if not pts else label + " " + " ".join(map(str, pts)))
    return "\n".join(lines) + ("\n" if lines else "")
