import itertools
import random
from math import comb

import pytest

from teachdim import (
    CapacityError,
    ConceptClass,
    Gadget,
    GadgetReport,
    InvalidArgumentError,
    build_gadget,
    is_teaching_set,
    min_teaching_set,
    parse_class,
    rtd,
    rtd_oracle_subsets,
    serialize_class,
    td_min,
    verify_gadget,
)
from conftest import bf_min_ts, bf_verify_gadget, ones_extension, ref_verify_gadget


def drop_concepts(g: Gadget, *labels: str) -> Gadget:
    kept = tuple(c for c in g.klass.concepts if c.label not in labels)
    return Gadget(g.k, g.p, len(kept), ConceptClass(g.klass.domain, kept))


# -- construction -----------------------------------------------------------------


def test_k1_shape():
    g = build_gadget(1)
    assert (g.p, g.q) == (3, 3)
    assert [c.bitstring() for c in g.klass.concepts] == ["100", "010", "001"]


@pytest.mark.parametrize("k,p,q", [(1, 3, 3), (2, 5, 10), (3, 7, 35)])
def test_shapes(k, p, q):
    g = build_gadget(k)
    assert (g.p, g.q) == (p, q)
    assert len(g.klass.concepts) == q
    assert all(sum(c.values) == k for c in g.klass.concepts)


def test_support_lex_order_and_labels():
    g = build_gadget(2)
    supports = [tuple(i for i, v in enumerate(c.values) if v) for c in g.klass.concepts]
    assert supports == sorted(supports)
    assert supports == list(itertools.combinations(range(5), 2))
    assert all(c.label == c.bitstring() for c in g.klass.concepts)


def test_k0_rejected():
    with pytest.raises(InvalidArgumentError):
        build_gadget(0)


def test_cap_rejected():
    with pytest.raises(CapacityError, match="k = 7 exceeds the gadget cap of 6"):
        build_gadget(7)
    g = build_gadget(7, cap=7)  # explicit raise allowed
    assert g.q == comb(15, 7)


def test_point_labels_for_serialization():
    text = serialize_class(build_gadget(1).klass)
    assert "labels: z0 z1 z2" in text
    assert parse_class(text) == build_gadget(1).klass


# -- verification ------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_properties_hold(k):
    report = verify_gadget(build_gadget(k))
    assert report.ok
    assert report.counterexample is None


def test_one_removed_breaks_2_and_3_but_not_1():
    # Dropping 010 from the k=1 gadget keeps every TS at k = 1, but lets
    # {z2} teach 100 while showing a zero, so properties 2 and 3 fall.
    g = drop_concepts(build_gadget(1), "010")
    rows = [c.values for c in g.klass.concepts]
    assert [bf_min_ts(rows, i)[0] for i in range(len(rows))] == [1, 1]
    report = verify_gadget(g)
    assert report.property1
    assert not report.property2
    assert not report.property3
    prop, label, points = report.counterexample
    assert prop == 2
    assert label == "100" and points == (2,)
    assert is_teaching_set(g.klass.concept("100"), g.klass, points)
    assert g.klass.concept("100").values[points[0]] == 0


def test_two_removed_breaks_property1_with_small_witness():
    g = drop_concepts(build_gadget(1), "010", "001")
    report = verify_gadget(g)
    assert not report.property1
    prop, label, points = report.counterexample
    assert (prop, label) == (1, "100")
    assert len(points) == g.k - 1  # the empty set already teaches a singleton


# -- documented consequences ----------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ones_needs_exactly_k_plus_1(k):
    ext = ones_extension(build_gadget(k).klass)
    res = min_teaching_set(ext.concepts[-1], ext)
    assert res.size == k + 1


@pytest.mark.parametrize("labels", [None, ["a", "b", "c"]])
def test_ones_extension_of_a_class_holding_the_all_one_row_is_the_class(labels):
    klass = ConceptClass.from_rows(["111", "010", "001"], labels=labels)
    assert ones_extension(klass) == klass


@pytest.mark.parametrize("k", [1, 2])
def test_extension_floor_and_rtd(k):
    ext = ones_extension(build_gadget(k).klass)
    assert td_min(ext)[0] == k + 1
    assert rtd(ext).value >= k + 1


@pytest.mark.parametrize("k", [1, 2])
def test_gadget_rtd_at_most_k(k):
    klass = build_gadget(k).klass
    assert rtd(klass).value <= k
    if len(klass.concepts) <= 15:
        assert rtd_oracle_subsets(klass) <= k


def test_verify_matches_the_triple_loop_on_flipped_bits():
    # Gadgets 2 and 3 with up to two bits flipped and up to three members
    # dropped (rows kept distinct): the report, first counterexample included,
    # equals the literal triple loop's.  Flips alone nearly always break
    # property 1 first; drops keep it and break property 2.
    rng = random.Random(4099)
    first = set()
    for case in range(40):
        g = build_gadget(2 + case % 2)
        rows = [list(c.values) for c in g.klass.concepts]
        for _ in range(rng.randint(0, 2)):
            rows[rng.randrange(g.q)][rng.randrange(g.p)] ^= 1
        for _ in range(rng.randint(0, 3)):
            rows.pop(rng.randrange(len(rows)))
        if len(set(map(tuple, rows))) < len(rows):
            continue
        damaged = Gadget(g.k, g.p, len(rows), ConceptClass.from_rows(rows))
        report = verify_gadget(damaged)
        assert report == ref_verify_gadget(damaged)
        first.add(report.counterexample and report.counterexample[0])
    assert first == {None, 1, 2}


# -- the sweep over point sets ---------------------------------------------------------


def damaged_gadgets(seed: int, cases: int, ks: tuple[int, ...]):
    """Built gadgets with up to three bits flipped and up to three members dropped.

    Cases whose rows are no longer distinct are skipped; one member always stays.
    """
    rng = random.Random(seed)
    for case in range(cases):
        g = build_gadget(ks[case % len(ks)])
        rows = [list(c.values) for c in g.klass.concepts]
        for _ in range(rng.randint(0, 3)):
            rows[rng.randrange(len(rows))][rng.randrange(g.p)] ^= 1
        for _ in range(rng.randint(0, min(3, len(rows) - 1))):
            rows.pop(rng.randrange(len(rows)))
        if len(set(map(tuple, rows))) == len(rows):
            yield Gadget(g.k, g.p, len(rows), ConceptClass.from_rows(rows))


@pytest.mark.parametrize(
    "k, rows",
    [
        (1, ["110", "100", "010"]),  # 110 needs k+1 points, so the sweep goes past k
        # Property 2 fails although every member's first zero-showing teaching set has one point.
        (2, ["00110", "00101", "00011"]),
        (1, ["100"]),
    ],
)
def test_sweep_matches_the_triple_loop_on_edge_cases(k, rows):
    g = Gadget(k, len(rows[0]), len(rows), ConceptClass.from_rows(rows))
    assert verify_gadget(g) == ref_verify_gadget(g)


def test_sweep_matches_the_triple_loop_for_k_1_to_4():
    # The reference cannot add the all-one row to a class that holds it.
    gadgets = [
        d for d in damaged_gadgets(77, 36, (1, 2, 3, 4))
        if (1,) * d.p not in [c.values for c in d.klass.concepts]
    ]
    assert {d.k for d in gadgets} == {1, 2, 3, 4}
    assert {verify_gadget(d).counterexample is None for d in gadgets} == {True, False}
    for d in gadgets:
        assert verify_gadget(d) == ref_verify_gadget(d)


@pytest.mark.parametrize("labels", [None, ["a", "b", "c"]])
def test_a_class_holding_the_all_one_row_is_its_own_extension(labels):
    # The class with the all-one row added is the class itself when it holds that row.
    g = Gadget(1, 3, 3, ConceptClass.from_rows(["111", "010", "001"], labels=labels))
    assert verify_gadget(g) == GadgetReport(True, False, False, (2, labels[1] if labels else "010", (2,)))
    assert verify_gadget(g) == bf_verify_gadget(g)


@pytest.mark.parametrize(
    "k, rows, counterexample",
    [
        (0, ["1"], (3, "1", ())),  # the empty set teaches the all-one member
        (1, ["000", "001", "010", "111"], (1, "000", (1, 2))),  # only 111 breaks property 3
    ],
)
def test_the_all_one_member_can_break_property_3(k, rows, counterexample):
    g = Gadget(k, len(rows[0]), len(rows), ConceptClass.from_rows(rows))
    report = verify_gadget(g)
    assert not report.property3 and report.counterexample == counterexample
    assert report == bf_verify_gadget(g)


def test_sweep_matches_the_definitions_with_the_all_one_row():
    # Damaged gadgets 1..3 with the all-one row inserted at a random place.
    rng = random.Random(5)
    seen = set()
    for d in damaged_gadgets(6, 30, (1, 2, 3)):
        rows = [c.values for c in d.klass.concepts]
        if (1,) * d.p not in rows:
            rows.insert(rng.randrange(len(rows) + 1), (1,) * d.p)
        g = Gadget(d.k, d.p, len(rows), ConceptClass.from_rows(rows))
        report = verify_gadget(g)
        assert report == bf_verify_gadget(g)
        seen.add(report.counterexample and report.counterexample[0])
    assert seen == {1, 2}


def test_sweep_matches_the_triple_loop_with_the_all_one_row():
    # Damaged gadgets 1..4 with the all-one row inserted at a random place,
    # and those of gadgets 1 and 2 where flips made it; the reference now
    # extends these classes by nothing.
    rng = random.Random(5)
    gadgets = []
    for d in damaged_gadgets(77, 36, (1, 2, 3, 4)):
        rows = [c.values for c in d.klass.concepts]
        rows.insert(rng.randrange(len(rows) + 1), (1,) * d.p)
        gadgets.append(Gadget(d.k, d.p, len(rows), ConceptClass.from_rows(rows)))
    made = [d for d in damaged_gadgets(1, 100, (1, 2)) if (1,) * d.p in [c.values for c in d.klass.concepts]]
    assert len(made) == 2
    for g in gadgets + made:
        assert verify_gadget(g) == ref_verify_gadget(g)
