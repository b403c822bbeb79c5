import itertools
import random
from math import comb

import pytest

from teachdim import (
    ConceptClass,
    Gadget,
    InvalidArgumentError,
    build_gadget,
    is_teaching_set,
    min_teaching_set,
    ones_extension,
    parse_class,
    rtd,
    rtd_oracle_subsets,
    serialize_class,
    td_min,
    verify_gadget,
)
from conftest import bf_min_ts, ref_verify_gadget


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
    with pytest.raises(InvalidArgumentError):
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
