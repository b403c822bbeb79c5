import dataclasses
import itertools
import json
import random
import tracemalloc
import types
from math import comb

import pytest

from teachdim import (
    Concept,
    ConceptClass,
    Graph,
    InvalidArgumentError,
    SoundnessViolationError,
    build_gadget,
    check_observations,
    check_plan,
    domset_to_rtd,
    extract_domset,
    has_dominating_set,
    is_teaching_set,
    metadata_json,
    min_teaching_set,
    rtd,
    rtd_decision,
    serialize_class,
    shinohara_metadata_json,
    shinohara_reduce,
    witness_plan,
)
from teachdim import model, reduction
from teachdim.reduction import _set_index
from conftest import (
    all_labeled_graphs,
    bf_min_domset,
    ref_check_observations,
    ref_domset_to_rtd,
    ref_shinohara_reduce,
)

K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
EMPTY2 = Graph.from_edges(2, [])


# -- single-concept reduction ------------------------------------------------------


def test_shinohara_two_isolated():
    res = shinohara_reduce(EMPTY2)
    assert [c.bitstring() for c in res.klass.concepts] == ["01", "10", "11"]
    assert res.merges == ()
    star = res.klass.concept(res.star_label)
    assert min_teaching_set(star, res.klass).size == 2 == bf_min_domset(EMPTY2)[0]


def test_shinohara_single_edge_dedup():
    res = shinohara_reduce(Graph.from_edges(2, [(0, 1)]))
    assert [c.bitstring() for c in res.klass.concepts] == ["00", "11"]
    assert res.merges == (("c_v1", ("v1", "v2")),)
    star = res.klass.concept(res.star_label)
    assert min_teaching_set(star, res.klass).size == 1


def test_shinohara_k3():
    res = shinohara_reduce(K3)
    star = res.klass.concept(res.star_label)
    assert min_teaching_set(star, res.klass).size == 1


def test_shinohara_rejects_empty_graph():
    with pytest.raises(InvalidArgumentError):
        shinohara_reduce(Graph(0, frozenset()))


def test_shinohara_identity_all_graphs_up_to_6():
    # TS of the all-one concept == domination number, every labeled graph
    for n in range(1, 7):
        for g in all_labeled_graphs(n):
            res = shinohara_reduce(g)
            star = res.klass.concept(res.star_label)
            assert min_teaching_set(star, res.klass).size == bf_min_domset(g)[0]


# -- main construction ----------------------------------------------------------


def test_k3_k1_shape():
    out = domset_to_rtd(K3, 1)
    assert (out.p, out.q) == (3, 3)
    assert len(out.klass.concepts) == 12
    assert out.klass.width == 18


def test_empty2_k1_shape_and_rtd():
    out = domset_to_rtd(EMPTY2, 1)
    assert (out.p, out.q) == (3, 3)
    assert len(out.klass.concepts) == out.q * (EMPTY2.n + 1) == 9
    assert out.klass.width == 2 * out.p * EMPTY2.n == 12
    assert rtd(out.klass).value >= 2  # no 1-vertex dominating set exists


def test_n4_k2_shape():
    g = Graph.from_edges(4, [(0, 1)])
    out = domset_to_rtd(g, 2)
    assert (out.p, out.q) == (5, 10)
    assert len(out.klass.concepts) == 50
    assert out.klass.width == 40


def test_supported_envelope_n20_k3():
    # the widest documented instance: 2 * 7 * 20 = 280 columns, 735 rows
    g = Graph.from_edges(20, [(i, i + 1) for i in range(19)])
    out = domset_to_rtd(g, 3)
    assert out.klass.width == 280
    assert len(out.klass.concepts) == 35 * 21
    ts = min_teaching_set(out.klass.concept("h1110000"), out.klass)
    assert ts.size >= 3  # gadget floor: k points at least


def test_parameter_validation():
    with pytest.raises(InvalidArgumentError):
        domset_to_rtd(Graph.from_edges(1, []), 1)  # N = 1 rejected
    with pytest.raises(InvalidArgumentError):
        domset_to_rtd(K3, 0)
    with pytest.raises(InvalidArgumentError):
        domset_to_rtd(K3, 4)  # k > N


def test_constraint_rows():
    out = domset_to_rtd(K3, 1)
    gadget = build_gadget(1)
    zv_start = out.graph.n * out.p
    for gc in gadget.klass.concepts:
        c = out.klass.concept(f"h{gc.bitstring()}")
        assert all(v == 1 for v in c.values[zv_start:])
        for v in range(3):
            for z in range(3):
                assert c.values[out.vz_index(v, z)] == gc.values[z]


def test_vertex_rows():
    g = Graph.from_edges(3, [(0, 1)])
    out = domset_to_rtd(g, 1)
    gadget = build_gadget(1)
    for u in range(3):
        for gc in gadget.klass.concepts:
            c = out.klass.concept(f"v{u + 1}.h{gc.bitstring()}")
            for v in range(3):
                dominated = u == v or (min(u, v), max(u, v)) in g.edges
                for z in range(3):
                    assert c.values[out.vz_index(v, z)] == (0 if dominated else 1)
            for z in range(3):
                for v in range(3):
                    expected = 1 if (gc.values[z] == 1 and v == u) else 0
                    assert c.values[out.zv_index(z, v)] == expected


def test_point_and_concept_maps():
    out = domset_to_rtd(EMPTY2, 1)
    assert out.klass.domain[0] == "(v1,z0)"
    assert out.point_map[0].block == "VZ"
    zv0 = out.zv_index(0, 0)
    assert out.klass.domain[zv0] == "(z0,v1)"
    assert out.point_map[zv0].block == "ZV"
    ref = dict(out.concept_map)["v2.h010"]
    assert (ref.kind, ref.vertex, ref.pattern) == ("vertex", 1, "010")
    ref = dict(out.concept_map)["h100"]
    assert (ref.kind, ref.vertex, ref.pattern) == ("constraint", None, "100")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_support_is_the_unique_small_teaching_set(k):
    # the completeness plan leans on this uniqueness
    gadget = build_gadget(k)
    for gc in gadget.klass.concepts:
        support = tuple(i for i, v in enumerate(gc.values) if v)
        winners = [
            S
            for S in itertools.combinations(range(gadget.p), k)
            if is_teaching_set(gc, gadget.klass, S)
        ]
        assert winners == [support]


# -- completeness -------------------------------------------------------------------


def test_witness_plan_k3():
    out = domset_to_rtd(K3, 1)
    plan = witness_plan(out, (0,))
    assert len(plan) == 12
    assert check_plan(out.klass, plan) == 1


def test_witness_plan_k4_other_vertex():
    k4 = Graph.from_edges(4, list(itertools.combinations(range(4), 2)))
    out = domset_to_rtd(k4, 1)
    plan = witness_plan(out, (1,))
    assert check_plan(out.klass, plan) == 1


def test_witness_plan_rejects_empty_set():
    out = domset_to_rtd(K3, 1)
    with pytest.raises(InvalidArgumentError):
        witness_plan(out, ())


def test_witness_plan_rejects_non_dominating():
    out = domset_to_rtd(EMPTY2, 1)
    with pytest.raises(InvalidArgumentError):
        witness_plan(out, (0,))  # v1 alone cannot dominate v2


def test_witness_plan_rejects_wrong_size():
    out = domset_to_rtd(K3, 1)
    with pytest.raises(InvalidArgumentError):
        witness_plan(out, (0, 1))


@pytest.mark.parametrize("bad", [-1, -3, 3])
def test_witness_plan_rejects_out_of_range_vertex(bad):
    # A negative vertex must not wrap around to a real one.
    out = domset_to_rtd(K3, 1)
    with pytest.raises(InvalidArgumentError):
        witness_plan(out, (bad,))


def test_reduction_builds_its_gadget_once(monkeypatch):
    # witness_plan and check_observations read the gadget domset_to_rtd stored.
    calls = []

    def counted(k, **kwargs):
        calls.append(k)
        return build_gadget(k, **kwargs)

    monkeypatch.setattr("teachdim.reduction.build_gadget", counted)
    out = domset_to_rtd(K3, 1)
    witness_plan(out, (0,))
    check_observations(out, max_sets=50)
    assert calls == [1]
    assert out.gadget == build_gadget(out.k)


# -- soundness ----------------------------------------------------------------------


def test_extract_end_to_end_k3():
    out = domset_to_rtd(K3, 1)
    for pattern in ("100", "010", "001"):
        ts = min_teaching_set(out.klass.concept(f"h{pattern}"), out.klass)
        T = extract_domset(out, pattern, ts.witness)
        assert len(T) == 1
        ok, _ = has_dominating_set(K3, 1)
        assert ok


def test_projection_sanity():
    out = domset_to_rtd(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), 2)
    raw = [out.vz_index(0, 1), out.vz_index(1, 3)]  # {(v1,z1), (v2,z3)}
    assert {out.point_map[i].vertex for i in raw} == {0, 1}
    assert [out.point_map[i].block for i in raw] == ["VZ", "VZ"]


def test_extract_rejects_non_teaching_set():
    out = domset_to_rtd(EMPTY2, 1)
    # no size-1 teaching set of any constraint concept exists here
    for i in range(out.klass.width):
        assert not is_teaching_set(out.klass.concept("h100"), out.klass, (i,))
        with pytest.raises(SoundnessViolationError):
            extract_domset(out, "100", (i,))


def test_extract_rejects_oversized_set():
    out = domset_to_rtd(K3, 1)
    with pytest.raises(SoundnessViolationError):
        extract_domset(out, "100", (0, 1))


def test_extract_rejects_bad_point_indices():
    out = domset_to_rtd(K3, 1)
    for points in [(999,), (-1,), ("a",), ("a", 0)]:
        with pytest.raises(InvalidArgumentError):
            extract_domset(out, "100", points)


def test_extract_rejects_unknown_pattern():
    out = domset_to_rtd(K3, 1)
    with pytest.raises(InvalidArgumentError):
        extract_domset(out, "110", (0,))
    with pytest.raises(InvalidArgumentError):
        extract_domset(out, "abc", (0,))


# -- observations ---------------------------------------------------------------------


def test_observations_k3_exhaustive():
    out = domset_to_rtd(K3, 1)
    report = check_observations(out)
    assert report.ok and report.exhaustive
    # 12 concepts x (1 + 18 + C(18,2)) sets
    assert report.sets_checked == 12 * (1 + 18 + 153)


def test_observations_sampled_mode():
    out = domset_to_rtd(K3, 1)
    report = check_observations(out, max_sets=50)
    assert report.ok and not report.exhaustive
    assert report.sets_checked == 12 * 51
    assert report.counterexample is None


def test_observation_singleton_case():
    out = domset_to_rtd(K3, 1)
    gadget = build_gadget(1)
    h = gadget.klass.concept("100")
    # a singleton inside the VZ block teaches h100 within the constraint
    # family iff its z-projection teaches h within the gadget
    constraint_family = [c for c in out.klass.concepts if c.label.startswith("h")]
    sub = type(out.klass)(out.klass.domain, tuple(constraint_family))
    for z in range(3):
        point = out.vz_index(0, z)
        lhs = is_teaching_set(out.klass.concept("h100"), sub, (point,))
        rhs = is_teaching_set(h, gadget.klass, (z,))
        assert lhs == rhs


def test_observations_reject_negative_caps():
    out = domset_to_rtd(K3, 1)
    with pytest.raises(InvalidArgumentError, match="max_sets"):
        check_observations(out, max_sets=-5)


def _flip(out, label, index):
    """The reduction with one bit of one concept row flipped."""
    concepts = tuple(
        Concept(c.label, tuple(v ^ (i == index and c.label == label) for i, v in enumerate(c.values)))
        for c in out.klass.concepts
    )
    return dataclasses.replace(out, klass=ConceptClass(out.klass.domain, concepts))


def test_observations_equal_the_pairwise_replay():
    # Clean and tampered reductions, k <= 2 and N <= 5, exhaustive and sampled:
    # every report must equal the pair-by-pair reference.  Exhaustive runs at
    # k = 2 stay at N <= 3, where the reference replays at most 0.2 M pairs.
    rng = random.Random(20231)
    found = 0
    for case in range(60):
        n = rng.randint(2, 5)
        k = rng.randint(1, min(2, n))
        pairs = itertools.combinations(range(n), 2)
        out = domset_to_rtd(Graph.from_edges(n, [e for e in pairs if rng.random() < 0.5]), k)
        if case % 2:
            while True:
                try:
                    out = _flip(out, rng.choice(out.klass.concepts).label, rng.randrange(out.klass.width))
                    break
                except InvalidArgumentError:  # two rows became equal
                    pass
        caps = [50, 300, 2000] + ([None] if k == 1 or n <= 3 else [])
        cap = caps[case // 2 % len(caps)]
        kwargs = {} if cap is None else {"max_sets": cap}
        report = check_observations(out, **kwargs)
        assert report == ref_check_observations(out, **kwargs), (case, n, k, cap)
        found += not report.ok
    assert found >= 15  # the tampered half mostly yields counterexamples


@pytest.mark.parametrize(
    "label, zv, kwargs, expected",
    [
        # A zero in a constraint row's ZV block, outside the intended layout.
        ("h010", True, {}, (64, True, ("h100", (2, 14)))),
        ("h010", True, {"max_sets": 50}, (26, False, ("h100", (2, 14)))),
        # A one in a vertex row's VZ block, shared by the rest of its family.
        ("v2.h001", False, {}, (1080, True, ("v2.h100", (1, 13)))),
        ("v2.h001", False, {"max_sets": 50}, (308, False, ("v2.h100", (1, 13)))),
    ],
)
def test_observations_pinned_counterexample(label, zv, kwargs, expected):
    out = domset_to_rtd(K3, 1)
    index = out.zv_index(1, 2) if zv else out.vz_index(0, 1)
    report = check_observations(_flip(out, label, index), **kwargs)
    assert (report.sets_checked, report.exhaustive, report.counterexample) == expected


def _pinned_flips():
    """K3 at k = 1, clean and with each pinned tampered bit."""
    out = domset_to_rtd(K3, 1)
    return {
        "clean": out,
        "h010": _flip(out, "h010", out.zv_index(1, 2)),
        "v2.h001": _flip(out, "v2.h001", out.vz_index(0, 1)),
    }


def test_observations_equal_the_reference_across_the_budget():
    # Each tampered family has 4 classes, so 11 class sets.  Below 11 the
    # sample alone is replayed; from 11 every class set is decided and the
    # sample only locates a failure: sampled set 12 is the first to touch
    # h010's failing class set, so cap 11 misses it, and sampled set 1
    # touches v2.h001's.
    ok_caps = {}
    for case, out in _pinned_flips().items():
        ok_caps[case] = []
        for max_sets in range(41):
            report = check_observations(out, max_sets=max_sets)
            assert report == ref_check_observations(out, max_sets=max_sets), (case, max_sets)
            if report.ok:
                ok_caps[case].append(max_sets)
    assert ok_caps == {"clean": list(range(41)), "h010": list(range(12)), "v2.h001": [0]}


def test_observations_sample_only_to_locate_a_failure(monkeypatch):
    draws = []

    def counting_random(seed):
        draws.append(seed)
        return random.Random(seed)

    monkeypatch.setattr(reduction, "random", types.SimpleNamespace(Random=counting_random))
    path5 = Graph.from_edges(5, [(v, v + 1) for v in range(4)])
    for out, max_sets in [(domset_to_rtd(K3, 1), 50), (domset_to_rtd(path5, 2), 2000)]:
        report = check_observations(out, max_sets=max_sets)
        assert report.ok and not report.exhaustive
        assert report.sets_checked == len(out.klass.concepts) * (max_sets + 1)
    assert draws == []
    report = check_observations(_pinned_flips()["h010"], max_sets=50)
    assert (report.sets_checked, report.exhaustive, report.counterexample) == (26, False, ("h100", (2, 14)))
    assert draws == [0]


def _count_taught(monkeypatch) -> list[int]:
    """Count the calls of `_taught` that the observation replay makes."""
    calls = []

    def counted(rows, sets):
        calls.append(len(rows))
        return model._taught(rows, sets)

    monkeypatch.setattr(reduction, "_taught", counted)
    return calls


def test_observations_decide_one_shape_per_untampered_reduction(monkeypatch):
    # All N+1 families of an untampered reduction share one shape, so the
    # replay runs `_taught` twice at any N: on its rows and on the gadget z-masks.
    calls = _count_taught(monkeypatch)
    for n, k in [(4, 1), (6, 1), (5, 2), (8, 2)]:
        out = domset_to_rtd(Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)]), k)
        for kwargs in [{}, {"max_sets": 2000}]:
            calls.clear()
            assert check_observations(out, **kwargs).ok
            assert len(calls) == 2, (n, k, kwargs)


def test_observations_keep_tampered_families_apart(monkeypatch):
    # The same relative bit flipped in two vertex families gives them one
    # shape, decided once; flipped in one family only, that family has a
    # shape of its own.  Each report equals the pair-by-pair reference.
    calls = _count_taught(monkeypatch)
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    for g, k, pattern in [(K3, 1, "010"), (path3, 1, "100"), (path3, 2, "01010")]:
        out = domset_to_rtd(g, k)
        for zv in (True, False):
            flipped = []
            for u in (0, 1):
                index = out.zv_index(pattern.index("0"), u) if zv else out.vz_index(u, 1)
                flipped.append(_flip(flipped[-1] if flipped else out, f"v{u + 1}.h{pattern}", index))
            for tampered in flipped:
                for kwargs in [{}, {"max_sets": 5}, {"max_sets": 50}, {"max_sets": 2000}]:
                    calls.clear()
                    report = check_observations(tampered, **kwargs)
                    assert report == ref_check_observations(tampered, **kwargs), (k, pattern, zv, kwargs)
                    if not kwargs:
                        assert not report.ok
                        assert len(calls) == 4  # the clean shape and one tampered shape


def test_set_index_is_the_position_in_size_then_lex_order():
    for width in range(13):
        order = [c for s in range(width + 1) for c in itertools.combinations(range(width), s)]
        assert [_set_index(c, width) for c in order] == list(range(len(order))), width


def test_observations_k3_equal_the_pairwise_replay():
    # k = 3 at N 3-4, clean and with 1-3 flipped bits, sampled sets of size
    # <= k + 1 = 4, so that the reference replays at most 0.1 M pairs.
    rng = random.Random(31)
    found = 0
    for case in range(8):
        n = 3 + case // 2 % 2
        pairs = itertools.combinations(range(n), 2)
        out = domset_to_rtd(Graph.from_edges(n, [e for e in pairs if rng.random() < 0.5]), 3)
        flips = rng.randint(1, 3) if case % 2 else 0
        while flips:
            try:
                out = _flip(out, rng.choice(out.klass.concepts).label, rng.randrange(out.klass.width))
                flips -= 1
            except InvalidArgumentError:  # two rows became equal
                pass
        max_sets = [50, 100, 300][case % 3]
        report = check_observations(out, max_sets=max_sets)
        assert report == ref_check_observations(out, max_sets=max_sets), (case, n, max_sets)
        found += not report.ok
    assert found >= 2


def test_observations_k3_n8_exhaustive():
    # 315 concepts over 112 points, every set of size <= 4.
    out = domset_to_rtd(Graph.from_edges(8, [(v, v + 1) for v in range(7)]), 3)
    report = check_observations(out, max_sets=10**7)
    assert report.ok and report.exhaustive
    assert report.sets_checked == 315 * 6_445_069 == 315 * sum(comb(112, s) for s in range(5))


def test_observations_exhaustive_replay_lists_no_sets():
    # N = 6, k = 3 has 2.03 M candidate sets; listing them would take ~100 MB.
    out = domset_to_rtd(Graph.from_edges(6, [(v, v + 1) for v in range(5)]), 3)
    tracemalloc.start()
    try:
        report = check_observations(out, max_sets=10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.exhaustive
    assert peak < 5 * 2**20


# -- the theorem, desk scale -----------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_equivalence_exhaustive_small(n):
    for g in all_labeled_graphs(n):
        for k in (1, 2):
            if k > n:
                continue
            out = domset_to_rtd(g, k)
            dom, witness = has_dominating_set(g, k)
            decided, plan = rtd_decision(out.klass, k)
            assert dom == decided, (n, k, sorted(g.edges))
            assert dom == (rtd(out.klass).value <= k)
            if dom:
                assert check_plan(out.klass, witness_plan(out, witness)) <= k
                assert check_plan(out.klass, plan) <= k
                first = plan.steps[0]
                ref = dict(out.concept_map)[first[0]]
                assert ref.kind == "constraint"
                T = extract_domset(out, ref.pattern, first[1])
                assert len(T) <= k


# -- sidecar metadata --------------------------------------------------------------------


def test_metadata_contents_and_determinism():
    out = domset_to_rtd(K3, 1)
    text = metadata_json(out)
    assert text == metadata_json(domset_to_rtd(K3, 1))
    doc = json.loads(text)
    assert doc["kind"] == "domset-to-rtd"
    assert (doc["k"], doc["vertices"], doc["z_points"], doc["gadget_size"]) == (1, 3, 3, 3)
    assert doc["num_concepts"] == 12 and doc["num_points"] == 18
    assert doc["points"][0] == {
        "index": 0, "label": "(v1,z0)", "block": "VZ", "vertex": 0, "zpoint": 0,
    }
    kinds = {c["kind"] for c in doc["concepts"]}
    assert kinds == {"constraint", "vertex"}


def test_shinohara_metadata():
    g = Graph.from_edges(2, [(0, 1)])
    res = shinohara_reduce(g)
    doc = json.loads(shinohara_metadata_json(res, g))
    assert doc["kind"] == "shinohara"
    assert doc["star"] == "ones"
    assert doc["merged"] == [{"kept": "c_v1", "vertices": ["v1", "v2"]}]


def test_bitstring_build_equals_the_tuple_reference():
    # Seeded graphs on 2..8 vertices, each also with one vertex pair's edge
    # bit flipped: both reductions must write the same bytes as the builds
    # that made their rows value by value.
    rng = random.Random(6)
    for n in range(2, 9):
        for seed in range(3):
            pairs = list(itertools.combinations(range(n), 2))
            edges = {e for e in pairs if rng.random() < 0.4}
            flipped = edges ^ {rng.choice(pairs)}
            for g in (Graph.from_edges(n, edges), Graph.from_edges(n, flipped)):
                res, ref = shinohara_reduce(g), ref_shinohara_reduce(g)
                assert serialize_class(res.klass) == serialize_class(ref.klass)
                assert shinohara_metadata_json(res, g) == shinohara_metadata_json(ref, g)
                assert res == ref
                for k in range(1, min(3, n) + 1):
                    out, ref = domset_to_rtd(g, k), ref_domset_to_rtd(g, k)
                    assert serialize_class(out.klass) == serialize_class(ref.klass), (n, seed, k)
                    assert metadata_json(out) == metadata_json(ref)
                    assert out == ref
