import dataclasses
import itertools
import json
import random

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
    nu_pairing,
    rtd,
    rtd_decision,
    shinohara_metadata_json,
    shinohara_reduce,
    witness_plan,
)
from conftest import all_labeled_graphs, bf_min_domset, ref_check_observations

K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
EMPTY2 = Graph.from_edges(2, [])


# -- nu pairing ---------------------------------------------------------------


def test_nu_zip():
    assert nu_pairing(["a", "b"], ["x", "y"]) == (("a", "x"), ("b", "y"))


def test_nu_empty():
    assert nu_pairing([], []) == ()


def test_nu_size_mismatch():
    with pytest.raises(InvalidArgumentError):
        nu_pairing(["a"], ["x", "y"])


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
    zv_start = out.n_vertices * out.p
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
    assert out.klass.domain[0].label == "(v1,z0)"
    assert out.point_map[0].block == "VZ"
    zv0 = out.zv_index(0, 0)
    assert out.klass.domain[zv0].label == "(z0,v1)"
    assert out.point_map[zv0].block == "ZV"
    ref = out.concept_ref("v2.h010")
    assert (ref.kind, ref.vertex, ref.pattern) == ("vertex", 1, "010")
    ref = out.concept_ref("h100")
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
    with pytest.raises(InvalidArgumentError, match="max_size"):
        check_observations(out, max_size=-1)


def test_observations_cap_above_width_means_width():
    out = domset_to_rtd(K3, 1)
    width = out.klass.width
    # Sampled (the draws stay within the domain) and exhaustive (every set).
    for max_sets, exhaustive in ((10, False), (2**width, True)):
        report = check_observations(out, max_size=40, max_sets=max_sets)
        assert report == check_observations(out, max_size=width, max_sets=max_sets)
        assert report.ok and report.exhaustive == exhaustive


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
            rows = {c.values for c in out.klass.concepts}
            while True:
                label = rng.choice(out.klass.concepts).label
                index = rng.randrange(out.klass.width)
                flipped = _flip(out, label, index)
                if len({c.values for c in flipped.klass.concepts}) == len(rows):
                    out = flipped
                    break
        caps = [50, 300, 2000] + ([None] if k == 1 or n <= 3 else [])
        cap = caps[case // 2 % len(caps)]
        kwargs = {"seed": case} if cap is None else {"seed": case, "max_sets": cap}
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
                ref = out.concept_ref(first[0])
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
