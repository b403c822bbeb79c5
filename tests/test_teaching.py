import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teachdim import (
    CapacityError,
    Concept,
    ConceptClass,
    Graph,
    InvalidArgumentError,
    InvariantError,
    build_gadget,
    check_plan,
    domset_to_rtd,
    gen_random_graph,
    min_teaching_set,
    rtd,
    rtd_decision,
    rtd_oracle_subsets,
    serialize_plan,
    td_min,
    teaching_dim,
)
from teachdim import teaching
from conftest import (
    all_labeled_graphs,
    bf_min_domset,
    bf_min_ts,
    bf_rtd,
    make_class,
    ones_extension,
    random_class,
    ref_lex_min_hitting_set,
    ref_min_hitting_set,
    ref_strip_decision,
)


def gadget_plus_ones(k: int, ones_first: bool = False) -> ConceptClass:
    base = build_gadget(k).klass
    if not ones_first:
        return ones_extension(base)
    ones = Concept("1" * base.width, (1,) * base.width)
    return ConceptClass(base.domain, (ones,) + base.concepts)


# -- min_teaching_set -----------------------------------------------------------


def test_ts_gadget_k2_support_is_the_witness():
    klass = build_gadget(2).klass
    res = min_teaching_set(klass.concept("11000"), klass)
    assert (res.size, res.witness) == (2, (0, 1))


def test_ts_singleton():
    klass = make_class(["101"])
    assert min_teaching_set(klass.concepts[0], klass).size == 0


def test_ts_all_zero_needs_whole_domain(point_functions):
    assert min_teaching_set(point_functions.concept("000"), point_functions).size == 3


def test_ts_deep_all_zero_does_not_recurse():
    # 1100 forced points: deeper than Python's default recursion limit.
    width = 1100
    rows = ["0" * width] + ["0" * i + "1" + "0" * (width - 1 - i) for i in range(width)]
    klass = make_class(rows, labels=[f"c{i}" for i in range(width + 1)])
    res = min_teaching_set(klass.concepts[0], klass)
    assert (res.size, res.witness) == (width, tuple(range(width)))


def test_ts_rejects_non_member(point_functions):
    with pytest.raises(InvalidArgumentError):
        min_teaching_set(Concept("111", (1, 1, 1)), point_functions)


def test_ts_empty_domain_singleton():
    klass = make_class([""], labels=["only"])
    assert min_teaching_set(klass.concepts[0], klass).size == 0


def test_ts_concurrent_reads_are_deterministic():
    from concurrent.futures import ThreadPoolExecutor

    klass = build_gadget(2).klass
    expected = [min_teaching_set(c, klass) for c in klass.concepts]
    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(lambda c: min_teaching_set(c, klass), klass.concepts))
    assert got == expected


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_ts_matches_bruteforce_with_lex_min_witness(seed):
    rng = random.Random(seed)
    klass = random_class(rng, max_concepts=6, max_points=6)
    rows = [c.values for c in klass.concepts]
    ci = rng.randrange(len(rows))
    size, witness = bf_min_ts(rows, ci)
    res = min_teaching_set(klass.concepts[ci], klass)
    assert res.size == size
    assert res.witness == witness  # itertools order == size-then-lex order


def bf_lex_min_hitting_set(masks, width, budget):
    """Size-then-lex sweep over all point sets of at most `budget` points."""
    for size in range(budget + 1):
        for points in itertools.combinations(range(width), size):
            if all(any(m >> i & 1 for i in points) for m in masks):
                return points
    return None


@st.composite
def mask_families(draw):
    """Up to 20 nonzero masks of width <= 10, with duplicates and supersets of earlier masks."""
    width = draw(st.integers(1, 10))
    masks = draw(st.lists(st.integers(1, 2**width - 1), max_size=10))
    if masks:
        for m in draw(st.lists(st.sampled_from(masks), max_size=10)):
            masks.append(m | draw(st.integers(0, 2**width - 1)))
    return width, masks


@given(mask_families(), st.integers(0, 10))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_size_then_lex_bruteforce(family, budget):
    width, masks = family

    def kernel(b):
        return teaching._min_hitting_set(list(set(masks)), b)[1]

    best = bf_lex_min_hitting_set(masks, width, width)
    assert kernel(len(best)) == best
    if best:
        assert kernel(len(best) - 1) is None
    assert kernel(budget) == bf_lex_min_hitting_set(masks, width, budget)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_ts_monotone_under_subclass(seed):
    rng = random.Random(seed)
    klass = random_class(rng, max_concepts=7, max_points=6)
    if len(klass.concepts) < 2:
        return
    keep = sorted(
        rng.sample(range(len(klass.concepts)), rng.randint(1, len(klass.concepts)))
    )
    ci = rng.choice(keep)
    sub = ConceptClass(klass.domain, tuple(klass.concepts[i] for i in keep))
    c = klass.concepts[ci]
    assert min_teaching_set(c, sub).size <= min_teaching_set(c, klass).size


# -- teaching_dim and td_min ------------------------------------------------------


def test_td_point_functions(point_functions):
    assert teaching_dim(point_functions) == (3, "000")


def test_td_gadget_k2_ties_break_to_first():
    klass = build_gadget(2).klass
    assert teaching_dim(klass) == (2, "11000")


def test_td_full_hypercube():
    rows = ["".join(bits) for bits in itertools.product("01", repeat=3)]
    klass = make_class(rows)
    value, label = teaching_dim(klass)
    assert value == 3
    assert label == rows[0]  # every concept ties, first in class order wins


def test_tdmin_point_functions(point_functions):
    assert td_min(point_functions) == (1, "100")


def test_tdmin_gadget1_plus_ones_everyone_ties():
    # All four concepts have TS exactly 2, so class order decides the label.
    last = gadget_plus_ones(1)
    assert td_min(last) == (2, "100")
    first = gadget_plus_ones(1, ones_first=True)
    assert td_min(first) == (2, "111")


def test_tdmin_singleton():
    klass = make_class(["0110"], labels=["only"])
    assert td_min(klass) == (0, "only")


def test_td_tdmin_empty_class():
    empty = ConceptClass((), ())
    with pytest.raises(InvalidArgumentError):
        teaching_dim(empty)
    with pytest.raises(InvalidArgumentError):
        td_min(empty)


# -- rtd_decision ------------------------------------------------------------------


def test_decision_point_functions(point_functions):
    ok, plan = rtd_decision(point_functions, 1)
    assert ok and plan.width == 1
    assert check_plan(point_functions, plan) <= 1


def test_decision_gadget1_plus_ones_fails_at_1():
    ok, plan = rtd_decision(gadget_plus_ones(1), 1)
    assert not ok and plan is None


def test_decision_singleton_k0():
    klass = make_class(["10"], labels=["c"])
    ok, plan = rtd_decision(klass, 0)
    assert ok and plan.width == 0


def test_decision_rejects_negative_k(point_functions):
    with pytest.raises(InvalidArgumentError):
        rtd_decision(point_functions, -1)


def test_decision_order_independent():
    # Strip order must never change the boolean outcome (>= 50 classes,
    # >= 100 shuffled orders each).
    rng = random.Random(20240817)
    for _ in range(50):
        klass = random_class(rng, max_concepts=7, max_points=5)
        k = rng.randint(0, 3)
        expected, _ = rtd_decision(klass, k)
        for _ in range(100):
            shuffled = ConceptClass(klass.domain, tuple(rng.sample(klass.concepts, len(klass.concepts))))
            got, plan = rtd_decision(shuffled, k)
            assert got == expected
            if got:
                assert check_plan(klass, plan) <= k


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_decision_witness_always_checks_out(seed):
    rng = random.Random(seed)
    klass = random_class(rng, max_concepts=8, max_points=6)
    k = rng.randint(0, 3)
    ok, plan = rtd_decision(klass, k)
    if ok:
        assert check_plan(klass, plan) <= k


def test_lex_free_decision_is_the_decision():
    # `verify` decides without the lex-min sets, as `_strip_decision(..., lex=False)`.
    # Which concept a round strips never depends on its set, so the strip order,
    # and with it the verdict, is rtd_decision's: on every reduction of the
    # acceptance sweep at k = 1 and 2, and on 300 seeded classes at k = 0..3.
    graphs = [g for n in (2, 3, 4) for g in all_labeled_graphs(n)]
    graphs += [gen_random_graph(5, 0.5, seed) for seed in range(200)]
    cases = [(domset_to_rtd(g, k).klass, k) for g in graphs for k in (1, 2) if k <= g.n]
    rng = random.Random(2550)
    cases += [(random_class(rng), k) for _ in range(300) for k in range(4)]
    for klass, k in cases:
        value, plan = teaching._strip_decision(klass, k, k, lex=False)
        decided, lex_plan = rtd_decision(klass, k)
        assert (value, plan is not None) == (k, decided)
        if decided:
            assert [label for label, _ in plan.steps] == [label for label, _ in lex_plan.steps]
            assert check_plan(klass, plan) <= k


# -- rtd ---------------------------------------------------------------------------


def test_rtd_point_functions(point_functions):
    res = rtd(point_functions)
    assert res.value == 1
    assert check_plan(point_functions, res.plan) == 1


def test_rtd_gadget_k1():
    assert rtd(build_gadget(1).klass).value == 1


def test_rtd_singleton():
    res = rtd(make_class(["01"], labels=["c"]))
    assert res.value == 0 and len(res.plan) == 1


def test_rtd_empty_class():
    assert rtd(ConceptClass((), ())).value == 0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_rtd_matches_definition_bruteforce(seed):
    rng = random.Random(seed)
    klass = random_class(rng, max_concepts=6, max_points=5)
    assert rtd(klass).value == bf_rtd([c.values for c in klass.concepts])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_rtd_is_least_k_the_decision_accepts(seed):
    rng = random.Random(seed)
    klass = random_class(rng, max_concepts=10, max_points=6)
    least = next(k for k in itertools.count() if rtd_decision(klass, k)[0])
    assert rtd(klass).value == least


def test_rtd_plan_raises_k_only_when_a_round_strips_nothing():
    # At k = 1 only 001 is teachable, so the pass strips it first and then
    # raises k; the decision run at k = 2 strips 110 first instead.
    klass = make_class(["110", "010", "011", "001", "111"])
    res = rtd(klass)
    assert res.value == 2
    assert serialize_plan(res.plan) == "001 1\n110 0 2\n010 2\n011 0\n111\n"
    assert serialize_plan(rtd_decision(klass, 2)[1]).startswith("110 0 2\n")


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_rtd_bounds(seed):
    rng = random.Random(seed)
    klass = random_class(rng)
    value = rtd(klass).value
    assert value <= teaching_dim(klass)[0]
    assert value <= math.ceil(math.log2(len(klass.concepts))) if len(klass.concepts) > 1 else value == 0


@pytest.fixture
def kernel_calls(monkeypatch):
    """(number of masks, budget) of every kernel search, in call order."""
    calls = []
    search = teaching._min_hitting_set

    def counted(diffs, budget, lex=True):
        calls.append((len(diffs), budget))
        return search(diffs, budget, lex)

    monkeypatch.setattr(teaching, "_min_hitting_set", counted)
    return calls


@pytest.mark.parametrize(
    "klass, start",
    [
        (ConceptClass((), ()), None),
        (make_class(["01"]), 0),
        (make_class(["01", "10"]), 1),
        # Column x0 reads 1110 down the class: its single 0 teaches c3 alone.
        (make_class(["111", "110", "101", "000"], labels=["c0", "c1", "c2", "c3"]), 1),
        (build_gadget(2).klass, 2),  # every column holds four 1s of ten; min TS is 2
    ],
)
def test_rtd_starts_at_the_column_bound(klass, start, kernel_calls):
    res = rtd(klass)
    assert (res.value, res.plan) == ref_strip_decision(klass, 0, klass.width, None)
    assert (kernel_calls[0][1] if kernel_calls else None) == start
    assert min((budget for _, budget in kernel_calls), default=None) == start


def test_rtd_searches_each_concept_twice_on_a_no_instance(kernel_calls):
    # Domination number 3 at k = 2: the round at k = 2 fails on all 130 concepts,
    # then each round at k = 3 strips its first concept.  No search runs at k = 0.
    g = graph_with_domination_number(random.Random(212), 12, 3)
    klass = domset_to_rtd(g, 2).klass
    assert rtd(klass).value == 3
    assert len(kernel_calls) == 2 * len(klass.concepts) == 260
    assert [c for c in kernel_calls if c[1] == 0 and c[0] >= 1] == []


def test_rtd_rejects_a_bound_above_log2_of_the_class(monkeypatch):
    # TD_min(C) <= log2 |C|, so a failed round may not raise k past it.
    def inflated(diffs, budget, lex=True):
        return budget + 10, None

    monkeypatch.setattr(teaching, "_min_hitting_set", inflated)
    with pytest.raises(InvariantError, match="above log2"):
        rtd(build_gadget(2).klass)  # 10 concepts over 5 points: k may reach 3 at most


# -- subset oracle -----------------------------------------------------------------


def test_oracle_gadget1_plus_ones():
    assert rtd_oracle_subsets(gadget_plus_ones(1)) == 2


def test_oracle_point_functions(point_functions):
    assert rtd_oracle_subsets(point_functions) == 1


def test_oracle_singleton():
    assert rtd_oracle_subsets(make_class(["1"], labels=["c"])) == 0


def test_oracle_empty_class():
    # No subclass to decide, so RTD 0, even under a cap of 0.
    empty = ConceptClass(("p", "q"), ())
    assert rtd_oracle_subsets(empty) == rtd_oracle_subsets(empty, cap=0) == 0
    with pytest.raises(CapacityError):
        rtd_oracle_subsets(make_class(["1"], labels=["c"]), cap=0)


def test_oracle_cap_enforced():
    rows = [f"{i:016b}" for i in range(16)]
    klass = make_class(rows)
    with pytest.raises(CapacityError):
        rtd_oracle_subsets(klass)
    # explicit cap raise unlocks it
    assert rtd_oracle_subsets(klass, cap=16) == rtd(klass).value


def test_oracle_wide_domain_fallback():
    # width 13 exceeds the table limit and exercises the plain path
    rows = ["1000000000000", "0100000000000", "0000000000001"]
    klass = make_class(rows)
    assert rtd_oracle_subsets(klass) == rtd(klass).value == 1


@st.composite
def repeated_column_classes(draw):
    """Up to 7 distinct rows over 1-16 points, many of them repeated or constant columns."""
    m = draw(st.integers(1, 7))
    base = draw(st.integers(max(1, (m - 1).bit_length()), 5))
    rows = draw(st.lists(st.integers(0, 2**base - 1), min_size=m, max_size=m, unique=True))
    extra = draw(st.lists(st.sampled_from([*range(base), "0", "1"]), max_size=16 - base))
    columns = draw(st.permutations([*range(base), *extra]))
    return make_class(
        [[r >> col & 1 if isinstance(col, int) else int(col) for col in columns] for r in rows]
    )


@given(repeated_column_classes())
@settings(max_examples=100, deadline=None)
def test_oracle_matches_bruteforce_rtd(klass):
    assert rtd_oracle_subsets(klass) == bf_rtd([c.values for c in klass.concepts])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_oracle_agrees_with_rtd(seed):
    rng = random.Random(seed)
    klass = random_class(rng, max_concepts=8, max_points=6)
    assert rtd(klass).value == rtd_oracle_subsets(klass)


def test_oracle_rejects_a_negative_cap():
    with pytest.raises(InvalidArgumentError, match="cap must be >= 0, got -1"):
        rtd_oracle_subsets(make_class(["10", "01"]), cap=-1)


# -- the kernel against the one it replaced -----------------------------------------


def assert_answers_equal_the_reference_kernel(klass: ConceptClass) -> None:
    """RTD, decisions, witnesses, TD and TD_min all equal the earlier kernel's."""
    res = rtd(klass)
    assert (res.value, res.plan) == ref_strip_decision(klass, 0, klass.width, None)
    for k in range(4):
        plan = ref_strip_decision(klass, k, k, None)[1]
        assert rtd_decision(klass, k) == (plan is not None, plan)
        rng = random.Random(k)
        shuffled = ConceptClass(klass.domain, tuple(rng.sample(klass.concepts, len(klass.concepts))))
        plan = ref_strip_decision(shuffled, k, k, None)[1]
        assert rtd_decision(shuffled, k) == (plan is not None, plan)
    rows = [klass.row_mask(i) for i in range(len(klass.concepts))]
    sizes = []
    for ci, c in enumerate(klass.concepts):
        diffs = [rows[j] ^ rows[ci] for j in range(len(rows)) if j != ci]
        assert min_teaching_set(c, klass).witness == ref_lex_min_hitting_set(diffs, klass.width)
        sizes.append(ref_min_hitting_set(diffs, klass.width)[1])
    labels = klass.labels()
    assert teaching_dim(klass) == (max(sizes), labels[sizes.index(max(sizes))])
    assert td_min(klass) == (min(sizes), labels[sizes.index(min(sizes))])


@st.composite
def small_classes(draw):
    """Up to 12 distinct concepts over up to 10 points."""
    width = draw(st.integers(0, 10))
    masks = draw(st.lists(st.integers(0, 2**width - 1), min_size=1, max_size=12, unique=True))
    return make_class([[m >> i & 1 for i in range(width)] for m in masks],
                      labels=[f"c{i}" for i in range(len(masks))])


@given(small_classes())
@settings(max_examples=150, deadline=None)
def test_kernel_equals_the_reference_kernel_on_small_classes(klass):
    assert_answers_equal_the_reference_kernel(klass)


def graph_with_domination_number(rng: random.Random, n: int, gamma: int) -> Graph:
    while True:
        p = rng.uniform(0.05, 0.7)
        g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        if bf_min_domset(g)[0] == gamma:
            return g


@pytest.mark.parametrize(
    "k, n, yes",
    [(2, n, yes) for n in (*range(4, 9), 10, 12) for yes in (True, False)] + [(3, 4, True), (3, 5, True)],
)
def test_kernel_equals_the_reference_kernel_on_reductions(k, n, yes):
    # Tight instances: domination number exactly k (yes) or k + 1 (no).
    g = graph_with_domination_number(random.Random(100 * k + n), n, k if yes else k + 1)
    assert_answers_equal_the_reference_kernel(domset_to_rtd(g, k).klass)
