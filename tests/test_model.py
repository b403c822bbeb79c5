import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teachdim import (
    Concept,
    ConceptClass,
    InvalidArgumentError,
    InvalidPlanError,
    MalformedPlanError,
    ParseError,
    TeachingPlan,
    check_plan,
    is_teaching_set,
    parse_class,
    parse_graph,
    parse_plan,
    serialize_class,
    serialize_plan,
)
from conftest import make_class, random_class


# -- is_teaching_set -------------------------------------------------------------


def test_teaching_set_gadget_k1():
    klass = make_class(["100", "010", "001"])
    assert is_teaching_set(klass.concept("100"), klass, {0})


def test_not_teaching_set():
    klass = make_class(["100", "010", "001"])
    # 001 agrees with 100 on index 1, so {1} cannot teach 100.
    assert not is_teaching_set(klass.concept("100"), klass, {1})


def test_singleton_empty_set_teaches():
    klass = make_class(["101"])
    assert is_teaching_set(klass.concept("101"), klass, set())


def test_teaching_set_requires_membership():
    klass = make_class(["10", "01"])
    with pytest.raises(InvalidArgumentError):
        is_teaching_set(Concept("zz", (1, 1)), klass, {0})
    with pytest.raises(InvalidArgumentError):
        is_teaching_set(Concept("10", (1, 1)), klass, {0})


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_teaching_set_monotone_in_s(seed):
    rng = random.Random(seed)
    klass = random_class(rng, max_concepts=6, max_points=6)
    c = rng.choice(klass.concepts)
    pts = list(range(klass.width))
    s = set(rng.sample(pts, rng.randint(0, klass.width)))
    bigger = s | set(rng.sample(pts, rng.randint(0, klass.width)))
    if is_teaching_set(c, klass, s):
        assert is_teaching_set(c, klass, bigger)


# -- construction invariants -----------------------------------------------------


def test_duplicate_rows_rejected():
    with pytest.raises(InvalidArgumentError):
        make_class(["10", "10"], labels=["a", "b"])


def test_duplicate_labels_rejected():
    with pytest.raises(InvalidArgumentError):
        make_class(["10", "01"], labels=["a", "a"])


def test_row_width_must_match_domain():
    with pytest.raises(InvalidArgumentError):
        ConceptClass.from_rows(["10", "011"])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ConceptClass(("p", "p"), ()), "duplicate domain label 'p'"),
        (lambda: ConceptClass.from_rows(["012"]), "row '012' is not a bitstring"),
        (lambda: ConceptClass.from_rows(["10", "01"], labels=["a"]), "one label per row required"),
    ],
)
def test_bad_class_arguments_rejected(build, message):
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        build()


def test_columns_of_a_class_without_concepts():
    assert ConceptClass(("p", "q"), ()).columns() == [0, 0]


def test_empty_domain_single_concept_ok():
    klass = make_class([""], labels=["only"])
    assert klass.width == 0
    assert len(klass.concepts) == 1


def test_empty_domain_two_concepts_impossible():
    with pytest.raises(InvalidArgumentError):
        make_class(["", ""], labels=["a", "b"])


def test_labels_must_be_clean():
    with pytest.raises(InvalidArgumentError):
        make_class(["10"], labels=["has space"])
    with pytest.raises(InvalidArgumentError):
        make_class(["10"], labels=["ha#sh"])
    # A label that is not a string, such as an int, is rejected the same way.
    with pytest.raises(InvalidArgumentError):
        make_class(["1"], point_labels=[5])
    with pytest.raises(InvalidArgumentError):
        make_class(["1"], labels=[7])


def test_wide_classes_supported():
    # 4096 columns must work
    width = 4096
    rows = ["0" * width, "1" + "0" * (width - 1), "01" + "0" * (width - 2)]
    klass = make_class(rows, labels=["a", "b", "c"])
    assert klass.width == width
    assert is_teaching_set(klass.concept("a"), klass, {0, 1})
    assert not is_teaching_set(klass.concept("a"), klass, {2})
    assert parse_class(serialize_class(klass)) == klass


def test_bool_and_float_bits_round_trip():
    # Values equal to 0 or 1 are stored as those bits, so the text, the
    # default labels and the parsed class all read them as 0 and 1.
    klass = ConceptClass.from_rows([(True, False), (False, True)], labels=["a", "b"])
    text = serialize_class(klass)
    assert "a 10" in text.splitlines()
    assert parse_class(text) == klass
    assert ConceptClass.from_rows([(True, False), (1.0, 1)]).labels() == ("10", "11")
    assert Concept("c", (1.0, False)).values == (1, 0)


@pytest.mark.parametrize("bad", [2, "1", None, -1, 0.5])
def test_non_bit_values_rejected(bad):
    with pytest.raises(InvalidArgumentError):
        Concept("c", (bad, 0))
    with pytest.raises(InvalidArgumentError):
        ConceptClass.from_rows([(1, 0), (bad, 0)])


@given(st.data())
@settings(max_examples=150)
def test_every_way_to_build_a_concept_agrees(data):
    # Widths up to 70, so rows above 64 points span more than one machine word.
    width = data.draw(st.integers(0, 70))
    masks = data.draw(st.lists(st.integers(0, 2**width - 1), min_size=1,
                               max_size=min(4, 2**width), unique=True))
    labels = [f"c{i}" for i in range(len(masks))]
    rows = [tuple(m >> i & 1 for i in range(width)) for m in masks]
    bits = ["".join(str(v) for v in row) for row in rows]
    # The same rows with each value written as an int, a bool or a float.
    kinds = data.draw(st.lists(st.sampled_from([int, bool, float]), min_size=width, max_size=width))
    mixed = [tuple(kind(v) for kind, v in zip(kinds, row)) for row in rows]
    direct = [Concept(label, row) for label, row in zip(labels, mixed)]
    routes = [
        direct,
        ConceptClass.from_rows(bits, labels).concepts,
        ConceptClass.from_rows(mixed, labels).concepts,
        parse_class(serialize_class(ConceptClass.from_rows(rows, labels))).concepts,
    ]
    for concepts in routes:
        assert list(concepts) == direct
        for c, d, m, row, b in zip(concepts, direct, masks, rows, bits):
            assert hash(c) == hash(d)
            assert c.values == row and all(type(v) is int for v in c.values)
            assert c.bitstring() == b
            assert c.mask() == m


# -- check_plan ------------------------------------------------------------------


def test_point_function_plan(point_functions):
    plan = TeachingPlan((("100", (0,)), ("010", (1,)), ("001", (2,)), ("000", ())))
    assert check_plan(point_functions, plan) == 1


def test_singleton_plan_width_zero():
    klass = make_class(["11"], labels=["c"])
    assert check_plan(klass, TeachingPlan((("c", ()),))) == 0


def test_all_zero_first_is_rejected(point_functions):
    plan = TeachingPlan((("000", (0,)), ("100", (0,)), ("010", (1,)), ("001", (2,))))
    with pytest.raises(InvalidPlanError) as ei:
        check_plan(point_functions, plan)
    assert ei.value.step == 0
    # the witness must actually agree with 000 on index 0
    assert ei.value.witness in ("010", "001")
    agree = point_functions.concept(ei.value.witness)
    assert agree.values[0] == 0


def test_rejection_names_the_first_agreeing_concept_in_plan_order(point_functions):
    # 001 and 010 both agree with 000 on point 0; the plan lists 001 first.
    plan = TeachingPlan((("100", (0,)), ("000", (0,)), ("001", (2,)), ("010", (1,))))
    with pytest.raises(InvalidPlanError, match=r"step 1 \('000', \{0\}\) fails: '001' agrees") as ei:
        check_plan(point_functions, plan)
    assert (ei.value.step, ei.value.witness) == (1, "001")


def test_plan_missing_concept(point_functions):
    with pytest.raises(MalformedPlanError):
        check_plan(point_functions, TeachingPlan((("100", (0,)),)))


def test_plan_duplicate_concept(point_functions):
    steps = (("100", (0,)), ("100", (0,)), ("010", (1,)), ("001", (2,)))
    with pytest.raises(MalformedPlanError):
        check_plan(point_functions, TeachingPlan(steps))


def test_plan_bad_index(point_functions):
    steps = (("100", (9,)), ("010", (1,)), ("001", (2,)), ("000", ()))
    with pytest.raises(MalformedPlanError):
        check_plan(point_functions, TeachingPlan(steps))


def test_accepted_plan_may_break_under_permutation(point_functions):
    ok = TeachingPlan((("100", (0,)), ("010", (1,)), ("001", (2,)), ("000", ())))
    assert check_plan(point_functions, ok) == 1
    permuted = TeachingPlan((("000", ()), ("100", (0,)), ("010", (1,)), ("001", (2,))))
    with pytest.raises(InvalidPlanError):
        check_plan(point_functions, permuted)


# -- text format -------------------------------------------------------------------


def test_parse_basic():
    klass = parse_class("2 3\nA 101\nB 010\n")
    assert len(klass.concepts) == 2
    assert klass.width == 3
    assert klass.concept("A").values == (1, 0, 1)
    assert klass.domain == ("x0", "x1", "x2")


def test_parse_labels_line_and_comments():
    text = "# a class\n2 2\nlabels: left right\nA 10  # row A\nB 01\n"
    klass = parse_class(text)
    assert klass.domain == ("left", "right")
    assert klass.concept("B").values == (0, 1)


def test_parse_empty_domain_singleton():
    klass = parse_class("1 0\nA \n")
    assert klass.width == 0
    assert klass.labels() == ("A",)


def test_parse_duplicate_row_errors_with_line():
    with pytest.raises(ParseError) as ei:
        parse_class("2 2\nA 10\nB 10\n")
    assert ei.value.line == 3


@pytest.mark.parametrize(
    "text",
    [
        "",  # no header
        "x y\nA 10\n",  # non-integer header
        "1\nA 10\n",  # short header
        "2 2\nA 10\n",  # missing row
        "1 2\nA 10\nB 01\n",  # extra row
        "1 2\nA 1\n",  # wrong length
        "1 2\nA 1x\n",  # bad character
        "2 2\nA 10\nA 01\n",  # duplicate label
        "1 2\nlabels: p\nA 10\n",  # labels count mismatch
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_class(text)


def test_serialize_shape(point_functions):
    text = serialize_class(point_functions)
    assert text == (
        "4 3\nlabels: x0 x1 x2\n100 100\n010 010\n001 001\n000 000\n"
    )
    assert parse_class(text) == point_functions


def test_serialize_empty_domain_no_trailing_whitespace():
    klass = make_class([""], labels=["only"])
    text = serialize_class(klass)
    assert text == "1 0\nonly\n"
    assert all(line == line.rstrip() for line in text.splitlines())
    assert parse_class(text) == klass


def test_empty_domain_concept_named_labels_round_trips():
    klass = make_class([""], labels=["labels:"])
    text = serialize_class(klass)
    assert text == "1 0\nlabels:\n"
    assert parse_class(text) == klass
    # A line more than the concepts makes the first one the labels line again.
    assert parse_class("1 0\nlabels:\nx\n") == make_class([""], labels=["x"])
    assert parse_class("0 0\nlabels:\n").concepts == ()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_roundtrip_random_classes(seed):
    klass = random_class(random.Random(seed))
    assert parse_class(serialize_class(klass)) == klass


# -- plan text format -----------------------------------------------------------


def test_plan_roundtrip():
    plan = TeachingPlan((("a", (2, 0)), ("b", ())))
    text = serialize_plan(plan)
    assert text == "a 0 2\nb\n"
    assert parse_plan(text) == plan


def test_plan_parse_rejects_junk():
    with pytest.raises(ParseError):
        parse_plan("a one two\n")
    with pytest.raises(ParseError):
        parse_plan("a -1\n")


@pytest.mark.parametrize(
    "text, line",
    [
        ("2 2\nlabels: p p\nA 10\nB 01\n", 2),  # repeated point label
        ("# c\n1 3\nlabels: a b a\nA 101\n", 3),
        ("2 2\nA 10\n", 1),  # fewer concept lines than the header says
        ("# c\n3 2\nlabels: p q\nA 10\n", 2),
    ],
)
def test_parse_errors_name_the_line(text, line):
    with pytest.raises(ParseError) as ei:
        parse_class(text)
    assert ei.value.line == line


@pytest.mark.parametrize(
    "parse, form",
    [(parse_class, "'<numConcepts> <numPoints>'"), (parse_graph, "'<n> <m>'")],
)
@pytest.mark.parametrize(
    "text, message",
    [
        ("# none\n", "empty input, expected {form} header"),
        ("\n3\n", "line 2: header must be {form}"),
        ("3 x\n", "line 1: header counts must be integers"),
        ("0 -1\n", "line 1: header counts must be non-negative"),
    ],
)
def test_class_and_graph_headers_fail_alike(parse, form, text, message):
    with pytest.raises(ParseError) as ei:
        parse(text)
    assert str(ei.value) == message.format(form=form)
