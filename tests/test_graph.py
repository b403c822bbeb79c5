import itertools

import pytest

from teachdim import (
    Graph,
    InvalidArgumentError,
    ParseError,
    gen_random_graph,
    has_dominating_set,
    parse_graph,
    serialize_graph,
)
from conftest import all_labeled_graphs, dominates


K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


# -- construction ------------------------------------------------------------


def test_edges_normalized():
    g = Graph.from_edges(3, [(2, 0), (0, 2), (1, 2)])
    assert g.edges == frozenset({(0, 2), (1, 2)})


def test_self_loop_rejected():
    with pytest.raises(InvalidArgumentError):
        Graph.from_edges(2, [(1, 1)])


def test_out_of_range_edge_rejected():
    with pytest.raises(InvalidArgumentError):
        Graph.from_edges(2, [(0, 2)])


# -- has_dominating_set ----------------------------------------------------------


def test_k3_single_vertex():
    assert has_dominating_set(K3, 1) == (True, (0,))


def test_isolated_vertices_cannot_be_dominated_by_two():
    g = Graph.from_edges(3, [])
    assert has_dominating_set(g, 2) == (False, None)


def test_path_witness_is_lex_first():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    ok, witness = has_dominating_set(p4, 2)
    assert ok and witness == (0, 2)
    assert all(any(dominates(p4, v, u) for v in witness) for u in range(4))


def test_witness_has_exact_size_k():
    # padding to size k is built in: K3 with k=2 returns a 2-set
    ok, witness = has_dominating_set(K3, 2)
    assert ok and len(witness) == 2 and witness == (0, 1)


def test_monotone_in_k():
    for g in all_labeled_graphs(4):
        previous = False
        for k in range(5):
            ok, witness = has_dominating_set(g, k)
            assert ok or not previous  # once true, stays true
            previous = previous or ok
            if ok and witness:
                assert all(
                    any(dominates(g, v, u) for v in witness) for u in range(g.n)
                )
        assert previous  # k = n always dominates


def test_k_out_of_range():
    with pytest.raises(InvalidArgumentError):
        has_dominating_set(K3, 4)
    with pytest.raises(InvalidArgumentError):
        has_dominating_set(K3, -1)


def test_zero_k_empty_graph_cases():
    assert has_dominating_set(Graph(0, frozenset()), 0) == (True, ())
    assert has_dominating_set(K3, 0) == (False, None)


# -- generation -----------------------------------------------------------------


def test_gen_p0_empty():
    assert gen_random_graph(4, 0.0, 123).edges == frozenset()


def test_gen_p1_complete():
    g = gen_random_graph(4, 1.0, 5)
    assert len(g.edges) == 6


def test_gen_deterministic():
    a = gen_random_graph(6, 0.5, 42)
    b = gen_random_graph(6, 0.5, 42)
    assert a == b
    assert gen_random_graph(6, 0.5, 43) != a  # different seed, different graph


def test_gen_validates_probability():
    with pytest.raises(InvalidArgumentError):
        gen_random_graph(4, 1.5, 0)


@pytest.mark.parametrize("build", [lambda: Graph(-1, frozenset()), lambda: gen_random_graph(-1, 0.5, 0)])
def test_negative_vertex_count_rejected(build):
    with pytest.raises(InvalidArgumentError, match="vertex count must be non-negative"):
        build()


# -- text format -------------------------------------------------------------------


def test_graph_roundtrip():
    text = serialize_graph(K3)
    assert text == "3 3\n0 1\n0 2\n1 2\n"
    assert parse_graph(text) == K3


def test_graph_parse_comments():
    g = parse_graph("# tri\n3 1\n0 2  # only edge\n")
    assert g.edges == frozenset({(0, 2)})


@pytest.mark.parametrize(
    "text",
    ["", "3\n", "3 2\n0 1\n", "3 1\n0 1 2\n", "3 1\n0 x\n", "3 1\n1 1\n", "2 1\n0 5\n"],
)
def test_graph_parse_errors(text):
    with pytest.raises(ParseError):
        parse_graph(text)


@pytest.mark.parametrize("text, line", [("-1 0\n", 1), ("# none\n\n-2 0\n", 3)])
def test_graph_parse_errors_name_the_line(text, line):
    with pytest.raises(ParseError) as ei:
        parse_graph(text)
    assert ei.value.line == line


# -- domination by a set -------------------------------------------------------------


def test_dominated_by_matches_bruteforce():
    for n in range(5):
        for g in all_labeled_graphs(n):
            for size in range(n + 1):
                for T in itertools.combinations(range(n), size):
                    expected = all(
                        any(v == u or (min(u, v), max(u, v)) in g.edges for v in T)
                        for u in range(n)
                    )
                    assert g.dominated_by(T) is expected
                    assert g.dominated_by(list(T) * 2) is expected


@pytest.mark.parametrize("bad", [-1, -3, 3, 7])
def test_dominated_by_rejects_out_of_range(bad):
    # A negative index must not wrap around to a real vertex.
    with pytest.raises(InvalidArgumentError):
        K3.dominated_by([0, 1, bad])
    with pytest.raises(InvalidArgumentError):
        Graph(0, frozenset()).dominated_by([bad])


@pytest.mark.parametrize("second", ["0 1", "1 0"])
def test_graph_parse_rejects_a_repeated_edge(second):
    # A repeated edge would leave fewer edges than the header counts.
    with pytest.raises(ParseError) as ei:
        parse_graph(f"3 2\n0 1\n# again\n{second}\n")
    assert ei.value.line == 4
    assert str(ei.value) == f"line 4: duplicate edge ({second.replace(' ', ', ')}) (first on line 2)"
    assert Graph.from_edges(3, [(0, 1), (1, 0)]).edges == frozenset({(0, 1)})
