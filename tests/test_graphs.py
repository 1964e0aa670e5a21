import math

import pytest
from hypothesis import given, strategies as st

from ilab import EdgePartition, FormatError, Graph, canonical_edge
from ilab.formats import (
    parse_graph_json,
    parse_graph_text,
    serialize_graph_json,
    serialize_graph_text,
)
from ilab.graphs import BipartiteGraph, diameter, induced_subgraph


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, tuple(sorted(chosen)))


def test_canonical_edge_orders_endpoints():
    assert canonical_edge(5, 2) == (2, 5)
    assert canonical_edge(2, 5) == (2, 5)
    with pytest.raises(ValueError):
        canonical_edge(3, 3)


def test_graph_rejects_out_of_range_and_duplicate_edges():
    with pytest.raises(ValueError):
        Graph(3, ((0, 3),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))


def test_adjacency_and_degrees():
    g = Graph(4, ((0, 1), (0, 2), (2, 3)))
    assert g.adjacency[0] == (1, 2)
    assert g.degree(0) == 2 and g.degree(3) == 1
    assert g.max_degree == 2


def test_components_and_connectivity():
    g = Graph(5, ((0, 1), (2, 3)))
    comps = g.components()
    assert sorted(map(sorted, comps)) == [[0, 1], [2, 3], [4]]
    assert not g.is_connected()
    assert Graph(1, ()).is_connected()


def test_diameter_values():
    path = Graph(4, ((0, 1), (1, 2), (2, 3)))
    assert diameter(path) == 3
    assert diameter(Graph(2, ())) == math.inf
    assert diameter(Graph(1, ())) == 0


def test_induced_subgraph_relabels_in_order():
    g = Graph(5, ((0, 2), (2, 4), (3, 4)))
    sub, table = induced_subgraph(g, [2, 3, 4])
    assert table == [2, 3, 4]
    assert sub.vertex_count == 3
    assert sub.edges == ((0, 2), (1, 2))


@given(graphs())
def test_text_round_trip(g):
    assert parse_graph_text(serialize_graph_text(g)) == g


@given(graphs())
def test_json_round_trip(g):
    assert parse_graph_json(serialize_graph_json(g)) == g


@pytest.mark.parametrize(
    "text,message_part",
    [
        ("", "empty"),
        ("nope", "expected '<n> <m>'"),
        ("2 1\n", "file ended early"),
        ("2 1\n0 0\n", "loop edge"),
        ("2 1\n0 2\n", "range"),
        ("2 2\n0 1\n0 1\n", "duplicate"),
        ("3 1\n\n\n\n0 1 x\n", "line 5: expected '<u> <v>'"),
        ("3 -1\n", "line 1: negative edge count"),
    ],
)
def test_text_parse_errors(text, message_part):
    with pytest.raises(FormatError) as err:
        parse_graph_text(text)
    assert message_part in str(err.value)


def test_text_format_is_sorted_and_newline_terminated():
    g = Graph(3, ((1, 2), (0, 2)))
    assert serialize_graph_text(g) == "3 2\n0 2\n1 2\n"


class TestBipartite:
    def test_sides_must_be_disjoint(self):
        with pytest.raises(ValueError):
            BipartiteGraph((0, 1), (1, 2), ())

    def test_edges_must_cross(self):
        with pytest.raises(ValueError):
            BipartiteGraph((0, 1), (2, 3), ((0, 1),))

    def test_degree_and_density(self):
        b = BipartiteGraph((0, 1), (2, 3), ((0, 2), (0, 3), (1, 2)))
        assert b.degree(0) == 2 and b.degree(3) == 1
        assert b.density == 3 / 4
        assert b.edge_count == 3

    def test_restrict_keeps_host_order(self):
        b = BipartiteGraph((2, 1, 0), (3, 4), ((0, 3), (1, 4), (2, 3)))
        r = b.restrict((0, 2), (3,))
        assert r.left == (2, 0) and r.right == (3,)
        # the sorted subsequence of the host's edges, not left-label order
        want = tuple((u, v) for u, v in b.edges if u in (0, 2) and v == 3)
        assert r.edges == want == ((0, 3), (2, 3))

    def test_to_graph_round(self):
        b = BipartiteGraph((0, 2), (1,), ((0, 1), (2, 1)))
        g = b.to_graph()
        assert g.edges == ((0, 1), (1, 2))
        assert g.vertex_count == 3


def test_edge_partition_requires_exact_domain():
    g = Graph(3, ((0, 1), (1, 2)))
    EdgePartition(g, {(0, 1): 0, (1, 2): 1}, 2)
    with pytest.raises(ValueError):
        EdgePartition(g, {(0, 1): 0}, 1)
    with pytest.raises(ValueError):
        EdgePartition(g, {(0, 1): 0, (1, 2): 2}, 2)


@given(graphs(max_n=7))
def test_components_partition_vertices(g):
    seen = sorted(v for comp in g.components() for v in comp)
    assert seen == list(range(g.vertex_count))
