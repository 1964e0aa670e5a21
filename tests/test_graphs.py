import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ilab import EdgePartition, FormatError, Graph, canonical_edge
from ilab.formats import (
    parse_graph_json,
    parse_graph_text,
    serialize_graph_json,
    serialize_graph_text,
)
from ilab.decompose import colour_regular_bipartite
from ilab.graphs import BipartiteGraph, diameter, induced_subgraph, relabelled


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


def bfs_diameter(n, edges):
    """Largest eccentricity by plain BFS, sharing no code with ilab.graphs."""
    if n <= 1:
        return 0
    nbrs = {v: [] for v in range(n)}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    best = 0
    for s in range(n):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for x in frontier:
                for y in nbrs[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        if len(dist) < n:
            return math.inf
        best = max(best, max(dist.values()))
    return best


def diameter_cases():
    yield 0, []
    yield 1, []
    for n in (2, 3, 7, 25):
        yield n, []  # empty, so disconnected
        yield n, [(i, i + 1) for i in range(n - 1)]  # path
        yield n, [(u, v) for u in range(n) for v in range(u + 1, n)]  # complete
        yield n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)] * (n > 2)  # cycle
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(0, 25)
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        yield n, edges
        # the same edges cut in two at a random vertex: disconnected unless
        # one side is empty
        cut = rng.randint(0, n)
        yield n, [(u, v) for u, v in edges if (u < cut) == (v < cut)]


def test_diameter_matches_bfs_oracle():
    seen = set()
    for n, edges in diameter_cases():
        want = bfs_diameter(n, edges)
        assert diameter(Graph(n, tuple(edges))) == want, (n, edges)
        seen.add(want if want == math.inf else min(want, 3))
    assert seen == {0, 1, 2, 3, math.inf}


def test_diameter_of_a_long_path():
    n = 1000
    assert diameter(Graph(n, tuple((i, i + 1) for i in range(n - 1)))) == n - 1


@given(graphs(), st.data())
def test_relabelled_matches_the_validating_constructor(g, data):
    keep = data.draw(st.sets(st.sampled_from(range(g.vertex_count)))) if g.vertex_count else set()
    labels = sorted(keep)
    inside = [e for e in g.edges if e[0] in keep and e[1] in keep]
    pos = {x: i for i, x in enumerate(labels)}
    want = Graph(len(labels), tuple((pos[u], pos[v]) for u, v in inside))
    assert relabelled(labels, inside) == want
    assert relabelled(labels, inside[::-1]) == want


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
        b = BipartiteGraph((0, 1, 4), (2, 3), ((0, 2), (0, 3), (1, 2)))
        assert b.degree(0) == 2 and b.degree(3) == 1
        assert b.degree(4) == 0  # a label no edge touches
        assert b.degrees == {0: 2, 1: 1, 2: 2, 3: 1}
        assert b.density == 3 / 6
        assert b.edge_count == 3

    def test_restrict_keeps_host_order(self):
        b = BipartiteGraph((2, 1, 0), (3, 4), ((0, 3), (1, 4), (2, 3)))
        r = b.restrict((0, 2), (3,))
        assert r.left == (2, 0) and r.right == (3,)
        # the sorted subsequence of the host's edges, not left-label order
        want = tuple((u, v) for u, v in b.edges if u in (0, 2) and v == 3)
        assert r.edges == want == ((0, 3), (2, 3))

    @pytest.mark.parametrize("side,p", [(9, 0.6), (200, 0.002)])
    def test_without_drops_exactly_the_sub_pair(self, side, p):
        # a dense pair marks a cell table, a sparse one (under 1/64 of the
        # cells) sorts its keys; labels are shuffled, so positions are not
        # label order
        rng = random.Random(side)
        left = rng.sample(range(2 * side), side)
        right = [x + 2 * side for x in rng.sample(range(side), side)]
        edges = [(u, v) for u in left for v in right if rng.random() < p]
        b = BipartiteGraph(left, right, edges)
        sub = b.restrict(rng.sample(left, side // 2), right)
        sub = BipartiteGraph(sub.left, sub.right, [e for e in sub.edges if rng.random() < 0.5])
        rest = b.without(sub)
        want = BipartiteGraph(left, right, sorted(set(b.edges) - set(sub.edges)))
        assert rest.left == want.left and rest.right == want.right
        assert rest.edges == want.edges
        assert all(map(np.array_equal, rest.ends, want.ends))

    def test_to_graph_round(self):
        # a pair's plain-graph view is the graph of its regular colouring:
        # ambient ids 0..max label, canonical sorted edges, even where a left
        # label lies above a right one
        b = BipartiteGraph((0, 2), (1, 3), ((0, 3), (2, 1)))
        g = colour_regular_bipartite(b).graph
        assert g.edges == ((0, 3), (1, 2))
        assert g.vertex_count == 4


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
