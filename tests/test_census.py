"""Census of every graph with edges on at most 6 vertices, up to isomorphism.

The graphs are networkx's atlas (``graph_atlas_g``), which lists every graph
on 0-7 vertices once, ordered by vertex count. Each gets its colourability,
t (the maximum number of colours in an interval colouring) and theta. Two
facts hold on the whole census: no graph has t > floor((3n - 4) / 2), planar
or not, and theta <= 2.
"""

import hashlib

import pytest

from ilab import Graph, exact_thickness, find_interval_colouring, max_colours

nx = pytest.importorskip("networkx")


@pytest.fixture(scope="module")
def census():
    """``(atlas_index, n, colourable, t_or_None, theta)`` per graph."""
    rows = []
    for index, a in enumerate(nx.graph_atlas_g()):
        n = a.number_of_nodes()
        if n > 6:
            break
        if a.number_of_edges() == 0:
            continue
        g = Graph(n, sorted(tuple(sorted(e)) for e in a.edges()))
        res = max_colours(g)
        colourable = find_interval_colouring(g) is not None
        assert colourable == (res is not None), index
        t = None if res is None else res[0]
        rows.append((index, n, colourable, t, exact_thickness(g).theta))
    return rows


def test_census_covers_every_graph_with_edges(census):
    assert len(census) == 202


def test_colour_count_bound_holds_on_every_graph(census):
    for index, n, _, t, _ in census:
        assert t is None or t <= (3 * n - 4) // 2, (index, n, t)


def test_thickness_is_at_most_two(census):
    assert max(theta for *_, theta in census) == 2


def test_census_is_frozen(census):
    h = hashlib.sha256()
    for index, _, colourable, t, theta in census:
        h.update(repr((index, colourable, t, theta)).encode())
    assert h.hexdigest() == "dc0ba42138067fd071cb1b18c886680d410e4dea92d9b36afb06b1a6c39ffb5a"
