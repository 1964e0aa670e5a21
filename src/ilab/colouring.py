"""Interval edge colourings: verification, spread bounds, forests.

An edge colouring ``c: E -> Z`` is *proper* if edges sharing a vertex get
distinct colours, and *interval* if additionally the set of colours at every
vertex is a contiguous run of integers, that is, the colours at every vertex,
sorted, step up by exactly 1, which is what the verifier checks.

The spread bound: if ``H`` is a connected subgraph of diameter ``d`` whose
vertices all have degree at most ``delta_cap`` in the ambient graph, then in
any interval colouring of any supergraph of ``H`` the colours of two edges of
``H`` differ by at most ``(d+1) * (delta_cap - 1)`` — walking between the two
edges changes the colour by at most ``delta_cap - 1`` per shared vertex.
``spread_check`` tests exactly this, so a ``False`` return certifies that the
colouring is not an interval colouring of any supergraph of ``H``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, pairwise
from typing import Sequence

import numpy as np

from .graphs import (
    Edge,
    Graph,
    canonical_edge,
    diameter,
    induced_subgraph,
)


@dataclass(frozen=True)
class EdgeColouring:
    """A total assignment of integer colours to a graph's edges."""

    graph: Graph
    colours: dict[Edge, int]

    def __post_init__(self):
        if set(self.colours) != set(self.graph.edges):
            missing = sorted(set(self.graph.edges) - set(self.colours))[:3]
            extra = sorted(set(self.colours) - set(self.graph.edges))[:3]
            raise ValueError(f"colour domain mismatch (missing {missing}, extra {extra})")
        for e, c in self.colours.items():
            if not isinstance(c, int):
                raise ValueError(f"colour of {e} is not an int: {c!r}")

    @classmethod
    def _trusted(cls, graph: Graph, colours: dict[Edge, int]) -> "EdgeColouring":
        """Build without validating.

        The caller guarantees what ``__post_init__`` would check: the keys of
        ``colours`` are exactly ``graph.edges`` and every colour is an int.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "graph", graph)
        object.__setattr__(obj, "colours", colours)
        return obj

    def colour(self, u: int, v: int) -> int:
        return self.colours[canonical_edge(u, v)]

    def vertex_colours(self, v: int) -> list[int]:
        return sorted(self.colours[canonical_edge(v, w)] for w in self.graph.adjacency[v])

    def normalised(self) -> "EdgeColouring":
        """Shift so the minimum colour is 0 (identity on empty graphs)."""
        if not self.colours:
            return self
        low = min(self.colours.values())
        return EdgeColouring(self.graph, {e: c - low for e, c in self.colours.items()})


@dataclass
class ColouringReport:
    proper: bool
    interval: bool
    distinct_colours: int
    min_colour: int | None
    max_colour: int | None
    first_violation: tuple[int, str] | None  # (vertex, reason)


def verify(c: EdgeColouring) -> ColouringReport:
    """Check properness and interval-ness in one sort of the edge ends.

    Every edge contributes its two ends, each tagged with the rank of its
    colour among the distinct colours, ``sorted(set(values))``. Ranks are
    small ints whatever the colours are, and the gaps between distinct
    colours are taken as Python ints, so the check is exact for any int
    colour, however large.

    One ``lexsort`` by (vertex, rank) lines up the colours at each vertex
    in ascending order, and the argument is then pair by pair: a vertex is
    proper iff no two consecutive colours at it are equal (rank step 0),
    and interval iff moreover each consecutive pair differs by exactly 1,
    that is its rank step is 1 and the two distinct colours it joins are 1
    apart. The cost is one sort of 2m ends, whatever the vertex count;
    isolated vertices carry no ends and are never looked at.

    The first violation is at the lowest vertex with a bad pair; its text
    lists that vertex's sorted colours and names a repeat before a gap, as
    a vertex-by-vertex walk in ascending id order would. An empty graph
    verifies trivially.
    """
    values = list(c.colours.values())
    m = len(values)
    if not m:
        return ColouringReport(True, True, 0, None, None, None)
    distinct = sorted(set(values))
    rank_of = {colour: r for r, colour in enumerate(distinct)}
    ranks = np.fromiter(map(rank_of.__getitem__, values), np.int64, m).repeat(2)
    ends = np.fromiter(chain.from_iterable(c.colours), np.int64, 2 * m)
    order = np.lexsort((ranks, ends))
    at, rank = ends[order], ranks[order]
    same = at[1:] == at[:-1]
    step = rank[1:] - rank[:-1]
    # unit[r]: distinct colours r and r + 1 are 1 apart (False past the last)
    unit = np.fromiter(
        chain((b - a == 1 for a, b in pairwise(distinct)), [False]), bool, len(distinct)
    )
    repeat = same & (step == 0)
    bad = same & ~((step == 1) & unit[rank[:-1]])
    violation = None
    if bad.any():
        v = int(at[bad.argmax()])
        lo, hi = np.searchsorted(at, [v, v + 1])
        cols = [distinct[r] for r in rank[lo:hi].tolist()]
        if repeat[lo:hi - 1].any():
            violation = (v, f"repeated colour at vertex {v}: {cols}")
        else:
            violation = (v, f"colours at vertex {v} not contiguous: {cols}")
    return ColouringReport(
        proper=not repeat.any(),
        interval=violation is None,
        distinct_colours=len(distinct),
        min_colour=distinct[0],
        max_colour=distinct[-1],
        first_violation=violation,
    )


def count_colours(c: EdgeColouring) -> int:
    return len(set(c.colours.values()))


def spread_cap(diam: int, delta_cap: int) -> int:
    """Max colour difference between edges of a diameter-``diam`` subgraph."""
    return (diam + 1) * (delta_cap - 1)


def spread_check(
    g: Graph,
    h_vertices: Sequence[int],
    c: EdgeColouring | dict[Edge, int],
    delta_cap: int,
) -> tuple[bool, tuple[Edge, Edge] | None]:
    """Test the spread bound on the subgraph induced by ``h_vertices``.

    ``c`` must colour at least the induced edges (it may colour a supergraph);
    ``delta_cap`` must dominate the ambient degree of every listed vertex.
    Returns ``(True, None)`` or ``(False, (e_min, e_max))`` with an extremal
    violating pair. A ``False`` certifies that ``c`` is not an interval
    colouring of any supergraph of the induced subgraph.
    """
    colours = c.colours if isinstance(c, EdgeColouring) else c
    sub, table = induced_subgraph(g, h_vertices)
    if sub.vertex_count == 0:
        raise ValueError("empty vertex set")
    d = diameter(sub)
    if d == float("inf"):
        raise ValueError("induced subgraph is disconnected")
    actual_max = max(g.degree(v) for v in table)
    if delta_cap < actual_max:
        raise ValueError(
            f"delta_cap={delta_cap} below actual max degree {actual_max}"
        )
    h_edges = [canonical_edge(table[u], table[v]) for u, v in sub.edges]
    if not h_edges:
        return True, None
    for e in h_edges:
        if e not in colours:
            raise ValueError(f"colouring does not cover induced edge {e}")
    e_min = min(h_edges, key=lambda e: (colours[e], e))
    e_max = max(h_edges, key=lambda e: (colours[e], e))
    if colours[e_max] - colours[e_min] > spread_cap(int(d), delta_cap):
        return False, (e_min, e_max)
    return True, None


# ---------------------------------------------------------------------------
# forests
# ---------------------------------------------------------------------------

def colour_forest(f: Graph) -> EdgeColouring:
    """Interval-colour a forest.

    Each tree is rooted at its smallest vertex; the root's edges get colours
    ``1..deg`` in neighbour order, and below that a vertex whose parent edge
    has colour ``p`` gives its child edges ``p+1, p+2, ...`` so every vertex
    sees ``[p, p + deg - 1]``.

    Only the vertices that carry an edge are visited, so the cost is linear
    in the edges whatever the vertex count. ``f.edges`` is sorted and
    canonical, so each neighbour list built from it comes out ascending.

    The colours are keyed by exactly ``f.edges``, so the colouring is built
    with ``EdgeColouring._trusted``. Proof: every touched vertex is pushed
    once, when first seen, and popped once, and the pop of v looks at every
    edge at v but the one to its parent. If such an edge vw finds w already
    seen, then v and w are joined by tree edges (a finished tree has no
    edge leaving it), which close a cycle with vw, and the function raises.
    In a forest that never happens: every edge is a tree edge, and the DFS
    reaches it exactly once, from the end popped first, where it gets its
    colour under its canonical key and pushes the other end, whose pop
    skips it as the parent edge. So each edge of ``f`` is coloured once, no
    other key is written, and every colour is an int.
    """
    adj: dict[int, list[int]] = defaultdict(list)
    for u, v in f.edges:
        adj[u].append(v)
        adj[v].append(u)
    colours: dict[Edge, int] = {}
    seen: set[int] = set()
    for root in sorted(adj):
        if root in seen:
            continue
        seen.add(root)
        # (vertex, parent, colour of parent edge)
        stack = [(root, -1, 0)]
        while stack:
            v, parent, pcol = stack.pop()
            nxt = pcol + 1
            for w in adj[v]:
                if w == parent:
                    continue
                if w in seen:
                    raise ValueError(f"input contains a cycle through ({v}, {w})")
                seen.add(w)
                colours[(v, w) if v < w else (w, v)] = nxt
                stack.append((w, v, nxt))
                nxt += 1
    return EdgeColouring._trusted(f, colours)
