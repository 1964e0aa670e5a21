"""Core graph containers: graphs, bipartite graphs and edge partitions.

Conventions used throughout the package:

* vertices of a ``Graph`` are ``0 .. n-1``; an edge is the ordered pair
  ``(u, v)`` with ``u < v`` and graphs are simple (no loops, no multi-edges);
* a ``BipartiteGraph`` keeps explicit vertex *labels* for both sides (labels
  are arbitrary ints, typically ids of some ambient ``Graph``) and stores each
  edge as ``(left_label, right_label)``. ``BipartiteGraph.ends`` is its one
  integer-array view, the positions of each edge's ends in ``left`` and
  ``right``, and every count reads it: ``degree_arrays`` is the one
  bipartite degree table and ``degrees`` its label-keyed view. Every pair
  ilab builds is handed its view where it is built: ``restrict`` and
  ``without`` slice theirs, ``decompose.BitLayer.graph`` computes a layer's
  from its ids, ``randlab.generate`` and ``formats.parse_layered_json``
  from the draw and the edge rows. Only ``BipartiteGraph(...)`` derives one
  from labels. ``relabelled`` is the one renumbering of a piece of a graph
  onto 0..k-1.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from typing import Iterable, Sequence

import numpy as np

Edge = tuple[int, int]

# The most vertices an input file may declare (ilab.formats). decompose pads
# ids to a power of two, and orients only the layers dense enough for the
# increment: `ilab decompose` on n = 2^18 with the edges (0, 2^b), b < 18, one
# in each layer, peaks at 34 MB RSS (ru_maxrss, CPython 3.11, x86-64 Linux)
MAX_VERTICES = 1 << 18


def canonical_edge(u: int, v: int) -> Edge:
    """Return the (min, max) form of an edge, rejecting loops."""
    if u == v:
        raise ValueError(f"loop edge ({u}, {v}) not allowed")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 0..n-1."""

    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        seen = set()
        norm = []
        for u, v in self.edges:
            e = canonical_edge(u, v)
            if not (0 <= e[0] < self.vertex_count and e[1] < self.vertex_count):
                raise ValueError(f"edge {e} out of range for n={self.vertex_count}")
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @classmethod
    def _trusted(cls, vertex_count: int, edges: tuple[Edge, ...]) -> "Graph":
        """Build without validating or sorting.

        The caller guarantees what ``__post_init__`` would check and produce:
        ``vertex_count >= 0`` and ``edges`` is a sorted tuple of distinct
        pairs ``(u, v)`` with ``0 <= u < v < vertex_count`` — for example a
        sorted subsequence of a validated graph's edges.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "vertex_count", vertex_count)
        object.__setattr__(obj, "edges", edges)
        return obj

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def max_degree(self) -> int:
        if self.vertex_count == 0:
            return 0
        return max(len(a) for a in self.adjacency)

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, in order of smallest vertex."""
        seen = [False] * self.vertex_count
        comps = []
        for s in range(self.vertex_count):
            if seen[s]:
                continue
            seen[s] = True
            comp = [s]
            q = deque([s])
            while q:
                x = q.popleft()
                for y in self.adjacency[x]:
                    if not seen[y]:
                        seen[y] = True
                        comp.append(y)
                        q.append(y)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return self.vertex_count <= 1 or len(self.components()) == 1


def relabelled(labels: Sequence[int], edges: Iterable[Edge]) -> Graph:
    """The graph on 0..k-1 whose vertex i is ``labels[i]``, with the given edges.

    ``labels`` must be ascending and ``edges`` distinct canonical pairs with
    both ends in ``labels``. The renumbering is then monotone, so every pair
    keeps u < v and the pairs stay distinct and in range: sorting is all
    that ``Graph`` would still do, and the result is built with
    ``Graph._trusted``.
    """
    pos = {x: i for i, x in enumerate(labels)}
    local = sorted((pos[u], pos[v]) for u, v in edges)
    return Graph._trusted(len(labels), tuple(local))


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph, re-indexed to 0..k-1.

    Returns ``(subgraph, table)`` where ``table[i]`` is the original id of the
    subgraph's vertex ``i``. Vertices are kept in sorted order, so the mapping
    is deterministic.
    """
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"vertex {v} out of range")
    keep = set(vs)
    return relabelled(vs, (e for e in g.edges if e[0] in keep and e[1] in keep)), vs


def diameter(g: Graph) -> float:
    """Largest BFS eccentricity; ``math.inf`` if disconnected, 0 if n <= 1.

    Every source expands at once, as int bitsets: ``reach[v]`` holds the
    vertices within distance d of v, starting from v and its neighbours at
    d = 1, and each round ORs into it the masks of v's neighbours. The
    diameter is the first d at which every mask is full; a round that
    changes no mask before then means the graph is disconnected. A round
    costs two big-int ORs per edge.
    """
    n = g.vertex_count
    if n <= 1:
        return 0
    full = (1 << n) - 1
    reach = [1 << v for v in range(n)]
    for u, v in g.edges:
        reach[u] |= 1 << v
        reach[v] |= 1 << u
    d = 1
    while not all(m == full for m in reach):
        grown = reach[:]
        for u, v in g.edges:
            grown[u] |= reach[v]
            grown[v] |= reach[u]
        if grown == reach:
            return math.inf
        reach = grown
        d += 1
    return d


# ---------------------------------------------------------------------------
# bipartite graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph with explicit vertex labels for each side.

    ``left`` and ``right`` are disjoint ordered label lists; each edge is a
    ``(left_label, right_label)`` pair. Labels typically refer to vertices of
    an ambient :class:`Graph`, which keeps subgraph bookkeeping trivial.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ls, rs = set(self.left), set(self.right)
        if len(ls) != len(self.left) or len(rs) != len(self.right):
            raise ValueError("duplicate labels within a side")
        if ls & rs:
            raise ValueError(f"sides share labels: {sorted(ls & rs)[:5]}")
        seen = set()
        for u, v in self.edges:
            if u not in ls or v not in rs:
                raise ValueError(f"edge ({u}, {v}) does not go left->right")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        object.__setattr__(self, "left", tuple(self.left))
        object.__setattr__(self, "right", tuple(self.right))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    @classmethod
    def _trusted(
        cls,
        left: tuple[int, ...],
        right: tuple[int, ...],
        edges: tuple[Edge, ...],
        ends: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "BipartiteGraph":
        """Build without validating or sorting.

        The caller guarantees what ``__post_init__`` would check and produce:
        ``left`` and ``right`` are tuples of distinct labels, no label on both
        sides, and ``edges`` is a sorted tuple of distinct left->right pairs.
        ``ends``, if given, must be what the ``ends`` property would derive.
        """
        obj = object.__new__(cls)
        obj.__dict__.update(left=left, right=right, edges=edges)
        if ends is not None:
            obj.__dict__["ends"] = ends
        return obj

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def density(self) -> float:
        if not self.left or not self.right:
            return 0.0
        return len(self.edges) / (len(self.left) * len(self.right))

    @cached_property
    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lp, rp)``: edge i runs from ``left[lp[i]]`` to ``right[rp[i]]``.

        Derived from the labels only for a pair built without it, that is
        by ``BipartiteGraph(...)``; every pair ilab builds is handed its own.
        """
        lpos = dict(zip(self.left, range(len(self.left))))
        rpos = dict(zip(self.right, range(len(self.right))))
        return (
            np.array([lpos[u] for u, _ in self.edges], np.intp),
            np.array([rpos[v] for _, v in self.edges], np.intp),
        )

    @cached_property
    def degree_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Degrees of the left and of the right labels, by position."""
        lp, rp = self.ends
        return (
            np.bincount(lp, minlength=len(self.left)),
            np.bincount(rp, minlength=len(self.right)),
        )

    @cached_property
    def degrees(self) -> Counter[int]:
        """Every label's degree, keyed by label; a label that no edge
        touches reads 0."""
        counts = chain.from_iterable(a.tolist() for a in self.degree_arrays)
        return Counter({x: d for x, d in zip(self.left + self.right, counts) if d})

    def degree(self, label: int) -> int:
        return self.degrees[label]

    def restrict(self, left: Iterable[int], right: Iterable[int]) -> "BipartiteGraph":
        """Sub-pair induced on the given label subsets (order preserved from self)."""
        lset, rset = set(left), set(right)
        lkeep = np.fromiter((u in lset for u in self.left), bool, len(self.left))
        rkeep = np.fromiter((v in rset for v in self.right), bool, len(self.right))
        lp, rp = self.ends
        keep = lkeep[lp] & rkeep[rp]
        # a kept label's new position counts the kept labels before it
        lnew, rnew = lkeep.cumsum() - 1, rkeep.cumsum() - 1
        return BipartiteGraph._trusted(
            tuple(compress(self.left, lkeep.tobytes())),
            tuple(compress(self.right, rkeep.tobytes())),
            tuple(compress(self.edges, keep.tobytes())),
            (lnew[lp[keep]], rnew[rp[keep]]),
        )

    def without(self, sub: "BipartiteGraph") -> "BipartiteGraph":
        """This pair, on the same sides, less the edges of ``sub``, a pair
        whose labels and edges are all this pair's.

        ``sub``'s edges are marked in a table with a byte per key, that is
        per (left, right) cell, when that is no more than 64 bytes an edge,
        about what the pair's edge tuples already take; a sparser pair
        looks its keys up by sorting instead (``np.isin``), so the memory
        stays linear in the edges.
        """
        lpos = dict(zip(self.left, range(len(self.left))))
        rpos = dict(zip(self.right, range(len(self.right))))
        slp, srp = sub.ends
        sl = np.fromiter((lpos[u] for u in sub.left), np.intp, len(sub.left))[slp]
        sr = np.fromiter((rpos[v] for v in sub.right), np.intp, len(sub.right))[srp]
        lp, rp = self.ends
        width = len(self.right)  # an edge's key is lp * width + rp, one per pair
        cells = len(self.left) * width
        if cells <= 64 * len(lp):
            taken = np.zeros(cells, bool)
            taken[sl * width + sr] = True
            keep = ~taken[lp * width + rp]
        else:
            keep = ~np.isin(lp * width + rp, sl * width + sr)
        edges = tuple(compress(self.edges, keep.tobytes()))
        return BipartiteGraph._trusted(self.left, self.right, edges, (lp[keep], rp[keep]))


# ---------------------------------------------------------------------------
# edge partitions
# ---------------------------------------------------------------------------

@dataclass
class EdgePartition:
    """Partition of a graph's edge set into indexed parts."""

    graph: Graph
    part_of: dict[Edge, int]
    part_count: int

    def __post_init__(self):
        if self.part_count < 0:
            raise ValueError("part_count must be non-negative")
        keys = set(self.part_of)
        edges = set(self.graph.edges)
        if keys != edges:
            missing = sorted(edges - keys)[:3]
            extra = sorted(keys - edges)[:3]
            raise ValueError(
                f"partition domain mismatch (missing {missing}, extra {extra})"
            )
        for e, p in self.part_of.items():
            if not 0 <= p < self.part_count:
                raise ValueError(f"edge {e} assigned to invalid part {p}")

    def parts(self) -> list[list[Edge]]:
        out: list[list[Edge]] = [[] for _ in range(self.part_count)]
        for e in self.graph.edges:  # canonical order
            out[self.part_of[e]].append(e)
        return out
