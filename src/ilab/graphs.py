"""Core graph containers: graphs, bipartite graphs and edge partitions.

Conventions used throughout the package:

* vertices of a ``Graph`` are ``0 .. n-1``; an edge is the ordered pair
  ``(u, v)`` with ``u < v`` and graphs are simple (no loops, no multi-edges);
* a ``BipartiteGraph`` keeps explicit vertex *labels* for both sides (labels
  are arbitrary ints, typically ids of some ambient ``Graph``) and stores each
  edge as ``(left_label, right_label)``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

Edge = tuple[int, int]

# The most vertices an input file may declare (ilab.formats): decompose pads
# ids to a power of two, and at 2^18 with all 18 layers in use it peaks at 80 MB
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
    index = {v: i for i, v in enumerate(vs)}
    sub_edges = [
        (index[u], index[v]) for u, v in g.edges if u in index and v in index
    ]
    return Graph(len(vs), tuple(sub_edges)), vs


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
        cls, left: tuple[int, ...], right: tuple[int, ...], edges: tuple[Edge, ...]
    ) -> "BipartiteGraph":
        """Build without validating or sorting.

        The caller guarantees what ``__post_init__`` would check and produce:
        ``left`` and ``right`` are tuples of distinct labels, no label on both
        sides, and ``edges`` is a sorted tuple of distinct left->right pairs.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "left", left)
        object.__setattr__(obj, "right", right)
        object.__setattr__(obj, "edges", edges)
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
    def left_adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {u: [] for u in self.left}
        for u, v in self.edges:
            adj[u].append(v)
        return {u: tuple(sorted(a)) for u, a in adj.items()}

    @cached_property
    def right_adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in self.right}
        for u, v in self.edges:
            adj[v].append(u)
        return {v: tuple(sorted(a)) for v, a in adj.items()}

    def degree(self, label: int) -> int:
        if label in self.left_adjacency:
            return len(self.left_adjacency[label])
        return len(self.right_adjacency[label])

    def restrict(self, left: Iterable[int], right: Iterable[int]) -> "BipartiteGraph":
        """Sub-pair induced on the given label subsets (order preserved from self)."""
        lset, rset = set(left), set(right)
        keep_l = tuple(u for u in self.left if u in lset)
        keep_r = tuple(v for v in self.right if v in rset)
        keep_e = tuple(e for e in self.edges if e[0] in lset and e[1] in rset)
        return BipartiteGraph._trusted(keep_l, keep_r, keep_e)

    def to_graph(self, vertex_count: int | None = None) -> Graph:
        """View as a plain Graph on the ambient id space."""
        n = vertex_count
        if n is None:
            n = max(self.left + self.right) + 1 if (self.left or self.right) else 0
        return Graph(n, tuple(canonical_edge(u, v) for u, v in self.edges))


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
