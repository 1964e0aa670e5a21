"""Exhaustive search: interval colourability, maximum palettes, thickness.

The search is organised around per-vertex windows. In an interval colouring
the colours at a vertex ``v`` are ``deg(v)`` distinct integers spanning
exactly ``deg(v) - 1``, so during an edge-by-edge assignment it is necessary
and sufficient to keep, at every vertex, all assigned colours distinct and
within a window of width ``deg(v) - 1``; once every incident edge is coloured
the set is forced to be contiguous. Each vertex keeps its colours as one
bitmask, so its window is read from the mask's lowest and highest bits. The
edge list is split into components once, each in a connected order (every
edge after the first of its component touches an already-coloured vertex),
which keeps candidate sets small.

Soundness of "none": for a connected graph the union of the per-vertex
intervals is itself contiguous (adjacent intervals share the connecting
edge's colour), so the number of distinct colours equals the total span.
Distinct colours are bounded by both the edge count and twice the vertex
count, hence pinning one edge of each component to colour 0 and searching the
window ``[-(W-1), W-1]`` with ``W = min(2 * n_comp, m_comp)`` is exhaustive.

All three searches colour a graph through one routine, ``_colour_components``,
which runs that pinned search per component on a shared node/time meter.
Both depth-first searches (colours per edge, and parts per edge for
thickness) are explicit-stack loops, so no edge count hits a recursion limit.

Two refutations cost less than the search above.

Overfull components have no colouring (Asratian & Kamalian, J. Combin.
Theory B 62, 1994). Let a component have n vertices, m edges and maximum
degree D, and take any interval colouring of it. The colours at a vertex v
are deg(v) <= D consecutive integers, so their residues mod D are distinct.
Hence each residue class is a matching, and a matching has at most
floor(n / 2) edges, so m <= D * floor(n / 2). ``_colour_components`` returns
None, at 0 nodes, when some component has more edges than that, before it
searches any.

Both searches explore one mirror half. Reflect a colour c of the window
``lo..hi`` to lo + hi - c. The window, every per-vertex window constraint,
the colourable search's pin of edge 0 to the centre and a ``max_colours``
palette's need for both lo and hi are all invariant under it, so an
assignment is a solution exactly when its reflection is. Some solution, if
any exists, therefore has edge 0 at or below the centre, and one with edge 0
on the centre has edge 1 below it: edge 1 of the connected order shares a
vertex with edge 0, so it is never on the centre while edge 0 is, and
reflecting moves it below. The search caps edge 0 at the centre and, while
edge 0 sits on the centre, edge 1 below it. Colours are tried in ascending
order, so every assignment the caps cut off comes after every one they keep;
the first colouring found and the nodes spent reaching it are those of the
whole window. Under the pin, the subtree under edge 1 at centre + d mirrors
the one at centre - d, so a refutation visits 1 + (N - 1) / 2 of the N nodes
the whole window would. A palette [0, t-1] with t odd halves its subtree
with edge 0 on the centre the same way; with t even no colour is the centre,
and the cap on edge 0 alone halves the search.

Palette t of a component is ``0..t-1`` with both ends used, so its colourings
use exactly t colours, and every interval colouring of a component uses
between its max degree D and W colours. ``max_colours`` walks each
component's palettes t down from ``min(W, cap)`` to the first success above
its first colouring's count; ``cap`` is ``planar.certified_colour_cap``,
floor((3n - 4) / 2) for a component on n vertices that is hereditarily
3-sparse (planar ones included, unless their 4-core is too large for the
sparsity check), and W otherwise, so the first success is the maximum.
``find_interval_colouring`` under a cap N keeps a first colouring within N
colours and otherwise walks ``min(N, W)`` down to D, exhaustively. Palettes
are tried one by one, not bisected: a palette can fail between two that
succeed (t = 12 on the s = 5 extremal planar graph, between 11 and 13).

Thickness enumerates edge-to-part assignments in restricted-growth order
(edge 0 in part 0; a new part index may appear only after all smaller ones),
which kills part-permutation symmetry. One dict maps each part's edge set to
its colouring, or None when it has none, so no part is searched twice and the
winning parts' colourings are read from it.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from .colouring import EdgeColouring
from .graphs import Edge, EdgePartition, Graph, induced_subgraph
from .planar import certified_colour_cap


class SearchBudgetExceeded(Exception):
    """Raised when a search cannot reach a sound conclusion within budget."""


@dataclass
class SearchBudget:
    """Resource limits shared by every sub-search of one exact call.

    ``time_limit`` is in seconds and is checked every 1024 search nodes.
    """

    node_limit: int | None = 5_000_000
    time_limit: float | None = None

    def __post_init__(self):
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError("node_limit must be >= 1")
        if self.time_limit is not None and not 0 < self.time_limit < math.inf:
            raise ValueError(f"time_limit must be positive finite seconds, got {self.time_limit}")


class _Meter:
    """Shared node/time accounting across sub-searches."""

    __slots__ = ("nodes", "node_limit", "deadline")

    def __init__(self, budget: SearchBudget):
        self.nodes = 0
        self.node_limit = budget.node_limit
        self.deadline = (
            None if budget.time_limit is None else time.monotonic() + budget.time_limit
        )

    def tick(self):
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise SearchBudgetExceeded(f"node limit {self.node_limit} exceeded")
        if self.deadline is not None and (self.nodes & 0x3FF) == 0:
            if time.monotonic() > self.deadline:
                raise SearchBudgetExceeded("time limit exceeded")


def _connected_edge_order(edges: Iterable[Edge]) -> list[list[Edge]]:
    """Split an edge list into components, each in connected order.

    Each component starts at its smallest edge, and each later step takes the
    smallest unused edge at a covered vertex, from a heap of the edges at
    covered vertices with lazy deletion; when the heap runs dry the next
    component starts at the smallest unused edge. Components come in order of
    smallest vertex, and the cost is O(m log m).
    """
    ordered = sorted(edges)
    incident: dict[int, list[Edge]] = {}
    for e in ordered:
        incident.setdefault(e[0], []).append(e)
        incident.setdefault(e[1], []).append(e)
    used: set[Edge] = set()
    covered: set[int] = set()
    components: list[list[Edge]] = []
    for first in ordered:
        if first in used:
            continue
        heap = [first]
        order: list[Edge] = []
        while heap:
            e = heapq.heappop(heap)
            if e in used:
                continue
            used.add(e)
            order.append(e)
            for x in e:
                if x not in covered:
                    covered.add(x)
                    for f in incident[x]:
                        if f not in used:
                            heapq.heappush(heap, f)
        components.append(order)
    return components


def _search_component(
    edges: list[Edge],
    deg: dict[int, int],
    lo: int,
    hi: int,
    meter: _Meter,
    palette: bool = False,
) -> dict[Edge, int] | None:
    """DFS over one connected edge list with per-vertex window constraints.

    Without ``palette`` the first edge is pinned to the centre of ``lo..hi``;
    with it, a completed assignment must use both ``lo`` and ``hi``. Either
    way only one mirror half is searched (see the module docstring). Colour
    ``c`` is searched as ``c - lo``; each vertex's colours are one bitmask
    with bit ``c - lo`` set, and the solution dict is built once, on success.
    """
    m = len(edges)
    top = hi - lo
    mid = top // 2
    mask = {v: 0 for e in edges for v in e}
    cnt = [0] * (top + 1)  # edges holding each shifted colour

    def attainable(k: int, start: int) -> bool:
        # can some uncoloured edge still take shifted colour k, which no edge
        # holds yet? It can when k keeps each end's span below its degree
        bit = 1 << k
        for j in range(start, m):
            u, v = edges[j]
            a, b = mask[u] | bit, mask[v] | bit
            if (
                a.bit_length() - (a & -a).bit_length() < deg[u]
                and b.bit_length() - (b & -b).bit_length() < deg[v]
            ):
                return True
        return False

    # col[i] is the shifted colour frame i holds, or -1 on a fresh frame; a
    # frame that is entered again takes its colour off and tries the next one
    col = [-1] * m
    i = 0
    while i >= 0:
        if i == m:
            if not palette or (cnt[0] and cnt[top]):
                return {e: k + lo for e, k in zip(edges, col)}
            i -= 1
            continue
        u, v = edges[i]
        k = col[i]
        if k >= 0:
            mask[u] ^= 1 << k
            mask[v] ^= 1 << k
            cnt[k] -= 1
        # each end's colours stay within deg - 1 of those it already holds
        a, b = mask[u], mask[v]
        first = max(a.bit_length() - deg[u], b.bit_length() - deg[v], k + 1)
        last = min(
            top,
            (a & -a).bit_length() + deg[u] - 2 if a else top,
            (b & -b).bit_length() + deg[v] - 2 if b else top,
        )
        if i == 0:  # the mirror half, and the pin
            last = min(last, mid)
            if not palette:
                first = max(first, mid)
        elif i == 1 and 2 * col[0] == top:
            last = min(last, mid - 1)
        busy = a | b
        for k in range(first, last + 1):
            if not busy >> k & 1:
                break
        else:
            col[i] = -1
            i -= 1
            continue
        meter.tick()
        col[i] = k
        mask[u] |= 1 << k
        mask[v] |= 1 << k
        cnt[k] += 1
        if not palette or (
            (cnt[0] or attainable(0, i + 1)) and (cnt[top] or attainable(top, i + 1))
        ):
            i += 1
    return None


def _colour_components(
    g: Graph, meter: _Meter
) -> list[tuple[list[Edge], dict[int, int], int, dict[Edge, int]]] | None:
    """Colour every component of ``g`` in its sound window ``[-(W-1), W-1]``.

    Per component with edges: its connected edge order, degree table, W and a
    colouring pinned to 0 on its first edge. None means some component has
    no interval colouring: one is overfull (checked for every component
    before any is searched), or a search exhausted its window.
    """
    components = [(edges, Counter(x for e in edges for x in e))
                  for edges in _connected_edge_order(g.edges)]
    if any(len(edges) > max(deg.values()) * (len(deg) // 2) for edges, deg in components):
        return None  # overfull
    found = []
    for edges, deg in components:
        window = min(2 * len(deg), len(edges))
        sol = _search_component(edges, deg, lo=-(window - 1), hi=window - 1, meter=meter)
        if sol is None:
            return None
        found.append((edges, deg, window, sol))
    return found


def _first_palette(edges: list[Edge], deg: dict[int, int], top: int, stop: int, meter: _Meter):
    """The first t from ``top`` down to ``stop`` (exclusive) whose palette
    ``0..t-1`` colours the component using both ends, with that colouring."""
    for t in range(top, stop, -1):
        sol = _search_component(edges, deg, 0, t - 1, meter, palette=True)
        if sol is not None:
            return t, sol
    return None


def find_interval_colouring(
    g: Graph, budget: SearchBudget | None = None, max_colours: int | None = None
) -> EdgeColouring | None:
    """An interval colouring of ``g``, or None if there is none.

    With ``max_colours`` = N every component's colouring starts at 0 and uses
    at most N colours, and None means some component has none that does (at
    0 nodes when N is below the max degree). An overfull component (more
    edges than max degree times half its vertex count, rounded down) gives
    None before any search; a budget limit that bites first raises
    SearchBudgetExceeded.
    """
    if max_colours is not None and max_colours < g.max_degree:
        return None
    meter = _Meter(budget or SearchBudget())
    found = _colour_components(g, meter)
    if found is None:
        return None
    colours: dict[Edge, int] = {}
    for edges, deg, window, sol in found:
        if max_colours is not None and len(set(sol.values())) > max_colours:
            hit = _first_palette(edges, deg, min(max_colours, window), max(deg.values()) - 1, meter)
            if hit is None:
                return None
            sol = hit[1]
        low = 0 if max_colours is None else min(sol.values())
        colours.update({e: c - low for e, c in sol.items()})
    return EdgeColouring(g, colours)


def max_colours(
    g: Graph, budget: SearchBudget | None = None
) -> tuple[int, EdgeColouring] | None:
    """Maximum number of distinct colours over interval colourings of ``g``.

    Returns ``(t, witness)`` or None if ``g`` is not interval colourable.
    Each component's palette is lowered from the smaller of its sound window
    and its certified cap until one above its first colouring's succeeds;
    with no such palette the first colouring stands. Components are
    maximised independently and translated apart, so the returned witness
    attains the sum.
    """
    meter = _Meter(budget or SearchBudget())
    found = _colour_components(g, meter)
    if found is None:
        return None
    combined: dict[Edge, int] = {}
    offset = 0
    for edges, deg, window, best in found:
        best_t = len(set(best.values()))
        index = {v: j for j, v in enumerate(sorted(deg))}
        relabelled = sorted((index[u], index[v]) for u, v in edges)
        cap = certified_colour_cap(Graph._trusted(len(index), tuple(relabelled)))
        top = window if cap is None else min(window, cap)
        if best_t > top:
            raise RuntimeError(
                f"internal error: a colouring with {best_t} colours exceeds "
                f"the certified cap {cap}"
            )
        hit = _first_palette(edges, deg, top, best_t, meter)
        if hit is not None:
            best_t, best = hit
        shift = offset - min(best.values())
        combined.update({e: c + shift for e, c in best.items()})
        offset += best_t
    return offset, EdgeColouring(g, combined)


# ---------------------------------------------------------------------------
# thickness
# ---------------------------------------------------------------------------

@dataclass
class ThicknessResult:
    theta: int
    partition: EdgePartition
    colourings: list[EdgeColouring]  # one per part, aligned with part indices
    nodes: int = 0


def exact_thickness(
    g: Graph, k_max: int = 4, budget: SearchBudget | None = None
) -> ThicknessResult | None:
    """Minimum number of interval-colourable parts partitioning E(g).

    Returns None when every k <= k_max is exhaustively refuted ("exceeds
    k_max"); raises SearchBudgetExceeded if the budget dies first, so a
    returned theta is always the certified minimum.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return _thickness(g, k_max, _Meter(budget or SearchBudget()))


def _thickness(g: Graph, k_max: int, meter: _Meter) -> ThicknessResult | None:
    """``exact_thickness`` on the caller's meter (``nodes`` is its running total)."""
    m = g.edge_count
    if m == 0:
        empty = EdgePartition(g, {}, 0)
        return ThicknessResult(0, empty, [], meter.nodes)
    memo: dict[frozenset[Edge], EdgeColouring | None] = {}
    edges = list(g.edges)

    def colouring_of(part: list[Edge]) -> EdgeColouring | None:
        key = frozenset(part)
        if key not in memo:
            sub = Graph._trusted(g.vertex_count, tuple(part))
            found = _colour_components(sub, meter)
            memo[key] = None if found is None else EdgeColouring(
                sub, {e: c for *_, sol in found for e, c in sol.items()}
            )
        return memo[key]

    for k in range(1, k_max + 1):
        # edge 0 is in part 0; frame i holds the parts left to try on edge i
        # and width[i], the number of parts the edges before it use
        assignment = [0] * m
        width = [1] * (m + 1)
        choices: list = [None] * (m + 1)
        i = 1
        choices[1] = iter(range(min(width[1], k - 1) + 1))
        while i >= 1:
            if i == m:
                parts: list[list[Edge]] = [[] for _ in range(width[m])]
                for j, e in enumerate(edges):
                    parts[assignment[j]].append(e)
                for part in parts:
                    meter.tick()
                    if colouring_of(part) is None:
                        break
                else:
                    part_of = {e: idx for idx, part in enumerate(parts) for e in part}
                    partition = EdgePartition(g, part_of, len(parts))
                    colourings = [colouring_of(part) for part in parts]
                    return ThicknessResult(len(parts), partition, colourings, meter.nodes)
                i -= 1
                continue
            p = next(choices[i], None)
            if p is None:
                i -= 1
                continue
            meter.tick()
            assignment[i] = p
            i += 1
            width[i] = max(width[i - 1], p + 1)
            choices[i] = iter(range(min(width[i], k - 1) + 1))
    return None


def peel_sequence(
    g: Graph, budget: SearchBudget | None = None
) -> list[tuple[int | None, int]]:
    """Thickness trace under removing vertices in ascending id order.

    The first entry is ``(None, theta(g))``; each following entry is
    ``(removed_vertex, theta_after_removal)``. Peeling stops once the next
    removal would leave an edgeless graph, so the last entry still has edges
    (for any input, that final graph is a star: every surviving edge meets
    the next vertex in order). The budget covers all the searches together.
    """
    m = g.edge_count
    if m == 0:
        return [(None, 0)]
    k_cap = max(2, int(math.isqrt(m)) + 2)
    meter = _Meter(budget or SearchBudget())

    def theta_of(h: Graph) -> int:
        res = _thickness(h, k_cap, meter)
        if res is None:  # forests give theta <= sqrt(m/2) + 1 < k_cap
            raise RuntimeError(f"internal error: thickness exceeds k_max={k_cap}")
        return res.theta

    out: list[tuple[int | None, int]] = [(None, theta_of(g))]
    survivors = list(range(g.vertex_count))
    for v in range(g.vertex_count):
        survivors.remove(v)
        sub, _table = induced_subgraph(g, survivors)
        if sub.edge_count == 0:
            break
        out.append((v, theta_of(sub)))
    return out
