"""Extremal planar constructions and the sparsity-based colour-count bound.

The family: a ladder with s rungs drawn on columns j = 1..s, bottom vertices
b_j = 2(j-1) and top vertices t_j = 2j-1, carrying

  * the rung (b_j, t_j) coloured 3(j-1),
  * both diagonals between columns j and j+1 coloured 3(j-1)+1,
  * both straights between columns j and j+1 coloured 3(j-1)+2,
  * a curved edge (b_j, b_{j+2}) coloured 3j for j = 1..s-2.

Every vertex's colour set is a contiguous block, 3s-2 distinct colours are
used on 2s vertices, and the graph is planar (curved edges nest below the
ladder). Each curved colour is extreme at both of its endpoints and is also
carried by a rung, so removing any subset of curved edges keeps both the
interval property and the colour count — the extremal value is not rigid.
The odd-order variant hangs a pendant vertex w = 2s off b_s with the new
top colour 3s-2.

`unique_colour_split` runs the converse direction: a colour used by exactly
one edge and interior to the colour range splits the vertex set into two
sides with no edges across, and splitting the colouring there produces two
interval-coloured halves whose colour counts sum to (distinct colours) + 1.
Combined with `hereditary_sparsity` (e(S) <= k(|S|-2) for all |S| >= 3),
this drives the bound t <= (k/2) n + 1 - k checked by `verify_colour_bound`.

Theorem (the cap `certified_colour_cap` returns). Let g have n >= 2 vertices,
at least one edge, and e(S) <= 3(|S| - 2) for every S with |S| >= 3
("hereditarily 3-sparse"). Then every interval colouring of g uses at most
(3n - 4) / 2 distinct colours. Planar graphs are included: by Euler's
formula a planar graph on k >= 3 vertices has at most 3k - 6 edges, and
every induced subgraph of a planar graph is planar, which is the paper's
3n/2 - 2 bound. Proof, by induction on n. For n = 2 the one edge gives one
colour. A disconnected g satisfies the bound if each component with edges
does, since sum((3 n_i - 4) / 2) <= (3n - 4) / 2. For connected g on n >= 3
vertices coloured with t colours, which are then contiguous, say 0..t-1:

  * If some interior colour c0 (0 < c0 < t-1) lies on exactly one edge vw,
    every other vertex has its colours all below or all above c0. The
    edges below c0 plus vw and the edges above c0 plus vw form two
    hereditarily 3-sparse subgraphs on n1 and n2 vertices with
    n1 + n2 = n + 2, each missing a vertex of g (colours 0 and t-1 are
    used, and vw alone cannot carry them), coloured with c0 + 1 and t - c0
    colours. Induction gives t + 1 <= (3(n + 2) - 8) / 2.
  * Otherwise every interior colour lies on two or more edges, so
    m >= 2(t - 2) + 2 = 2t - 2, while m <= 3(n - 2); hence t <= (3n - 4)/2.

Both cases give t <= (3n - 4) / 2; the same argument with k in place of 3
gives the (k/2) n + 1 - k bound for k >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colouring import EdgeColouring, verify
from .graphs import MAX_VERTICES, Edge, Graph, canonical_edge


@dataclass(frozen=True)
class FamilySpec:
    s: int  # number of ladder columns (>= 2)
    removed_curved: frozenset[int] = frozenset()
    odd: bool = False  # append the pendant vertex for odd order

    def __post_init__(self):
        if self.s < 2:
            raise ValueError("need at least two columns")
        if self.vertex_count > MAX_VERTICES:
            raise ValueError(
                f"{self.vertex_count} vertices exceed the cap of {MAX_VERTICES}"
            )
        allowed = range(1, self.s - 1)
        bad = [j for j in self.removed_curved if j not in allowed]
        if bad:
            raise ValueError(
                f"curved edges are indexed 1..{self.s - 2}; got {sorted(bad)}"
            )

    @property
    def vertex_count(self) -> int:
        return 2 * self.s + (1 if self.odd else 0)

    @property
    def colour_count(self) -> int:
        return 3 * self.s - 2 + (1 if self.odd else 0)


def extremal_family(spec: FamilySpec) -> tuple[Graph, EdgeColouring]:
    """Build the family member and its interval colouring.

    The colouring uses `spec.colour_count` distinct colours 0..max, which is
    (3/2) n - 2 for even order n = 2s and ((3 n - 1) / 2) - 2 + 1 for odd.
    """
    s = spec.s
    b = [2 * (j - 1) for j in range(1, s + 1)]
    t = [2 * j - 1 for j in range(1, s + 1)]
    colours: dict[Edge, int] = {}
    for j in range(1, s + 1):
        colours[canonical_edge(b[j - 1], t[j - 1])] = 3 * (j - 1)
    for j in range(1, s):
        colours[canonical_edge(b[j - 1], t[j])] = 3 * (j - 1) + 1
        colours[canonical_edge(t[j - 1], b[j])] = 3 * (j - 1) + 1
        colours[canonical_edge(b[j - 1], b[j])] = 3 * (j - 1) + 2
        colours[canonical_edge(t[j - 1], t[j])] = 3 * (j - 1) + 2
    for j in range(1, s - 1):
        if j not in spec.removed_curved:
            colours[canonical_edge(b[j - 1], b[j + 1])] = 3 * j
    if spec.odd:
        colours[canonical_edge(b[s - 1], 2 * s)] = 3 * s - 2
    g = Graph(spec.vertex_count, tuple(sorted(colours)))
    return g, EdgeColouring(g, colours)


# ---------------------------------------------------------------------------
# splitting at a unique interior colour
# ---------------------------------------------------------------------------

@dataclass
class SplitResult:
    colour: int
    edge: Edge  # the unique edge carrying `colour`
    v1: tuple[int, ...]  # vertices whose colours all lie below `colour`
    v2: tuple[int, ...]  # vertices whose colours all lie above `colour`
    c1: EdgeColouring  # edges coloured < colour, plus `edge`
    c2: EdgeColouring  # edges coloured > colour, plus `edge`

    @property
    def g1(self) -> Graph:
        return self.c1.graph

    @property
    def g2(self) -> Graph:
        return self.c2.graph


def unique_colour_split(c: EdgeColouring) -> SplitResult | None:
    """Split an interval colouring at a colour that appears on one edge only.

    Scans interior colours (strictly between the overall min and max) in
    ascending order; for the first one carried by a single edge (v, w), every
    other vertex of positive degree has its whole colour set on one side, the
    two sides span no edges, and cutting the colouring at that value yields
    two interval colourings sharing only the edge (v, w). Returns None when
    no such colour exists. Isolated vertices are assigned to the low side.

    Raises ValueError for a disconnected graph or a non-interval colouring:
    the one-sidedness of every vertex, which the split relies on, is only
    guaranteed when colour sets are contiguous.
    """
    if not c.graph.is_connected():
        raise ValueError("unique_colour_split needs a connected graph")
    report = verify(c)
    if not report.interval:
        raise ValueError("unique_colour_split needs an interval colouring")
    if not c.colours:
        return None
    lo, hi = report.min_colour, report.max_colour
    usage: dict[int, list[Edge]] = {}
    for e, col in c.colours.items():
        usage.setdefault(col, []).append(e)
    for c0 in range(lo + 1, hi):
        if len(usage.get(c0, ())) == 1:
            break
    else:
        return None
    (edge,) = usage[c0]
    g = c.graph
    v1, v2 = [], []
    for x in range(g.vertex_count):
        if x in edge:
            continue
        seen = c.vertex_colours(x)
        if not seen or max(seen) < c0:
            v1.append(x)
        else:
            v2.append(x)

    low = {e: col for e, col in c.colours.items() if col < c0}
    low[edge] = c0
    high = {e: col for e, col in c.colours.items() if col > c0}
    high[edge] = c0
    return SplitResult(
        colour=c0,
        edge=edge,
        v1=tuple(v1),
        v2=tuple(v2),
        c1=EdgeColouring(Graph(g.vertex_count, tuple(sorted(low))), low),
        c2=EdgeColouring(Graph(g.vertex_count, tuple(sorted(high))), high),
    )


# ---------------------------------------------------------------------------
# hereditary sparsity and the colour-count bound
# ---------------------------------------------------------------------------

def hereditary_sparsity(g: Graph, k: int) -> tuple[bool, tuple[int, ...] | None]:
    """Does every vertex subset S with |S| >= 3 satisfy e(S) <= k(|S| - 2)?

    Exhaustive over all 2^n subsets, so guarded at n <= 20; returns the first
    violating subset (numeric bitmask order) as a witness. Planar graphs pass
    with k = 3, forests with k = 2.
    """
    n = g.vertex_count
    if n > 20:
        raise ValueError("exhaustive subset check is limited to 20 vertices")
    if k < 0:
        raise ValueError("k must be non-negative")
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    inner = [0] * (1 << n)  # inner[mask] = e(S) for S = mask
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << v)
        inner[mask] = inner[rest] + (adj[v] & rest).bit_count()
        size = mask.bit_count()
        if size >= 3 and inner[mask] > k * (size - 2):
            return False, tuple(i for i in range(n) if (mask >> i) & 1)
    return True, None


def certified_colour_cap(g: Graph) -> int | None:
    """The module theorem's cap floor((3n - 4) / 2) on the colours of g, or None.

    None when the theorem is not checked for g: no edges, more than 20
    vertices (the exhaustive sparsity check's limit), or some vertex subset
    violating hereditary 3-sparsity.
    """
    n = g.vertex_count
    if not g.edges or n > 20 or not hereditary_sparsity(g, 3)[0]:
        return None
    return (3 * n - 4) // 2


@dataclass(frozen=True)
class BoundReport:
    colour_count: int
    bound: float  # (k/2) n + 1 - k, or 0 on an edgeless graph

    @property
    def holds(self) -> bool:
        return self.colour_count <= self.bound


def verify_colour_bound(g: Graph, k: int, colour_count: int) -> BoundReport:
    """Check colour_count <= (k/2) n + 1 - k (t <= 1.5 n - 2 at k = 3).

    The bound assumes an edge; an edgeless graph uses no colours, so its
    bound is 0 (the formula goes negative at n <= 1).
    """
    bound = (k / 2) * g.vertex_count + 1 - k if g.edges else 0
    return BoundReport(colour_count=colour_count, bound=bound)
