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
The check is exact and polynomial: a count of V's edges, the 3-vertex
violators, a peel to the (k+1)-core, and one min cut per pinned core edge
(its docstring has the proof and the measured cost). A graph with an empty
(k+1)-core needs no min cut at any size; at k = 3 these are the graphs in
which every subgraph has a vertex of degree 3 or less, the extremal family
and stacked triangulations among them.

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
from .flows import Dinic
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

    Raises ValueError when the edges form more than one component, or for
    a non-interval colouring: the one-sidedness of every vertex, which the
    split relies on, is only guaranteed when colour sets are contiguous.
    """
    if sum(len(comp) > 1 for comp in c.graph.components()) > 1:
        raise ValueError("unique_colour_split needs the edges to be connected")
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

# The largest (k+1)-core, in edges, that `hereditary_sparsity` runs its
# pinned-edge closures on; above it the check refuses (see its docstring for
# the measured cost).
SPARSITY_CORE_EDGE_LIMIT = 2000


def hereditary_sparsity(g: Graph, k: int) -> tuple[bool, tuple[int, ...] | None]:
    """Does every vertex subset S with |S| >= 3 satisfy e(S) <= k(|S| - 2)?

    Returns ``(True, None)``, or ``(False, S)`` with a violating S as a
    sorted vertex tuple. Planar graphs pass with k = 3, forests with k = 2.
    Exact and polynomial; it runs in this order and stops at the first
    answer:

      1. With n < 3 no S exists. V itself violates when m > k(n - 2), and
         is then the witness. At k = 0 this settles every graph: any edge
         plus a third vertex violates, and without an edge nothing does.
      2. A 3-vertex S violates when e(S) > k: at k = 1 a path of two edges,
         at k = 2 a triangle. These are searched directly.
      3. Peel to the (k+1)-core. Take a minimal violator S (no proper subset
         of it violates). If |S| >= 4, S - v has at least 3 vertices and
         does not violate, so deg_S(v) = e(S) - e(S - v) >=
         k(|S| - 2) + 1 - k(|S| - 3) = k + 1 for every v in S, and S lies in
         the (k+1)-core. Every violator contains a minimal one, and after
         step 2 minimal ones have 4 or more vertices, so an empty core means
         the check holds. The core is also tested as one set, as in step 1.
      4. Pinned-edge closures. With N = (core size) + 1, one min cut finds
         the maximum of F(S) = N e(S) - (kN - 1)|S| over core sets S that
         contain a pinned core edge uw. F(S) = N(e(S) - k|S|) + |S|, so the
         pair {u, w} scores N(1 - 2k) + 2, a violator at least
         N(1 - 2k) + 3, and a non-violator with |S| >= 3 at most
         -2kN + |S| <= N(1 - 2k) - 1. The min cut's source side is a
         maximiser: a violator when some violator contains u and w, and
         the pair alone otherwise. Core vertices u are taken in ascending
         order, and their live core edges uw in ascending w. A minimal
         violator through u has an edge uw in the live core, so once u's
         edges all fail none contains u: u is deleted and the core peeled
         again.

    The closure is Goldberg's densest-subgraph network. Each live core
    vertex v has an arc source -> v of capacity N deg(v) - 2(kN - 1) when
    that is positive, or v -> sink with its negation when it is negative,
    deg(v) being its live core degree. Every live core edge carries N both
    ways, and u and w are tied to the source by arcs no finite cut takes. A
    cut with source side S costs P - 2F(S), P being the sum of the source
    arcs, so a min cut maximises F (Picard, Management Science 22, 1976),
    and the residual graph's source side after a max flow is one.
    Capacities are integers.

    Cost. Steps 1-3 take O(n + m) (step 2 O(m * max degree) at k = 2), and
    a graph with an empty (k+1)-core needs no flow at any n. Step 4 runs at
    most one flow per core edge, each on a network of
    2(core edges) + (core vertices) + 2 arcs. So the check refuses, with
    ValueError, a core with more edges than SPARSITY_CORE_EDGE_LIMIT. A
    limit on core vertices alone would bound nothing: K_63 at k = 33 has a
    63-vertex core with 1,953 edges and runs 1,392 flows. Delaunay
    triangulations of uniform random points pass at k = 3, so every flow
    they need runs. The slowest of three seeds per n, on a 2-core Xeon
    under Python 3.11:

        n     core edges   flows   time
        20         0          0    0.000 s  (empty core)
        40       110         26    0.014 s
        80       223         44    0.047 s
        160      455         82    0.21 s
        320      935        214    0.94 s
        640     1878        391    3.3 s

    K_63 at k = 33 took 2.0 s, so cores just under the limit take a few
    seconds on that host.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    n = g.vertex_count
    if n < 3:
        return True, None
    if g.edge_count > k * (n - 2):
        return False, tuple(range(n))
    adj = g.adjacency
    if k == 1:
        for v in range(n):
            if len(adj[v]) >= 2:
                return False, tuple(sorted((v, *adj[v][:2])))
    if k == 2:
        nbrs = [set(a) for a in adj]
        for u, v in g.edges:
            common = nbrs[u] & nbrs[v]
            if common:
                return False, tuple(sorted((u, v, min(common))))

    deg = [len(a) for a in adj]
    alive = [d > k for d in deg]
    _peel(adj, alive, deg, [v for v in range(n) if not alive[v]], k)
    core = [v for v in range(n) if alive[v]]
    if not core:
        return True, None
    core_edges = sum(deg[v] for v in core) // 2
    if core_edges > k * (len(core) - 2):
        return False, tuple(core)
    if core_edges > SPARSITY_CORE_EDGE_LIMIT:
        raise ValueError(
            f"hereditary sparsity: the {k + 1}-core has {core_edges} edges, "
            f"above the limit of {SPARSITY_CORE_EDGE_LIMIT} for the min-cut check"
        )

    index = {v: i for i, v in enumerate(core)}
    cadj = [[index[w] for w in adj[v] if alive[w]] for v in core]
    alive = [True] * len(core)
    deg = [len(a) for a in cadj]
    for u in range(len(core)):
        if not alive[u]:
            continue
        for w in cadj[u]:  # live neighbours all come after u
            if alive[w]:
                side = _pinned_closure(cadj, alive, deg, u, w, k)
                if side is not None:
                    return False, tuple(core[x] for x in side)
        alive[u] = False
        _peel(cadj, alive, deg, [u], k)
    return True, None


def _peel(adj, alive: list[bool], deg: list[int], stack: list[int], k: int) -> None:
    """Delete the vertices on ``stack``, already marked dead, and then every
    live vertex whose live degree falls to k; ``deg`` keeps live degrees."""
    while stack:
        for w in adj[stack.pop()]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] == k:
                    alive[w] = False
                    stack.append(w)


def _pinned_closure(adj, alive, deg, u: int, w: int, k: int) -> list[int] | None:
    """A live violator containing u and w, or None: step 4 of
    `hereditary_sparsity`, one min cut."""
    live = [v for v, a in enumerate(alive) if a]
    at = {v: i for i, v in enumerate(live)}
    source, sink = len(live), len(live) + 1
    big_n = len(alive) + 1
    net = Dinic(len(live) + 2)
    for i, v in enumerate(live):
        weight = big_n * deg[v] - 2 * (k * big_n - 1)
        if weight > 0:
            net.add_edge(source, i, weight)
        elif weight < 0:
            net.add_edge(i, sink, -weight)
        for x in adj[v]:
            if x > v and alive[x]:
                net.add_edge(i, at[x], big_n, big_n)
    uncut = sum(net.cap) + 1  # more than every finite cut
    net.add_edge(source, at[u], uncut)
    net.add_edge(source, at[w], uncut)
    net.max_flow(source, sink)
    side = sorted(live[i] for i in net.min_cut_source_side() if i != source)
    return side if len(side) > 2 else None


def certified_colour_cap(g: Graph) -> int | None:
    """The module theorem's cap floor((3n - 4) / 2) on the colours of g, or None.

    None when the theorem is not checked for g: no edges, some vertex subset
    violating hereditary 3-sparsity, or a 4-core too large for the
    sparsity check (``hereditary_sparsity`` refuses it). Planar graphs whose
    4-core is empty, the extremal family among them, get their cap at any n.
    """
    if not g.edges:
        return None
    try:
        sparse, _ = hereditary_sparsity(g, 3)
    except ValueError:
        return None
    return (3 * g.vertex_count - 4) // 2 if sparse else None


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
