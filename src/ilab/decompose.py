"""Edge-partition pipeline bounding interval thickness from above.

The route: split the edges of a graph into equal-part bipartite *layers* by
the lowest differing bit of the endpoint ids (after padding the vertex count
to a power of two); inside each layer, repeatedly extract a k-regular
subgraph while the density is at least N^{-gamma} and colour it by peeling
perfect matchings (matching j gets colour j, so every covered vertex sees
{1..k}). The edges no factor takes, from every layer, go through one first-fit
forest pass, each forest coloured directly: a forest of any graph is interval
colourable, so layers matter only for the increment. Every part is interval
colourable by construction, so the part count upper-bounds the thickness.

The split is one pass over the input's canonical edges, and a layer keeps
them in that order. Only a layer dense enough for the increment is oriented
into a ``BipartiteGraph`` (its bit classes over the padded ids); a layer
below the threshold is only listed.

The k-regular extraction works by density increment. For an equal-part
bipartite graph with part size n and density d, either a k-factor exists for
k = max(1, floor(d*n/100)), or the subset criterion

    k*n + e(X, Y) >= k|X| + k|Y|   for all X in one class, Y in the other

fails. Each step first reads one degree table: a vertex of degree < k rules
out a k-factor, and the deficient vertices of one class against the whole
other class violate the criterion, so no matching or flow is run. Only a
layer with no deficient vertex reaches the factor search, and there the
violating pair is read off the min cut of the flow network (source -> left
with capacity k, edges with capacity 1, right -> sink with capacity k). When
k = 1 no network is built: the factor is a perfect matching (Hopcroft–Karp),
and failing that the same pair comes from the last Hopcroft–Karp search,
which reaches the min cut's left side by alternating paths out of the
unmatched left vertices. From a violation
(A, B) with |A| <= |B| (A may lie in either class; the step orients the
pair once), writing C and D for the complements of B and A in their
classes, at least one of two escapes holds
(when k <= d*n/100; see DensityIncrementStuck for the clamped regime):

    e(A, C) >= d |A| |C|^{1-delta} n^{delta}        (pair A x C)
    e(D, F) >= d |D|^{1-delta} n^{1+delta}          (pair D x F, F = B's class)

and trimming the larger side to the top-degree vertices yields an equal-part
restriction whose density ratio satisfies d'/d >= (n/n')^delta. Every count
comes from the degree table and the edges at A: e(A, C) counts the edges at
A that end in C, e(D, F) is the degree sum over D, a vertex of F has
deg - |N(v) & A| neighbours in D, and a restriction's edges are the kept
counts. These are array passes over ``BipartiteGraph.ends``, the positions
of each edge's ends in its sides: ``BitLayer.graph`` derives it once per
dense layer from the padded ids, and every restriction, factor and
remainder the increment makes is handed its slice of it. No adjacency
table is built outside the factor search, whose Hopcroft–Karp rows are cut
from one sorted copy of that view. The potential d_i * n_i^delta never decreases along the trace,
and part sizes strictly shrink, so the loop terminates in a factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, chain, compress
from typing import Callable

import numpy as np

from .colouring import EdgeColouring, colour_forest
from .flows import Dinic, hopcroft_karp
from .graphs import BipartiteGraph, Edge, EdgePartition, Graph, canonical_edge


class DensityIncrementStuck(Exception):
    """Neither escape held while the k >= 1 clamp was active.

    Only reachable when d*n < 100 forces k = 1 (the dichotomy is a theorem
    for k <= d*n/100); callers treat the current subgraph as sparse.
    """


class DichotomyBug(RuntimeError):
    """Neither escape held although k <= d*n/100 — an implementation bug."""


@dataclass(frozen=True)
class PipelineConfig:
    delta: float = 0.25

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")

    @property
    def gamma(self) -> float:
        """Sparsity threshold exponent, 2/9 at delta = 1/4."""
        return 1.0 / (0.5 + 1.0 / self.delta)

    def k_for(self, density: float, part_size: int) -> int:
        return max(1, math.floor(density * part_size / 100.0))


# ---------------------------------------------------------------------------
# bit split
# ---------------------------------------------------------------------------

def _edge_array(edges, m: int) -> np.ndarray:
    """``m`` edges (u, v) as the rows of an m x 2 array, in their order."""
    return np.fromiter(chain.from_iterable(edges), np.int64, 2 * m).reshape(m, 2)


@dataclass(frozen=True)
class BitLayer:
    """The input's edges whose endpoint ids first differ at ``bit``.

    ``edges`` is a sorted subsequence of the input's canonical edges, and
    ``half`` is the part size 2^(s-1) of the padded ids 0..2^s-1. The
    bipartite view, ``graph``, is built on first use: only a layer that
    reaches the density increment reads it.
    """

    bit: int
    half: int
    edges: tuple[Edge, ...]
    padded_ids: Callable[[], tuple[int, ...]] = field(repr=False, compare=False)

    @cached_property
    def graph(self) -> BipartiteGraph:
        """Left the padded ids with ``bit`` clear, right those with it set
        (ascending), and each edge oriented left to right, sorted. Every
        layer of one split reads the same id tuple, so the id ints are made
        once. The pair's ``ends`` are derived here, in arrays: an id's
        position in its class is the id with ``bit`` deleted."""
        ids, bit = self.padded_ids(), self.bit
        left = tuple(v for v in ids if not (v >> bit) & 1)
        right = tuple(v for v in ids if (v >> bit) & 1)
        uv = _edge_array(self.edges, len(self.edges))
        flip = ((uv[:, 0] >> bit) & 1).astype(bool)
        lo = np.where(flip, uv[:, 1], uv[:, 0])
        hi = np.where(flip, uv[:, 0], uv[:, 1])
        order = np.argsort(lo * (2 * self.half) + hi)  # distinct keys, ids < 2 half
        lo, hi = lo[order], hi[order]
        low = (1 << bit) - 1
        ends = ((lo >> (bit + 1) << bit) | (lo & low), (hi >> (bit + 1) << bit) | (hi & low))
        edges = tuple(zip(lo.tolist(), hi.tolist()))
        return BipartiteGraph._trusted(left, right, edges, ends)


def bit_split(g: Graph) -> list[BitLayer]:
    """Partition edges by the lowest differing bit of their endpoint ids.

    Vertex ids are implicitly padded to 2^s (s = ceil(log2 n)); layer i is an
    equal-part bipartite graph between {bit i = 0} and {bit i = 1} over all
    padded ids. One pass over ``g.edges`` groups them, so each layer's edges
    keep the canonical sorted order; nothing is oriented here (see
    ``BitLayer.graph``). Only layers that carry edges are returned
    (ascending bit).
    """
    if g.edge_count == 0:
        return []
    s = max(1, math.ceil(math.log2(g.vertex_count)))
    by_low: dict[int, list[Edge]] = {1 << bit: [] for bit in range(s)}
    for e in g.edges:
        x = e[0] ^ e[1]
        by_low[x & -x].append(e)
    padded_ids = cache(lambda: tuple(range(1 << s)))
    return [
        BitLayer(low.bit_length() - 1, 1 << (s - 1), tuple(es), padded_ids)
        for low, es in by_low.items()
        if es
    ]


# ---------------------------------------------------------------------------
# k-factors via matching (k = 1) or max flow
# ---------------------------------------------------------------------------

@dataclass
class KFactorWitness:
    """Either a k-factor or a violating subset pair (X from left, Y from right)."""

    factor: BipartiteGraph | None
    violation: tuple[tuple[int, ...], tuple[int, ...]] | None

    @property
    def is_factor(self) -> bool:
        return self.factor is not None


def subset_criterion_value(b: BipartiteGraph, k: int, xs, ys) -> int:
    """k*n + e(X, Y) - k|X| - k|Y| (negative iff (X, Y) violates), counted
    over the labelled edges, independently of ``b.ends``."""
    xset, yset = set(xs), set(ys)
    e_xy = sum(1 for u, v in b.edges if u in xset and v in yset)
    return k * len(b.left) + e_xy - k * len(xset) - k * len(yset)


def _rows(lp: np.ndarray, rp: np.ndarray, n: int) -> list[list[int]]:
    """Row i lists the right positions of the edges at left position i, in
    edge order: one stable sort by left end, cut at the running degrees."""
    flat = rp[lp.argsort(kind="stable")].tolist()
    cuts = list(accumulate(np.bincount(lp, minlength=n).tolist()))
    return [flat[i:j] for i, j in zip([0] + cuts, cuts)]


def _factor(b: BipartiteGraph, chosen: np.ndarray) -> BipartiteGraph:
    """The spanning subgraph of b on the edges with the ascending indices
    ``chosen``, with its slice of ``b.ends``."""
    lp, rp = b.ends
    edges = tuple(map(b.edges.__getitem__, chosen.tolist()))
    return BipartiteGraph._trusted(b.left, b.right, edges, (lp[chosen], rp[chosen]))


def find_k_factor(b: BipartiteGraph, k: int) -> KFactorWitness:
    """Spanning k-regular subgraph of an equal-part bipartite graph, or a
    violating subset pair (X, Y).

    For k = 1 a factor is a perfect matching: Hopcroft–Karp finds one, and
    otherwise the last Hopcroft–Karp search gives X = the left vertices it
    reached from the free ones, Y = the right vertices outside their
    neighbourhood. For k >= 2 the pair is read off the source side of a Dinic
    min cut. Both give the same pair, the residual-reachable side of every
    maximum flow, so only the choice of factor depends on the route. Vertex
    i of either network is position i of its side, read from ``b.ends``.
    """
    n = len(b.left)
    if n != len(b.right):
        raise ValueError(f"parts differ in size: {n} vs {len(b.right)}")
    if k < 0 or k > n:
        raise ValueError(f"k={k} out of range for part size {n}")
    if k == 0:
        return KFactorWitness(_factor(b, np.empty(0, np.intp)), None)
    lp, rp = b.ends
    if k == 1:
        adjacency = _rows(lp, rp, n)
        match, reached = hopcroft_karp(n, n, adjacency)
        if len(match) == n:
            partner = np.array([match[i] for i in range(n)], np.intp)
            return KFactorWitness(_factor(b, (partner[lp] == rp).nonzero()[0]), None)
        in_x = np.zeros(n, bool)
        in_x[list(reached)] = True
        in_y = np.ones(n, bool)
        in_y[rp[in_x[lp]]] = False
    else:
        source, sink = 2 * n, 2 * n + 1
        net = Dinic(2 * n + 2)
        for i in range(n):
            net.add_edge(source, i, k)
            net.add_edge(n + i, sink, k)
        arcs = [net.add_edge(i, n + j, 1) for i, j in zip(lp.tolist(), rp.tolist())]
        flow = net.max_flow(source, sink)
        if flow == k * n:
            used = [t for t, idx in enumerate(arcs) if net.flow_on(idx) == 1]
            return KFactorWitness(_factor(b, np.array(used, np.intp)), None)
        in_cut = np.zeros(2 * n + 2, bool)
        in_cut[list(net.min_cut_source_side())] = True
        in_x, in_y = in_cut[:n], ~in_cut[n : 2 * n]
    xs = tuple(compress(b.left, in_x.tobytes()))
    ys = tuple(compress(b.right, in_y.tobytes()))
    # cut capacity = k(n-|X|) + k(n-|Y|) + e(X,Y) = flow < kn, hence strict
    e_xy = int(np.count_nonzero(in_x[lp] & in_y[rp]))
    slack = k * n + e_xy - k * len(xs) - k * len(ys)
    if slack >= 0:
        raise DichotomyBug(f"min cut produced a non-violating pair (slack {slack})")
    return KFactorWitness(None, (xs, ys))


# ---------------------------------------------------------------------------
# density increment
# ---------------------------------------------------------------------------

@dataclass
class IncrementStep:
    kind: str  # "factor" or "restriction"
    k: int | None = None
    factor: BipartiteGraph | None = None
    restriction: BipartiteGraph | None = None
    escape: str | None = None  # "dense-pair" or "complement-side"
    violation: tuple[tuple[int, ...], tuple[int, ...]] | None = None


def _top_by_degree(
    scores: np.ndarray, labels: np.ndarray, size: int, delta: float
) -> tuple[float, np.ndarray]:
    """Potential d' * size^delta of the square restriction on the `size`
    top-scored labels (ties by label), and the indices of those labels; a
    score counts edges into the other side, so the kept scores sum to the
    restriction's edges.
    """
    kept = np.lexsort((labels, -scores))[:size]
    edges = int(scores[kept].sum())
    return edges / (size * size) * size**delta, kept


def density_increment_step(b: BipartiteGraph, cfg: PipelineConfig) -> IncrementStep:
    """One step of the increment: a k-factor or a denser equal-part restriction.

    If some vertex has degree < k, the violation is the larger deficient set
    (left on ties) against the whole other class, X = deficient left, Y = R
    or X = L, Y = deficient right, with slack sum (deg - k) < 0 over the
    deficient set. Only a layer with no deficient vertex goes to
    ``find_k_factor``. Every count is an array pass over ``b.ends``.
    """
    n = len(b.left)
    d = b.density
    if d == 0:
        raise ValueError("density is zero")
    delta = cfg.delta
    k = cfg.k_for(d, n)
    lp, rp = b.ends
    ldeg, rdeg = b.degree_arrays
    short_l, short_r = ldeg < k, rdeg < k
    n_short_l, n_short_r = int(np.count_nonzero(short_l)), int(np.count_nonzero(short_r))
    if n_short_l or n_short_r:
        if n_short_l >= n_short_r:
            in_x, in_y, short = short_l, np.ones(n, bool), ldeg[short_l]
        else:
            in_x, in_y, short = np.ones(n, bool), short_r, rdeg[short_r]
        slack = int((short - k).sum())
        if slack >= 0:
            raise DichotomyBug(f"degree scan produced a non-violating pair (slack {slack})")
        xs = tuple(compress(b.left, in_x.tobytes()))
        ys = tuple(compress(b.right, in_y.tobytes()))
    else:
        w = find_k_factor(b, k)
        if w.is_factor:
            return IncrementStep(kind="factor", k=k, factor=w.factor)
        xs, ys = w.violation
        xset, yset = set(xs), set(ys)
        in_x = np.fromiter((u in xset for u in b.left), bool, n)
        in_y = np.fromiter((v in yset for v in b.right), bool, n)

    # A is the smaller side of the violation, B the other; D is the rest of
    # A's class and C the rest of B's class F. Only the edges at A are
    # counted: their ends in C sum to e(A, C), the degrees over D sum to
    # e(D, F), and a vertex of F has deg - |N(v) & A| neighbours in D.
    # Positions index A's class through ``ap`` and F through ``fp``.
    a_left = len(xs) <= len(ys)
    if a_left:
        in_a, in_b, ap, fp, adeg, fdeg = in_x, in_y, lp, rp, ldeg, rdeg
        a_class, f_class = b.left, b.right
    else:
        in_a, in_b, ap, fp, adeg, fdeg = in_y, in_x, rp, lp, rdeg, ldeg
        a_class, f_class = b.right, b.left
    a = in_a.nonzero()[0]
    c = (~in_b).nonzero()[0]
    dd = (~in_a).nonzero()[0]
    at_a = in_a[ap]

    candidates = []  # (potential, escape, kept positions of A's class and of F)
    if c.size:
        into_c = at_a & ~in_b[fp]
        if int(np.count_nonzero(into_c)) >= d * a.size * c.size ** (1 - delta) * n**delta:
            scores = np.bincount(ap[into_c], minlength=n)[a]
            potential, top = _top_by_degree(scores, np.asarray(a_class)[a], c.size, delta)
            candidates.append((potential, "dense-pair", a[top], c))
    if dd.size and int(adeg[dd].sum()) >= d * dd.size ** (1 - delta) * n ** (1 + delta):
        scores = fdeg - np.bincount(fp[at_a], minlength=n)
        potential, top = _top_by_degree(scores, np.asarray(f_class), dd.size, delta)
        candidates.append((potential, "complement-side", dd, top))
    if not candidates:
        if k > d * n / 100.0:
            raise DensityIncrementStuck(
                f"k=1 clamp active (d*n = {d * n:.3f} < 100) and neither escape holds"
            )
        raise DichotomyBug(
            f"violation admitted no escape at k={k} <= d*n/100 = {d * n / 100:.3f}"
        )
    # the larger potential wins, dense-pair on ties (max keeps the first)
    _, escape, a_kept, f_kept = max(candidates, key=lambda t: t[0])
    a_kept = [a_class[i] for i in a_kept.tolist()]
    f_kept = [f_class[i] for i in f_kept.tolist()]
    return IncrementStep(
        kind="restriction",
        k=k,
        restriction=b.restrict(a_kept, f_kept) if a_left else b.restrict(f_kept, a_kept),
        escape=escape,
        violation=(xs, ys),
    )


def restriction_ratio_holds(
    m_before: int, n_before: int, m_after: int, n_after: int
) -> bool:
    """Exact check of d'/d >= (n/n')^{1/4} in integers (delta = 1/4 only)."""
    # d'/d = (m' n^2) / (m n'^2); raise both sides to the 4th power.
    lhs = Fraction(m_after * n_before**2, m_before * n_after**2) ** 4
    return lhs >= Fraction(n_before, n_after)


@dataclass
class TraceEntry:
    part_size: int
    density: float
    delta: float  # the configured exponent the potential is taken under
    escape: str | None = None  # escape that produced this state (None for start)

    @property
    def potential(self) -> float:
        return self.density * self.part_size**self.delta


def large_regular_subgraph(
    b: BipartiteGraph, cfg: PipelineConfig | None = None
) -> tuple[int, BipartiteGraph, list[TraceEntry]]:
    """Iterate the increment until a factor appears.

    Returns ``(k, factor, trace)``. The factor is k-regular on the final
    restricted pair by construction: a flow of k*n saturates every source
    and sink arc, and a k = 1 factor is a perfect matching. The trace's
    potential d_i * n_i^delta is non-decreasing; part sizes strictly shrink,
    so termination is structural. Raises DensityIncrementStuck if the
    clamped k = 1 regime dead-ends.
    """
    cfg = cfg or PipelineConfig()
    cur = b
    trace = [TraceEntry(len(cur.left), cur.density, cfg.delta)]
    while True:
        step = density_increment_step(cur, cfg)
        if step.kind == "factor":
            return step.k, step.factor, trace
        cur = step.restriction
        trace.append(TraceEntry(len(cur.left), cur.density, cfg.delta, step.escape))


# ---------------------------------------------------------------------------
# colouring regular bipartite graphs by peeling matchings
# ---------------------------------------------------------------------------

def matching_decomposition(h: BipartiteGraph) -> list[list[tuple[int, int]]]:
    """Split a k-regular equal-part bipartite graph into k perfect matchings.

    ``find_k_factor(cur, 1)`` peels the first k - 1 off the remainder; each
    removal leaves the rest regular (so Hall gives the next matching), and
    after k - 1 every vertex has one edge left and those form the last.
    """
    if len(h.left) != len(h.right):
        raise ValueError("parts must have equal size")
    degrees = np.concatenate(h.degree_arrays)
    k = int(degrees[0]) if h.left else 0
    bad = (degrees != k).nonzero()[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"not regular: vertex {(h.left + h.right)[i]} has degree {int(degrees[i])} != {k}"
        )
    cur, matchings = h, []
    for _ in range(k - 1):
        matching = find_k_factor(cur, 1).factor
        matchings.append(list(matching.edges))
        cur = cur.without(matching)
    if cur.edges:
        matchings.append(list(cur.edges))
    return matchings


def _regular_colouring(vertex_count: int, h: BipartiteGraph) -> EdgeColouring:
    """Matching j gets colour j (1-based), on h's edges as a graph over ids
    0..vertex_count-1. They are distinct edges of one graph, so canonicalised
    and sorted they need no re-validation."""
    peel = enumerate(matching_decomposition(h), start=1)
    colours = {canonical_edge(u, v): j for j, matching in peel for u, v in matching}
    return EdgeColouring(Graph._trusted(vertex_count, tuple(sorted(colours))), colours)


def colour_regular_bipartite(h: BipartiteGraph) -> EdgeColouring:
    """Colour matching j with colour j (1-based): every vertex sees {1..k};
    the colouring's graph has the labels as vertex ids, 0..max label."""
    labels = h.left + h.right
    if min(labels, default=0) < 0:
        raise ValueError(f"label {min(labels)} is not a vertex id")
    return _regular_colouring(max(labels, default=-1) + 1, h)


# ---------------------------------------------------------------------------
# forests
# ---------------------------------------------------------------------------

def forest_partition(g: Graph) -> list[Graph]:
    """First-fit partition of the edges into forests (canonical edge order).

    Each forest keeps one union-find parent list, with path-halving find
    inlined, over the vertices that carry an edge, numbered once in id order
    (not over all declared ids); an edge joins the first forest in which its
    ends lie in different trees. Each forest's edges are a sorted
    subsequence of ``g.edges``, so it is returned without re-validation.

    That forest is found by a search down from a bound, not by a scan,
    because of two lemmas. They hold for any edge order: both proofs are by
    induction over the edges in the order first-fit places them.

    Nesting: every component of forest j+1 lies inside a component of
    forest j. An edge joins forest j+1 only if its ends are already
    connected in forest j (else first-fit would have put it in forest j or
    earlier), so the two components of forest j+1 it merges lie inside one
    component of forest j; and forest j only grows, so the containment, once
    true, stays true. Hence "the ends are connected in forest f" holds on a
    prefix of the forests, and the first forest where it fails is the
    first-fit choice.

    Prefix: the forests in which a vertex has an edge are a prefix
    0..c(v)-1. If v has an edge in forest j+1, its component there has two
    or more vertices and lies inside v's component in forest j, so v has an
    edge in forest j too. So in forest top = min(c(u), c(v)) one end of uv
    is isolated, the ends are not connected there, and uv goes to a forest
    f <= top (f equal to the number of forests opens a new one).

    The search probes forests top-1, top-2, top-4, ... until one finds the
    ends connected, then bisects the bracket left: O(log(top - f + 1))
    find-pairs per edge, at most about twice a bisection over all forests.
    Most edges land at top, found by one find-pair in forest top-1, and are
    joined without a find: the isolated end's parent becomes the other end.
    The forests come out edge for edge as a linear scan gives them.
    """
    index = {v: i for i, v in enumerate(sorted(set(chain.from_iterable(g.edges))))}
    count = [0] * len(index)  # c(v): v has edges in forests 0..c(v)-1
    forests: list[list[Edge]] = []
    parents: list[list[int]] = []
    for e in g.edges:
        a, b = index[e[0]], index[e[1]]
        ca, cb = count[a], count[b]
        hi = top = ca if ca < cb else cb
        # the ends are connected in forests < lo and not in forest hi;
        # step is the gallop's next distance below top, 0 once bisecting
        lo, step = 0, 1
        while lo < hi:
            mid = top - step if step else (lo + hi) >> 1
            if mid < lo:
                mid = lo
            parent = parents[mid]
            x, y = a, b
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            while parent[y] != y:
                parent[y] = parent[parent[y]]
                y = parent[y]
            if x == y:
                lo, step = mid + 1, 0
            else:
                hi, rx, ry, step = mid, x, y, step << 1
        if hi < top:
            # a probe found the ends disconnected in forest hi, with roots
            # rx and ry, and nothing was joined since
            parents[hi][rx] = ry
            forests[hi].append(e)
            continue
        # forest top, where an end with c = top is isolated: its own root
        if top == len(forests):
            forests.append([])
            parents.append(list(range(len(index))))
        if ca == top:
            parents[top][a] = b
            count[a] = top + 1
        else:
            parents[top][b] = a
        if cb == top:
            count[b] = top + 1
        forests[top].append(e)
    return [Graph._trusted(g.vertex_count, tuple(es)) for es in forests]


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

@dataclass
class FactorPart:
    layer_bit: int
    k: int
    colouring: EdgeColouring  # its graph is the factor, which spans its sides
    trace: list[TraceEntry]


@dataclass
class ForestPart:
    colouring: EdgeColouring  # its graph is the forest


@dataclass
class DecompositionReport:
    graph: Graph  # the decomposed graph
    parts: list[FactorPart | ForestPart]  # part i is parts[i]
    layers: list[BitLayer]
    # distinct and ascending: layers ascend, each appended at most once, before its break
    stuck_layers: list[int] = field(default_factory=list)

    @property
    def part_count(self) -> int:
        return len(self.parts)

    @cached_property
    def partition(self) -> EdgePartition:
        """The parts as an ``EdgePartition`` of ``graph``, validated when first read."""
        part_of = {e: i for i, part in enumerate(self.parts) for e in part.colouring.colours}
        return EdgePartition(self.graph, part_of, len(self.parts))

    def part_colourings(self) -> list[EdgeColouring]:
        """Colourings in part-index order, each on the ambient graph's vertices."""
        return [p.colouring for p in self.parts]

    def covers_each_edge_once(self) -> bool:
        """Whether every edge of ``graph`` lies in exactly one part.

        The part sizes must sum to m (which sizes the array), and the parts'
        edges, sorted, must be ``graph.edges``, which are sorted and
        distinct: then no edge is missing, repeated or foreign.

        An edge sorts by one int64 key u * n + v, which orders as (u, v)
        and is distinct once the parts' ids are checked to be below n: a
        part's graph may declare more ids, and a foreign id could alias a
        real edge's key. The key is exact while n^2 < 2^63 and is used up
        to n = 2^31, which covers every graph the CLI reads (n <= 2^18); a
        library ``Graph`` declaring more ids sorts its rows by the two
        columns instead, which is exact for any int64 ids.
        """
        g = self.graph
        n, m = g.vertex_count, g.edge_count
        if sum(len(p.colouring.colours) for p in self.parts) != m:
            return False
        got = _edge_array(chain.from_iterable(p.colouring.colours for p in self.parts), m)
        want = _edge_array(g.edges, m)
        if n > 1 << 31:
            return bool(np.array_equal(got[np.lexsort((got[:, 1], got[:, 0]))], want))
        if m and got.max() >= n:
            return False
        keys = got[:, 0] * n + got[:, 1]
        keys.sort()
        return bool(np.array_equal(keys, want[:, 0] * n + want[:, 1]))


def decompose_theta(g: Graph, cfg: PipelineConfig | None = None) -> DecompositionReport:
    """Partition E(g) into interval-colourable parts via the layer pipeline.

    A layer whose density len(edges) / half^2 reaches the threshold
    (2 half)^-gamma is oriented and yields k-factors until the rest falls
    below it (or the increment is stuck); a sparser layer is only listed.
    The edges no factor took then go through one first-fit forest pass in
    canonical order, which needs no layers: a forest of any graph is
    interval colourable. Parts: factors in layer order, then forests.
    """
    cfg = cfg or PipelineConfig()
    layers = bit_split(g)
    parts: list[FactorPart | ForestPart] = []
    stuck: list[int] = []

    for layer in layers:
        threshold = (2 * layer.half) ** (-cfg.gamma)
        if len(layer.edges) / (layer.half * layer.half) < threshold:
            continue
        cur = layer.graph
        while cur.edges and cur.density >= threshold:
            try:
                k, factor, trace = large_regular_subgraph(cur, cfg)
            except DensityIncrementStuck:
                stuck.append(layer.bit)
                break
            colouring = _regular_colouring(g.vertex_count, factor)
            parts.append(FactorPart(layer.bit, k, colouring, trace))
            cur = cur.without(factor)

    rest = g
    if parts:
        taken = {e for part in parts for e in part.colouring.colours}
        rest = Graph._trusted(g.vertex_count, tuple(e for e in g.edges if e not in taken))
    parts.extend(ForestPart(colour_forest(forest)) for forest in forest_partition(rest))
    return DecompositionReport(
        graph=g,
        parts=parts,
        layers=layers,
        stuck_layers=stuck,
    )


# ---------------------------------------------------------------------------
# escape-dichotomy objective
# ---------------------------------------------------------------------------

MIN_GRID_STEP = 1e-4  # at most 10,000 steps per axis; time grows as 1/step^2


@dataclass
class ObjectiveReport:
    max_value: float
    argmax: tuple[float, float]

    @property
    def bounded_below_one(self) -> bool:
        return self.max_value < 1.0


def objective_check(delta: float, grid_step: float = 0.01) -> ObjectiveReport:
    """Grid maximum of (x-y)/100 + (1-x)^{1-delta} + x y^{1-delta}.

    Evaluated over {(x, y): 0 <= y <= min(x, 1/2), 0 <= x <= 1} excluding the
    x = 0 edge, where y = 0 and the function is exactly 1. A maximum strictly
    below 1 is what makes the escape dichotomy sound.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if not MIN_GRID_STEP <= grid_step <= 0.5:
        raise ValueError(f"grid_step must lie in [{MIN_GRID_STEP}, 0.5], got {grid_step}")
    steps = int(round(1.0 / grid_step))
    xs = np.linspace(0.0, 1.0, steps + 1)
    best = -np.inf
    arg = (0.0, 0.0)
    for x in xs[1:]:  # x = 0 excluded
        y_hi = min(x, 0.5)
        ys = xs[: int(np.floor(y_hi / grid_step + 1e-9)) + 1]
        vals = (x - ys) / 100.0 + (1.0 - x) ** (1.0 - delta) + x * ys ** (1.0 - delta)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            arg = (float(x), float(ys[i]))
    return ObjectiveReport(max_value=best, argmax=arg)
