"""Edge-partition pipeline bounding interval thickness from above.

The route: split the edges of a graph into equal-part bipartite *layers* by
the lowest differing bit of the endpoint ids (after padding the vertex count
to a power of two); inside each layer, repeatedly extract a k-regular
subgraph while the density is at least N^{-gamma} and colour it by peeling
perfect matchings (matching j gets colour j, so every covered vertex sees
{1..k}); once a layer is sparse, partition the remainder into forests
first-fit and colour each forest directly. Every part produced is interval
colourable by construction, so the number of parts upper-bounds the interval
thickness.

The k-regular extraction works by density increment. For an equal-part
bipartite graph with part size n and density d, either a k-factor exists for
k = max(1, floor(d*n/100)), or the subset criterion

    k*n + e(X, Y) >= k|X| + k|Y|   for all X in one class, Y in the other

fails; the violating pair is read off the min cut of the flow network
(source -> left with capacity k, edges with capacity 1, right -> sink with
capacity k). When k = 1 no network is built: the factor is a perfect
matching (Hopcroft–Karp), and failing that the same pair comes from the last
Hopcroft–Karp search, which reaches the min cut's left side by alternating
paths out of the unmatched left vertices. From a violation
(A, B) with |A| <= |B| (A may lie in either class; the step orients the
pair once), writing C and D for the complements of B and A in their
classes, at least one of two escapes holds
(when k <= d*n/100; see DensityIncrementStuck for the clamped regime):

    e(A, C) >= d |A| |C|^{1-delta} n^{delta}        (pair A x C)
    e(D, F) >= d |D|^{1-delta} n^{1+delta}          (pair D x F, F = B's class)

and trimming the larger side to the top-degree vertices yields an equal-part
restriction whose density ratio satisfies d'/d >= (n/n')^delta. Every count
comes from adjacency: e(A, C) is the sum of A's neighbour counts in C, e(D, F)
the degree sum over D, and a restriction's edges the kept counts. The potential
d_i * n_i^delta never decreases along the trace, and part sizes strictly
shrink, so the loop terminates in a factor.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

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

@dataclass(frozen=True)
class BitLayer:
    bit: int
    graph: BipartiteGraph


def bit_split(g: Graph) -> list[BitLayer]:
    """Partition edges by the lowest differing bit of their endpoint ids.

    Vertex ids are implicitly padded to 2^s (s = ceil(log2 n)); layer i is an
    equal-part bipartite graph between {bit i = 0} and {bit i = 1} over all
    padded ids. Only layers that carry edges are returned (ascending bit).
    """
    if g.edge_count == 0:
        return []
    s = max(1, math.ceil(math.log2(g.vertex_count)))
    full = 1 << s
    by_bit: dict[int, list[tuple[int, int]]] = {}
    for u, v in g.edges:
        bit = ((u ^ v) & -(u ^ v)).bit_length() - 1
        lo_side, hi_side = (u, v) if not (u >> bit) & 1 else (v, u)
        by_bit.setdefault(bit, []).append((lo_side, hi_side))
    ids = tuple(range(full))  # every layer shares these int objects
    layers = []
    for bit in sorted(by_bit):
        left = tuple(v for v in ids if not (v >> bit) & 1)
        right = tuple(v for v in ids if (v >> bit) & 1)
        edges = tuple(sorted(by_bit[bit]))
        layers.append(BitLayer(bit, BipartiteGraph._trusted(left, right, edges)))
    return layers


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
    """k*n + e(X, Y) - k|X| - k|Y| (negative iff (X, Y) violates)."""
    xset, yset = set(xs), set(ys)
    e_xy = sum(1 for u, v in b.edges if u in xset and v in yset)
    return k * len(b.left) + e_xy - k * len(xset) - k * len(yset)


def find_k_factor(b: BipartiteGraph, k: int) -> KFactorWitness:
    """Spanning k-regular subgraph of an equal-part bipartite graph, or a
    violating subset pair (X, Y).

    For k = 1 a factor is a perfect matching: Hopcroft–Karp finds one, and
    otherwise the last Hopcroft–Karp search gives X = the left vertices it
    reached from the free ones, Y = the right vertices outside their
    neighbourhood. For k >= 2 the pair is read off the source side of a Dinic
    min cut. Both give the same pair, the residual-reachable side of every
    maximum flow, so only the choice of factor depends on the route.
    """
    n = len(b.left)
    if n != len(b.right):
        raise ValueError(f"parts differ in size: {n} vs {len(b.right)}")
    if k < 0 or k > n:
        raise ValueError(f"k={k} out of range for part size {n}")
    if k == 0:
        return KFactorWitness(BipartiteGraph._trusted(b.left, b.right, ()), None)
    lpos = {u: i for i, u in enumerate(b.left)}
    rpos = {v: i for i, v in enumerate(b.right)}
    if k == 1:
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for u, v in b.edges:
            adjacency[lpos[u]].append(rpos[v])
        match, reached = hopcroft_karp(n, n, adjacency)
        if len(match) == n:
            chosen = tuple(sorted((b.left[i], b.right[j]) for i, j in match.items()))
            factor = BipartiteGraph._trusted(b.left, b.right, chosen)
            return KFactorWitness(factor, None)
        reached_r = {j for i in reached for j in adjacency[i]}
        xs = tuple(u for u in b.left if lpos[u] in reached)
        ys = tuple(v for v in b.right if rpos[v] not in reached_r)
    else:
        source, sink = 2 * n, 2 * n + 1
        net = Dinic(2 * n + 2)
        for i in range(n):
            net.add_edge(source, i, k)
            net.add_edge(n + i, sink, k)
        mid = {}
        for u, v in b.edges:
            mid[(u, v)] = net.add_edge(lpos[u], n + rpos[v], 1)
        flow = net.max_flow(source, sink)
        if flow == k * n:
            chosen = tuple(e for e, idx in mid.items() if net.flow_on(idx) == 1)
            factor = BipartiteGraph._trusted(b.left, b.right, chosen)
            return KFactorWitness(factor, None)
        side = net.min_cut_source_side()
        xs = tuple(u for u in b.left if lpos[u] in side)
        ys = tuple(v for v in b.right if (n + rpos[v]) not in side)
    witness = KFactorWitness(None, (xs, ys))
    # cut capacity = k(n-|X|) + k(n-|Y|) + e(X,Y) = flow < kn, hence strict
    slack = subset_criterion_value(b, k, xs, ys)
    if slack >= 0:
        raise DichotomyBug(f"min cut produced a non-violating pair (slack {slack})")
    return witness


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
    scores: dict[int, int], size: int, delta: float
) -> tuple[float, list[int]]:
    """Potential d' * size^delta of the square restriction on the `size`
    top-scored labels (ties by label), and those labels; a score counts edges
    into the other side, so the kept scores sum to the restriction's edges.
    """
    kept = sorted(scores, key=lambda x: (-scores[x], x))[:size]
    edges = sum(scores[x] for x in kept)
    return edges / (size * size) * size**delta, kept


def density_increment_step(b: BipartiteGraph, cfg: PipelineConfig) -> IncrementStep:
    """One step of the increment: a k-factor or a denser equal-part restriction."""
    n = len(b.left)
    d = b.density
    if d == 0:
        raise ValueError("density is zero")
    delta = cfg.delta
    k = cfg.k_for(d, n)
    w = find_k_factor(b, k)
    if w.is_factor:
        return IncrementStep(kind="factor", k=k, factor=w.factor)

    xs, ys = w.violation
    # A is the smaller side of the violation, B the other; D is the rest of
    # A's class and C the rest of B's class F. A vertex's score is its number
    # of neighbours in the opposite set, so scores of A into C sum to e(A, C)
    # and degrees over D sum to e(D, F).
    a_left = len(xs) <= len(ys)
    a, bb = (xs, ys) if a_left else (ys, xs)
    a_class, f_class = (b.left, b.right) if a_left else (b.right, b.left)
    a_adj = b.left_adjacency if a_left else b.right_adjacency
    bset, aset = set(bb), set(a)
    c = [v for v in f_class if v not in bset]
    dd = [u for u in a_class if u not in aset]

    candidates = []  # (potential, escape, kept labels of both classes)
    if c:
        cset = set(c)
        scores = {u: sum(1 for v in a_adj[u] if v in cset) for u in a}
        if sum(scores.values()) >= d * len(a) * len(c) ** (1 - delta) * n**delta:
            potential, kept = _top_by_degree(scores, len(c), delta)
            candidates.append((potential, "dense-pair", kept + c))
    if dd and (
        sum(len(a_adj[u]) for u in dd) >= d * len(dd) ** (1 - delta) * n ** (1 + delta)
    ):
        f_adj = b.right_adjacency if a_left else b.left_adjacency
        dset = set(dd)
        scores = {v: sum(1 for u in f_adj[v] if u in dset) for v in f_class}
        potential, kept = _top_by_degree(scores, len(dd), delta)
        candidates.append((potential, "complement-side", dd + kept))
    if not candidates:
        if k > d * n / 100.0:
            raise DensityIncrementStuck(
                f"k=1 clamp active (d*n = {d * n:.3f} < 100) and neither escape holds"
            )
        raise DichotomyBug(
            f"violation admitted no escape at k={k} <= d*n/100 = {d * n / 100:.3f}"
        )
    # the larger potential wins, dense-pair on ties (max keeps the first)
    _, escape, kept = max(candidates, key=lambda t: t[0])
    keep = set(kept)  # labels differ across classes, so one set names both sides
    return IncrementStep(
        kind="restriction",
        k=k,
        restriction=b.restrict(keep, keep),
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
    degrees = Counter(chain.from_iterable(h.edges))
    k = degrees[h.left[0]] if h.left else 0
    bad = next((x for x in h.left + h.right if degrees[x] != k), None)
    if bad is not None:
        raise ValueError(f"not regular: vertex {bad} has degree {degrees[bad]} != {k}")
    cur, matchings = h, []
    for _ in range(k - 1):
        matchings.append(list(find_k_factor(cur, 1).factor.edges))
        used = set(matchings[-1])
        cur = BipartiteGraph._trusted(
            h.left, h.right, tuple(e for e in cur.edges if e not in used)
        )
    if cur.edges:
        matchings.append(list(cur.edges))
    return matchings


def _matching_colours(h: BipartiteGraph) -> dict[Edge, int]:
    """Matching j gets colour j (1-based), keyed by canonical edge."""
    peel = enumerate(matching_decomposition(h), start=1)
    return {canonical_edge(u, v): j for j, matching in peel for u, v in matching}


def colour_regular_bipartite(h: BipartiteGraph) -> EdgeColouring:
    """Colour matching j with colour j (1-based): every vertex sees {1..k}."""
    return EdgeColouring(h.to_graph(), _matching_colours(h))


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
    """
    index = {v: i for i, v in enumerate(sorted(set(chain.from_iterable(g.edges))))}
    forests: list[list[Edge]] = []
    parents: list[list[int]] = []
    for e in g.edges:
        a, b = index[e[0]], index[e[1]]
        for bucket, parent in zip(forests, parents):
            x, y = a, b
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            while parent[y] != y:
                parent[y] = parent[parent[y]]
                y = parent[y]
            if x != y:
                parent[x] = y
                bucket.append(e)
                break
        else:
            parent = list(range(len(index)))
            parent[a] = b
            forests.append([e])
            parents.append(parent)
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
    layer_bit: int
    colouring: EdgeColouring  # its graph is the forest


@dataclass
class DecompositionReport:
    partition: EdgePartition
    parts: list[FactorPart | ForestPart]  # part i is parts[i]
    layers: list[BitLayer]
    stuck_layers: list[int] = field(default_factory=list)

    @property
    def part_count(self) -> int:
        return self.partition.part_count

    def part_colourings(self) -> list[EdgeColouring]:
        """Colourings in part-index order, each on the ambient graph's vertices."""
        return [p.colouring for p in self.parts]


def decompose_theta(g: Graph, cfg: PipelineConfig | None = None) -> DecompositionReport:
    """Partition E(g) into interval-colourable parts via the layer pipeline."""
    cfg = cfg or PipelineConfig()
    layers = bit_split(g)
    parts: list[FactorPart | ForestPart] = []
    stuck: list[int] = []

    for layer in layers:
        left, right = layer.graph.left, layer.graph.right
        threshold = (2 * len(left)) ** (-cfg.gamma)
        # the working graph is a fresh object, so its adjacency caches do not
        # outlive the layer loop on the report's layers
        cur = BipartiteGraph._trusted(left, right, layer.graph.edges)
        while cur.edges and cur.density >= threshold:
            try:
                k, factor, trace = large_regular_subgraph(cur, cfg)
            except DensityIncrementStuck:
                stuck.append(layer.bit)
                break
            colouring = EdgeColouring(
                factor.to_graph(g.vertex_count), _matching_colours(factor)
            )
            parts.append(FactorPart(layer.bit, k, colouring, trace))
            used = set(factor.edges)
            cur = BipartiteGraph._trusted(
                left, right, tuple(e for e in cur.edges if e not in used)
            )
        if cur.edges:
            # distinct edges of g, canonicalised and sorted: no re-validation
            rem_graph = Graph._trusted(
                g.vertex_count,
                tuple(sorted((u, v) if u < v else (v, u) for u, v in cur.edges)),
            )
            parts.extend(
                ForestPart(layer.bit, colour_forest(forest))
                for forest in forest_partition(rem_graph)
            )

    part_of = {e: i for i, part in enumerate(parts) for e in part.colouring.colours}
    return DecompositionReport(
        partition=EdgePartition(g, part_of, len(parts)),
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
    boundary_x0_value: float  # sup over the excluded x = 0 edge (exactly 1)

    @property
    def bounded_below_one(self) -> bool:
        return self.max_value < 1.0


def objective_check(delta: float, grid_step: float = 0.01) -> ObjectiveReport:
    """Grid maximum of (x-y)/100 + (1-x)^{1-delta} + x y^{1-delta}.

    Evaluated over {(x, y): 0 <= y <= min(x, 1/2), 0 <= x <= 1} excluding the
    x = 0 edge, where the function is identically ~1 (its value there is
    reported separately). A maximum strictly below 1 is what makes the escape
    dichotomy sound.
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
    return ObjectiveReport(max_value=best, argmax=arg, boundary_x0_value=1.0)
