"""Layered random bipartite graphs and the probe for thickness lower bounds.

The construction stacks r independent random bipartite layers over a common
ground side B of n vertices: layer i has its own side A_i of about n*delta^i
vertices and edge probability eps * delta^{-i}, so later layers are smaller
but denser. Vertex ids are consecutive (B first, then A_1, A_2, ...), and
layer i draws from ``numpy.random.default_rng([seed, i])`` so layers can be
regenerated independently.

Against an adversary who partitions the edges into parts (claiming each part
interval colourable in some ambient graph of bounded degree), the probe
walks the layers: at stage k it finds a dense single-part subgraph K_k on
the surviving ground vertices using layer-k edges, remembers the part used,
and deletes the edges of previously used parts before the next stage. Two
things can go wrong for the adversary: a ground vertex of a later layer may
carry so many edges of an already-used part into an earlier K_i that any
interval colouring of that part would exceed the diameter spread cap (a
`SpreadWitness`, checkable in isolation), or the deletions may leave a stage
with nothing fresh, forcing a part repeat. Either outcome refutes the
partition; a clean r-stage trace is consistent with thickness > r - 1 ...
for that adversary only.

Budgets: stage k flags a pivot vertex a in A_k when it sends more than
``8 * eps * delta^{-i} * n`` layer-k edges of part f_i into K_i's ground
side. A flagged overrun is *certified* as a witness only when it clears the
sound threshold N - 1 > (diam + 3) * (Delta - 1), where Delta is K_i's
degree cap: the largest ambient degree over its vertices, computed once
when K_i is recorded. Overruns below the threshold are recorded but prove
nothing.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .colouring import spread_cap
from .graphs import (
    MAX_VERTICES,
    BipartiteGraph,
    Edge,
    Graph,
    canonical_edge,
    diameter,
)

MAX_DRAW_CELLS = 1 << 24  # generate's |A_1| x n float64 draw: 128 MB


@dataclass(frozen=True)
class LowerBoundParams:
    r: int
    n: int
    delta: float
    epsilon: float
    seed: int = 0

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("need at least one layer")
        if self.n < 1:
            raise ValueError("ground side must be non-empty")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if not self.epsilon > 0:  # also rejects NaN
            raise ValueError("epsilon must be positive")
        try:
            worst = self.p(self.r)
        except OverflowError:  # delta^-r beyond the float range
            worst = math.inf
        if worst > 1:
            raise ValueError(
                f"edge probability eps*delta^-{self.r} = {worst:.3g} exceeds 1"
            )
        # every layer has an A vertex, so the first MAX_VERTICES layers decide
        layers = range(1, min(self.r, MAX_VERTICES) + 1)
        if self.n + sum(map(self.layer_size, layers)) > MAX_VERTICES:
            raise ValueError(f"n + |A_1| + ... + |A_r| exceeds the cap of {MAX_VERTICES} vertices")
        if self.layer_size(1) * self.n > MAX_DRAW_CELLS:
            raise ValueError(f"layer 1 draws |A_1| * n cells, above the cap of {MAX_DRAW_CELLS}")

    @classmethod
    def preset(cls, r: int, n: int = 1000, seed: int = 0) -> "LowerBoundParams":
        """delta = 1/(1000 r), eps = delta^{r+2} (the regime of the analysis)."""
        delta = 1.0 / (1000.0 * r)
        return cls(r=r, n=n, delta=delta, epsilon=delta ** (r + 2), seed=seed)

    def p(self, i: int) -> float:
        """Edge probability of layer i (1-based)."""
        return self.epsilon * self.delta ** (-i)

    def layer_size(self, i: int) -> int:
        return max(1, round(self.n * self.delta**i))

    def layer_stats(self, i: int) -> tuple[float, float]:
        """(mean, standard deviation) of the layer-i edge count."""
        trials = self.layer_size(i) * self.n
        p = self.p(i)
        return trials * p, math.sqrt(trials * p * (1 - p))


@dataclass(frozen=True)
class LayeredBipartite:
    """The layers over B. Ground ids lie below every A id, so each layer edge
    ``(b, a)`` is already in canonical form."""

    params: LowerBoundParams
    a_layers: tuple[tuple[int, ...], ...]  # a_layers[i-1] = ids of A_i
    layer_graphs: tuple[BipartiteGraph, ...]  # left side is always B

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def ground(self) -> tuple[int, ...]:
        return tuple(range(self.n))

    def all_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(e for lg in self.layer_graphs for e in lg.edges))

    @cached_property
    def _degrees(self) -> Counter[int]:
        """Every vertex's degree over all layers, counted once from the edges."""
        degrees: Counter[int] = Counter()
        for lg in self.layer_graphs:
            for column in zip(*lg.edges):  # the b ends, then the a ends
                degrees.update(column)
        return degrees

    def ambient_degree(self, vertex: int) -> int:
        return self._degrees[vertex]  # 0 for an id no edge touches


def generate(params: LowerBoundParams) -> LayeredBipartite:
    """Sample the layered graph; layer i uses rng stream [seed, i]."""
    a_layers = []
    graphs = []
    ground = tuple(range(params.n))
    next_id = params.n
    for i in range(1, params.r + 1):
        size = params.layer_size(i)
        layer = tuple(range(next_id, next_id + size))
        next_id += size
        rng = np.random.default_rng([params.seed, i])
        hit = rng.random((size, params.n)) < params.p(i)
        a_idx, b_idx = np.nonzero(hit)
        edges = tuple(sorted((int(b), layer[int(a)]) for a, b in zip(a_idx, b_idx)))
        a_layers.append(layer)
        graphs.append(BipartiteGraph._trusted(ground, layer, edges))
    return LayeredBipartite(params, tuple(a_layers), tuple(graphs))


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensePartHypothesis:
    p: float
    r: int

    @property
    def alpha(self) -> float:
        """Smallest subset fraction the pseudorandomness condition covers."""
        return self.p * self.p / (2.0 * self.r * self.r)


def check_biregular(b: BipartiteGraph, p: float) -> tuple[bool, int | None]:
    """Are all degrees within [0.9, 1.1] times the expected p * |other side|?

    Returns the first offending vertex (left side scanned first) on failure.
    """
    lo_l, hi_l = 0.9 * p * len(b.right), 1.1 * p * len(b.right)
    lo_r, hi_r = 0.9 * p * len(b.left), 1.1 * p * len(b.left)
    for u in b.left:
        if not lo_l <= b.degree(u) <= hi_l:
            return False, u
    for v in b.right:
        if not lo_r <= b.degree(v) <= hi_r:
            return False, v
    return True, None


_U_BLOCK = 256  # U masks per block of the exhaustive pseudorandomness check


@dataclass(frozen=True)
class PseudoReport:
    ok: bool
    worst_ratio: float  # max |e(U,V) - p|U||V|| / (|U||V|)^0.85 seen
    exhaustive: bool


def check_pseudorandom(
    b: BipartiteGraph,
    alpha: float,
    p: float,
    trials: int = 200,
    seed: int = 0,
) -> PseudoReport:
    """|e(U, V) - p |U||V|| <= (|U||V|)^0.85 over qualifying subset pairs.

    Qualifying means |U| >= alpha |C| and |V| >= alpha |D|. Exhaustive when
    both sides have at most 12 vertices; otherwise `trials` uniformly random
    pairs (sizes uniform over the allowed range) drawn from a generator
    seeded with `seed`.
    """
    nc, nd = len(b.left), len(b.right)
    if nc == 0 or nd == 0:
        return PseudoReport(True, 0.0, True)
    min_u = max(1, math.ceil(alpha * nc))
    min_v = max(1, math.ceil(alpha * nd))
    lpos = {u: i for i, u in enumerate(b.left)}
    rpos = {v: i for i, v in enumerate(b.right)}

    if nc <= 12 and nd <= 12:
        m = np.zeros((nc, nd), dtype=np.float64)
        for u, v in b.edges:
            m[lpos[u], rpos[v]] = 1.0
        u_masks = [x for x in range(1, 1 << nc) if x.bit_count() >= min_u]
        v_masks = [y for y in range(1, 1 << nd) if y.bit_count() >= min_v]
        mu = np.array([[(x >> i) & 1 for i in range(nc)] for x in u_masks], float)
        mv = np.array([[(y >> j) & 1 for j in range(nd)] for y in v_masks], float)
        hits = m @ mv.T  # each C vertex's edges into each V
        v_sizes = mv.sum(axis=1)
        worst = 0.0
        # blocks of U masks bound each array at _U_BLOCK x |V masks|; counts
        # are small integers, exact in floats, so the maximum is unchanged
        for s in range(0, len(mu), _U_BLOCK):
            block = mu[s : s + _U_BLOCK]
            sizes = np.outer(block.sum(axis=1), v_sizes)
            ratios = np.abs(block @ hits - p * sizes) / sizes**0.85
            worst = max(worst, float(ratios.max()))
        return PseudoReport(worst <= 1.0, worst, True)

    # e(U, V) counts the edges with both endpoints chosen: O(m) per trial
    eu = np.array([lpos[u] for u, _ in b.edges], dtype=np.intp)
    ev = np.array([rpos[v] for _, v in b.edges], dtype=np.intp)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        su = int(rng.integers(min_u, nc + 1))
        sv = int(rng.integers(min_v, nd + 1))
        in_u = np.zeros(nc, dtype=bool)
        in_v = np.zeros(nd, dtype=bool)
        in_u[rng.choice(nc, size=su, replace=False)] = True
        in_v[rng.choice(nd, size=sv, replace=False)] = True
        count = int(np.count_nonzero(in_u[eu] & in_v[ev]))
        worst = max(worst, abs(count - p * su * sv) / (su * sv) ** 0.85)
    return PseudoReport(worst <= 1.0, worst, False)


# ---------------------------------------------------------------------------
# dense monochromatic subgraphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DenseSubgraphReport:
    part: int
    x0: int
    middle: tuple[int, ...]  # the part-neighbourhood of x0 (other side)
    far: tuple[int, ...]  # second neighbourhood, back on x0's side
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]  # part-coloured edges inside the subgraph
    diameter: int

    @property
    def ground_hits(self) -> int:
        """|K intersect C| = |far|, since far holds x0."""
        return len(self.far)


def find_dense_monochromatic(
    b: BipartiteGraph, part_of: Mapping[Edge, int]
) -> DenseSubgraphReport:
    """Second-neighbourhood subgraph of the busiest part.

    Picks the part with the most edges in `b` (lowest index on ties), then
    the left vertex x0 maximising the number of part walks of length two
    starting at it (lowest id on ties), and returns K on x0, its part
    neighbourhood, and the part neighbourhood of that. K is connected with
    diameter at most 4, and when `b` satisfies a `DensePartHypothesis` its
    left portion captures at least |C| / (2 r^2) vertices — the hypotheses
    are the caller's to check, this function only does the construction.
    """
    if not b.edges:
        raise ValueError("graph has no edges")
    labelled = [(u, v, part_of[canonical_edge(u, v)]) for u, v in b.edges]
    counts = Counter(p for _, _, p in labelled)
    best = max(counts.values())
    part = min(p for p, c in counts.items() if c == best)

    adj_l: dict[int, list[int]] = {}
    adj_r: dict[int, list[int]] = {}
    for u, v, p in labelled:
        if p == part:
            adj_l.setdefault(u, []).append(v)
            adj_r.setdefault(v, []).append(u)
    x0, x0_score = -1, -1
    for u in b.left:
        score = sum(len(adj_r[v]) for v in adj_l.get(u, ()))
        if score > x0_score:
            x0, x0_score = u, score
    middle = tuple(sorted(adj_l[x0]))
    far = tuple(sorted({u for v in middle for u in adj_r[v]}))
    edges = tuple(sorted(canonical_edge(u, v) for v in middle for u in adj_r[v]))
    # relabel for the diameter computation; far holds x0. The relabel is
    # monotone, so the sorted canonical edges stay sorted, distinct and u < v
    labels = sorted({*middle, *far})
    pos = {x: i for i, x in enumerate(labels)}
    local = Graph._trusted(len(labels), tuple((pos[u], pos[v]) for u, v in edges))
    diam = diameter(local)
    if not math.isfinite(diam) or diam > 4:
        raise AssertionError("second neighbourhood must be connected with diameter <= 4")
    return DenseSubgraphReport(
        part=part,
        x0=x0,
        middle=middle,
        far=far,
        vertices=tuple(labels),
        edges=edges,
        diameter=int(diam),
    )


# ---------------------------------------------------------------------------
# spread witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpreadWitness:
    """A pivot with so many one-part edges into a small-diameter piece that
    the part cannot be interval coloured in any ambient graph of max degree
    `delta_cap` containing it."""

    part: int
    h_vertices: tuple[int, ...]
    pivot: int
    edge_count: int  # N: edges of `part` from pivot into h_vertices
    diameter: int
    delta_cap: int

    @property
    def forced_spread(self) -> int:
        return self.edge_count - 1 - 2 * (self.delta_cap - 1)

    @property
    def cap(self) -> int:
        return spread_cap(self.diameter, self.delta_cap)

    @property
    def certified(self) -> bool:
        return self.forced_spread > self.cap


def validate_spread_witness(
    lb: LayeredBipartite,
    part_of: Mapping[Edge, int],
    w: SpreadWitness,
) -> tuple[bool, str]:
    """Recompute a witness from scratch and decide whether it certifies.

    All quantities are rebuilt from the layered graph: the part's subgraph on
    `h_vertices` (all layers), its diameter (infinite when the part edges do
    not connect the piece), the pivot's edge count into it, and the true
    ambient max degree over the piece.
    Every piece vertex must carry an internal part edge, so each of the
    pivot's neighbours does and the spread transfers. One scan of the
    layered graph's edges collects both the piece's and the pivot's part
    edges.
    """
    hset = set(w.h_vertices)
    if w.pivot in hset:
        return False, "pivot lies inside the piece"
    h_edges: list[Edge] = []  # part edges inside the piece
    pivot_hits: list[int] = []  # piece ends of the pivot's part edges
    for e in lb.all_edges():
        inside = (e[0] in hset) + (e[1] in hset)
        if inside and part_of.get(e) == w.part:
            if inside == 2:
                h_edges.append(e)
            elif w.pivot in e:
                pivot_hits.append(e[0] if e[1] == w.pivot else e[1])
    if not h_edges:
        return False, "piece carries no edges of the part"
    # h_edges is a sorted subsequence of the canonical edges, and the relabel
    # is monotone, so the local edges stay sorted, distinct and u < v
    labels = sorted(hset)
    pos = {x: i for i, x in enumerate(labels)}
    local = Graph._trusted(len(labels), tuple((pos[u], pos[v]) for u, v in h_edges))
    # the piece has two or more vertices, so a finite diameter also puts a
    # part edge on every one of them
    diam = diameter(local)
    if not math.isfinite(diam):
        return False, "part edges do not connect the piece"
    n_edges = len(pivot_hits)
    if n_edges != w.edge_count:
        return False, f"pivot edge count is {n_edges}, witness says {w.edge_count}"
    delta = max(max(lb.ambient_degree(x) for x in hset), 1)
    if delta > w.delta_cap:
        return False, f"ambient degree {delta} exceeds claimed cap {w.delta_cap}"
    forced = n_edges - 1 - 2 * (w.delta_cap - 1)
    cap = spread_cap(int(diam), w.delta_cap)
    if forced <= cap:
        return False, f"forced spread {forced} does not beat cap {cap}"
    return True, "certified"


# ---------------------------------------------------------------------------
# the adversarial probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Overrun:
    """A budget overrun that did not clear the certification threshold."""

    stage: int
    prior_stage: int
    pivot: int
    edge_count: int
    budget: float


@dataclass(frozen=True)
class StageHypotheses:
    biregular: bool
    pseudorandom: bool


@dataclass
class ProbeStage:
    k: int
    part: int | None
    ground_before: int  # |B_{k-1}|
    ground_after: int  # |B_k|
    deletion_proportion: float
    hypotheses: StageHypotheses | None
    forced_repeat: bool = False


@dataclass
class ProbeTrace:
    budget_scale: float
    stages: list[ProbeStage] = field(default_factory=list)
    witnesses: list[SpreadWitness] = field(default_factory=list)
    overruns: list[Overrun] = field(default_factory=list)

    @property
    def contradiction(self) -> bool:
        """The last stage was forced to reuse a part."""
        return bool(self.stages) and self.stages[-1].forced_repeat

    @property
    def outcome(self) -> str:
        """The verdict: "witness" or "repeat" (both refute the partition),
        "exhausted" (a stage met no surviving edge) or "survived"."""
        if self.witnesses:
            return "witness"
        if self.contradiction:
            return "repeat"
        if self.stages and self.stages[-1].part is None:
            return "exhausted"
        return "survived"

    @property
    def refuted(self) -> bool:
        return self.outcome in ("witness", "repeat")

    @property
    def used_parts(self) -> list[int]:
        return [s.part for s in self.stages if s.part is not None]


def probe_budget(params: LowerBoundParams, prior_stage: int, scale: float = 1.0) -> float:
    """Edge budget for a pivot into the stage-i piece: 8 eps delta^{-i} n."""
    return 8.0 * params.p(prior_stage) * params.n * scale


def adversarial_probe(
    lb: LayeredBipartite,
    part_of: Mapping[Edge, int],
    budget_scale: float = 1.0,
) -> ProbeTrace:
    """Walk the layers against an adversary's edge partition.

    Stage k: scan A_k for pivots overrunning the budget into any earlier
    piece (certified overruns become witnesses and end the probe), delete
    layer-k edges of already-used parts, find a dense single-part subgraph on
    the survivors, and descend into its ground side. Each piece's degree cap,
    against which its overruns are certified, is computed once, when the
    piece is recorded. An empty survivor graph forces a rerun on the
    undeleted restriction; the part found there is necessarily a repeat,
    which is the contradiction flag. Hypothesis checks on each stage's
    restriction are recorded, not enforced; the deletion proportion reported
    per stage is the worst fraction of any single A_k vertex's edges into
    the surviving ground that the deletion removed.
    """
    if not 0 < budget_scale < math.inf:
        raise ValueError(f"budget_scale must be positive and finite, got {budget_scale}")
    params = lb.params
    trace = ProbeTrace(budget_scale=budget_scale)
    ground: set[int] = set(lb.ground)
    # (part, K_i, B_i, degree cap of K_i)
    used: list[tuple[int, DenseSubgraphReport, set[int], int]] = []

    for k in range(1, params.r + 1):
        layer = lb.layer_graphs[k - 1]
        # -- witness scan against every earlier piece
        for i, (f_i, report_i, b_i, delta_cap) in enumerate(used, start=1):
            budget = probe_budget(params, i, budget_scale)
            for a in lb.a_layers[k - 1]:
                hits = [
                    b
                    for b in layer.right_adjacency.get(a, ())
                    if b in b_i and part_of[(b, a)] == f_i
                ]
                if len(hits) <= budget:
                    continue
                w = SpreadWitness(
                    part=f_i,
                    h_vertices=report_i.vertices,
                    pivot=a,
                    edge_count=len(hits),
                    diameter=report_i.diameter,
                    delta_cap=delta_cap,
                )
                if w.certified:
                    trace.witnesses.append(w)
                else:
                    trace.overruns.append(
                        Overrun(k, i, a, len(hits), budget)
                    )
        if trace.witnesses:
            return trace

        # -- restriction of layer k to the surviving ground vertices
        restricted = layer.restrict(ground, lb.a_layers[k - 1])
        if not restricted.edges:
            trace.stages.append(
                ProbeStage(k, None, len(ground), len(ground), 0.0, None)
            )
            return trace
        # -- deletion of the used parts' edges, one part lookup per edge
        used_parts = {f for f, *_ in used}
        fresh_edges: list[Edge] = []
        deleted: Counter[int] = Counter()  # A_k vertex -> its deleted edges
        for b, a in restricted.edges:
            if part_of[(b, a)] in used_parts:
                deleted[a] += 1
            else:
                fresh_edges.append((b, a))
        proportion = max(
            (d / len(restricted.right_adjacency[a]) for a, d in deleted.items()),
            default=0.0,
        )

        p_k = params.p(k)
        ok_b, _ = check_biregular(restricted, p_k)
        pseudo = check_pseudorandom(
            restricted,
            DensePartHypothesis(p_k, params.r).alpha,
            p_k,
            trials=100,
            seed=abs(params.seed * 100_003 + k),
        )
        hyp = StageHypotheses(ok_b, pseudo.ok)

        forced = not fresh_edges
        search_graph = (
            restricted
            if forced
            # a sorted subsequence of the restricted layer's edges
            else BipartiteGraph._trusted(
                restricted.left, restricted.right, tuple(fresh_edges)
            )
        )
        report = find_dense_monochromatic(search_graph, part_of)
        new_ground = set(report.far)
        trace.stages.append(ProbeStage(
            k=k,
            part=report.part,
            ground_before=len(ground),
            ground_after=len(new_ground),
            deletion_proportion=proportion,
            hypotheses=hyp,
            forced_repeat=forced,
        ))
        if forced:
            return trace
        cap = max(max(lb.ambient_degree(x) for x in report.vertices), 1)
        used.append((report.part, report, new_ground, cap))
        ground = new_ground
    return trace
