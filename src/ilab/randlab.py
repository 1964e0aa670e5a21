"""Layered random bipartite graphs and the probe for thickness lower bounds.

The construction stacks r independent random bipartite layers over a common
ground side B of n vertices: layer i has its own side A_i of about n*delta^i
vertices and edge probability eps * delta^{-i}, so later layers are smaller
but denser. Vertex ids are consecutive (B first, then A_1, A_2, ...), and
layer i draws from ``numpy.random.default_rng([seed, i])`` so layers can be
regenerated independently. `generate` is the one function of ilab that
draws random numbers; every check and the probe are deterministic.

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

Each stage's restriction is checked against the two hypotheses of the
lower-bound argument, and the verdicts are recorded, not enforced:
`check_biregular`, and `check_pseudorandom`, whose verdict is "holds" (proved
over every pair, on at most 12 vertices a side), "refuted" (with a pair that
breaks it) or "not refuted" (a fixed family of pairs broke nothing).

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
from itertools import chain, compress
from typing import Mapping

import numpy as np

from .colouring import spread_cap
from .graphs import (
    MAX_VERTICES,
    BipartiteGraph,
    Edge,
    canonical_edge,
    diameter,
    relabelled,
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
        if self.seed < 0:  # numpy's refusal of the stream [seed, i] names no field
            raise ValueError(f"seed must be non-negative, got {self.seed}")
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
    """The layers over B = 0..params.n-1. Ground ids lie below every A id, so
    each layer edge ``(b, a)`` is already in canonical form."""

    params: LowerBoundParams
    a_layers: tuple[tuple[int, ...], ...]  # a_layers[i-1] = ids of A_i
    layer_graphs: tuple[BipartiteGraph, ...]  # left side is always B

    def all_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(e for lg in self.layer_graphs for e in lg.edges))

    def ambient_degree(self, vertex: int) -> int:
        return sum(lg.degrees[vertex] for lg in self.layer_graphs)


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
        # the transpose lists the hits by (b, a), the order of the edges
        b_idx, a_idx = np.nonzero(hit.T)
        edges = tuple(zip(b_idx.tolist(), (a_idx + layer[0]).tolist()))
        a_layers.append(layer)
        graphs.append(BipartiteGraph._trusted(ground, layer, edges, (b_idx, a_idx)))
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
    for deg, side, other in zip(b.degree_arrays, (b.left, b.right), (b.right, b.left)):
        inside = (0.9 * p * len(other) <= deg) & (deg <= 1.1 * p * len(other))
        if not inside.all():
            return False, side[int(np.argmin(inside))]
    return True, None


@dataclass(frozen=True)
class PseudoReport:
    verdict: str  # "holds", "refuted" or "not refuted"
    worst_ratio: float  # max |e(U,V) - p|U||V|| / (|U||V|)^0.85 over the pairs checked
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None  # (U, V) labels when refuted


def check_pseudorandom(b: BipartiteGraph, alpha: float, p: float) -> PseudoReport:
    """|e(U, V) - p |U||V|| <= (|U||V|)^0.85 over qualifying subset pairs.

    Qualifying means U in C, V in D, |U| >= alpha |C| and |V| >= alpha |D|.
    When both sides have at most 12 vertices every qualifying pair is
    covered, and the verdict is "holds" or "refuted". Past that, one fixed
    family of pairs is checked, each pair only if it qualifies: the whole
    sides (C, D), and for each vertex x of either side its star ({x},
    N(x)) and its anti-star ({x}, other side - N(x)), written (N(x), {x})
    and (C - N(x), {x}) when x lies in D. The inequality is claimed for
    every qualifying pair, so one pair that breaks it refutes it; a family
    that breaks nothing proves nothing, and the verdict is then "not
    refuted", never "holds". Every count in the family is a degree (e = d
    for a star, 0 for an anti-star, |E| for the sides), so the family costs
    O(|C| + |D|) over ``b.degree_arrays``, with no matrix, sort or random
    draw. A "refuted" verdict carries the labels (U, V) of a worst pair it
    checked, whose ratio is `worst_ratio`.

    The exhaustive branch runs over every U but over no V, by the prefix
    lemma. Fix U and t = |V|, let d_U(v) count the edges from U to v, so
    that e(U, V) is the sum of d_U over V, and let x_1 <= ... <= x_|D| be
    the values of d_U sorted. List the values on V as y_1 <= ... <= y_t.
    Then x_j <= y_j, since y_1..y_j are j of the x's, and y_j <=
    x_(|D|-t+j), since y_j..y_t are t-j+1 of them; summing over j,
    lo_t = x_1 + ... + x_t <= e(U, V) <= x_(|D|-t+1) + ... + x_|D| = hi_t,
    and the t vertices of lowest (highest) d_U attain lo_t (hi_t). With
    c = p |U| t, |e - c| is convex in e, so over the V of size t it is
    largest at lo_t or at hi_t, and the denominator depends on t alone.
    Rounding is monotone and keeps the sign of e - c, and the counts are
    small integers, exact in floats, so the float ratio peaks at an end
    too: the maximum is bit for bit the one that every (U, V) pair gives.
    One sort of each U's row of d_U and two cumulative sums give the ends,
    and the worst (U, t, end) gives the witness back.
    """
    if not 0 <= alpha <= 1:  # also rejects NaN
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    nc, nd = len(b.left), len(b.right)
    small = nc <= 12 and nd <= 12
    if nc == 0 or nd == 0:  # no pair qualifies
        return PseudoReport("holds" if small else "not refuted", 0.0, None)
    min_u = max(1, math.ceil(alpha * nc))
    min_v = max(1, math.ceil(alpha * nd))

    if small:
        lp, rp = b.ends
        m = np.zeros((nc, nd))
        m[lp, rp] = 1.0
        # one row per U of at least min_u vertices: bit i of x puts C's i-th in U
        mu = (np.arange(1, 1 << nc)[:, None] >> np.arange(nc)) & 1
        mu = mu[mu.sum(axis=1) >= min_u]
        d_u = np.sort(mu @ m, axis=1)
        lo = d_u.cumsum(axis=1)[:, min_v - 1 :]
        hi = d_u[:, ::-1].cumsum(axis=1)[:, min_v - 1 :]
        sizes = np.outer(mu.sum(axis=1), np.arange(min_v, nd + 1.0))
        dev_lo, dev_hi = np.abs(lo - p * sizes), np.abs(hi - p * sizes)
        ratios = np.maximum(dev_lo, dev_hi) / sizes**0.85
        row, col = np.unravel_index(int(ratios.argmax()), ratios.shape)
        worst = float(ratios[row, col])
        if worst <= 1.0:
            return PseudoReport("holds", worst, None)
        order = np.argsort(mu[row] @ m, kind="stable")
        t = min_v + int(col)
        v_pos = order[:t] if dev_lo[row, col] >= dev_hi[row, col] else order[nd - t :]
        u_pos = np.flatnonzero(mu[row])
    else:
        # rows: the sides; C's stars and anti-stars; D's stars and anti-stars
        dc, dd = b.degree_arrays
        one_c, one_d = np.ones_like(dc), np.ones_like(dd)
        us = np.concatenate(([nc], one_c, one_c, dd, nc - dd))
        vs = np.concatenate(([nd], dc, nd - dc, one_d, one_d))
        es = np.concatenate(([len(b.edges)], dc, 0 * one_c, dd, 0 * one_d))
        sizes = (us * vs).astype(float)
        ratios = np.abs(es - p * sizes) / np.where(sizes > 0, sizes, 1.0) ** 0.85
        ratios[(us < min_u) | (vs < min_v)] = -1.0  # the pairs that do not qualify
        i = int(ratios.argmax())  # (C, D) qualifies, so the worst is a ratio
        worst = float(ratios[i])
        if worst <= 1.0:
            return PseudoReport("not refuted", worst, None)
        lp, rp = b.ends
        if i == 0:
            u_pos, v_pos = np.arange(nc), np.arange(nd)
        elif i <= 2 * nc:  # the star or anti-star of C's x-th vertex
            anti, x = divmod(i - 1, nc)
            hit = np.zeros(nd, bool)
            hit[rp[lp == x]] = True
            u_pos, v_pos = np.array([x]), np.flatnonzero(~hit if anti else hit)
        else:  # the star or anti-star of D's x-th vertex
            anti, x = divmod(i - 1 - 2 * nc, nd)
            hit = np.zeros(nc, bool)
            hit[lp[rp == x]] = True
            u_pos, v_pos = np.flatnonzero(~hit if anti else hit), np.array([x])
    witness = (
        tuple(b.left[j] for j in u_pos.tolist()),
        tuple(b.right[j] for j in np.sort(v_pos).tolist()),
    )
    return PseudoReport("refuted", worst, witness)


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
    labels = sorted({*middle, *far})  # far holds x0
    diam = diameter(relabelled(labels, edges))
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
    for e in chain.from_iterable(lg.edges for lg in lb.layer_graphs):
        inside = (e[0] in hset) + (e[1] in hset)
        if inside and part_of.get(e) == w.part:
            if inside == 2:
                h_edges.append(e)
            elif w.pivot in e:
                pivot_hits.append(e[0] if e[1] == w.pivot else e[1])
    if not h_edges:
        return False, "piece carries no edges of the part"
    # the piece has two or more vertices, so a finite diameter also puts a
    # part edge on every one of them
    diam = diameter(relabelled(sorted(hset), h_edges))
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
    pseudorandom: str  # the verdict of check_pseudorandom


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
    ground: set[int] = set(range(params.n))
    # (part, K_i, B_i, degree cap of K_i)
    used: list[tuple[int, DenseSubgraphReport, set[int], int]] = []

    for k in range(1, params.r + 1):
        layer = lb.layer_graphs[k - 1]
        # -- witness scan against every earlier piece
        for i, (f_i, report_i, b_i, delta_cap) in enumerate(used, start=1):
            budget = probe_budget(params, i, budget_scale)
            hits = Counter(
                a for b, a in layer.edges if b in b_i and part_of[(b, a)] == f_i
            )
            for a in lb.a_layers[k - 1]:
                if hits[a] <= budget:
                    continue
                w = SpreadWitness(
                    part=f_i,
                    h_vertices=report_i.vertices,
                    pivot=a,
                    edge_count=hits[a],
                    diameter=report_i.diameter,
                    delta_cap=delta_cap,
                )
                if w.certified:
                    trace.witnesses.append(w)
                else:
                    trace.overruns.append(
                        Overrun(k, i, a, hits[a], budget)
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
        edges = restricted.edges
        gone = np.fromiter((part_of[e] in used_parts for e in edges), bool, len(edges))
        lp, rp = restricted.ends
        deleted = np.bincount(rp[gone], minlength=len(restricted.right))  # per A_k vertex
        proportion = float((deleted / np.maximum(restricted.degree_arrays[1], 1)).max(initial=0))

        p_k = params.p(k)
        ok_b, _ = check_biregular(restricted, p_k)
        pseudo = check_pseudorandom(restricted, DensePartHypothesis(p_k, params.r).alpha, p_k)
        hyp = StageHypotheses(ok_b, pseudo.verdict)

        forced = bool(gone.all())
        fresh = ~gone  # a sorted subsequence of the restricted layer's edges
        search_graph = restricted if forced else BipartiteGraph._trusted(
            restricted.left, restricted.right,
            tuple(compress(edges, fresh.tobytes())), (lp[fresh], rp[fresh]),
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
