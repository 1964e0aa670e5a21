"""The density increment on edge arrays against the tuple code it replaced.

``BipartiteGraph.ends`` holds each edge's end positions, and the degree
table, ``restrict``, ``find_k_factor`` and the increment read every count
from it. The ``tuple_*`` functions below are test-local copies of the
earlier implementations, which scanned the label tuples in Python; they use
no ``ends``. Each check compares the two field for field on random pairs
whose labels are not ascending and whose sides interleave, with deficient
vertices, Hall violations and padded layers, and checks that every pair the
array code hands out carries the view its labels give.
"""

import random
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_graph
from ilab import Graph
from ilab.decompose import (
    DensityIncrementStuck,
    DichotomyBug,
    KFactorWitness,
    PipelineConfig,
    bit_split,
    density_increment_step,
    find_k_factor,
    large_regular_subgraph,
)
from ilab.flows import Dinic, hopcroft_karp
from ilab.graphs import BipartiteGraph

# ---------------------------------------------------------------------------
# the tuple implementations
# ---------------------------------------------------------------------------


def tuple_degrees(b):
    return Counter(chain.from_iterable(b.edges))


def tuple_restrict(b, left, right):
    lset, rset = set(left), set(right)
    keep_l = tuple(u for u in b.left if u in lset)
    keep_r = tuple(v for v in b.right if v in rset)
    keep_e = tuple(e for e in b.edges if e[0] in lset and e[1] in rset)
    return BipartiteGraph._trusted(keep_l, keep_r, keep_e)


def tuple_criterion(b, k, xs, ys):
    xset, yset = set(xs), set(ys)
    e_xy = sum(1 for u, v in b.edges if u in xset and v in yset)
    return k * len(b.left) + e_xy - k * len(xset) - k * len(yset)


def tuple_find_k_factor(b, k):
    n = len(b.left)
    if k == 0:
        return KFactorWitness(BipartiteGraph._trusted(b.left, b.right, ()), None)
    lpos = {u: i for i, u in enumerate(b.left)}
    rpos = {v: i for i, v in enumerate(b.right)}
    if k == 1:
        adjacency = [[] for _ in range(n)]
        for u, v in b.edges:
            adjacency[lpos[u]].append(rpos[v])
        match, reached = hopcroft_karp(n, n, adjacency)
        if len(match) == n:
            chosen = tuple(sorted((b.left[i], b.right[j]) for i, j in match.items()))
            return KFactorWitness(BipartiteGraph._trusted(b.left, b.right, chosen), None)
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
        if net.max_flow(source, sink) == k * n:
            chosen = tuple(e for e, idx in mid.items() if net.flow_on(idx) == 1)
            return KFactorWitness(BipartiteGraph._trusted(b.left, b.right, chosen), None)
        side = net.min_cut_source_side()
        xs = tuple(u for u in b.left if lpos[u] in side)
        ys = tuple(v for v in b.right if (n + rpos[v]) not in side)
    assert tuple_criterion(b, k, xs, ys) < 0
    return KFactorWitness(None, (xs, ys))


def tuple_top_by_degree(scores, size, delta):
    kept = sorted(scores, key=lambda x: (-scores[x], x))[:size]
    edges = sum(scores[x] for x in kept)
    return edges / (size * size) * size**delta, kept


def tuple_step(b, cfg):
    """(kind, k, factor, restriction, escape, violation) of one step."""
    n = len(b.left)
    d = b.density
    delta = cfg.delta
    k = cfg.k_for(d, n)
    deg = tuple_degrees(b)
    short_l = tuple(u for u in b.left if deg[u] < k)
    short_r = tuple(v for v in b.right if deg[v] < k)
    if short_l or short_r:
        if len(short_l) >= len(short_r):
            xs, ys = short_l, b.right
        else:
            xs, ys = b.left, short_r
    else:
        w = tuple_find_k_factor(b, k)
        if w.is_factor:
            return ("factor", k, w.factor, None, None, None)
        xs, ys = w.violation
    a_left = len(xs) <= len(ys)
    a, bb = (xs, ys) if a_left else (ys, xs)
    a_class, f_class = (b.left, b.right) if a_left else (b.right, b.left)
    bset, aset = set(bb), set(a)
    c = [v for v in f_class if v not in bset]
    dd = [u for u in a_class if u not in aset]
    at_a = (
        [e for e in b.edges if e[0] in aset]
        if a_left
        else [(v, u) for u, v in b.edges if v in aset]
    )
    candidates = []
    if c:
        cset = set(c)
        into_c = Counter(u for u, v in at_a if v in cset)
        scores = {u: into_c[u] for u in a}
        if sum(scores.values()) >= d * len(a) * len(c) ** (1 - delta) * n**delta:
            potential, kept = tuple_top_by_degree(scores, len(c), delta)
            candidates.append((potential, "dense-pair", kept + c))
    if dd and sum(deg[u] for u in dd) >= d * len(dd) ** (1 - delta) * n ** (1 + delta):
        from_a = Counter(v for _, v in at_a)
        scores = {v: deg[v] - from_a[v] for v in f_class}
        potential, kept = tuple_top_by_degree(scores, len(dd), delta)
        candidates.append((potential, "complement-side", dd + kept))
    if not candidates:
        if k > d * n / 100.0:
            raise DensityIncrementStuck("neither escape holds")
        raise DichotomyBug("violation admitted no escape")
    _, escape, kept = max(candidates, key=lambda t: t[0])
    keep = set(kept)
    return ("restriction", k, None, tuple_restrict(b, keep, keep), escape, (xs, ys))


def tuple_large_regular_subgraph(b, cfg):
    cur = b
    trace = [(len(cur.left), cur.density, cfg.delta, None)]
    while True:
        kind, k, factor, restriction, escape, _ = tuple_step(cur, cfg)
        if kind == "factor":
            return k, factor, trace
        cur = restriction
        trace.append((len(cur.left), cur.density, cfg.delta, escape))


# ---------------------------------------------------------------------------
# inputs and comparisons
# ---------------------------------------------------------------------------


def random_pair(rng, n, p, defect):
    """An equal-part pair on 2n distinct labels, dealt to the sides in a
    random order, so neither side ascends and the sides interleave. A
    ``hall`` defect gives two left vertices one and the same neighbour; a
    ``padded`` one strips every edge off a few vertices of each side."""
    labels = rng.sample(range(-3 * n, 3 * n + 1), 2 * n)
    left, right = tuple(labels[:n]), tuple(labels[n:])
    edges = {(u, v) for u in left for v in right if rng.random() < p}
    if defect == "hall" and n >= 2:
        u1, u2 = rng.sample(left, 2)
        v = rng.choice(right)
        edges = {e for e in edges if e[0] not in (u1, u2)} | {(u1, v), (u2, v)}
    elif defect == "padded":
        bare = set(rng.sample(left, n // 3)) | set(rng.sample(right, n // 3))
        edges = {(u, v) for u, v in edges if u not in bare and v not in bare}
    return BipartiteGraph(left, right, tuple(edges))


def pairs(max_n):
    return st.builds(
        lambda seed, n, p, defect: random_pair(random.Random(seed), n, p, defect),
        st.integers(0, 2**32), st.integers(1, max_n), st.floats(0.05, 1.0),
        st.sampled_from([None, "hall", "padded"]),
    )


def label_ends(b):
    """The view derived from the labels alone."""
    lpos = {u: i for i, u in enumerate(b.left)}
    rpos = {v: i for i, v in enumerate(b.right)}
    return [lpos[u] for u, _ in b.edges], [rpos[v] for _, v in b.edges]


def same_pair(got, want):
    """Equal sides and edges, and ``got`` carries the view of its labels."""
    assert (got.left, got.right, got.edges) == (want.left, want.right, want.edges)
    assert [a.tolist() for a in got.ends] == list(label_ends(got))


def same_witness(got, want):
    assert got.is_factor == want.is_factor
    assert got.violation == want.violation
    if want.is_factor:
        same_pair(got.factor, want.factor)


def outcome(fn, *args):
    try:
        return fn(*args)
    except DensityIncrementStuck:
        return DensityIncrementStuck


def same_step(b, cfg):
    """One array step against one tuple step; returns the kind or Stuck."""
    got, want = outcome(density_increment_step, b, cfg), outcome(tuple_step, b, cfg)
    if want is DensityIncrementStuck:
        assert got is DensityIncrementStuck
        return want
    kind, k, factor, restriction, escape, violation = want
    assert (got.kind, got.k, got.escape, got.violation) == (kind, k, escape, violation)
    if kind == "factor":
        same_pair(got.factor, factor)
    else:
        same_pair(got.restriction, restriction)
    return (kind, escape)


def same_increment(b, cfg):
    """The whole increment, array against tuple: k, factor and trace."""
    got, want = outcome(large_regular_subgraph, b, cfg), outcome(
        tuple_large_regular_subgraph, b, cfg)
    if want is DensityIncrementStuck:
        assert got is DensityIncrementStuck
        return
    k, factor, trace = got
    assert k == want[0]
    same_pair(factor, want[1])
    assert [(t.part_size, t.density, t.delta, t.escape) for t in trace] == want[2]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

CFG = PipelineConfig()


@given(pairs(7), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_array_increment_matches_the_tuple_code(b, rnd):
    assert dict(b.degrees) == dict(tuple_degrees(b))
    assert all(b.degree(x) == tuple_degrees(b)[x] for x in b.left + b.right)
    # a restriction to random label subsets, some labels foreign to b
    foreign = [max(b.left + b.right) + 1, min(b.left + b.right) - 1]
    left = [u for u in b.left + tuple(foreign) if rnd.random() < 0.6]
    right = [v for v in b.right + tuple(foreign) if rnd.random() < 0.6]
    same_pair(b.restrict(left, right), tuple_restrict(b, left, right))
    for k in range(len(b.left) + 1):
        same_witness(find_k_factor(b, k), tuple_find_k_factor(b, k))
    if b.edges:
        same_step(b, CFG)
        same_increment(b, CFG)


@given(st.integers(2, 70), st.floats(0.3, 1.0), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_padded_layers_match_the_tuple_code(n, p, seed):
    # bit_split's layers carry the view built from the padded ids; the
    # tuple code reads a copy of each layer without it
    for layer in bit_split(Graph(n, random_graph(n, p, seed))):
        b = layer.graph
        plain = BipartiteGraph(b.left, b.right, b.edges)
        assert [a.tolist() for a in b.ends] == list(label_ends(b))
        assert dict(b.degrees) == dict(tuple_degrees(plain))
        same_witness(find_k_factor(b, 1), tuple_find_k_factor(plain, 1))
        same_step(b, CFG)
        same_increment(b, CFG)


def test_inputs_reach_every_branch():
    # the pair generator behind the property tests reaches a factor, both
    # escapes and a failed k = 1 search
    seen = set()
    for seed in range(400):
        rng = random.Random(seed)
        b = random_pair(rng, rng.randint(1, 7), rng.uniform(0.05, 1.0),
                        rng.choice([None, "hall", "padded"]))
        if b.edges:
            seen.add(same_step(b, CFG))
        if not find_k_factor(b, 1).is_factor and all(b.degree(x) for x in b.left + b.right):
            seen.add("hall violation")
    assert seen >= {("factor", None), ("restriction", "dense-pair"),
                    ("restriction", "complement-side"), "hall violation"}, seen


@pytest.mark.parametrize("n,p,defect", [(230, 0.95, None), (256, 0.9, "hall")])
def test_large_pairs_with_k_at_least_two(n, p, defect):
    # d * n >= 200, so the step asks for a k >= 2 factor; the Hall defect
    # leaves two vertices short of it, so the increment restricts first
    b = random_pair(random.Random(n), n, p, defect)
    assert CFG.k_for(b.density, n) >= 2
    same_step(b, CFG)
    same_increment(b, CFG)
