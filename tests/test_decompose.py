import hashlib
import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ilab.decompose as dec
from conftest import random_graph
from ilab import Graph, verify
from ilab.decompose import (
    DensityIncrementStuck,
    FactorPart,
    PipelineConfig,
    bit_split,
    colour_regular_bipartite,
    decompose_theta,
    density_increment_step,
    find_k_factor,
    forest_partition,
    large_regular_subgraph,
    matching_decomposition,
    objective_check,
    restriction_ratio_holds,
    subset_criterion_value,
)
from ilab.flows import Dinic
from ilab.graphs import BipartiteGraph


def random_bipartite(s, p, seed):
    rng = random.Random(seed)
    left, right = tuple(range(s)), tuple(range(s, 2 * s))
    return BipartiteGraph(
        left, right, tuple((a, b) for a in left for b in right if rng.random() < p)
    )


def brute_min_criterion(b, k):
    """Minimum of the subset criterion over all (X, Y) pairs."""
    worst = None
    for xm in range(1 << len(b.left)):
        xs = tuple(u for i, u in enumerate(b.left) if xm >> i & 1)
        for ym in range(1 << len(b.right)):
            ys = tuple(v for i, v in enumerate(b.right) if ym >> i & 1)
            val = subset_criterion_value(b, k, xs, ys)
            if worst is None or val < worst:
                worst = val
    return worst


class TestKFactor:
    def test_complete_graph_has_all_factors(self):
        b = random_bipartite(4, 1.1, seed=0)  # p > 1 means complete
        for k in range(5):
            w = find_k_factor(b, k)
            assert w.is_factor
            assert w.factor.edge_count == 4 * k
            for v in b.left + b.right:
                assert w.factor.degree(v) == k

    def test_flow_agrees_with_subset_criterion_both_directions(self):
        for seed in range(40):
            s = 3 + seed % 3
            b = random_bipartite(s, 0.15 + (seed % 7) / 8, seed=seed)
            for k in range(s + 1):
                w = find_k_factor(b, k)
                feasible = brute_min_criterion(b, k) >= 0
                assert w.is_factor == feasible, (seed, k)
                if w.is_factor:
                    assert all(w.factor.degree(v) == k for v in b.left + b.right)
                else:
                    xs, ys = w.violation
                    assert subset_criterion_value(b, k, xs, ys) < 0

    def test_zero_factor_is_empty(self):
        b = random_bipartite(3, 0.5, seed=1)
        w = find_k_factor(b, 0)
        assert w.is_factor and w.factor.edge_count == 0

    def test_isolated_vertex_blocks_any_positive_factor(self):
        b = BipartiteGraph((0, 1), (2, 3), ((0, 2), (0, 3)))
        w = find_k_factor(b, 1)
        assert not w.is_factor
        xs, ys = w.violation
        assert subset_criterion_value(b, 1, xs, ys) < 0

    def test_k1_violation_equals_dinic_min_cut(self):
        # the k = 1 route (matching + König) must name the same pair as the
        # source side of a unit-capacity Dinic min cut; padded sides have
        # isolated vertices, as on the pipeline's padded layers
        failing = 0
        rng = random.Random(2024)
        for trial in range(600):
            n = rng.randint(1, 14)
            pad_l, pad_r = rng.randint(0, n // 3), rng.randint(0, n // 3)
            left, right = tuple(range(n)), tuple(range(n, 2 * n))
            p = rng.uniform(0.05, 0.8)
            edges = tuple(
                (u, v) for u in left[pad_l:] for v in right[pad_r:] if rng.random() < p
            )
            b = BipartiteGraph(left, right, edges)
            net = Dinic(2 * n + 2)
            for i in range(n):
                net.add_edge(2 * n, i, 1)
                net.add_edge(n + i, 2 * n + 1, 1)
            for u, v in edges:
                net.add_edge(u, v, 1)
            perfect = net.max_flow(2 * n, 2 * n + 1) == n
            w = find_k_factor(b, 1)
            assert w.is_factor == perfect, trial
            if perfect:
                assert all(w.factor.degree(x) == 1 for x in left + right)
                assert set(w.factor.edges) <= set(edges)
                continue
            failing += 1
            side = net.min_cut_source_side()
            want = (
                tuple(u for u in left if u in side),
                tuple(v for v in right if v not in side),
            )
            assert w.violation == want, trial
        assert failing >= 200

    def test_k2_factor_is_unchanged(self):
        # k >= 2 stays on the Dinic route; this factor is frozen from the
        # recursive-DFS implementation, so the iterative DFS must match it
        b = random_bipartite(8, 0.7, seed=3)
        w = find_k_factor(b, 2)
        assert w.factor.edges == (
            (0, 9), (0, 14), (1, 8), (1, 9), (2, 10), (2, 12), (3, 8), (3, 11),
            (4, 10), (4, 13), (5, 11), (5, 12), (6, 14), (6, 15), (7, 13), (7, 15),
        )


class TestRestrictionRatio:
    def test_fourth_root_boundary_is_exact(self):
        # (48/3)^{1/4} = 2: a density ratio of exactly 2 passes, any less fails
        assert restriction_ratio_holds(128, 48, 1, 3)
        assert not restriction_ratio_holds(129, 48, 1, 3)

    def test_matches_float_computation_away_from_ties(self):
        rng = random.Random(9)
        for _ in range(300):
            n, np_ = rng.randint(2, 300), 0
            np_ = rng.randint(1, n - 1)
            m = rng.randint(1, n * n)
            mp = rng.randint(1, np_ * np_) if np_ > 1 else rng.randint(0, 1)
            if mp == 0:
                continue
            lhs = (mp / np_**2) / (m / n**2)
            rhs = (n / np_) ** 0.25
            if abs(lhs - rhs) / rhs < 1e-9:
                continue
            assert restriction_ratio_holds(m, n, mp, np_) == (lhs >= rhs)


class TestIncrementStep:
    def test_dense_graph_steps_to_factor(self):
        b = random_bipartite(8, 0.9, seed=3)
        step = density_increment_step(b, PipelineConfig())
        assert step.kind == "factor"
        assert step.k == 1
        assert all(step.factor.degree(v) == 1 for v in b.left + b.right)

    def test_restriction_preserves_square_shape_and_ratio(self):
        hit = 0
        for seed in range(60):
            b = random_bipartite(10, 0.25, seed=100 + seed)
            if b.edge_count == 0:
                continue
            step = density_increment_step(b, PipelineConfig())
            if step.kind != "restriction":
                continue
            hit += 1
            r = step.restriction
            assert len(r.left) == len(r.right)
            assert restriction_ratio_holds(
                b.edge_count, len(b.left), r.edge_count, len(r.left)
            )
            assert step.escape in ("dense-pair", "complement-side")
            xs, ys = step.violation
            assert subset_criterion_value(b, step.k, xs, ys) < 0
        assert hit >= 5, "expected several restriction steps in this sweep"

    def test_full_pipeline_returns_regular_subgraph_with_monotone_trace(self):
        for seed in (0, 4, 7):
            b = random_bipartite(24, 0.4, seed=seed)
            k, factor, trace = large_regular_subgraph(b)
            assert all(factor.degree(v) == k for v in factor.left + factor.right)
            assert factor.edge_count == k * len(factor.left)
            pots = [t.potential for t in trace]
            assert all(b >= a - 1e-12 for a, b in zip(pots, pots[1:])), trace

    def test_trace_potential_uses_configured_delta(self):
        cfg = PipelineConfig(delta=0.4)
        longest = 0
        for seed in range(16):
            b = random_bipartite(16, 0.2, seed=100 + seed)
            _, _, trace = large_regular_subgraph(b, cfg)
            longest = max(longest, len(trace))
            pots = [t.potential for t in trace]
            for t, pot in zip(trace, pots):
                assert t.delta == 0.4
                assert pot == pytest.approx(t.density * t.part_size**0.4)
            assert all(b >= a - 1e-12 for a, b in zip(pots, pots[1:])), trace
        assert longest >= 3, "expected a trace with several restrictions"

    def test_restrictions_are_frozen(self):
        # every choice of the step (k, escape, trimmed sides) is pinned over
        # padded random layers; the sweep must meet both escapes with the
        # violation's smaller side in either class
        rng = random.Random(5)
        records, cases = [], Counter()
        for seed in range(200):
            s = rng.randint(6, 40)
            pad_l, pad_r = rng.randint(0, s // 3), rng.randint(0, s // 3)
            p = rng.uniform(0.05, 0.6)
            left, right = tuple(range(s)), tuple(range(s, 2 * s))
            edges = tuple(
                (u, v) for u in left[pad_l:] for v in right[pad_r:] if rng.random() < p
            )
            if not edges:
                continue
            b = BipartiteGraph(left, right, edges)
            for delta in (0.25, 0.4):
                try:
                    step = density_increment_step(b, PipelineConfig(delta=delta))
                except DensityIncrementStuck:
                    records.append((seed, delta, "stuck"))
                    continue
                if step.kind == "factor":
                    records.append((seed, delta, "factor", step.k))
                    continue
                xs, ys = step.violation
                cases[step.escape, len(xs) <= len(ys)] += 1
                records.append((
                    seed, delta, step.kind, step.k, step.escape,
                    step.restriction.left, step.restriction.right,
                ))
        assert len(cases) == 4, cases
        digest = hashlib.sha256(repr(records).encode()).hexdigest()
        assert digest == (
            "4375b54b6280ba63bd13d4e3198f84aaee74399a6633f0b9fb6b900631df4423"
        ), digest


def test_decompose_theta_survives_increment_stuck(monkeypatch):
    # the stuck escape hatch routes the layer to forests and records it
    def always_stuck(b, cfg=None):
        raise DensityIncrementStuck("injected")

    monkeypatch.setattr(dec, "large_regular_subgraph", always_stuck)
    g = Graph(8, random_graph(8, 0.9, seed=2))
    rep = decompose_theta(g)
    assert rep.stuck_layers
    assert not [p for p in rep.parts if isinstance(p, FactorPart)]
    parts = rep.part_colourings()
    assert all(verify(c).interval for c in parts)
    covered = sorted(e for c in parts for e in c.colours)
    assert covered == sorted(g.edges)


class TestBitSplit:
    @given(st.integers(2, 70), st.random_module())
    @settings(max_examples=40, deadline=None)
    def test_layers_partition_edges_with_log_bound(self, n, rnd):
        g = Graph(n, random_graph(n, 0.35, seed=rnd.seed))
        layers = bit_split(g)
        assert len(layers) <= max(1, math.ceil(math.log2(n)))
        seen = []
        for layer in layers:
            assert len(layer.graph.left) == len(layer.graph.right)
            for a, b in layer.graph.edges:
                lo = min(a, b) ^ max(a, b)
                assert lo & -lo == 1 << layer.bit
                seen.append((min(a, b), max(a, b)))
        assert sorted(seen) == sorted(g.edges)

    def test_bits_ascend_and_sides_are_bit_classes(self):
        g = Graph(8, tuple((i, j) for i in range(8) for j in range(i + 1, 8)))
        layers = bit_split(g)
        assert [l.bit for l in layers] == [0, 1, 2]
        for layer in layers:
            for v in layer.graph.left:
                assert v >> layer.bit & 1 == 0
            for v in layer.graph.right:
                assert v >> layer.bit & 1 == 1

    def test_layers_share_the_padded_ids(self):
        # one edge in each of 16 layers over 2^16 ids: the layers' tuples hold
        # 16 * 2^16 pointers (8 MiB), and the id ints are made once (2 MiB);
        # fresh ints for every layer took 40 MiB
        full = 1 << 16
        g = Graph(full, tuple((0, 1 << bit) for bit in range(16)))
        tracemalloc.start()
        try:
            layers = bit_split(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [layer.bit for layer in layers] == list(range(16))
        assert all(len(layer.graph.left) == full // 2 for layer in layers)
        assert peak < 16 << 20, peak


class TestRegularDecomposition:
    def test_k33_splits_into_three_matchings(self):
        b = random_bipartite(3, 1.1, seed=0)
        matchings = matching_decomposition(b)
        assert len(matchings) == 3
        for m in matchings:
            assert len(m) == 3
            assert len({a for a, _ in m}) == 3 and len({y for _, y in m}) == 3

    def test_rejects_irregular_input(self):
        b = BipartiteGraph((0, 1), (2, 3), ((0, 2), (0, 3), (1, 2)))
        with pytest.raises(ValueError):
            matching_decomposition(b)

    def test_last_matching_is_what_remains(self, monkeypatch):
        # 3-regular circulant on 5+5: two searches, then the leftover edges
        calls = []
        search = dec.hopcroft_karp

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(dec, "hopcroft_karp", counted)
        left, right = tuple(range(5)), tuple(range(5, 10))
        edges = tuple((u, 5 + (u + d) % 5) for u in range(5) for d in range(3))
        matchings = matching_decomposition(BipartiteGraph(left, right, edges))
        assert len(calls) == 2 and len(matchings) == 3
        for m in matchings:
            assert sorted(a for a, _ in m) == list(left) and sorted(y for _, y in m) == list(right)
        assert sorted(e for m in matchings for e in m) == sorted(edges)

    def test_peel_matchings_are_frozen(self):
        # every matching of the peel is pinned on seeded k-regular graphs
        # (permuted circulants) for k = 2..6
        rng = random.Random(16)
        records = []
        for k in range(2, 7):
            for _ in range(8):
                n = rng.randint(k + 1, 12)
                lperm = rng.sample(range(n), n)
                rperm = rng.sample(range(n, 2 * n), n)
                offsets = rng.sample(range(n), k)
                edges = tuple(
                    (lperm[u], rperm[(u + d) % n]) for u in range(n) for d in offsets
                )
                b = BipartiteGraph(tuple(range(n)), tuple(range(n, 2 * n)), edges)
                matchings = matching_decomposition(b)
                assert len(matchings) == k
                assert sorted(e for m in matchings for e in m) == list(b.edges)
                records.append(matchings)
        digest = hashlib.sha256(repr(records).encode()).hexdigest()
        assert digest == (
            "1073bcd5241afae35399a704d09eb748dc3221b4aa4e4a8249314dbf1b8391bd"
        ), digest

    def test_colouring_is_interval_with_k_colours(self):
        # 4-regular circulant on 7+7
        left, right = tuple(range(7)), tuple(range(7, 14))
        edges = tuple((u, 7 + (u + d) % 7) for u in range(7) for d in range(4))
        c = colour_regular_bipartite(BipartiteGraph(left, right, edges))
        rep = verify(c)
        assert rep.interval and rep.distinct_colours == 4


@given(st.integers(1, 40), st.random_module())
@settings(max_examples=30, deadline=None)
def test_forest_partition_parts_are_forests_covering_everything(n, rnd):
    g = Graph(n, random_graph(n, 0.5, seed=rnd.seed))
    parts = forest_partition(g)
    seen = []
    for f in parts:
        assert f.vertex_count == n
        # acyclic: every component of a forest has |E| = |V| - 1
        for comp in f.components():
            sub_edges = [e for e in f.edges if e[0] in comp]
            assert len(sub_edges) == len(comp) - 1
        seen.extend(f.edges)
    assert sorted(seen) == sorted(g.edges)
    if g.edge_count:
        assert all(f.edge_count for f in parts)


def naive_first_fit(g):
    """First-fit forests, testing each forest by a search from one end."""
    forests = []
    for u, v in g.edges:
        for forest in forests:
            reach, todo = {u}, [u]
            while todo:
                x = todo.pop()
                for a, b in forest:
                    y = b if a == x else a if b == x else None
                    if y is not None and y not in reach:
                        reach.add(y)
                        todo.append(y)
            if v not in reach:
                forest.append((u, v))
                break
        else:
            forests.append([(u, v)])
    return forests


def test_forest_partition_matches_naive_first_fit():
    nx = pytest.importorskip("networkx")
    rng = random.Random(10)
    for _ in range(60):
        n = rng.randint(1, 30)
        g = Graph(n, random_graph(n, rng.choice((0.05, 0.2, 0.5, 0.9)), seed=rng.randrange(10**6)))
        parts = forest_partition(g)
        assert [list(f.edges) for f in parts] == naive_first_fit(g), g.edges
        for f in parts:
            # what a validating Graph would hold: sorted, distinct, in range
            assert f.vertex_count == n and Graph(n, f.edges).edges == f.edges
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(f.edges)
            assert nx.is_forest(h)


def test_forest_partition_memory_follows_touched_vertices():
    # K_8 declared on 2^18 vertices: the union-find must not allocate a
    # parent list over every declared id for each of its forests
    g = Graph(1 << 18, tuple((u, v) for u in range(8) for v in range(u + 1, 8)))
    tracemalloc.start()
    try:
        parts = forest_partition(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [f.edges for f in parts] == [
        tuple(f) for f in naive_first_fit(Graph(8, g.edges))
    ]
    assert peak < 4 << 20, peak


class TestDecomposeTheta:
    @pytest.mark.parametrize("n,p,seed", [(30, 0.2, 0), (48, 0.55, 1), (64, 0.9, 2)])
    def test_parts_are_interval_and_partition_exactly(self, n, p, seed):
        g = Graph(n, random_graph(n, p, seed=seed))
        rep = decompose_theta(g)
        parts = rep.part_colourings()
        assert rep.part_count == len(parts)
        assert all(verify(c).interval for c in parts)
        seen = {}
        for idx, c in enumerate(parts):
            for e in c.colours:
                assert e not in seen
                seen[e] = idx
        assert set(seen) == set(g.edges)
        assert all(rep.partition.part_of[e] == i for e, i in seen.items())

    def test_dense_layers_yield_regular_parts(self):
        g = Graph(64, random_graph(64, 0.9, seed=2))
        rep = decompose_theta(g)
        factors = [p for p in rep.parts if isinstance(p, FactorPart)]
        assert factors, "dense input should exercise the factor route"
        for f in factors:
            touched = {x for e in f.colouring.colours for x in e}
            colours = list(range(1, f.k + 1))
            assert all(f.colouring.vertex_colours(v) == colours for v in touched)

    def test_empty_graph(self):
        rep = decompose_theta(Graph(5, ()))
        assert rep.part_count == 0 and rep.part_colourings() == []


class TestObjective:
    def test_frozen_grid_values(self):
        rep = objective_check(0.25, 0.01)
        assert rep.boundary_x0_value == 1.0
        assert rep.max_value == pytest.approx(0.9928068134823518, abs=1e-12)
        assert rep.argmax == (pytest.approx(0.01), pytest.approx(0.01))
        assert rep.max_value < 1.0
        assert rep.bounded_below_one

    def test_interior_ridge_point_value(self):
        f = lambda x, y: (x - y) / 100 + (1 - x) ** 0.75 + x * y**0.75
        assert f(0.5, 0.5) == pytest.approx(0.892, abs=0.005)

    def test_every_grid_point_stays_below_one_for_small_delta(self):
        for delta in (0.1, 0.25, 0.4):
            rep = objective_check(delta, 0.02)
            assert rep.max_value < 1.0

    def test_coarser_grid_still_excludes_boundary(self):
        rep = objective_check(0.25, 0.1)
        assert rep.argmax[0] >= 0.1 - 1e-12
        assert rep.max_value < 1.0

    def test_step_floor(self):
        # 10,000 steps per axis is the finest grid; time grows as 1/step^2
        assert objective_check(0.25, 1e-4).max_value < 1.0
        for step in (5e-5, 0.0, float("nan")):
            with pytest.raises(ValueError, match="grid_step"):
                objective_check(0.25, step)
