import hashlib
import inspect
import itertools
import math
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

import ilab.decompose as dec
from conftest import random_graph
from ilab import Graph, colour_forest, verify
from ilab.decompose import (
    DecompositionReport,
    DensityIncrementStuck,
    FactorPart,
    ForestPart,
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
        # random layers: seeds 0-199 pad each class, so most of their layers
        # take the degree route; seeds 200-399 are unpadded and sparser, so
        # layers with no isolated vertex reach find_k_factor. The sweep must
        # meet both escapes with the violation's smaller side in either class
        rng = random.Random(5)
        records, cases = [], Counter()
        for seed in range(400):
            s = rng.randint(6, 40)
            padded = seed < 200
            pad_l, pad_r = (rng.randint(0, s // 3), rng.randint(0, s // 3)) if padded else (0, 0)
            p = rng.uniform(0.05, 0.6 if padded else 0.3)
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
                assert subset_criterion_value(b, step.k, xs, ys) < 0
                cases[step.escape, len(xs) <= len(ys)] += 1
                records.append((
                    seed, delta, step.kind, step.k, step.escape,
                    step.restriction.left, step.restriction.right,
                ))
        assert len(cases) == 4, cases
        digest = hashlib.sha256(repr(records).encode()).hexdigest()
        assert digest == (
            "dcfc8b08e169637632626b9e58dc704a5e9c80c31c3a5e631d42ec4e175f3600"
        ), digest


class TestDegreeRoute:
    # K_{n,n} with every edge at the named vertices removed: n = 8 gives
    # k = 1, and at n = 210 d*n stays between 200 and 210, so k = 2
    @staticmethod
    def layer(n, cut_left, cut_right):
        left, right = tuple(range(n)), tuple(range(n, 2 * n))
        cut = {*cut_left, *(n + j for j in cut_right)}
        edges = tuple((u, v) for u in left for v in right if u not in cut and v not in cut)
        return BipartiteGraph._trusted(left, right, edges)

    @pytest.mark.parametrize("n,k", [(8, 1), (210, 2)])
    @pytest.mark.parametrize("cut_left,cut_right,side", [
        ((0,), (), "left"),
        ((), (1, 5), "right"),
        ((2, 3, 6), (0, 4), "left"),
        ((7,), (1, 2), "right"),
    ], ids=["left", "right", "both-left-larger", "both-right-larger"])
    def test_deficient_vertices_answer_without_a_factor_search(
        self, monkeypatch, n, k, cut_left, cut_right, side
    ):
        def no_search(b, k):
            raise AssertionError("find_k_factor called on a deficient layer")

        monkeypatch.setattr(dec, "find_k_factor", no_search)
        b = self.layer(n, cut_left, cut_right)
        step = density_increment_step(b, PipelineConfig())
        assert step.k == k and step.kind == "restriction"
        xs, ys = step.violation
        short = tuple(cut_left) if side == "left" else tuple(n + j for j in cut_right)
        # the larger deficient set against the whole other class
        assert (xs, ys) == ((short, b.right) if side == "left" else (b.left, short))
        assert subset_criterion_value(b, k, xs, ys) < 0

    def test_a_layer_with_no_deficient_vertex_still_searches(self, monkeypatch):
        # every degree is at least 1, but left 0 and 1 share their only
        # neighbour, so the search runs and fails
        left, right = tuple(range(8)), tuple(range(8, 16))
        edges = ((0, 8), (1, 8)) + tuple((u, v) for u in left[2:] for v in right)
        b = BipartiteGraph(left, right, edges)
        calls = []

        def counting_find(b, k):
            calls.append(k)
            return find_k_factor(b, k)

        monkeypatch.setattr(dec, "find_k_factor", counting_find)
        step = density_increment_step(b, PipelineConfig())
        assert calls == [1] and step.kind == "restriction"
        xs, ys = step.violation
        assert subset_criterion_value(b, 1, xs, ys) < 0


def _always_stuck(monkeypatch):
    def always_stuck(b, cfg=None):
        raise DensityIncrementStuck("injected")

    monkeypatch.setattr(dec, "large_regular_subgraph", always_stuck)


def test_decompose_theta_survives_increment_stuck(monkeypatch):
    # the stuck escape hatch routes the layer to forests and records it
    _always_stuck(monkeypatch)
    g = Graph(8, random_graph(8, 0.9, seed=2))
    rep = decompose_theta(g)
    assert rep.stuck_layers
    assert not [p for p in rep.parts if isinstance(p, FactorPart)]
    parts = rep.part_colourings()
    assert all(verify(c).interval for c in parts)
    covered = sorted(e for c in parts for e in c.colours)
    assert covered == sorted(g.edges)


# One input per route to the forest pass: a padded dense G(n, p) whose layers
# yield factors, a sparse graph below every layer's threshold, and the
# always-stuck increment on a dense graph.
@pytest.mark.parametrize("route,n,p,seed", [
    ("padded-dense", 60, 0.9, 4),
    ("sparse", 600, 4 / 599, 1),
    ("always-stuck", 8, 0.9, 2),
])
def test_forests_are_one_first_fit_pass_over_the_rest(monkeypatch, route, n, p, seed):
    if route == "always-stuck":
        _always_stuck(monkeypatch)
    g = Graph(n, random_graph(n, p, seed))
    rep = decompose_theta(g)
    is_factor = [isinstance(part, FactorPart) for part in rep.parts]
    assert is_factor == sorted(is_factor, reverse=True)  # factors, then forests
    factors = [part for part, f in zip(rep.parts, is_factor) if f]
    taken = {e for part in factors for e in part.colouring.colours}
    rest = Graph(n, [e for e in g.edges if e not in taken])
    forests = [part.colouring.graph.edges for part, f in zip(rep.parts, is_factor) if not f]
    assert forests == [f.edges for f in forest_partition(rest)]
    per_edge = Counter(e for part in rep.parts for e in part.colouring.colours)
    assert sorted(per_edge) == list(g.edges) and set(per_edge.values()) == {1}
    if route == "always-stuck":
        assert rep.stuck_layers and not factors
        assert forests == [f.edges for f in forest_partition(g)]
    elif route == "padded-dense":
        assert factors
    else:  # below every threshold: no layer reaches the increment
        cfg = PipelineConfig()
        assert all(
            len(layer.edges) / layer.half**2 < (2 * layer.half) ** -cfg.gamma
            for layer in rep.layers
        )
        assert not factors


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
        # one edge in each of 16 layers over 2^16 ids, every layer oriented
        # inside the traced window: the layers' tuples hold 16 * 2^16
        # pointers (8 MiB), and the id ints are made once (2 MiB); fresh ints
        # for every layer took 40 MiB
        full = 1 << 16
        g = Graph(full, tuple((0, 1 << bit) for bit in range(16)))
        tracemalloc.start()
        try:
            layers = bit_split(g)
            graphs = [layer.graph for layer in layers]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [layer.bit for layer in layers] == list(range(16))
        assert all(len(b.left) == len(b.right) == full // 2 for b in graphs)
        assert peak < 16 << 20, peak

    @staticmethod
    def reference_layers(g):
        """The split as first built: each edge oriented from its bit-clear
        end, each layer's pairs sorted, and both bit classes listed over
        every padded id; the bit is found by scanning from bit 0."""
        full = 1 << max(1, math.ceil(math.log2(g.vertex_count)))
        pairs = {}
        for u, v in g.edges:
            bit = next(i for i in itertools.count() if (u >> i & 1) != (v >> i & 1))
            pairs.setdefault(bit, []).append((u, v) if u >> bit & 1 == 0 else (v, u))
        return {
            bit: (
                tuple(v for v in range(full) if v >> bit & 1 == 0),
                tuple(v for v in range(full) if v >> bit & 1 == 1),
                tuple(sorted(es)),
            )
            for bit, es in pairs.items()
        }

    @given(st.integers(2, 130), st.floats(0.0, 0.6), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_split_matches_the_oriented_reference(self, n, p, seed):
        g = Graph(n, random_graph(n, p, seed))
        layers = bit_split(g)
        reference = self.reference_layers(g)
        assert [layer.bit for layer in layers] == sorted(reference)
        edge_set = set(g.edges)
        for layer in layers:
            # a sorted subsequence of the input's canonical edges, all with
            # lowest differing bit layer.bit
            assert list(layer.edges) == sorted(layer.edges)
            assert all(e in edge_set for e in layer.edges)
            assert all(((u ^ v) & -(u ^ v)) == 1 << layer.bit for u, v in layer.edges)
            assert 2 * layer.half == 1 << max(1, math.ceil(math.log2(n)))
            b = layer.graph
            assert (b.left, b.right, b.edges) == reference[layer.bit]
            assert layer.graph is b  # built once
        covered = sorted(e for layer in layers for e in layer.edges)
        assert covered == list(g.edges)

    def test_sparse_input_builds_no_bipartite_graph(self, monkeypatch):
        calls = Counter()
        trusted = BipartiteGraph._trusted.__func__
        post_init = BipartiteGraph.__post_init__

        def counting_trusted(cls, *args):
            calls["_trusted"] += 1
            return trusted(cls, *args)

        def counting_post_init(self):
            calls["__post_init__"] += 1
            post_init(self)

        monkeypatch.setattr(BipartiteGraph, "_trusted", classmethod(counting_trusted))
        monkeypatch.setattr(BipartiteGraph, "__post_init__", counting_post_init)
        n = 2048
        g = Graph(n, random_graph(n, 8 / (n - 1), seed=5))
        report = decompose_theta(g)
        assert sum(calls.values()) == 0, calls
        assert not any(isinstance(part, FactorPart) for part in report.parts)
        parts = report.part_colourings()
        assert all(verify(c).interval for c in parts)
        assert sorted(e for c in parts for e in c.colours) == list(g.edges)
        # the counters are live: one build of each kind counts once each
        BipartiteGraph._trusted((0,), (1,), ())
        BipartiteGraph((0,), (1,), ())
        assert calls == {"_trusted": 1, "__post_init__": 1}

    def test_dense_layers_derive_their_edge_arrays_once(self, monkeypatch):
        # BitLayer.graph makes a dense layer's array view from the padded
        # ids; each restriction, factor and remainder of the increment is
        # handed its part of that view, so none derives one from its labels
        calls = Counter()

        def counting(owner, attr, name):
            fn = vars(owner)[attr].func

            def derive(self):
                calls[name] += 1
                return fn(self)

            prop = cached_property(derive)
            prop.__set_name__(owner, attr)
            monkeypatch.setattr(owner, attr, prop)

        counting(dec.BitLayer, "graph", "layer view")
        counting(BipartiteGraph, "ends", "label view")
        step = dec.density_increment_step

        def counting_step(*args):
            calls["step"] += 1
            return step(*args)

        monkeypatch.setattr(dec, "density_increment_step", counting_step)
        g = Graph(60, random_graph(60, 0.9, seed=4))
        report = decompose_theta(g)
        gamma = PipelineConfig().gamma
        dense = [layer for layer in report.layers
                 if len(layer.edges) / layer.half**2 >= (2 * layer.half) ** -gamma]
        factors = sum(isinstance(part, FactorPart) for part in report.parts)
        assert len(dense) >= 2 and factors > len(dense)
        assert calls["step"] > factors
        assert (calls["layer view"], calls["label view"]) == (len(dense), 0)
        # the counters are live: a pair built without the view derives it
        assert BipartiteGraph((0,), (1,), ((0, 1),)).ends[0].tolist() == [0]
        assert calls["label view"] == 1


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
        # 4-regular circulant on 7+7, left labels above right ones
        left, right = tuple(range(7, 14)), tuple(range(7))
        edges = tuple((7 + u, (u + d) % 7) for u in range(7) for d in range(4))
        c = colour_regular_bipartite(BipartiteGraph(left, right, edges))
        rep = verify(c)
        assert rep.interval and rep.distinct_colours == 4
        # the ambient graph: n = max label + 1, canonical sorted edges
        assert c.graph.vertex_count == 14
        assert c.graph.edges == tuple(sorted((v, u) for u, v in edges))
        with pytest.raises(ValueError, match="not a vertex id"):
            colour_regular_bipartite(BipartiteGraph((-1,), (0,), ((-1, 0),)))


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


def linear_first_fit(g):
    """First-fit forests by scanning the forests in order, one union-find
    parent list each (the scan that forest_partition's bisection replaces)."""
    index = {v: i for i, v in enumerate(sorted({x for e in g.edges for x in e}))}
    forests, parents = [], []
    for e in g.edges:
        a, b = index[e[0]], index[e[1]]
        for bucket, parent in zip(forests, parents):
            x, y = a, b
            while parent[x] != x:
                x = parent[x]
            while parent[y] != y:
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
    return forests


def test_forest_partition_matches_linear_first_fit():
    # the sweep: every n in 2..48 at every p in (0.1, 0.3, 0.6, 0.95), graph
    # seed n * 100 + the index of p; the dense end needs up to n/2 forests,
    # so the bisection takes several steps per edge
    most = 0
    for n in range(2, 49):
        for i, p in enumerate((0.1, 0.3, 0.6, 0.95)):
            g = Graph(n, random_graph(n, p, seed=n * 100 + i))
            parts = forest_partition(g)
            assert [list(f.edges) for f in parts] == linear_first_fit(g), (n, p)
            most = max(most, len(parts))
    assert most >= 20, most


def test_forests_nest():
    # the lemma behind the bisection: every edge of forest j+1 has its ends
    # connected in forest j
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(2, 40)
        g = Graph(n, random_graph(n, rng.choice((0.2, 0.5, 0.9)), seed=rng.randrange(10**6)))
        parts = forest_partition(g)
        for lower, upper in zip(parts, parts[1:]):
            comp = {v: i for i, c in enumerate(lower.components()) for v in c}
            assert all(comp[u] == comp[v] for u, v in upper.edges), (n, g.edges)


def test_forests_at_a_vertex_form_a_prefix():
    # the lemma behind the search's start: replaying the edges in canonical
    # order, the order first fit places them, each edge's forest is at most
    # the smaller number of forests its ends have edges in so far, and each
    # vertex's forests are 0..c-1
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(2, 40)
        g = Graph(n, random_graph(n, rng.choice((0.1, 0.3, 0.6, 0.95)), seed=rng.randrange(10**6)))
        forest_of = {e: i for i, f in enumerate(forest_partition(g)) for e in f.edges}
        at = [set() for _ in range(n)]
        for u, v in g.edges:
            f = forest_of[u, v]
            assert f <= min(len(at[u]), len(at[v])), (n, g.edges, (u, v))
            at[u].add(f)
            at[v].add(f)
        assert all(s == set(range(len(s))) for s in at), (n, g.edges)


def cliques_and_bridges(t, j):
    """K_t on the even ids and on the odd ids of 0..2t-1, the bridges
    (2i, 2i+1) for i < j, and last in canonical order (2t-2, 2t-1): that
    edge's ends each have edges in t-1 forests, and it lands in forest j."""
    sides = (range(0, 2 * t, 2), range(1, 2 * t, 2))
    edges = [(u, v) for side in sides for u, v in itertools.combinations(side, 2)]
    edges += [(2 * i, 2 * i + 1) for i in range(j)] + [(2 * t - 2, 2 * t - 1)]
    return Graph(2 * t, edges)


def test_forest_search_runs_deep_below_its_bound():
    # the random sweeps land nearly every edge at or one below its bound;
    # here the last edge lands t-1-j forests below it, for every depth
    t = 12
    for j in range(t - 1):
        g = cliques_and_bridges(t, j)
        parts = forest_partition(g)
        assert [list(f.edges) for f in parts] == linear_first_fit(g), j
        last = g.edges[-1]
        assert last == (2 * t - 2, 2 * t - 1) and last in parts[j].edges
        for x in last:
            assert sum(any(x in e for e in f.edges if e != last) for f in parts) == t - 1


def forest_probes(g):
    """The forests forest_partition probes on g: line events on the line
    that reads ``parents[mid]``, found by its source text."""
    lines, first = inspect.getsourcelines(forest_partition)
    (target,) = [first + i for i, line in enumerate(lines) if "= parents[mid]" in line]
    code = forest_partition.__code__
    probes = 0

    def local(frame, event, arg):
        nonlocal probes
        probes += event == "line" and frame.f_lineno == target
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        forest_partition(g)
    finally:
        sys.settrace(None)
    return probes


def test_forest_search_probes_are_logarithmic():
    # the last edge of cliques_and_bridges(t, j) starts at top = t-1 and
    # lands at f = j. With d = top - f, the gallop finds the ends apart in
    # bit_length(d) forests and together in one more, and bisecting the
    # bracket left takes at most bit_length(d) - 1: 2 bit_length(d + 1) in
    # all. A search that scans the bracket upward one forest at a time
    # breaks the bound at j = 6.
    t = 12
    for j in range(t - 1):
        g = cliques_and_bridges(t, j)
        last = forest_probes(g) - forest_probes(Graph(g.vertex_count, g.edges[:-1]))
        assert 0 < last <= 2 * (t - 1 - j + 1).bit_length(), (j, last)


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

    def test_cover_check_sees_a_repeated_or_missing_edge(self):
        g = Graph(30, random_graph(30, 0.2, seed=0))
        rep = decompose_theta(g)
        assert rep.covers_each_edge_once()
        rep.parts.append(rep.parts[0])
        assert not rep.covers_each_edge_once()
        del rep.parts[-2:]  # the last forest's edges now lie in no part
        assert not rep.covers_each_edge_once()
        with pytest.raises(ValueError, match="domain mismatch"):
            rep.partition  # built and validated when first read
        # the sizes sum to m, but (0, 1) is in both parts and (2, 3) in none
        path = Graph(4, ((0, 1), (1, 2), (2, 3)))
        parts = [ForestPart(colour_forest(Graph(4, es))) for es in (((0, 1), (1, 2)), ((0, 1),))]
        assert not DecompositionReport(path, parts, []).covers_each_edge_once()

    def test_cover_check_rejects_a_foreign_edge_that_aliases_a_key(self):
        # (0, 6) is no edge of a 4-vertex graph, but 0 * 4 + 6 is the key of (1, 2)
        path = Graph(4, ((0, 1), (1, 2), (2, 3)))
        part = ForestPart(colour_forest(Graph(7, ((0, 1), (0, 6), (2, 3)))))
        assert not DecompositionReport(path, [part], []).covers_each_edge_once()

    def test_cover_check_is_exact_past_int64_keys(self):
        # 2^33 ids: u * n + v would pass 2^63 at the top ids
        n = 1 << 33
        top = range(n - 6, n)
        g = Graph(n, [*itertools.combinations(top, 2), (0, n - 1), (1, n - 2)])
        rep = decompose_theta(g)
        assert rep.covers_each_edge_once()
        # the sizes still sum to m, but one edge is in two parts and one in none
        first = next(iter(rep.parts[0].colouring.colours))
        rest = [e for p in rep.parts for e in p.colouring.colours if e != first]
        twice = [ForestPart(colour_forest(Graph(n, (e,)))) for e in (rest[0], *rest)]
        assert sum(len(p.colouring.colours) for p in twice) == g.edge_count
        assert not DecompositionReport(g, twice, []).covers_each_edge_once()

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
