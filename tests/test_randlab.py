"""Layered generator, dense-part finder, witness checking, and the probe."""

import dataclasses
import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ilab import (
    DensePartHypothesis,
    LayeredBipartite,
    LowerBoundParams,
    SpreadWitness,
    adversarial_probe,
    check_biregular,
    check_pseudorandom,
    find_dense_monochromatic,
    generate,
    validate_spread_witness,
)
from ilab.formats import parse_layered_json, serialize_layered_json
from ilab.graphs import BipartiteGraph
from ilab.randlab import probe_budget


# a layered instance engineered so the stage-2 witness scan must trigger:
# x0 (vertex 0) meets 8 middle vertices, each of which fans out to 10
# dedicated far vertices; the single A_2 pivot hits x0 and all 80 far
# vertices, overshooting the stage-1 budget of 8 * p_1 * n = 64.8 hits.
def planted_instance():
    n = 81
    ys = tuple(range(81, 89))
    pivot = 89
    layer1 = []
    for j, y in enumerate(ys):
        layer1.append((0, y))
        for f in range(1 + 10 * j, 11 + 10 * j):
            layer1.append((f, y))
    layer2 = [(0, pivot)] + [(f, pivot) for f in range(1, 81)]
    ground = tuple(range(n))
    lb = LayeredBipartite(
        LowerBoundParams(r=2, n=n, delta=0.5, epsilon=0.05, seed=0),
        (ys, (pivot,)),
        (
            BipartiteGraph(ground, ys, tuple(layer1)),
            BipartiteGraph(ground, (pivot,), tuple(layer2)),
        ),
    )
    parts = {e: 0 for e in layer1}
    parts.update({e: 0 for e in layer2})
    return lb, parts


# stage 1 takes the only part, and layer 2 has no edge left to search
def empty_layer_instance():
    ground = tuple(range(10))
    layer1 = BipartiteGraph(ground, (10,), tuple((b, 10) for b in range(6)))
    layer2 = BipartiteGraph(ground, (11,), ())
    lb = LayeredBipartite(
        LowerBoundParams(r=2, n=10, delta=0.5, epsilon=0.05, seed=0),
        ((10,), (11,)),
        (layer1, layer2),
    )
    return lb, {e: 0 for e in layer1.edges}


def old_exhaustive_ratio(b, alpha, p):
    """The exhaustive branch as it read before the prefix lemma: one
    indicator row per qualifying V mask, counted in blocks of 256 U masks."""
    nc, nd = len(b.left), len(b.right)
    min_u = max(1, math.ceil(alpha * nc))
    min_v = max(1, math.ceil(alpha * nd))
    lpos = {u: i for i, u in enumerate(b.left)}
    rpos = {v: i for i, v in enumerate(b.right)}
    m = np.zeros((nc, nd), dtype=np.float64)
    for u, v in b.edges:
        m[lpos[u], rpos[v]] = 1.0
    u_masks = [x for x in range(1, 1 << nc) if x.bit_count() >= min_u]
    v_masks = [y for y in range(1, 1 << nd) if y.bit_count() >= min_v]
    mu = np.array([[(x >> i) & 1 for i in range(nc)] for x in u_masks], float)
    mv = np.array([[(y >> j) & 1 for j in range(nd)] for y in v_masks], float)
    hits = m @ mv.T
    v_sizes = mv.sum(axis=1)
    worst = 0.0
    for s in range(0, len(mu), 256):
        block = mu[s : s + 256]
        sizes = np.outer(block.sum(axis=1), v_sizes)
        ratios = np.abs(block @ hits - p * sizes) / sizes**0.85
        worst = max(worst, float(ratios.max()))
    return worst


FROZEN_LAYERS = [
    (1000, 1, 1, False), (1000, 2, 2, False), (100, 3, 1, False),
    (1000, 1, 1, True), (1000, 2, 2, True), (100, 3, 1, True),
]


def frozen_layer(n, seed, k, restricted):
    """Layer k of the benchmark's gen-lower instance and the (alpha, p) it is
    checked at: the probe's alpha, or 0.05 on the restriction to every third
    ground vertex and all but the first A vertex."""
    p = LowerBoundParams(r=3, n=n, delta=0.2, epsilon=0.005, seed=seed)
    lb = generate(p)
    layer = lb.layer_graphs[k - 1]
    if restricted:
        return layer.restrict(range(0, n, 3), lb.a_layers[k - 1][1:]), 0.05, p.p(k)
    return layer, DensePartHypothesis(p.p(k), 3).alpha, p.p(k)


def pair_ratio(b, alpha, p, us, vs):
    """|e(U, V) - p|U||V|| / (|U||V|)^0.85 for a qualifying pair of distinct
    labels of b's sides, counted over the labelled edges, independently of
    ``b.ends``."""
    uset, vset = set(us), set(vs)
    assert len(uset) == len(us) and uset <= set(b.left)
    assert len(vset) == len(vs) and vset <= set(b.right)
    assert len(us) >= max(1, math.ceil(alpha * len(b.left)))
    assert len(vs) >= max(1, math.ceil(alpha * len(b.right)))
    e = sum(1 for u, v in b.edges if u in uset and v in vset)
    size = len(us) * len(vs)
    return abs(e - p * size) / size**0.85


def shuffled_pair(rng, nc, nd, fill):
    """A random nc x nd pair whose labels are neither ascending nor split
    into a low and a high side."""
    labels = rng.sample(range(3 * (nc + nd)), nc + nd)
    left, right = tuple(labels[:nc]), tuple(labels[nc:])
    edges = tuple((u, v) for u in left for v in right if rng.random() < fill)
    return BipartiteGraph(left, right, edges)


class TestParams:
    def test_preset_formulas(self):
        p = LowerBoundParams.preset(3, 500, seed=2)
        assert p.delta == pytest.approx(1 / 3000)
        assert p.epsilon == pytest.approx(p.delta**5)
        assert p.seed == 2

    def test_layer_probability_ladder(self):
        p = LowerBoundParams(r=2, n=100, delta=0.1, epsilon=1e-4)
        assert p.p(1) == pytest.approx(1e-3)
        assert p.p(2) == pytest.approx(1e-2)

    def test_rejects_probability_above_one(self):
        with pytest.raises(ValueError):
            LowerBoundParams(r=2, n=100, delta=0.1, epsilon=0.5)

    def test_rejects_negative_seed(self):
        # numpy's stream [seed, i] refuses it too, without naming the field
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            LowerBoundParams(r=2, n=100, delta=0.1, epsilon=1e-4, seed=-1)

    def test_layer_sizes_never_empty(self):
        p = LowerBoundParams.preset(2, 1000)
        assert p.layer_size(1) >= 1 and p.layer_size(2) >= 1


class TestGenerate:
    def test_same_seed_same_instance(self):
        p = LowerBoundParams(r=2, n=400, delta=0.1, epsilon=1e-4, seed=7)
        assert generate(p) == generate(p)

    def test_different_seed_differs(self):
        a = generate(LowerBoundParams(r=2, n=400, delta=0.1, epsilon=1e-4, seed=1))
        b = generate(LowerBoundParams(r=2, n=400, delta=0.1, epsilon=1e-4, seed=2))
        assert a != b

    def test_layer_edge_counts_track_binomial_means(self):
        for seed in range(5):
            p = LowerBoundParams(r=2, n=2000, delta=0.1, epsilon=1e-4, seed=seed)
            lb = generate(p)
            for i in range(1, 3):
                mean, sd = p.layer_stats(i)
                got = lb.layer_graphs[i - 1].edge_count
                assert abs(got - mean) <= 5 * sd, (seed, i, got, mean, sd)

    def test_edges_live_inside_declared_layers(self):
        p = LowerBoundParams(r=3, n=150, delta=0.2, epsilon=0.005, seed=3)
        lb = generate(p)
        for i, lg in enumerate(lb.layer_graphs, start=1):
            for b, a in lg.edges:
                assert b < p.n
                assert a in lb.a_layers[i - 1]

    def test_ambient_degree_counts_every_layer(self):
        lb = generate(LowerBoundParams(r=3, n=150, delta=0.2, epsilon=0.005, seed=3))
        edges = lb.all_edges()
        top = max(max(layer) for layer in lb.a_layers)
        for v in range(top + 1):
            assert lb.ambient_degree(v) == sum(v in e for e in edges), v
        untouched = next(v for v in range(top + 1) if not any(v in e for e in edges))
        assert lb.ambient_degree(untouched) == 0
        assert lb.ambient_degree(top + 1) == 0

    def test_round_trip_through_json(self):
        lb = generate(LowerBoundParams(r=3, n=120, delta=0.2, epsilon=0.005, seed=9))
        assert parse_layered_json(serialize_layered_json(lb)) == lb

    @pytest.mark.parametrize("r,n,delta,epsilon,seed", [
        (1, 50, 0.3, 0.05, 1),
        (2, 200, 0.1, 1e-3, 2),
        (3, 150, 0.2, 0.005, 3),
        (3, 100, 0.2, 0.005, 1),  # the benchmark's gen-lower parameters
        (3, 100, 0.2, 1e-4, 0),  # layer 2 has no edges
        (2, 30, 0.2, 1e-9, 5),  # no layer has an edge
    ])
    def test_layered_bytes_match_indented_json(self, r, n, delta, epsilon, seed):
        lb = generate(LowerBoundParams(r, n, delta, epsilon, seed))
        if epsilon < 1e-3:
            assert not all(lg.edges for lg in lb.layer_graphs)
        p = lb.params
        tagged = [[b, a, i] for i, lg in enumerate(lb.layer_graphs, start=1) for b, a in lg.edges]
        doc = {
            "kind": "layered-bipartite",
            "r": p.r,
            "n": p.n,
            "delta": p.delta,
            "epsilon": p.epsilon,
            "seed": p.seed,
            "a_layers": [list(layer) for layer in lb.a_layers],
            "edges": sorted(tagged, key=lambda e: (e[2], e[0], e[1])),
        }
        text = serialize_layered_json(lb)
        assert text == json.dumps(doc, sort_keys=True, indent=1) + "\n"
        assert parse_layered_json(text) == lb

    def test_parse_builds_no_validating_bipartite_graph(self, monkeypatch):
        text = serialize_layered_json(
            generate(LowerBoundParams(r=3, n=150, delta=0.2, epsilon=0.005, seed=3))
        )
        calls = []
        post_init = BipartiteGraph.__post_init__

        def counting_post_init(self):
            calls.append(self)
            post_init(self)

        monkeypatch.setattr(BipartiteGraph, "__post_init__", counting_post_init)
        lb = parse_layered_json(text)
        assert calls == [] and sum(lg.edge_count for lg in lb.layer_graphs) > 0
        BipartiteGraph((0,), (1,), ())  # the counter is live
        assert len(calls) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        r=st.integers(1, 3),
        n=st.integers(1, 60),
        delta=st.sampled_from([0.2, 0.3, 0.5]),
        fill=st.floats(0.05, 0.9),
        seed=st.integers(0, 2**32),
        order=st.randoms(use_true_random=False),
    )
    def test_parse_takes_edge_rows_in_any_order(self, r, n, delta, fill, seed, order):
        # the reader sorts each layer itself, so rows of every layer may mix
        lb = generate(LowerBoundParams(r, n, delta, fill * delta**r, seed))
        doc = json.loads(serialize_layered_json(lb))
        order.shuffle(doc["edges"])
        parsed = parse_layered_json(json.dumps(doc))
        assert parsed.params == lb.params and parsed.a_layers == lb.a_layers
        assert [(lg.left, lg.right, lg.edges) for lg in parsed.layer_graphs] == [
            (lg.left, lg.right, tuple(sorted(lg.edges))) for lg in lb.layer_graphs
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.integers(1, 3),
        n=st.integers(1, 60),
        delta=st.sampled_from([0.2, 0.3, 0.5]),
        fill=st.floats(0.05, 0.9),
        seed=st.integers(0, 2**32),
        order=st.randoms(use_true_random=False),
    )
    def test_layers_are_handed_the_view_their_labels_give(self, r, n, delta, fill, seed, order):
        lb = generate(LowerBoundParams(r, n, delta, fill * delta**r, seed))
        doc = json.loads(serialize_layered_json(lb))
        order.shuffle(doc["edges"])
        derive = vars(BipartiteGraph)["ends"].func
        for layers in (lb.layer_graphs, parse_layered_json(json.dumps(doc)).layer_graphs):
            for lg in layers:
                lp, rp = lg.__dict__["ends"]  # handed over, not derived
                want_lp, want_rp = derive(lg)
                assert lp.dtype == rp.dtype == np.intp
                assert (lp.tolist(), rp.tolist()) == (want_lp.tolist(), want_rp.tolist())

    def test_parse_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            parse_layered_json('{"kind": "something-else"}')


class TestHypothesisChecks:
    def test_complete_bipartite_is_biregular_at_p_one(self):
        b = BipartiteGraph((0, 1), (2, 3), ((0, 2), (0, 3), (1, 2), (1, 3)))
        ok, offender = check_biregular(b, 1.0)
        assert ok and offender is None

    def test_star_offender_is_reported(self):
        b = BipartiteGraph((0, 1), (2, 3), ((0, 2), (0, 3)))
        ok, offender = check_biregular(b, 1.0)
        assert not ok and offender == 1

    def test_biregular_reports_a_right_side_offender(self):
        # both left degrees are 2 = 0.5 * 4; on the right, 6 (degree 2) comes
        # before 2 (degree 0)
        b = BipartiteGraph((3, 0), (9, 6, 7, 2), ((3, 9), (3, 6), (0, 6), (0, 7)))
        assert check_biregular(b, 0.5) == (False, 6)

    def test_biregular_scans_sides_in_label_order_not_by_value(self):
        # non-ascending, interleaved labels: 8 is the first offender, not 1
        left, right = (8, 1, 5), (0, 9, 3, 6)
        edges = ((8, 0), (8, 9), (8, 3), (1, 9), (5, 9), (5, 3))
        assert check_biregular(BipartiteGraph(left, right, edges), 0.5) == (False, 8)
        full = BipartiteGraph(left, right, tuple((u, v) for u in left for v in right))
        assert check_biregular(full, 1.0) == (True, None)
        assert check_biregular(full.restrict((5, 8), (6, 0, 9)), 1.0) == (True, None)

    def test_biregular_keeps_the_float_order_of_its_bounds(self):
        # 0.9 * 0.4 * 25 is 9.000000000000002, so degree 9 falls below it,
        # while 0.9 * (0.4 * 25) is 9.0 exactly
        assert 0.9 * 0.4 * 25 > 9 and 0.9 * (0.4 * 25) == 9
        right = tuple(range(100, 125))
        edges = tuple((30, v) for v in right[:10]) + tuple((0, v) for v in right[10:19])
        assert check_biregular(BipartiteGraph((30, 0), right, edges), 0.4) == (False, 0)

    def test_pseudorandom_exhaustive_on_complete_block(self):
        left = tuple(range(6))
        right = tuple(range(6, 12))
        b = BipartiteGraph(left, right, tuple((u, v) for u in left for v in right))
        rep = check_pseudorandom(b, alpha=0.5, p=1.0)
        assert rep.verdict == "holds" and rep.witness is None
        # e(U, V) = |U||V| exactly, so the deviation is zero for every pair
        assert rep.worst_ratio == pytest.approx(0.0)

    def test_pseudorandom_exhaustive_matches_pair_oracle(self):
        # every qualifying (U, V) pair, counted edge by edge
        rng = random.Random(5)
        for _ in range(12):
            nc, nd = rng.randint(1, 6), rng.randint(1, 6)
            p, alpha = rng.choice((0.3, 0.5, 0.8)), rng.choice((0.0, 0.2, 0.5))
            left, right = tuple(range(nc)), tuple(range(nc, nc + nd))
            edges = tuple((u, v) for u in left for v in right if rng.random() < p)
            rep = check_pseudorandom(BipartiteGraph(left, right, edges), alpha, p)
            worst = 0.0
            for su in range(max(1, math.ceil(alpha * nc)), nc + 1):
                for sv in range(max(1, math.ceil(alpha * nd)), nd + 1):
                    for us in itertools.combinations(left, su):
                        for vs in itertools.combinations(right, sv):
                            e = sum(u in us and v in vs for u, v in edges)
                            worst = max(worst, abs(e - p * su * sv) / (su * sv) ** 0.85)
            assert rep.worst_ratio == pytest.approx(worst, rel=1e-12)
            assert rep.verdict == ("holds" if rep.worst_ratio <= 1.0 else "refuted")

    def test_pseudorandom_exhaustive_memory_is_bounded(self):
        # alpha = 0 qualifies all 4095 x 4095 mask pairs of a 12 x 12 layer;
        # one array over all of them would take 128 MB
        rng = random.Random(3)
        left, right = tuple(range(12)), tuple(range(12, 24))
        edges = tuple((u, v) for u in left for v in right if rng.random() < 0.5)
        b = BipartiteGraph(left, right, edges)
        tracemalloc.start()
        try:
            rep = check_pseudorandom(b, alpha=0.0, p=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.verdict != "not refuted" and peak < 64 * 2**20

    def test_pseudorandom_exhaustive_equals_the_mask_enumeration(self):
        # the prefix lemma gives bit for bit the maximum over every V mask
        rng = random.Random(8)
        cases = [(12, 12, alpha, p) for alpha in (0.0, 0.5) for p in (0.05, 0.5, 1.0)]
        cases += [(rng.randint(1, 12), rng.randint(1, 12), alpha, p)
                  for alpha in (0.0, 0.05, 0.2, 0.5) for p in (0.05, 0.5, 1.0)
                  for _ in range(4)]
        for nc, nd, alpha, p in cases:
            b = shuffled_pair(rng, nc, nd, rng.choice((0.1, 0.5, 0.9)))
            rep = check_pseudorandom(b, alpha, p)
            worst = old_exhaustive_ratio(b, alpha, p)
            verdict = "holds" if worst <= 1.0 else "refuted"
            assert (rep.worst_ratio.hex(), rep.verdict) == (worst.hex(), verdict)

    def test_pseudorandom_exhaustive_needs_no_v_masks(self):
        # the mask enumeration peaks at 33.5 MiB on this pair; the lemma's
        # arrays hold one row of |D| values per U
        rng = random.Random(3)
        left, right = tuple(range(12)), tuple(range(12, 24))
        edges = tuple((u, v) for u in left for v in right if rng.random() < 0.5)
        b = BipartiteGraph(left, right, edges)
        tracemalloc.start()
        try:
            rep = check_pseudorandom(b, alpha=0.0, p=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.verdict != "not refuted" and peak < 8 * 2**20

    @pytest.mark.parametrize("small,kwargs,name", [
        (True, {"alpha": 1.5}, "alpha"),
        (False, {"alpha": 1.5}, "alpha"),
        (True, {"alpha": -0.1}, "alpha"),
        (False, {"alpha": math.nan}, "alpha"),
        (True, {"p": math.nan}, "p"),
        (False, {"p": 1.5}, "p"),
    ], ids=["alpha-1.5-exhaustive", "alpha-1.5-sampled", "alpha-negative", "alpha-nan",
            "p-nan", "p-above-one"])
    def test_pseudorandom_rejects_bad_arguments(self, small, kwargs, name):
        if small:
            b = BipartiteGraph((0, 1, 2), (3, 4), ((0, 3), (1, 4), (2, 3)))
        else:  # 50 ground vertices against 10
            b = generate(LowerBoundParams(r=2, n=50, delta=0.2, epsilon=0.005)).layer_graphs[0]
        with pytest.raises(ValueError, match=f"^{name} "):
            check_pseudorandom(b, **{"alpha": 0.05, "p": 0.5, **kwargs})

    @pytest.mark.parametrize("n,seed,k,restricted,ratio,verdict,witness", [
        # layers of the benchmark's gen-lower instances, checked as the probe
        # does; witness = (|U|, |V|, the label of the star's centre)
        (1000, 1, 1, False, "0x1.b5408e49030ddp+0", "refuted", (42, 1, 1188)),
        (1000, 2, 2, False, "0x1.d7928c0237bf9p+0", "refuted", (143, 1, 1206)),
        (100, 3, 1, False, "0x1.46902f21eb9b3p+0", "refuted", (6, 1, 110)),
        # every third ground vertex and all but the first A vertex, so labels
        # are not positions; at alpha = 0.05 no star of the larger pairs qualifies
        (1000, 1, 1, True, "0x1.a4ddb2e457cd7p-9", "not refuted", None),
        (1000, 2, 2, True, "0x1.3898461de1aaep-10", "not refuted", None),
        (100, 3, 1, True, "0x1.14f2d3884ac6cp+0", "refuted", (2, 1, 104)),
    ])
    def test_pseudorandom_sampled_values_are_frozen(
        self, n, seed, k, restricted, ratio, verdict, witness
    ):
        layer, alpha, p_k = frozen_layer(n, seed, k, restricted)
        rep = check_pseudorandom(layer, alpha, p_k)
        assert min(len(layer.left), len(layer.right)) > 12
        assert (rep.worst_ratio.hex(), rep.verdict) == (ratio, verdict)
        if witness is not None:
            us, vs = rep.witness
            assert (len(us), len(vs), vs[0]) == witness
            assert us == tuple(sorted(u for u, v in layer.edges if v == vs[0]))
        else:
            assert rep.witness is None

    def test_pseudorandom_refutations_recount(self, monkeypatch):
        # every "refuted" witness, re-counted edge by edge: on the frozen
        # layers, on layer 2 of the n = 1000 seed-1 instance, and on every
        # restriction the probe checks on the same instances
        checked = []
        for n, seed, k, restricted in FROZEN_LAYERS + [(1000, 1, 2, False)]:
            layer, alpha, p_k = frozen_layer(n, seed, k, restricted)
            checked.append((layer, alpha, p_k, check_pseudorandom(layer, alpha, p_k)))
        assert [c[3].verdict for c in checked].count("refuted") == 5
        assert checked[0][3].verdict == checked[-1][3].verdict == "refuted"  # n = 1000, seed 1

        def recording(b, alpha, p):
            rep = check_pseudorandom(b, alpha, p)
            checked.append((b, alpha, p, rep))
            return rep

        monkeypatch.setattr("ilab.randlab.check_pseudorandom", recording)
        before = len(checked)
        for n, seed in ((1000, 1), (1000, 2), (100, 3)):
            lb = generate(LowerBoundParams(r=3, n=n, delta=0.2, epsilon=0.005, seed=seed))
            rng = random.Random(seed)
            adversarial_probe(lb, {e: rng.randrange(4) for e in lb.all_edges()})
        assert len(checked) - before == 8  # the last instance exhausts at stage 3
        refuted = 0
        for b, alpha, p, rep in checked:
            if rep.verdict != "refuted":
                assert rep.witness is None and rep.worst_ratio <= 1.0
                continue
            refuted += 1
            assert pair_ratio(b, alpha, p, *rep.witness) == pytest.approx(rep.worst_ratio)
            assert rep.worst_ratio > 1.0
        assert refuted == 10

    def test_pseudorandom_holds_only_on_small_pairs(self):
        # only the exhaustive branch proves the inequality; past 12 vertices
        # on a side the family can refute it but never make it hold
        rng = random.Random(4)
        verdicts = {True: set(), False: set()}
        for nc, nd in itertools.product((0, 1, 5, 12, 13, 40), repeat=2):
            for fill, p, alpha in ((1.0, 1.0, 0.5), (0.0, 0.0, 0.0), (0.5, 0.5, 0.2),
                                   (0.3, 0.3, 0.05), (0.1, 0.9, 1.0)):
                b = shuffled_pair(rng, nc, nd, fill)
                rep = check_pseudorandom(b, alpha, p)
                small = nc <= 12 and nd <= 12
                verdicts[small].add(rep.verdict)
                assert (rep.verdict == "refuted") == (rep.worst_ratio > 1.0)
                if rep.verdict == "refuted":
                    assert pair_ratio(b, alpha, p, *rep.witness) == pytest.approx(rep.worst_ratio)
        assert verdicts == {True: {"holds", "refuted"}, False: {"not refuted", "refuted"}}

    def test_pseudorandom_sampled_flags_a_wrong_p(self):
        # the whole sides refute p = 0.5 on a layer drawn at p = 0.025
        p = LowerBoundParams(r=3, n=100, delta=0.2, epsilon=0.005, seed=3)
        layer = generate(p).layer_graphs[0]
        rep = check_pseudorandom(layer, alpha=0.1, p=0.5)
        assert (rep.worst_ratio.hex(), rep.verdict) == ("0x1.7d112b4e86976p+0", "refuted")
        assert rep.witness == (layer.left, layer.right)


class TestFindDense:
    def test_planted_pivot_and_diameter(self):
        lb, parts = planted_instance()
        rep = find_dense_monochromatic(lb.layer_graphs[0], parts)
        assert rep.part == 0
        assert rep.x0 == 0
        # far is the full two-step ball and so contains x0 itself
        assert len(rep.middle) == 8 and len(rep.far) == 81
        assert rep.diameter <= 4
        assert rep.ground_hits == 81

    def test_part_tie_breaks_low(self):
        b = BipartiteGraph((0,), (1, 2), ((0, 1), (0, 2)))
        rep = find_dense_monochromatic(b, {(0, 1): 1, (0, 2): 0})
        assert rep.part == 0


class TestWitness:
    def test_certification_arithmetic(self):
        w = SpreadWitness(
            part=0, h_vertices=tuple(range(89)), pivot=89,
            edge_count=81, diameter=4, delta_cap=11,
        )
        assert w.forced_spread == 60
        assert w.certified

    def test_below_threshold_not_certified(self):
        w = SpreadWitness(
            part=0, h_vertices=(0, 1), pivot=5,
            edge_count=12, diameter=4, delta_cap=3,
        )
        # forced 12-1-4=7, cap (4+1)*2=10
        assert not w.certified

    def test_probe_emits_validated_witness(self):
        lb, parts = planted_instance()
        trace = adversarial_probe(lb, parts)
        assert trace.refuted
        assert len(trace.witnesses) == 1
        w = trace.witnesses[0]
        assert (w.edge_count, w.diameter, w.delta_cap) == (81, 4, 11)
        ok, why = validate_spread_witness(lb, parts, w)
        assert ok, why

    def test_tampered_witnesses_are_rejected(self):
        lb, parts = planted_instance()
        w = adversarial_probe(lb, parts).witnesses[0]
        fiddled = dataclasses.replace(w, edge_count=80)
        ok, why = validate_spread_witness(lb, parts, fiddled)
        assert not ok and "edge" in why
        understated = dataclasses.replace(w, delta_cap=10)
        ok, why = validate_spread_witness(lb, parts, understated)
        assert not ok
        inside = dataclasses.replace(w, pivot=w.h_vertices[0])
        ok, why = validate_spread_witness(lb, parts, inside)
        assert not ok
        # a piece with an id outside the graph, and one that drops x0 and
        # so falls apart into eight stars
        for h in (w.h_vertices + (w.pivot + 1,), w.h_vertices[1:]):
            ok, why = validate_spread_witness(lb, parts, dataclasses.replace(w, h_vertices=h))
            assert (ok, why) == (False, "part edges do not connect the piece")


class TestProbe:
    def test_budget_formula(self):
        p = LowerBoundParams(r=2, n=81, delta=0.5, epsilon=0.05)
        assert probe_budget(p, 1) == pytest.approx(8 * 0.1 * 81)
        assert probe_budget(p, 1, scale=0.5) == pytest.approx(4 * 0.1 * 81)

    def test_layer_partition_walks_all_stages(self):
        p = LowerBoundParams(r=3, n=300, delta=0.2, epsilon=0.005, seed=11)
        lb = generate(p)
        parts = {}
        for i, lg in enumerate(lb.layer_graphs, start=1):
            for e in lg.edges:
                parts[e] = i - 1
        trace = adversarial_probe(lb, parts)
        assert [s.part for s in trace.stages] == [0, 1, 2]
        assert not trace.refuted and not trace.contradiction
        grounds = [s.ground_before for s in trace.stages] + [trace.stages[-1].ground_after]
        assert all(a >= b for a, b in zip(grounds, grounds[1:]))

    def test_single_part_forces_repeat_contradiction(self):
        p = LowerBoundParams(r=3, n=300, delta=0.2, epsilon=0.005, seed=11)
        lb = generate(p)
        parts = {e: 0 for lg in lb.layer_graphs for e in lg.edges}
        trace = adversarial_probe(lb, parts)
        assert trace.contradiction and trace.refuted
        last = trace.stages[-1]
        assert last.forced_repeat and last.deletion_proportion == 1.0

    def test_empty_layer_exhausts_without_refuting(self):
        trace = adversarial_probe(*empty_layer_instance())
        assert trace.stages[-1].part is None
        assert not trace.refuted and not trace.contradiction

    @pytest.mark.parametrize("case", ["witness", "repeat", "exhausted", "survived"])
    def test_outcome_is_the_one_verdict(self, case):
        if case == "witness":
            lb, parts = planted_instance()
        elif case == "exhausted":
            lb, parts = empty_layer_instance()
        else:  # one part in all layers repeats; one part per layer survives
            lb = generate(LowerBoundParams(r=3, n=300, delta=0.2, epsilon=0.005, seed=11))
            per_layer = case == "survived"
            parts = {e: i * per_layer for i, lg in enumerate(lb.layer_graphs) for e in lg.edges}
        trace = adversarial_probe(lb, parts)
        assert trace.outcome == case
        assert trace.refuted == (case in ("witness", "repeat"))
        assert trace.contradiction == (case == "repeat")

    def test_probe_is_deterministic(self):
        p = LowerBoundParams(r=3, n=300, delta=0.2, epsilon=0.005, seed=11)
        lb = generate(p)
        parts = {e: (a + b) % 2 for lg in lb.layer_graphs for (b, a) in map(tuple, lg.edges) for e in [(b, a)]}
        t1 = adversarial_probe(lb, parts)
        t2 = adversarial_probe(lb, parts)
        assert [s.part for s in t1.stages] == [s.part for s in t2.stages]
        assert [s.ground_after for s in t1.stages] == [s.ground_after for s in t2.stages]
        assert t1.refuted == t2.refuted
