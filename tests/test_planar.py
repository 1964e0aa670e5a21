"""Extremal family, unique-colour splitting, sparsity, and the colour bound.

``exhaustive_sparsity`` is the 2^n subset loop that ``hereditary_sparsity``
ran before its min-cut rewrite, kept as an oracle that shares no code with
the check.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from ilab import (
    FamilySpec,
    extremal_family,
    hereditary_sparsity,
    max_colours,
    planar,
    unique_colour_split,
    verify,
    verify_colour_bound,
)
from ilab.colouring import EdgeColouring, count_colours
from ilab.graphs import Graph, induced_subgraph
from ilab.planar import SPARSITY_CORE_EDGE_LIMIT, certified_colour_cap

TRIANGLE = Graph(3, ((0, 1), (0, 2), (1, 2)))
K5 = Graph(5, tuple(itertools.combinations(range(5), 2)))
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))


def circulant(n, steps):
    edges = {tuple(sorted((i, (i + d) % n))) for i in range(n) for d in steps}
    return Graph(n, tuple(edges))


# 4-regular, so its 4-core is all of it: 2n = SPARSITY_CORE_EDGE_LIMIT + 2 edges
ABOVE_CORE_LIMIT = circulant(SPARSITY_CORE_EDGE_LIMIT // 2 + 1, (1, 2))


def exhaustive_sparsity(g, k):
    """Whether every S with |S| >= 3 has e(S) <= k(|S| - 2), over all 2^n
    subsets in bitmask order."""
    n = g.vertex_count
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
            return False
    return True


def assert_agrees_with_oracle(g, k):
    ok, witness = hereditary_sparsity(g, k)
    assert ok == exhaustive_sparsity(g, k), (g, k)
    if ok:
        assert witness is None
    else:
        inside = set(witness)
        assert list(witness) == sorted(inside)
        e = sum(1 for u, v in g.edges if u in inside and v in inside)
        assert len(inside) >= 3 and e > k * (len(inside) - 2), (g, k, witness)
    return ok


def curved_subsets(s):
    pool = range(1, s - 1)
    for r in range(s - 1):
        yield from itertools.combinations(pool, r)


@st.composite
def family_specs(draw):
    s = draw(st.integers(2, 6))
    removable = list(range(1, s - 1))
    removed = draw(st.sets(st.sampled_from(removable))) if removable else set()
    return FamilySpec(s, frozenset(removed), odd=draw(st.booleans()))


class TestFamily:
    def test_interval_with_exact_count_for_all_s_up_to_12(self):
        for s in range(2, 13):
            g, c = extremal_family(FamilySpec(s))
            assert verify(c).interval
            assert count_colours(c) == 3 * s - 2
            assert g.vertex_count == 2 * s

    def test_every_curved_subset_up_to_s6(self):
        # removing curved edges never costs a colour: each curved colour is
        # also carried by a rung
        for s in range(2, 7):
            for removed in curved_subsets(s):
                _, c = extremal_family(FamilySpec(s, frozenset(removed)))
                assert verify(c).interval
                assert count_colours(c) == 3 * s - 2

    @given(family_specs())
    @settings(max_examples=60)
    def test_counts_match_declared_properties(self, spec):
        g, c = extremal_family(spec)
        assert g.vertex_count == spec.vertex_count
        assert count_colours(c) == spec.colour_count
        assert verify(c).interval

    def test_s3_edge_counts(self):
        g, _ = extremal_family(FamilySpec(3))
        assert len(g.edges) == 12
        g, _ = extremal_family(FamilySpec(3, frozenset({1})))
        assert len(g.edges) == 11

    def test_odd_variant_hangs_pendant_with_new_top_colour(self):
        g, c = extremal_family(FamilySpec(3, odd=True))
        assert g.vertex_count == 7 and len(g.edges) == 13
        assert verify(c).interval and count_colours(c) == 8
        assert c.colour(4, 6) == 7  # pendant off the last bottom vertex

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="two columns"):
            FamilySpec(1)
        with pytest.raises(ValueError, match=r"indexed 1\.\.1"):
            FamilySpec(3, frozenset({3}))


class TestSplit:
    def test_family_splits_into_two_k4s(self):
        g, c = extremal_family(FamilySpec(3, frozenset({1})))
        r = unique_colour_split(c)
        assert r.colour == 3 and r.edge == (2, 3)
        assert r.v1 == (0, 1) and r.v2 == (4, 5)
        # each half plus the split edge is a complete graph on 4 vertices
        assert set(r.g1.edges) == set(itertools.combinations(range(4), 2))
        assert set(r.g2.edges) == {
            tuple(sorted(e)) for e in itertools.combinations(range(2, 6), 2)
        }

    def test_postconditions_reverified_independently(self):
        for s in (3, 4, 5):
            g, c = extremal_family(FamilySpec(s, frozenset(range(1, s - 1))))
            r = unique_colour_split(c)
            ones, twos = set(r.v1), set(r.v2)
            cross = [e for e in g.edges if (e[0] in ones) != (e[1] in ones)]
            assert not [e for e in cross if e[0] in ones | twos and e[1] in ones | twos]
            assert verify(r.c1).interval and verify(r.c2).interval
            assert len(r.v1) + len(r.v2) + 2 == g.vertex_count

    def test_halves_share_one_colour(self):
        for s in (3, 4, 5, 6):
            _, c = extremal_family(FamilySpec(s, frozenset(range(1, s - 1))))
            r = unique_colour_split(c)
            assert count_colours(r.c1) + count_colours(r.c2) == count_colours(c) + 1

    def test_recombination_bound_via_exact_search(self):
        # t(G1) + t(G2) >= t(G) + 1: the halves can always do at least as
        # well as the restricted colourings they inherit
        for s in (3, 4):
            g, c = extremal_family(FamilySpec(s, frozenset(range(1, s - 1))))
            t, _ = max_colours(g)
            r = unique_colour_split(c)
            t1, _ = max_colours(r.g1)
            t2, _ = max_colours(r.g2)
            assert t1 + t2 >= t + 1

    def test_full_family_has_no_unique_interior_colour(self):
        # with all curved edges present every interior rung colour is doubled
        for s in (2, 3, 4):
            _, c = extremal_family(FamilySpec(s))
            assert unique_colour_split(c) is None

    def test_scan_picks_lowest_unique_interior_colour(self):
        g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
        c = EdgeColouring(g, {e: i for i, e in enumerate(g.edges)})
        r = unique_colour_split(c)
        assert r.colour == 1 and r.edge == (1, 2)
        assert r.v1 == (0,) and r.v2 == (3, 4)

    def test_star_split_is_degenerate_but_valid(self):
        g = Graph(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
        c = EdgeColouring(g, {(0, v): v for v in range(1, 5)})
        r = unique_colour_split(c)
        assert r.colour == 2 and r.edge == (0, 2)
        assert r.v1 == (1,) and r.v2 == (3, 4)
        assert verify(r.c1).interval and verify(r.c2).interval

    def test_two_edge_path_has_no_interior_colour(self):
        g = Graph(3, ((0, 1), (1, 2)))
        assert unique_colour_split(EdgeColouring(g, {(0, 1): 1, (1, 2): 2})) is None

    def test_edgeless_graph_returns_none(self):
        assert unique_colour_split(EdgeColouring(Graph(1, ()), {})) is None

    def test_disconnected_input_rejected(self):
        g = Graph(4, ((0, 1), (2, 3)))
        c = EdgeColouring(g, {(0, 1): 0, (2, 3): 0})
        with pytest.raises(ValueError, match="connected"):
            unique_colour_split(c)

    def test_isolated_vertex_goes_to_the_low_side(self):
        # the edges still form one component, so the split goes ahead
        g, c = extremal_family(FamilySpec(3, frozenset({1})))
        n = g.vertex_count
        c = EdgeColouring(Graph(n + 1, g.edges), dict(c.colours))
        r = unique_colour_split(c)
        assert r.colour == 3 and r.edge == (2, 3)
        assert r.v1 == (0, 1, n) and r.v2 == (4, 5)
        assert verify(r.c1).interval and verify(r.c2).interval

    def test_non_interval_input_rejected(self):
        g = Graph(3, ((0, 1), (1, 2)))
        c = EdgeColouring(g, {(0, 1): 0, (1, 2): 2})
        with pytest.raises(ValueError, match="interval"):
            unique_colour_split(c)


class TestSparsity:
    def test_triangle_passes_k3(self):
        assert hereditary_sparsity(TRIANGLE, 3) == (True, None)

    def test_k5_fails_with_full_vertex_set(self):
        ok, witness = hereditary_sparsity(K5, 3)
        assert not ok and witness == (0, 1, 2, 3, 4)  # 10 > 3 * 3

    def test_family_graph_passes_k3(self):
        g, _ = extremal_family(FamilySpec(3))
        assert hereditary_sparsity(g, 3)[0]

    def test_forests_need_k2(self):
        p3 = Graph(3, ((0, 1), (1, 2)))
        assert hereditary_sparsity(p3, 2)[0]
        assert hereditary_sparsity(p3, 1) == (False, (0, 1, 2))

    def test_c4(self):
        assert hereditary_sparsity(C4, 3)[0]
        ok, witness = hereditary_sparsity(C4, 1)
        assert not ok and witness == (0, 1, 2, 3)  # 4 > 1 * 2

    def test_witness_actually_violates(self):
        ok, witness = hereditary_sparsity(K5, 3)
        inside = [e for e in K5.edges if e[0] in witness and e[1] in witness]
        assert len(inside) > 3 * (len(witness) - 2)

    @given(st.integers(0, 6), st.data())
    @settings(max_examples=40)
    def test_hereditary_under_induced_subgraphs(self, n, data):
        edges = data.draw(
            st.sets(st.sampled_from(sorted(itertools.combinations(range(n), 2))))
            if n >= 2
            else st.just(set())
        )
        g = Graph(n, tuple(sorted(edges)))
        if not hereditary_sparsity(g, 2)[0]:
            return
        keep = data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
        sub, _ = induced_subgraph(g, sorted(keep & set(range(n))))
        assert hereditary_sparsity(sub, 2)[0]

    def test_guards(self):
        edges = SPARSITY_CORE_EDGE_LIMIT + 2
        with pytest.raises(ValueError, match=f"4-core has {edges} edges"):
            hereditary_sparsity(ABOVE_CORE_LIMIT, 3)
        with pytest.raises(ValueError, match="non-negative"):
            hereditary_sparsity(TRIANGLE, -1)

    def test_agrees_with_the_oracle_on_the_atlas(self):
        networkx = pytest.importorskip("networkx")
        for a in networkx.graph_atlas_g():  # every graph on 0..7 vertices
            g = Graph(a.number_of_nodes(), tuple(a.edges()))
            for k in range(5):
                assert_agrees_with_oracle(g, k)

    def test_agrees_with_the_oracle_on_random_graphs(self):
        for seed in range(300):
            rng = random.Random(seed)
            n, p = rng.randint(8, 12), rng.choice((0.2, 0.35, 0.5, 0.7))
            g = Graph(n, random_graph(n, p, seed))
            for k in range(5):
                assert_agrees_with_oracle(g, k)

    def test_min_cuts_find_dense_blocks_in_sparse_cores(self, monkeypatch):
        # a sparse circulant plus a dense block: the 3-vertex checks and the
        # core's edge count miss most blocks, and a pinned-edge closure
        # must find them
        sides = []
        closure = planar._pinned_closure

        def recorded(*args):
            sides.append(closure(*args))
            return sides[-1]

        monkeypatch.setattr(planar, "_pinned_closure", recorded)
        for seed in range(300):
            rng = random.Random(seed)
            n, k = rng.randint(10, 13), rng.choice((2, 3, 4))
            base = rng.randint(6, n - 4)
            ring = circulant(base, (1, 2) if k >= 3 else (1, 3)).edges
            pairs = itertools.combinations(range(base, n), 2)
            block = [e for e in pairs if rng.random() < 0.8]
            links = [(rng.randrange(base), rng.randrange(base, n))
                     for _ in range(rng.randint(0, 3))]
            perm = list(range(n))
            rng.shuffle(perm)
            edges = {tuple(sorted((perm[u], perm[v])))
                     for u, v in (*ring, *block, *links)}
            assert_agrees_with_oracle(Graph(n, tuple(edges)), k)
        assert sum(side is not None for side in sides) >= 10


class TestPlanarity:
    """The family's planarity, checked by networkx's planarity test."""

    @pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
    @pytest.mark.parametrize("curved", [True, False], ids=["curved", "no-curved"])
    def test_family_is_planar_up_to_s30(self, odd, curved):
        networkx = pytest.importorskip("networkx")
        for s in range(2, 31):
            removed = frozenset() if curved else frozenset(range(1, s - 1))
            g, _ = extremal_family(FamilySpec(s, removed, odd))
            planar, _ = networkx.check_planarity(networkx.Graph(g.edges))
            assert planar, (s, odd, curved)
            assert hereditary_sparsity(g, 3)[0], (s, odd, curved)


class TestCertifiedCap:
    def test_cap_is_the_k3_bound(self):
        g = Graph(4, tuple(itertools.combinations(range(4), 2)))
        assert certified_colour_cap(g) == 4 == verify_colour_bound(g, 3, 0).bound
        assert certified_colour_cap(Graph(2, ((0, 1),))) == 1
        assert certified_colour_cap(Graph(5, ((0, 1), (1, 2)))) == 5

    def test_no_cap_where_the_theorem_is_unchecked(self):
        assert certified_colour_cap(K5) is None  # not 3-sparse
        assert certified_colour_cap(Graph(3, ())) is None  # no edges
        assert certified_colour_cap(ABOVE_CORE_LIMIT) is None  # the check refuses

    def test_cap_past_twenty_vertices(self):
        assert certified_colour_cap(Graph(21, ((0, 1),))) == 29

    @pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
    def test_cap_is_the_family_count_up_to_s30(self, odd):
        for s in range(11, 31):
            spec = FamilySpec(s, odd=odd)
            g, _ = extremal_family(spec)
            assert certified_colour_cap(g) == spec.colour_count, s


class TestColourBound:
    def test_k4_is_tight(self):
        g = Graph(4, tuple(itertools.combinations(range(4), 2)))
        t, _ = max_colours(g)
        rep = verify_colour_bound(g, 3, t)
        assert rep.holds and rep.bound == 4.0 and rep.colour_count == 4

    def test_path_and_cycle_examples(self):
        p3 = Graph(3, ((0, 1), (1, 2)))
        t, _ = max_colours(p3)
        rep = verify_colour_bound(p3, 3, t)
        assert rep.holds and t == 2 and rep.bound == 2.5
        t, _ = max_colours(C4)
        assert verify_colour_bound(C4, 3, t).holds and t == 3

    def test_overclaim_is_flagged(self):
        g = Graph(4, tuple(itertools.combinations(range(4), 2)))
        assert not verify_colour_bound(g, 3, 5).holds
