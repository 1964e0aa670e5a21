"""Exact search against two independently coded oracles, plus frozen values.

Oracle A (per-vertex window starts + completion CSP) covers every connected
graph on at most 5 vertices.  Oracle B (literal enumeration of all proper
colourings) is feasible up to 6 edges and cross-checks oracle A on that
range.  K5 and K5 minus an edge are also refuted analytically: reducing an
interval colouring's colours mod max-degree gives a proper edge colouring
with Delta colours, but both graphs have chromatic index 5 > Delta = 4.
``upward_max_colours`` is the palette walk ``max_colours`` made before it
had a certified cap, kept as a reference for its answers and witnesses.
"""

import hashlib
import itertools
import random
from collections import Counter

import pytest

from conftest import (
    connected_classes,
    oracle_colour_counts,
    oracle_interval,
    oracle_interval_naive,
    random_graph,
)
from ilab import (
    FamilySpec,
    Graph,
    SearchBudget,
    SearchBudgetExceeded,
    count_colours,
    exact_thickness,
    extremal_family,
    find_interval_colouring,
    hereditary_sparsity,
    max_colours,
    peel_sequence,
    verify,
)
from ilab import exact
from ilab.planar import certified_colour_cap

TRIANGLE = Graph(3, ((0, 1), (0, 2), (1, 2)))
K4 = Graph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
K5 = Graph(5, tuple((i, j) for i in range(5) for j in range(i + 1, 5)))
K5_MINUS = Graph(5, K5.edges[1:])
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
C5 = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
K7 = Graph(7, tuple(itertools.combinations(range(7), 2)))
K33 = Graph(6, tuple((i, j) for i in range(3) for j in range(3, 6)))
PETERSEN = Graph(10, (
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (5, 7), (6, 8), (7, 9), (5, 8), (6, 9),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
))


def test_search_agrees_with_start_tuple_oracle_up_to_5_vertices():
    for n in range(1, 6):
        for edges in connected_classes(n):
            g = Graph(n, edges)
            want_ok, want_t = oracle_interval(n, edges)
            c = find_interval_colouring(g)
            assert (c is not None) == want_ok, (n, edges)
            if c is not None:
                assert verify(c).interval
            res = max_colours(g)
            if want_ok:
                t, witness = res
                assert t == want_t, (n, edges, t, want_t)
                rep = verify(witness)
                assert rep.interval and rep.distinct_colours == t
            else:
                assert res is None


def test_colour_cap_agrees_with_every_achievable_count_up_to_5_vertices():
    for n in range(2, 6):
        for edges in connected_classes(n):
            g = Graph(n, edges)
            counts = oracle_colour_counts(n, edges)
            for cap in range(1, len(edges) + 1):
                c = find_interval_colouring(g, max_colours=cap)
                assert (c is None) == all(t > cap for t in counts), (edges, cap)
                if c is not None:
                    assert verify(c).interval and count_colours(c) <= cap, (edges, cap)


def test_colour_cap_holds_for_the_whole_graph_across_components():
    # each component's colouring starts at 0, so the union stays within the
    # cap: left at their pinned windows, 16 of these 558 calls would exceed it
    classes = [(n, edges) for n in range(2, 5) for edges in connected_classes(n)]
    for (n1, e1), (n2, e2) in itertools.product(classes, repeat=2):
        g = Graph(n1 + n2, tuple(e1) + tuple((u + n1, v + n1) for u, v in e2))
        fewest = max(min(oracle_colour_counts(n1, e1), default=g.edge_count + 1),
                     min(oracle_colour_counts(n2, e2), default=g.edge_count + 1))
        for cap in range(1, g.edge_count + 1):
            c = find_interval_colouring(g, max_colours=cap)
            assert (c is None) == (cap < fewest), (g.edges, cap)
            if c is not None:
                assert verify(c).interval and count_colours(c) <= cap, (g.edges, cap)


def test_colour_cap_searches_one_window():
    # the pinned first colouring uses 13 colours (70,071 nodes); one search
    # of the window 0..11 finds an 11-colour one in 477 more, where palette
    # 12 alone runs past 20M
    g = Graph(11, random_graph(11, 0.6, seed=438611))
    c = find_interval_colouring(g, SearchBudget(node_limit=200_000), max_colours=12)
    assert c is not None and verify(c).interval and count_colours(c) <= 12


def test_naive_enumeration_agrees_on_its_range():
    for n in range(1, 6):
        for edges in connected_classes(n):
            if len(edges) > 6:
                continue
            assert oracle_interval(n, edges) == oracle_interval_naive(n, edges)


class TestFrozenValues:
    def test_triangle_has_no_interval_colouring(self):
        assert find_interval_colouring(TRIANGLE) is None
        assert max_colours(TRIANGLE) is None

    def test_triangle_thickness_two_with_verified_parts(self):
        res = exact_thickness(TRIANGLE)
        assert res.theta == 2
        for part in res.colourings:
            assert verify(part).interval
        covered = sorted(e for part in res.colourings for e in part.colours)
        assert covered == sorted(TRIANGLE.edges)

    def test_c4_max_is_three(self):
        t, w = max_colours(C4)
        assert t == 3 and count_colours(w) == 3

    def test_k4_max_is_four(self):
        t, _ = max_colours(K4)
        assert t == 4

    def test_c5_and_k5_family_not_colourable(self):
        assert find_interval_colouring(C5) is None
        assert find_interval_colouring(K5) is None
        assert find_interval_colouring(K5_MINUS) is None

    def test_k4_is_colourable_with_exactly_max_degree_colours(self):
        c = find_interval_colouring(K4, max_colours=3)
        assert c is not None and verify(c).interval


def test_disconnected_components_translate_apart():
    two_paths = Graph(6, ((0, 1), (1, 2), (3, 4), (4, 5)))
    t, w = max_colours(two_paths)
    assert t == 4
    assert verify(w).interval and count_colours(w) == 4


def test_cap_below_every_colouring_is_none():
    # Petersen has no colouring but is not overfull (15 = 3 * (10 // 2)): the
    # whole window is refuted first, so a cap changes nothing
    assert find_interval_colouring(PETERSEN, max_colours=3) is None


def test_overfull_component_is_refuted_without_search():
    # K7 has 21 > 6 * (7 // 2) edges; the search would take 9.64M nodes
    assert find_interval_colouring(K7, budget=SearchBudget(node_limit=1)) is None
    assert find_interval_colouring(C5, max_colours=3) is None
    # Petersen comes first and takes 2381 nodes to refute; the overfull K7
    # after it settles the answer before either is searched
    shifted = tuple((u + 10, v + 10) for u, v in K7.edges)
    assert find_interval_colouring(Graph(17, PETERSEN.edges + shifted), max_colours=6) is None
    meter = exact._Meter(SearchBudget())
    assert exact._colour_components(K7, meter) is None and meter.nodes == 0


def test_refutation_searches_one_mirror_half():
    # the whole window takes 4761 nodes: 1 for edge 0, then 4760 split evenly
    # between edge 1 below and above the pin; only the half below is searched,
    # so 1 + 4760 / 2
    meter = exact._Meter(SearchBudget())
    assert exact._colour_components(PETERSEN, meter) is None
    assert meter.nodes == 1 + 4760 // 2


def test_theta_of_k7_fits_the_default_budget():
    res = exact_thickness(K7)
    assert res.theta == 2
    assert all(verify(c).interval for c in res.colourings)


def test_palette_below_max_degree_is_none_at_0_nodes():
    # K4's first colouring alone takes 6 nodes, one per edge
    assert find_interval_colouring(K4, budget=SearchBudget(node_limit=1), max_colours=2) is None


def test_node_limit_exhaustion():
    g = Graph(10, random_graph(10, 0.5, seed=1))
    with pytest.raises(SearchBudgetExceeded):
        find_interval_colouring(g, budget=SearchBudget(node_limit=3))


def test_thickness_searches_each_part_once(monkeypatch):
    # the memo holds colourings, so the winning parts' witnesses come from it
    searched = Counter()
    colour_components = exact._colour_components

    def counted(g, meter):
        searched[g.edges] += 1
        return colour_components(g, meter)

    monkeypatch.setattr(exact, "_colour_components", counted)
    res = exact_thickness(K5)
    assert res.theta == 2 and max(searched.values()) == 1
    for part, colouring in zip(res.partition.parts(), res.colourings):
        assert colouring.graph.edges == tuple(part) and verify(colouring).interval


def test_thickness_gives_up_beyond_k_max():
    assert exact_thickness(TRIANGLE, k_max=1) is None


class TestPeel:
    def test_triangle_trace(self):
        assert peel_sequence(TRIANGLE) == [(None, 2), (0, 1)]

    def test_k4_passes_through_the_triangle(self):
        assert peel_sequence(K4) == [(None, 1), (0, 2), (1, 1)]

    def test_drop_bound_on_random_graphs(self):
        for seed in range(6):
            g = Graph(7, random_graph(7, 0.45, seed=seed))
            trace = peel_sequence(g)
            thetas = [t for _, t in trace]
            assert all(b >= a - 1 for a, b in zip(thetas, thetas[1:])), (seed, trace)

    def test_budget_covers_the_whole_peel(self):
        # theta(K5) alone takes 72 nodes, the four searches 98 together
        assert exact_thickness(K5, k_max=5, budget=SearchBudget(node_limit=80))
        with pytest.raises(SearchBudgetExceeded):
            peel_sequence(K5, SearchBudget(node_limit=80))


def test_counting_property_when_no_interior_colour_is_unique():
    # whenever an exact witness has every interior colour on >= 2 edges,
    # the edge count must reach 2t - 2
    for n in range(2, 6):
        for edges in connected_classes(n):
            g = Graph(n, edges)
            res = max_colours(g)
            if res is None:
                continue
            t, w = res
            counts = {}
            for col in w.colours.values():
                counts[col] = counts.get(col, 0) + 1
            lo, hi = min(counts), max(counts)
            if all(counts[c] >= 2 for c in counts if lo < c < hi):
                assert g.edge_count >= 2 * t - 2, (n, edges)


# ---------------------------------------------------------------------------
# max_colours: the certified cap and the downward palette walk
# ---------------------------------------------------------------------------

def upward_max_colours(g):
    """Every palette from the first colouring's up to the sound window; the
    largest success wins. Returns ``(t, colours)`` or None."""
    meter = exact._Meter(SearchBudget())
    found = exact._colour_components(g, meter)
    if found is None:
        return None
    combined = {}
    offset = 0
    for edges, deg, window, best in found:
        best_t = len(set(best.values()))
        for t_try in range(best_t + 1, window + 1):
            sol = exact._search_component(edges, deg, 0, t_try - 1, meter, palette=True)
            if sol is not None:
                best_t, best = t_try, sol
        shift = offset - min(best.values())
        combined.update({e: c + shift for e, c in best.items()})
        offset += best_t
    return offset, combined


def palette_search(g, t):
    """The call ``max_colours`` makes for palette t on a connected graph:
    whether it succeeds, and the nodes it takes."""
    [edges] = exact._connected_edge_order(g.edges)
    deg = {v: g.degree(v) for v in range(g.vertex_count)}
    meter = exact._Meter(SearchBudget(node_limit=None))
    sol = exact._search_component(edges, deg, 0, t - 1, meter, palette=True)
    return sol is not None, meter.nodes


def palette_feasible(g, t):
    return palette_search(g, t)[0]


def assert_matches_upward(g):
    want = upward_max_colours(g)
    got = max_colours(g)
    if want is None:
        assert got is None, g.edges
        return
    assert got[0] == want[0] and got[1].colours == want[1], g.edges
    if g.edges and hereditary_sparsity(g, 3)[0]:
        assert certified_colour_cap(g) == (3 * g.vertex_count - 4) // 2 >= want[0]


def test_s5_palette_gap_forbids_bisection():
    # 12 fails between two palettes that succeed: refuting it takes 1.39M nodes
    g, _ = extremal_family(FamilySpec(5))
    assert [palette_feasible(g, t) for t in (11, 12, 13)] == [True, False, True]


@pytest.mark.parametrize(
    "g, t, want",
    [
        (K4, 4, (True, 7)),
        (K4, 5, (False, 24)),
        (K4, 6, (False, 16)),
        (K33, 7, (False, 61)),
        (K33, 8, (False, 35)),
        (K33, 9, (False, 41)),
    ],
    ids=["K4-4", "K4-5", "K4-6", "K33-7", "K33-8", "K33-9"],
)
def test_palette_search_halves_the_centre_subtree(g, t, want):
    # an odd palette has a centre colour, and while edge 0 sits on it edge 1
    # stays below it: K4 t=5 took 31 nodes without that cap, K3,3 t=7 81 and
    # t=9 46; even palettes have no centre, and a success stops before the
    # cap can bite, so those counts are what edge 0's cap alone gives
    assert palette_search(g, t) == want


@pytest.mark.parametrize("s", range(2, 7))
@pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
def test_family_reaches_the_cap_within_budget(s, odd):
    spec = FamilySpec(s, odd=odd)
    g, _ = extremal_family(spec)
    t, witness = max_colours(g, SearchBudget(node_limit=100_000))
    assert t == 3 * s - 2 + odd == spec.colour_count == certified_colour_cap(g)
    assert verify(witness).interval and count_colours(witness) == t


def test_downward_walk_matches_upward_on_random_graphs():
    rng = random.Random(6)
    for _ in range(320):
        n = rng.randint(2, 8)
        g = Graph(n, random_graph(n, rng.choice((0.2, 0.3, 0.4)), seed=rng.randrange(10**6)))
        assert_matches_upward(g)


@pytest.mark.parametrize("capped", [True, False], ids=["cap", "window"])
def test_downward_walk_matches_upward_on_family_members(monkeypatch, capped):
    if not capped:  # walk down from the sound window instead
        monkeypatch.setattr(exact, "certified_colour_cap", lambda g: None)
    for s in (2, 3):
        for odd in (False, True):
            for r in range(s - 1):
                for removed in itertools.combinations(range(1, s - 1), r):
                    g, _ = extremal_family(FamilySpec(s, frozenset(removed), odd))
                    assert_matches_upward(g)


def test_colouring_above_the_cap_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(exact, "certified_colour_cap", lambda g: 1)
    with pytest.raises(RuntimeError, match="certified cap"):
        max_colours(C4)


def naive_connected_edge_order(edges):
    """Smallest unused edge touching the prefix, starting from the smallest."""
    remaining = sorted(edges)
    order, covered = [remaining.pop(0)], set()
    covered.update(order[0])
    while remaining:
        e = next(e for e in remaining if e[0] in covered or e[1] in covered)
        remaining.remove(e)
        order.append(e)
        covered.update(e)
    return order


def test_connected_edge_order_matches_naive_reference():
    # whole graphs, labels and edges shuffled: one naive order per component
    # with edges, components in order of smallest vertex
    rng = random.Random(8)
    split = 0
    for _ in range(150):
        n = rng.randint(1, 20)
        label = list(range(n))
        rng.shuffle(label)
        base = random_graph(n, rng.choice((0.08, 0.15, 0.3, 0.7)), seed=rng.randrange(10**6))
        g = Graph(n, tuple((label[u], label[v]) for u, v in base))
        want = []
        for comp in g.components():
            edges = [e for e in g.edges if e[0] in comp]
            if edges:
                want.append(naive_connected_edge_order(edges))
        edges = list(g.edges)
        rng.shuffle(edges)
        assert exact._connected_edge_order(edges) == want, edges
        isolated = any(g.degree(v) == 0 for v in range(n))
        split += len(want) > 1 and isolated
    assert split >= 25, split


# ---------------------------------------------------------------------------
# frozen search results
# ---------------------------------------------------------------------------


def frozen_search_graphs():
    """Seeded random graphs on at most 9 vertices, K5, Petersen, the family
    up to s = 4 and one graph with isolated vertices and several components."""
    rng = random.Random(10)
    graphs = []
    for _ in range(40):
        n = rng.randint(2, 9)
        graphs.append(Graph(n, random_graph(n, rng.choice((0.2, 0.35, 0.6)), seed=rng.randrange(10**6))))
    for _ in range(7):  # dense enough that some need two parts
        n = rng.randint(5, 7)
        graphs.append(Graph(n, random_graph(n, 0.7, seed=rng.randrange(10**6))))
    graphs += [K5, PETERSEN]
    for s in range(2, 5):
        for odd in (False, True):
            graphs.append(extremal_family(FamilySpec(s, odd=odd))[0])
    graphs.append(extremal_family(FamilySpec(4, frozenset({1, 2})))[0])
    # components {1, 4, 9}, {2, 12}, {3, 6, 7, 11, 13} and isolated 0, 5, 8, 10
    graphs.append(Graph(14, (
        (1, 4), (4, 9), (1, 9), (2, 12), (3, 6), (6, 7), (7, 11), (3, 11), (11, 13), (6, 13),
    )))
    return graphs


@pytest.fixture(scope="module")
def frozen_results():
    return [
        (find_interval_colouring(g), max_colours(g), exact_thickness(g))
        for g in frozen_search_graphs()
    ]


def test_search_results_are_frozen(frozen_results):
    # answers, witness colours, theta partitions and part colourings; any
    # change to the order in which colourings are found moves the digest
    h = hashlib.sha256()
    for c, res, th in frozen_results:
        h.update(repr(None if c is None else sorted(c.colours.items())).encode())
        h.update(repr(None if res is None else (res[0], sorted(res[1].colours.items()))).encode())
        h.update(repr((
            th.theta, sorted(th.partition.part_of.items()),
            [sorted(col.colours.items()) for col in th.colourings],
        )).encode())
    assert h.hexdigest() == "644c65eb629a1b68b21f56704dfce2fb296257f8629139a5b2b45b53138bba4e"


def test_search_node_counts_are_frozen(frozen_results):
    # theta's node counts: any change to how much the search visits moves them
    nodes = [th.nodes for *_, th in frozen_results]
    assert hashlib.sha256(repr(nodes).encode()).hexdigest() == "3d68f2710c2325d04a8ee234cd3699a0fa98a383ed75d60302c0bb00a7b20596"
