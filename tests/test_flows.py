import itertools
import random

from ilab.flows import Dinic, hopcroft_karp


def brute_max_matching(n_left, adjacency):
    """Largest matching by trying all subsets of edges (tiny inputs)."""
    edges = [(u, v) for u in range(n_left) for v in adjacency[u]]
    best = 0
    for r in range(len(edges), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(edges, r):
            ls = [u for u, _ in combo]
            rs = [v for _, v in combo]
            if len(set(ls)) == r and len(set(rs)) == r:
                best = r
                break
    return best


def alternating_reach(adjacency, match):
    """Left and right indices reachable by alternating paths from free left
    vertices: an oracle for the reach that hopcroft_karp returns."""
    match_r = {v: u for u, v in match.items()}
    queue = [u for u in range(len(adjacency)) if u not in match]
    left, right = set(queue), set()
    for u in queue:  # grows while iterated: breadth-first order
        for v in adjacency[u]:
            if v not in right:
                right.add(v)
                w = match_r.get(v)
                assert w is not None, "matching is not maximum: augmenting path found"
                if w not in left:
                    left.add(w)
                    queue.append(w)
    return left, right


def residual_reach(d, s):
    """Vertices reachable from s over arcs with spare capacity: an oracle for
    Dinic.min_cut_source_side."""
    seen = {s}
    stack = [s]
    while stack:
        x = stack.pop()
        for idx in d.adj[x]:
            if d.cap[idx] > 0 and d.to[idx] not in seen:
                seen.add(d.to[idx])
                stack.append(d.to[idx])
    return seen


def matching_flow(n_left, n_right, adjacency):
    d = Dinic(n_left + n_right + 2)
    s, t = n_left + n_right, n_left + n_right + 1
    for u in range(n_left):
        d.add_edge(s, u, 1)
    for v in range(n_right):
        d.add_edge(n_left + v, t, 1)
    mid = {}
    for u in range(n_left):
        for v in adjacency[u]:
            mid[(u, v)] = d.add_edge(u, n_left + v, 1)
    return d, d.max_flow(s, t), mid


def test_three_routes_agree_on_small_instances():
    rng = random.Random(42)
    for trial in range(60):
        nl, nr = rng.randint(1, 5), rng.randint(1, 5)
        adjacency = [
            sorted({rng.randrange(nr) for _ in range(rng.randint(0, nr))})
            for _ in range(nl)
        ]
        want = brute_max_matching(nl, adjacency)
        match, _ = hopcroft_karp(nl, nr, adjacency)
        assert len(match) == want, (trial, adjacency)
        _, flow, _ = matching_flow(nl, nr, adjacency)
        assert flow == want, (trial, adjacency)


def test_hopcroft_karp_returns_a_valid_matching():
    rng = random.Random(7)
    nl = nr = 30
    adjacency = [sorted(rng.sample(range(nr), 6)) for _ in range(nl)]
    match, _ = hopcroft_karp(nl, nr, adjacency)
    assert len(set(match.values())) == len(match)
    for u, v in match.items():
        assert v in adjacency[u]


def test_perfect_matching_on_regular_graph():
    # 3-regular bipartite graphs always have one (Hall / König)
    nl = nr = 9
    adjacency = [sorted((u + k) % nr for k in range(3)) for u in range(nl)]
    match, reached = hopcroft_karp(nl, nr, adjacency)
    assert len(match) == nl and reached == set()


def test_min_cut_separates_and_matches_flow_value():
    d = Dinic(4)
    d.add_edge(0, 1, 3)
    d.add_edge(0, 2, 2)
    d.add_edge(1, 3, 2)
    d.add_edge(2, 3, 3)
    assert d.max_flow(0, 3) == 4
    side = d.min_cut_source_side()
    assert 0 in side and 3 not in side
    crossing = 0
    for u, v, cap in ((0, 1, 3), (0, 2, 2), (1, 3, 2), (2, 3, 3)):
        if u in side and v not in side:
            crossing += cap
    assert crossing == 4


def test_flow_on_reports_per_edge_units():
    d, flow, mid = matching_flow(2, 2, [[0, 1], [0]])
    assert flow == 2
    used = sorted(pair for pair, idx in mid.items() if d.flow_on(idx) == 1)
    # left 1 only reaches right 0, so the assignment is forced
    assert used == [(0, 1), (1, 0)]


def test_hopcroft_karp_long_augmenting_path():
    # greedy matches left i to right i+1, leaving one augmenting path that
    # runs through all n left vertices: no recursion-depth limit may apply
    n = 2000
    adjacency = [[i + 1, i] for i in range(n - 1)] + [[n - 1]]
    match, _ = hopcroft_karp(n, n, adjacency)
    assert match == {i: i for i in range(n)}


def test_dinic_long_path_network():
    n = 3000
    d = Dinic(n)
    for i in range(n - 1):
        d.add_edge(i, i + 1, 1)
    assert d.max_flow(0, n - 1) == 1
    assert d.min_cut_source_side() == {0}


def test_min_cut_is_the_residual_reach():
    rng = random.Random(11)
    for trial in range(200):
        n = rng.randint(2, 9)
        d = Dinic(n)
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.sample(range(n), 2)
            d.add_edge(u, v, rng.randint(1, 4))
        d.max_flow(0, n - 1)
        side = d.min_cut_source_side()
        assert side == residual_reach(d, 0), trial
        assert n - 1 not in side


def test_alternating_reach_gives_konig_cover():
    rng = random.Random(3)
    for _ in range(200):
        nl, nr = rng.randint(1, 8), rng.randint(1, 8)
        adjacency = [
            sorted({rng.randrange(nr) for _ in range(rng.randint(0, 3))})
            for _ in range(nl)
        ]
        match, left = hopcroft_karp(nl, nr, adjacency)
        right = {v for u in left for v in adjacency[u]}
        # reached left vertices only see reached right vertices, and the
        # unreached left plus reached right form a cover of matching size
        assert all(set(adjacency[u]) <= right for u in left)
        assert (nl - len(left)) + len(right) == len(match)
        assert (left, right) == alternating_reach(adjacency, match)
