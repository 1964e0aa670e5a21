"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own verifier/search code:
they re-derive colourability and maximum colour counts from first principles
so that frozen expectations in the tests are independently established.
"""

import itertools
import random
from collections import defaultdict

from _acceptance_log import LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in LINES:
        terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# graph enumeration (labelled and up-to-isomorphism) for n <= 5
# ---------------------------------------------------------------------------

def all_edge_sets(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in range(1 << len(pairs)):
        yield tuple(p for k, p in enumerate(pairs) if bits >> k & 1)


def canonical_form(n, edges):
    """Lexicographically smallest edge tuple over all vertex relabellings."""
    best = None
    eset = list(edges)
    for perm in itertools.permutations(range(n)):
        relabelled = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in eset))
        if best is None or relabelled < best:
            best = relabelled
    return best


def connected(n, edges):
    adj = defaultdict(set)
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_classes(n):
    """One labelled representative per isomorphism class of connected graphs."""
    reps = {}
    for edges in all_edge_sets(n):
        if not connected(n, edges):
            continue
        key = canonical_form(n, edges)
        reps.setdefault(key, edges)
    return sorted(reps.values())


# ---------------------------------------------------------------------------
# oracle A: enumerate per-vertex interval starts, then complete by CSP
# ---------------------------------------------------------------------------

def _complete_starts(edges, degree, start, order=None):
    """Try to give each edge a colour inside both endpoint windows, all
    colours at a vertex distinct.  Window sizes equal degrees, so success
    means every vertex's colour set is exactly its window."""
    order = order or sorted(
        edges,
        key=lambda e: min(start[e[0]] + degree[e[0]], start[e[1]] + degree[e[1]])
        - max(start[e[0]], start[e[1]]),
    )
    used = defaultdict(set)

    def go(i):
        if i == len(order):
            return True
        u, v = order[i]
        lo = max(start[u], start[v])
        hi = min(start[u] + degree[u], start[v] + degree[v])
        for c in range(lo, hi):
            if c in used[u] or c in used[v]:
                continue
            used[u].add(c)
            used[v].add(c)
            if go(i + 1):
                return True
            used[u].remove(c)
            used[v].remove(c)
        return False

    return go(0)


def oracle_interval(n, edges):
    """(colourable, max distinct colours or None) for a CONNECTED graph."""
    counts = oracle_colour_counts(n, edges)
    return bool(counts), max(counts, default=None)


def oracle_colour_counts(n, edges):
    """Every number of distinct colours an interval colouring of a CONNECTED
    graph uses; empty when it has none.

    Enumerates every tuple of per-vertex window starts inside the trivial
    palette [0, m) (any colouring can be translated there, and distinct
    colours never exceed m), keeping tuples with some start at 0.
    """
    m = len(edges)
    if m == 0:
        return {0}
    degree = defaultdict(int)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    verts = sorted({x for e in edges for x in e})
    ranges = [range(0, m - degree[v] + 1) for v in verts]
    counts = set()
    for combo in itertools.product(*ranges):
        if min(combo) != 0:
            continue
        start = dict(zip(verts, combo))
        if not _complete_starts(edges, degree, start):
            continue
        cols = set()
        for v in verts:
            cols.update(range(start[v], start[v] + degree[v]))
        counts.add(len(cols))
    return counts


# ---------------------------------------------------------------------------
# oracle B: literal enumeration of all proper colourings (tiny graphs only)
# ---------------------------------------------------------------------------

def _contiguous(values):
    s = sorted(values)
    return all(b - a == 1 for a, b in zip(s, s[1:]))


def oracle_interval_naive(n, edges, max_edges=6):
    """Same answers as oracle_interval by brute force over edge colourings."""
    m = len(edges)
    assert m <= max_edges, "naive oracle scoped to tiny graphs"
    if m == 0:
        return True, 0
    best = None
    for combo in itertools.product(range(m), repeat=m):
        at = defaultdict(list)
        ok = True
        for (u, v), c in zip(edges, combo):
            if c in at[u] or c in at[v]:
                ok = False
                break
            at[u].append(c)
            at[v].append(c)
        if not ok:
            continue
        if all(_contiguous(cs) for cs in at.values()):
            distinct = len(set(combo))
            if best is None or distinct > best:
                best = distinct
    return (best is not None), best


# ---------------------------------------------------------------------------
# misc samplers
# ---------------------------------------------------------------------------

def grow_connected_subgraph(g, rng, max_size):
    """Random connected vertex set grown by neighbour accretion."""
    start = rng.randrange(g.vertex_count)
    chosen = {start}
    frontier = set(g.adjacency[start])
    while frontier and len(chosen) < max_size:
        v = rng.choice(sorted(frontier))
        chosen.add(v)
        frontier |= set(g.adjacency[v])
        frontier -= chosen
    return sorted(chosen)


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p)
