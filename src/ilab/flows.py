"""Small flow/matching cores.

``hopcroft_karp`` finds the perfect matchings of the decomposition pipeline
(k = 1 factors). ``Dinic`` serves its k >= 2 factors and the pinned-edge
closures of ``planar.hereditary_sparsity``, whose undirected arcs pass a
capacity both ways.

Both are index-based: callers translate vertex labels to 0..n-1 first. Each
hands out the min cut that its own last search found, so no caller searches
the residual graph again: ``Dinic.min_cut_source_side`` reads the levels of
the final, failing BFS of ``max_flow``, and ``hopcroft_karp`` returns the
left vertices that its final, failing BFS reached.
"""

from __future__ import annotations

from collections import deque


class Dinic:
    """Max flow on a small directed network with integer capacities."""

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int, back: int = 0) -> int:
        """Add u->v with capacity cap and v->u with capacity back (0 for a
        directed arc); returns the edge index (reverse is +1)."""
        idx = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[u].append(idx)
        self.to.append(u)
        self.cap.append(back)
        self.adj[v].append(idx + 1)
        return idx

    def _bfs(self, s: int, t: int) -> bool:
        self.level = [-1] * self.n
        self.level[s] = 0
        q = deque([s])
        while q:
            x = q.popleft()
            for idx in self.adj[x]:
                if self.cap[idx] > 0 and self.level[self.to[idx]] < 0:
                    self.level[self.to[idx]] = self.level[x] + 1
                    q.append(self.to[idx])
        return self.level[t] >= 0

    def _augment(self, s: int, t: int) -> int:
        """Push flow along one level-graph path from s to t (0 if none).

        Iterative depth-first search: arcs are tried in insertion order from
        each node's current-arc pointer ``it``, which advances only past arcs
        that led to a dead end, exactly as a recursive Dinic DFS would.
        """
        to, cap, adj, level, it = self.to, self.cap, self.adj, self.level, self.it
        path: list[int] = []  # arc indices from s to x
        x = s
        while x != t:
            arcs = adj[x]
            i = it[x]
            nxt = level[x] + 1
            while i < len(arcs):
                idx = arcs[i]
                if cap[idx] > 0 and level[to[idx]] == nxt:
                    break
                i += 1
            it[x] = i
            if i < len(arcs):
                path.append(arcs[i])
                x = to[arcs[i]]
            elif path:  # dead end: retreat and skip the arc that led here
                x = to[path.pop() ^ 1]
                it[x] += 1
            else:
                return 0
        pushed = min(cap[idx] for idx in path)
        for idx in path:
            cap[idx] -= pushed
            cap[idx ^ 1] += pushed
        return pushed

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while self._bfs(s, t):
            self.it = [0] * self.n
            while True:
                pushed = self._augment(s, t)
                if pushed == 0:
                    break
                flow += pushed
        return flow

    def min_cut_source_side(self) -> set[int]:
        """Vertices reachable from the source in the residual graph.

        Call after max_flow: its last BFS failed to reach the sink, and the
        vertices it levelled are exactly the source side of a minimum cut.
        """
        return {x for x, lv in enumerate(self.level) if lv >= 0}

    def flow_on(self, idx: int) -> int:
        """Flow currently carried by directed edge idx (its reverse edge's
        capacity, which starts at 0)."""
        return self.cap[idx ^ 1]


def hopcroft_karp(
    n_left: int, n_right: int, adjacency: list[list[int]]
) -> tuple[dict[int, int], set[int]]:
    """Maximum matching of a bipartite graph given left-side adjacency.

    Returns ``(match, reached)``: a dict mapping matched left indices to right
    indices, and the left indices that the final, failing BFS reached by
    alternating paths from the free left vertices. König: the unreached left
    vertices and the neighbours of the reached ones form a minimum vertex
    cover, and the reached vertices with their neighbours are the
    residual-reachable side of every minimum cut of the unit-capacity
    matching network.
    """
    INF = float("inf")
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [0.0] * n_left

    def bfs() -> bool:
        q = deque()
        for u in range(n_left):
            if match_l[u] < 0:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = INF
        found = False
        while q:
            u = q.popleft()
            for v in adjacency[u]:
                w = match_r[v]
                if w < 0:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return found

    def dfs(root: int) -> bool:
        """Augment from a free left vertex; iterative, so path length is unbounded.

        Each frame scans its vertex's adjacency from the start, and a vertex
        that fails is retired for the phase (dist = INF).
        """
        stack = [root]
        pos = [0]
        while stack:
            u = stack[-1]
            nbrs = adjacency[u]
            i = pos[-1]
            nxt = dist[u] + 1
            while i < len(nbrs):
                w = match_r[nbrs[i]]
                if w < 0 or dist[w] == nxt:
                    break
                i += 1
            if i == len(nbrs):
                dist[u] = INF
                stack.pop()
                pos.pop()
                if pos:
                    pos[-1] += 1
                continue
            pos[-1] = i
            if w >= 0:
                stack.append(w)
                pos.append(0)
                continue
            for x, j in zip(stack, pos):  # flip the alternating path
                v = adjacency[x][j]
                match_l[x] = v
                match_r[v] = x
            return True
        return False

    while bfs():
        for u in range(n_left):
            if match_l[u] < 0:
                dfs(u)
    match = {u: v for u, v in enumerate(match_l) if v >= 0}
    return match, {u for u in range(n_left) if dist[u] != INF}
