"""Independent checks of ilab's output files.

Nothing here imports ilab: every file is re-read with plain ``json`` and
string splitting, and every property (coverage, properness, interval-ness,
colour counts) is re-derived from first principles, so a bug in
``ilab.colouring`` cannot hide a wrong answer from the benchmark.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import json
from collections import defaultdict


def read_graph_text(path: str) -> tuple[int, set[tuple[int, int]]]:
    """The ``n m`` header plus ``u v`` lines written by the workload set-up."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    n, m = (int(x) for x in lines[0].split())
    edges = set()
    for line in lines[1 : m + 1]:
        u, v = (int(x) for x in line.split())
        edges.add((min(u, v), max(u, v)))
    if len(edges) != m:
        raise ValueError(f"{path}: header says {m} edges, found {len(edges)}")
    return n, edges


def colouring_problems(colours: dict[tuple[int, int], int]) -> list[str]:
    """Properness and interval-ness of an edge colouring, vertex by vertex."""
    at: dict[int, list[int]] = defaultdict(list)
    for (u, v), c in colours.items():
        at[u].append(c)
        at[v].append(c)
    problems = []
    for x in sorted(at):
        cols = sorted(at[x])
        if len(set(cols)) != len(cols):
            problems.append(f"vertex {x} repeats a colour: {cols}")
        elif cols[-1] - cols[0] != len(cols) - 1:
            problems.append(f"vertex {x} colours not contiguous: {cols}")
        if len(problems) >= 3:
            break
    return problems


def cover_problems(
    graph_edges: set[tuple[int, int]], parts: list[list[tuple[int, int]]]
) -> list[str]:
    """Do the parts cover every graph edge exactly once and nothing else?"""
    seen: set[tuple[int, int]] = set()
    for i, part in enumerate(parts):
        for e in part:
            if e not in graph_edges:
                return [f"part {i} holds {e}, which is not a graph edge"]
            if e in seen:
                return [f"edge {e} lies in more than one part"]
            seen.add(e)
    if seen != graph_edges:
        missing = sorted(graph_edges - seen)[:3]
        return [f"{len(graph_edges - seen)} graph edges in no part, e.g. {missing}"]
    return []


def check_decompose_report(
    n: int, graph_edges: set[tuple[int, int]], doc: dict
) -> list[str]:
    """A ``decompose --report`` document against the input graph."""
    if doc.get("n") != n or doc.get("m") != len(graph_edges):
        return [f"report describes n={doc.get('n')} m={doc.get('m')}"]
    parts_doc = doc.get("parts", [])
    if doc.get("part_count") != len(parts_doc):
        return [f"part_count {doc.get('part_count')} but {len(parts_doc)} parts listed"]
    parts = []
    for entry in parts_doc:
        edges = [(min(u, v), max(u, v)) for u, v in entry["edges"]]
        if len(edges) != len(entry["colours"]):
            return [f"part {entry['index']} has unaligned colours"]
        parts.append(edges)
    problems = cover_problems(graph_edges, parts)
    for entry, edges in zip(parts_doc, parts):
        bad = colouring_problems(dict(zip(edges, entry["colours"])))
        if bad:
            problems.append(f"part {entry['index']} ({entry['kind']}): {bad[0]}")
    return problems


def read_colouring_text(path: str) -> dict[tuple[int, int], int]:
    """The ``solve -o`` text format: ``n m`` header, then ``u v colour``."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln.strip()]
    out = {}
    for line in lines[1:]:
        u, v, c = (int(x) for x in line.split())
        out[(min(u, v), max(u, v))] = c
    return out


def check_interval_witness(
    graph_edges: set[tuple[int, int]], colours: dict[tuple[int, int], int], t: int | None
) -> list[str]:
    """A colouring witness: on exactly the graph's edges, interval, t colours."""
    if set(colours) != graph_edges:
        return ["witness edges differ from the graph's edges"]
    problems = colouring_problems(colours)
    if t is not None and len(set(colours.values())) != t:
        problems.append(f"witness uses {len(set(colours.values()))} colours, claimed {t}")
    return problems


def check_theta_witness(
    graph_edges: set[tuple[int, int]], labels: dict[tuple[int, int], int], theta: int
) -> list[str]:
    """A ``solve --mode theta -o`` partition: theta parts, each interval colourable."""
    if sorted(set(labels.values())) != list(range(theta)):
        return [f"part labels {sorted(set(labels.values()))} are not 0..{theta - 1}"]
    parts: list[list[tuple[int, int]]] = [[] for _ in range(theta)]
    for e, p in labels.items():
        parts[p].append(e)
    problems = cover_problems(graph_edges, parts)
    for i, part in enumerate(parts):
        if not interval_colourable(part):
            problems.append(f"part {i} ({len(part)} edges) is not interval colourable")
    return problems


def interval_colourable(edges: list[tuple[int, int]]) -> bool:
    """Exhaustive interval colourability of a small edge set.

    Backtracking over edges in breadth-first order. In a connected graph an
    interval colouring can be shifted so that its colours lie in 0..2m-2 with
    the first edge at m-1, and a vertex's colours can never span more than
    its degree, which prunes the search. Components are independent.
    """
    adj: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for e in edges:
        adj[e[0]].append(e)
        adj[e[1]].append(e)
    placed: set[tuple[int, int]] = set()
    for start in edges:
        if start in placed:
            continue
        order = [start]
        placed.add(start)
        for e in order:
            for x in e:
                for f in adj[x]:
                    if f not in placed:
                        placed.add(f)
                        order.append(f)
        if not _colour_component(order, adj, len(order)):
            return False
    return True


def _colour_component(order, adj, m: int) -> bool:
    cols: dict[int, list[int]] = defaultdict(list)

    def fits(x: int, c: int) -> bool:
        have = cols[x]
        if c in have:
            return False
        return max(have + [c]) - min(have + [c]) < len(adj[x])

    def place(i: int) -> bool:
        if i == len(order):
            return True
        u, v = order[i]
        choices = [m - 1] if i == 0 else range(2 * m - 1)
        for c in choices:
            if fits(u, c) and fits(v, c):
                cols[u].append(c)
                cols[v].append(c)
                if place(i + 1):
                    return True
                cols[u].pop()
                cols[v].pop()
        return False

    return place(0)


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
