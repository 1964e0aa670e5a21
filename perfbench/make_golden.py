"""Freeze the golden answers the benchmark checks against (golden.json).

Run once, from the root of a checkout, on the commit whose answers are
trusted:

    python3 perfbench/make_golden.py

It writes the fixed exact-search graphs (the extremal family, Petersen,
K5), pools of random n=7..9 graphs with their t or theta, and pools of
layered-graph seeds with the gen-lower SHA-256 and each partition
strategy's probe outcome. Pool graphs are drawn from a fixed generator and
kept only when their exhaustive search visits a number of nodes inside a
narrow band, so every benchmark seed gets a job mix of about the same cost
(node limits, unlike timings, make the pools the same on every machine).
The answers come from ilab itself at that commit; the family's t is also
checked against the formula t = 1.5n - 2.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402
from ilab import (  # noqa: E402
    FamilySpec,
    Graph,
    SearchBudget,
    SearchBudgetExceeded,
    exact_thickness,
    extremal_family,
    find_interval_colouring,
    hereditary_sparsity,
    max_colours,
)
from ilab.cli import main as ilab_main  # noqa: E402

import checker  # noqa: E402
import workloads  # noqa: E402

# pool sizes and the (exclusive, inclusive) band of search nodes a member needs
TMAX_POOL, TMAX_NODES = 12, (12_000, 18_000)
THETA_POOL, THETA_NODES = 8, (10_000, 15_000)
PROBE_POOL = 12
PROBE_N = (1000, 100)


def within(fn, g: Graph, nodes: int):
    """(True, result) if the search finishes within `nodes` nodes."""
    try:
        return True, fn(g, budget=SearchBudget(node_limit=nodes))
    except SearchBudgetExceeded:
        return False, None


def in_band(fn, g: Graph, band: tuple[int, int]):
    """The search's result if it needs more than band[0] and at most band[1]
    nodes, else None."""
    done, result = within(fn, g, band[1])
    if not done or within(fn, g, band[0])[0]:
        return None
    return result


def entry(name: str, g: Graph, **answers) -> dict:
    return {"name": name, "n": g.vertex_count, "edges": [list(e) for e in g.edges],
            **answers}


def family(s: int, removed=()) -> Graph:
    return extremal_family(FamilySpec(s=s, removed_curved=frozenset(removed)))[0]


def fixed_graphs() -> list[dict]:
    out = []
    for s, removed in ((3, ()), (3, (1,)), (4, ())):
        g = family(s, removed)
        t, _ = max_colours(g)
        if t != 3 * s - 2:
            raise RuntimeError(f"family s={s}: t={t}, but the family attains 1.5n - 2")
        name = f"family-s{s}" + "".join(f"-r{j}" for j in removed)
        out.append(entry(name, g, s=s, tmax=t, colourable=True))
    petersen = Graph(10, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 6), (2, 7),
                          (3, 8), (4, 9), (5, 7), (7, 9), (6, 9), (6, 8), (5, 8)))
    k5 = Graph(5, tuple(itertools.combinations(range(5), 2)))
    for name, g in (("petersen", petersen), ("k5", k5)):
        out.append(entry(name, g, theta=exact_thickness(g).theta,
                         colourable=find_interval_colouring(g) is not None))
    for s in (4, 6, 8, 10):
        g = family(s)
        out.append(entry(f"bound-family-s{s}", g, bound_k3=hereditary_sparsity(g, 3)[0]))
    return out


def random_connected(rng, n: int, p: float) -> Graph:
    while True:
        g = Graph(n, tuple(e for e in itertools.combinations(range(n), 2)
                           if rng.random() < p))
        if g.is_connected():
            return g


def tmax_pool(rng) -> list[dict]:
    out = []
    while len(out) < TMAX_POOL:
        n = int(rng.integers(7, 10))
        g = random_connected(rng, n, float(rng.uniform(0.3, 0.5)))
        result = in_band(max_colours, g, TMAX_NODES)
        if result is not None:
            out.append(entry(f"tmax-{len(out):02d}-n{n}", g, tmax=result[0], colourable=True))
    return out


def theta_pool(rng) -> list[dict]:
    out = []
    while len(out) < THETA_POOL:
        n = int(rng.integers(8, 10))
        g = random_connected(rng, n, float(rng.uniform(0.5, 0.75)))
        refuted, colouring = within(find_interval_colouring, g, THETA_NODES[1])
        if not refuted or colouring is not None:
            continue
        result = in_band(exact_thickness, g, THETA_NODES)
        if result is not None:
            out.append(entry(f"theta-{len(out):02d}-n{n}", g, theta=result.theta,
                             colourable=False))
    return out


def cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ilab_main(argv)
    return code, buf.getvalue()


def probe_pools() -> list[dict]:
    pools = []
    with tempfile.TemporaryDirectory() as tmp:
        layered = os.path.join(tmp, "layered.json")
        part = os.path.join(tmp, "partition.json")
        report = os.path.join(tmp, "report.json")
        for n in PROBE_N:
            members = []
            for seed in range(PROBE_POOL):
                cli(workloads.gen_lower_argv(n, seed, layered))
                with open(layered, encoding="utf-8") as fh:
                    docs = workloads.partitions(json.load(fh), seed)
                outcomes = {}
                for strategy, doc in docs.items():
                    with open(part, "w", encoding="utf-8") as fh:
                        json.dump(doc, fh)
                    code, stdout = cli(workloads.probe_argv(layered, part, report))
                    rep = checker.read_json(report)
                    outcomes[strategy] = {
                        "exit": code, "outcome": workloads.probe_outcome(stdout),
                        "used_parts": len(rep["used_parts"]),
                        "overruns": len(rep["overruns"]),
                        "witnesses": len(rep["witnesses"])}
                members.append({"seed": seed, "sha256": workloads.sha256_file(layered),
                                "outcomes": outcomes})
            pools.append({"n": n, "members": members})
    return pools


def main() -> int:
    rng = np.random.default_rng(20230309)
    golden = {
        "exact": {"fixed": fixed_graphs(), "tmax_pool": tmax_pool(rng),
                  "theta_pool": theta_pool(rng)},
        "probe": {"pools": probe_pools()},
    }
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
