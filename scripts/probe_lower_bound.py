"""Stress the adversarial probe over partition strategies of layered graphs.

For each seed, generates the layered bipartite instance and feeds the probe
three partitions of its edges: everything in one part (must be refuted by a
forced repeat), one part per layer (survives when r parts are available),
and a random q-part colouring. Tallies refuted / survived / exhausted and
prints any spread witnesses the probe certifies along the way.

Usage: python scripts/probe_lower_bound.py --r 3 --n 300 --delta 0.2 \
           --epsilon 0.005 --seeds 10 [--parts 4]
"""

import argparse
import random
import sys
from collections import Counter

from ilab import LowerBoundParams, adversarial_probe, canonical_edge, generate


def partitions_for(lb, q, seed):
    edges = list(lb.all_edges())
    rng = random.Random(seed)
    layer_of = {}
    for i, g in enumerate(lb.layer_graphs):
        for u, v in g.edges:
            layer_of[canonical_edge(u, v)] = i
    yield "single-part", {e: 0 for e in edges}
    yield "layers-as-parts", dict(layer_of)
    yield f"random-{q}-parts", {e: rng.randrange(q) for e in edges}


def outcome(trace):
    return f"refuted ({trace.outcome})" if trace.refuted else trace.outcome


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--r", type=int, default=3)
    ap.add_argument("--n", type=int, default=300)
    ap.add_argument("--delta", type=float, default=0.2)
    ap.add_argument("--epsilon", type=float, default=0.005)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--parts", type=int, default=4, help="random strategy part count")
    ap.add_argument("--budget-scale", type=float, default=1.0)
    args = ap.parse_args(argv)

    tallies = {}
    witnesses = 0
    try:
        for seed in range(args.seeds):
            params = LowerBoundParams(
                r=args.r, n=args.n, delta=args.delta, epsilon=args.epsilon, seed=seed
            )
            lb = generate(params)
            for name, part_of in partitions_for(lb, args.parts, seed):
                trace = adversarial_probe(lb, part_of, budget_scale=args.budget_scale)
                tallies.setdefault(name, Counter())[outcome(trace)] += 1
                for w in trace.witnesses:
                    witnesses += 1
                    print(f"seed {seed} {name}: witness part {w.part} pivot {w.pivot} "
                          f"({w.edge_count} edges, forced {w.forced_spread} > cap {w.cap})")
    except ValueError as exc:  # bad parameters, reported as the CLI does
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"\n{'strategy':<18} " + " ".join(
        f"{k:>18}" for k in ("refuted (repeat)", "refuted (witness)",
                             "survived", "exhausted")))
    for name, counts in tallies.items():
        print(f"{name:<18} " + " ".join(
            f"{counts.get(k, 0):>18}" for k in ("refuted (repeat)",
                                                "refuted (witness)",
                                                "survived", "exhausted")))
    print(f"\n{witnesses} certified witnesses total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
