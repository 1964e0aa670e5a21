"""Survey exact thickness and maximum colour counts at desk scale.

Two experiments in one:

  * exhaustive: every connected isomorphism class on n <= --max-n <= 7
    vertices, taken from networkx's graph atlas, tabulating how many are
    interval colourable, the largest t seen against the (3/2)n - 2 bound, and
    the worst thickness;
  * pipeline: decompose_theta part counts on random graphs as n grows (the
    constructive upper-bound route), next to the number of first-fit forests
    of the whole graph (a partition that uses no factor) and the
    ceil(log2 n) layer bound.

Usage: python scripts/theta_survey.py [--max-n 5] [--pipeline-sizes 32,64,128]
"""

import argparse
import random
import sys

from ilab import Graph, decompose_theta, exact_thickness, forest_partition, max_colours, verify

MAX_ATLAS_N = 7  # networkx.graph_atlas_g() lists every graph on 0..7 vertices


def survey_exact(max_n, nx):
    print(f"{'n':>2} {'classes':>8} {'colourable':>10} {'max t':>6} "
          f"{'bound':>6} {'worst theta':>11}")
    atlas = nx.graph_atlas_g()
    for n in range(2, max_n + 1):
        classes = [a for a in atlas if a.number_of_nodes() == n and nx.is_connected(a)]
        colourable = 0
        best_t = 0
        worst_theta = 0
        for a in classes:
            g = Graph(n, sorted(tuple(sorted(e)) for e in a.edges()))
            result = max_colours(g)
            if result is not None:
                colourable += 1
                best_t = max(best_t, result[0])
            theta = exact_thickness(g, k_max=4).theta
            worst_theta = max(worst_theta, theta)
        bound = 1.5 * n - 2
        print(f"{n:>2} {len(classes):>8} {colourable:>10} {best_t:>6} "
              f"{bound:>6.1f} {worst_theta:>11}")


def survey_pipeline(sizes, density, seeds):
    import math

    print(f"\n{'n':>4} {'m':>6} {'parts':>6} {'forests':>7} {'layers':>7} "
          f"{'log2 bound':>10} {'verified':>8}")
    for n in sizes:
        for seed in range(seeds):
            rng = random.Random(seed)
            edges = tuple(
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < density
            )
            g = Graph(n, edges)
            report = decompose_theta(g)
            ok = all(verify(c).interval for c in report.part_colourings())
            print(f"{n:>4} {g.edge_count:>6} {report.part_count:>6} "
                  f"{len(forest_partition(g)):>7} {len(report.layers):>7} "
                  f"{math.ceil(math.log2(n)):>10} {'yes' if ok else 'NO':>8}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=5)
    ap.add_argument("--pipeline-sizes", default="32,64,128,256")
    ap.add_argument("--density", type=float, default=0.3)
    ap.add_argument("--seeds", type=int, default=3)
    args = ap.parse_args(argv)
    if args.max_n > MAX_ATLAS_N:
        print(f"error: --max-n is at most {MAX_ATLAS_N}, the largest order in "
              "the networkx graph atlas", file=sys.stderr)
        return 2
    try:
        import networkx as nx
    except ImportError:
        print("error: the exhaustive survey reads networkx's graph atlas; "
              "install networkx", file=sys.stderr)
        return 2
    survey_exact(args.max_n, nx)
    sizes = [int(s) for s in args.pipeline_sizes.split(",") if s]
    survey_pipeline(sizes, args.density, args.seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
