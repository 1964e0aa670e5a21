"""Map the escape-dichotomy objective across delta and grid resolutions.

Prints, for each delta, the off-boundary grid maximum and where it sits,
the excluded x=0 boundary value, and the interior ridge point f(1/2, 1/2) —
the three numbers that matter when checking the maximum stays below 1.

Usage: python scripts/objective_landscape.py [--deltas 0.1,0.25,0.4] [--step 0.01]
"""

import argparse
import sys

from ilab import objective_check


def objective(x, y, delta):
    return (x - y) / 100.0 + (1.0 - x) ** (1.0 - delta) + x * y ** (1.0 - delta)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # above delta ~0.42 the ridge itself crosses 1 and the dichotomy fails;
    # pass larger values explicitly to map the breakdown
    ap.add_argument("--deltas", default="0.05,0.1,0.2,0.25,0.3,0.4")
    ap.add_argument("--step", type=float, default=0.01)
    args = ap.parse_args(argv)

    print(f"{'delta':>6} {'grid max':>10} {'at':>14} {'boundary':>9} "
          f"{'ridge f(.5,.5)':>14} {'<1':>3}")
    all_below = True
    for raw in args.deltas.split(","):
        delta = float(raw)
        rep = objective_check(delta, args.step)
        x, y = rep.argmax
        below = rep.bounded_below_one
        all_below &= below
        print(f"{delta:>6.2f} {rep.max_value:>10.6f} {f'({x:.2f},{y:.2f})':>14} "
              f"{objective(0.0, 0.0, delta):>9.4f} {objective(0.5, 0.5, delta):>14.6f} "
              f"{'y' if below else 'N':>3}")
    print("\nall grid maxima below 1" if all_below
          else "\nWARNING: some maximum reached 1")
    return 0 if all_below else 1


if __name__ == "__main__":
    sys.exit(main())
