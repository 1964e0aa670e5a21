"""ilab benchmark: four seeded closed-loop CLI workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-dense --seed 1 --seconds 12 --trace 0

Workloads: pipeline-dense, pipeline-sparse, exact, probe (see workloads.py
and BASELINE.json for their job lists and why each was chosen). Every job
is one in-process ``ilab.cli.main(argv)`` call on inputs written during
set-up; each workload runs in its own fresh single-threaded worker process,
one job at a time.

``--trace 0`` prints the end-to-end metrics: jobs_per_s, job_p50_s,
peak_rss_mb, parts and setup_s. ``--trace 1`` prints the per-layer metrics
from traced passes, plus trace.overhead_s. The line before the last holds
the per-job output digests (output SHA-256, part count, t, theta, probe
outcome), so two commits can be compared by diff; the last line is the
result object. setup_s (importing ilab, generating and writing the inputs)
is the median of SETUP_RUNS fresh processes.

Times in the end-to-end metrics are *reference seconds*. The machines this
runs on are shared, and their speed drifts by up to 2x within minutes, so
the worker samples the speed with a fixed pure-Python loop
(worker.speed_sample): four samples before and after every job and around
set-up, and one every 0.1 s during them from a SIGALRM handler, whose time
is left out of the job's. A wall time is scaled by 2.33 ms over the mean
sample: it reads as the time on a machine where the loop takes 2.33 ms.
Both sides of a comparison are scaled the same way, and the loop runs no
ilab code. The raw wall-clock values are printed on the line starting with
``#``. Per-layer times are raw wall seconds and include the sampler (about
2%).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["pipeline-dense", "pipeline-sparse", "exact", "probe"]
SETUP_RUNS = 3  # the run worker's own set-up is one of them
DEADLINE_S = 170.0


def declared_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    # one BLAS thread and a fixed hash seed: the workers are single-threaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def spawn(role: str, args, deadline: float) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(argv, cwd=ROOT, env=worker_env(), capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{role} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ilab", "cli.py")):
        print(f"error: no ilab sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        # setup_s is an end-to-end metric only; a traced run skips the repeats
        setups = [spawn("setup", args, deadline)
                  for _ in range(0 if args.trace else SETUP_RUNS - 1)]
        run = spawn("run", args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError,
            IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = list(run["problems"])
    if any(s["inputs"] != run["inputs"] for s in setups):
        problems.append("the same seed produced different inputs")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    values = dict(run["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median([s["setup_s"] for s in setups + [run]])
    metrics = {k: {"value": values[k], "unit": unit}
               for k, unit in declared_units(args.trace).items()}
    print(json.dumps({"digests": run["digests"]}))
    raw = dict(run["raw"])
    raw["setup_s"] = statistics.median([s["setup_raw_s"] for s in setups + [run]])
    print(f"# {args.workload} seed={args.seed}: {run['passes']} passes, "
          f"{run['job_samples']} timed jobs (job_p50_s sample count); raw wall clock: "
          + ", ".join(f"{k}={v:.4g}" for k, v in raw.items()))
    print(json.dumps({"correct": not problems, "attempted": run["attempted"],
                      "failed": max(run["failed"], 1 if problems else 0),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
