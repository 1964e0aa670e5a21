"""One workload in one fresh process: set-up, then the closed loop.

Started by run.py, never by hand. ``--role setup`` only imports ilab and
writes the inputs, timing both; ``--role run`` does the same and then runs
whole passes over the job list, one ``ilab.cli.main`` call at a time, until
the jobs have taken ``--seconds`` in total. The first pass's outputs go
through the independent checker; later passes must reproduce them byte for
byte. With ``--trace 1`` untraced and traced passes alternate, and the
traced ones feed the per-layer metrics. The last stdout line is a JSON
object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
# Machine speed is sampled with a fixed pure-Python loop (see run.py): a few
# samples before and after each measured block, and one every SAMPLE_EVERY_S
# inside it from a SIGALRM handler, whose time is left out of the block's.
SAMPLE_LOOPS = 20_000
REF_SAMPLE_S = 0.00233  # the sample time that defines one reference second
SAMPLE_EVERY_S = 0.1
EDGE_SAMPLES = 4


def inputs_digest(workdir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(workdir)):
        h.update(name.encode())
        with open(os.path.join(workdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def speed_sample() -> float:
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(SAMPLE_LOOPS):
        total += i * i
        table[i & 1023] = total
    return time.perf_counter() - start


class ReferenceClock:
    """Times a block in raw wall seconds and in reference seconds."""

    def __enter__(self):
        self.samples = [speed_sample() for _ in range(EDGE_SAMPLES)]
        self._sampling = 0.0
        self._busy = False
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        sample = speed_sample()
        self.samples.append(sample)
        self._sampling += sample
        self._busy = False

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.raw = time.perf_counter() - self._start - self._sampling
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.extend(speed_sample() for _ in range(EDGE_SAMPLES))
        self.ref = self.raw * REF_SAMPLE_S / statistics.fmean(self.samples)
        return False


def run_job(call, argv: list[str]) -> tuple[int | None, str, ReferenceClock]:
    """(exit code, captured output, the call's timing)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        with ReferenceClock() as clock:
            try:
                code = call(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
            except Exception:  # a crash fails the job, not the benchmark
                code = None
                buf.write(traceback.format_exc())
    return code, buf.getvalue(), clock


class Judge:
    """Checks each job's first output fully and every repeat by identity."""

    def __init__(self, workloads):
        self.workloads = workloads
        self.first: dict[str, tuple[bool, dict, str]] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def __call__(self, job, code, stdout: str) -> None:
        self.attempted += 1
        if job.key not in self.first:
            try:
                problems, digest = self.workloads.check(job, code, stdout)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems, digest = [f"checker could not read the output: {exc!r}"], {
                    "job": job.key, "exit": code}
            self.first[job.key] = (not problems, digest, stdout)
            ok = not problems
        else:
            first_ok, digest, first_out = self.first[job.key]
            out_sha = (self.workloads.sha256_file(job.out)
                       if job.out and os.path.exists(job.out) else None)
            problems = []
            if code != digest["exit"] or stdout != first_out or out_sha != digest.get("sha256"):
                problems = ["output differs from the job's first run"]
            ok = first_ok and not problems
        if not ok:
            self.failed += 1
            self.problems.extend(f"{job.key}: {p}" for p in problems[:2])

    def digests(self, jobs) -> list[dict]:
        return [self.first[job.key][1] for job in jobs]


def closed_loop(jobs, judge: Judge, seconds: float, trace: bool, ilab_main) -> dict:
    tracer = spans.Tracer()
    traced_main = tracer.wrap("cli.main", ilab_main)
    # per timed job: reference seconds (see run.py) and raw wall seconds
    ref_times: list[float] = []
    raw_times: list[float] = []
    walls: dict[bool, list[float]] = {False: [], True: []}

    def one_pass(traced: bool) -> None:
        results = []
        with tracer.installed() if traced else contextlib.nullcontext():
            for job in jobs:
                results.append((job, *run_job(traced_main if traced else ilab_main, job.argv)))
        walls[traced].append(sum(clock.raw for *_, clock in results))
        for job, code, stdout, clock in results:
            judge(job, code, stdout)
            if not traced:
                ref_times.append(clock.ref)
                raw_times.append(clock.raw)

    if not trace:
        while not walls[False] or sum(walls[False]) < seconds:
            one_pass(False)
        metrics = {
            "jobs_per_s": len(ref_times) / sum(ref_times),
            "job_p50_s": statistics.median(ref_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "parts": judge.workloads.quality_parts(judge.digests(jobs)),
        }
    else:
        while (not walls[True] or not walls[False]
               or sum(walls[False]) + sum(walls[True]) < seconds):
            one_pass(len(walls[False]) > len(walls[True]))
        metrics = spans.layer_metrics(tracer, len(walls[True]))
        metrics["trace.overhead_s"] = (
            statistics.fmean(walls[True]) - statistics.fmean(walls[False]))
    raw = {"jobs_per_s": len(raw_times) / sum(raw_times),
           "job_p50_s": statistics.median(raw_times)} if raw_times else {}
    return {"metrics": metrics, "raw": raw, "job_samples": len(raw_times),
            "passes": len(walls[False]) + len(walls[True])}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--role", choices=["setup", "run"], required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args(argv)

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        with ReferenceClock() as clock:
            sys.path.insert(0, os.path.join(ROOT, "src"))
            import ilab.cli
            import workloads

            jobs = workloads.setup(args.workload, args.seed, workdir)
        if not os.path.abspath(ilab.cli.__file__).startswith(os.path.join(ROOT, "src")):
            raise RuntimeError(f"imported ilab from {ilab.cli.__file__}, not this checkout")
        result = {"setup_s": clock.ref, "setup_raw_s": clock.raw,
                  "inputs": inputs_digest(workdir)}
        if args.role == "run":
            judge = Judge(workloads)
            result.update(closed_loop(jobs, judge, args.seconds, bool(args.trace),
                                      ilab.cli.main))
            result.update(attempted=judge.attempted, failed=judge.failed,
                          problems=judge.problems[:10], digests=judge.digests(jobs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
