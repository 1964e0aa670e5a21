"""The four benchmark workloads: seeded inputs, job lists and output checks.

A workload's set-up turns ``--seed`` into input files in a scratch
directory and returns the job list of one *pass*. Each job is the argument
vector of one ``ilab.cli.main`` call. Only the files reach the program;
the seed never does.

Answers that cannot be re-derived cheaply (t, theta, probe outcomes,
gen-lower bytes) come from ``golden.json``, which ``make_golden.py`` froze
from the seed commit. Its random graphs and layered-graph seeds form pools;
the benchmark seed picks which pool members a run uses, so every seed has
known answers while the inputs still change from seed to seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np
from ilab.cli import main as ilab_main

import checker

HERE = os.path.dirname(os.path.abspath(__file__))

# (n, p) of the dense G(n, p) inputs. Every n reaches find_k_factor; the
# non-powers of two pad to a layer on which half the flows fail. n=300 p=0.6
# is absent on purpose: after padding it makes no flow call at all.
DENSE = [(200, 0.7), (224, 0.6), (250, 0.5), (256, 0.5), (320, 0.7)]
# (n, average degree) of the sparse inputs, below every layer's threshold.
SPARSE = [(2048, 80), (3000, 30), (6000, 24), (8192, 8)]
# pool members one pass draws: tmax graphs, theta graphs, layered graphs
EXACT_TMAX_PICKS = 4
EXACT_THETA_PICKS = 2
PROBE_PICKS = 4
# Always in the pass: the layered graph whose random-4-parts probe peaks at
# 36 MB (an exhaustive pseudorandomness check on a small restricted layer)
# while the others stay near 8 MB, so peak_rss_mb does not hinge on the draw.
PROBE_ALWAYS = {"n": 1000, "seed": 1}
PROBE_ARGS = ["--r", "3", "--delta", "0.2", "--epsilon", "0.005"]
PROBE_BUDGET_SCALE = "0.1"  # low enough that single-part probes record overruns
STRATEGIES = ("single-part", "layers-as-parts", "random-4-parts")


@dataclass
class Job:
    key: str  # stable name of the job within a pass
    argv: list[str]
    kind: str
    out: str | None = None  # the output file the job writes, if any
    expect: dict = field(default_factory=dict)


def load_golden() -> dict:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_graph(path: str, n: int, edges) -> None:
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def gnp_edges(n: int, p: float, rng: np.random.Generator) -> list[tuple[int, int]]:
    """G(n, p): a binomial edge count, then the first distinct pairs of an
    i.i.d. uniform pair stream (a uniform subset of that size)."""
    m = int(rng.binomial(n * (n - 1) // 2, p))
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        draw = 2 * (m - keys.size) + 16
        u = rng.integers(0, n, size=draw, dtype=np.int64)
        v = rng.integers(0, n, size=draw, dtype=np.int64)
        ok = u != v
        cand = np.concatenate([keys, np.minimum(u, v)[ok] * n + np.maximum(u, v)[ok]])
        _, first = np.unique(cand, return_index=True)
        keys = cand[np.sort(first)]
    keys = np.sort(keys[:m])
    return list(zip((keys // n).tolist(), (keys % n).tolist()))


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the inputs of one run and return the job list of one pass."""
    if workload == "pipeline-dense":
        return _pipeline(workdir, np.random.default_rng([seed, 0]), DENSE)
    if workload == "pipeline-sparse":
        return _pipeline(workdir, np.random.default_rng([seed, 1]),
                         [(n, deg / (n - 1)) for n, deg in SPARSE])
    if workload == "exact":
        return _exact(workdir, np.random.default_rng([seed, 2]), load_golden()["exact"])
    if workload == "probe":
        return _probe(workdir, np.random.default_rng([seed, 3]), load_golden()["probe"])
    raise ValueError(f"unknown workload {workload!r}")


def _pipeline(workdir: str, rng, configs) -> list[Job]:
    jobs = []
    for n, p in configs:
        name = f"n{n}-p{p:.4g}"
        graph = os.path.join(workdir, f"{name}.txt")
        write_graph(graph, n, gnp_edges(n, p, rng))
        report = os.path.join(workdir, f"{name}.report.json")
        jobs.append(
            Job(f"decompose:{name}", ["decompose", graph, "--report", report],
                "decompose", report, {"graph": graph})
        )
    return jobs


def _exact(workdir: str, rng, golden: dict) -> list[Job]:
    tmax_pool, theta_pool = golden["tmax_pool"], golden["theta_pool"]
    entries = list(golden["fixed"])
    for pool, picks in ((tmax_pool, EXACT_TMAX_PICKS), (theta_pool, EXACT_THETA_PICKS)):
        entries += [pool[i] for i in sorted(rng.choice(len(pool), picks, replace=False))]
    jobs = []
    for entry in entries:
        name = entry["name"]
        graph = os.path.join(workdir, f"{name}.txt")
        write_graph(graph, entry["n"], [tuple(e) for e in entry["edges"]])
        for mode in ("tmax", "theta", "colourable"):
            if mode in entry:
                out = os.path.join(workdir, f"{name}.{mode}.txt")
                jobs.append(Job(f"{mode}:{name}", ["solve", graph, "--mode", mode, "-o", out],
                                mode, out, {"graph": graph, "answer": entry[mode],
                                            "s": entry.get("s")}))
        if "bound_k3" in entry:
            jobs.append(Job(f"bound:{name}", ["bound", graph, "--k", "3"], "bound", None,
                            {"graph": graph, "answer": entry["bound_k3"]}))
    return jobs


def partitions(doc: dict, pool_seed: int) -> dict[str, dict]:
    """The three partition strategies of scripts/probe_lower_bound.py, as
    partition JSON documents over a gen-lower output."""
    tagged = sorted((min(b, a), max(b, a), layer) for b, a, layer in doc["edges"])
    edges = [[u, v] for u, v, _ in tagged]
    rng = np.random.default_rng([pool_seed, 4])
    labels = {
        "single-part": [0] * len(edges),
        "layers-as-parts": [layer - 1 for _, _, layer in tagged],
        "random-4-parts": rng.integers(0, 4, size=len(edges)).tolist(),
    }
    return {name: {"edges": edges, "parts": labels[name]} for name in STRATEGIES}


def gen_lower_argv(n: int, pool_seed: int, out: str) -> list[str]:
    return ["gen-lower", *PROBE_ARGS, "--n", str(n), "--seed", str(pool_seed), "-o", out]


def probe_argv(layered: str, partition: str, report: str) -> list[str]:
    return ["probe", layered, partition, "--report", report,
            "--budget-scale", PROBE_BUDGET_SCALE]


def _probe(workdir: str, rng, golden: dict) -> list[Job]:
    jobs = []
    for pool in golden["pools"]:
        n = pool["n"]
        always = [m for m in pool["members"] if {"n": n, "seed": m["seed"]} == PROBE_ALWAYS]
        others = [m for m in pool["members"] if m not in always]
        picks = sorted(rng.choice(len(others), PROBE_PICKS, replace=False))
        for member in always + [others[i] for i in picks]:
            name = f"n{n}-s{member['seed']}"
            layered = os.path.join(workdir, f"{name}.layered.json")
            with contextlib.redirect_stdout(io.StringIO()):
                ilab_main(gen_lower_argv(n, member["seed"], layered))
            out = os.path.join(workdir, f"{name}.gen.json")
            jobs.append(Job(f"gen-lower:{name}", gen_lower_argv(n, member["seed"], out),
                            "gen-lower", out, {"sha256": member["sha256"]}))
            with open(layered, encoding="utf-8") as fh:
                docs = partitions(json.load(fh), member["seed"])
            for strategy, part_doc in docs.items():
                part = os.path.join(workdir, f"{name}.{strategy}.json")
                with open(part, "w", encoding="utf-8") as fh:
                    json.dump(part_doc, fh)
                report = os.path.join(workdir, f"{name}.{strategy}.report.json")
                jobs.append(Job(f"probe:{name}:{strategy}",
                                probe_argv(layered, part, report), "probe", report,
                                member["outcomes"][strategy]))
    return jobs



# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def probe_outcome(stdout: str) -> str:
    last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    if last.startswith("refuted"):
        return "refuted"
    if last.startswith("exhausted"):
        return "exhausted"
    if last.startswith("partition survived"):
        return "survived"
    return f"unrecognised: {last[:60]!r}"


def check(job: Job, code: int, stdout: str) -> tuple[list[str], dict]:
    """Independent verdict on one job: (problems, digest).

    The digest holds the job's output SHA-256 and its answer (part count,
    t, theta or probe outcome), so two runs can be compared by diff.
    """
    digest: dict = {"job": job.key, "exit": code}
    if job.out and os.path.exists(job.out):
        digest["sha256"] = sha256_file(job.out)
    problems: list[str] = []
    e = job.expect
    if job.kind == "decompose":
        if code != 0 or "all parts verified interval" not in stdout:
            return [f"exit {code}, output {stdout[-200:]!r}"], digest
        n, edges = checker.read_graph_text(e["graph"])
        doc = checker.read_json(job.out)
        digest["parts"] = doc["part_count"]
        problems = checker.check_decompose_report(n, edges, doc)
    elif job.kind == "tmax":
        t = _number_after(stdout, "maximum interval colours:")
        digest["t"] = t
        if code != 0 or t != e["answer"]:
            return [f"exit {code}, t={t}, golden t={e['answer']}"], digest
        if e["s"] is not None and t != 3 * e["s"] - 2:  # t = 1.5n - 2 on the family, n = 2s
            problems.append(f"family s={e['s']}: t={t} is not 1.5n-2")
        _, edges = checker.read_graph_text(e["graph"])
        problems += checker.check_interval_witness(
            edges, checker.read_colouring_text(job.out), t)
    elif job.kind == "theta":
        theta = _number_after(stdout, "interval thickness:")
        digest["theta"] = digest["parts"] = theta
        if code != 0 or theta != e["answer"]:
            return [f"exit {code}, theta={theta}, golden {e['answer']}"], digest
        _, edges = checker.read_graph_text(e["graph"])
        problems = checker.check_theta_witness(
            edges, checker.read_colouring_text(job.out), theta)
    elif job.kind == "colourable":
        digest["colourable"] = code == 0
        if e["answer"]:
            if code != 0:
                return [f"exit {code}, expected a colouring"], digest
            _, edges = checker.read_graph_text(e["graph"])
            problems = checker.check_interval_witness(
                edges, checker.read_colouring_text(job.out), None)
        elif code != 1 or "not interval colourable" not in stdout:
            problems = [f"exit {code}, expected 'not interval colourable'"]
    elif job.kind == "bound":
        n, _ = checker.read_graph_text(e["graph"])
        expected = f"colour bound (k/2)n+1-k = {1.5 * n - 2:g}"
        if code != (0 if e["answer"] else 1) or (e["answer"] and expected not in stdout):
            problems = [f"exit {code}, output {stdout[-200:]!r}"]
    elif job.kind == "gen-lower":
        if code != 0 or digest.get("sha256") != e["sha256"]:
            problems = [f"exit {code}, sha256 differs from the golden gen-lower output"]
    elif job.kind == "probe":
        outcome = probe_outcome(stdout)
        digest["outcome"] = outcome
        if "WITNESS FAILED" in stdout:
            return ["a spread witness failed revalidation"], digest
        if code != e["exit"] or outcome != e["outcome"]:
            return [f"exit {code} {outcome}, golden exit {e['exit']} {e['outcome']}"], digest
        doc = checker.read_json(job.out)
        digest["parts"] = len(doc["used_parts"])
        seen = {"refuted": doc["refuted"], "used_parts": len(doc["used_parts"]),
                "overruns": len(doc["overruns"]), "witnesses": len(doc["witnesses"])}
        want = {"refuted": e["outcome"] == "refuted", "used_parts": e["used_parts"],
                "overruns": e["overruns"], "witnesses": e["witnesses"]}
        if seen != want:
            problems = [f"report {seen}, golden {want}"]
    else:
        problems = [f"unknown job kind {job.kind!r}"]
    return problems, digest


def quality_parts(digests: list[dict]) -> int:
    """Parts in one pass's outputs: decompose parts, theta parts, probe parts."""
    return sum(d.get("parts", 0) for d in digests)


def _number_after(stdout: str, prefix: str) -> int | None:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            try:
                return int(line[len(prefix):].strip())
            except ValueError:
                return None
    return None
