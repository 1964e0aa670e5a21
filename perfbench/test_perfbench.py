"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 -m pytest -q perfbench

The last three start real (short) benchmark runs and take about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checker  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ilab.cli import main as ilab_main  # noqa: E402


def decompose_report(tmp_path) -> tuple[int, set, dict]:
    graph = str(tmp_path / "g.txt")
    report = str(tmp_path / "r.json")
    workloads.write_graph(graph, 40, [(u, v) for u in range(40) for v in range(u + 1, 40)
                                      if (u * v + u + v) % 3 == 0])
    with contextlib.redirect_stdout(io.StringIO()):
        assert ilab_main(["decompose", graph, "--report", report]) == 0
    n, edges = checker.read_graph_text(graph)
    return n, edges, checker.read_json(report)


def test_checker_accepts_a_real_report_and_rejects_a_broken_colouring(tmp_path):
    n, edges, doc = decompose_report(tmp_path)
    assert checker.check_decompose_report(n, edges, doc) == []
    part = max(doc["parts"], key=lambda p: len(p["edges"]))
    part["colours"][0] = part["colours"][1]  # two edges at a vertex now clash or gap
    problems = checker.check_decompose_report(n, edges, doc)
    assert problems and "part" in problems[0]


def test_checker_rejects_a_partition_that_drops_an_edge(tmp_path):
    n, edges, doc = decompose_report(tmp_path)
    part = max(doc["parts"], key=lambda p: len(p["edges"]))
    del part["edges"][-1], part["colours"][-1]
    problems = checker.check_decompose_report(n, edges, doc)
    assert problems and "in no part" in problems[0]


def test_checker_colouring_rules():
    assert checker.colouring_problems({(0, 1): 0, (1, 2): 1, (2, 3): 2}) == []
    assert "repeats" in checker.colouring_problems({(0, 1): 0, (1, 2): 0})[0]
    assert "contiguous" in checker.colouring_problems({(0, 1): 0, (1, 2): 2})[0]
    triangle = [(0, 1), (0, 2), (1, 2)]
    assert not checker.interval_colourable(triangle)
    assert checker.interval_colourable(triangle[:2] + [(2, 3), (3, 4)])
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    assert checker.interval_colourable(k4)


def test_traced_run_restores_every_attribute(tmp_path):
    targets = []
    for module, path, _, _ in spans.TARGETS:
        owner, attr = spans.resolve(module, path)
        targets.append((owner, attr, vars(owner)[attr]))
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            decompose_report(tmp_path)
            raise RuntimeError("leave the block early")
    for owner, attr, original in targets:
        assert vars(owner)[attr] is original, f"{owner}.{attr} was not restored"
    metrics = spans.layer_metrics(tracer, 1)
    assert metrics["decompose.bit_split.s"] > 0
    assert metrics["graphs.parse.calls"] == 1


def bench(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def traced_metrics(workload: str) -> dict:
    proc = bench(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_sparse_pipeline_makes_no_flow_calls():
    metrics = traced_metrics("pipeline-sparse")
    assert metrics["flows.max_flow.calls"] == 0
    assert metrics["decompose.find_k_factor.calls"] == 0
    assert metrics["randlab.adversarial_probe.self_s"] == 0


def test_dense_pipeline_has_failing_flows():
    metrics = traced_metrics("pipeline-dense")
    assert metrics["decompose.find_k_factor.failed"] > 0
    assert metrics["flows.max_flow.calls"] == metrics["decompose.find_k_factor.calls"]
    assert 0 < metrics["decompose.find_k_factor.useful_ratio"] < 1


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(["--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
