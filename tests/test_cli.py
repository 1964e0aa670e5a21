"""End-to-end command-line behaviour: output lines, files, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from functools import cached_property

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ilab.decompose as dec
from conftest import random_graph
from test_randlab import planted_instance
from ilab.cli import main
from ilab.colouring import verify
from ilab.formats import (
    parse_colouring_text,
    parse_layered_json,
    serialize_colouring_json,
    serialize_colouring_text,
    serialize_graph_json,
    serialize_graph_text,
    serialize_layered_json,
)
from ilab.graphs import BipartiteGraph, Graph
from ilab.planar import SPARSITY_CORE_EDGE_LIMIT, FamilySpec, extremal_family
from ilab.randlab import LowerBoundParams, adversarial_probe, generate

TRIANGLE = "3 3\n0 1\n0 2\n1 2\n"
K4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
C4 = "4 4\n0 1\n0 3\n1 2\n2 3\n"
PETERSEN = (
    "10 15\n0 1\n1 2\n2 3\n3 4\n0 4\n5 7\n6 8\n7 9\n5 8\n6 9\n"
    "0 5\n1 6\n2 7\n3 8\n4 9\n"
)
PATH = "3 2\n0 1\n1 2\n"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


class TestCheck:
    def test_good_colouring(self, capsys, files):
        g = files("p.txt", PATH)
        c = files("c.txt", "3 2\n0 1 0\n1 2 1\n")
        code, out, _ = run(capsys, "check", g, c)
        assert code == 0 and out == "interval, 2 colours\n"

    def test_gap_is_proper_but_not_interval(self, capsys, files):
        g = files("p.txt", PATH)
        c = files("c.txt", "3 2\n0 1 0\n1 2 2\n")
        code, out, _ = run(capsys, "check", g, c)
        assert code == 1 and out.startswith("proper, not interval: vertex 1")

    def test_repeat_is_not_proper(self, capsys, files):
        g = files("p.txt", PATH)
        c = files("c.txt", "3 2\n0 1 0\n1 2 0\n")
        code, out, _ = run(capsys, "check", g, c)
        assert code == 1 and out.startswith("not proper")

    def test_colours_beyond_int64_are_exact(self, capsys, files):
        # 10**30 does not fit a machine integer; cast to one it would not stay 1 apart
        g = files("p.txt", PATH)
        c = files("c.txt", f"3 2\n0 1 {10**30}\n1 2 {10**30 + 1}\n")
        code, out, _ = run(capsys, "check", g, c)
        assert code == 0 and out == "interval, 2 colours\n"

    def test_mismatched_files(self, capsys, files):
        g = files("t.txt", TRIANGLE)
        c = files("c.txt", "3 2\n0 1 0\n1 2 1\n")
        code, _, err = run(capsys, "check", g, c)
        assert code == 2 and "does not describe" in err

    def test_missing_file(self, capsys, files):
        code, _, err = run(capsys, "check", files("t.txt", TRIANGLE), "/nope.txt")
        assert code == 2 and err.startswith("error:")


class TestSolve:
    def test_triangle_not_colourable(self, capsys, files):
        code, out, _ = run(capsys, "solve", files("t.txt", TRIANGLE))
        assert code == 1 and out == "not interval colourable\n"

    def test_solution_file_round_trips_through_check(self, capsys, files):
        g = files("k4.txt", K4)
        out_file = g.replace("k4", "c")
        code, out, _ = run(capsys, "solve", g, "--mode", "tmax", "-o", out_file)
        assert code == 0 and out == "maximum interval colours: 4\n"
        code, out, _ = run(capsys, "check", g, out_file)
        assert code == 0 and out == "interval, 4 colours\n"

    def test_json_output(self, capsys, files):
        g = files("c4.txt", C4)
        out_file = g.replace("c4.txt", "c.json")
        code, out, _ = run(capsys, "solve", g, "--mode", "tmax", "-o", out_file)
        assert code == 0 and out == "maximum interval colours: 3\n"
        code, out, _ = run(capsys, "check", g, out_file)
        assert code == 0 and out == "interval, 3 colours\n"

    def test_thickness(self, capsys, files):
        g = files("t.txt", TRIANGLE)
        code, out, _ = run(capsys, "solve", g, "--mode", "theta")
        assert code == 0 and out == "interval thickness: 2\n"
        code, out, _ = run(capsys, "solve", g, "--mode", "theta", "--kmax", "1")
        assert code == 1 and out == "interval thickness exceeds 1\n"

    def test_palette_below_degree(self, capsys, files):
        code, out, _ = run(capsys, "solve", files("k4.txt", K4), "--max-colours", "2")
        assert code == 1 and out == "not interval colourable within 2 colours\n"

    def test_capped_refutation_is_a_negative_answer(self, capsys, files):
        # Petersen is not overfull, so refuting it needs its whole window
        g = files("petersen.txt", PETERSEN)
        code, out, _ = run(capsys, "solve", g, "--max-colours", "3")
        assert code == 1 and out == "not interval colourable within 3 colours\n"

    def test_cap_below_the_only_colour_count(self, capsys, files):
        # every interval colouring of this graph uses exactly 5 colours
        g = files("g.txt", "5 8\n0 1\n0 2\n0 4\n1 2\n1 4\n2 3\n2 4\n3 4\n")
        code, out, _ = run(capsys, "solve", g, "--max-colours", "4")
        assert code == 1 and out == "not interval colourable within 4 colours\n"
        code, out, _ = run(capsys, "solve", g, "--max-colours", "5")
        assert code == 0 and out == "interval colouring with 5 colours\n"

    def test_cap_below_one_is_usage_error(self, capsys, files):
        code, out, err = run(capsys, "solve", files("k4.txt", K4), "--max-colours", "0")
        assert code == 2 and out == "" and err == "error: max_colours must be >= 1\n"

    @pytest.mark.parametrize("mode", ["tmax", "theta"])
    def test_palette_cap_is_colourable_mode_only(self, capsys, files, mode):
        g = files("k4.txt", K4)
        code, out, err = run(capsys, "solve", g, "--mode", mode, "--max-colours", "3")
        assert code == 2 and out == ""
        assert err == "error: --max-colours applies to --mode colourable only\n"

    @pytest.mark.parametrize("mode", ["colourable", "tmax"])
    def test_kmax_is_theta_mode_only(self, capsys, files, mode):
        g = files("k4.txt", K4)
        code, out, err = run(capsys, "solve", g, "--mode", mode, "--kmax", "9")
        assert code == 2 and out == ""
        assert err == "error: --kmax applies to --mode theta only\n"

    @pytest.mark.parametrize("argv,config", [
        ([], {"mode": "colourable", "max_colours": None}),
        (["--max-colours", "4"], {"mode": "colourable", "max_colours": 4}),
        (["--mode", "tmax"], {"mode": "tmax"}),
        (["--mode", "theta"], {"mode": "theta", "kmax": 4}),
        (["--mode", "theta", "--kmax", "2"], {"mode": "theta", "kmax": 2}),
    ], ids=["colourable", "capped", "tmax", "theta", "theta-kmax"])
    def test_manifest_echoes_only_what_the_mode_reads(self, capsys, files, tmp_path, argv, config):
        manifest = tmp_path / "m.json"
        code, _, _ = run(capsys, "solve", files("k4.txt", K4), *argv, "--manifest", manifest)
        assert code == 0
        assert json.loads(manifest.read_text())["config"] == config

    @pytest.mark.parametrize("limit", ["0", "nan", "-5", "inf"])
    def test_time_limit_must_be_positive(self, capsys, files, limit):
        code, out, err = run(capsys, "solve", files("k4.txt", K4), "--time-limit", limit)
        assert code == 2 and out == ""
        assert err.startswith("error: time_limit must be positive") and err.count("\n") == 1

    def test_time_limit_exhaustion(self, capsys, files):
        # refuting the Petersen graph takes 2381 nodes; the clock is read every 1024
        g = files("petersen.txt", PETERSEN)
        code, out, _ = run(capsys, "solve", g, "--time-limit", "1e-9")
        assert code == 3 and out == "budget exhausted: time limit exceeded\n"

    @pytest.mark.parametrize("mode,line", [
        ("colourable", "interval colouring with 1299 colours\n"),
        ("tmax", "maximum interval colours: 1299\n"),
        ("theta", "interval thickness: 1\n"),
    ], ids=["colourable", "tmax", "theta"])
    def test_long_path_has_no_depth_limit(self, capsys, files, mode, line):
        # one component of 1299 edges: each search goes one level deeper per
        # edge, past the interpreter's default recursion limit of 1000
        g = files("p.txt", "1300 1299\n" + "".join(f"{i} {i + 1}\n" for i in range(1299)))
        code, out, err = run(capsys, "solve", g, "--mode", mode)
        assert code == 0 and err == "" and out == line

    # tmax is left out: after its first colouring, max_colours' palette
    # search on this path exhausts any moderate node budget (a known defect)
    @pytest.mark.parametrize("mode,line", [
        ("colourable", "interval colouring with 3611 colours\n"),
        ("theta", "interval thickness: 1\n"),
    ])
    def test_shuffled_long_path(self, capsys, files, mode, line):
        # shuffled labels start the connected edge order mid-path, and each
        # next edge is the smallest one at either end of the prefix
        n = 4000
        label = list(range(n))
        random.Random(0).shuffle(label)
        rows = "".join(f"{label[i]} {label[i + 1]}\n" for i in range(n - 1))
        g = files("p.txt", f"{n} {n - 1}\n{rows}")
        code, out, err = run(capsys, "solve", g, "--mode", mode)
        assert code == 0 and err == "" and out == line


class TestDecompose:
    def test_report_and_rerun_identical(self, capsys, files, tmp_path):
        edges = [(u, v) for u in range(10) for v in range(u + 1, 10) if (u * v) % 3]
        g = files(
            "g.txt", f"10 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        )
        r1, r2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        code, out, _ = run(capsys, "decompose", g, "--report", r1)
        assert code == 0 and "all parts verified interval" in out
        run(capsys, "decompose", g, "--report", r2)
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
        doc = json.loads((tmp_path / "r1.json").read_text())
        assert doc["m"] == len(edges) and len(doc["parts"]) == doc["part_count"]
        assert [p["index"] for p in doc["parts"]] == list(range(doc["part_count"]))

    @pytest.mark.parametrize("change", ["edge-in-two-parts", "edge-in-no-part"])
    def test_parts_must_cover_each_edge_once(self, capsys, files, monkeypatch, change):
        # the path's layer-0 edges form a factor and (1, 2) is the one forest;
        # every part is still interval, so only the cover check can fail
        first_fit = dec.forest_partition

        def broken(g):
            *forests, last = first_fit(g)
            if change == "edge-in-two-parts":
                return [*forests, last, Graph(g.vertex_count, last.edges[:1])]
            return [*forests, Graph(g.vertex_count, last.edges[1:])]

        monkeypatch.setattr(dec, "forest_partition", broken)
        code, out, err = run(capsys, "decompose", files("p.txt", "4 3\n0 1\n1 2\n2 3\n"))
        assert code == 1 and err == ""
        assert out.endswith("\nPART VERIFICATION FAILED\n")

    @pytest.mark.parametrize("n,p,seed,digest", [
        pytest.param(200, 0.7, 0, "c92ffb16a2e0c6d55334367a7948286212a5a24ca69f8b193539b2f5c3875a17",
                     id="200-0.7-0"),
        pytest.param(100, 0.8, 1, "b890d2349dba4d55598bb2b1d264d23d6b9ad21d7edd928c67e62f0808195ab0",
                     id="100-0.8-1"),
        pytest.param(150, 0.9, 2, "641e672c48ff0c9cdbc1822cb7815f98347a6c931c66352b61a4e1f4ff8d92a3",
                     id="150-0.9-2"),
        pytest.param(60, 0.9, 4, "6c890f2f3b692d758ee1a4603fde36800c1ce3020ea0630d8d2140d396a7db44",
                     id="60-0.9-4"),
    ])
    def test_report_bytes_are_frozen(self, capsys, monkeypatch, tmp_path, n, p, seed, digest):
        # padded G(n, p): some layers are dense enough for factors, the
        # padding leaves vertices of degree < k, so the increment restricts
        # from the degree table without a factor search; the report and
        # stdout bytes are pinned by SHA-256
        seen = {"searches": 0, "degree_route": 0, "restrictions": 0}
        find, step = dec.find_k_factor, dec.density_increment_step

        def counting_find(b, k):
            seen["searches"] += 1
            return find(b, k)

        def counting_step(b, cfg):
            before = seen["searches"]
            s = step(b, cfg)
            seen["restrictions"] += s.kind == "restriction"
            seen["degree_route"] += s.kind == "restriction" and seen["searches"] == before
            return s

        monkeypatch.setattr(dec, "find_k_factor", counting_find)
        monkeypatch.setattr(dec, "density_increment_step", counting_step)
        edges = random_graph(n, p, seed)
        g = tmp_path / "g.txt"
        g.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        report = tmp_path / "r.json"
        code, out, err = run(capsys, "decompose", g, "--report", report)
        assert code == 0 and err == ""
        assert seen["degree_route"] > 0 and seen["restrictions"] > 0, seen
        got = hashlib.sha256(report.read_bytes() + out.encode()).hexdigest()
        assert got == digest

    @pytest.mark.parametrize("n,degree,seed,digest", [
        pytest.param(3000, 6, 0, "8bd9cd4f1ce0819d0cd1d7e3f0f0bdb5373ce659fdb91eec5f4268b6967ea4a8",
                     id="3000-6-0"),
        pytest.param(2050, 4, 1, "d6f2276eb267f6e7b90835d5f29730ddb86015d07bd76be596312aec4b29387c",
                     id="2050-4-1"),
    ])
    def test_sparse_report_bytes_are_frozen(self, capsys, tmp_path, n, degree, seed, digest):
        # below every layer's density threshold, so every part is a first-fit
        # forest on far fewer edges than vertices; at n = 2050 the ids pad to
        # 4096 and some vertices have no edge at all
        edges = random_graph(n, degree / (n - 1), seed)
        g = tmp_path / "g.txt"
        g.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        report = tmp_path / "r.json"
        code, out, err = run(capsys, "decompose", g, "--report", report)
        assert code == 0 and err == ""
        assert "(0 regular, " in out and "all parts verified interval" in out
        got = hashlib.sha256(report.read_bytes() + out.encode()).hexdigest()
        assert got == digest


class TestGenLower:
    ARGS = ["--r", "2", "--n", "300", "--delta", "0.2", "--epsilon", "0.005"]

    def test_layer_lines_and_determinism(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        code, out, _ = run(capsys, "gen-lower", *self.ARGS, "-o", a)
        assert code == 0
        assert out.splitlines()[0].startswith("layer 1: |A_1| = 60, p = 0.025")
        run(capsys, "gen-lower", *self.ARGS, "-o", b)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_manifest_digests(self, capsys, tmp_path):
        out_file = tmp_path / "lb.json"
        manifest_file = tmp_path / "m.json"
        run(capsys, "gen-lower", *self.ARGS, "-o", str(out_file),
            "--manifest", str(manifest_file))
        manifest = json.loads(manifest_file.read_text())
        digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
        assert manifest["outputs"][str(out_file)] == digest
        assert manifest["config"]["r"] == 2 and manifest["exit_code"] == 0
        assert manifest["config"]["seed"] == 0

    def test_zero_layers_is_usage_error(self, capsys, tmp_path):
        # the default delta is 1/(1000 r), so r = 0 must be refused before it
        code, out, err = run(capsys, "gen-lower", "--r", "0", "--n", "10",
                             "-o", str(tmp_path / "lb.json"))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--r" in err
        assert not (tmp_path / "lb.json").exists()

    def test_negative_seed_is_usage_error(self, capsys, tmp_path):
        # numpy refuses a negative seed too, but without naming the option
        code, out, err = run(capsys, "gen-lower", "--r", "2", "--n", "50", "--delta", "0.2",
                             "--epsilon", "0.01", "--seed", "-1", "-o", str(tmp_path / "lb.json"))
        assert code == 2 and out == ""
        assert err == "error: --seed must be non-negative, got -1\n"
        assert not (tmp_path / "lb.json").exists()

    def test_nan_epsilon_is_usage_error(self, capsys, tmp_path):
        # the layered reader only takes finite numbers, so neither may the writer
        code, _, err = run(capsys, "gen-lower", "--r", "2", "--n", "10", "--epsilon", "nan",
                           "-o", str(tmp_path / "lb.json"))
        assert code == 2 and err == "error: epsilon must be positive\n"
        assert not (tmp_path / "lb.json").exists()

    def test_underflowing_default_epsilon_is_usage_error(self, capsys, tmp_path):
        # delta^(r+2) = (1/70000)^72 is below the smallest float
        code, out, err = run(capsys, "gen-lower", "--r", "70", "--n", "10",
                             "-o", str(tmp_path / "lb.json"))
        assert code == 2 and out == ""
        assert err == "error: the default --epsilon, delta^(r+2), underflows to 0; pass --epsilon\n"
        assert not (tmp_path / "lb.json").exists()


@pytest.fixture
def layered(capsys, tmp_path):
    path = str(tmp_path / "lb.json")
    run(capsys, "gen-lower", *TestGenLower.ARGS, "-o", path)
    return path, parse_layered_json((tmp_path / "lb.json").read_text())


def write_partition(tmp_path, lb, label):
    edges = [list(e) for e in lb.all_edges()]
    doc = {"edges": edges, "parts": [label(tuple(e)) for e in edges]}
    p = tmp_path / "parts.json"
    p.write_text(json.dumps(doc))
    return str(p)


class TestProbe:
    def test_single_part_is_refuted(self, capsys, tmp_path, layered):
        path, lb = layered
        parts = write_partition(tmp_path, lb, lambda e: 0)
        code, out, _ = run(capsys, "probe", path, parts)
        assert code == 0 and "refuted: forced part repeat at stage 2" in out
        assert "[forced repeat]" in out

    def test_layers_as_parts_survive(self, capsys, tmp_path, layered):
        path, lb = layered
        layer_of = {}
        for i, g in enumerate(lb.layer_graphs):
            for u, v in g.edges:
                layer_of[(u, v)] = i
        parts = write_partition(tmp_path, lb, lambda e: layer_of[e])
        code, out, _ = run(capsys, "probe", path, parts, "--report",
                           str(tmp_path / "probe.json"))
        assert code == 1 and "partition survived all 2 stages" in out
        doc = json.loads((tmp_path / "probe.json").read_text())
        assert doc["refuted"] is False and len(doc["stages"]) == 2

    def test_colours_alias_for_parts_key(self, capsys, tmp_path, layered):
        path, lb = layered
        edges = [list(e) for e in lb.all_edges()]
        p = tmp_path / "parts.json"
        p.write_text(json.dumps({"edges": edges, "colours": [0] * len(edges)}))
        code, out, _ = run(capsys, "probe", path, str(p))
        assert code == 0 and "refuted" in out

    def test_uncovered_edge_rejected(self, capsys, tmp_path, layered):
        path, lb = layered
        edges = [list(e) for e in lb.all_edges()][:-1]
        p = tmp_path / "parts.json"
        p.write_text(json.dumps({"edges": edges, "parts": [0] * len(edges)}))
        code, _, err = run(capsys, "probe", path, str(p))
        assert code == 2 and "partition does not cover edge" in err

    def test_length_mismatch_rejected(self, capsys, tmp_path, layered):
        path, _ = layered
        p = tmp_path / "parts.json"
        p.write_text(json.dumps({"edges": [[0, 300]], "parts": [0, 1]}))
        code, _, err = run(capsys, "probe", path, str(p))
        assert code == 2 and "1 edges but 2 part labels" in err

    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
    def test_budget_scale_must_be_positive(self, capsys, tmp_path, layered, scale):
        path, lb = layered
        parts = write_partition(tmp_path, lb, lambda e: 0)
        report = tmp_path / "probe.json"
        code, out, err = run(capsys, "probe", path, parts, "--budget-scale", scale,
                             "--report", str(report))
        assert code == 2 and out == "" and not report.exists()
        assert err.startswith("error: budget_scale must be positive") and err.count("\n") == 1


def probe_partition(lb, strategy, seed):
    """One of scripts/probe_lower_bound.py's three strategies, as partition JSON."""
    edges = lb.all_edges()
    if strategy == "single-part":
        labels = [0] * len(edges)
    elif strategy == "layers-as-parts":
        layer_of = {e: i for i, g in enumerate(lb.layer_graphs) for e in g.edges}
        labels = [layer_of[e] for e in edges]
    else:  # random-4-parts
        rng = random.Random(seed)
        labels = [rng.randrange(4) for _ in edges]
    return json.dumps({"edges": [list(e) for e in edges], "parts": labels})


def probe_outcomes(doc, out):
    """What a probe run went through, read from its report and stdout."""
    tags = set()
    if doc["witnesses"]:
        tags.add("witness")
    if doc["overruns"]:
        tags.add("overrun")
    if any(st["forced_repeat"] for st in doc["stages"]):
        tags.add("repeat")
    if "partition survived all" in out:
        tags.add("survived")
    return tags


# (n, seed, strategy, budget scale, outcomes, SHA-256 of report + stdout);
# n = None is the planted witness instance of tests/test_randlab.py
FROZEN_PROBES = [
    (100, 0, "single-part", "1", {"repeat"},
     "b55f1c82b39847afd8fc7eb24279be8b94fc267a058aef171d8217ac7d4745ec"),
    (100, 0, "single-part", "0.1", {"overrun", "repeat"},
     "5dde35311a280aceb97a95f67a69c1db87e246ebcc3d98ce84d3aa0d3dd2a120"),
    (100, 0, "layers-as-parts", "1", {"survived"},
     "dce324aefcf1a23dca69681bf38cd42d61c1f076a2b45e0409b9ec104394b8c8"),
    (100, 0, "layers-as-parts", "0.1", {"survived"},
     "0392a657357bd13a29ccf00ed10dc2aa46abc9ef14d3eb18da788023a5b57600"),
    (100, 0, "random-4-parts", "1", set(),
     "a373ce14811f2618b770313da8e93580e34c058dfa8fed08f5e5587c9d421925"),
    (100, 0, "random-4-parts", "0.1", set(),
     "d6163ac90af7b06e04c19fb023f3eaf64299ff94b5e2a13ca7c0bbca024fae05"),
    (100, 1, "single-part", "1", {"repeat"},
     "8cdbddf86099c639de52f05f3e20064ba8f6c67d429c874d901de4f1529de9a7"),
    (100, 1, "single-part", "0.1", {"overrun", "repeat"},
     "31fce0b777bee8621afd01ded8ddb997970b87493146dd08a75d22f32190a2a5"),
    (100, 1, "layers-as-parts", "1", {"survived"},
     "14411a20f1d824c274a48138704096ce47f07e077496163440f3c4c8736e9f82"),
    (100, 1, "layers-as-parts", "0.1", {"survived"},
     "c63fc439d2e176d85e8e00ed07740079df4d6e51c1c53440fdd2d8f9a75fe167"),
    (100, 1, "random-4-parts", "1", {"repeat"},
     "b8782dbde4b02dac8e12ac5eeff125e679ed489fab7c30c6e689c57b680b1169"),
    (100, 1, "random-4-parts", "0.1", {"repeat"},
     "57b8739785fb04a36f753ddb5274faee63589fddecb9b89509328ff75f03f6c7"),
    (300, 0, "single-part", "1", {"repeat"},
     "d2b0d39b3a755e80dc5613bb2dbcc5a2eee54822a852a60791b8cbc213293740"),
    (300, 0, "single-part", "0.1", {"overrun", "repeat"},
     "bce76f151578c3fd36c77da7bc47a4a6c6fdfa193b60c4a21ae2ef154402a528"),
    (300, 0, "layers-as-parts", "1", {"survived"},
     "51fe496f014edfba09258c0dc3e37b36eb8984bfac65d8b6402b010ab762feeb"),
    (300, 0, "layers-as-parts", "0.1", {"survived"},
     "00e1a7fbc2076fd65357e71521b3553481525842d6626878a0008ef20472d359"),
    (300, 0, "random-4-parts", "1", {"repeat"},
     "656eb79023aec22c8c5f9ad301b75197feddb0f3665861306fea66e018f8456b"),
    (300, 0, "random-4-parts", "0.1", {"repeat"},
     "f0ff1f2136b4216a7259077259e38c21adb27330c2539099e8e3421284bbc49e"),
    (300, 1, "single-part", "1", {"repeat"},
     "270ea9b6f65678a2fd7b96f2bf9c41b1959c80179af5915caa5ffe862651ba2d"),
    (300, 1, "single-part", "0.1", {"overrun", "repeat"},
     "5627e324272c8a8fef783bf9b71859315dd242a8d9e9779a5a09fede7dfaf4eb"),
    (300, 1, "layers-as-parts", "1", {"survived"},
     "0f3efe6d227f05be0f629107dacdebfd8f3cedbf8f0e44d6bcfb5ae4dbbb3cc5"),
    (300, 1, "layers-as-parts", "0.1", {"survived"},
     "993f7fe31c20428ed17be3a8740394f428c962f2e33b98a6774c70ba037bc26e"),
    (300, 1, "random-4-parts", "1", {"survived"},
     "87c8092051aadb7b78f1f59e0563e4c99f466d0c91331f0b1c96bf1f510b8c81"),
    (300, 1, "random-4-parts", "0.1", {"survived"},
     "cc03027db274911d9ffa65f1a5144e6bfa2b0f00aa6401df567a200ce43dcc04"),
    (None, 0, "single-part", "1", {"witness"},
     "042728df751bd479b5bacca796eb3cfa56f1693b138659f2ebf242d267aac601"),
]


@pytest.mark.parametrize(
    "n,seed,strategy,scale,outcomes,digest", FROZEN_PROBES,
    ids=[f"n{c[0] or '-planted'}-s{c[1]}-{c[2]}-x{c[3]}" for c in FROZEN_PROBES],
)
def test_probe_bytes_are_frozen(capsys, tmp_path, n, seed, strategy, scale, outcomes, digest):
    layered = tmp_path / "lb.json"
    if n is None:
        lb, _ = planted_instance()
        layered.write_text(serialize_layered_json(lb))
    else:
        code, _, _ = run(capsys, "gen-lower", "--r", "3", "--delta", "0.2", "--epsilon",
                         "0.005", "--n", n, "--seed", seed, "-o", layered)
        assert code == 0
        lb = parse_layered_json(layered.read_text())
    parts = tmp_path / "parts.json"
    parts.write_text(probe_partition(lb, strategy, seed))
    report = tmp_path / "probe.json"
    code, out, err = run(capsys, "probe", layered, parts, "--report", report,
                         "--budget-scale", scale)
    assert code in (0, 1) and err == ""
    assert probe_outcomes(json.loads(report.read_text()), out) == outcomes
    assert hashlib.sha256(report.read_bytes() + out.encode()).hexdigest() == digest


@pytest.mark.parametrize("route", ["cli", "library"])
def test_probes_derive_no_view_from_labels(capsys, tmp_path, monkeypatch, route):
    # generate and the layered reader hand each layer its BipartiteGraph.ends
    # view, and the probe's restrictions and fresh-edge pairs take a slice of
    # it, so no pair of a probe run derives one from its labels
    derived = []
    derive = vars(BipartiteGraph)["ends"].func

    def counting(self):
        derived.append(self)
        return derive(self)

    prop = cached_property(counting)
    prop.__set_name__(BipartiteGraph, "ends")
    monkeypatch.setattr(BipartiteGraph, "ends", prop)
    if route == "cli":
        layered = tmp_path / "lb.json"
        assert run(capsys, "gen-lower", "--r", "3", "--delta", "0.2", "--epsilon", "0.005",
                   "--n", "300", "--seed", "1", "-o", layered)[0] == 0
        parts = tmp_path / "parts.json"
        parts.write_text(probe_partition(parse_layered_json(layered.read_text()),
                                         "random-4-parts", 1))
        report = tmp_path / "probe.json"
        assert run(capsys, "probe", layered, parts, "--report", report)[0] in (0, 1)
        stages = json.loads(report.read_text())["stages"]
    else:
        lb = generate(LowerBoundParams(r=3, n=300, delta=0.2, epsilon=0.005, seed=1))
        layer_of = {e: i for i, g in enumerate(lb.layer_graphs) for e in g.edges}
        stages = adversarial_probe(lb, layer_of).stages
    assert len(stages) == 3 and derived == []
    # the counter is live: a pair built without the view derives it
    assert BipartiteGraph((0,), (1,), ((0, 1),)).ends[0].tolist() == [0]
    assert len(derived) == 1


def test_frozen_probes_cover_every_outcome():
    seen = set().union(*(c[4] for c in FROZEN_PROBES))
    assert seen >= {"witness", "overrun", "repeat", "survived"}


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _with(key, value):
    return lambda doc: {**doc, key: value}


class TestMalformedInput:
    """Files that crashed with a traceback, or were silently accepted."""

    @pytest.mark.parametrize(
        "target,mutate",
        [
            pytest.param("layered", _without("n"), id="layered-no-n"),
            pytest.param("layered", _with("n", 2.5), id="layered-float-n"),
            pytest.param("layered", _with("a_layers", 5), id="layered-int-a_layers"),
            pytest.param("layered", _with("edges", 3), id="layered-int-edges"),
            pytest.param("layered", _with("r", "2"), id="layered-string-r"),
            pytest.param("partition", lambda doc: [doc], id="partition-list"),
            pytest.param(
                "partition",
                lambda doc: {"edges": doc["edges"] + doc["edges"][:1],
                             "parts": doc["parts"] + [0]},
                id="partition-duplicate-edge",
            ),
            pytest.param(
                "partition",
                lambda doc: {**doc, "parts": [0.5] + doc["parts"][1:]},
                id="partition-float-label",
            ),
            pytest.param(
                "partition",
                lambda doc: {"edges": doc["edges"] + [[0, 1]], "parts": doc["parts"] + [0]},
                id="partition-extra-edge",
            ),
            pytest.param("colouring", _with("edges", 7), id="colouring-int-edges"),
            pytest.param("colouring", _with("colours", [0.9, 1.9]), id="colouring-floats"),
            pytest.param("colouring", _with("colours", [True, 2]), id="colouring-bool"),
        ],
    )
    def test_exits_2_with_one_error_line(self, capsys, tmp_path, layered, target, mutate):
        _, lb = layered
        edges = [list(e) for e in lb.all_edges()]
        docs = {
            "layered": json.loads((tmp_path / "lb.json").read_text()),
            "partition": {"edges": edges, "parts": [0] * len(edges)},
            "colouring": {"n": 3, "edges": [[0, 1], [1, 2]], "colours": [0, 1]},
        }
        docs[target] = mutate(docs[target])
        for name, doc in docs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        if target == "colouring":
            (tmp_path / "p.txt").write_text(PATH)
            argv = ["check", tmp_path / "p.txt", tmp_path / "colouring.json"]
        else:
            argv = ["probe", tmp_path / "layered.json", tmp_path / "partition.json"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "renumber,a_layers",
        [
            pytest.param({16: 20}, [[12, 13, 14, 15], [20]], id="gap"),
            pytest.param({}, [[15, 14, 13, 12], [16]], id="descending"),
        ],
    )
    def test_a_layers_number_a_vertices_in_order(self, capsys, tmp_path, renumber, a_layers):
        # gen-lower numbers A_1, A_2, ... consecutively from n; edges and the
        # partition follow any renumbering, so only a_layers is at fault
        doc = json.loads(FUZZ_FILES["lb.json"])
        assert doc["n"] == 12 and doc["a_layers"] == [[12, 13, 14, 15], [16]]
        doc["a_layers"] = a_layers
        doc["edges"] = [[b, renumber.get(a, a), i] for b, a, i in doc["edges"]]
        parts = json.loads(FUZZ_FILES["parts.json"])
        parts["edges"] = [[u, renumber.get(v, v)] for u, v in parts["edges"]]
        (tmp_path / "lb.json").write_text(json.dumps(doc))
        (tmp_path / "parts.json").write_text(json.dumps(parts))
        code, out, err = run(capsys, "probe", tmp_path / "lb.json", tmp_path / "parts.json")
        assert code == 2 and out == ""
        assert err.startswith("error: A_") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "rows,error",
        [
            pytest.param([[15, 0, 1]], "edge (15, 0) does not go left->right", id="a-end-first"),
            pytest.param([[0, 15, 2]], "edge (0, 15) does not go left->right", id="other-layer"),
            pytest.param([[12, 15, 1]], "edge (12, 15) does not go left->right", id="ground-end-n"),
            pytest.param([[-1, 15, 1]], "edge (-1, 15) does not go left->right",
                         id="negative-ground-end"),
            pytest.param([[0, 15, 3]], "edge (0,15) tagged with unknown layer 3",
                         id="unknown-layer"),
            pytest.param([[0, 15, 1]] * 2, "duplicate edge (0, 15)", id="repeated-edge"),
        ],
    )
    def test_one_faulty_edge_row(self, capsys, tmp_path, rows, error):
        # the fuzz gate's layered graph with its first edge row replaced; each
        # fault has its own error line, which these pin byte for byte
        doc = json.loads(FUZZ_FILES["lb.json"])
        assert doc["n"] == 12 and doc["edges"][0] == [0, 15, 1]
        doc["edges"][:1] = rows
        (tmp_path / "lb.json").write_text(json.dumps(doc))
        (tmp_path / "parts.json").write_text(FUZZ_FILES["parts.json"])
        code, out, err = run(capsys, "probe", tmp_path / "lb.json", tmp_path / "parts.json")
        assert code == 2 and out == ""
        assert err == f"error: {error}\n"

    def test_layered_seed_is_non_negative(self, capsys, tmp_path):
        # no gen-lower run writes a negative seed, and generate refuses one
        doc = json.loads(FUZZ_FILES["lb.json"])
        doc["seed"] = -1
        (tmp_path / "lb.json").write_text(json.dumps(doc))
        (tmp_path / "parts.json").write_text(FUZZ_FILES["parts.json"])
        code, out, err = run(capsys, "probe", tmp_path / "lb.json", tmp_path / "parts.json")
        assert code == 2 and out == ""
        assert err == "error: seed must be non-negative, got -1\n"

    @pytest.mark.parametrize("name", ["g.txt", "g.json", "lb.json", "lb-a_layers.json"])
    def test_vertex_count_above_the_cap(self, capsys, tmp_path, name):
        # a header n of 10^11 made bit_split grow tuple(range(2^37)) until
        # memory ran out, and a layered n builds its ground as tuple(range(n));
        # the smallest refused count keeps a regression here cheap
        big = 2**18 + 1
        doc = json.loads(FUZZ_FILES["lb.json"])  # the fuzz gate's layered graph
        if name == "g.txt":
            text = f"{big} 1\n0 1\n"
        elif name == "g.json":
            text = json.dumps({"n": big, "edges": [[0, 1]]})
        elif name == "lb.json":  # its A ids moved up to big
            shift = big - doc["n"]
            doc["n"] = big
            doc["a_layers"] = [[a + shift for a in layer] for layer in doc["a_layers"]]
            doc["edges"] = [[b, a + shift, i] for b, a, i in doc["edges"]]
            text = json.dumps(doc)
        else:  # its parameters unchanged, its last A layer extended to big ids in all
            last = doc["a_layers"][-1]
            last.extend(range(last[-1] + 1, big))
            text = json.dumps(doc)
        (tmp_path / name).write_text(text)
        (tmp_path / "parts.json").write_text(FUZZ_FILES["parts.json"])
        if name.startswith("lb"):
            argv = ["probe", tmp_path / name, tmp_path / "parts.json"]
        else:
            argv = ["decompose", tmp_path / name]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "cap of 262144" in err and err.count("\n") == 1

    @pytest.mark.parametrize("n,cap", [
        pytest.param("10000000", "cap of 262144 vertices", id="vertices"),
        pytest.param("8192", "cap of 16777216", id="draw"),
    ])
    def test_gen_lower_size_caps(self, capsys, tmp_path, n, cap):
        # n = 10^7 asked numpy for a 5*10^6 x 10^7 array (364 TiB); n = 2^13
        # fits the vertex cap, but layer 1 would draw 2^12 x 2^13 = 2^25 cells
        # (a small epsilon keeps a regression here to a few thousand edges)
        out = tmp_path / "lb.json"
        code, stdout, err = run(capsys, "gen-lower", "--r", "1", "--n", n, "--delta", "0.5",
                                "--epsilon", "0.0001", "-o", out)
        assert code == 2 and stdout == "" and not out.exists()
        assert err.startswith("error:") and cap in err and err.count("\n") == 1


# Small valid inputs for the fuzz gate: the s=3 extremal family (6 vertices)
# with its interval colouring, and a 12 + 5 vertex layered graph with a
# layers-as-parts partition.
_FAMILY, _FAMILY_COLOURING = extremal_family(FamilySpec(s=3, removed_curved=frozenset({1})))
_LAYERED = generate(LowerBoundParams(r=2, n=12, delta=0.3, epsilon=0.05, seed=1))
_PARTITION = sorted(
    (min(b, a), max(b, a), i)
    for i, lg in enumerate(_LAYERED.layer_graphs)
    for b, a in lg.edges
)
FUZZ_FILES = {
    "g.txt": serialize_graph_text(_FAMILY),
    "g.json": serialize_graph_json(_FAMILY),
    "c.txt": serialize_colouring_text(_FAMILY_COLOURING),
    "c.json": serialize_colouring_json(_FAMILY_COLOURING),
    "lb.json": serialize_layered_json(_LAYERED),
    "parts.json": json.dumps(
        {"edges": [[u, v] for u, v, _ in _PARTITION], "parts": [i for _, _, i in _PARTITION]}
    ),
}
FUZZ_COMMANDS = [
    ["check", "g.txt", "c.txt"],
    ["check", "g.json", "c.json"],
    ["solve", "g.txt", "--node-limit", "2000"],
    ["solve", "g.json", "--mode", "theta", "--kmax", "2", "--node-limit", "2000"],
    ["decompose", "g.txt"],
    ["bound", "g.json", "--k", "3"],
    ["split", "g.txt", "c.json"],
    ["probe", "lb.json", "parts.json", "--budget-scale", "0.1"],
]
# whole tokens only, each spliced in with spaces so that no number can grow
# past these; 10^11 as a header n is refused by the vertex cap
FUZZ_TOKENS = ["-1", "1.5", "x", "true", "null", '"2"', "[]", "{}", "100000000000"]


@st.composite
def retyped(draw, value):
    """``value`` with one nested entry dropped, or replaced by another type."""
    if isinstance(value, dict) and value:
        key = draw(st.sampled_from(sorted(value)))
        if draw(st.booleans()):
            return {k: v for k, v in value.items() if k != key}
        return {**value, key: draw(retyped(value[key]))}
    if isinstance(value, list) and value and draw(st.booleans()):
        i = draw(st.integers(0, len(value) - 1))
        return value[:i] + [draw(retyped(value[i]))] + value[i + 1:]
    others = [None, True, "2", 0.5, [], {}, [value]]
    if isinstance(value, (int, list)):
        others.append(value * 2)
    if type(value) is int:
        others += [value + 1, -1 - value, value + 0.5, str(value)]
    return draw(st.sampled_from(others))


@st.composite
def mutated(draw, text):
    """``text`` with whole tokens deleted, duplicated or replaced, or, for a
    JSON file, one value retyped."""
    if text.startswith("{") and draw(st.booleans()):
        return json.dumps(draw(retyped(json.loads(text))))
    tokens = re.findall(r'\s+|"[^"]*"|[\[\]{},:]|[^\s\[\]{},:"]+', text)
    for _ in range(draw(st.integers(1, 3))):
        solid = [i for i, tok in enumerate(tokens) if not tok.isspace()]
        i = draw(st.sampled_from(solid))
        op = draw(st.sampled_from(["delete", "duplicate", "renumber", "replace"]))
        if op == "delete":
            tokens[i] = " "
        elif op == "duplicate":
            tokens[i] = f"{tokens[i]} {tokens[i]}"
        elif op == "renumber":
            tokens[i] = f" {draw(st.integers(0, 9))} "
        else:
            tokens[i] = f" {draw(st.sampled_from(FUZZ_TOKENS))} "
    return "".join(tokens)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_inputs_exit_cleanly(tmp_path, data):
    """Every subcommand answers a corrupted file with a documented exit code."""
    argv = data.draw(st.sampled_from(FUZZ_COMMANDS))
    names = [a for a in argv[1:] if a in FUZZ_FILES]
    victim = data.draw(st.sampled_from(names))
    for name in names:
        text = FUZZ_FILES[name]
        (tmp_path / name).write_text(data.draw(mutated(text)) if name == victim else text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(tmp_path / a) if a in FUZZ_FILES else a for a in argv])
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert err.getvalue().startswith("error:")


class TestPlanarCommands:
    def test_generate_split_and_bound(self, capsys, tmp_path):
        g = str(tmp_path / "fam.txt")
        c = str(tmp_path / "fam-c.txt")
        code, out, _ = run(capsys, "gen-planar", "--s", "3", "--remove", "1",
                           "-o", g, "-c", c)
        assert code == 0
        assert out == "family s=3: 6 vertices, 11 edges, 7 colours\n"

        code, out, _ = run(capsys, "check", g, c)
        assert code == 0 and out == "interval, 7 colours\n"

        code, out, _ = run(capsys, "split", g, c, "-o", str(tmp_path / "half"))
        assert code == 0
        assert "split at colour 3 on edge (2, 3): sides 2|2, cross edges 0" in out
        assert "halves use 4 and 4 colours (4 + 4 = 7 + 1)" in out
        for half in ("half1.txt", "half2.txt"):
            parsed = parse_colouring_text((tmp_path / half).read_text())
            assert verify(parsed).interval

        code, out, _ = run(capsys, "bound", g, "--k", "3", "--colours", "7")
        assert code == 0
        assert "hereditary sparsity holds for k=3; colour bound (k/2)n+1-k = 7" in out
        assert "7 colours within the bound" in out

    def test_full_family_split_fails(self, capsys, tmp_path):
        g, c = str(tmp_path / "g.txt"), str(tmp_path / "c.txt")
        run(capsys, "gen-planar", "--s", "3", "-o", g, "-c", c)
        code, out, _ = run(capsys, "split", g, c)
        assert code == 1 and out == "no unique interior colour to split at\n"

    def test_odd_flag(self, capsys):
        code, out, _ = run(capsys, "gen-planar", "--s", "3", "--odd")
        assert code == 0
        assert out == "family s=3 odd: 7 vertices, 13 edges, 8 colours\n"

    def test_bound_sparsity_violation(self, capsys, files):
        k5 = "5 10\n" + "".join(
            f"{u} {v}\n" for u in range(5) for v in range(u + 1, 5)
        )
        code, out, _ = run(capsys, "bound", files("k5.txt", k5), "--k", "3")
        assert code == 1 and "sparsity violated: subset (0, 1, 2, 3, 4)" in out

    def test_bound_past_twenty_vertices(self, capsys, tmp_path):
        g = str(tmp_path / "s15.txt")
        run(capsys, "gen-planar", "--s", "15", "-o", g)
        code, out, _ = run(capsys, "bound", g, "--k", "3")
        assert code == 0
        assert "hereditary sparsity holds for k=3; colour bound (k/2)n+1-k = 43" in out

    def test_bound_refuses_a_core_above_the_limit(self, capsys, files):
        n = SPARSITY_CORE_EDGE_LIMIT // 2 + 1  # a 4-regular circulant, 2n edges
        edges = sorted({tuple(sorted((i, (i + d) % n))) for i in range(n) for d in (1, 2)})
        text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        code, out, err = run(capsys, "bound", files("ring.txt", text), "--k", "3")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"4-core has {2 * n} edges" in err

    def test_bound_negative_colour_count_is_usage_error(self, capsys, files):
        code, out, err = run(capsys, "bound", files("p3.txt", "3 2\n0 1\n1 2\n"),
                             "--k", "3", "--colours", "-3")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_bound_overclaim(self, capsys, files):
        code, out, _ = run(capsys, "bound", files("k4.txt", K4), "--k", "3",
                           "--colours", "5")
        assert code == 1 and "5 colours EXCEEDS the bound" in out

    @pytest.mark.parametrize("graph", ["1 0\n", "0 0\n"], ids=["n1", "n0"])
    def test_edgeless_graph_holds_zero_colours(self, capsys, files, graph):
        # (k/2)n+1-k is negative at n <= 1, but an edgeless graph uses no colours
        code, out, _ = run(capsys, "bound", files("e.txt", graph), "--k", "3",
                           "--colours", "0")
        assert code == 0 and "0 colours within the bound" in out

    @pytest.mark.parametrize("remove,message", [
        ("7", "curved edges are indexed 1..1; got [7]"),
        ("1.5", "--remove takes comma-separated integers, got '1.5'"),
        ("1,x", "--remove takes comma-separated integers, got '1,x'"),
    ], ids=["out-of-range", "non-integer", "non-integer-token"])
    def test_bad_remove_index(self, capsys, remove, message):
        code, out, err = run(capsys, "gen-planar", "--s", "3", "--remove", remove)
        assert code == 2 and out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [["--s", "131073"], ["--s", "131072", "--odd"]],
                             ids=["even", "odd"])
    def test_family_above_the_vertex_cap_is_refused(self, capsys, argv):
        # 2^18 + 2 and 2^18 + 1 vertices: no reader would take the file
        code, out, err = run(capsys, "gen-planar", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestObjective:
    def test_corrected_grid_maximum(self, capsys):
        code, out, _ = run(capsys, "objective")
        assert code == 0
        assert out == "max 0.9928 at (0.01,0.01), boundary x=0 excluded\n"

    def test_other_delta_still_below_one(self, capsys):
        code, out, _ = run(capsys, "objective", "--delta", "0.4", "--step", "0.05")
        assert code == 0

    def test_step_below_the_floor_is_refused(self, capsys):
        code, out, err = run(capsys, "objective", "--step", "0.00005")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestHarness:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_manifest_records_inputs(self, capsys, files, tmp_path):
        g = files("p.txt", PATH)
        c = files("c.txt", "3 2\n0 1 0\n1 2 1\n")
        manifest = tmp_path / "m.json"
        run(capsys, "check", g, c, "--manifest", str(manifest))
        doc = json.loads(manifest.read_text())
        assert doc["subcommand"] == "check" and doc["exit_code"] == 0
        digest = hashlib.sha256(TRIANGLE.replace("3 3", "x").encode()).hexdigest()
        assert g in doc["inputs"] and doc["inputs"][g] != digest
        assert doc["inputs"][g] == hashlib.sha256(PATH.encode()).hexdigest()
        assert "seed" not in doc and "threads" not in doc

    def test_unwritable_manifest_exits_2(self, capsys, files, tmp_path):
        # the answer is printed before the manifest is written
        g = files("p.txt", PATH)
        code, out, err = run(capsys, "solve", g, "--manifest", tmp_path / "missing" / "m.json")
        assert code == 2 and out == "interval colouring with 2 colours\n"
        assert err.startswith("error:") and err.count("\n") == 1

    def test_module_entry_point(self, tmp_path):
        g = tmp_path / "t.txt"
        g.write_text(TRIANGLE)
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ilab", "solve", str(g), "--mode", "theta"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout == "interval thickness: 2\n"


def test_written_json_is_compact(capsys, tmp_path):
    """Every JSON file ilab writes has one layout, except gen-lower's."""
    g = tmp_path / "g.txt"
    g.write_text(K4)
    lb, parts = tmp_path / "lb.json", tmp_path / "parts.json"
    parts.write_text(FUZZ_FILES["parts.json"])
    for argv in [
        ["decompose", g, "--report", tmp_path / "decompose.json"],
        ["solve", g, "--mode", "tmax", "-o", tmp_path / "c.json",
         "--manifest", tmp_path / "m.json"],
        ["gen-planar", "--s", "3", "-o", tmp_path / "g.json"],
        ["gen-lower", "--r", "2", "--n", "12", "--delta", "0.3", "--epsilon", "0.05", "--seed", "1",
         "-o", lb],
        ["probe", lb, parts, "--report", tmp_path / "probe.json"],
    ]:
        code, _, err = run(capsys, *argv)
        assert code in (0, 1) and err == ""
    for name in ("decompose.json", "probe.json", "m.json", "c.json", "g.json"):
        b = (tmp_path / name).read_bytes()
        compact = json.dumps(json.loads(b), sort_keys=True, separators=(",", ":")) + "\n"
        assert b == compact.encode(), name
    # layered JSON keeps its indented bytes, which benchmark digests pin
    assert lb.read_text() == FUZZ_FILES["lb.json"]
    digest = "a38fd9a445fd5fbab7f9c8eb7383318d64a312c2be07a2911a3f9ba9ba46adf2"
    assert hashlib.sha256(lb.read_bytes()).hexdigest() == digest
