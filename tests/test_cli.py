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
from ilab.planar import SPARSITY_CORE_EDGE_LIMIT, FamilySpec, extremal_family
from ilab.randlab import LowerBoundParams, generate

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

    @pytest.mark.parametrize("n,p,seed,digest", [
        pytest.param(200, 0.7, 0, "6d16e7a5eaba928949cbcac1142d52e594f75fee6da0c8ede40cf4d6d23fef6f",
                     id="200-0.7-0"),
        pytest.param(100, 0.8, 1, "5ead4ccd043b6ef8ad29c3650cb23a67de981e21acc33f8b4d6dd1386ba1817c",
                     id="100-0.8-1"),
        pytest.param(150, 0.9, 2, "e71cfd247b981e019312193db87418ec503c25fdc5fe288dec872add2f1b662b",
                     id="150-0.9-2"),
        pytest.param(60, 0.9, 4, "07b559c0a95e21127cb42d78818a77641113c0382f6a2f541a5e735bf31d49fa",
                     id="60-0.9-4"),
    ])
    def test_report_bytes_are_frozen(self, capsys, monkeypatch, tmp_path, n, p, seed, digest):
        # padded G(n, p): some layers are dense enough for factors, k = 1
        # calls fail on the padding and the increment restricts; the report
        # and stdout bytes are pinned by SHA-256
        seen = {"failed": 0, "restrictions": 0}
        find, step = dec.find_k_factor, dec.density_increment_step

        def counting_find(b, k):
            w = find(b, k)
            seen["failed"] += k == 1 and not w.is_factor
            return w

        def counting_step(b, cfg):
            s = step(b, cfg)
            seen["restrictions"] += s.kind == "restriction"
            return s

        monkeypatch.setattr(dec, "find_k_factor", counting_find)
        monkeypatch.setattr(dec, "density_increment_step", counting_step)
        edges = random_graph(n, p, seed)
        g = tmp_path / "g.txt"
        g.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        report = tmp_path / "r.json"
        code, out, err = run(capsys, "decompose", g, "--report", report)
        assert code == 0 and err == ""
        assert seen["failed"] > 0 and seen["restrictions"] > 0, seen
        got = hashlib.sha256(report.read_bytes() + out.encode()).hexdigest()
        assert got == digest

    @pytest.mark.parametrize("n,degree,seed,digest", [
        pytest.param(3000, 6, 0, "42666b908a84766d47161238d18ccbf96bfcaa0ace2c3f3515d44f1970004207",
                     id="3000-6-0"),
        pytest.param(2050, 4, 1, "ec464fe737087cfd20c075a10120021ff66a6d9a5db59ff1fe2667c67220c6c3",
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

    def test_nan_epsilon_is_usage_error(self, capsys, tmp_path):
        # the layered reader only takes finite numbers, so neither may the writer
        code, _, err = run(capsys, "gen-lower", "--r", "2", "--n", "10", "--epsilon", "nan",
                           "-o", str(tmp_path / "lb.json"))
        assert code == 2 and err == "error: epsilon must be positive\n"
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
     "e9f61c6139d6600f409535bcf5037f994edf989b8ad9058df465575210c0c4c2"),
    (100, 0, "single-part", "0.1", {"overrun", "repeat"},
     "dace89d3b7ca87d77d8336b4256510014531fec0831c73a0402249edf3091f25"),
    (100, 0, "layers-as-parts", "1", {"survived"},
     "cc9ece7e6049a59f431dadc374d1dce9116065ba190d7a799f337ced36d44db6"),
    (100, 0, "layers-as-parts", "0.1", {"survived"},
     "64834bfc660010d98c52755ecac90e189dddf92194ca2d0066daec67734024a7"),
    (100, 0, "random-4-parts", "1", set(),
     "b91c81b52c6a5304547a7156151034247312f601fb994997d4839f4208201e98"),
    (100, 0, "random-4-parts", "0.1", set(),
     "5fa802dcd32afd6b3d1e13f524c1615d75552c527338f2880c7242b1bbc8d567"),
    (100, 1, "single-part", "1", {"repeat"},
     "0e32db839d6e0d45040eda46db3ceb4c490ec93d37c63468e38438392b87e8e9"),
    (100, 1, "single-part", "0.1", {"overrun", "repeat"},
     "a7b9aa895cb429e9df7eade5ec80c081b3ec563829a88dcc3c0080e8d6140827"),
    (100, 1, "layers-as-parts", "1", {"survived"},
     "c5962309e0d11428b6858446beca67f1e7086d57306ac408c520f6aece0ec863"),
    (100, 1, "layers-as-parts", "0.1", {"survived"},
     "a09619f60389490caf8a83930c72625f06da2b5b128a28c4fe5342c919e74dd5"),
    (100, 1, "random-4-parts", "1", {"repeat"},
     "b433fa914124da098b0a262ff00b3c6418cef6d3c4d9a40b0dc4a79e3d468545"),
    (100, 1, "random-4-parts", "0.1", {"repeat"},
     "04b3de5b89df7454378acf9c550831a875c6518ad96f28b59e535091285a0058"),
    (300, 0, "single-part", "1", {"repeat"},
     "ef98ce298c3dcfe273c1fee27214a9a1fed61acfcea75d2088659ec755c10210"),
    (300, 0, "single-part", "0.1", {"overrun", "repeat"},
     "b6a007356f1cf0c63f3df96bd0882d70d0554d843f9e06766b762d6b94f5bceb"),
    (300, 0, "layers-as-parts", "1", {"survived"},
     "5524102d21d7113f8e2bfb976b9404320f346ad6b87bae96c4ab72e3f163e5b4"),
    (300, 0, "layers-as-parts", "0.1", {"survived"},
     "cc28f8ceed512a67fa952dd9841bbe5a32bb4b160c4645736d8892975b5dfec0"),
    (300, 0, "random-4-parts", "1", {"repeat"},
     "ce159087478023508bbe37cb92252c6ccd6afa16c481cc04317d196916b68266"),
    (300, 0, "random-4-parts", "0.1", {"repeat"},
     "f99cb1fd2be48f4fa3c971672f59feb452581009c3de5f94800610f6b2e762bb"),
    (300, 1, "single-part", "1", {"repeat"},
     "af52e2e9eb938c7e663899709af5928d7842b08d0cc9d0bfc42206b040358329"),
    (300, 1, "single-part", "0.1", {"overrun", "repeat"},
     "24679719461c8dff4071ed3c7c70b3477e018f68d70921ab69375765295594f6"),
    (300, 1, "layers-as-parts", "1", {"survived"},
     "8a90e0986b9df5b2ac6b83e9b3f4c6783163fb77539cbb4ecfffebf8b8bc7c3e"),
    (300, 1, "layers-as-parts", "0.1", {"survived"},
     "2286855b1e9adc308356727efcad01988f4a7dbe10d65a6a92eca20fe5b6d75f"),
    (300, 1, "random-4-parts", "1", {"survived"},
     "4a318aafc0997406ce938ae53217f0348a01ab1d06f43f07cb76b18a1f92b4ac"),
    (300, 1, "random-4-parts", "0.1", {"survived"},
     "dbbccf39798c962fbdc0a6730c8f68cd9e9954b391295ddeadcb089de660d14c"),
    (None, 0, "single-part", "1", {"witness"},
     "23f2fcee64fa5b1a463391fde2d93a93cc7cd74d3574cab4b4d42e2d702dab5c"),
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

    def test_bad_remove_index(self, capsys):
        code, _, err = run(capsys, "gen-planar", "--s", "3", "--remove", "7")
        assert code == 2 and "error:" in err

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
