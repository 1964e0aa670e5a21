"""The benchmark's tracer must still find every library attribute it wraps.

``perfbench/spans.py`` monkeypatches the attributes named in ``TARGETS`` to
time each layer (``perfbench/run.py --trace 1``). A refactor that renames or
moves one of them would break the trace, so each target is resolved here,
the way ``Tracer.installed`` resolves it. ``perfbench/`` is only read.
"""

import importlib.util
import json
import pathlib

import pytest

from ilab.cli import main

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


def wrapped_attributes():
    return [vars(owner)[attr] for owner, attr in
            (spans.resolve(module, path) for module, path, _, _ in spans.TARGETS)]


@pytest.mark.parametrize(
    "module,path", [(module, path) for module, path, _, _ in spans.TARGETS],
    ids=[f"{module}:{path}" for module, path, _, _ in spans.TARGETS],
)
def test_target_resolves(module, path):
    owner, attr = spans.resolve(module, path)
    assert attr in vars(owner), f"{module}.{path} is not an attribute of its owner"
    assert callable(vars(owner)[attr])


def test_traced_decompose_records_the_flow_layers(tmp_path, capsys):
    # every edge joins an even id to an odd one, so all lie in the bit-0
    # layer; every vertex of it has degree >= 1, but the even vertices 0 and
    # 2 share their only neighbour 1, so the k = 1 search runs and fails, and
    # the hooks read a failing witness and the restriction that follows
    edges = [(0, 1), (1, 2)] + [(u, v) for u in range(4, 16, 2) for v in range(1, 16, 2)]
    g = tmp_path / "g.txt"
    g.write_text(f"16 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    originals = wrapped_attributes()
    tracer = spans.Tracer()
    with tracer.installed():
        assert main(["decompose", str(g)]) == 0
    capsys.readouterr()
    assert wrapped_attributes() == originals
    metrics = spans.layer_metrics(tracer, passes=1)
    assert metrics["decompose.find_k_factor.calls"] > 0
    assert metrics["flows.hopcroft_karp.calls"] > 0
    assert metrics["decompose.find_k_factor.failed"] > 0
    assert metrics["graphs.restrict.calls"] > 0


def test_traced_probe_records_the_randlab_layers(tmp_path, capsys):
    # n = 100, seed 0, every edge in one part, at budget scale 0.1: three
    # stages run the hypothesis checks and the dense-part search, and later
    # stages record overruns before a forced repeat
    layered = tmp_path / "lb.json"
    originals = wrapped_attributes()
    tracer = spans.Tracer()
    with tracer.installed():
        assert main(["gen-lower", "--r", "3", "--delta", "0.2", "--epsilon", "0.005",
                     "--n", "100", "--seed", "0", "-o", str(layered)]) == 0
        edges = json.loads(layered.read_text())["edges"]
        parts = tmp_path / "parts.json"
        parts.write_text(json.dumps({"edges": [[b, a] for b, a, _ in edges],
                                     "parts": [0] * len(edges)}))
        assert main(["probe", str(layered), str(parts), "--budget-scale", "0.1"]) == 0
    capsys.readouterr()
    assert wrapped_attributes() == originals
    called = {name for name, *_ in tracer.spans}
    assert {"randlab.generate", "randlab.parse_layered_json", "randlab.adversarial_probe",
            "randlab.check_biregular", "randlab.check_pseudorandom",
            "randlab.find_dense_monochromatic", "graphs.diameter",
            "graphs.restrict"} <= called
    assert spans.layer_metrics(tracer, passes=1)["randlab.overruns"] > 0


def test_traced_solve_records_the_exact_layers(tmp_path, capsys):
    # K4 is interval colourable with theta = 1, and planar, so every solve
    # mode and the k = 3 bound succeed; the theta search reports its nodes
    # through the exact_thickness hook
    g = tmp_path / "k4.txt"
    g.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    originals = wrapped_attributes()
    tracer = spans.Tracer()
    with tracer.installed():
        for mode in ("colourable", "tmax", "theta"):
            assert main(["solve", str(g), "--mode", mode]) == 0
        assert main(["bound", str(g), "--k", "3"]) == 0
    capsys.readouterr()
    assert wrapped_attributes() == originals
    metrics = spans.layer_metrics(tracer, passes=1)
    for name in ("exact.find_interval_colouring", "exact.max_colours",
                 "exact.exact_thickness", "planar.hereditary_sparsity"):
        assert metrics[f"{name}.calls"] >= 1, name
    assert metrics["exact.theta_nodes"] > 0
