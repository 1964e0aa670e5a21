"""``ilab.cli.main`` runs each command with the cyclic collector paused.

The pause is sound only while ilab builds no reference cycles: reference
counting then frees every object as soon as it is dropped, and the paused
collector has nothing to find. ``test_command_leaves_no_cycles`` checks that
on every subcommand; a change that adds cycles would make memory grow for
the whole length of a command, and fails it. ``argparse`` parsers are cyclic
(each action points back at its container), but ``cli._parser`` is cached,
so the parser is built once per process and a warmed command must leave no
garbage at all. That the measure sees cycles is checked on a fresh parser,
``cli._parser.__wrapped__()``, in the same interpreter.
"""

import gc
import json

import pytest

import ilab.cli as cli
from conftest import random_graph
import test_cli
from test_cli import K4, PATH, PETERSEN, TRIANGLE
from ilab.cli import main
from ilab.formats import parse_layered_json

LOWER = test_cli.TestGenLower.ARGS


def garbage_after(call):
    """Objects that ``gc.collect()`` finds unreachable after ``call()`` ran
    with the collector off."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def graph_text(n, edges):
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


@pytest.fixture
def inputs(tmp_path, capsys):
    """Every input file the cases read, written with the collector on."""
    def write(name, text):
        (tmp_path / name).write_text(text)

    write("path.txt", PATH)
    write("path-c.txt", "3 2\n0 1 0\n1 2 1\n")
    write("k4.txt", K4)
    write("petersen.txt", PETERSEN)
    write("triangle.txt", TRIANGLE)
    write("dense.txt", graph_text(60, random_graph(60, 0.9, 4)))
    write("sparse.txt", graph_text(300, random_graph(300, 4 / 299, 0)))
    assert main(["gen-lower", *LOWER, "-o", str(tmp_path / "lb.json")]) == 0
    assert main(["gen-planar", "--s", "3", "--remove", "1", "-o", str(tmp_path / "fam.txt"),
                 "-c", str(tmp_path / "fam-c.txt")]) == 0
    lb = parse_layered_json((tmp_path / "lb.json").read_text())
    edges = [list(e) for e in lb.all_edges()]
    write("one-part.json", json.dumps({"edges": edges, "parts": [0] * len(edges)}))
    layer_of = {e: i for i, lg in enumerate(lb.layer_graphs) for e in lg.edges}
    write("layer-parts.json", json.dumps(
        {"edges": edges, "parts": [layer_of[tuple(e)] for e in edges]}))
    capsys.readouterr()
    return tmp_path


CASES = {
    "check": (0, ["check", "path.txt", "path-c.txt"]),
    "solve-colourable": (0, ["solve", "k4.txt"]),
    "solve-max-colours": (1, ["solve", "petersen.txt", "--max-colours", "3"]),
    "solve-tmax": (0, ["solve", "k4.txt", "--mode", "tmax", "-o", "k4-c.json"]),
    "solve-theta": (0, ["solve", "triangle.txt", "--mode", "theta", "-o", "t-parts.txt"]),
    "decompose-dense": (0, ["decompose", "dense.txt", "--report", "dense.json"]),
    "decompose-sparse": (0, ["decompose", "sparse.txt", "--report", "sparse.json"]),
    "gen-lower": (0, ["gen-lower", *LOWER, "-o", "lb2.json", "--manifest", "m.json"]),
    "probe-refuted": (0, ["probe", "lb.json", "one-part.json", "--report", "p1.json"]),
    "probe-survived": (1, ["probe", "lb.json", "layer-parts.json", "--report", "p2.json"]),
    "gen-planar": (0, ["gen-planar", "--s", "4", "--odd", "-o", "g.txt", "-c", "c.txt"]),
    "split": (0, ["split", "fam.txt", "fam-c.txt", "-o", "half"]),
    "bound": (0, ["bound", "fam.txt", "--k", "3", "--colours", "7"]),
    "objective": (0, ["objective", "--step", "0.05"]),
    "exit-2": (2, ["check", "triangle.txt", "path-c.txt"]),
    "exit-3": (3, ["solve", "petersen.txt", "--time-limit", "1e-9"]),
}


@pytest.mark.parametrize("name", CASES)
def test_command_leaves_no_cycles(inputs, capsys, name):
    expected, argv = CASES[name]
    # every file the case reads or writes lives in tmp_path
    argv = [str(inputs / a) if a.endswith((".txt", ".json")) or a == "half" else a
            for a in argv]
    cli._parser()  # the cached parser is built once per process, outside the measure
    codes = []
    baseline = garbage_after(cli._parser.__wrapped__)
    found = garbage_after(lambda: codes.append(main(argv)))
    capsys.readouterr()
    assert codes == [expected]
    assert baseline > 0  # a fresh parser's own cycles: the measure sees cycles
    assert found == 0, f"{name} left {found} objects in cycles"


def failing_command(args, files):
    raise RuntimeError(f"collector enabled: {gc.isenabled()}")


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("argv,outcome", [
    (["objective", "--step", "0.05"], 0),
    (["objective", "--step", "0.00005"], 2),
    (["--help"], SystemExit),
    (["frobnicate"], SystemExit),
    (["objective"], RuntimeError),
], ids=["return-0", "return-2", "help", "unknown-subcommand", "escaping-exception"])
def test_main_restores_the_callers_collector_state(monkeypatch, capsys, enabled, argv, outcome):
    if outcome is RuntimeError:
        monkeypatch.setattr(cli, "_cmd_objective", failing_command)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if isinstance(outcome, int):
            assert main(argv) == outcome
        else:
            with pytest.raises(outcome) as raised:
                main(argv)
        state = gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()
    assert state is enabled
    if outcome is RuntimeError:
        assert str(raised.value) == "collector enabled: False"
