"""Smoke tests for the experiment scripts: each runs end to end on tiny inputs.

The scripts call the library's public entry points (``max_colours``,
``exact_thickness``, ``decompose_theta``, ``adversarial_probe``,
``objective_check``); these runs catch a script left behind by an API change.
"""

import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name,argv,headers",
    [
        pytest.param(
            "theta_survey",
            ["--max-n", "4", "--pipeline-sizes", "16", "--seeds", "1"],
            [("classes", "colourable", "max t", "worst theta"), ("parts", "forests", "log2 bound")],
            id="theta_survey",
        ),
        pytest.param(
            "probe_lower_bound",
            ["--r", "2", "--n", "60", "--seeds", "1"],
            [("strategy", "refuted (repeat)", "survived", "exhausted")],
            id="probe_lower_bound",
        ),
        pytest.param(
            "objective_landscape",
            ["--deltas", "0.25", "--step", "0.1"],
            [("delta", "grid max", "boundary", "ridge")],
            id="objective_landscape",
        ),
    ],
)
def test_script_runs_and_prints_its_table(capsys, name, argv, headers):
    assert load(name).main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    for words in headers:
        assert any(all(w in line for w in words) for line in lines), (name, words)


@pytest.mark.parametrize("scale", ["0", "nan", "inf"])
def test_probe_script_rejects_bad_budget_scale(capsys, scale):
    argv = ["--r", "2", "--n", "60", "--seeds", "1", "--budget-scale", scale]
    assert load("probe_lower_bound").main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: budget_scale")
