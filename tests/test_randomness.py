"""No module of ``src/ilab`` draws random numbers, except ``randlab.generate``.

``gen-lower --seed`` is then the one random choice ilab makes. Each module is
parsed with ``ast``; a draw is an import of ``random``, ``secrets`` or
``numpy.random`` (or of a name from them), a use of ``np.random`` or
``numpy.random``, or of ``os.urandom``. Each is charged to the function that
encloses it, and module-level code to the module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "ilab").glob("*.py"))
ALLOWED = {("randlab.py", "generate")}
RANDOM_MODULES = {"random", "secrets", "numpy.random"}


def random_draws(source: str) -> list[str]:
    """``"<function> line <n>"`` for each draw; ``<module>`` outside any function."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Import):
            hit = any(alias.name in RANDOM_MODULES for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = {f"{node.module}.{alias.name}" for alias in node.names}
            hit = node.module in RANDOM_MODULES or bool(
                names & {"numpy.random", "os.urandom"}
            )
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            hit = (node.value.id, node.attr) in {
                ("np", "random"), ("numpy", "random"), ("os", "urandom")
            }
        else:
            hit = False
        if hit:
            found.append(f"{where} line {node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_generator_draws_random_numbers(path):
    draws = random_draws(path.read_text(encoding="utf-8"))
    assert [d for d in draws if (path.name, d.split()[0]) not in ALLOWED] == []


def test_the_generator_is_the_one_draw():
    source = (ROOT / "src" / "ilab" / "randlab.py").read_text(encoding="utf-8")
    assert [d.split()[0] for d in random_draws(source)] == ["generate"]


def test_the_guard_sees_every_kind_of_draw():
    source = (
        "import os\nimport random as r\nfrom numpy.random import default_rng\n"
        "from numpy import random\nimport numpy as np\n"
        "def f():\n    return np.random.default_rng(0), os.urandom(4)\n"
        "def g():\n    from secrets import token_bytes\n    return os.sep\n"
    )
    assert random_draws(source) == [
        "<module> line 2", "<module> line 3", "<module> line 4",
        "f line 7", "f line 7", "g line 9",
    ]
