"""No module of ``src/ilab`` or ``scripts/`` imports a name it never uses.

Each module is parsed with ``ast``; a name bound by ``import`` or ``from ...
import`` must appear as a name somewhere in the module (an attribute chain
such as ``np.int64`` counts as a use of ``np``). ``__init__.py`` re-exports
by design and ``from __future__`` imports are directives, so both are left
out.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = [
    path
    for folder in (ROOT / "src" / "ilab", ROOT / "scripts")
    for path in sorted(folder.glob("*.py"))
    if path.name != "__init__.py"
]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_sees_an_unused_import():
    source = "import os\nfrom typing import Iterable, Sequence\nx: Sequence = os.sep\n"
    assert unused_imports(source) == ["line 2: Iterable"]
