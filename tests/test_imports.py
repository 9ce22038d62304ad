"""Static check of the package source: no module imports a name it
never uses."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "netcheck").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names the module imports but neither reads nor lists in
    ``__all__``, each with the line of its import."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = (
        "import os\nimport os.path as osp\nfrom typing import Any, List\n"
        "from . import used\n__all__ = ['Any']\n"
        "def f(x: List[int]):\n    return used\n"
    )
    assert unused_imports(source) == ["os (line 1)", "osp (line 2)"]
