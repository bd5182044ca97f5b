"""Every module-level import in the package is used or re-exported.

No linter ships with the test environment, so this parses each module
with ``ast``: a name bound by a top-level ``import`` or ``from ... import``
must be read somewhere in the module (annotations count) or be listed in
its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "telerobust"


def _unused_imports(tree):
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used | exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_checker_flags_an_unused_import():
    tree = ast.parse("import os\nfrom json import dumps, loads\n__all__ = ['loads']\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "dumps")]
