"""Every module-level import in the package is used or re-exported, and
every module-level private helper is called.

No linter ships with the test environment, so this parses each module
with ``ast``: a name bound by a top-level ``import`` or ``from ... import``
must be read somewhere in the module (annotations count) or be listed in
its ``__all__``; a top-level ``def _name`` must be read somewhere in the
package outside its own body.  Helpers are matched by name, so a read
of ``_name`` in any module counts for every module defining it.
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


def _dead_private_helpers(trees):
    """(module, line, name) of each top-level ``def _name`` that no module
    in ``trees`` reads outside the function's own definition."""
    defs, read = [], set()
    for module, tree in trees.items():
        for node in tree.body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            if own and own.startswith("_") and not own.startswith("__"):
                defs.append((module, node.lineno, own))
            for n in ast.walk(node):
                name = n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else None
                if name is not None and name != own:
                    read.add(name)
    return sorted(d for d in defs if d[2] not in read)


def test_every_private_helper_is_read():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    assert _dead_private_helpers(trees) == []


def test_checker_flags_a_dead_private_helper():
    trees = {
        "a.py": ast.parse("def _used():\n    pass\n\ndef _dead(n):\n    return _dead(n - 1)\n\ndef _imported():\n    pass\n"),
        "b.py": ast.parse("from .a import _imported\n\ndef run():\n    return _used(), _imported()\n"),
    }
    assert _dead_private_helpers(trees) == [("a.py", 4, "_dead")]
