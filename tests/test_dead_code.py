"""No dead code in the package, checked with ``ast`` alone, as the
project depends on no linter: every name a module imports is used in it,
and every private name defined at module level (``_name``) is read in
it."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "racedigest"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def _read(tree: ast.Module) -> set[str]:
    """The names the module reads anywhere."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _imported(tree: ast.Module) -> list[tuple[int, str]]:
    """Each name an import binds, anywhere in the module, with its line."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(node.lineno, a.asname or a.name) for a in node.names]
    return out


def _private(tree: ast.Module) -> list[tuple[int, str]]:
    """Each ``_name`` (not a dunder) defined at module level, with its line."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in out
            if name.startswith("_") and not name.startswith("__")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import_or_private_name(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"), filename=module)
    read = _read(tree)
    unused = [f"line {line}: import of {name}" for line, name in _imported(tree) if name not in read]
    unused += [f"line {line}: {name}" for line, name in _private(tree) if name not in read]
    assert unused == []


def test_the_check_sees_what_it_looks_for():
    tree = ast.parse("import os\nfrom x import y as z\n_a = 1\n\n\ndef _f():\n    return y\n")
    assert [n for _, n in _imported(tree) if n not in _read(tree)] == ["os", "z"]
    assert [n for _, n in _private(tree) if n not in _read(tree)] == ["_a", "_f"]
