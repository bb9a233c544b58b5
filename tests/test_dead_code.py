"""No dead code in the package, checked with ``ast`` alone, as the
project depends on no linter: every name a module imports is used in it,
every private name defined at module level (``_name``) is read in it,
every function defined at module level reads each of its parameters,
every public function or class defined at module level is read somewhere
in the project outside its own definition, every attribute stored on
``self`` is read somewhere in the project, and so is every name a class
declares in its ``__slots__``, as an attribute or an ``attrgetter``
string."""

from __future__ import annotations

import ast
import functools
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "racedigest"
MODULES = sorted(p.name for p in SRC.glob("*.py"))
# the files whose reads keep a public name or a stored attribute alive
READERS = ("src", "tests", "perfbench")


def _read(tree: ast.AST) -> set[str]:
    """The names the module (or function) reads anywhere."""
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


def _unread_parameters(tree: ast.Module) -> list[tuple[int, str]]:
    """Each parameter of a function defined at module level that the
    function never reads, as ``function(parameter)``, with its line."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            read = _read(node)
            out += [(node.lineno, f"{node.name}({p.arg})") for p in params if p.arg not in read]
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_parameter_left_unread(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"), filename=module)
    assert [f"line {line}: {name}" for line, name in _unread_parameters(tree)] == []


def _set_name(node: ast.AST) -> ast.Constant | None:
    """The name string of a ``_set(self, "name", value)`` call."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_set"
            and len(node.args) > 1 and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "self" and isinstance(node.args[1], ast.Constant)):
        return node.args[1]
    return None


def _stored(tree: ast.Module) -> list[tuple[int, str]]:
    """Each attribute stored on ``self``, by assignment or through
    ``_set(self, "name", ...)``, with its line."""
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            out.append((node.lineno, node.attr))
        elif (name := _set_name(node)) is not None:
            out.append((node.lineno, name.value))
    return out


def _attributes_read(tree: ast.Module) -> set[str]:
    """Each name the module reads as an attribute (``x.name``, ``x.name +=``)
    or could read by name (the string ``"name"``, as ``getattr`` takes,
    other than the name a ``_set`` call stores)."""
    stores = {id(name) for name in map(_set_name, ast.walk(tree)) if name is not None}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            out.add(node.target.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in stores):
            out.add(node.value)
    return out


@functools.cache
def _project_trees() -> tuple[ast.Module, ...]:
    return tuple(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
                 for path in sorted(p for d in READERS for p in (ROOT / d).rglob("*.py")))


@functools.cache
def _project_reads() -> frozenset[str]:
    return frozenset().union(*map(_attributes_read, _project_trees()))


def _name_reads(tree: ast.AST) -> Counter:
    """How often ``tree`` reads each name: as a name, an attribute or an
    imported name."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def _unread_public(tree: ast.Module, reads: Counter) -> list[tuple[int, str]]:
    """Each public function or class ``tree`` defines at module level whose
    every read in ``reads`` lies in its own definition, with its line."""
    return [(node.lineno, node.name) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and reads[node.name] <= _name_reads(node)[node.name]]


@functools.cache
def _project_name_reads() -> Counter:
    return sum(map(_name_reads, _project_trees()), Counter())


@pytest.mark.parametrize("module", MODULES)
def test_no_public_name_left_unread(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"), filename=module)
    unread = _unread_public(tree, _project_name_reads())
    assert [f"line {line}: {name}" for line, name in unread] == []


def _slots(tree: ast.Module) -> list[tuple[int, str]]:
    """Each name string in a ``__slots__`` a class of the module declares,
    with its line."""
    out = []
    for cls in ast.walk(tree):
        for node in cls.body if isinstance(cls, ast.ClassDef) else ():
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
                out += [(node.lineno, c.value) for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    return out


def _slot_reads(tree: ast.Module) -> set[str]:
    """Each name the module reads as an attribute (``x.name``, ``x.name +=``)
    or as a string argument of ``attrgetter``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            out.add(node.target.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "attrgetter"):
            out.update(a.value for a in node.args if isinstance(a, ast.Constant))
    return out


@functools.cache
def _project_slot_reads() -> frozenset[str]:
    return frozenset().union(*map(_slot_reads, _project_trees()))


@pytest.mark.parametrize("module", MODULES)
def test_no_slot_left_unread(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"), filename=module)
    read = _project_slot_reads()
    assert [f"line {line}: {name}" for line, name in _slots(tree) if name not in read] == []


@pytest.mark.parametrize("module", MODULES)
def test_no_stored_attribute_left_unread(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"), filename=module)
    read = _project_reads()
    assert [f"line {line}: self.{name}" for line, name in _stored(tree) if name not in read] == []


def test_the_check_sees_what_it_looks_for():
    tree = ast.parse("import os\nfrom x import y as z\n_a = 1\n\n\ndef _f():\n    return y\n")
    assert [n for _, n in _imported(tree) if n not in _read(tree)] == ["os", "z"]
    assert [n for _, n in _private(tree) if n not in _read(tree)] == ["_a", "_f"]
    tree = ast.parse("def f(a, b, /, c, *d, e, **g):\n    return a + c + e\n\n\n"
                     "def h(x):\n    def inner():\n        return x\n    return inner\n\n\n"
                     "class K:\n    def m(self, y):\n        pass\n")
    assert [n for _, n in _unread_parameters(tree)] == ["f(b)", "f(d)", "f(g)"]
    tree = ast.parse("class A:\n    def __init__(self):\n        self.a = self.b = 1\n"
                     "        _set(self, 'c', 2)\n        _set(self, 'e', 3)\n"
                     "        self.n += 1\n        other.d = 4\n        print(self.b, 'c')\n")
    assert sorted(n for _, n in _stored(tree)) == ["a", "b", "c", "e", "n"]
    assert [n for _, n in _stored(tree) if n not in _attributes_read(tree)] == ["a", "e"]
    tree = ast.parse("class S:\n    __slots__ = _f = ('a', 'b', 'c', 'd')\n"
                     "    _by = attrgetter('b')\n\n\nclass T:\n    __slots__ = _f + ('e',)\n"
                     "    __slots__ = ()\n\n\nprint(x.c, 'd', getattr(x, 'e'))\nx.a += 1\n")
    assert [n for _, n in _slots(tree)] == ["a", "b", "c", "d", "e"]
    assert [n for _, n in _slots(tree) if n not in _slot_reads(tree)] == ["d", "e"]
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\n\ndef g():\n    pass\n\n\n"
                     "class C:\n    pass\n\n\nclass D:\n    pass\n\n\ndef _p():\n    pass\n")
    reads = _name_reads(tree) + _name_reads(ast.parse("from m import g\nx.C.y\n"))
    assert [n for _, n in _unread_public(tree, reads)] == ["f", "D"]
