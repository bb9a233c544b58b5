"""The value classes: equality, hash, immutability and the checks their
constructors make."""

from __future__ import annotations

import pytest

from racedigest.digest import LawViolation
from racedigest.digests import JoinElem, TidElem
from racedigest.dsl import parse_program, print_program
from racedigest.model import (Action, Edge, Program, ThreadPrototype, ValidationError,
                              instrument_atomicity)
from racedigest.oracle import DepEdge, Event, enumerate_traces
from racedigest.solver import AccessRecord

from tests.conftest import CORPUS_DIR

CASES = sorted(p.name for p in CORPUS_DIR.iterdir() if (p / "program.rlp").is_file())


def _event(index: int = 1) -> Event:
    return Event((("e1", 0),), index, "t.1", Edge("t.0", Action("lock", "a"), "t.1", line=3))


def _program(mutexes=("a",)) -> Program:
    edges = frozenset({Edge("main.0", Action("skip"), "main.1"),
                       Edge("main.1", Action("exit"), "main.2")})
    return Program({"main": ThreadPrototype("main.0", edges)}, frozenset({"g"}),
                   frozenset(mutexes), frozenset())


# each: a value, made anew on every call, and a value differing in one compared field
VALUES = {
    "Action": (lambda: Action("write", "g", local="x"), lambda: Action("write", "g", local="y")),
    "Edge": (lambda: Edge("u", Action("skip"), "v", line=1),
             lambda: Edge("u", Action("skip"), "w")),
    "Event": (_event, lambda: _event(2)),
    "DepEdge": (lambda: DepEdge("mutex", "a", _event(), _event(2)),
                lambda: DepEdge("mutex", "b", _event(), _event(2))),
    "Program": (_program, lambda: _program(("a", "b"))),
    "ThreadPrototype": (lambda: _program().main(),
                        lambda: ThreadPrototype("main.1", frozenset())),
    "TidElem": (lambda: TidElem(("e1",), ("e2",), True), lambda: TidElem(("e1",), (), True)),
    "JoinElem": (lambda: JoinElem(TidElem((), ("e1",), True), frozenset({("e1",)})),
                 lambda: JoinElem(TidElem((), ("e1",), True), frozenset())),
    "AccessRecord": (lambda: AccessRecord("u", "W", ("ST_main",)),
                     lambda: AccessRecord("u", "R", ("ST_main",))),
    "LawViolation": (lambda: LawViolation("simulation", "d"), lambda: LawViolation("init", "d")),
}


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_hash_equal(name):
    make, make_other = VALUES[name]
    a, b, other = make(), make(), make_other()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert not a != b
    assert a != other and other != a
    assert len({a, b, other}) == 2


def test_equal_values_from_two_runs_hash_equal(prog1):
    # the hash of an event, dep, edge and action is computed when it is
    # made: two runs make distinct objects that must meet in one set
    again = parse_program(print_program(prog1))
    edges, edges_again = prog1.all_edges(), again.all_edges()
    assert edges == edges_again and [hash(e) for e in edges] == [hash(e) for e in edges_again]
    assert [hash(e.action) for e in edges] == [hash(e.action) for e in edges_again]
    table = enumerate_traces(prog1, depth=40, width=4).table
    table_again = enumerate_traces(again, depth=40, width=4).table
    for items, items_again in ((table.events, table_again.events), (table.deps, table_again.deps)):
        assert items == items_again
        assert not any(x is y for x, y in zip(items, items_again))
        assert [hash(x) for x in items] == [hash(x) for x in items_again]


def test_edge_equality_and_hash_ignore_line():
    a, b = Edge("u", Action("skip"), "v", line=1), Edge("u", Action("skip"), "v", line=7)
    assert a == b and hash(a) == hash(b)
    assert (a.line, b.line) == (1, 7)


@pytest.mark.parametrize("case", CASES)
def test_print_and_parse_give_an_equal_program(case):
    plain = parse_program((CORPUS_DIR / case / "program.rlp").read_text(encoding="utf-8"))
    assert parse_program(print_program(plain)) == plain
    inst = instrument_atomicity(plain)
    assert parse_program(print_program(inst)) == inst


def test_unknown_action_kind_rejected():
    with pytest.raises(ValidationError) as info:
        Action("bogus")
    assert str(info.value) == "unknown action kind 'bogus'"


@pytest.mark.parametrize("name,field", [
    ("Action", "kind"), ("Edge", "line"), ("Event", "index"), ("DepEdge", "src"),
    ("TidElem", "unique"), ("JoinElem", "joined"), ("Program", "globals"),
])
def test_fields_cannot_be_assigned(name, field):
    value = VALUES[name][0]()
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is not None


def test_repr_names_every_field():
    assert repr(Edge("u", Action("skip"), "v", line=2)) == (
        "Edge(source='u', action=Action(kind='skip', target=None, local=None, create_id=None), "
        "target='v', line=2)")
    assert repr(TidElem((), (), True)) == "TidElem(path=(), created=(), unique=True)"
