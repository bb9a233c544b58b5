"""``ProductDigest``'s transfer is the tuple of its components' results,
or None as soon as one component's result is None.  The product steps
each component in a plain loop, so these tests pin the result on every
program the suites run and pin that no component after a None is ever
stepped."""

from __future__ import annotations

import pytest

from racedigest.digests import CANONICAL_ORDER, Digest, ProductDigest, build_digests
from racedigest.dsl import parse_program
from racedigest.model import Action, instrument_atomicity
from racedigest.solver import build_system, solve
from tests.conftest import CORPUS_DIR, GENERATED

PROGRAMS = {
    **{path.parent.name: path.read_text(encoding="utf-8")
       for path in sorted(CORPUS_DIR.glob("*/program.rlp"))},
    **GENERATED,
}


def _compare_steps(text: str) -> dict:
    """Compare every step from every value the solver reaches, on every
    edge: each local step and create from each value, and each observing
    step from each value against each value of the keys it observes.
    Returns how many results were defined and how many None."""
    program = instrument_atomicity(parse_program(text))
    product = ProductDigest(build_digests(CANONICAL_ORDER))
    comps = product.components
    sol = solve(build_system(program, product))
    values = sorted(set().union(*sol.pp.values()), key=product.format_elem)
    outcomes = {"defined": 0, "none": 0}

    def check(got, results) -> None:
        want = None if any(v is None for v in results) else tuple(results)
        assert got == want
        outcomes["none" if want is None else "defined"] += 1

    for edge in program.all_edges():
        act = edge.action
        for elem in values:
            if act.is_observing:
                for key in act.observed_keys():
                    for other in sol.obs.get(key, ()):
                        check(product.step_observing(act, elem, other),
                              [c.step_observing(act, e0, e1)
                               for c, e0, e1 in zip(comps, elem, other)])
                continue
            check(product.step_local(act, elem),
                  [c.step_local(act, e) for c, e in zip(comps, elem)])
            if act.kind == "create":
                check(product.new_digest(elem, act.create_id),
                      [c.new_digest(e, act.create_id) for c, e in zip(comps, elem)])
    return outcomes


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_product_steps_are_the_component_steps(name):
    assert _compare_steps(PROGRAMS[name])["defined"] > 0


def test_the_comparison_meets_none_results():
    assert sum(_compare_steps(text)["none"] for text in PROGRAMS.values()) > 0


class _Pruning(Digest):
    """Every step is impossible."""

    name = "pruning"

    def init_digest(self):
        return 0

    def new_digest(self, elem, create_id: str):
        return None

    def step_local(self, act, elem):
        return None

    def step_observing(self, act, elem0, elem1):
        return None


class _Recording(Digest):
    """Every step keeps the value and is recorded."""

    name = "recording"

    def __init__(self) -> None:
        self.calls: list[str] = []

    def init_digest(self):
        return 0

    def new_digest(self, elem, create_id: str):
        self.calls.append("new_digest")
        return elem

    def step_local(self, act, elem):
        self.calls.append("step_local")
        return elem

    def step_observing(self, act, elem0, elem1):
        self.calls.append("step_observing")
        return elem0


def test_no_component_is_stepped_after_a_none():
    lock, create = Action("lock", "a"), Action("create", "t", create_id="e1")
    recording = _Recording()
    product = ProductDigest((_Pruning(), recording))
    elem = product.init_digest()
    assert product.step_local(create, elem) is None
    assert product.step_observing(lock, elem, elem) is None
    assert product.new_digest(elem, "e1") is None
    assert recording.calls == []
    # in front of the pruning component, the recording one is stepped
    recording = _Recording()
    product = ProductDigest((recording, _Pruning()))
    assert product.step_local(create, elem) is None
    assert product.step_observing(lock, elem, elem) is None
    assert product.new_digest(elem, "e1") is None
    assert recording.calls == ["step_local", "step_observing", "new_digest"]
