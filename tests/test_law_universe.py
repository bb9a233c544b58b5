"""The three oracle-free laws take a digest, a program and a list of
values, and read no trace, so they can check values that no trace
realizes.  Here they run on the realized values of ``once_two_vars`` and
on its once universe, every (active, completed) pair of subsets of its
once variables, built by hand."""

from __future__ import annotations

import itertools

import pytest

from racedigest.digest import (LawTables, check_access_stability, check_mhp_commutativity,
                               check_view_exactness)
from racedigest.digests import OnceDigest

from tests.conftest import corpus_program

ORACLE_FREE = (check_access_stability, check_mhp_commutativity, check_view_exactness)


class BothActiveOnce(OnceDigest):
    """Orders every access whose first value has both once variables
    active, whatever the second: breaks commutativity on a value no trace
    of ``once_two_vars`` realizes."""

    name = "once@both-active"

    def mhp(self, glob, a, b):
        return a[0] != {"o1", "o2"} and super().mhp(glob, a, b)


def _universe(d, program) -> list:
    names = sorted(program.once_vars)
    subsets = [frozenset(c) for n in range(len(names) + 1)
               for c in itertools.combinations(names, n)]
    return sorted(itertools.product(subsets, repeat=2), key=d.format_elem)


@pytest.fixture(scope="module")
def once_two_vars(corpus_cases):
    return next(c for c in corpus_cases if c.name == "once_two_vars")


def _reports(d, program, values) -> list:
    return [law(d, program, values) for law in ORACLE_FREE]


def test_the_universe_holds_the_realized_values(once_two_vars):
    d = OnceDigest()
    universe = _universe(d, corpus_program("once_two_vars"))
    realized = LawTables(d, once_two_vars.traces()).realized
    assert (len(universe), len(realized)) == (16, 7)
    assert set(realized) < set(universe)


@pytest.mark.parametrize("factory", [OnceDigest, BothActiveOnce], ids=lambda f: f.name)
def test_the_laws_hold_on_the_realized_values(once_two_vars, factory):
    d = factory()
    realized = LawTables(d, once_two_vars.traces()).realized
    reports = _reports(d, once_two_vars.program, realized)
    assert all(r.passed and r.checks for r in reports), reports


def test_the_universe_catches_what_the_realized_values_miss():
    program = corpus_program("once_two_vars")
    shipped = OnceDigest()
    assert all(r.passed and r.checks for r in _reports(shipped, program,
                                                       _universe(shipped, program)))
    d = BothActiveOnce()
    stability, commutativity, view = _reports(d, program, _universe(d, program))
    assert stability.passed and view.passed
    assert commutativity.checks == 16 * 16
    assert len(commutativity.violations) == 8
    assert {v.law for v in commutativity.violations} == {"mhp-commutativity"}
    assert "g: mhp(A{o1,o2}C{}, A{}C{}) depends on order" in [
        v.detail for v in commutativity.violations]
