"""The law harness against ``reference_laws``, the laws as they were checked
when each made its own transfer calls.  On every corpus case and for every
shipped digest, their product, each registered mutant, the inexact-view
digests and a digest whose predicate depends on argument order, the
shared-table harness must give the same ``LawReport``: the same check count
and the same violations in the same order.  Each test digest breaks the
law it is there for on some case.  A call-count test pins the
saving on the product."""

from __future__ import annotations

from collections import Counter

import pytest

from racedigest import digest as harness
from racedigest.conformance import run_law_suite
from racedigest.digest import MhpVerdict, ObservingTable, ProductDigest
from racedigest.digests import (
    CANONICAL_ORDER,
    DEFAULT_TID_CAP,
    MUTANTS,
    ST_MAIN,
    LocksetDigest,
    ThreadFlagDigest,
    build_digests,
)
from racedigest.model import Action, atomicity_mutex, is_atomicity_mutex

from tests import reference_laws as reference
from tests.test_view_exactness import BlindOnce, BlindOverlapLockset, BlindThreadFlag, PathOnlyJoin


class OrderedThreadFlag(ThreadFlagDigest):
    """Excludes a pair only when its first access is single-threaded main."""

    name = "threadflag@ordered-mhp"

    def mhp(self, glob, a, b):
        return MhpVerdict.FALSE if a == ST_MAIN else MhpVerdict.TOP


class LeakyLockset(LocksetDigest):
    """Takes over the partner's locks at an atomicity lock, which breaks
    access stability for every partner holding a lock the ego does not, but
    declares a view that ignores the partner: the partners of one view class
    step apart, and only some of them move the ego."""

    name = "lockset@leaky-blind-view"

    def step_observing(self, act, elem0, elem1):
        out = super().step_observing(act, elem0, elem1)
        if out is not None and act.kind == "lock" and is_atomicity_mutex(act.target):
            return out | elem1
        return out


def _digests() -> dict:
    shipped = build_digests(CANONICAL_ORDER)
    out = {d.name: d for d in shipped}
    out["product"] = ProductDigest(shipped)
    for target, factory in sorted(MUTANTS.items()):
        mutant = factory(DEFAULT_TID_CAP) if target in ("tid", "join") else factory()
        out[mutant.name] = mutant
    for factory in (BlindThreadFlag, PathOnlyJoin, BlindOnce, BlindOverlapLockset,
                    LeakyLockset, OrderedThreadFlag):
        out[factory.name] = factory()
    return out


DIGESTS = _digests()


def _reference(d, case, ts) -> tuple:
    realized = reference.realized_values(d, ts)
    return (
        reference.check_admissibility(d, case.program, ts),
        reference.check_access_stability(d, case.program, ts, realized),
        reference.check_mhp_commutativity(d, case.program, ts, realized),
        reference.check_view_exactness(d, case.program, ts, realized),
    )


@pytest.mark.parametrize("name", list(DIGESTS))
def test_laws_match_the_reference(corpus_cases, name):
    d = DIGESTS[name]
    for case in corpus_cases:
        ts = case.traces()
        want = _reference(d, case, ts)
        # each law on its own, building its own table
        alone = (
            harness.check_admissibility(d, case.program, ts),
            harness.check_access_stability(d, case.program, ts),
            harness.check_mhp_commutativity(d, case.program, ts),
            harness.check_view_exactness(d, case.program, ts),
        )
        assert alone == want, case.name
        # stability first, then the view law over the same table, as in
        # run_law_suite
        table = ObservingTable(d, harness.realized_values(d, ts))
        stability = harness.check_access_stability(d, case.program, ts, table=table)
        view = harness.check_view_exactness(d, case.program, ts, table=table)
        assert (stability, view) == (want[1], want[3]), case.name
        # and the view law first
        table = ObservingTable(d, harness.realized_values(d, ts))
        view = harness.check_view_exactness(d, case.program, ts, table=table)
        stability = harness.check_access_stability(d, case.program, ts, table=table)
        assert (stability, view) == (want[1], want[3]), case.name


def _violating(d, law, corpus_cases) -> list[str]:
    return [case.name for case in corpus_cases
            if not getattr(reference, law)(d, case.program, case.traces()).passed]


@pytest.mark.parametrize("name,law", [
    *((f.name, "check_view_exactness")
      for f in (BlindThreadFlag, PathOnlyJoin, BlindOnce, BlindOverlapLockset, LeakyLockset)),
    (LeakyLockset.name, "check_access_stability"),
    (OrderedThreadFlag.name, "check_mhp_commutativity"),
])
def test_differential_digests_break_their_law(corpus_cases, name, law):
    # the comparison above covers a violating path only if some case violates
    assert _violating(DIGESTS[name], law, corpus_cases)


def test_lock_steps_share_one_object_per_view_class(corpus_cases):
    case = next(c for c in corpus_cases if c.name == "prog1_running_example")
    ts = case.traces()
    product = DIGESTS["product"]
    table = ObservingTable(product, harness.realized_values(product, ts))
    lock = Action("lock", atomicity_mutex(sorted(case.program.globals)[0]))
    classes = {product.observed_view(lock, a1) for a1 in table.realized}
    for a0, row in zip(table.realized, table.rows(lock)):
        assert row == [product.step_observing(lock, a0, a1) for a1 in table.realized]
        assert len({id(r) for r in row}) <= len(classes)


TRANSFER = ("step_observing", "step_local", "new_digest", "mhp")


def test_product_law_suite_makes_few_transfer_calls(corpus_cases, monkeypatch):
    for case in corpus_cases:
        case.traces()
    calls: Counter = Counter()
    for name in TRANSFER:
        original = getattr(ProductDigest, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(ProductDigest, name, counted)
    section = run_law_suite(corpus_cases)
    assert section.passed and section.checks == 17932
    # the harness before the shared table made 17,343 of these calls
    assert sum(calls.values()) <= 7000, dict(calls)

