"""The law harness against ``reference_laws``, the laws as they were checked
when each made its own transfer calls and abstracted every trace.  On every
corpus case, the generated programs (where many traces share an
(ego, history)) and the once hand-off (where the once digest breaks the
simulation law), and for every shipped digest, their product, each
registered mutant, the inexact-view digests, a digest whose predicate
depends on argument order and three that break the initialization and
creation laws, the harness must give the same ``LawReport``:
the same check count and the same violations in the same order, and each
``mhp`` and ``generic_mhp`` verdict on the realized values is exactly a
``bool``.  Each test digest breaks the law it is there for on some case.
Call-count tests pin the saving on the product and one abstraction per
(ego, history)."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from racedigest import digest as harness
from racedigest.conformance import run_law_suite
from racedigest.digest import LawTables, ProductDigest, generic_mhp
from racedigest.digests import (
    CANONICAL_ORDER,
    MT,
    MUTANTS,
    ST_MAIN,
    JoinDigest,
    LocksetDigest,
    OnceDigest,
    ThreadFlagDigest,
    ThreadIdDigest,
    build_digests,
)
from racedigest.dsl import parse_program
from racedigest.model import (Action, atomicity_mutex, instrument_atomicity,
                              is_atomicity_mutex)
from racedigest.oracle import enumerate_traces

from tests import reference_laws as reference
from tests.conftest import GENERATED, ONCE_HANDOFF
from tests.test_view_exactness import BlindOnce, BlindOverlapLockset, BlindThreadFlag, PathOnlyJoin


class OrderedThreadFlag(ThreadFlagDigest):
    """Excludes a pair only when its first access is single-threaded main."""

    name = "threadflag@ordered-mhp"

    def mhp(self, glob, a, b):
        return a != ST_MAIN


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


class MultiThreadedInit(ThreadFlagDigest):
    """Starts main multi-threaded: breaks the initialization law."""

    name = "threadflag@mt-init"

    def init_digest(self):
        return MT


class InheritingThreadFlag(ThreadFlagDigest):
    """Gives a child its creator's flag, not that of a spawned thread:
    breaks the creation law."""

    name = "threadflag@inherited"

    def new_digest(self, elem, create_id):
        return elem


class ChildlessThreadFlag(ThreadFlagDigest):
    """Takes the create step but refuses the child a value: breaks both
    creation laws."""

    name = "threadflag@childless"

    def new_digest(self, elem, create_id):
        return None


ADMISSIBILITY_BREAKERS = (MultiThreadedInit, InheritingThreadFlag, ChildlessThreadFlag)


def _digests() -> dict:
    shipped = build_digests(CANONICAL_ORDER)
    out = {d.name: d for d in shipped}
    out["product"] = ProductDigest(shipped)
    for _, factory in sorted(MUTANTS.items()):
        mutant = factory()
        out[mutant.name] = mutant
    for factory in (BlindThreadFlag, PathOnlyJoin, BlindOnce, BlindOverlapLockset,
                    LeakyLockset, OrderedThreadFlag, *ADMISSIBILITY_BREAKERS):
        out[factory.name] = factory()
    return out


DIGESTS = _digests()


@pytest.fixture(scope="module")
def law_inputs(corpus_cases) -> list[tuple]:
    """(name, program, trace set) of every corpus case, every generated
    program and the once hand-off."""
    out = [(case.name, case.program, case.traces()) for case in corpus_cases]
    for name, src in {**GENERATED, "once-handoff": ONCE_HANDOFF}.items():
        program = instrument_atomicity(parse_program(src))
        out.append((name, program, enumerate_traces(program)))
    return out


def _reference(d, p, ts) -> tuple:
    realized = reference.realized_values(d, ts)
    return (
        reference.check_admissibility(d, p, ts),
        reference.check_access_stability(d, p, ts, realized),
        reference.check_mhp_commutativity(d, p, ts, realized),
        reference.check_view_exactness(d, p, ts, realized),
    )


@pytest.mark.parametrize("name", list(DIGESTS))
def test_laws_match_the_reference(law_inputs, name):
    d = DIGESTS[name]
    for case, p, ts in law_inputs:
        want = _reference(d, p, ts)
        # each law on its own tables
        alone = tuple(law(LawTables(d, ts)) for law in (
            harness.check_admissibility,
            harness.check_access_stability,
            harness.check_mhp_commutativity,
            harness.check_view_exactness,
        ))
        assert alone == want, case
        # stability first, then the view law over the same tables, as in
        # run_law_suite
        laws = LawTables(d, ts)
        stability = harness.check_access_stability(laws)
        view = harness.check_view_exactness(laws)
        assert (stability, view) == (want[1], want[3]), case
        # and the view law first
        laws = LawTables(d, ts)
        view = harness.check_view_exactness(laws)
        stability = harness.check_access_stability(laws)
        assert (stability, view) == (want[1], want[3]), case
        # commutativity compares verdicts with != and the reference detector
        # renders them from the value, so each verdict is exactly a bool
        for glob in sorted(p.globals):
            for a, b in itertools.product(laws.realized, repeat=2):
                assert type(d.mhp(glob, a, b)) is bool, case
                assert type(generic_mhp(d, glob, a, b)) is bool, case


def test_law_inputs_share_keys_and_break_simulation(law_inputs):
    # the comparison above covers traces that share an (ego, history), and
    # per-step simulation violations
    by_name = {name: ts for name, _, ts in law_inputs}
    for name in GENERATED:
        traces = by_name[name].traces
        assert len({(t.ego, t.history) for t in traces}) < len(traces), name
    _, p, ts = next(x for x in law_inputs if x[0] == "once-handoff")
    violations = reference.check_admissibility(DIGESTS["once"], p, ts).violations
    assert [v.law for v in violations].count("simulation") > 0
    # the harness takes each distinct step once; here 143 steps are 39, and
    # two mutants break admissibility twice each
    _, p, ts = next(x for x in law_inputs if x[0] == "interleave-2x2-s0")
    table = ts.law_steps()
    assert (len(ts.traces) - 1, len(table.steps) + len(table.starts)) == (143, 39)
    for name in ("join@premature", "lockset@overlap-empty"):
        assert len(reference.check_admissibility(DIGESTS[name], p, ts).violations) == 2, name
    # here the lockset mutant breaks repeated steps, whose repeats fall
    # between those of another step: trace order is not the steps' order
    _, p, ts = next(x for x in law_inputs if x[0] == "locked-2/1/1-s0")
    violations = reference.check_admissibility(DIGESTS["lockset@overlap-empty"], p, ts).violations
    details = [v.detail for v in violations]
    assert details != sorted(details, key=details.index)


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


@pytest.mark.parametrize("factory, violations", [
    (MultiThreadedInit, [("init", "init_digest() = MT but alpha(init) = ST_main")]),
    (InheritingThreadFlag,
     [("new-thread", "new_digest(ST_main, e1) = ST_main but alpha(child) = MT")]),
    (ChildlessThreadFlag,
     [("new-thread", "new_digest(ST_main, e1) = none but alpha(child) = MT"),
      ("new-thread-defined", "create step defined on ST_main but new_digest is not")]),
], ids=["init", "new-thread", "new-thread-defined"])
def test_admissibility_catches_init_and_creation_faults(corpus_cases, factory, violations):
    case = next(c for c in corpus_cases if c.name == "prog1_running_example")
    report = harness.check_admissibility(LawTables(factory(), case.traces()))
    assert [tuple(v) for v in report.violations] == violations


def test_lock_steps_share_one_object_per_view_class(corpus_cases):
    case = next(c for c in corpus_cases if c.name == "prog1_running_example")
    ts = case.traces()
    product = DIGESTS["product"]
    laws = LawTables(product, ts)
    lock = Action("lock", atomicity_mutex(sorted(case.program.globals)[0]))
    classes = {product.observed_view(lock, a1) for a1 in laws.realized}
    for a0, row in zip(laws.realized, laws.rows(lock)):
        assert row == [product.step_observing(lock, a0, a1) for a1 in laws.realized]
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
    # the harness before the shared table made 17,343 of these calls, and
    # 6,821 while it stepped the product's rows and verdicts itself; now no
    # mhp call is left, and the rest replay the transfer for admissibility
    # and access stability
    assert calls == Counter(step_local=955, step_observing=138, new_digest=56), dict(calls)


ABSTRACTING = (LocksetDigest, ThreadFlagDigest, ThreadIdDigest, JoinDigest, OnceDigest,
               ProductDigest)


def test_law_suite_abstracts_each_key_once(corpus_cases, monkeypatch):
    """``run_law_suite`` calls each component's ``abstract`` once per
    distinct (ego, history) of a case, and the product's never: its values
    are read off the components'.  Calls a digest makes inside its own
    ``abstract`` (the join digest's tid) are not counted."""
    calls: Counter = Counter()
    inside = [0]
    for cls in ABSTRACTING:
        original = cls.abstract

        def counted(self, ego, history, _original=original):
            if not inside[0]:
                calls[self.name, ego, history] += 1
            inside[0] += 1
            try:
                return _original(self, ego, history)
            finally:
                inside[0] -= 1

        monkeypatch.setattr(cls, "abstract", counted)
    shared = 0
    for case in corpus_cases:
        traces = case.traces().traces
        keys = {(t.ego, t.history) for t in traces}
        shared += len(traces) - len(keys)
        calls.clear()
        assert run_law_suite([case]).passed
        assert calls == Counter(
            {(name, *key): 1 for name in CANONICAL_ORDER for key in keys}), case.name
    assert shared > 0
