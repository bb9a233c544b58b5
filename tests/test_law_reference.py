"""The law harness against ``reference_laws``, the laws as they were checked
when every trace was abstracted on its own and admissibility replayed each
trace's step alone.  The harness abstracts each (ego, history) once and
hands the three oracle-free laws its realized values.  On every
corpus case and the generated programs (where many traces share an
(ego, history)), and for every shipped digest, each registered mutant,
the inexact-view digests, a digest whose predicate depends on argument
order and three that break the initialization and creation laws, the
harness must give the same ``LawReport``: the same check count and the
same violations in the same order, and each ``mhp`` and ``generic_mhp``
verdict on the realized values is exactly a ``bool``.  Each test digest
breaks the law it is there for on some case.  The harness refuses the
product, whose laws follow from its components': wherever the reference
finds a product breaking a law, with any of these digests in its slot, the
harness finds one of its components breaking that law.  Call-count tests
pin that the law suite makes no product call and abstracts each
(ego, history) once."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from racedigest import digest as harness
from racedigest.conformance import run_law_suite
from racedigest.digest import MUTANTS, LawTables
from racedigest.digests import (
    CANONICAL_ORDER,
    MT,
    ST_MAIN,
    JoinDigest,
    LocksetDigest,
    OnceDigest,
    ProductDigest,
    ThreadFlagDigest,
    ThreadIdDigest,
    build_digests,
    generic_mhp,
)
from racedigest.dsl import parse_program
from racedigest.model import instrument_atomicity, is_atomicity_mutex
from racedigest.oracle import enumerate_traces

from tests import reference_laws as reference
from tests.conftest import GENERATED
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
    """(name, program, trace set) of every corpus case and every generated
    program."""
    out = [(case.name, case.program, case.traces()) for case in corpus_cases]
    for name, src in GENERATED.items():
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


ORACLE_FREE = (harness.check_access_stability, harness.check_mhp_commutativity,
               harness.check_view_exactness)


def _harness(d, p, ts) -> tuple:
    """The harness's four reports on ``d`` over ``ts``, in the order of
    ``_reference``: admissibility on a ``LawTables``, and the three
    oracle-free laws on its realized values."""
    laws = LawTables(d, ts)
    return (harness.check_admissibility(laws), *(law(d, p, laws.realized) for law in ORACLE_FREE))


def _harness_breaks(d, p, ts) -> set[str]:
    """The laws the harness finds ``d`` breaking on ``ts``."""
    return {v.law for report in _harness(d, p, ts) for v in report.violations}


@pytest.fixture(scope="module")
def shipped_breaks(law_inputs) -> dict:
    """``_harness_breaks`` of each shipped digest on each law input, by
    (input, digest name)."""
    return {(case, d.name): _harness_breaks(d, p, ts)
            for case, p, ts in law_inputs for d in build_digests(CANONICAL_ORDER)}


def _product_breaks(product, law_inputs, shipped_breaks) -> dict[tuple[str, str], bool]:
    """Each (input, law) where the reference finds ``product`` breaking a
    law, and whether the harness finds one of its components breaking that
    law there."""
    out = {}
    for case, p, ts in law_inputs:
        caught = set()
        for c in product.components:
            broken = shipped_breaks.get((case, c.name))
            caught |= _harness_breaks(c, p, ts) if broken is None else broken
        for report in _reference(product, p, ts):
            out.update(((case, v.law), v.law in caught) for v in report.violations)
    return out


def _uncaught(breaks: dict) -> list[tuple[str, str]]:
    return [key for key, caught in breaks.items() if not caught]


@pytest.mark.parametrize("name", list(DIGESTS))
def test_laws_match_the_reference(law_inputs, shipped_breaks, name):
    d = DIGESTS[name]
    if isinstance(d, ProductDigest):
        # the product's own code is checked against its components' laws
        assert _uncaught(_product_breaks(d, law_inputs, shipped_breaks)) == []
        with pytest.raises(ValueError, match="a product's laws follow from its components'"):
            LawTables(d, law_inputs[0][2])
        return
    for case, p, ts in law_inputs:
        assert _harness(d, p, ts) == _reference(d, p, ts), case
        # commutativity compares verdicts with != and the reference detector
        # renders them from the value, so each verdict is exactly a bool
        for glob in sorted(p.globals):
            for a, b in itertools.product(reference.realized_values(d, ts), repeat=2):
                assert type(d.mhp(glob, a, b)) is bool, case
                assert type(generic_mhp(d, glob, a, b)) is bool, case


class SwappedPartnerProduct(ProductDigest):
    """Hands each component the partner's value as its ego and the ego's
    as its partner: breaks the product's simulation law, though every
    component keeps its laws."""

    def step_observing(self, act, elem0, elem1):
        return super().step_observing(act, elem1, elem0)


def test_product_check_catches_a_planted_product_fault(law_inputs, shipped_breaks):
    # the product entry of test_laws_match_the_reference fails on this product
    product = SwappedPartnerProduct(build_digests(CANONICAL_ORDER))
    breaks = _product_breaks(product, law_inputs, shipped_breaks)
    assert ("prog1_running_example", "simulation") in _uncaught(breaks)


FAULTY = (*MUTANTS.values(), BlindThreadFlag, PathOnlyJoin, BlindOnce, BlindOverlapLockset,
          LeakyLockset, OrderedThreadFlag, *ADMISSIBILITY_BREAKERS)


def test_component_checks_catch_every_product_fault(law_inputs, shipped_breaks):
    """Each faulty test digest, in its slot of the shipped product: wherever
    the reference finds the product breaking a law, the harness finds a
    component breaking that law, so checking the components alone loses no
    fault of the product."""
    broken = set()
    for factory in FAULTY:
        d = factory()
        components = list(build_digests(CANONICAL_ORDER))
        components[CANONICAL_ORDER.index(d.name.split("@")[0])] = d
        product = ProductDigest(tuple(components))
        breaks = _product_breaks(product, law_inputs, shipped_breaks)
        assert _uncaught(breaks) == [], d.name
        broken |= {law for _, law in breaks}
    # the products break every law but commutativity on some input
    assert broken == {"init", "simulation", "new-thread", "new-thread-defined",
                      "access-stability", "view-exactness"}


def test_law_inputs_share_keys_and_break_simulation(law_inputs):
    # the comparison above covers traces that share an (ego, history), and
    # per-step simulation violations
    by_name = {name: ts for name, _, ts in law_inputs}
    for name in GENERATED:
        traces = by_name[name].traces
        assert len({(t.ego, t.history) for t in traces}) < len(traces), name
    _, p, ts = next(x for x in law_inputs if x[0] == "mutex_handoff_protected")
    violations = reference.check_admissibility(DIGESTS["lockset@overlap-empty"], p, ts).violations
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
    assert section.passed and section.checks == 10028
    # the product's laws follow from its components', so the suite checks
    # each component and never calls the product's transfer or predicate
    assert calls == Counter(), dict(calls)


ABSTRACTING = (LocksetDigest, ThreadFlagDigest, ThreadIdDigest, JoinDigest, OnceDigest,
               ProductDigest)


def test_law_suite_abstracts_each_key_once(corpus_cases, monkeypatch):
    """``run_law_suite`` calls each component's ``abstract`` once per
    distinct (ego, history) of a case, and the product's never: the
    product is not checked.  Calls a digest makes inside its own
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
