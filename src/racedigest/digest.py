"""Digest laws and the broken digests they must catch.

The law harness checks a digest from ``digests`` in two ways.
``check_admissibility`` replays enumerated concrete steps, read through a
``LawTables``, against the digest's transfer functions: the simulation,
creation and initialization laws.  Access stability, the commutativity of
the parallelism predicate and the exactness of each observed view read no
trace: each takes the digest, a program and a list of digest values, and
makes its own transfer calls.
``MUTANTS`` registers one deliberately broken variant of each shipped
digest, which the law or the soundness suite must catch.  Only ``conform``
and the tests load this module; the analyzer commands load ``digests``
and not this module.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING

from .digests import (
    MT,
    Digest,
    JoinDigest,
    JoinElem,
    LocksetDigest,
    OnceDigest,
    ProductDigest,
    ThreadFlagDigest,
    ThreadIdDigest,
    TidElem,
)
from .model import Action, Program, access_sequence, access_sites, is_atomicity_mutex

if TYPE_CHECKING:
    from .oracle import TraceSet


# ---------------------------------------------------------------------------
# Law harness
# ---------------------------------------------------------------------------

class LawViolation(namedtuple("LawViolation", "law detail")):
    __slots__ = ()


class LawReport:
    """The checks run on digest ``digest`` and the violations found, in
    order.  Two reports are equal when all three are."""

    __hash__ = None  # mutable

    def __init__(self, digest: str) -> None:
        self.digest = digest
        self.checks = 0
        self.violations: list[LawViolation] = []

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.digest, self.checks, self.violations) == (
            other.digest, other.checks, other.violations)

    def __repr__(self) -> str:
        return (f"LawReport(digest={self.digest!r}, checks={self.checks!r}, "
                f"violations={self.violations!r})")

    @property
    def passed(self) -> bool:
        return not self.violations

    def add(self, law: str, detail: str) -> None:
        self.violations.append(LawViolation(law, detail))


class LawTables:
    """What ``check_admissibility`` reads of digest ``d`` over the trace set
    ``ts`` (``traces``), each made once: ``values``, the digest's value at
    each distinct (ego, history) of the traces, in the order of
    ``ts.law_steps().keys``; and ``realized``, the initial value and those
    of ``values``, in format order, the value list the three oracle-free
    laws are checked on.

    A ``ProductDigest`` is refused: its laws follow from its components',
    each checked on its own tables."""

    def __init__(self, d: Digest, ts: TraceSet):
        if isinstance(d, ProductDigest):
            raise ValueError(f"{d.name}: a product's laws follow from its components'; "
                             "check each component")
        self.digest, self.traces = d, ts
        self.values = [d.abstract(*key) for key in ts.law_steps().keys]
        self.realized = sorted(set(self.values) | {d.init_digest()}, key=d.format_elem)


def _misses(report: LawReport, made: dict, values: list, got) -> list[tuple]:
    """One check of ``report`` per trace of a ``LawSteps`` group ``made``,
    and the (position, value) of each trace whose value is not ``got``."""
    out = []
    for after, positions in made.items():
        report.checks += len(positions)
        if got is None or got != values[after]:
            out += [(pos, values[after]) for pos in positions]
    return out


def check_admissibility(laws: LawTables) -> LawReport:
    """Replay every concrete step of the enumeration, the one each trace
    but main's start records, against the digest transfer functions: the
    simulation law for local/observing steps, the creation laws, and the
    initialization law.
    Each trace is read as the ``values`` entry of its (ego, history), so
    the transfer is taken once per group of ``ts.law_steps()``; each step
    is still one check, and each violating step is reported, in trace
    order."""
    d, ts, values = laws.digest, laws.traces, laws.values
    table = ts.law_steps()
    report = LawReport(d.name)
    fmt = d.format_elem
    realized_at_create: set[tuple] = set()

    a_init, init = values[0], d.init_digest()  # main's start
    report.checks += 1
    if init != a_init:
        report.add("init", f"init_digest() = {fmt(init)} but alpha(init) = {fmt(a_init)}")

    found: list[tuple[int, str, str]] = []  # (trace position, law, detail)
    for (edge, before, observed), made in table.steps.items():
        a0, act = values[before], edge.action
        if observed is not None:
            got = d.step_observing(act, a0, values[observed])
        else:
            got = d.step_local(act, a0)
        for pos, a_out in _misses(report, made, values, got):
            found.append((pos, "simulation",
                          f"step {ts.traces[pos].top.describe()} from {fmt(a0)} gave "
                          f"{'none' if got is None else fmt(got)} but alpha(result) = {fmt(a_out)}"))
        if act.kind == "create":
            realized_at_create.add((a0, act))
    for (ce, before), made in table.starts.items():
        a0 = values[before]
        got = d.new_digest(a0, ce)
        for pos, a_out in _misses(report, made, values, got):
            found.append((pos, "new-thread",
                          f"new_digest({fmt(a0)}, {ce}) = "
                          f"{'none' if got is None else fmt(got)} but alpha(child) = {fmt(a_out)}"))
    for _, law, detail in sorted(found):
        report.add(law, detail)

    for a0, act in sorted(realized_at_create, key=lambda x: (fmt(x[0]), x[1].create_id)):
        report.checks += 1
        if d.step_local(act, a0) is not None and d.new_digest(a0, act.create_id) is None:
            report.add(
                "new-thread-defined",
                f"create step defined on {fmt(a0)} but new_digest is not",
            )
    return report


def check_mhp_commutativity(d: Digest, program: Program, realized: list) -> LawReport:
    """The parallelism predicate must not depend on argument order: its
    verdict on each global of ``program`` and ordered pair of the values
    ``realized`` is compared with its transpose."""
    report = LawReport(d.name)
    fmt = d.format_elem
    for glob in sorted(program.globals):
        verdicts = [[d.mhp(glob, a, b) for b in realized] for a in realized]
        report.checks += len(realized) ** 2
        for a, row, column in zip(realized, verdicts, zip(*verdicts)):
            for b, ab, ba in zip(realized, row, column):
                if ab != ba:
                    report.add("mhp-commutativity",
                               f"{glob}: mhp({fmt(a)}, {fmt(b)}) depends on order")
    return report


def check_access_stability(d: Digest, program: Program, realized: list) -> LawReport:
    """An access sequence lock(m_g); access; unlock(m_g) of ``program``
    must leave each value of ``realized``, observing each of them, unchanged
    whenever it is defined."""
    report = LawReport(d.name)
    fmt = d.format_elem
    for site, _, _ in access_sites(program):
        lock_e, acc_e, unl_e = access_sequence(program, site)
        report.checks += len(realized) ** 2
        for a0 in realized:
            for a1 in realized:
                r = d.step_observing(lock_e.action, a0, a1)
                if r is not None:
                    r = d.step_local(acc_e.action, r)
                if r is not None:
                    r = d.step_local(unl_e.action, r)
                if r is not None and r != a0:
                    report.add("access-stability",
                               f"sequence at {site} maps {fmt(a0)} (observing "
                               f"{fmt(a1)}) to {fmt(r)}")
    return report


def check_view_exactness(d: Digest, program: Program, realized: list) -> LawReport:
    """Two partner values with equal ``observed_view`` must give equal
    observing steps: for every observing action of ``program``, every ego
    value of ``realized`` and every two partners of ``realized`` in one
    view class, each partner is compared with the first of its class."""
    report = LawReport(d.name)
    fmt = d.format_elem
    for act in dict.fromkeys(e.action for e in program.all_edges() if e.action.is_observing):
        by_view: dict = {}
        for a1 in realized:
            by_view.setdefault(d.observed_view(act, a1), []).append(a1)
        for first, *rest in by_view.values():
            if not rest:
                continue
            for a0 in realized:
                want = d.step_observing(act, a0, first)
                for a1 in rest:
                    report.checks += 1
                    got = d.step_observing(act, a0, a1)
                    if got != want:
                        report.add(
                            "view-exactness",
                            f"{act.kind} {act.target} from {fmt(a0)}: partners {fmt(first)} "
                            f"and {fmt(a1)} share a view but step to "
                            f"{'none' if want is None else fmt(want)} and "
                            f"{'none' if got is None else fmt(got)}",
                        )
    return report


# ---------------------------------------------------------------------------
# Mutants: one broken variant per shipped digest
# ---------------------------------------------------------------------------

class OverlapEmptyLockset(LocksetDigest):
    """Declares atomicity locks impossible under overlapping locksets, which
    breaks the simulation law."""

    name = "lockset@overlap-empty"

    def step_observing(self, act: Action, elem0, elem1):
        if act.kind == "lock" and is_atomicity_mutex(act.target) and elem0 & elem1:
            return None
        return super().step_observing(act, elem0, elem1)

    def observed_view(self, act: Action, elem1):
        return elem1 if act.kind == "lock" and is_atomicity_mutex(act.target) else None


class SpawnedPairThreadFlag(ThreadFlagDigest):
    """Wrongly says two spawned threads never run in parallel."""

    name = "threadflag@spawned-pair"

    def mhp(self, glob: str, a, b) -> bool:
        return not (a == MT and b == MT) and super().mhp(glob, a, b)


class EagerMayRunTid(ThreadIdDigest):
    """may_run ignores whether the creating edge was already taken."""

    name = "tid@eager-mayrun"

    def may_run(self, a: TidElem, b: TidElem) -> bool:
        if a.path is None or b.path is None:
            return True
        return not (len(b.path) > len(a.path) and b.path[: len(a.path)] == a.path)


class CreateCountsAsJoin(JoinDigest):
    """Marks a thread as terminated already at its creation."""

    name = "join@premature"

    def step_local(self, act: Action, elem):
        out = super().step_local(act, elem)
        if out is not None and act.kind == "create":
            path = self._tid.child_path(out.tid, act.create_id)
            if path is not None:
                return JoinElem(out.tid, out.joined | {path})
        return out


class CompletedPairOnce(OnceDigest):
    """Wrongly orders any two accesses that both saw a completion."""

    name = "once@completed-pair"

    def mhp(self, glob: str, a, b) -> bool:
        return not (a[1] & b[1]) and super().mhp(glob, a, b)


MUTANTS = {
    "lockset": OverlapEmptyLockset,
    "threadflag": SpawnedPairThreadFlag,
    "tid": EagerMayRunTid,
    "join": CreateCountsAsJoin,
    "once": CompletedPairOnce,
}
