"""Digest abstraction: history summaries with transfer functions.

A digest is a set of abstract values together with transfer functions that
mirror the concrete trace semantics: an initial set, a value for newly
created threads, a step per local action, and a binary step per observing
action combining the ego value with the value of the observed trace.  All
steps are deterministic -- they return one value or None for "impossible".

Each digest also provides a commutative may-happen-in-parallel predicate
over the two-point lattice {false, top}: ``false`` proves two accesses are
never unordered, ``top`` means nothing is claimed.  ``generic_mhp`` derives
such a predicate for any access-stable digest from its atomicity-mutex lock
step.  The law harness replays enumerated concrete steps against the
transfer functions to check the simulation, creation, and initialization
laws, plus access stability and the exactness of each digest's observed
view.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from .model import MAIN, Action, Edge, Program, access_sequence, access_sites, atomicity_mutex

if TYPE_CHECKING:
    from .oracle import LocalTrace, TraceSet


class MhpVerdict(Enum):
    FALSE = "false"
    TOP = "top"

    def meet(self, other: "MhpVerdict") -> "MhpVerdict":
        if self is MhpVerdict.FALSE or other is MhpVerdict.FALSE:
            return MhpVerdict.FALSE
        return MhpVerdict.TOP


class ConfigError(Exception):
    """Invalid digest configuration (e.g. join without thread ids)."""


class ArityMismatch(ValueError):
    """A product table assembled from the wrong number of component tables."""


class Digest:
    """Base digest: every action leaves the value unchanged.

    Subclasses override the actions they track.  ``step_observing`` falls
    back to the local step on the first argument, which realizes the usual
    "other observing" rows of transfer tables.

    ``observed_view(act, elem1)`` is the part of the partner value ``elem1``
    that ``step_observing(act, elem0, elem1)`` reads: two partner values
    with equal views must give equal steps from every ego value (the
    view-exactness law).  The solver makes one observing step per distinct
    view, so a view that drops a field the step reads loses facts.  The
    default, the whole partner value, is always exact; a digest whose step
    ignores the partner returns ``None``.
    """

    name = "digest"

    def init_digests(self) -> frozenset:
        raise NotImplementedError

    def new_digest(self, elem, create_edge: Edge):
        raise NotImplementedError

    def step_local(self, act: Action, elem):
        return elem

    def step_observing(self, act: Action, elem0, elem1):
        return self.step_local(act, elem0)

    def observed_view(self, act: Action, elem1):
        return elem1

    def mhp(self, glob: str, a, b) -> MhpVerdict:
        raise NotImplementedError

    def abstract_trace(self, t: LocalTrace):
        raise NotImplementedError

    def format_elem(self, elem) -> str:
        return repr(elem)


def generic_mhp(d: Digest, glob: str, a, b) -> MhpVerdict:
    """The predicate any access-stable admissible digest induces: two
    accesses may be parallel only if the atomicity lock merges both ways."""
    act = Action("lock", atomicity_mutex(glob))
    if d.step_observing(act, a, b) is None or d.step_observing(act, b, a) is None:
        return MhpVerdict.FALSE
    return MhpVerdict.TOP


class ProductDigest(Digest):
    """Component-wise combination; the predicate is the meet of components.
    A value is a tuple of one component value each: ``init_digests`` and
    the transfer build every value of a solve that way, and
    ``product_table`` checks the tables it assembles values from."""

    def __init__(self, components: tuple[Digest, ...]):
        if not components:
            raise ConfigError("product of zero digests")
        self.components = tuple(components)
        self.name = "+".join(c.name for c in components)

    def init_digests(self) -> frozenset:
        parts = [sorted(c.init_digests(), key=c.format_elem) for c in self.components]
        return frozenset(itertools.product(*parts))

    def new_digest(self, elem, create_edge: Edge):
        return _defined(c.new_digest(e, create_edge) for c, e in zip(self.components, elem))

    def step_local(self, act: Action, elem):
        return _defined(c.step_local(act, e) for c, e in zip(self.components, elem))

    def step_observing(self, act: Action, elem0, elem1):
        return _defined(c.step_observing(act, e0, e1)
                        for c, e0, e1 in zip(self.components, elem0, elem1))

    def observed_view(self, act: Action, elem1):
        return tuple(c.observed_view(act, e) for c, e in zip(self.components, elem1))

    def mhp(self, glob: str, a, b) -> MhpVerdict:
        verdict = MhpVerdict.TOP
        for c, ea, eb in zip(self.components, a, b):
            verdict = verdict.meet(c.mhp(glob, ea, eb))
        return verdict

    def abstract_trace(self, t: LocalTrace):
        return tuple(c.abstract_trace(t) for c in self.components)

    def format_elem(self, elem) -> str:
        return "(" + " | ".join(c.format_elem(e) for c, e in zip(self.components, elem)) + ")"


def _defined(values) -> tuple | None:
    """The tuple of ``values``, or None at the first None, computing none
    of the values after it."""
    out = []
    for v in values:
        if v is None:
            return None
        out.append(v)
    return tuple(out)


# ---------------------------------------------------------------------------
# Law harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LawViolation:
    law: str
    detail: str


@dataclass
class LawReport:
    digest: str
    checks: int = 0
    violations: list[LawViolation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def add(self, law: str, detail: str) -> None:
        self.violations.append(LawViolation(law, detail))


def abstraction_table(d: Digest, ts: TraceSet) -> dict:
    """``{trace: d.abstract_trace(trace)}`` over the traces of ``ts``, in
    their order."""
    return {t: d.abstract_trace(t) for t in ts.traces}


def product_table(product: ProductDigest, tables: list[dict]) -> dict:
    """The abstraction table of ``product``, from the tables of its
    components over one trace set (so all in one trace order)."""
    if len(tables) != len(product.components):
        raise ArityMismatch(f"expected {len(product.components)} tables, got {len(tables)}")
    return dict(zip(tables[0], zip(*(table.values() for table in tables))))


def check_admissibility(d: Digest, p: Program, ts: TraceSet,
                        alpha: dict | None = None) -> LawReport:
    """Replay every concrete step of the enumeration (``ts.steps()``)
    against the digest transfer functions: the simulation law for
    local/observing steps, the creation laws, and the initialization law.
    ``alpha`` is the digest's abstraction table over ``ts``."""
    report = LawReport(d.name)
    if alpha is None:
        alpha = abstraction_table(d, ts)
    fmt = d.format_elem
    create_edges = p.create_edges()
    realized_at_create: set[tuple] = set()

    init_trace = next(
        t for t in ts.traces if t.top.instance == MAIN and t.top.index == 0
    )
    report.checks += 1
    if d.init_digests() != frozenset({alpha[init_trace]}):
        report.add(
            "init",
            f"init_digests() = {sorted(map(fmt, d.init_digests()))} but "
            f"alpha(init) = {fmt(alpha[init_trace])}",
        )

    for step in ts.steps():
        e, a0, a_out = step.event, alpha[step.before], alpha[step.after]
        report.checks += 1
        if e.edge is None:
            ce = e.instance[-1][0]
            got = d.new_digest(a0, create_edges[ce])
            if got is None or got != a_out:
                report.add(
                    "new-thread",
                    f"new_digest({fmt(a0)}, {ce}) = "
                    f"{'none' if got is None else fmt(got)} but alpha(child) = {fmt(a_out)}",
                )
            continue
        act = e.action
        if step.observed is not None:
            got = d.step_observing(act, a0, alpha[step.observed])
        else:
            got = d.step_local(act, a0)
        if got is None or got != a_out:
            report.add(
                "simulation",
                f"step {e.describe()} from {fmt(a0)} gave "
                f"{'none' if got is None else fmt(got)} but alpha(result) = {fmt(a_out)}",
            )
        if act.kind == "create":
            realized_at_create.add((a0, act.create_id))

    for a0, ce in sorted(realized_at_create, key=lambda x: (fmt(x[0]), x[1])):
        report.checks += 1
        act = create_edges[ce].action
        if d.step_local(act, a0) is not None and d.new_digest(a0, create_edges[ce]) is None:
            report.add(
                "new-thread-defined",
                f"create step defined on {fmt(a0)} but new_digest is not",
            )
    return report


def realized_values(d: Digest, ts: TraceSet, alpha: dict | None = None) -> list:
    """The initial digest values and those of every trace, in format order;
    ``alpha`` is the digest's abstraction table over ``ts``."""
    if alpha is None:
        alpha = abstraction_table(d, ts)
    return sorted(set(alpha.values()) | set(d.init_digests()), key=d.format_elem)


def check_mhp_commutativity(d: Digest, p: Program, ts: TraceSet,
                            realized: list | None = None) -> LawReport:
    """The parallelism predicate must not depend on argument order."""
    report = LawReport(d.name)
    if realized is None:
        realized = realized_values(d, ts)
    for glob in sorted(p.globals):
        for a in realized:
            for b in realized:
                report.checks += 1
                if d.mhp(glob, a, b) is not d.mhp(glob, b, a):
                    report.add(
                        "mhp-commutativity",
                        f"{glob}: mhp({d.format_elem(a)}, {d.format_elem(b)}) depends on order",
                    )
    return report


def check_access_stability(d: Digest, p: Program, ts: TraceSet,
                           realized: list | None = None) -> LawReport:
    """An access sequence lock(m_g); access; unlock(m_g) must leave any
    realized digest unchanged whenever it is defined."""
    report = LawReport(d.name)
    if realized is None:
        realized = realized_values(d, ts)
    for site, glob, _ in access_sites(p):
        lock_e, acc_e, unl_e = access_sequence(p, site)
        for a0 in realized:
            for a1 in realized:
                r = d.step_observing(lock_e.action, a0, a1)
                if r is not None:
                    r = d.step_local(acc_e.action, r)
                if r is not None:
                    r = d.step_local(unl_e.action, r)
                report.checks += 1
                if r is not None and r != a0:
                    report.add(
                        "access-stability",
                        f"sequence at {site} maps {d.format_elem(a0)} (observing "
                        f"{d.format_elem(a1)}) to {d.format_elem(r)}",
                    )
    return report


def check_view_exactness(d: Digest, p: Program, ts: TraceSet,
                         realized: list | None = None) -> LawReport:
    """Two partner values with equal ``observed_view`` must give equal
    observing steps: for every observing action of the program, every
    realized ego value and every two realized partners of one view."""
    report = LawReport(d.name)
    if realized is None:
        realized = realized_values(d, ts)
    fmt = d.format_elem
    for act in dict.fromkeys(e.action for e in p.all_edges() if e.action.is_observing):
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
