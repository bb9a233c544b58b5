"""Digest abstraction: history summaries with transfer functions.

A digest is a set of abstract values together with transfer functions that
mirror the concrete trace semantics: one initial value, a value for each
thread created through a create id, a step per local action, and a binary
step per observing action combining the ego value with the value of the
observed trace.  All steps are deterministic -- they return one value or
None for "impossible".

Each digest also provides a commutative may-happen-in-parallel predicate,
a ``bool`` standing for the two-point lattice {false, top}: False proves two
accesses never run in parallel, True (top) claims nothing.  ``generic_mhp``
derives such a predicate for any access-stable digest from its
atomicity-mutex lock step.  The law harness replays enumerated concrete
steps against the transfer functions to check the simulation, creation,
and initialization laws, plus access stability and the exactness of each
digest's observed view.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from typing import TYPE_CHECKING

from .model import Action, access_sequence, access_sites, atomicity_mutex

if TYPE_CHECKING:
    from .oracle import TraceSet


class ConfigError(Exception):
    """Invalid digest configuration (e.g. join without thread ids)."""


class Digest:
    """Base digest: every action leaves the value unchanged.

    ``init_digest()`` is the value of main's start, and
    ``new_digest(elem, create_id)`` the value of the thread an ego at
    ``elem`` creates through the create edge ``create_id`` (create ids
    are unique per program), or None.  Subclasses override the actions
    they track.  ``step_observing`` falls back to the local step on the
    first argument, which realizes the usual "other observing" rows of
    transfer tables.

    ``observed_view(act, elem1)`` is the part of the partner value ``elem1``
    that ``step_observing(act, elem0, elem1)`` reads: two partner values
    with equal views must give equal steps from every ego value (the
    view-exactness law).  The solver makes one observing step per distinct
    view, so a view that drops a field the step reads loses facts.  The
    default, the whole partner value, is always exact; a digest whose step
    ignores the partner returns ``None``.

    ``abstract(ego, history)`` is the abstraction map the law harness
    checks the transfer against: the value of a local trace whose ego
    thread is the instance ``ego`` and whose knowledge is the oracle's
    ``History`` value ``history``.  It may read nothing else of the trace,
    so the harness abstracts each distinct pair once.
    """

    name = "digest"

    def init_digest(self):
        raise NotImplementedError

    def new_digest(self, elem, create_id: str):
        raise NotImplementedError

    def step_local(self, act: Action, elem):
        return elem

    def step_observing(self, act: Action, elem0, elem1):
        return self.step_local(act, elem0)

    def observed_view(self, act: Action, elem1):
        return elem1

    def mhp(self, glob: str, a, b) -> bool:
        raise NotImplementedError

    def abstract(self, ego, history):
        raise NotImplementedError

    def format_elem(self, elem) -> str:
        return repr(elem)


def generic_mhp(d: Digest, glob: str, a, b) -> bool:
    """The predicate any access-stable admissible digest induces: two
    accesses may be parallel only if the atomicity lock merges both ways."""
    act = Action("lock", atomicity_mutex(glob))
    return d.step_observing(act, a, b) is not None and d.step_observing(act, b, a) is not None


def _all_defined(steps):
    """The tuple of the component results ``steps`` yields, or None at the
    first None, taking no later component's step."""
    out = []
    for v in steps:
        if v is None:
            return None
        out.append(v)
    return tuple(out)


class ProductDigest(Digest):
    """Component-wise combination; the predicate is the meet of components.
    A value is a tuple of one component value each: ``init_digest``, the
    transfer and ``abstract`` build every value that way."""

    def __init__(self, components: tuple[Digest, ...]):
        if not components:
            raise ConfigError("product of zero digests")
        self.components = tuple(components)
        self.name = "+".join(c.name for c in components)
        # the components' steps and predicates, looked up once
        self._step_local = tuple(c.step_local for c in self.components)
        self._step_observing = tuple(c.step_observing for c in self.components)
        self._mhp = tuple(c.mhp for c in self.components)

    def init_digest(self):
        return tuple(c.init_digest() for c in self.components)

    def new_digest(self, elem, create_id: str):
        return _all_defined(c.new_digest(e, create_id) for c, e in zip(self.components, elem))

    def step_local(self, act: Action, elem):
        return _all_defined(step(act, e) for step, e in zip(self._step_local, elem))

    def step_observing(self, act: Action, elem0, elem1):
        return _all_defined(
            step(act, e0, e1) for step, e0, e1 in zip(self._step_observing, elem0, elem1))

    def observed_view(self, act: Action, elem1):
        return tuple(c.observed_view(act, e) for c, e in zip(self.components, elem1))

    def mhp(self, glob: str, a, b) -> bool:
        # the meet of the components' verdicts: False at the first False
        return all(mhp(glob, ea, eb) for mhp, ea, eb in zip(self._mhp, a, b))

    def abstract(self, ego, history):
        return tuple(c.abstract(ego, history) for c in self.components)

    def format_elem(self, elem) -> str:
        return "(" + " | ".join(c.format_elem(e) for c, e in zip(self.components, elem)) + ")"


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
    """What the laws read of digest ``d`` over the trace set ``ts``
    (``traces``), each made once: ``values``, the digest's value at each
    distinct (ego, history) of the traces, in the order of
    ``ts.law_steps().keys``; ``realized``, the initial value and those of
    ``values``, in format order; and, built on first use, the observing
    steps and ``mhp`` verdicts over the realized values:
    ``rows(act)[i][j]`` is ``step_observing(act, realized[i], realized[j])``
    and ``verdicts(glob)[i][j]`` is ``mhp(glob, realized[i], realized[j])``.

    Building the rows of an action is the view-exactness law: each partner
    is compared with the first partner of its ``observed_view`` class, and
    one whose step equals that first step holds the first step's object.
    So the rows of an action hold at most one object per (ego, view class)
    unless the view is inexact, and a partner whose step differs from its
    class keeps its own result.

    A ``ProductDigest``'s ``values``, ``rows`` and ``verdicts`` are read
    off one table per component, ``parts``, without calling the product;
    admissibility and access stability still step its own transfer."""

    def __init__(self, d: Digest, ts: TraceSet):
        self.digest, self.traces = d, ts
        product = isinstance(d, ProductDigest)
        self.parts = tuple(LawTables(c, ts) for c in d.components) if product else ()
        self.values = (list(zip(*(part.values for part in self.parts))) if product
                       else [d.abstract(*key) for key in ts.law_steps().keys])
        self.realized = sorted(set(self.values) | {d.init_digest()}, key=d.format_elem)
        # per part, the position in its realized of each realized value's component
        index = [{v: i for i, v in enumerate(part.realized)} for part in self.parts]
        self._at = [[ix[a[k]] for a in self.realized] for k, ix in enumerate(index)]
        self._rows: dict[Action, list[list]] = {}
        self._view_law: dict[Action, LawReport] = {}
        self._verdicts: dict[str, list[list]] = {}

    def rows(self, act: Action) -> list[list]:
        rows = self._rows.get(act)
        if rows is None:
            rows = self._rows[act] = self._build(act)
        return rows

    def view_law(self, act: Action) -> LawReport:
        """The view-exactness checks and violations of building ``act``."""
        self.rows(act)
        return self._view_law[act]

    def verdicts(self, glob: str) -> list[list]:
        table = self._verdicts.get(glob)
        if table is None:
            table = self._verdicts[glob] = self._table(
                partial(self.digest.mhp, glob), [p.verdicts(glob) for p in self.parts], all)
        return table

    def _table(self, step, tables: list, meet) -> list[list]:
        """``step`` over each ordered pair of realized values; for a product,
        ``meet`` of the parts' entries in ``tables``, one table per part."""
        if not self.parts:
            return [[step(a0, a1) for a1 in self.realized] for a0 in self.realized]
        seen: dict = {}
        out = []
        for i in range(len(self.realized)):
            # per part, its row at ego i's component, read at each partner's component
            columns = [map(t[at[i]].__getitem__, at) for t, at in zip(tables, self._at)]
            out.append([seen.setdefault(v, v) for v in map(meet, zip(*columns))])
        return out

    def _build(self, act: Action) -> list[list]:
        d, realized = self.digest, self.realized
        rows = self._table(partial(d.step_observing, act), [p.rows(act) for p in self.parts],
                           _all_defined)
        fmt = d.format_elem
        report = self._view_law[act] = LawReport(d.name)
        by_view: dict = {}
        for j, a1 in enumerate(realized):
            by_view.setdefault(d.observed_view(act, a1), []).append(j)
        for first, *rest in by_view.values():
            for a0, row in zip(realized, rows):
                want = row[first]
                for j in rest:
                    report.checks += 1
                    got = row[j]
                    if got == want:
                        row[j] = want
                        continue
                    report.add(
                        "view-exactness",
                        f"{act.kind} {act.target} from {fmt(a0)}: partners "
                        f"{fmt(realized[first])} and {fmt(realized[j])} share a view but "
                        f"step to {'none' if want is None else fmt(want)} and "
                        f"{'none' if got is None else fmt(got)}",
                    )
        return rows


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


def check_mhp_commutativity(laws: LawTables) -> LawReport:
    """The parallelism predicate must not depend on argument order: each
    entry of ``laws.verdicts``, one per global and ordered pair of realized
    values, is compared with its transpose."""
    d, realized = laws.digest, laws.realized
    report = LawReport(d.name)
    fmt = d.format_elem
    for glob in sorted(laws.traces.program.globals):
        verdicts = laws.verdicts(glob)
        report.checks += len(realized) ** 2
        for a, row, column in zip(realized, verdicts, zip(*verdicts)):
            for b, ab, ba in zip(realized, row, column):
                if ab != ba:
                    report.add("mhp-commutativity",
                               f"{glob}: mhp({fmt(a)}, {fmt(b)}) depends on order")
    return report


def check_access_stability(laws: LawTables) -> LawReport:
    """An access sequence lock(m_g); access; unlock(m_g) must leave any
    realized digest unchanged whenever it is defined.  The lock steps are
    read from ``laws.rows``, and the access and unlock steps are taken once
    per distinct lock result of each site and ego."""
    d, realized, p = laws.digest, laws.realized, laws.traces.program
    report = LawReport(d.name)
    fmt = d.format_elem
    for site, glob, _ in access_sites(p):
        lock_e, acc_e, unl_e = access_sequence(p, site)
        report.checks += len(realized) ** 2
        for a0, row in zip(realized, laws.rows(lock_e.action)):
            # id(lock result) -> what the sequence maps a0 to, where that is not a0
            moved: dict[int, object] = {}
            for r in {id(r): r for r in row if r is not None}.values():
                out = d.step_local(acc_e.action, r)
                if out is not None:
                    out = d.step_local(unl_e.action, out)
                if out is not None and out != a0:
                    moved[id(r)] = out
            if moved:
                for a1, r in zip(realized, row):
                    if id(r) in moved:
                        report.add(
                            "access-stability",
                            f"sequence at {site} maps {fmt(a0)} (observing "
                            f"{fmt(a1)}) to {fmt(moved[id(r)])}",
                        )
    return report


def check_view_exactness(laws: LawTables) -> LawReport:
    """Two partner values with equal ``observed_view`` must give equal
    observing steps: for every observing action of the program, every
    realized ego value and every two realized partners of one view.  The
    checks are those of building ``laws.rows``."""
    report = LawReport(laws.digest.name)
    program = laws.traces.program
    for act in dict.fromkeys(e.action for e in program.all_edges() if e.action.is_observing):
        built = laws.view_law(act)
        report.checks += built.checks
        report.violations.extend(built.violations)
    return report
