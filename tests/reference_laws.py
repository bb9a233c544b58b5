"""The four digest laws, each read off the traces on its own.  Every trace
is abstracted on its own, into a ``{trace: alpha}`` table, admissibility
replays each trace's step alone, and each law that reads no trace finds
its realized values itself when it is given none.  The harness in
``racedigest.digest`` abstracts each distinct (ego, history) once, takes
each distinct step's transfer once, and hands its three oracle-free laws,
which take ``(digest, program, values)``, the values it realized; its
stability and view loops are these.  ``test_law_reference.py`` checks
that it gives these functions' reports, violation for violation."""

from __future__ import annotations

from racedigest.digest import LawReport
from racedigest.digests import Digest
from racedigest.model import MAIN, Program, access_sequence, access_sites
from racedigest.oracle import TraceSet


def trace_table(d: Digest, ts: TraceSet) -> dict:
    """``{trace: alpha}`` over the traces of ``ts``, each abstracted."""
    return {t: d.abstract(t.ego, t.history) for t in ts.traces}


def realized_values(d: Digest, ts: TraceSet) -> list:
    """The initial digest value and those of every trace, in format order."""
    return sorted(set(trace_table(d, ts).values()) | {d.init_digest()}, key=d.format_elem)


def check_admissibility(d: Digest, p: Program, ts: TraceSet,
                        alpha: dict | None = None) -> LawReport:
    """Replay every concrete step of the enumeration, the one each trace
    but main's start records, against the digest transfer functions: the
    simulation law for local/observing steps, the creation laws, and the
    initialization law.
    ``alpha`` is the digest's ``{trace: alpha}`` table over ``ts``."""
    report = LawReport(d.name)
    if alpha is None:
        alpha = trace_table(d, ts)
    fmt = d.format_elem
    realized_at_create: set[tuple] = set()

    init_trace = next(
        t for t in ts.traces if t.top.instance == MAIN and t.top.index == 0
    )
    report.checks += 1
    if d.init_digest() != alpha[init_trace]:
        report.add(
            "init",
            f"init_digest() = {fmt(d.init_digest())} but alpha(init) = {fmt(alpha[init_trace])}",
        )

    for after in ts.traces:
        if after.before is None:  # main's start
            continue
        e, a0, a_out = after.top, alpha[after.before], alpha[after]
        report.checks += 1
        if e.edge is None:
            ce = e.instance[-1][0]
            got = d.new_digest(a0, ce)
            if got is None or got != a_out:
                report.add(
                    "new-thread",
                    f"new_digest({fmt(a0)}, {ce}) = "
                    f"{'none' if got is None else fmt(got)} but alpha(child) = {fmt(a_out)}",
                )
            continue
        act = e.action
        if after.observed is not None:
            got = d.step_observing(act, a0, alpha[after.observed])
        else:
            got = d.step_local(act, a0)
        if got is None or got != a_out:
            report.add(
                "simulation",
                f"step {e.describe()} from {fmt(a0)} gave "
                f"{'none' if got is None else fmt(got)} but alpha(result) = {fmt(a_out)}",
            )
        if act.kind == "create":
            realized_at_create.add((a0, act))

    for a0, act in sorted(realized_at_create, key=lambda x: (fmt(x[0]), x[1].create_id)):
        report.checks += 1
        if d.step_local(act, a0) is not None and d.new_digest(a0, act.create_id) is None:
            report.add(
                "new-thread-defined",
                f"create step defined on {fmt(a0)} but new_digest is not",
            )
    return report


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
