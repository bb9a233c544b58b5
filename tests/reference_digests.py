"""The once and join abstraction maps as they stood before the one history
fold: ``completed_at`` walks each trace in causal order and
``joined_of`` recurses once per nested join over per-instance scans.  Kept
only as the reference ``LocalTrace.history`` is compared against."""

from __future__ import annotations

from racedigest.digests import _alpha_unique
from racedigest.model import edge_path
from racedigest.oracle import LocalTrace

from tests.reference_oracle import causal_order, dep_to, po_pred


def completed_at(t: LocalTrace) -> frozenset:
    """Completed-set knowledge flows only along program order, thread
    creation, and once observations; other merges discard it.  An endO
    completes its variable, and so does a ``pos ran`` that passed."""
    done: dict = {}
    for e in causal_order(t.events, t.deps):  # predecessors first
        a, dep, pred = e.action, dep_to(t, e), po_pred(t, e)
        if pred is not None:
            out = done[pred]
            if a.kind in ("endO", "pos_ran"):
                out = out | {a.target}
            elif a.kind == "startO":
                out = out | done[dep.src]
            done[e] = out
        elif dep is not None and dep.kind == "create":
            done[e] = done[dep.src]
        else:
            done[e] = frozenset()
    return done[t.top]


def joined_of(t: LocalTrace, cap: int, instance=None, upto: int | None = None) -> frozenset:
    """Creation paths the join digest knows terminated: a join adds the
    joined thread's own set, and its path when the joining instance is
    unique, the path fits ``cap`` and the edge was taken exactly once."""
    if instance is None:
        instance, upto = t.ego, t.top.index
    joined: set = set()
    counts: dict[str, int] = {}
    join_deps = {d.dst: d for d in t.deps if d.kind == "join"}
    for e in sorted((e for e in t.events if e.instance == instance), key=lambda e: e.index):
        if e.index > upto:
            break
        a = e.action
        if a is None:
            continue
        if a.kind == "create":
            counts[a.create_id] = counts.get(a.create_id, 0) + 1
        if a.kind == "join":
            dep = join_deps.get(e)
            joined |= joined_of(t, cap, dep.src.instance, dep.src.index)
            path = edge_path(instance)
            if _alpha_unique(instance) and len(path) + 1 <= cap and counts.get(a.target, 0) == 1:
                joined.add(path + (a.target,))
    return frozenset(joined)
