"""The once and join abstraction maps as they stood before the one history
fold: ``completed_at`` walks its own causality index per trace and
``joined_of`` recurses once per nested join over per-instance scans.  Kept
only as the reference ``LocalTrace.history`` is compared against."""

from __future__ import annotations

from racedigest.digests import _alpha_unique
from racedigest.model import edge_path
from racedigest.oracle import CausalIndex, LocalTrace


def completed_at(t: LocalTrace) -> frozenset:
    """Completed-set knowledge flows only along program order, thread
    creation, and once observations; other merges discard it."""
    idx = CausalIndex(t.table, t.event_mask, t.dep_mask)
    done: list[frozenset] = [frozenset()] * len(idx.events)
    for i in idx.order:  # causal order: predecessors first
        a, dep = idx.events[i].action, idx.dep_in[i]
        if idx.pred[i] is not None:
            out = done[idx.pred[i]]
            if a.kind == "endO":
                out = out | {a.target}
            elif a.kind == "startO":
                out = out | done[idx.ids[dep.src]]
            done[i] = out
        elif dep is not None and dep.kind == "create":
            done[i] = done[idx.ids[dep.src]]
    return done[idx.ids[t.top]]


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
