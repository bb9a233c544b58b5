"""Bounded concrete semantics: local traces as partial orders.

Executions of an instrumented program are enumerated exhaustively (up to an
event and a thread-instance bound) as partially ordered event sets.  Each
event set carries labeled cross-thread dependencies:

* ``create``  -- from the creating thread's last event before a create to the
  first configuration of the created thread,
* ``mutex(a)`` -- from an unlock/init of ``a`` to the lock observing it,
* ``once(o)`` -- from an endO/initO of ``o`` to the startO observing it,
* ``join``   -- from a thread-exit to the join observing it.

A *local trace* is the downward closure of a single event; its owning thread
is the ego thread.  Every per-mutex chain alternates init/unlock with at most
one following lock, which the step functions enforce when merging two local
traces at an observing action.  Thread instances are named by their
creation history (``model.InstanceId``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import (MAIN, READ, WRITE, Action, Edge, InstanceId, Program, access_sequence,
                    atomicity_mutex, fmt_action, hash_once)


def instance_name(instance: InstanceId) -> str:
    if not instance:
        return "main"
    return "<" + ",".join(f"{ce}#{k}" for ce, k in instance) + ">"


@hash_once
@dataclass(frozen=True)
class Event:
    """One configuration of one thread: the start marker (edge=None) or the
    state reached by taking ``edge``."""

    instance: InstanceId
    index: int
    proto: str
    node: str
    edge: Edge | None

    @property
    def action(self) -> Action | None:
        return self.edge.action if self.edge is not None else None

    def sort_key(self) -> tuple:
        return (self.instance, self.index)

    def describe(self) -> str:
        what = fmt_action(self.edge.action) if self.edge else "start"
        return f"{instance_name(self.instance)}[{self.index}] {what}"


@hash_once
@dataclass(frozen=True)
class DepEdge:
    kind: str  # "create" | "mutex" | "once" | "join"
    label: str | None
    src: Event
    dst: Event


def _members(mask: int, table: list) -> frozenset:
    """The entries of ``table`` at the set bits of ``mask``."""
    return frozenset(table[i] for i, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1")


class CausalIndex:
    """The causality order of one event set, built in one topological pass:
    per event (numbered in ``sort_key`` order) its program-order predecessor,
    incoming dependency and ancestor bitmask (reflexive-transitive, over
    program order plus deps).  Raises ValueError on a cycle.  The history
    of every event's closure is folded in one more pass, on first read."""

    def __init__(self, events, deps):
        self.events = sorted(events, key=Event.sort_key)
        self.ids = {e: i for i, e in enumerate(self.events)}
        self.pred: list[int | None] = [None] * len(self.events)
        self.dep_in: list[DepEdge | None] = [None] * len(self.events)
        for i in range(1, len(self.events)):
            e, p = self.events[i], self.events[i - 1]
            if p.instance == e.instance and p.index == e.index - 1:
                self.pred[i] = i - 1
        # (predecessor id, the dep edge or None for program order) per event
        self.preds = [[] if q is None else [(q, None)] for q in self.pred]
        for d in deps:
            dst, src = self.ids.get(d.dst), self.ids.get(d.src)
            if dst is not None and src is not None:
                self.preds[dst].append((src, d))
                self.dep_in[dst] = self.dep_in[dst] or d
        waiting = [len(ps) for ps in self.preds]
        succs: list[list[int]] = [[] for _ in self.events]
        for i, ps in enumerate(self.preds):
            for q, _ in ps:
                succs[q].append(i)
        self.order = [i for i, w in enumerate(waiting) if not w]
        for i in self.order:  # Kahn's algorithm: the list grows as events get ready
            for j in succs[i]:
                waiting[j] -= 1
                if not waiting[j]:
                    self.order.append(j)
        if len(self.order) < len(self.events):
            raise ValueError("cycle in causality order")
        self.anc = self.ancestor_masks()
        self._closures: dict[int, LocalTrace] = {}
        self._histories: list[History] | None = None

    def ancestor_masks(self, drop=None) -> list[int]:
        """Ancestor bitmask per event id, ignoring the deps ``drop`` accepts.
        Removing deps keeps ``order`` topological, so one pass suffices."""
        anc = [0] * len(self.events)
        for i in self.order:
            mask = 1 << i
            for q, d in self.preds[i]:
                if d is None or drop is None or not drop(d):
                    mask |= anc[q]
            anc[i] = mask
        return anc

    def closure(self, i: int) -> LocalTrace:
        """The local trace topped by event ``i``, built once.  The first
        closure folds the history of every one."""
        t = self._closures.get(i)
        if t is None:
            if self._histories is None:
                self._histories = self._fold_histories()
            past = self.anc[i]
            deps = frozenset(d for j, ps in enumerate(self.preds) if past >> j & 1 for _, d in ps if d)
            t = self._closures[i] = LocalTrace(_members(past, self.events), deps, self.events[i],
                                               self._histories[i])
        return t

    def _fold_histories(self) -> list[History]:
        """One pass over the causal order, predecessors first.  The ego's
        events in a closure are its program-order prefix, so each event's
        history extends its program-order predecessor's (``History.after``,
        ``History.start``), reading that of its dependency's source."""
        out: list = [None] * len(self.events)
        for i in self.order:
            q, dep = self.pred[i], self.dep_in[i]
            src = out[self.ids[dep.src]] if dep is not None else None
            out[i] = (History.start(src) if q is None
                      else out[q].after(self.events[i].action, src, dep and dep.src.instance))
        return out


@dataclass(frozen=True)
class Pomset:
    """A complete (or bound-truncated) execution as a partial order."""

    events: frozenset[Event]
    deps: frozenset[DepEdge]

    def causality(self) -> CausalIndex:
        if "_causality" not in self.__dict__:
            self.__dict__["_causality"] = CausalIndex(self.events, self.deps)
        return self.__dict__["_causality"]

    def closure(self, top: Event) -> "LocalTrace":
        idx = self.causality()
        return idx.closure(idx.ids[top])

    def sort_key(self) -> tuple:
        """Configurations, then the edges and deps that tell apart pomsets over
        the same configurations: a total order, independent of the hash seed."""
        edges = ((e.sort_key(), e.edge.source, e.action.kind, fmt_action(e.action))
                 for e in self.events if e.edge is not None)
        deps = ((d.src.sort_key(), d.dst.sort_key(), d.kind) for d in self.deps)
        return (tuple(sorted((e.sort_key(), e.node) for e in self.events)),
                tuple(sorted(edges)), tuple(sorted(deps)))


_EMPTY: frozenset = frozenset()


@dataclass(frozen=True, slots=True)
class History:
    """What a local trace knows.  Of the ego thread: the mutexes it holds,
    the once variables it is inside and the create edges it took, in order.
    Of the computation: the once variables known completed (along program
    order, create and once deps), the instances known terminated (along
    program order and join deps) and the ``(kind, target)`` of every init,
    initO and endO event in the trace (``seen``).  ``_GUARDS`` reads it."""

    held: frozenset[str]
    active: frozenset[str]
    created: tuple[str, ...]
    completed: frozenset[str]
    terminated: frozenset[InstanceId]
    seen: frozenset[tuple[str, str]]

    @staticmethod
    def start(creator: History | None) -> History:
        """A thread's first history: main's knows nothing, a child's the
        completions and events its creator knew before the create."""
        if creator is None:
            return _START
        return History(_EMPTY, _EMPTY, (), creator.completed, _EMPTY, creator.seen)

    def after(self, a: Action, src: History | None = None,
              joined: InstanceId | None = None) -> History:
        """The history once the ego takes ``a``; at a lock, startO or join
        ``src`` is the history of the observed trace, and at a join
        ``joined`` is the instance whose exit it observes."""
        kind, x = a.kind, a.target
        held, active, created, completed, terminated, seen = (
            self.held, self.active, self.created, self.completed, self.terminated, self.seen)
        if src is not None:
            seen = seen | src.seen
        if kind == "lock":
            held = held | {x}
        elif kind == "unlock":
            held = held - {x}
        elif kind == "startO":
            active, completed = active | {x}, completed | src.completed
        elif kind == "endO":
            active, completed, seen = active - {x}, completed | {x}, seen | {(kind, x)}
        elif kind == "create":
            created = created + (a.create_id,)
        elif kind == "join":
            terminated = terminated | src.terminated | {joined}
        elif kind == "init" or kind == "initO":
            seen = seen | {(kind, x)}
        else:
            return self
        return History(held, active, created, completed, terminated, seen)


_START = History(_EMPTY, _EMPTY, (), _EMPTY, _EMPTY, _EMPTY)


@dataclass(frozen=True)
class LocalTrace:
    """Downward-closed event set with the unique maximal event ``top``.

    The ego thread is ``top.instance``; the trace is that thread's complete
    knowledge of the computation, summed up in ``history``.
    """

    events: frozenset[Event]
    deps: frozenset[DepEdge]
    top: Event
    history: History = field(compare=False)

    @property
    def ego(self) -> InstanceId:
        return self.top.instance

    def ego_node(self) -> str:
        return self.top.node


@dataclass(frozen=True)
class RacePair:
    glob: str
    site_a: tuple[str, str]  # (node, W/R), site_a <= site_b
    site_b: tuple[str, str]


@dataclass(frozen=True, slots=True)
class Step:
    """One concrete step of an enumerated pomset: taking ``event`` from the
    trace ``before`` (observing the trace ``observed`` at a lock, startO or
    join) reaches the trace ``after``.  In a new-thread step ``event`` is
    the child's start, ``before`` the creator's trace before the create and
    ``observed`` None."""

    event: Event
    before: LocalTrace
    observed: LocalTrace | None
    after: LocalTrace


@dataclass(frozen=True)
class TraceSet:
    """What the bounded enumeration produced: the maximal pomsets and whether
    (and by which bounds) some branch was cut off."""

    program: Program
    pomsets: frozenset[Pomset]
    truncated: bool
    depth: int
    width: int
    # the bounds ("depth", "width") that blocked some step, if truncated
    truncated_by: tuple[str, ...] = field(default=(), compare=False)

    def sorted_pomsets(self) -> list[Pomset]:
        if "_sorted_pomsets" not in self.__dict__:
            self.__dict__["_sorted_pomsets"] = sorted(self.pomsets, key=Pomset.sort_key)
        return list(self.__dict__["_sorted_pomsets"])

    @property
    def traces(self) -> tuple[LocalTrace, ...]:
        """Every reachable local trace, once each: the closure of each event
        of each pomset (a reached state extends to a maximal one without
        changing the past of its events).  Derived on first use, in a fixed
        order (pomsets in ``sorted_pomsets`` order, events in ``sort_key``
        order), so walks over the traces do not depend on the process."""
        if "_traces" not in self.__dict__:
            self.__dict__["_traces"] = tuple(dict.fromkeys(
                idx.closure(i) for idx in map(Pomset.causality, self.sorted_pomsets())
                for i in range(len(idx.events))))
        return self.__dict__["_traces"]

    def steps(self) -> tuple[Step, ...]:
        """Every step of the pomsets but main's start, once per step key: a
        new thread by (creator's trace, child instance), a local action by
        (action, trace before) and an observing one by (action, trace
        before, observed trace).  Built on first use, in pomset and event
        order; the traces are those of ``traces``."""
        if "_steps" not in self.__dict__:
            self.__dict__["_steps"] = self._derive_steps()
        return self.__dict__["_steps"]

    def _derive_steps(self) -> tuple[Step, ...]:
        canon = {t: t for t in self.traces}  # equal closures of two pomsets become one
        steps: dict[tuple, Step] = {}
        for pom in self.sorted_pomsets():
            idx = pom.causality()
            for i, e in enumerate(idx.events):
                dep = idx.dep_in[i]
                if e.edge is None:
                    if e.instance == MAIN:
                        continue
                    before, observed = canon[idx.closure(idx.ids[dep.src])], None
                    key = ("new", before, e.instance)
                else:
                    before = canon[idx.closure(idx.pred[i])]
                    observed = (canon[idx.closure(idx.ids[dep.src])]
                                if e.action.is_observing else None)
                    key = (e.action, before, observed)
                if key not in steps:
                    steps[key] = Step(e, before, observed, canon[idx.closure(i)])
        return tuple(steps.values())


def _check_degrees(deps) -> bool:
    """Each observable feeds at most one observer; each observer has one source."""
    out_seen: set[tuple] = set()
    in_seen: set[tuple] = set()
    for d in deps:
        if d.kind in ("mutex", "once", "join"):
            okey = (d.src, d.kind, d.label)
            ikey = (d.dst, d.kind)
            if okey in out_seen or ikey in in_seen:
                return False
            out_seen.add(okey)
            in_seen.add(ikey)
    return True


# ---------------------------------------------------------------------------
# Step functions over local traces
# ---------------------------------------------------------------------------

_DEP_KIND = {"lock": "mutex", "startO": "once", "join": "join"}


# What the ego's history must show before each kind of local action: the
# only copy of these guards, read by the local-trace steps and by the
# enumerator.  The observing actions need none: only main inits
# (validate_program), so each mutex (once variable) has one chain of
# init/unlock (initO/endO) sources, each feeding one lock (startO).  A
# source that would let the ego retake a mutex it holds (start a once it is
# inside) already feeds a lock in the merged trace, which the degree check
# of trace_step_observing rejects, or lies past the ego's top.  A join with
# no create taken fails the last-child check.
_GUARDS = {
    "pos_ran": lambda h, x: ("endO", x) in h.seen,
    "neg_ran": lambda h, x: ("endO", x) not in h.seen,
    "init": lambda h, x: ("init", x) not in h.seen,
    "initO": lambda h, x: ("initO", x) not in h.seen,
    "unlock": lambda h, x: x in h.held,
    "endO": lambda h, x: x in h.active,
}


def trace_step_local(p: Program, edge: Edge, t: LocalTrace) -> LocalTrace | None:
    """Prolong ``t`` along a non-observing, non-creating edge, if possible."""
    a = edge.action
    if a.is_observing or a.is_creating:
        raise ValueError(f"{a.kind} is not a local step")
    guard = _GUARDS.get(a.kind)
    if t.ego_node() != edge.source or (guard is not None and not guard(t.history, a.target)):
        return None
    e = Event(t.ego, t.top.index + 1, t.top.proto, edge.target, edge)
    return LocalTrace(t.events | {e}, t.deps, e, t.history.after(a))


def spawn(p: Program, edge: Edge, t: LocalTrace) -> LocalTrace | None:
    """The local trace of the thread created by ``edge`` from ``t``."""
    a = edge.action
    if a.kind != "create" or t.ego_node() != edge.source:
        return None
    occurrence = t.history.created.count(a.create_id)
    child: InstanceId = t.ego + ((a.create_id, occurrence),)
    proto = p.prototypes[a.target]
    start = Event(child, 0, a.target, proto.start_node, None)
    dep = DepEdge("create", None, t.top, start)
    return LocalTrace(t.events | {start}, t.deps | {dep}, start, History.start(t.history))


def trace_step_observing(p: Program, edge: Edge, t0: LocalTrace,
                         t1: LocalTrace) -> LocalTrace | None:
    """Merge the observed trace ``t1`` into ``t0`` and prolong by ``edge``.

    Returns None unless the traces agree on their shared past and the
    per-mutex/per-once/per-join pairing rules still hold after adding the
    new dependency.
    """
    act = edge.action
    if not act.is_observing:
        raise ValueError(f"{act.kind} is not an observing action")
    if t0.ego_node() != edge.source:
        return None
    top1 = t1.top
    a1 = top1.action
    if a1 is None or a1.obs_key() not in act.observed_keys():
        return None
    if act.kind == "join":
        # the last child created through this edge; with none, no child matches
        count = t0.history.created.count(act.target)
        if top1.instance != t0.ego + ((act.target, count - 1),):
            return None

    events = t0.events | t1.events
    by_key: dict[tuple, Event] = {}
    for ev in events:
        key = (ev.instance, ev.index)
        if key in by_key:
            return None  # the two pasts disagree
        by_key[key] = ev
        if ev.instance == t0.ego and ev.index > t0.top.index:
            return None  # observed trace runs ahead of the ego thread
    label = act.target if act.kind in ("lock", "startO") else None
    new = Event(t0.ego, t0.top.index + 1, t0.top.proto, edge.target, edge)
    deps = t0.deps | t1.deps | {DepEdge(_DEP_KIND[act.kind], label, top1, new)}
    all_events = events | {new}
    if not _check_degrees(deps):
        return None
    try:
        CausalIndex(all_events, deps)
    except ValueError:
        return None  # cyclic
    # with the degrees checked, t0 and t1 stay the closures of their tops
    return LocalTrace(all_events, deps, new, t0.history.after(act, t1.history, t1.ego))


# ---------------------------------------------------------------------------
# Exhaustive bounded enumeration
# ---------------------------------------------------------------------------

# Events and dep edges get small-int ids per enumeration; an instance's local
# trace is then (top, history): the id of its top event and what it knows.

class _Ids:
    """The interned events and dep edges of one enumeration."""

    def __init__(self, p: Program):
        self.program = p
        self.events: list[Event] = []
        self.deps: list[DepEdge] = []
        self.ids: dict[Event | DepEdge, int] = {}  # position in events or deps
        self.steps: dict[tuple[int, Edge], int] = {}  # (prev id, edge) -> event id

    def of(self, item: Event | DepEdge) -> int:
        if item not in self.ids:
            table = self.events if isinstance(item, Event) else self.deps
            self.ids[item] = len(table)
            table.append(item)
        return self.ids[item]

    def step(self, prev: int, edge: Edge) -> int:
        """The event reached from event ``prev`` by taking ``edge``."""
        key = (prev, edge)
        if key not in self.steps:
            p = self.events[prev]
            self.steps[key] = self.of(Event(p.instance, p.index + 1, p.proto, edge.target, edge))
        return self.steps[key]


@dataclass(slots=True)
class _State:
    """One global configuration.  ``last`` holds each instance's local trace,
    whose top event is at the instance's node (an exit's node is a sink,
    validate_program); ``mutex`` (``once``) the trace a lock (startO) can
    observe, for each free mutex (ready once variable) only; ``exited``
    the final trace of each instance not yet joined."""

    last: dict
    mutex: dict
    once: dict
    created: dict  # (instance, create id) -> the last child created there
    exited: dict
    events: int
    deps: int

    def copy(self) -> "_State":
        return _State(dict(self.last), dict(self.mutex), dict(self.once), dict(self.created),
                      dict(self.exited), self.events, self.deps)


def _guard_ok(s: _State, instance: InstanceId, edge: Edge) -> bool:
    """Whether what ``edge`` observes is available and ``_GUARDS`` pass."""
    a = edge.action
    kind = a.kind
    if kind == "lock":
        return a.target in s.mutex
    if kind == "startO":
        return a.target in s.once
    if kind == "join":
        return s.created.get((instance, a.target)) in s.exited
    guard = _GUARDS.get(kind)
    return guard is None or guard(s.last[instance][1], a.target)


def _apply(ids: _Ids, s: _State, instance: InstanceId, edge: Edge) -> _State:
    """Execute one enabled edge; returns the successor state."""
    ns = s.copy()
    a = edge.action
    kind = a.kind
    prev, h = s.last[instance]
    ev = ids.step(prev, edge)
    src = None
    if kind == "lock":
        src = ns.mutex.pop(a.target)
    elif kind == "startO":
        src = ns.once.pop(a.target)
    elif kind == "join":
        src = ns.exited.pop(s.created[(instance, a.target)])
    if src is not None:
        label = a.target if kind != "join" else None
        observed = ids.events[src[0]]
        ns.deps |= 1 << ids.of(DepEdge(_DEP_KIND[kind], label, observed, ids.events[ev]))
        trace = (ev, h.after(a, src[1], observed.instance))
    else:
        trace = (ev, h.after(a))
    if kind == "init" or kind == "unlock":
        ns.mutex[a.target] = trace
    elif kind == "initO" or kind == "endO":
        ns.once[a.target] = trace
    ns.events |= 1 << ev
    ns.last[instance] = trace
    if kind == "exit":
        ns.exited[instance] = trace
    elif kind == "create":
        last = s.created.get((instance, a.create_id))
        child: InstanceId = instance + ((a.create_id, last[-1][1] + 1 if last else 0),)
        ns.created[(instance, a.create_id)] = child
        proto = ids.program.prototypes[a.target]
        start = ids.of(Event(child, 0, a.target, proto.start_node, None))
        # the child depends on the creator's last configuration before create
        ns.deps |= 1 << ids.of(DepEdge("create", None, ids.events[prev], ids.events[start]))
        ns.events |= 1 << start
        ns.last[child] = (start, History.start(h))
    return ns


# The kinds of step an instance may take alone: while its next steps are all
# of these kinds, they commute with every step of the other instances (see
# enumerate_traces).
_PERSISTENT_KINDS = frozenset({"skip", "read", "write", "pos_ran", "neg_ran", "unlock", "endO",
                               "exit", "init", "initO"})


def enumerate_traces(p: Program, depth: int = 40, width: int = 4) -> TraceSet:
    """The maximal execution pomsets reachable within the event and instance
    bounds, and which bounds, if any, cut off a branch.  The local traces
    are derived from the pomsets (``TraceSet.traces``).

    A pomset stands for every interleaving of its events, so the search
    takes only a persistent set of steps at each state (Godefroid, LNCS
    1032, 1996): the steps of the first instance, in sorted order, that has
    an enabled step and whose every outgoing edge has a
    ``_PERSISTENT_KINDS`` kind; with no such instance, every enabled step.
    The guards of those kinds read only the mover's own ``History``
    (``_GUARDS``), which only the mover's own steps change.  Their other
    effects free a mutex or once variable the mover holds, initialize one
    (only main inits) or record an exit, which lock, startO and join wait
    for.  So while the others run, the mover's next steps stay enabled or
    disabled, with the same successors, and taking one of them disables
    no step of another instance and changes none of their successors.  So
    a run from the state can be reordered to begin with the mover's first
    step in it, or, if it has none, prolonged by one of the mover's steps
    (unless the depth bound blocks it).  Every terminal configuration stays
    reachable, and with it every maximal pomset and every create the width
    bound blocks.  A configuration the depth bound cuts is different: any
    reachable configuration of ``depth`` actions is one.  So the reduced
    search gives up at the first state where the depth bound blocks a step,
    and the enumeration runs again without the reduction."""
    if depth < 1 or width < 1:
        raise ValueError("bounds must be at least 1")
    found = _explore(p, depth, width, reduce=True)
    if found is None:
        found = _explore(p, depth, width, reduce=False)
    ids, pomsets, blocked = found
    return TraceSet(
        p, frozenset(Pomset(_members(evs, ids.events), _members(deps, ids.deps))
                     for evs, deps in pomsets),
        bool(blocked), depth, width, truncated_by=tuple(sorted(blocked)),
    )


def _explore(p: Program, depth: int, width: int, reduce: bool):
    """The interned events, the terminal (events, deps) masks and the bounds
    that blocked a step; with ``reduce``, only a persistent set is taken at
    each state (see enumerate_traces), and None is returned as soon as the
    depth bound blocks a step."""
    ids = _Ids(p)
    main = p.main()
    start = ids.of(Event(MAIN, 0, p.main_label, main.start_node, None))
    init = _State({MAIN: (start, _START)}, {}, {}, {}, {}, 1, 0)
    pomsets: set[tuple[int, int]] = set()
    blocked: set[str] = set()
    edges_from: dict[str, list[Edge]] = {}  # read per instance and state: a plain dict
    for e in p.all_edges():
        edges_from.setdefault(e.source, []).append(e)
    # the nodes whose every outgoing edge has a persistent kind
    alone = {node for node, edges in edges_from.items()
             if all(e.action.kind in _PERSISTENT_KINDS for e in edges)}
    visited = {(init.events, init.deps)}
    stack = [init]
    while stack:
        s = stack.pop()
        n_actions = s.events.bit_count() - len(s.last)  # every event but the starts
        enabled: list[tuple[InstanceId, Edge]] = []
        mover = None
        for instance in sorted(s.last):
            node = ids.events[s.last[instance][0]].node
            for edge in edges_from.get(node, ()):
                if not _guard_ok(s, instance, edge):
                    continue
                if n_actions >= depth:
                    if reduce:
                        return None
                    blocked.add("depth")
                elif edge.action.kind == "create" and len(s.last) >= width:
                    blocked.add("width")
                else:
                    enabled.append((instance, edge))
                    if reduce and mover is None and node in alone:
                        mover = instance
        if not enabled:
            pomsets.add((s.events, s.deps))
        elif mover is not None:
            enabled = [(i, edge) for i, edge in enabled if i == mover]
        for instance, edge in enabled:
            ns = _apply(ids, s, instance, edge)
            if (ns.events, ns.deps) not in visited:
                visited.add((ns.events, ns.deps))
                stack.append(ns)
    return ids, pomsets, blocked


# ---------------------------------------------------------------------------
# Race definitions
# ---------------------------------------------------------------------------

def _site(e: Event) -> tuple[str, str]:
    return (e.edge.source, WRITE if e.action.kind == "write" else READ)


def find_racy_pairs(ts: TraceSet) -> frozenset[RacePair]:
    """Access pairs (>=1 write) left unordered once the order contributed by
    the accessed global's atomicity mutex is discarded."""
    found: set[tuple] = set()
    for pom in ts.pomsets:
        idx = pom.causality()
        by_glob: dict[str, list[int]] = {}
        for i, e in enumerate(idx.events):
            a = e.action
            if a is not None and a.kind in ("read", "write"):
                by_glob.setdefault(a.target, []).append(i)
        for glob, accesses in sorted(by_glob.items()):
            mg = atomicity_mutex(glob)
            partial = idx.ancestor_masks(drop=lambda d: d.kind == "mutex" and d.label == mg)
            for k, i in enumerate(accesses):
                for j in accesses[k + 1:]:
                    ea, eb = idx.events[i], idx.events[j]
                    if ea.action.kind != "write" and eb.action.kind != "write":
                        continue
                    if partial[j] >> i & 1 or partial[i] >> j & 1:
                        continue
                    found.add((glob, *sorted((_site(ea), _site(eb)))))
    return frozenset(RacePair(*key) for key in found)


def bidirectionally_compatible(p: Program, ts: TraceSet, glob: str,
                               site_a: str, site_b: str) -> bool:
    """Both orders of the two access sequences are executable from some pair
    of prefix traces and some trace ending in an unlock/init of ``m_g``."""
    seq_a = access_sequence(p, site_a)
    seq_b = access_sequence(p, site_b)
    mg = atomicity_mutex(glob)

    starters_a = _sequence_starters(ts, seq_a)
    starters_b = _sequence_starters(ts, seq_b)
    landings = [
        t for t in ts.traces
        if t.top.action is not None
        and t.top.action.obs_key() in (("unlock", mg), ("init", mg))
    ]

    def run(seq, t0: LocalTrace, t1: LocalTrace) -> LocalTrace | None:
        lock_e, acc_e, unl_e = seq
        r = trace_step_observing(p, lock_e, t0, t1)
        if r is None:
            return None
        r = trace_step_local(p, acc_e, r)
        if r is None:
            return None
        return trace_step_local(p, unl_e, r)

    # one witness triple (ta, tb, tl) must admit both orders
    for tl in landings:
        for ta in starters_a:
            a_first = run(seq_a, ta, tl)
            if a_first is None:
                continue
            for tb in starters_b:
                if run(seq_b, tb, a_first) is None:
                    continue
                b_first = run(seq_b, tb, tl)
                if b_first is not None and run(seq_a, ta, b_first) is not None:
                    return True
    return False


def _sequence_starters(ts: TraceSet, seq) -> list[LocalTrace]:
    lock_e = seq[0]
    return [t for t in ts.traces if t.ego_node() == lock_e.source]
