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

The events and deps of one trace set are interned in one ``EventTable``;
pomsets and local traces are pairs of bitmasks over its ids, and each
``History`` value is one object of the table.  The enumerator holds each
thread's local trace and takes each step with the code of the step
functions, once per (trace, edge, observed trace), so it records every
trace it reaches, with the step that made it, as it goes.  It decides
the racy pairs as it takes each access.
"""

from __future__ import annotations

import gc
from collections import namedtuple
from operator import attrgetter

from .model import (MAIN, READ, WRITE, Action, Edge, InstanceId, Program, Value, access_sequence,
                    atomicity_mutex, fmt_action)

_set = object.__setattr__


def instance_name(instance: InstanceId) -> str:
    if not instance:
        return "main"
    return "<" + ",".join(f"{ce}#{k}" for ce, k in instance) + ">"


class Event(Value):
    """One configuration of one thread: the start marker (edge=None) or the
    state reached by taking ``edge``."""

    __slots__ = _fields = ("instance", "index", "proto", "node", "edge")
    _compared = attrgetter(*_fields)

    def __init__(self, instance: InstanceId, index: int, proto: str, node: str,
                 edge: Edge | None) -> None:
        _set(self, "instance", instance)
        _set(self, "index", index)
        _set(self, "proto", proto)
        _set(self, "node", node)
        _set(self, "edge", edge)
        _set(self, "_hash", hash((instance, index, proto, node, edge)))

    @property
    def action(self) -> Action | None:
        return self.edge.action if self.edge is not None else None

    def describe(self) -> str:
        what = fmt_action(self.edge.action) if self.edge else "start"
        return f"{instance_name(self.instance)}[{self.index}] {what}"


class DepEdge(Value):
    """A cross-thread dependency of ``kind`` "create", "mutex", "once" or
    "join" from ``src`` to ``dst``; ``label`` is the mutex or once variable
    of a mutex or once dep, else None."""

    __slots__ = _fields = ("kind", "label", "src", "dst")
    _compared = attrgetter(*_fields)

    def __init__(self, kind: str, label: str | None, src: Event, dst: Event) -> None:
        _set(self, "kind", kind)
        _set(self, "label", label)
        _set(self, "src", src)
        _set(self, "dst", dst)
        _set(self, "_hash", hash((kind, label, src, dst)))


def _bits(mask: int):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _members(mask: int, items: list) -> frozenset:
    """The entries of ``items`` at the set bits of ``mask``: the one place
    an event or dep set is built from a mask."""
    return frozenset(items[i] for i in _bits(mask))


class EventTable:
    """The interned events and dep edges of one trace set.  An item's id is
    its position in ``events`` or ``deps``, and an event or dep set is a
    bitmask over the ids.  The enumerator interns what it reaches and the
    step functions what they add, so the table only grows.

    For the merge checks of ``trace_step_observing`` the table keeps groups:
    per event its slot, the events at one (instance, index); per dep its
    source key (source, kind, label) and target key (target, kind), the
    deps sharing it; per create dep the creator's create event, which its
    source must be followed by.  ``after`` keeps one ``History`` object per
    value, for the search and for every later step."""

    def __init__(self):
        self.events: list[Event] = []
        self.deps: list[DepEdge] = []
        self.ids: dict[Event | DepEdge, int] = {}  # position in events or deps
        self.steps: dict[tuple[int, Edge], int] = {}  # (prev id, edge) -> event id
        self.slots: dict[tuple, int] = {}  # (instance, index) -> slot
        self.slot: list[int] = []  # per event, its slot
        self.slot_events: list[int] = []  # per slot, the mask of its events
        self.keys: dict[tuple, int] = {}  # (source id, kind, label) or (target id, kind) -> key
        self.dep_keys: list[tuple[int, int]] = []  # per dep, its source and target key
        self.key_deps: list[int] = []  # per key, the mask of its deps
        self.create_deps = 0  # the mask of the create deps
        self.claims: dict[int, int] = {}  # create dep id -> its creator's create event id
        self.histories: dict[History, History] = {}  # each value to its one object
        self.transfers: dict[tuple, History] = {}  # the arguments of a transfer -> its result

    def event_id(self, e: Event) -> int:
        i = self.ids.get(e)
        if i is None:
            i = self.ids[e] = len(self.events)
            self.events.append(e)
            self.slot.append(_group(self.slots, self.slot_events, (e.instance, e.index), 1 << i))
        return i

    def dep_id(self, d: DepEdge) -> int:
        """The id of ``d``, whose source and target are interned."""
        i = self.ids.get(d)
        if i is None:
            i = self.ids[d] = len(self.deps)
            self.deps.append(d)
            self.dep_keys.append((
                _group(self.keys, self.key_deps, (self.ids[d.src], d.kind, d.label), 1 << i),
                _group(self.keys, self.key_deps, (self.ids[d.dst], d.kind), 1 << i)))
        return i

    def step(self, prev: int, edge: Edge) -> int:
        """The event reached from event ``prev`` by taking ``edge``."""
        key = (prev, edge)
        if key not in self.steps:
            p = self.events[prev]
            self.steps[key] = self.event_id(
                Event(p.instance, p.index + 1, p.proto, edge.target, edge))
        return self.steps[key]

    def after(self, h: History, a: Action | None, src: History | None = None,
              joined: InstanceId | None = None) -> History:
        """``h.after(a, src, joined)``, or with no action ``History.start(h)``,
        as the table's object for its value."""
        key = (h, a, src, joined)
        out = self.transfers.get(key)
        if out is None:
            out = h.after(a, src, joined) if a is not None else History.start(h)
            out = self.transfers[key] = self.histories.setdefault(out, out)
        return out


def _group(groups: dict, masks: list, key: tuple, bit: int) -> int:
    """The group of ``key``, made if new, with ``bit`` added to its mask."""
    g = groups.get(key)
    if g is None:
        g = groups[key] = len(masks)
        masks.append(0)
    masks[g] |= bit
    return g


class _Masks:
    """An event set and a dep set of ``table``, as masks over its ids.  Two
    are equal when they are of one kind and hold the same masks of one
    table; ``events`` and ``deps`` are built on each read."""

    __slots__ = ("table", "event_mask", "dep_mask")

    def __init__(self, table: EventTable, event_mask: int, dep_mask: int):
        self.table, self.event_mask, self.dep_mask = table, event_mask, dep_mask

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.table is other.table and self.event_mask == other.event_mask
                and self.dep_mask == other.dep_mask)

    def __hash__(self) -> int:
        return hash((self.event_mask, self.dep_mask))

    @property
    def events(self) -> frozenset[Event]:
        return _members(self.event_mask, self.table.events)

    @property
    def deps(self) -> frozenset[DepEdge]:
        return _members(self.dep_mask, self.table.deps)


class Pomset(_Masks):
    """A complete (or bound-truncated) execution as a partial order over its
    trace set's ``table``."""

    __slots__ = ()


_EMPTY: frozenset = frozenset()


class History(namedtuple("History", "held active created completed terminated seen")):
    """What a local trace knows.  Of the ego thread: the mutexes it holds,
    the once variables it is inside (frozensets) and the create edges it
    took, in order (a tuple).  Of the computation, as frozensets: the once
    variables known completed (along program order, create and once deps),
    the instances known terminated (along program order and join deps) and
    the ``(kind, target)`` of every init, initO and endO event in the trace
    (``seen``).  ``_GUARDS`` reads it."""

    __slots__ = ()

    @staticmethod
    def start(creator: History) -> History:
        """A child's first history: the completions and events its creator
        knew before the create (main's first history is ``_START``)."""
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


class LocalTrace(_Masks):
    """Downward-closed event set of ``table`` with the unique maximal event
    ``top`` (which its masks fix).  The ego thread is ``ego``, the instance
    of ``top``; the trace is that thread's complete knowledge of the
    computation, summed up in ``history``."""

    __slots__ = ("top", "ego", "history", "_hash")

    def __init__(self, table: EventTable, event_mask: int, dep_mask: int, top: Event,
                 history: History):
        self.table = table
        self.event_mask = event_mask
        self.dep_mask = dep_mask
        self.top = top
        self.ego: InstanceId = top.instance
        self.history = history
        self._hash = hash((event_mask, dep_mask))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (f"LocalTrace({self.top.describe()}, {self.event_mask.bit_count()} events, "
                f"{self.dep_mask.bit_count()} deps)")

    def ego_node(self) -> str:
        return self.top.node


class RacePair(namedtuple("RacePair", "glob site_a site_b")):
    """Two access sites of ``glob``, each (node, W/R), ``site_a <= site_b``."""

    __slots__ = ()


class Step(namedtuple("Step", "event before observed after")):
    """One concrete step of the enumeration: taking ``event`` from the
    trace ``before`` (observing the trace ``observed`` at a lock, startO or
    join) reaches the trace ``after``, which the search reached first by
    this step.  In a new-thread step ``event`` is the child's start,
    ``before`` the creator's trace before the create and ``observed``
    None."""

    __slots__ = ()


class TraceSet:
    """What the bounded enumeration produced: the maximal pomsets over
    ``table``, whether (and by which bounds, ``truncated_by``: "depth" and
    "width") some branch was cut off, the local traces and steps the search
    recorded and the racy pairs it decided."""

    def __init__(self, program: Program, table: EventTable, pomsets: frozenset[Pomset],
                 truncated_by: tuple[str, ...], depth: int, width: int,
                 traces: tuple[LocalTrace, ...], steps: tuple[Step, ...],
                 racy: frozenset[RacePair]):
        self.program, self.table, self.pomsets = program, table, pomsets
        self.truncated, self.truncated_by = bool(truncated_by), truncated_by
        self.depth, self.width = depth, width
        self._traces, self._steps, self._racy = traces, steps, racy
        self._runs: dict = {}  # see bidirectionally_compatible
        self._groups: tuple[dict, dict] | None = None  # see _trace_groups

    @property
    def traces(self) -> tuple[LocalTrace, ...]:
        """Every reachable local trace, once each: main's start, then each
        trace in the order the search first reached it.  The search order
        is fixed (instances sorted, edges in ``Program.all_edges`` order, a
        last-in first-out stack), so walks over the traces do not depend on
        the process."""
        return self._traces

    def steps(self) -> tuple[Step, ...]:
        """The step that made each trace but main's start, in ``traces``
        order: one per trace, as the masks of a trace fix its top event,
        the trace before it and the observed one."""
        return self._steps


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


def trace_step_local(edge: Edge, t: LocalTrace) -> LocalTrace | None:
    """Prolong ``t`` along a non-observing, non-creating edge, if possible."""
    a = edge.action
    if a.is_observing or a.is_creating:
        raise ValueError(f"{a.kind} is not a local step")
    guard = _GUARDS.get(a.kind)
    if t.ego_node() != edge.source or (guard is not None and not guard(t.history, a.target)):
        return None
    return _extend(t, edge)


def spawn(p: Program, edge: Edge, t: LocalTrace) -> LocalTrace | None:
    """The local trace of the thread created by ``edge`` from ``t``."""
    a = edge.action
    if a.kind != "create" or t.ego_node() != edge.source:
        return None
    occurrence = t.history.created.count(a.create_id)
    child: InstanceId = t.ego + ((a.create_id, occurrence),)
    proto = p.prototypes[a.target]
    table = t.table
    start = table.event_id(Event(child, 0, a.target, proto.start_node, None))
    dep = table.dep_id(DepEdge("create", None, t.top, table.events[start]))
    table.claims[dep] = table.step(table.ids[t.top], edge)
    table.create_deps |= 1 << dep
    return LocalTrace(table, t.event_mask | 1 << start, t.dep_mask | 1 << dep,
                      table.events[start], table.after(t.history, None))


def trace_step_observing(edge: Edge, t0: LocalTrace, t1: LocalTrace) -> LocalTrace | None:
    """Merge the observed trace ``t1`` into ``t0`` and prolong by ``edge``.

    Returns None unless the traces agree on their shared past and the
    pairing rules still hold after adding the new dependency: an event
    feeds at most one dep of a kind and label (one lock per unlock, one
    child per create) and has at most one incoming dep.  A create dep's
    source is followed by the create event, so the union may hold no other
    event at that slot: a create dep claims the slot for the create event.
    Each input is a trace, so the checks compare only what ``t1`` adds
    (events and claims) with ``t0``, on the ids of their table.

    The union is then acyclic.  An event a dep targets (a start, lock,
    startO or join) has its one incoming dep in every trace holding it.
    So a dep of one trace that targets an event of the other shares its
    target key with that event's dep there, and one of the two is among
    what ``t1`` adds: the check refuses it.  Every event of the union thus
    has the predecessors it has in a trace holding it, a cycle of the
    union would lie in one trace, and the new event has no successor.
    """
    act = edge.action
    if not act.is_observing:
        raise ValueError(f"{act.kind} is not an observing action")
    table = t0.table
    if t1.table is not table:
        raise ValueError("the traces belong to two trace sets")
    if t0.ego_node() != edge.source:
        return None
    top1 = t1.top
    a1 = top1.action
    if a1 is None or a1.obs_key() not in act.observed_keys():
        return None
    if act.kind == "join" and top1.instance != _last_child(t0, act.target):
        return None

    em0, dm0, em1, dm1 = t0.event_mask, t0.dep_mask, t1.event_mask, t1.dep_mask
    ego, events, slot, slot_events = t0.ego, table.events, table.slot, table.slot_events
    claims, creates = table.claims, table.create_deps
    c0 = c1 = 0  # the claims of the create deps of one trace only
    for d in _bits(dm0 & ~dm1 & creates):
        c0 |= 1 << claims[d]
    for d in _bits(dm1 & ~dm0 & creates):
        c1 |= 1 << claims[d]
    have = em0 | c0
    for x in _bits((em1 | c1) & ~have):
        # an event of the ego's past or past its top, or a second event at
        # a slot of t0's: the two pasts disagree
        if events[x].instance == ego or slot_events[slot[x]] & have:
            return None
    # each event feeds one dep of a kind and label, and has one source
    key_deps = table.key_deps
    for d in _bits(dm1 & ~dm0):
        src, dst = table.dep_keys[d]
        if key_deps[src] & dm0 or key_deps[dst] & dm0:
            return None
    kind = _DEP_KIND[act.kind]
    label = act.target if act.kind in ("lock", "startO") else None
    # the new dep's source key: the observed top feeds no observer yet
    fed = table.keys.get((table.ids[top1], kind, label))
    if fed is not None and key_deps[fed] & (dm0 | dm1):
        return None
    # with the degrees checked, t0 and t1 stay the closures of their tops
    return _extend(t0, edge, t1)


def _extend(t: LocalTrace, edge: Edge, observed: LocalTrace | None = None) -> LocalTrace:
    """``t`` prolonged by ``edge``, merged with ``observed`` at a lock,
    startO or join: the new event and dep are interned, the masks ORed and
    the history carried forward.  The caller has checked that the step may
    be taken."""
    table, a = t.table, edge.action
    e = table.step(table.ids[t.top], edge)
    top = table.events[e]
    if observed is None:
        return LocalTrace(table, t.event_mask | 1 << e, t.dep_mask, top, table.after(t.history, a))
    label = a.target if a.kind != "join" else None
    dep = table.dep_id(DepEdge(_DEP_KIND[a.kind], label, observed.top, top))
    return LocalTrace(table, t.event_mask | observed.event_mask | 1 << e,
                      t.dep_mask | observed.dep_mask | 1 << dep, top,
                      table.after(t.history, a, observed.history, observed.ego))


def _last_child(t: LocalTrace, create_id: str) -> InstanceId | None:
    """The last instance the ego of ``t`` created through ``create_id``,
    or None if it never took that edge."""
    count = t.history.created.count(create_id)
    return t.ego + ((create_id, count - 1),) if count else None


# ---------------------------------------------------------------------------
# Exhaustive bounded enumeration
# ---------------------------------------------------------------------------

class _State:
    """One global configuration.  ``last`` holds each instance's local trace,
    whose top event is at the instance's node (an exit's node is a sink,
    validate_program).  ``offers`` holds what an observing step can observe,
    keyed by the kind and label of the dep it adds (``_source``, ``_OFFER``):
    the trace of each free mutex, of each ready once variable and the final
    trace of each exited instance not yet joined.  Each trace is held with its
    hidden masks and the edges its history lets it take (``_Search``)."""

    __slots__ = ("last", "offers", "events", "deps")

    def __init__(self, last: dict, offers: dict, events: int, deps: int):
        self.last, self.offers, self.events, self.deps = last, offers, events, deps


_OFFER = {"init": "mutex", "unlock": "mutex", "initO": "once", "endO": "once", "exit": "join"}


def _source(t: LocalTrace, a: Action) -> tuple:
    """The key of the offer the observing action ``a`` takes after ``t``."""
    return (_DEP_KIND[a.kind], _last_child(t, a.target) if a.kind == "join" else a.target)


class _Search:
    """What one run of the enumeration keeps besides its states.

    The step memo holds the trace (and a create's child) each (trace, edge,
    observed trace) makes, keyed on identities: each trace of the search is
    the one object for its masks.  The masks of a trace fix its step, so a
    memo miss is a new trace, recorded with its step.

    Races.  The ancestors of an access with its global's ``m_g`` deps
    dropped are its event, the ancestors of the trace before it and, unless
    the step locks ``m_g``, those of the observed trace.  A state holds with
    each trace the rest of its events, one mask per global (``hidden``).
    Of two accesses of a pomset, the search took the later from a state on
    its first path to the pomset that holds the earlier, which races with
    it unless among its ancestors.  So the step that first reaches a state
    by an access decides its races with every access of the state, one
    mask test per site not yet known racy with its own.  A reached state
    extends to a pomset with the same pasts."""

    def __init__(self, p: Program):
        self.table = EventTable()
        self.guarded: dict[tuple[str, int], list[Edge]] = {}  # see ready
        self.memo: dict[tuple[int, int, int], tuple] = {}  # see take
        self.steps: list[Step] = []  # in the order of the traces they made
        self.visited: set[tuple[int, int]] = set()
        self.number = {g: k for k, g in enumerate(sorted(p.globals))}
        mutexes = {atomicity_mutex(g): k for g, k in self.number.items()}
        self.edges_from: dict[str, list[Edge]] = {}
        self.dropped: dict[Edge, int] = {}  # lock edge of m_g -> the number of g
        self.site: dict[Edge, tuple] = {}  # access edge -> (global, (node, W/R))
        for e in p.all_edges():
            self.edges_from.setdefault(e.source, []).append(e)
            a = e.action
            if a.kind == "lock" and a.target in mutexes:
                self.dropped[e] = mutexes[a.target]
            elif a.kind in ("read", "write"):
                self.site[e] = (a.target, (e.source, WRITE if a.kind == "write" else READ))
        self.site_events = dict.fromkeys(self.site.values(), 0)
        # per site, the sites of its global not yet known to race with it
        self.partners = {x: {y for y in self.site_events if y[0] == x[0]
                             and WRITE in (x[1][1], y[1][1])} for x in self.site_events}
        self.racy: set[RacePair] = set()

    def ready(self, t: LocalTrace) -> list[Edge]:
        """The edges from the node of ``t`` whose ``_GUARDS`` pass on its
        history (each history is the table's one object for its value)."""
        key = (t.top.node, id(t.history))
        edges = self.guarded.get(key)
        if edges is None:
            edges = self.guarded[key] = [
                e for e in self.edges_from.get(t.top.node, ())
                if (guard := _GUARDS.get(e.action.kind)) is None
                or guard(t.history, e.action.target)]
        return edges

    def take(self, p: Program, before: LocalTrace, edge: Edge,
             observed: LocalTrace | None) -> tuple:
        """The trace taking ``edge`` from ``before`` (observing ``observed``)
        makes and, at a create, the child's start trace (else None), then
        the ready edges of each."""
        key = (id(before), id(edge), id(observed))
        made = self.memo.get(key)
        if made is None:
            after = _extend(before, edge, observed)
            child = spawn(p, edge, before) if edge.action.is_creating else None
            made = self.memo[key] = (after, child, self.ready(after), child and self.ready(child))
            for t, seen in ((after, observed), (child, None)):
                if t is not None:
                    self.steps.append(Step(t.top, before, seen, t))
            if edge in self.site:
                self.site_events[self.site[edge]] |= 1 << self.table.ids[after.top]
        return made

    def hidden(self, before: LocalTrace, edge: Edge, observed: LocalTrace,
               hb: tuple, ho: tuple) -> tuple:
        """The hidden masks of the trace an observing step over ``edge`` makes
        from ``before`` and ``observed``, which hide ``hb`` and ``ho``: an event
        of both stays hidden if both hide it; at a lock of ``m_g`` the events
        ``observed`` adds are hidden."""
        eb, eo = before.event_mask, observed.event_mask
        dropped = self.dropped.get(edge)
        return tuple([b | eo & ~eb if k == dropped else b & ~eo | o & ~eb | b & o
                      for k, b, o in zip(range(len(hb)), hb, ho)])

    def decide(self, outside: int, hidden: tuple, edge: Edge):
        """Record the races of the access over ``edge`` with those of the
        state it leaves that are not its ancestors for its global: the
        events ``outside`` its trace, or ``hidden`` in it."""
        site = glob, a = self.site[edge]
        unordered = outside | hidden[self.number[glob]]
        for other in [y for y in self.partners[site] if unordered & self.site_events[y]]:
            self.racy.add(RacePair(glob, *sorted((a, other[1]))))
            self.partners[site].discard(other)
            self.partners[other].discard(site)


def _apply(p: Program, search: _Search, s: _State, instance: InstanceId,
           edge: Edge) -> _State | None:
    """The successor of ``s`` once ``instance`` takes ``edge``, or None if
    the search visited it: a visited successor costs memo lookups only."""
    a = edge.action
    kind = a.kind
    before, hidden, _ = s.last[instance]
    observed = None
    if kind in _DEP_KIND:
        observed = s.offers[source := _source(before, a)]
    after, child, ready, child_ready = search.take(p, before, edge, observed and observed[0])
    events, deps = s.events | after.event_mask, s.deps | after.dep_mask
    if child is not None:
        events |= child.event_mask
        deps |= child.dep_mask
    if (events, deps) in search.visited:
        return None
    search.visited.add((events, deps))
    ns = _State(dict(s.last), dict(s.offers), events, deps)
    if observed is not None:
        hidden = search.hidden(before, edge, observed[0], hidden, observed[1])
        del ns.offers[source]
    held = ns.last[instance] = (after, hidden, ready)
    if kind in _OFFER:
        ns.offers[(_OFFER[kind], instance if kind == "exit" else a.target)] = held
    elif kind == "create":
        ns.last[child.ego] = (child, hidden, child_ready)
    elif kind == "read" or kind == "write":
        search.decide(s.events & ~after.event_mask, hidden, edge)
    return ns


# The kinds of step an instance may take alone: while its next steps are all
# of these kinds, they commute with every step of the other instances (see
# enumerate_traces).
_PERSISTENT_KINDS = frozenset({"skip", "read", "write", "pos_ran", "neg_ran", "unlock", "endO",
                               "exit", "init", "initO"})


def enumerate_traces(p: Program, depth: int = 40, width: int = 4) -> TraceSet:
    """The maximal execution pomsets reachable within the event and instance
    bounds, and which bounds, if any, cut off a branch, with every local
    trace the search reached, the step that made it and the racy pairs.

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
    # The search allocates hundreds of thousands of containers (traces,
    # steps, memo entries, states) that form no reference cycles, so the
    # cyclic collector would only traverse them again and again.
    collecting = gc.isenabled()
    gc.disable()
    try:
        found = _explore(p, depth, width, reduce=True)
        return found if found is not None else _explore(p, depth, width, reduce=False)
    finally:
        if collecting:
            gc.enable()


def _explore(p: Program, depth: int, width: int, reduce: bool) -> TraceSet | None:
    """The trace set of one search (its step memo goes when it returns).
    With ``reduce``, only a persistent set is taken at each state (see
    enumerate_traces), and None is returned once the depth bound blocks a
    step."""
    search = _Search(p)
    table = search.table
    start = table.event_id(Event(MAIN, 0, p.main_label, p.main().start_node, None))
    first = LocalTrace(table, 1 << start, 0, table.events[start], _START)
    init = _State({MAIN: (first, (0,) * len(search.number), search.ready(first))}, {},
                  1 << start, 0)
    pomsets: set[tuple[int, int]] = set()
    blocked: set[str] = set()
    # the nodes whose every outgoing edge has a persistent kind
    alone = {node for node, edges in search.edges_from.items()
             if all(e.action.kind in _PERSISTENT_KINDS for e in edges)}
    search.visited.add((init.events, init.deps))
    stack = [init]
    while stack:
        s = stack.pop()
        n_actions = s.events.bit_count() - len(s.last)  # every event but the starts
        enabled: list[tuple[InstanceId, Edge]] = []
        mover = None
        for instance, (t, _, ready) in sorted(s.last.items()):
            if mover is not None and len(s.last) < width:
                break  # the others' steps are not taken, and none is blocked
            node = t.top.node
            for edge in ready:
                a = edge.action
                if a.kind in _DEP_KIND and _source(t, a) not in s.offers:
                    continue
                if n_actions >= depth:
                    if reduce:
                        return None
                    blocked.add("depth")
                elif a.kind == "create" and len(s.last) >= width:
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
            ns = _apply(p, search, s, instance, edge)
            if ns is not None:
                stack.append(ns)
    return TraceSet(
        p, table, frozenset(Pomset(table, evs, deps) for evs, deps in pomsets),
        tuple(sorted(blocked)), depth, width, (first, *(step.after for step in search.steps)),
        tuple(search.steps), frozenset(search.racy))


# ---------------------------------------------------------------------------
# Race definitions
# ---------------------------------------------------------------------------

def find_racy_pairs(ts: TraceSet) -> frozenset[RacePair]:
    """Access pairs (>=1 write) of some pomset left unordered once the order
    contributed by the accessed global's atomicity mutex is discarded: the
    pairs the search decided as it took each access (see ``_Search``)."""
    return ts._racy


def bidirectionally_compatible(ts: TraceSet, glob: str, site_a: str, site_b: str) -> bool:
    """Both orders of the two access sequences are executable from some pair
    of prefix traces and some trace ending in an unlock/init of ``m_g``.
    The traces are grouped and each run of a sequence from a pair of
    traces is taken once per trace set: groups and runs are kept on ``ts``
    for every later pair of sites."""
    seq_a = access_sequence(ts.program, site_a)
    seq_b = access_sequence(ts.program, site_b)
    mg = atomicity_mutex(glob)

    by_node, by_mutex = _trace_groups(ts)
    starters_a = by_node.get(seq_a[0].source, ())
    starters_b = by_node.get(seq_b[0].source, ())
    landings = by_mutex.get(mg, ())

    runs = ts._runs  # (sequence, t0, t1) -> its end, or None

    def run(seq, t0: LocalTrace, t1: LocalTrace) -> LocalTrace | None:
        key = (seq, t0, t1)
        if key not in runs:
            lock_e, acc_e, unl_e = seq
            r = trace_step_observing(lock_e, t0, t1)
            if r is not None:
                r = trace_step_local(acc_e, r)
            if r is not None:
                r = trace_step_local(unl_e, r)
            runs[key] = r
        return runs[key]

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


def _trace_groups(ts: TraceSet) -> tuple[dict, dict]:
    """The traces of ``ts`` by ego node, and those whose top is an unlock
    or init by its mutex (what a lock can observe), each group in trace
    order; made on the first call per trace set and kept on ``ts``."""
    if ts._groups is None:
        by_node: dict[str, list[LocalTrace]] = {}
        by_mutex: dict[str, list[LocalTrace]] = {}
        for t in ts.traces:
            by_node.setdefault(t.ego_node(), []).append(t)
            a = t.top.action
            if a is not None and a.kind in ("unlock", "init"):
                by_mutex.setdefault(a.target, []).append(t)
        ts._groups = (by_node, by_mutex)
    return ts._groups
