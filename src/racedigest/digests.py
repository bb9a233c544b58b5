"""The digest interface, the shipped digests and their product.

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
atomicity-mutex lock step.

The shipped instances:

* lockset    -- the set of mutexes held by the ego thread
* threadflag -- single-threaded main / multi-threaded main / other thread
* tid        -- creation-history thread ids with uniqueness and a record of
                create edges already taken (bounded by a path cap)
* join       -- creation paths of threads that must have terminated,
                propagated through join chains (rides on thread ids)
* once       -- active and completed once-control variables

Each implements the abstraction map the law harness checks it against,
from a local trace's ego instance and history, and a bespoke predicate.
``ProductDigest`` combines them and ``build_digests`` builds them by name.
The laws and the broken digests they must catch live in ``digest``, which
the analyzer never loads.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .model import Action, atomicity_mutex, edge_path


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
    accesses may be parallel only if the atomicity lock merges both ways.
    The detector calls it once per distinct value pair of a global, so the
    lock action is built once per global, not per call."""
    act = _atomicity_lock(glob)
    return d.step_observing(act, a, b) is not None and d.step_observing(act, b, a) is not None


# one immutable action per global name, kept for the life of the process
@functools.lru_cache(maxsize=None)
def _atomicity_lock(glob: str) -> Action:
    return Action("lock", atomicity_mutex(glob))


class ProductDigest(Digest):
    """Component-wise combination; the predicate is the meet of components.
    A value is a tuple of one component value each: ``init_digest``, the
    transfer and ``abstract`` build every value that way.  So its laws are
    its components': the law suite checks those, and ``LawTables`` refuses
    a product.

    ``new_digest``, ``step_local`` and ``step_observing`` step the
    components in order and return None at the first None, stepping no
    later component.  Each is a plain loop: the solver makes one such call
    per evaluation, and a generator per call cost more than the steps."""

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
        out = []
        for c, e in zip(self.components, elem):
            v = c.new_digest(e, create_id)
            if v is None:
                return None
            out.append(v)
        return tuple(out)

    def step_local(self, act: Action, elem):
        out = []
        for step, e in zip(self._step_local, elem):
            v = step(act, e)
            if v is None:
                return None
            out.append(v)
        return tuple(out)

    def step_observing(self, act: Action, elem0, elem1):
        out = []
        for step, e0, e1 in zip(self._step_observing, elem0, elem1):
            v = step(act, e0, e1)
            if v is None:
                return None
            out.append(v)
        return tuple(out)

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
# Shipped digests
# ---------------------------------------------------------------------------

ST_MAIN = "ST_main"
MT_MAIN = "MT_main"
MT = "MT"

DEFAULT_TID_CAP = 8

# Per-edge create counts saturate here: the predicates only ever distinguish
# "never", "exactly once", and "more than once", and saturation keeps the
# realized element universe finite under create loops.
CREATED_SATURATION = 2


def _saturate_counts(edge_ids) -> tuple[str, ...]:
    counts: dict[str, int] = {}
    for ce in edge_ids:
        counts[ce] = min(counts.get(ce, 0) + 1, CREATED_SATURATION)
    return tuple(sorted(ce for ce, n in counts.items() for _ in range(n)))


class LocksetDigest(Digest):
    name = "lockset"

    def init_digest(self):
        return frozenset()

    def new_digest(self, elem, create_id: str):
        return frozenset()

    def step_local(self, act: Action, elem):
        if act.kind == "unlock":
            if act.target not in elem:
                return None
            return elem - {act.target}
        return elem

    def step_observing(self, act: Action, elem0, elem1):
        if act.kind == "lock":
            if act.target in elem0:
                return None
            return elem0 | {act.target}
        return self.step_local(act, elem0)

    def observed_view(self, act: Action, elem1):
        return None

    def mhp(self, glob: str, a, b) -> bool:
        return not (a & b)

    def abstract(self, ego, history):
        return history.held

    def format_elem(self, elem) -> str:
        return "{" + ",".join(sorted(elem)) + "}"


class ThreadFlagDigest(Digest):
    name = "threadflag"

    def init_digest(self):
        return ST_MAIN

    def new_digest(self, elem, create_id: str):
        return MT

    def step_local(self, act: Action, elem):
        if act.kind == "create":
            return MT if elem == MT else MT_MAIN
        return elem

    def step_observing(self, act: Action, elem0, elem1):
        if act.kind == "lock":
            if elem0 == ST_MAIN and elem1 != ST_MAIN:
                return None
            return elem0
        return self.step_local(act, elem0)

    def observed_view(self, act: Action, elem1):
        return elem1 == ST_MAIN if act.kind == "lock" else None

    def mhp(self, glob: str, a, b) -> bool:
        return not (a == ST_MAIN or b == ST_MAIN or (a == MT_MAIN and b == MT_MAIN))

    def abstract(self, ego, history):
        if ego != ():
            return MT
        return MT_MAIN if history.created else ST_MAIN

    def format_elem(self, elem) -> str:
        return elem


class TidElem(namedtuple("TidElem", "path created unique")):
    """path (a tuple of create edges) is None for the overflow element
    absorbing too-deep creation histories; created is a sorted multiset of
    create edges the ego took (a tuple); unique a bool."""

    __slots__ = ()


TID_OVERFLOW = TidElem(None, (), False)


def _alpha_unique(instance) -> bool:
    seen = set()
    for ce, serial in instance:
        if serial != 0 or ce in seen:
            return False
        seen.add(ce)
    return True


class ThreadIdDigest(Digest):
    name = "tid"

    def __init__(self, cap: int = DEFAULT_TID_CAP):
        self.cap = cap

    def init_digest(self):
        return TidElem((), (), True)

    def child_path(self, elem: TidElem, ce: str) -> tuple[str, ...] | None:
        """The path of the child ``elem`` creates through edge ``ce``, or
        None when ``elem`` is the overflow element or its path is at the cap."""
        if elem.path is None or len(elem.path) >= self.cap:
            return None
        return elem.path + (ce,)

    def new_digest(self, elem, create_id: str):
        path = self.child_path(elem, create_id)
        if path is None:
            return TID_OVERFLOW
        unique = elem.unique and create_id not in elem.path and create_id not in elem.created
        return TidElem(path, (), unique)

    def step_local(self, act: Action, elem):
        if act.kind == "create" and elem.path is not None:
            created = _saturate_counts(elem.created + (act.create_id,))
            return TidElem(elem.path, created, elem.unique)
        return elem

    def observed_view(self, act: Action, elem1):
        return None

    def may_run(self, a: TidElem, b: TidElem) -> bool:
        """False only when the thread of ``b`` provably has not started:
        both ids unique, b strictly below a, and the ego has not yet taken
        the create edge toward b."""
        if not (a.unique and b.unique) or a.path is None or b.path is None:
            return True
        if len(b.path) <= len(a.path) or b.path[: len(a.path)] != a.path:
            return True
        return b.path[len(a.path)] in a.created

    def mhp(self, glob: str, a, b) -> bool:
        same = a.path is not None and a.path == b.path and a.unique and b.unique
        return not same and self.may_run(a, b) and self.may_run(b, a)

    def abstract(self, ego, history):
        path = edge_path(ego)
        if len(path) > self.cap:
            return TID_OVERFLOW
        return TidElem(path, _saturate_counts(history.created), _alpha_unique(ego))

    def format_elem(self, elem) -> str:
        if elem.path is None:
            return "tid:overflow"
        u = "!" if elem.unique else "?"
        return f"tid{u}[{','.join(elem.path)}]c[{','.join(elem.created)}]"


class JoinElem(namedtuple("JoinElem", "tid joined")):
    """The ego's ``TidElem`` and the creation paths (tuples) of threads
    known terminated, a frozenset."""

    __slots__ = ()


class JoinDigest(Digest):
    """Must-terminated threads by creation path.

    A path enters the set when the ego joins the unique child it created
    through an edge taken exactly once; the joined thread's own set is
    carried over because those threads terminated even earlier.
    """

    name = "join"

    def __init__(self, cap: int = DEFAULT_TID_CAP):
        self._tid = ThreadIdDigest(cap)

    def init_digest(self):
        return JoinElem(self._tid.init_digest(), frozenset())

    def new_digest(self, elem, create_id: str):
        return JoinElem(self._tid.new_digest(elem.tid, create_id), frozenset())

    def step_local(self, act: Action, elem):
        tid = self._tid.step_local(act, elem.tid)
        # most actions leave the thread id, and so the whole value, as it is
        return elem if tid is elem.tid else JoinElem(tid, elem.joined)

    def step_observing(self, act: Action, elem0, elem1):
        if act.kind != "join":
            return self.step_local(act, elem0)
        ce = act.target
        tid0, tid1 = elem0.tid, elem1.tid
        child_path = self._tid.child_path(tid0, ce)
        if child_path is not None and tid1.path is not None and tid1.path != child_path:
            return None  # exit of a thread this join cannot observe
        joined = elem0.joined | elem1.joined
        if child_path is not None and tid0.unique and tid0.created.count(ce) == 1:
            joined = joined | {child_path}
        return JoinElem(tid0, joined)

    def observed_view(self, act: Action, elem1):
        return (elem1.tid.path, elem1.joined) if act.kind == "join" else None

    def mhp(self, glob: str, a, b) -> bool:
        return not (self._terminated_before(a, b) or self._terminated_before(b, a))

    @staticmethod
    def _terminated_before(ego: JoinElem, other: JoinElem) -> bool:
        return (
            other.tid.path is not None
            and other.tid.unique
            and other.tid.path in ego.joined
        )

    def abstract(self, ego, history):
        # a joined thread counts when its path fits the cap, its creator is
        # unique and it is the first child created through its edge
        joined = frozenset(
            edge_path(child) for child in history.terminated
            if len(child) <= self._tid.cap and child[-1][1] == 0 and _alpha_unique(child[:-1])
        )
        return JoinElem(self._tid.abstract(ego, history), joined)

    def format_elem(self, elem) -> str:
        joined = ";".join(",".join(p) for p in sorted(elem.joined))
        return f"{self._tid.format_elem(elem.tid)}j[{joined}]"


class OnceDigest(Digest):
    name = "once"

    def init_digest(self):
        return (frozenset(), frozenset())

    def new_digest(self, elem, create_id: str):
        return (frozenset(), elem[1])

    def step_local(self, act: Action, elem):
        active, completed = elem
        if act.kind == "endO":
            return (active - {act.target}, completed | {act.target})
        if act.kind == "pos_ran":
            # outside o's block the endO it passes on may have reached the
            # ego over a mutex dep, which the completed set does not follow;
            # inside it, only over the once dep of its startO, which it does
            if act.target in completed:
                return elem
            return None if act.target in active else (active, completed | {act.target})
        if act.kind == "neg_ran":
            return None if act.target in completed else elem
        return elem

    def step_observing(self, act: Action, elem0, elem1):
        if act.kind == "startO":
            active, completed = elem0
            if act.target in active:
                return None
            return (active | {act.target}, completed | elem1[1])
        return self.step_local(act, elem0)

    def observed_view(self, act: Action, elem1):
        return elem1[1] if act.kind == "startO" else None

    def mhp(self, glob: str, a, b) -> bool:
        active_a, completed_a = a
        active_b, completed_b = b
        return not (active_a & (active_b | completed_b) or active_b & (active_a | completed_a))

    def abstract(self, ego, history):
        return (history.active, history.completed)

    def format_elem(self, elem) -> str:
        return "A{" + ",".join(sorted(elem[0])) + "}C{" + ",".join(sorted(elem[1])) + "}"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

CANONICAL_ORDER = ("lockset", "threadflag", "tid", "join", "once")


def build_digests(names, tid_cap: int = DEFAULT_TID_CAP) -> tuple[Digest, ...]:
    """Instantiate digests by registry name, normalized to canonical order."""
    requested = set(names)
    unknown = requested - set(CANONICAL_ORDER)
    if unknown:
        raise ConfigError(f"unknown digests: {sorted(unknown)}")
    if "join" in requested and "tid" not in requested:
        raise ConfigError("the join digest requires the tid digest")
    factories = {
        "lockset": LocksetDigest,
        "threadflag": ThreadFlagDigest,
        "tid": lambda: ThreadIdDigest(tid_cap),
        "join": lambda: JoinDigest(tid_cap),
        "once": OnceDigest,
    }
    return tuple(factories[n]() for n in CANONICAL_ORDER if n in requested)
