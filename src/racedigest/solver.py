"""Digest-refined constraint system over the trivial reachability domain.

Unknowns are (program point, digest) and (observable action, digest) pairs
plus one access accumulator per global.  The point/action unknowns range
over a two-point domain: bottom (unreachable) or a value standing for "some
local traces reach here"; the accumulator for ``g`` collects
(site, access type, digest) records contributed by every reachable unlock
of the atomicity mutex ``m_g``.  Unknowns materialize lazily: only digests
actually reached create work, so the exponential digest universes never get
enumerated.  Solving is a FIFO worklist run to the least fixpoint; a
configurable evaluation cap guards against digests with unbounded realized
universes.

One transfer function, ``_transfer``, states every constraint: ``solve``
adds the facts it derives and ``verify_postfixpoint`` checks that they are
all in the solution.  The worklist iterates digest sets unsorted, in the
order their values were first derived; the least fixpoint does not
depend on that order.  ``evaluations`` counts digest step calls
(``step_local``, ``step_observing``, ``new_digest``).

An observing step reads only the partner's ``observed_view``, so ``solve``
makes one step per distinct view: for each observing action and observed
key it keeps the first value of each view as that view's representative.
A newly reached ego value meets only the representatives, and an arriving
observable value wakes the edges watching its key only when it brings a
new view.  With exact views (a digest law) the least fixpoint is the same
as pairing every stored value; ``Solution.obs`` still holds every value,
and ``verify_postfixpoint`` checks the solution against the ungrouped
constraints.
"""

from __future__ import annotations

from collections import deque, namedtuple

from .digest import Digest
from .model import Edge, Program, access_sequence, access_sites


class SolverDivergence(Exception):
    """The evaluation cap was hit; some digest realizes unboundedly many values."""


class AccessRecord(namedtuple("AccessRecord", "site type digest")):
    """One recorded access at ``site``, of ``type`` W or R: the digest is the
    value before the access sequence, which access stability guarantees
    equals the value after it."""

    __slots__ = ()


class ConstraintSystem(namedtuple("ConstraintSystem", "program digest accumulators")):
    """The constraints of ``program`` over ``digest``; ``accumulators`` maps
    each unlock-of-m_g edge to (access site, access type, global)."""

    __slots__ = ()


def build_system(program: Program, digest: Digest) -> ConstraintSystem:
    """Raises ValidationError at an access not wrapped in its ``m_g``."""
    return ConstraintSystem(program, digest, {
        access_sequence(program, site)[2]: (site, typ, glob)
        for site, glob, typ in access_sites(program)})


class Solution:
    """The least solution of ``system``: per node (``pp``) and per
    observable key (``obs``) the set of digest elements, per global the
    set of ``AccessRecord`` (``races``), and the transfer evaluations it
    took."""

    def __init__(self, system: ConstraintSystem, pp: dict, obs: dict, races: dict,
                 evaluations: int) -> None:
        self.system, self.pp, self.obs, self.races = system, pp, obs, races
        self.evaluations = evaluations

    def reached(self, node: str, elem) -> bool:
        return elem in self.pp.get(node, ())

    def records(self, glob: str) -> frozenset:
        return frozenset(self.races.get(glob, ()))


def _watchers(program: Program) -> dict:
    """Observable key -> observing action -> the edges that perform it."""
    watchers: dict = {}
    for e in program.all_edges():
        if e.action.is_observing:
            for key in e.action.observed_keys():
                watchers.setdefault(key, {}).setdefault(e.action, []).append(e)
    return watchers


def _transfer(cs: ConstraintSystem, edge: Edge, elem, observed: dict):
    """The constraints of ``edge`` at ``elem``: one batch of facts per digest
    step call.  A fact is ("pp", node, elem), ("obs", key, elem) or
    ("race", global, AccessRecord); an observing edge pairs ``elem`` with
    each value ``observed`` holds under the keys it observes."""
    digest, act = cs.digest, edge.action
    if act.is_observing:
        for key in act.observed_keys():
            for other in observed.get(key, ()):
                out = digest.step_observing(act, elem, other)
                yield () if out is None else (("pp", edge.target, out),)
        return
    out = digest.step_local(act, elem)
    if out is None:
        yield ()
        return
    facts = [("pp", edge.target, out)]
    if act.is_observable:
        facts.append(("obs", act.obs_key(), out))
        if edge in cs.accumulators:
            site, typ, glob = cs.accumulators[edge]
            facts.append(("race", glob, AccessRecord(site, typ, out)))
    yield facts
    if act.kind == "create":
        child = digest.new_digest(elem, act.create_id)
        start = cs.program.prototypes[act.target].start_node
        yield () if child is None else (("pp", start, child),)


def solve(cs: ConstraintSystem, max_evaluations: int = 1_000_000) -> Solution:
    """Least solution of the refined system, computed by a FIFO worklist
    with one observing step per distinct partner view.

    While solving, each unknown's values live in a dict used as an
    insertion-ordered set, so the order of evaluation, and with it the
    ``evaluations`` count, does not depend on the hash seed."""
    program, digest = cs.program, cs.digest
    watchers = _watchers(program)
    tables: dict = {"pp": {}, "obs": {}, "race": {}}
    # observing action -> observed key -> the first value of each view
    partners: dict = {}
    views: set = set()  # (observing action, observed key, view)
    queue: deque = deque()
    evaluations = 0

    def push(fact) -> None:
        kind, key, value = fact
        values = tables[kind].setdefault(key, {})
        if value not in values:
            values[value] = None
            if kind != "race":
                queue.append(fact)

    def run(edge: Edge, elem, observed: dict) -> None:
        nonlocal evaluations
        for facts in _transfer(cs, edge, elem, observed):
            evaluations += 1
            if evaluations > max_evaluations:
                raise SolverDivergence(
                    f"exceeded {max_evaluations} constraint evaluations; "
                    "does some digest realize unboundedly many elements?"
                )
            for fact in facts:
                push(fact)

    push(("pp", program.main().start_node, digest.init_digest()))

    pp = tables["pp"]
    while queue:
        kind, key, value = queue.popleft()
        if kind == "pp":
            for edge in program.edges_from(key):
                run(edge, value, partners.get(edge.action, {}))
            continue
        arrived = {key: (value,)}
        for act, edges in watchers.get(key, {}).items():
            view = (act, key, digest.observed_view(act, value))
            if view in views:
                continue  # the first value with this view stands for this one
            views.add(view)
            partners.setdefault(act, {}).setdefault(key, []).append(value)
            for edge in edges:
                # a snapshot: an observing self-loop adds to its own source
                for elem in tuple(pp.get(edge.source, ())):
                    run(edge, elem, arrived)

    def as_sets(table: dict) -> dict:
        return {key: set(values) for key, values in table.items()}

    return Solution(cs, as_sets(pp), as_sets(tables["obs"]), as_sets(tables["race"]), evaluations)


def verify_postfixpoint(sol: Solution) -> bool:
    """Re-evaluate every materialized constraint; True iff nothing changes."""
    cs = sol.system
    tables = {"pp": sol.pp, "obs": sol.obs, "race": sol.races}
    if not sol.reached(cs.program.main().start_node, cs.digest.init_digest()):
        return False
    return all(
        value in tables[kind].get(key, ())
        for node, elems in sol.pp.items()
        for elem in elems
        for edge in cs.program.edges_from(node)
        for facts in _transfer(cs, edge, elem, sol.obs)
        for kind, key, value in facts
    )
