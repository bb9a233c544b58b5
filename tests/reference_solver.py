"""The ungrouped worklist solver, kept for differential tests only.

It makes one observing step per stored partner value: a newly reached ego
value meets every value held under the observed key, and every arriving
observable value meets every ego value at each edge watching its key.
``racedigest.solver.solve`` makes one step per distinct partner view and
must reach the same least solution.
"""

from __future__ import annotations

from collections import deque

from racedigest.solver import ConstraintSystem, Solution, SolverDivergence, _transfer


def reference_solve(cs: ConstraintSystem, max_evaluations: int = 1_000_000) -> Solution:
    program = cs.program
    watchers: dict = {}
    for e in program.all_edges():
        if e.action.is_observing:
            for key in e.action.observed_keys():
                watchers.setdefault(key, []).append(e)
    tables: dict = {"pp": {}, "obs": {}, "race": {}}
    queue: deque = deque()
    evaluations = 0

    def push(fact) -> None:
        kind, key, value = fact
        values = tables[kind].setdefault(key, {})
        if value not in values:
            values[value] = None
            if kind != "race":
                queue.append(fact)

    def run(edge, elem, observed: dict) -> None:
        nonlocal evaluations
        for facts in _transfer(cs, edge, elem, observed):
            evaluations += 1
            if evaluations > max_evaluations:
                raise SolverDivergence(f"exceeded {max_evaluations} constraint evaluations")
            for fact in facts:
                push(fact)

    push(("pp", program.main().start_node, cs.digest.init_digest()))

    pp, obs = tables["pp"], tables["obs"]
    while queue:
        kind, key, value = queue.popleft()
        if kind == "pp":
            for edge in program.edges_from(key):
                run(edge, value, obs)
        else:
            arrived = {key: (value,)}
            for edge in watchers.get(key, ()):
                for elem in tuple(pp.get(edge.source, ())):
                    run(edge, elem, arrived)

    def as_sets(table: dict) -> dict:
        return {key: set(values) for key, values in table.items()}

    return Solution(cs, as_sets(pp), as_sets(obs), as_sets(tables["race"]), evaluations)
