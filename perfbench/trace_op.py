"""Run one racedigest CLI command with spans around the public functions.

    python3 perfbench/trace_op.py SPANS_JSON OP_ID -- <racedigest arguments>

The command goes through ``racedigest.cli.main`` exactly as an untraced
call does, so stdout and the exit code stay comparable.  Before it runs,
each public function below is wrapped, in every ``racedigest`` module that
imported it, by a recorder that keeps a span (name, start, end, parent,
op id) and the counters read from the call's arguments and return value.
Spans stay in memory and are written to SPANS_JSON when the command ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import racedigest.cli
import racedigest.conformance
import racedigest.detector
import racedigest.digest
import racedigest.dsl
import racedigest.model
import racedigest.oracle
import racedigest.solver
from racedigest.detector import GENERIC, RaceReport
from racedigest.model import WRITE


def _edges(program) -> dict:
    return {"edges": len(program.all_edges())}


def _solution(sol) -> dict:
    unknowns = sum(map(len, sol.pp.values())) + sum(map(len, sol.obs.values()))
    return {
        "evaluations": sol.evaluations,
        "unknowns": unknowns,
        "max_digests_per_node": max(map(len, sol.pp.values()), default=0),
        "records": sum(map(len, sol.races.values())),
    }


def _record_pairs(sol) -> int:
    """Record pairs the detector visits that have at least one write: all
    pairs i <= j of a global's records minus the read-read ones."""
    total = 0
    for records in sol.races.values():
        n = len(records)
        r = sum(1 for rec in records if rec.type != WRITE)
        total += n * (n + 1) // 2 - r * (r + 1) // 2
    return total


def _detect(result, sol, product, modes=None) -> dict:
    generic = bool(modes) and GENERIC in modes.values()
    return {
        "generic": int(generic),
        "record_pairs": _record_pairs(sol),
        "flagged": len(result.flagged),
    }


def _traces(result, *args, **kwargs) -> dict:
    return {
        "traces": len(result.traces),
        "pomsets": len(result.pomsets),
        "truncated": int(result.truncated),
    }


def _racy(result, ts) -> dict:
    return {"racy_pairs": len(result), "program": id(ts.program)}


def _checks(result, *args, **kwargs) -> dict:
    return {"checks": result.checks}


# (module, function, span name, counters(result, *args, **kwargs))
INSTRUMENTED = [
    (racedigest.cli, "main", "cli.main", None),
    (racedigest.dsl, "parse_program", "dsl.parse", lambda r, *a, **k: _edges(r)),
    (racedigest.model, "instrument_atomicity", "model.instrument", lambda r, *a, **k: _edges(r)),
    (racedigest.solver, "build_system", "solver.build", None),
    (racedigest.solver, "solve", "solver.solve", lambda r, *a, **k: _solution(r)),
    (racedigest.detector, "detect", "detector.detect", _detect),
    (racedigest.detector, "ablate", "detector.ablate", None),
    (racedigest.oracle, "enumerate_traces", "oracle.enumerate", _traces),
    (racedigest.oracle, "find_racy_pairs", "oracle.racy_pairs", _racy),
    (racedigest.oracle, "bidirectionally_compatible", "oracle.bidir", None),
    (racedigest.digest, "check_admissibility", "digest.admissibility", _checks),
    (racedigest.digest, "check_access_stability", "digest.stability", _checks),
    (racedigest.digest, "check_mhp_commutativity", "digest.commutativity", _checks),
    (racedigest.conformance, "run_expectation_suite", "conformance.expectations", _checks),
    (racedigest.conformance, "run_soundness_suite", "conformance.soundness", _checks),
    (racedigest.conformance, "run_law_suite", "conformance.laws", _checks),
    (racedigest.conformance, "run_equivalence_suite", "conformance.equivalence", _checks),
    (racedigest.conformance, "run_subsumption_suite", "conformance.subsumption", _checks),
    (racedigest.conformance, "run_mutant_suite", "conformance.mutants", _checks),
]

# RaceReport rendering is a method; the span covers the report text.
REPORT_METHODS = [(RaceReport, "to_json_text"), (RaceReport, "to_text")]


class Tracer:
    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def wrap(self, fn, name: str, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            span = {"name": name, "parent": parent, "op": self.op_id}
            self.spans.append(span)
            self.stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if counters is not None:
                span["counters"] = counters(result, *args, **kwargs)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("racedigest")]
        for module, attr, name, counters in INSTRUMENTED:
            original = getattr(module, attr)
            traced = self.wrap(original, name, counters)
            for m in modules:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, traced)
        for cls, attr in REPORT_METHODS:
            setattr(cls, attr, self.wrap(getattr(cls, attr), "detector.report", None))


def main(argv: list[str]) -> int:
    spans_path, op_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: trace_op.py SPANS_JSON OP_ID -- <racedigest arguments>")
    tracer = Tracer(op_id)
    tracer.install()
    try:
        code = racedigest.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
