"""Command-line interface.

Subcommands:
  analyze  -- run the digest-driven detector on one program
  oracle   -- bounded ground-truth enumeration and race search
  ablate   -- flag counts per predicate subset with all digests active
  conform  -- run the corpus suites (soundness, laws, equivalence, mutants)

Exit codes: 0 no races / suites pass, 1 races flagged / suite failures,
2 usage or input errors (including an unreadable input path such as a
directory, a negative --tid-cap, an init or initO outside main, code
after a thread_exit, a create-edge id outside [A-Za-z0-9_.]+, a goto to
a label never placed, a label placed twice in one prototype, a node named
like one the atomicity instrumentation or the parser's exit edges add
(``<label>.s<n>``, ``<label>.t<n>``, ``main.i<n>``, ``<label>.x<n>``), a corpus
expected.json that is not valid JSON or lacks a required key, and a
corpus program.rlp that does not parse or validate, reported with its
case name), solver divergence (the evaluation cap was hit) and internal
failures (any other exception, reported as one
``error: internal: <type>: <message>`` line on stderr),
3 oracle inconclusive: the enumeration was cut off by its bounds and found
no race (races found in a truncated run still exit 1).

``run`` is the process entry point (``python -m racedigest.cli`` and the
``racedigest`` console script).  ``main(argv)`` is the in-process API: it
returns the exit code, restores the caller's collector state and never
freezes the heap.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from .dsl import DslSyntaxError, parse_program
from .model import ValidationError, instrument_atomicity


def _load(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return instrument_atomicity(parse_program(text))


def _tid_cap(arg: str) -> int:
    try:
        cap = int(arg)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {arg!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {cap}")
    return cap


def _solve(args):
    """The program, its digest product and the solution.  The defaults of
    --digests and --tid-cap are read here, not when the parser is built,
    so that the oracle command loads no analyzer module."""
    from .digests import CANONICAL_ORDER, DEFAULT_TID_CAP, ProductDigest, build_digests
    from .solver import build_system, solve

    program = _load(args.file)
    names = CANONICAL_ORDER if args.digests is None else [
        name.strip() for name in args.digests.split(",") if name.strip()]
    tid_cap = DEFAULT_TID_CAP if args.tid_cap is None else args.tid_cap
    product = ProductDigest(build_digests(names, tid_cap=tid_cap))
    return program, product, solve(build_system(program, product))


def cmd_analyze(args) -> int:
    from .detector import BESPOKE, GENERIC, detect

    program, product, sol = _solve(args)
    mode = GENERIC if args.predicate == "generic" else BESPOKE
    report = detect(sol, product, {d.name: mode for d in product.components})
    # streamed in blocks to the stdout of the moment, which a caller may
    # have redirected
    if args.format == "json":
        report.to_json_text(sys.stdout)
    else:
        report.to_text(program, sys.stdout)
    return 1 if report.flagged else 0


def cmd_oracle(args) -> int:
    from .oracle import enumerate_traces, find_racy_pairs

    program = _load(args.file)
    ts = enumerate_traces(program, depth=args.depth, width=args.width)
    racy = sorted(find_racy_pairs(ts))
    payload = {
        "version": 1,
        "bounds": {"depth": args.depth, "width": args.width},
        "exhaustive": not ts.truncated,
        "racy": [
            {"global": g, "a": {"site": a[0], "type": a[1]}, "b": {"site": b[0], "type": b[1]}}
            for g, a, b in racy
        ],
    }
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        if ts.truncated:
            cut = ", ".join(f"{bound} {getattr(ts, bound)}" for bound in ts.truncated_by)
            sys.stdout.write(f"warning: enumeration truncated by bounds ({cut})\n")
        if not racy:
            # a cut-off run proves nothing; each race found is still real
            sys.stdout.write("inconclusive: enumeration truncated by bounds\n" if ts.truncated
                             else "no races within bounds\n")
        for g, a, b in racy:
            sys.stdout.write(f"race on {g}: {a[1]}@{a[0]} with {b[1]}@{b[0]}\n")
    if racy:
        return 1
    return 3 if ts.truncated else 0


def cmd_ablate(args) -> int:
    from .detector import ablate

    _, product, sol = _solve(args)
    rows = ablate(sol, product)
    if args.format == "json":
        sys.stdout.write(json.dumps({"version": 1, "rows": rows}, indent=2, sort_keys=True) + "\n")
    else:
        width = max(len("+".join(r["predicates"]) or "(none)") for r in rows)
        for r in rows:
            label = "+".join(r["predicates"]) or "(none)"
            sys.stdout.write(f"{label.ljust(width)}  flagged={r['flagged']}\n")
    return 0


def cmd_conform(args) -> int:
    from .conformance import load_corpus, run_all_suites

    cases = load_corpus(Path(args.dir))
    result = run_all_suites(cases)
    sys.stdout.write(result.to_text())
    return 0 if result.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="racedigest",
        description="digest-driven static data race detection with a bounded oracle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze one .rlp program")
    pa.add_argument("file")
    pa.add_argument("--digests")  # default: every digest
    pa.add_argument("--predicate", choices=["bespoke", "generic"], default="bespoke")
    pa.add_argument("--format", choices=["text", "json"], default="text")
    pa.add_argument("--tid-cap", type=_tid_cap)
    pa.set_defaults(func=cmd_analyze)

    po = sub.add_parser("oracle", help="bounded ground-truth race search")
    po.add_argument("file")
    po.add_argument("--depth", type=int, default=40)
    po.add_argument("--width", type=int, default=4)
    po.add_argument("--format", choices=["text", "json"], default="text")
    po.set_defaults(func=cmd_oracle)

    pb = sub.add_parser("ablate", help="flag counts per predicate subset")
    pb.add_argument("file")
    pb.add_argument("--digests")  # default: every digest
    pb.add_argument("--format", choices=["text", "json"], default="text")
    pb.add_argument("--tid-cap", type=_tid_cap)
    pb.set_defaults(func=cmd_ablate)

    pc = sub.add_parser("conform", help="run the corpus suites")
    pc.add_argument("dir")
    pc.set_defaults(func=cmd_conform)

    args = parser.parse_args(argv)
    # What a command builds (traces, solver facts, records, report rows)
    # forms no reference cycles, so the cyclic collector would only
    # traverse it again and again: it is paused for the command.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except Exception as exc:
        # imported here, as the oracle command loads neither module
        from .digests import ConfigError
        from .solver import SolverDivergence

        if isinstance(exc, (DslSyntaxError, ValidationError, ConfigError, OSError,
                            ValueError, SolverDivergence)):
            print(f"error: {exc}", file=sys.stderr)
        else:
            # a fault of racedigest itself must not read as "races flagged"
            print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


def run() -> None:
    """Run ``main`` on the process's arguments and exit with its code.
    Every way out, a usage error or ``--help`` included, freezes the heap
    first: the interpreter's shutdown then runs its cyclic-collector
    passes without traversing what the call imported or built."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
