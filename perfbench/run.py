"""racedigest benchmark: seeded workloads through the CLI, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout holding ``src/racedigest`` and
``corpus``.  Every operation is one ``racedigest`` CLI call in a fresh
interpreter, one at a time.  Each interpreter gets its own
``PYTHONHASHSEED`` derived from ``--seed``, so an output that depends on the
hash seed shows up as a failed operation.  A repetition runs every operation
of the workload once; repetitions continue while the next one is expected
to end within ``--seconds`` (at least ``MIN_REPS``), and each metric is the
median over repetitions.  Times are calibrated against ``calibrate.py``
runs around each measurement (see ``CALIBRATION_NOMINAL_S``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` every operation also runs once through ``trace_op.py`` and the
line reports the per-layer metrics plus the tracing slowdown.  Metric names,
units and the workloads are described in ``perfbench/README.md``.  Details
of every run (environment, hash seeds, tails, failures, spans) go to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
WORK = ROOT / ".perfbench"

MIN_REPS = 2
SETUP_PROBES_PER_REP = 2
# Time metrics are reported at a nominal machine speed: every measured wall
# time is multiplied by CALIBRATION_NOMINAL_S / (mean wall time of the two
# calibrate.py runs around it).  The constant is calibrate.py's typical
# time on a 2-vCPU Intel Xeon container, so values read as seconds there.
CALIBRATION_NOMINAL_S = 0.15
OP_TIMEOUT_S = 60
CANONICAL = ("lockset", "threadflag", "tid", "join", "once")

# Sizes; reference timings are in README.md.
LOCKED_SIZE = (6, 6, 12)          # N threads, K globals, B blocks per thread
LOCKED_ORACLE_SIZE = (2, 1, 1)
INTERLEAVE_ORACLE_SIZE = (2, 3)
INTERLEAVE_CONFORM_SIZE = (2, 2)
ORACLE_BOUNDS = (60, 5)
CORPUS_PROGRAM_CASE = "prog1_running_example"
# The generated families alone let three of the five mutants survive the
# mutant suite, so their conform directories add these corpus cases, which
# together catch all five.
MUTANT_CATCHING_CASES = ("once_after_completion", "prog1_running_example", "two_children_race")

OP_METRICS = ("analyze_s", "analyze_generic_s", "ablate_s", "oracle_s", "conform_s")


class Mismatch(Exception):
    """An operation's output differs from its reference."""


@dataclass
class Op:
    metric: str
    label: str
    args: list[str]
    check: Callable[[str, int], None]  # raises Mismatch
    stdout: str | None = None  # of the first checked run
    code: int | None = None


@dataclass
class Result:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Reference checks
# ---------------------------------------------------------------------------

def _pairs(entries) -> set:
    return {
        (e["global"], (e["a"]["site"], e["a"]["type"]), (e["b"]["site"], e["b"]["type"]))
        for e in entries
    }


def _flagged(stdout: str) -> set:
    return _pairs(json.loads(stdout)["flagged"])


def _exit_code(code: int, want: int) -> None:
    if code != want:
        raise Mismatch(f"exit code {code}, reference {want}")


def check_analyze(racy: set, exact: bool, race_free: bool = False):
    """Flagged pairs equal the racy set (``exact``) or cover it, nothing is
    flagged when some predicate subset proves race freedom, and the exit
    code says whether anything was flagged."""
    def check(stdout: str, code: int) -> None:
        got = _flagged(stdout)
        if exact and got != racy:
            raise Mismatch(f"flagged {len(got)} pairs, reference {len(racy)}")
        missed = racy - got
        if missed:
            raise Mismatch(f"misses {len(missed)} real races, e.g. {sorted(missed)[0]}")
        if race_free and got:
            raise Mismatch(f"flags {len(got)} pairs in a race-free program")
        _exit_code(code, 1 if got else 0)
    return check


def check_ablate(analyze: Op, race_free_subsets=()):
    """The all-predicates row equals the flag count of ``analyze`` (checked
    earlier in the same repetition), counts never rise as predicates are
    added, and every promised race-free subset flags nothing."""
    def check(stdout: str, code: int) -> None:
        _exit_code(code, 0)
        rows = {tuple(r["predicates"]): r["flagged"] for r in json.loads(stdout)["rows"]}
        if analyze.stdout is None:
            raise Mismatch("analyze failed, so the all-predicates row has no reference")
        flags = len(_flagged(analyze.stdout))
        if rows.get(CANONICAL) != flags:
            raise Mismatch(f"all-predicates row {rows.get(CANONICAL)} != analyze {flags}")
        for small, big in itertools.combinations(rows, 2):
            if set(small) <= set(big) and rows[big] > rows[small]:
                raise Mismatch(f"{list(big)} flags more than {list(small)}")
        for subset in race_free_subsets:
            if rows[tuple(s for s in CANONICAL if s in subset)] != 0:
                raise Mismatch(f"race-free subset {subset} flags pairs")
    return check


def check_oracle(racy: set):
    def check(stdout: str, code: int) -> None:
        payload = json.loads(stdout)
        if not payload["exhaustive"]:
            raise Mismatch("oracle enumeration truncated")
        got = _pairs(payload["racy"])
        if got != racy:
            raise Mismatch(f"oracle racy {sorted(got)} != reference {sorted(racy)}")
        _exit_code(code, 1 if racy else 0)
    return check


def check_conform(stdout: str, code: int) -> None:
    if not stdout.endswith("\nall suites pass\n"):
        raise Mismatch("conform verdict is not 'all suites pass'")
    _exit_code(code, 0)


def check_golden(key: str, check):
    """Also compare the stdout's sha256 with the one recorded for this
    input, when ``golden.json`` has it."""
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))

    def combined(stdout: str, code: int) -> None:
        check(stdout, code)
        want = golden.get(key)
        got = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        if want is not None and got != want:
            raise Mismatch(f"sha256 {got[:12]} != recorded {want[:12]}")
    return combined


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _load(text: str):
    from racedigest.dsl import parse_program
    from racedigest.model import instrument_atomicity
    return instrument_atomicity(parse_program(text))


def _write(path: Path, text: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return str(path.relative_to(ROOT))


def _conform_dir(work: Path, name: str, text: str, racy: set) -> str:
    """The mutant-catching corpus cases plus one generated case."""
    from gen import expected_json
    target = work / "conform"
    for case in MUTANT_CATCHING_CASES:
        shutil.copytree(CORPUS / case, target / case)
    _write(target / name / "program.rlp", text)
    _write(target / name / "expected.json", expected_json(name, racy, *ORACLE_BOUNDS))
    return str(target.relative_to(ROOT))


def _oracle_args(path: str) -> list[str]:
    depth, width = ORACLE_BOUNDS
    return ["oracle", path, "--depth", str(depth), "--width", str(width), "--format", "json"]


def _program_ops(path: str, racy: set, exact: bool, golden_key: str | None = None,
                 race_free_subsets=()) -> list[Op]:
    """analyze, analyze --predicate generic and ablate on one program."""
    def golden(op: str, check):
        return check_golden(f"{golden_key}/{op}", check) if golden_key else check

    analyze = Op("analyze_s", f"analyze {path}", ["analyze", path, "--format", "json"],
                 golden("analyze", check_analyze(racy, exact, bool(race_free_subsets))))
    return [
        analyze,
        Op("analyze_generic_s", f"analyze --predicate generic {path}",
           ["analyze", path, "--predicate", "generic", "--format", "json"],
           golden("analyze_generic", check_analyze(racy, False))),
        Op("ablate_s", f"ablate {path}", ["ablate", path, "--format", "json"],
           golden("ablate", check_ablate(analyze, race_free_subsets))),
    ]


def sanity_locked(program) -> None:
    """Every access site gets at least one solver record; a generator bug
    that leaves code unreachable would otherwise shrink the workload."""
    from racedigest.digest import ProductDigest
    from racedigest.digests import build_digests
    from racedigest.model import access_sites
    from racedigest.solver import build_system, solve

    product = ProductDigest(build_digests(CANONICAL))
    sol = solve(build_system(program, product))
    recorded = {r.site for recs in sol.races.values() for r in recs}
    missing = [s for s, _, _ in access_sites(program) if s not in recorded]
    if missing:
        raise SystemExit(f"workload sanity: {len(missing)} access sites never recorded, e.g. {missing[0]}")


def workload_analyze_locked(seed: int, work: Path) -> list[Op]:
    from gen import locked_program, locked_racy
    text = locked_program(*LOCKED_SIZE, seed)
    program = _load(text)
    sanity_locked(program)
    path = _write(work / "locked.rlp", text)
    racy = locked_racy(program)
    key = "locked/{}/{}/{}/seed{}".format(*LOCKED_SIZE, seed)
    ops = _program_ops(path, racy, True, key)

    small = locked_program(*LOCKED_ORACLE_SIZE, seed)
    small_racy = locked_racy(_load(small))
    small_path = _write(work / "locked_small.rlp", small)
    conform = _conform_dir(work, "locked_small", small, small_racy)
    return ops + [
        Op("oracle_s", f"oracle {small_path}", _oracle_args(small_path), check_oracle(small_racy)),
        Op("conform_s", f"conform {conform}", ["conform", conform], check_conform),
    ]


def workload_oracle_interleave(seed: int, work: Path) -> list[Op]:
    from gen import interleave_program, interleave_racy
    text = interleave_program(*INTERLEAVE_ORACLE_SIZE, seed)
    racy = interleave_racy(_load(text))
    path = _write(work / "interleave.rlp", text)
    small = interleave_program(*INTERLEAVE_CONFORM_SIZE, seed)
    conform = _conform_dir(work, "interleave", small, interleave_racy(_load(small)))
    return _program_ops(path, racy, False) + [
        Op("oracle_s", f"oracle {path}", _oracle_args(path), check_oracle(racy)),
        Op("conform_s", f"conform {conform}", ["conform", conform], check_conform),
    ]


def workload_corpus_conform(seed: int, work: Path) -> list[Op]:
    case = CORPUS / CORPUS_PROGRAM_CASE
    expected = json.loads((case / "expected.json").read_text(encoding="utf-8"))
    racy = _pairs(expected["racy"])
    path = str((case / "program.rlp").relative_to(ROOT))
    ops = _program_ops(path, racy, False, race_free_subsets=expected["race_free_subsets"])
    ops.append(Op("oracle_s", f"oracle {path}", _oracle_args(path), check_oracle(racy)))
    ops.append(Op("conform_s", "conform corpus", ["conform", "corpus"], check_conform))
    return ops


WORKLOADS = {
    "analyze-locked": workload_analyze_locked,
    "oracle-interleave": workload_oracle_interleave,
    "corpus-conform": workload_corpus_conform,
}


# ---------------------------------------------------------------------------
# Running interpreters
# ---------------------------------------------------------------------------

class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run_interpreter(argv: list[str], hash_seed: int, out: Path) -> tuple[float, int, float, str, str]:
    """Run one fresh interpreter to completion: (wall s, exit code, max RSS
    MB, stdout, stderr).  A timeout kills it and reports exit code -9."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))
    with open(out.with_suffix(".out"), "wb") as fo, open(out.with_suffix(".err"), "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env, stdout=fo,
                                stderr=fe, stdin=subprocess.DEVNULL)
        signal.alarm(OP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out.with_suffix(".out").read_text(encoding="utf-8", errors="replace")
    stderr = out.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, stdout, stderr


class Runner:
    def __init__(self, seed: int, work: Path):
        self.hash_seeds = random.Random(f"hashseed/{seed}")
        self.work = work
        self.result = Result()
        self.hash_log: list[tuple[str, int]] = []

    def interpreter(self, label: str, argv: list[str]):
        hash_seed = self.hash_seeds.randrange(1, 2**32 - 1)
        self.hash_log.append((label, hash_seed))
        return run_interpreter(argv, hash_seed, self.work / "last")

    def calibrate(self) -> float:
        wall, code, _, _, err = self.interpreter("calibrate", [str(HERE / "calibrate.py")])
        if code != 0:
            raise SystemExit(f"calibrate.py failed: {err.strip()[-300:]}")
        return wall

    def setup_probe(self) -> float:
        wall, code, _, _, err = self.interpreter("setup", ["-c", "import racedigest.cli"])
        if code != 0:
            raise SystemExit(f"cannot import racedigest.cli: {err.strip()[-300:]}")
        return wall

    def op(self, op: Op, argv: list[str]) -> tuple[float, float]:
        """Run one operation and check it; returns (wall s, max RSS MB)."""
        self.result.attempted += 1
        wall, code, rss, stdout, stderr = self.interpreter(op.label, argv)
        try:
            if code not in (0, 1):
                raise Mismatch(f"exit code {code}: {stderr.strip()[-200:]}")
            if op.stdout is None:
                op.check(stdout, code)
                op.stdout, op.code = stdout, code
            elif (stdout, code) != (op.stdout, op.code):
                raise Mismatch("stdout or exit code differs from the first repetition")
        except (Mismatch, ValueError, KeyError, TypeError) as exc:
            self.result.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
        return wall, rss


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest nearest-rank percentile with at least ten samples beyond
    it, as (percentile, value); None below eleven samples."""
    n = len(values)
    k = n - 10
    if k < 1:
        return None
    return (100 * k // n, sorted(values)[k - 1])


def summarize(samples: dict[str, list[float]]) -> dict:
    out = {}
    for name, values in samples.items():
        t = tail(values)
        out[name] = {
            "median": statistics.median(values),
            "n": len(values),
            "tail": None if t is None else {"percentile": t[0], "value": t[1]},
            "values": values,
        }
    return out


LAYER_TIMES = {
    "dsl.parse_s": "dsl.parse",
    "model.instrument_s": "model.instrument",
    "solver.build_s": "solver.build",
    "solver.solve_s": "solver.solve",
    "detector.ablate_s": "detector.ablate",
    "detector.report_s": "detector.report",
    "oracle.enumerate_s": "oracle.enumerate",
    "oracle.racy_pairs_s": "oracle.racy_pairs",
    "oracle.bidir_s": "oracle.bidir",
    "digest.admissibility_s": "digest.admissibility",
    "digest.stability_s": "digest.stability",
    "digest.commutativity_s": "digest.commutativity",
    "conformance.expectations_s": "conformance.expectations",
    "conformance.soundness_s": "conformance.soundness",
    "conformance.laws_s": "conformance.laws",
    "conformance.equivalence_s": "conformance.equivalence",
    "conformance.subsumption_s": "conformance.subsumption",
    "conformance.mutants_s": "conformance.mutants",
}

LAYER_SUMS = {
    "dsl.edges": ("dsl.parse", "edges"),
    "model.edges": ("model.instrument", "edges"),
    "solver.evaluations": ("solver.solve", "evaluations"),
    "solver.unknowns": ("solver.solve", "unknowns"),
    "solver.records": ("solver.solve", "records"),
    "detector.record_pairs": ("detector.detect", "record_pairs"),
    "detector.flagged": ("detector.detect", "flagged"),
    "oracle.traces": ("oracle.enumerate", "traces"),
    "oracle.pomsets": ("oracle.enumerate", "pomsets"),
    "oracle.truncated": ("oracle.enumerate", "truncated"),
    "oracle.racy_pairs": ("oracle.racy_pairs", "racy_pairs"),
}

LAW_SPANS = ("digest.admissibility", "digest.stability", "digest.commutativity")
SUITE_SPANS = tuple(v for v in LAYER_TIMES.values() if v.startswith("conformance."))


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one repetition from its spans.  Times are the
    inclusive durations of the named calls, summed."""
    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name, key):
        return sum(s["counters"][key] for s in named(name))

    m = {metric: sum(map(dur, named(name))) for metric, name in LAYER_TIMES.items()}
    m.update({metric: total(*src) for metric, src in LAYER_SUMS.items()})
    by_index = {(s["op"], s["index"]): s for s in spans}

    def under_ablate(s) -> bool:
        while s["parent"] is not None:
            s = by_index[(s["op"], s["parent"])]
            if s["name"] == "detector.ablate":
                return True
        return False

    detects = named("detector.detect")
    m["detector.detect_s"] = sum(
        dur(s) for s in detects if not s["counters"]["generic"] and not under_ablate(s))
    m["detector.detect_generic_s"] = sum(dur(s) for s in detects if s["counters"]["generic"])
    m["detector.flag_ratio"] = m["detector.flagged"] / max(m["detector.record_pairs"], 1)
    m["solver.max_digests_per_node"] = max(
        (s["counters"]["max_digests_per_node"] for s in named("solver.solve")), default=0)
    m["solver.evals_per_unknown"] = m["solver.evaluations"] / max(m["solver.unknowns"], 1)
    racy_calls = named("oracle.racy_pairs")
    m["oracle.racy_pairs_calls"] = len(racy_calls)
    programs = {(s["op"], s["counters"]["program"]) for s in racy_calls}
    m["oracle.racy_pairs_calls_per_program"] = len(racy_calls) / max(len(programs), 1)
    m["oracle.bidir_calls"] = len(named("oracle.bidir"))
    m["digest.law_checks"] = sum(total(n, "checks") for n in LAW_SPANS)
    m["conformance.checks"] = sum(total(n, "checks") for n in SUITE_SPANS)
    children: dict[tuple, float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["op"], s["parent"])
            children[key] = children.get(key, 0.0) + dur(s)
    m["cli.self_s"] = sum(
        dur(s) - children.get((s["op"], s["index"]), 0.0) for s in named("cli.main"))
    return m


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted((SRC / "racedigest").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(seed, work)

    runner.setup_probe()  # fills the bytecode cache; untimed
    ops = WORKLOADS[workload](seed, work)

    raw: dict[str, list[float]] = {m: [] for m in (*OP_METRICS, "setup_s", "calibration_s")}
    samples: dict[str, list[float]] = {m: [] for m in (*OP_METRICS, "setup_s", "peak_rss_mb")}
    layers: list[dict[str, float]] = []
    slowdown: list[float] = []
    all_spans: list[dict] = []
    start = time.perf_counter()
    reps = 0
    while True:
        elapsed = time.perf_counter() - start
        if reps >= MIN_REPS and elapsed + elapsed / reps > seconds:
            break
        rep_sums = {m: 0.0 for m in OP_METRICS}
        rep_raw = {m: 0.0 for m in OP_METRICS}
        rep_rss = 0.0
        rep_spans: list[dict] = []
        traced_wall = 0.0
        calibration = [runner.calibrate()]

        def scaled(wall: float) -> float:
            """Wall time at nominal speed: the measurement lies between the
            last two calibration runs."""
            calibration.append(runner.calibrate())
            return wall * CALIBRATION_NOMINAL_S * 2 / (calibration[-2] + calibration[-1])

        for i, op in enumerate(ops):
            wall, peak = runner.op(op, ["-m", "racedigest.cli", *op.args])
            rep_raw[op.metric] += wall
            rep_rss = max(rep_rss, peak)
            if trace:
                op_id = f"rep{reps}/op{i}"
                spans_file = work / "last-spans.json"
                argv = [str(HERE / "trace_op.py"), str(spans_file), op_id, "--", *op.args]
                traced, _ = runner.op(op, argv)
                traced_wall += traced
                spans = json.loads(spans_file.read_text(encoding="utf-8"))
                for index, span in enumerate(spans):
                    span["index"] = index
                rep_spans += spans
            rep_sums[op.metric] += scaled(wall)
        for _ in range(SETUP_PROBES_PER_REP):
            wall = runner.setup_probe()
            raw["setup_s"].append(wall)
            samples["setup_s"].append(scaled(wall))

        for m in OP_METRICS:
            raw[m].append(rep_raw[m])
            samples[m].append(rep_sums[m])
        raw["calibration_s"] += calibration
        samples["peak_rss_mb"].append(rep_rss)
        if trace:
            layers.append(layer_metrics(rep_spans))
            slowdown.append(traced_wall / sum(rep_raw.values()))
            all_spans += rep_spans
        reps += 1

    if trace:
        samples.update({k: [rep[k] for rep in layers] for k in layers[0]})
        samples["trace.slowdown"] = slowdown
        (work / "spans.json").write_text(json.dumps(all_spans), encoding="utf-8")
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "reps": reps,
        "attempted": runner.result.attempted,
        "failed": len(runner.result.failures),
        "failures": runner.result.failures,
        "metrics": summarize(samples),
        "raw_wall": summarize(raw),
        "hash_seeds": runner.hash_log,
        "environment": environment(),
    }


def unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_unknown", "_per_program", ".slowdown")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "racedigest" / "cli.py").is_file() or not CORPUS.is_dir():
        print(f"error: run from a racedigest checkout ({ROOT} lacks src/racedigest or corpus)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = report["metrics"]
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{report['reps']} repetitions")
    for name in sorted(metrics):
        m = metrics[name]
        t = m["tail"]
        tail_text = f"p{t['percentile']}={t['value']:.6g}" if t else "tail n/a (<11 samples)"
        print(f"  {name:40s} {unit(name):6s} median={m['median']:.6g}  {tail_text}  n={m['n']}")
    for name, m in sorted(report["raw_wall"].items()):
        print(f"  {'raw wall ' + name:40s} {'s':6s} median={m['median']:.6g}  n={m['n']}")
    ratio = report["failed"] / report["attempted"]
    print(f"  {'fail_ratio':40s} {'ratio':6s} {ratio:.6g} ({report['failed']}/{report['attempted']})")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=2, sort_keys=True), encoding="utf-8")

    correct = report["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": metrics[n]["median"], "unit": unit(n)} for n in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
