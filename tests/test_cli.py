from __future__ import annotations

import functools
import gc
import json
import os
import shutil
import subprocess
import sys

import pytest

import racedigest.cli
import racedigest.conformance
import racedigest.oracle
import racedigest.solver
from racedigest.cli import main
from racedigest.oracle import enumerate_traces
from racedigest.solver import solve

from tests.conftest import CODE_AFTER_EXIT, CORPUS_DIR, ONCE_HANDOFF, corpus_program

SRC_DIR = CORPUS_DIR.parent / "src"


def rlp(name: str) -> str:
    return str(CORPUS_DIR / name / "program.rlp")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_race_free_exit_zero(capsys):
    code, out, _ = run(
        capsys, "analyze", rlp("prog1_running_example"), "--digests", "lockset,threadflag"
    )
    assert code == 0
    assert "no potential races" in out


def test_analyze_racy_exit_one(capsys):
    code, out, _ = run(capsys, "analyze", rlp("prog0_unsync_writes"), "--digests", "lockset")
    assert code == 1
    assert "race on g" in out


def test_analyze_json_deterministic(capsys):
    args = ("analyze", rlp("prog0_unsync_writes"), "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 1
    assert out1 == out2


def test_analyze_generic_predicate(capsys):
    code, out, _ = run(
        capsys, "analyze", rlp("prog1_running_example"),
        "--digests", "lockset", "--predicate", "generic",
    )
    assert code == 1  # generic locksets cannot exclude the protected pair


def test_analyze_config_error_exit_two(capsys):
    code, _, err = run(capsys, "analyze", rlp("prog1_running_example"), "--digests", "join")
    assert code == 2
    assert "join digest requires" in err


def test_analyze_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "analyze", "no-such-file.rlp")
    assert code == 2


def test_oracle_reports_ground_truth(capsys):
    code, out, _ = run(capsys, "oracle", rlp("prog0_unsync_writes"))
    assert code == 1
    assert "race on g: W@main.s0 with W@t1.s0" in out
    code, out, _ = run(capsys, "oracle", rlp("prog1_running_example"))
    assert code == 0
    assert "no races" in out


def test_oracle_json_bounds(capsys):
    code, out, _ = run(
        capsys, "oracle", rlp("prog1_running_example"), "--depth", "30", "--width", "2",
        "--format", "json",
    )
    assert code == 0
    assert '"exhaustive": true' in out


@pytest.mark.parametrize(
    "case,bounds,code,text",
    [
        # cut off before any race: inconclusive, not race-free
        ("prog0_unsync_writes", ("3", "1"), 3,
         "warning: enumeration truncated by bounds (width 1)\n"
         "inconclusive: enumeration truncated by bounds\n"),
        # cut off, but every race found comes from a real execution prefix
        ("deep_paths_all_race", ("12", "3"), 1,
         "warning: enumeration truncated by bounds (depth 12)\n"
         "race on g: W@main.s0 with W@p1.s0\n"
         "race on g: W@main.s0 with W@p2.s0\n"
         "race on g: W@p1.s0 with W@p2.s0\n"),
        ("prog1_running_example", ("40", "4"), 0, "no races within bounds\n"),
    ],
    ids=["inconclusive", "truncated-racy", "exhaustive"],
)
def test_oracle_exit_codes_under_truncation(capsys, case, bounds, code, text):
    argv = ("oracle", rlp(case), "--depth", bounds[0], "--width", bounds[1])
    assert run(capsys, *argv) == (code, text, "")
    got, out, _ = run(capsys, *argv, "--format", "json")
    assert got == code
    assert json.loads(out)["exhaustive"] is (code == 0)


@pytest.mark.parametrize("bounds", [("0", "4"), ("40", "0")], ids=["depth", "width"])
def test_one_bad_oracle_bound_exit_two(capsys, bounds):
    argv = ("oracle", rlp("prog0_unsync_writes"), "--depth", bounds[0], "--width", bounds[1])
    assert run(capsys, *argv) == (2, "", "error: bounds must be at least 1\n")


@pytest.mark.parametrize("case", ["deep_paths_all_race", "join_chain", "nested_create"])
def test_analyze_at_tid_cap_one_flags_every_oracle_race(capsys, case):
    # a grandchild's id is the overflow element at cap 1, which may run
    # beside any thread: every race stays flagged (join_chain has none)
    def pairs(records):
        return {(r["global"], *sorted((r["a"]["site"], r["b"]["site"]))) for r in records}

    code, out, _ = run(capsys, "oracle", rlp(case), "--format", "json")
    racy = pairs(json.loads(out)["racy"])
    assert code == (1 if racy else 0)
    code, out, _ = run(capsys, "analyze", rlp(case), "--format", "json", "--tid-cap", "1")
    report = json.loads(out)
    assert code == 1 and racy <= pairs(report["flagged"])
    assert any("tid:overflow" in w for f in report["flagged"] for w in f["witness_digests"])


def test_ablate_monotone_rows(capsys):
    code, out, _ = run(capsys, "ablate", rlp("prog1_running_example"))
    assert code == 0
    lines = [l for l in out.splitlines() if "flagged=" in l]
    assert len(lines) == 32
    assert lines[0].startswith("(none)") and lines[0].endswith("flagged=6")
    assert lines[-1].endswith("flagged=0")


def test_conform_passes_on_shipped_corpus(capsys):
    code, out, _ = run(capsys, "conform", str(CORPUS_DIR))
    assert code == 0
    assert "all suites pass" in out


def test_analyze_directory_exit_two(capsys):
    code, _, err = run(capsys, "analyze", str(CORPUS_DIR))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", rlp("prog0_unsync_writes")),
        ("ablate", rlp("prog0_unsync_writes")),
    ],
)
def test_negative_tid_cap_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tid-cap", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tid-cap: must be >= 0" in captured.err


def test_conform_takes_no_tid_cap(capsys):
    # the suites run at the default cap, the one expected.json was frozen at
    with pytest.raises(SystemExit) as exc:
        main(["conform", str(CORPUS_DIR), "--tid-cap", "8"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: racedigest ")
    assert "unrecognized arguments: --tid-cap 8" in captured.err


def test_conform_truncated_case_is_a_suite_failure(capsys, tmp_path):
    case = tmp_path / "prog1_truncated"
    shutil.copytree(CORPUS_DIR / "prog1_running_example", case)
    expected = json.loads((case / "expected.json").read_text(encoding="utf-8"))
    expected["bounds"] = {"depth": 3, "width": 1}
    (case / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    code, out, err = run(capsys, "conform", str(tmp_path))
    assert code == 1
    assert "SUITE FAILURES" in out
    assert "prog1_truncated: enumeration truncated (bounds too small)" in out
    assert "Traceback" not in err


@pytest.mark.parametrize("missing", ["bounds", "bounds.depth", "bounds.width", "racy",
                                     "race_free_subsets"])
def test_conform_incomplete_expected_json_exit_two(capsys, tmp_path, missing):
    case = tmp_path / "c1"
    shutil.copytree(CORPUS_DIR / "prog0_unsync_writes", case)
    expected = json.loads((case / "expected.json").read_text(encoding="utf-8"))
    *parents, key = missing.split(".")
    node = expected
    for parent in parents:
        node = node[parent]
    del node[key]
    (case / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    code, out, err = run(capsys, "conform", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: c1: expected.json lacks {missing}\n"


@pytest.mark.parametrize(
    "case,edit,error",
    [
        ("prog0_unsync_writes", lambda e: e["bounds"].update(depth="12"),
         "bounds.depth is not a positive integer: '12'"),
        ("prog0_unsync_writes", lambda e: e["racy"][0].pop("a"), "racy[0] needs a global"),
        ("prog0_unsync_writes", lambda e: e.update(racy=5), "racy is not a list: 5"),
        ("prog1_running_example",
         lambda e: e["race_free_subsets"].append(["lockset", "tid", "join", "once", "threadflg"]),
         "race_free_subsets names unknown digests ['threadflg']"),
    ],
    ids=["depth-string", "race-without-a", "racy-number", "unknown-digest"],
)
def test_conform_malformed_expected_json_exit_two(capsys, tmp_path, case, edit, error):
    shutil.copytree(CORPUS_DIR / case, tmp_path / "c1")
    path = tmp_path / "c1" / "expected.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    edit(expected)
    path.write_text(json.dumps(expected), encoding="utf-8")
    code, out, err = run(capsys, "conform", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: c1: expected.json {error}") and err.count("\n") == 1


@pytest.mark.parametrize("line, error", [
    ("g = = 1", "line 4:1: cannot parse action 'g = = 1'"),
    ("create t as e\n\nt:\n  init a", "init a in 't': only main may init"),
], ids=["syntax", "init-outside-main"])
def test_conform_bad_program_names_its_case(capsys, tmp_path, line, error):
    shutil.copytree(CORPUS_DIR / "prog0_unsync_writes", tmp_path / "a")
    shutil.copytree(CORPUS_DIR / "prog0_unsync_writes", tmp_path / "bad")
    (tmp_path / "bad" / "program.rlp").write_text(f"global g\nmutex a\nmain:\n  {line}\n",
                                                  encoding="utf-8")
    code, out, err = run(capsys, "conform", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: bad: program.rlp: {error}\n"


def test_conform_invalid_json_exit_two(capsys, tmp_path):
    shutil.copytree(CORPUS_DIR / "prog0_unsync_writes", tmp_path / "c1")
    (tmp_path / "c1" / "expected.json").write_text("{", encoding="utf-8")
    code, out, err = run(capsys, "conform", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: c1: expected.json is not valid JSON: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("init", ["init a", "initO o"])
def test_init_outside_main_exit_two(capsys, tmp_path, init):
    path = tmp_path / "p.rlp"
    path.write_text(f"mutex a\nonce o\n\nmain:\n  create t as e\n\nt:\n  {init}\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {init} in 't': only main may init\n"


@pytest.mark.parametrize("command", ["analyze", "ablate", "oracle"])
def test_code_after_thread_exit_exit_two(capsys, tmp_path, command):
    path = tmp_path / "p.rlp"
    path.write_text(CODE_AFTER_EXIT, encoding="utf-8")
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == "error: code after thread_exit in 'main' (line 4)\n"


@pytest.mark.parametrize("case, bounds, code", [
    ("prog0_unsync_writes", (), 1),
    ("prog0_unsync_writes", ("--depth", "3", "--width", "1"), 3),
    ("deep_paths_all_race", ("--depth", "12", "--width", "3"), 1),
], ids=["exhaustive", "truncated", "truncated-racy"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_oracle_never_derives_local_traces(capsys, monkeypatch, case, bounds, code, fmt):
    """The command builds no event or dep set of a trace or pomset: the
    search decides the races on masks (``_members`` builds every such set)."""
    def build(mask, items):
        raise AssertionError("an event set was built")

    monkeypatch.setattr(racedigest.oracle, "_members", build)
    with pytest.raises(AssertionError, match="built"):
        enumerate_traces(corpus_program(case), depth=3, width=1).traces[-1].events
    assert run(capsys, "oracle", rlp(case), *bounds, "--format", fmt)[::2] == (code, "")


def _oracle_and_analyze(capsys, tmp_path) -> tuple[set, set]:
    path = tmp_path / "handoff.rlp"
    path.write_text(ONCE_HANDOFF, encoding="utf-8")

    def pairs(command: str, key: str) -> set:
        out = run(capsys, command, str(path), "--format", "json")[1]
        return {(r["global"], r["a"]["site"], r["b"]["site"]) for r in json.loads(out)[key]}

    return pairs("oracle", "racy"), pairs("analyze", "flagged")


def test_once_handoff_program_races_in_oracle(capsys, tmp_path):
    racy, _ = _oracle_and_analyze(capsys, tmp_path)
    assert racy == {("g", "main.s0", "t2.s0")}


@pytest.mark.xfail(strict=True, reason="the once digest carries no completion over a "
                                       "mutex hand-off, so its `pos ran o` step fails")
def test_analyze_flags_the_once_handoff_race(capsys, tmp_path):
    racy, flagged = _oracle_and_analyze(capsys, tmp_path)
    assert racy <= flagged


@pytest.mark.parametrize("argv", [
    ("analyze", rlp("prog1_running_example")),
    ("ablate", rlp("prog1_running_example")),
    ("conform", str(CORPUS_DIR)),
], ids=["analyze", "ablate", "conform"])
def test_solver_divergence_exit_two(capsys, monkeypatch, argv):
    capped = functools.partial(solve, max_evaluations=3)
    monkeypatch.setattr(racedigest.solver, "solve", capped)
    monkeypatch.setattr(racedigest.conformance, "solve", capped)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: exceeded 3 constraint evaluations")
    assert err.count("\n") == 1 and "Traceback" not in err



@pytest.mark.parametrize("src,line", [
    ("global g\n\nmain:\n  g = 1\n  goto L\n", "line 5:1: goto to label 'L', never placed in 'main'"),
    ("global g\n\nmain:\n  label L\n  g = 1\n  label L\n",
     "line 6:1: label 'L' placed twice in 'main' (first at line 4)"),
], ids=["unplaced", "placed-twice"])
@pytest.mark.parametrize("command", ["analyze", "ablate", "oracle"])
def test_bad_label_exit_two(capsys, tmp_path, command, src, line):
    path = tmp_path / "p.rlp"
    path.write_text(src, encoding="utf-8")
    code, out, err = run(capsys, command, str(path))
    assert (code, out, err) == (2, "", f"error: {line}\n")


def test_duplicate_prototype_names_its_header_line(capsys, tmp_path):
    path = tmp_path / "p.rlp"
    path.write_text("global g\n\nmain:\n  create t as e\n\nt:\n  g = 1\n\nt:\n  g = 2\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out, err) == (2, "", "error: line 9:1: duplicate prototype 't'\n")


@pytest.mark.parametrize("argv", [
    ("analyze", rlp("prog1_running_example")),
    ("ablate", rlp("prog1_running_example")),
    ("conform", str(CORPUS_DIR)),
], ids=["analyze", "ablate", "conform"])
def test_internal_failure_exit_two(capsys, monkeypatch, argv):
    def broken(*args, **kwargs):
        raise RuntimeError("solver state lost")

    monkeypatch.setattr(racedigest.solver, "solve", broken)
    monkeypatch.setattr(racedigest.conformance, "solve", broken)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: internal: RuntimeError: solver state lost\n")


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_commands_run_with_the_collector_paused(capsys, monkeypatch, collecting):
    original, paused = racedigest.oracle.enumerate_traces, []

    def recorded(*args, **kwargs):
        paused.append(gc.isenabled())
        if len(paused) == 2:
            raise RuntimeError("search failed")
        return original(*args, **kwargs)

    monkeypatch.setattr(racedigest.oracle, "enumerate_traces", recorded)
    prog = rlp("prog0_unsync_writes")
    (gc.enable if collecting else gc.disable)()
    try:
        assert run(capsys, "oracle", prog)[0] == 1
        assert gc.isenabled() is collecting
        # the caller's state is back also after a failure reported as exit 2
        assert run(capsys, "oracle", prog) == (
            2, "", "error: internal: RuntimeError: search failed\n")
        assert gc.isenabled() is collecting
    finally:
        gc.enable()
    assert paused == [False, False]


def test_reports_do_not_depend_on_hash_seed():
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    prog = rlp("prog1_running_example")
    commands = [[cmd, prog, "--format", "json"] for cmd in ("analyze", "ablate", "oracle")]
    commands.append(["conform", str(CORPUS_DIR)])
    outputs = []
    for seed in ("1", "2"):
        env["PYTHONHASHSEED"] = seed
        outputs.append(
            [
                subprocess.run(
                    [sys.executable, "-m", "racedigest.cli", *argv],
                    env=env, capture_output=True, check=False, timeout=120,
                ).stdout
                for argv in commands
            ]
        )
    assert outputs[0] == outputs[1]
    *reports, conform = outputs[0]
    assert all(out.startswith(b"{") for out in reports)
    assert conform.endswith(b"all suites pass\n")


_ANALYZER_MODULES = """
import contextlib, io, sys
import racedigest.cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = racedigest.cli.main(["analyze", sys.argv[1], "--format", "json"])
loaded = sorted(m for m in ("racedigest.oracle", "racedigest.conformance") if m in sys.modules)
print(code, out.getvalue().startswith("{"), loaded)
"""


def test_analyze_loads_neither_oracle_nor_conformance():
    # the analyzer modules do not import the oracle; only oracle and conform load it
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    done = subprocess.run(
        [sys.executable, "-c", _ANALYZER_MODULES, rlp("prog1_running_example")],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert done.stdout == "0 True []\n"


_ORACLE_MODULES = """
import contextlib, io, sys
import racedigest.cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = racedigest.cli.main(["oracle", sys.argv[1], "--format", "json"])
print(code, out.getvalue().startswith("{"))
print(sorted(m for m in sys.modules if m.startswith("racedigest.")))
"""


def test_oracle_loads_no_analyzer_module():
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    done = subprocess.run(
        [sys.executable, "-c", _ORACLE_MODULES, rlp("prog0_unsync_writes")],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert done.stdout == (
        "1 True\n['racedigest.cli', 'racedigest.dsl', 'racedigest.model', 'racedigest.oracle']\n"
    )


_STDLIB_MODULES = """
import contextlib, io, sys
import racedigest.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = racedigest.cli.main(sys.argv[1:])
print(code, [m for m in ("dataclasses", "inspect") if m in sys.modules])
"""


@pytest.mark.parametrize("command,code", [
    ("analyze", 1), ("ablate", 0), ("oracle", 1), ("conform", 0),
])
def test_no_command_imports_dataclasses(tmp_path, command, code):
    # every command runs in a fresh interpreter, where importing dataclasses
    # (which loads inspect, ast, dis and tokenize) and building each class
    # with it is start-up cost paid on every call
    if command == "conform":
        # the cases that together catch every mutant, so all suites pass
        for case in ("once_after_completion", "prog1_running_example", "two_children_race"):
            shutil.copytree(CORPUS_DIR / case, tmp_path / case)
        argv = [command, str(tmp_path)]
    else:
        argv = [command, rlp("prog0_unsync_writes"), "--format", "json"]
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    done = subprocess.run(
        [sys.executable, "-c", _STDLIB_MODULES, *argv],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert done.stdout == f"{code} []\n"
