"""The output ledger: one sha256 of (exit code, stdout, stderr) per CLI
command, for a fixed list of commands run in-process through ``cli.main``.

``tests/ledger.json`` holds the recorded hashes.  ``tests/test_ledger.py``
checks them, and ``python tests/record_ledger.py`` re-records them and
prints the keys whose hash changed.

A command's key is its argv joined by spaces.  Every command runs in a
work directory that holds a copy of the corpus, the generated programs and
the error inputs, so each path argument is relative and no absolute or
temporary path can reach an output; ``record`` refuses an output that
names the work directory or the repository.  argparse's own usage and ``--help`` text is
left out (its bytes vary across Python versions), and so are solver
divergence and internal failures, which need a patched analyzer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from pathlib import Path

from racedigest.cli import main

from perfbench.gen import locked_program
from tests.conftest import (CODE_AFTER_EXIT, CORPUS_DIR, EXIT_NODE_CLASH, GENERATED, NODE_CLASH,
                            ONCE_HANDOFF)

LEDGER = Path(__file__).with_name("ledger.json")

# one input per exit-2 class of cli.py's docstring, besides the ones the
# commands below reach through the corpus (a directory as input)
ERROR_PROGRAMS = {
    "init-outside-main": "mutex a\n\nmain:\n  create t as e\n\nt:\n  init a\n",
    "code-after-exit": CODE_AFTER_EXIT,
    "create-id": "global g\n\nmain:\n  create t as a,b\n\nt:\n  g = 1\n",
    "unplaced-label": "global g\n\nmain:\n  g = 1\n  goto L\n",
    "label-twice": "global g\n\nmain:\n  label L\n  g = 1\n  label L\n",
    "duplicate-prototype": "global g\n\nmain:\n  create t as e\n\nt:\n  g = 1\n\nt:\n  g = 2\n",
    "syntax": "global g\n\nmain:\n  g = = 1\n",
    "node-clash": NODE_CLASH,
    "exit-node-clash": EXIT_NODE_CLASH,
}

# corpus directories with one faulty case each, next to a good one
BAD_CORPORA = {
    "invalid-json": ("expected.json", "{"),
    "lacks-bounds": ("expected.json", '{"name": "c1", "racy": [], "race_free_subsets": []}'),
    "racy-number": ("expected.json",
                    '{"bounds": {"depth": 40, "width": 4}, "racy": 5, "race_free_subsets": []}'),
    "bad-program": ("program.rlp", "global g\nmutex a\nmain:\n  g = = 1\n"),
}


def _generated() -> dict[str, str]:
    """gen/<name>.rlp -> program text."""
    programs = {name.replace("/", "-"): text for name, text in GENERATED.items()}
    programs["once-handoff"] = ONCE_HANDOFF
    programs["locked-6-6-12-s0"] = locked_program(6, 6, 12, 0)
    return {f"gen/{name}.rlp": text for name, text in programs.items()}


def commands() -> list[list[str]]:
    """Every ledger command's argv, in ledger order."""
    out = []
    for case in sorted(p.name for p in CORPUS_DIR.iterdir() if p.is_dir()):
        prog = f"corpus/{case}/program.rlp"
        bounds = json.loads((CORPUS_DIR / case / "expected.json").read_text(encoding="utf-8"))
        bounds = bounds["bounds"]
        out += [
            ["analyze", prog, "--format", "json"],
            ["analyze", prog],
            ["analyze", prog, "--predicate", "generic", "--format", "json"],
            ["ablate", prog, "--format", "json"],
            ["ablate", prog],
            ["oracle", prog, "--depth", str(bounds["depth"]), "--width", str(bounds["width"]),
             "--format", "json"],
            ["oracle", prog, "--depth", "12", "--width", "3"],
        ]
    for prog in _generated():
        out += [
            ["analyze", prog, "--format", "json"],
            ["analyze", prog],
            ["ablate", prog, "--format", "json"],
        ]
        if "locked-6" in prog:  # too large to enumerate
            out.append(["analyze", prog, "--predicate", "generic", "--format", "json"])
        else:
            out.append(["oracle", prog, "--depth", "60", "--width", "5", "--format", "json"])
    out.append(["conform", "corpus"])
    prog0 = "corpus/prog0_unsync_writes/program.rlp"
    out += [
        ["analyze", "missing.rlp"],
        ["analyze", "corpus"],
        ["analyze", prog0, "--digests", "lockset,bogus"],
        ["oracle", prog0, "--depth", "0"],
        *(["analyze", f"errors/{name}.rlp"] for name in ERROR_PROGRAMS),
        *(["conform", f"bad/{name}"] for name in BAD_CORPORA),
    ]
    return out


def key(argv: list[str]) -> str:
    return " ".join(argv)


def prepare(workdir: Path) -> None:
    """Write every input the commands read under ``workdir``."""
    shutil.copytree(CORPUS_DIR, workdir / "corpus")
    files = {**_generated(), **{f"errors/{n}.rlp": t for n, t in ERROR_PROGRAMS.items()}}
    for name, (filename, text) in BAD_CORPORA.items():
        shutil.copytree(CORPUS_DIR / "prog0_unsync_writes", workdir / "bad" / name / "a")
        shutil.copytree(CORPUS_DIR / "prog0_unsync_writes", workdir / "bad" / name / "c1")
        files[f"bad/{name}/c1/{filename}"] = text
    for name, text in files.items():
        path = workdir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def run(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([code, out, err]).encode("utf-8")).hexdigest()


def record(workdir: Path, argvs: list[list[str]] | None = None) -> dict[str, str]:
    """key -> hash of each of ``argvs`` (default: every command), run in
    ``workdir`` after ``prepare`` filled it."""
    prepare(workdir)
    here = os.getcwd()
    os.chdir(workdir)
    try:
        hashes = {}
        for argv in commands() if argvs is None else argvs:
            code, out, err = run(argv)
            if any(str(path) in out + err for path in (workdir, CORPUS_DIR.parent)):
                raise AssertionError(f"{key(argv)}: an output names an absolute path")
            hashes[key(argv)] = digest(code, out, err)
        return hashes
    finally:
        os.chdir(here)


def load() -> dict[str, str]:
    return json.loads(LEDGER.read_text(encoding="utf-8"))


def changed(recorded: dict[str, str], current: dict[str, str]) -> list[str]:
    """The keys whose hash differs, or that only one side has, sorted."""
    return sorted(k for k in recorded.keys() | current.keys() if recorded.get(k) != current.get(k))


def check(workdir: Path, argvs: list[list[str]] | None = None) -> None:
    """Raise an AssertionError naming every key of ``argvs`` (default:
    every command) whose output no longer hashes to the recorded one."""
    recorded, current = load(), record(workdir, argvs)
    if argvs is not None:
        recorded = {k: recorded.get(k) for k in current}
    bad = changed(recorded, current)
    if bad:
        raise AssertionError("outputs differ from tests/ledger.json "
                             "(re-record with python tests/record_ledger.py): " + ", ".join(bad))
