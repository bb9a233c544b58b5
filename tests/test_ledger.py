"""Every ledger command still prints what ``tests/ledger.json`` recorded
(see tests/ledger.py), and the check names the key of a changed output."""

from __future__ import annotations

import pytest

import racedigest.detector

from tests import ledger


def test_every_command_prints_its_recorded_output(tmp_path):
    ledger.check(tmp_path)


def test_no_two_commands_share_a_key():
    keys = [ledger.key(argv) for argv in ledger.commands()]
    assert len(set(keys)) == len(keys)


def test_a_one_byte_change_fails_the_check_and_names_its_key(tmp_path, monkeypatch):
    text = ["analyze", "corpus/prog0_unsync_writes/program.rlp"]
    argvs = [text, [*text, "--format", "json"]]
    ledger.check(tmp_path / "before", argvs)
    lines = racedigest.detector.RaceReport._text_lines

    def planted(self, program):
        first, *rest = lines(self, program)
        return ["D" + first[1:], *rest]  # "digests: ..." -> "Digests: ..."

    monkeypatch.setattr(racedigest.detector.RaceReport, "_text_lines", planted)
    with pytest.raises(AssertionError) as exc:
        ledger.check(tmp_path / "after", argvs)
    assert str(exc.value).endswith(": " + ledger.key(text))
