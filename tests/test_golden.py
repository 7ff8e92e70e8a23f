"""Golden CLI reports: `irlap` stdout is byte-identical to the reports
committed under tests/golden/ (written by tests/make_golden.py)."""

import pytest

from make_golden import CASES, GOLDEN_DIR, run_irlap


@pytest.mark.parametrize("stem,args", CASES, ids=[stem for stem, _ in CASES])
def test_cli_report_matches_golden(stem, args):
    expected = (GOLDEN_DIR / f"{stem}.json").read_text()
    assert run_irlap(args) == expected


def test_golden_files_are_exactly_the_cases():
    """A renamed or dropped case must not leave a stale report behind."""
    assert {p.stem for p in GOLDEN_DIR.glob("*.json")} == {stem for stem, _ in CASES}


def test_diff_fails_on_any_byte_change(monkeypatch, tmp_path, capsys):
    import sys

    import make_golden

    (tmp_path / "case.json").write_text('{"a": 1}\n')
    monkeypatch.setattr(make_golden, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(make_golden, "CASES", [("case", [])])
    monkeypatch.setattr(sys, "argv", ["make_golden.py", "--diff"])
    monkeypatch.setattr(make_golden, "run_irlap", lambda args: '{"a": 1}\n')
    assert make_golden.main() == 0
    monkeypatch.setattr(make_golden, "run_irlap", lambda args: '{"a":  1}\n')
    assert make_golden.main() == 1  # no key moved, but the bytes did
    assert "case: report differs" in capsys.readouterr().out
    assert (tmp_path / "case.json").read_text() == '{"a": 1}\n'
