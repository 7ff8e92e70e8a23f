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
