"""Golden CLI reports: `irlap` stdout is byte-identical to the reports
committed under tests/golden/ (written by tests/make_golden.py)."""

import pytest

from make_golden import CASES, GOLDEN_DIR, run_irlap


@pytest.mark.parametrize("stem,args", CASES, ids=[stem for stem, _ in CASES])
def test_cli_report_matches_golden(stem, args):
    expected = (GOLDEN_DIR / f"{stem}.json").read_text()
    assert run_irlap(args) == expected
