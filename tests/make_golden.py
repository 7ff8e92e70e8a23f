"""Write the golden CLI reports that tests/test_golden.py compares
against, one file per case under tests/golden/.

The reports pin the exact bytes `irlap` prints, so a refactor that
changes any reported value, float rounding included, shows up as a
diff.  Regenerate only when a change deliberately fixes a reported
value, and say so in the change description.

Usage, from any directory (each report runs `irlap` from this
checkout's src/, which the script puts on its subprocess's PYTHONPATH):
    python3 tests/make_golden.py          # rewrite every report
    python3 tests/make_golden.py --diff   # show what would move; exit 1 if any

`--diff` writes nothing.  It names every report that would differ,
prints every JSON key whose value would change, with its old and new
value, then the largest absolute change of a numeric value, so a
deliberate regeneration can state its move.  It exits 1 when any
report would change by even a byte, and 0 when every report is
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
# inputs the cases read; not under GOLDEN_DIR, whose files are exactly the cases
DATA_DIR = Path(__file__).resolve().parent / "data"

M3N2 = ["analyze", "--m", "3", "--n", "2"]
RULES = ["random:seed=5", "plurality", "borda", "dictator:sigma=231"]

# (file stem, irlap arguments)
CASES = (
    [(f"analyze_m3n2_{rule.split(':')[0]}", M3N2 + ["--rule", rule]) for rule in RULES]
    + [(f"analyze_m3n2_{rule.split(':')[0]}_winner",
        M3N2 + ["--rule", rule, "--partition", "1|2,3"]) for rule in RULES]
    + [
        ("analyze_m3n2_plurality_full", M3N2 + ["--rule", "plurality", "--partition", "1|2|3"]),
        ("analyze_m3n2_random_center", M3N2 + ["--rule", "random:seed=5", "--center"]),
        # S = 0, epsilon = 1: the kernel projection's B term carries all of g
        ("analyze_m3n2_constant", M3N2 + ["--rule", "constant:output=231"]),
        ("analyze_m3n2_random_winner_orders",
         M3N2 + ["--rule", "random:seed=4", "--partition", "1|2,3",
                 "--orders", str(DATA_DIR / "orders_m3_winner.json")]),
        ("analyze_m4n2_plurality", ["analyze", "--m", "4", "--n", "2", "--rule", "plurality"]),
        ("analyze_m4n2_borda", ["analyze", "--m", "4", "--n", "2", "--rule", "borda"]),
        # centering makes the constant a dictator on the dummy voter: epsilon = 0
        ("analyze_m4n2_constant_center", ["analyze", "--m", "4", "--n", "2", "--rule",
                                          "constant:output=1234", "--center"]),
        ("analyze_m4n3_plurality", ["analyze", "--m", "4", "--n", "3", "--rule", "plurality"]),
        # (4, 4): the largest analyze size inside the IR budget
        ("analyze_m4n4_random_winner", ["analyze", "--m", "4", "--n", "4", "--rule",
                                        "random:seed=2", "--partition", "1|2,3,4"]),
        ("spectra_m4n2", ["spectra", "--m", "4", "--n", "2"]),
        ("spectra_m5n2", ["spectra", "--m", "5", "--n", "2"]),
        ("census_m3n1", ["census", "--m", "3", "--n", "1"]),
        ("census_m3n1_winner", ["census", "--m", "3", "--n", "1", "--partition", "1|2,3"]),
        ("moments_m4", ["moments", "--m", "4", "--seed", "3"]),
        ("moments_m6_threads2",
         ["moments", "--m", "6", "--seed", "5", "--threads", "2"]),
        ("moments_m5_sigma", ["moments", "--m", "5", "--seed", "4",
                              "--sigma-hyper", "0.5"]),
    ]
)


def run_irlap(args: list) -> str:
    """stdout of one fresh `python -m irlap.cli` process on this
    checkout's irlap; fails on a nonzero exit."""
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "irlap.cli", *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    if proc.returncode != 0:
        raise RuntimeError(f"irlap {' '.join(args)} exited {proc.returncode}: {proc.stderr}")
    return proc.stdout


def flatten(value, path: str = ""):
    """(key path, leaf value) pairs of a JSON document."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from flatten(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from flatten(item, f"{path}[{i}]")
    else:
        yield path, value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def diff() -> bool:
    """Print what would change; True when any report would."""
    largest, where = 0.0, "no numeric value changed"
    changed = False
    for stem, args in CASES:
        path = GOLDEN_DIR / f"{stem}.json"
        new_text = run_irlap(args)
        old_text = path.read_text() if path.exists() else "{}"
        if new_text == old_text:
            continue
        changed = True
        print(f"{stem}: report differs")
        old, new = dict(flatten(json.loads(old_text))), dict(flatten(json.loads(new_text)))
        for key in sorted(old.keys() | new.keys()):
            a, b = old.get(key, "(absent)"), new.get(key, "(absent)")
            if a == b and type(a) is type(b):
                continue
            print(f"{stem}: {key}: {a!r} -> {b!r}")
            if _is_number(a) and _is_number(b) and abs(b - a) > largest:
                largest, where = abs(b - a), f"{stem}: {key}"
    print(f"largest |change|: {largest!r} ({where})")
    return changed


def main() -> int:
    parser = argparse.ArgumentParser(description="Write or diff the golden CLI reports.")
    parser.add_argument("--diff", action="store_true",
                        help="print what would change, write nothing, exit 1 on a change")
    if parser.parse_args().diff:
        return int(diff())
    GOLDEN_DIR.mkdir(exist_ok=True)
    for stem, args in CASES:
        (GOLDEN_DIR / f"{stem}.json").write_text(run_irlap(args))
        print(f"wrote {stem}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
