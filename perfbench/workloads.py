"""Seeded inputs of the three workloads and the checks on every output.

The seed picks random-table seeds, rule seeds, dictator relabelings and
moment seeds; the (m, n, partition, rule) grid itself is fixed, so two
seeds give different inputs with the same item list shape.
"""

from __future__ import annotations

import json
import random
import statistics

GAP_TOL = 1e-9  # relative slack on the bracket ends (float eigenvalues)
IR_TOL = 1e-9  # |quadratic - exact IR| for the apply_Ln cross-check
L_TOL = 1e-8  # |L form - exact IR| for the float "L" quadratic form

ENSEMBLE_CONFIGS = (  # (m, n, partition): trivial, 1|2,3, trivial, winner
    (3, 2, ((1,), (2,), (3,))),
    (3, 2, ((1,), (2, 3))),
    (4, 1, ((1,), (2,), (3,), (4,))),
    (4, 2, ((1,), (2, 3, 4))),
)
ENSEMBLE_PASS = 24  # aggregators per ensemble-lib pass


def another_pass(walls: list[float], elapsed: float, seconds: float) -> bool:
    """Run at least two passes (a traced run needs a traced and an
    untraced one; the CLI tail percentile is fixed for two), then start
    another only if, at the median pass time so far, it ends within the
    budget."""
    return len(walls) < 2 or elapsed + statistics.median(walls) <= seconds


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 10**6))


def spectral_items(seed: int) -> list[list[str]]:
    """13 `irlap` argv lists over the (m, n, partition, rule) grid."""
    rng = random.Random(f"spectral-cli:{seed}")
    sigma = "".join(str(v) for v in rng.sample(range(1, 6), 5))
    return [
        ["spectra", "--m", "4", "--n", "2"],
        ["spectra", "--m", "5", "--n", "2"],
        ["analyze", "--m", "4", "--n", "2", "--rule", "plurality"],
        ["analyze", "--m", "4", "--n", "2", "--rule", "borda"],
        ["analyze", "--m", "4", "--n", "2", "--rule", f"random:seed={_seed(rng)}"],
        ["analyze", "--m", "4", "--n", "2", "--rule", f"random:seed={_seed(rng)}",
         "--center"],
        ["analyze", "--m", "4", "--n", "3", "--rule", "borda"],
        ["analyze", "--m", "4", "--n", "3", "--rule", "plurality"],
        ["analyze", "--m", "5", "--n", "2", "--rule", "plurality"],
        ["analyze", "--m", "5", "--n", "2", "--rule", f"random:seed={_seed(rng)}"],
        ["analyze", "--m", "5", "--n", "2", "--rule", f"dictator:i=2,sigma={sigma}"],
        ["census", "--m", "3", "--n", "1"],
        ["census", "--m", "3", "--n", "1", "--partition", "1|2,3"],
    ]


def moments_items(seed: int) -> list[list[str]]:
    """6 `irlap moments` argv lists: m = 4, 5, 6, each with and
    without `--threads 2`."""
    rng = random.Random(f"moments-cli:{seed}")
    items = []
    for m in (4, 5, 6):
        for threads in (1, 2):
            argv = ["moments", "--m", str(m), "--seed", _seed(rng)]
            items.append(argv + (["--threads", "2"] if threads == 2 else []))
    return items


def ensemble_cases(seed: int) -> list[tuple]:
    """Case tuples (m, n, partition, kind, rng_seed, voter, sigma,
    corrupted_entries), cycling through ENSEMBLE_CONFIGS; kind is
    "random" (a uniform table) or "dictator" (a corrupted dictator)."""
    rng = random.Random(f"ensemble-lib:{seed}")
    cases = []
    for k in range(ENSEMBLE_PASS):
        m, n, partition = ENSEMBLE_CONFIGS[k % len(ENSEMBLE_CONFIGS)]
        if (k // len(ENSEMBLE_CONFIGS)) % 2 == 0:
            cases.append((m, n, partition, "random", rng.randrange(10**6), 0, "", 0))
        else:
            sigma = "".join(str(v) for v in rng.sample(range(1, m + 1), m))
            cases.append((m, n, partition, "dictator", rng.randrange(10**6),
                          rng.randrange(1, n + 1), sigma, rng.randrange(1, 4)))
    return cases


# ---------------------------------------------------------------------------
# Checks.  A check returns (ok, gap_reported, gap_ok, reason): `ok` feeds
# fail_rate; gap_ok feeds gap_miss_frac and never fails the item, since a
# gap outside the bracket is the known Rayleigh-sampling defect.


def gap_check(m: int, n: int, gap: float) -> bool:
    from irlap.laplacian import gap_bracket

    lo, hi = gap_bracket(m, n)
    return float(lo) * (1 - GAP_TOL) <= gap <= float(hi) * (1 + GAP_TOL)


def _option(argv, flag, default=""):
    return argv[argv.index(flag) + 1] if flag in argv else default


def check_cli(argv: list[str], returncode: int, stdout: bytes) -> tuple:
    if returncode != 0:
        return False, False, True, f"exit code {returncode}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return False, False, True, "stdout is not JSON"
    command = argv[0]
    try:
        if command == "analyze":
            return _check_analyze(argv, report)
        if command == "spectra":
            return _check_spectra(report)
        if command == "census":
            return report["others"] == 0, False, True, "census others != 0"
        if command == "moments":
            return _check_moments(report)
    except (KeyError, TypeError, ValueError) as exc:
        return False, False, True, f"malformed report: {exc!r}"
    return False, False, True, f"unknown command {command}"


def _check_analyze(argv, report) -> tuple:
    from irlap._util import parse_fraction

    ir, robust = report["ir"], report["robustness"]
    exact = parse_fraction(ir["profile_distance"])
    gap_ok = gap_check(robust["m"], robust["n"], robust["gap"]) and robust["kernel_bound_ok"]
    if abs(ir["quadratic"] - float(exact)) > IR_TOL:
        return False, True, gap_ok, "quadratic IR disagrees with the exact value"
    if not report["manipulation"]["2c_times_M_ge_IR"]:
        return False, True, gap_ok, "2c*M >= IR violated"
    rule = _option(argv, "--rule")
    if rule.startswith("dictator:"):
        params = dict(kv.split("=") for kv in rule.partition(":")[2].split(","))
        if exact != 0:
            return False, True, gap_ok, "dictator IR is not 0"
        if robust["voter"] != int(params["i"]) or robust["rounded_sigma"] != params["sigma"]:
            return False, True, gap_ok, "dictator not recovered"
    return True, True, gap_ok, ""


def _check_spectra(report) -> tuple:
    hat = report["hat_l1"]
    got = [k for _, k in hat["eigenvalues"]]
    want = [k for _, k in hat["expected"]]
    gap_ok = gap_check(report["m"], report["gap"]["n"], report["gap"]["gap"])
    if got != want:
        return False, True, gap_ok, f"hat_l1 multiplicities {got} != {want}"
    if not hat["EEt_residual"] < 1e-9:
        return False, True, gap_ok, "EEt residual too large"
    return True, True, gap_ok, ""


def _check_moments(report) -> tuple:
    if not all(row["matches_formula"] for row in report["determinant"]) \
            or len(report["determinant"]) != 9:
        return False, False, True, "determinant check not 9/9"
    transfer = report["transfer_dual_path"]
    if transfer["exact_matches"] != transfer["trials"]:
        return False, False, True, "transfer dual path mismatch"
    if not report["matrix_cauchy_schwarz"]["holds"]:
        return False, False, True, "matrix Cauchy-Schwarz fails"
    return True, False, True, ""
