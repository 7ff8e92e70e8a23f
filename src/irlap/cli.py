"""Batch front-end: subcommands emit deterministic JSON reports.

Exit codes: 0 success, 2 input error, 3 feasibility refusal.
A fixed seed makes reports byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from ._util import FeasibilityError, expect_json, jsonable
from .aggregators import check_params, from_json, make_named_rule, random_aggregator
from .laplacian import check_ir_budget, gap_bracket, hat_l1, spectral_gap
from .metrics import (
    census_ir_functions,
    default_orders,
    ir_combinatorial,
    manipulation_power,
    orders_from_json,
)
from .moments import (
    audit_blocks,
    build_appendix,
    det_formula,
    empirical_m0,
    hypercontractivity_check,
    moments,
    moments_after_Tt,
    apply_Tt,
    random_equal_margin,
)
from .perms import build_fixing_subgroup, trivial_subgroup
from .rounding import matrix_cs_check, robustness_report


def _emit(report: dict, args) -> None:
    text = json.dumps(jsonable(report), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        summary = report.get("summary", "report written")
        print(f"{summary} -> {args.out}")
    else:
        sys.stdout.write(text)


def _subgroup(args):
    if args.partition:
        blocks = [[int(v) for v in part.split(",")] for part in args.partition.split("|")]
        return build_fixing_subgroup(args.m, blocks)
    return trivial_subgroup(args.m)


def _build_rule(spec: str, m: int, n: int, H, seed: int):
    kind, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            params[key] = value
    if kind == "random":
        check_params(kind, params, {"seed"})
        rng = np.random.default_rng(int(params.get("seed", seed)))
        return random_aggregator(m, n, H, rng)
    if kind == "dictator":
        params.setdefault("i", 1)
    return make_named_rule(kind, params, H, n)


def cmd_spectra(args) -> None:
    if args.m < 3:
        raise ValueError("spectra requires m >= 3: the m=2 block is degenerate")
    system = hat_l1(args.m)
    report = {
        "m": args.m,
        "hat_l1": {
            "eigenvalues": [[v, k] for v, k in system.clusters],
            "expected": [
                ["0", 1],
                [f"1/{args.m * (args.m - 1)}", args.m - 1],
                [f"1/{args.m}", (args.m - 1) ** 2 - args.m],
            ],
            "EEt_residual": system.EEt_residual,
        },
    }
    if args.n:
        gap_rep = spectral_gap(args.m, args.n)
        lo, hi = gap_bracket(args.m, args.n)
        report["gap"] = gap_rep.to_dict()
        report["gap_bracket"] = [lo, hi]
    report["summary"] = f"spectra m={args.m}" + (f" n={args.n}" if args.n else "")
    _emit(report, args)


def cmd_census(args) -> None:
    H = _subgroup(args)
    result = census_ir_functions(args.m, args.n, H)
    report = result.to_dict()
    report["summary"] = (
        f"census m={args.m} n={args.n}: {result.ir_count} IR functions "
        f"({result.constants} constants, {result.dictators} dictators, "
        f"{result.others} other)"
    )
    _emit(report, args)


def _load_input(args):
    """The --input rule; its m and n are checked against --m and --n
    before from_json builds anything."""
    with open(args.input) as fh:
        doc = expect_json(json.load(fh), dict, "aggregator document")
    if (doc["m"], doc["n"]) != (args.m, args.n):
        raise ValueError(f"--m {args.m} --n {args.n} disagree with the rule's "
                         f"m={doc['m']!r:.20}, n={doc['n']!r:.20}")
    return from_json(doc)


def _check_partition_matches(agg, args, H) -> None:
    """An explicit --partition is the output partition of the rule that
    is analysed: of the input file, or of plurality or Borda, which fix
    their own."""
    if args.partition and agg.H.members != H.members:
        own = "|".join(",".join(map(str, block)) for block in agg.H.partition)
        raise ValueError(f'--partition "{args.partition}" disagrees with the '
                         f'{agg.kind} rule\'s output partition "{own}"')


def cmd_analyze(args) -> None:
    check_ir_budget(args.m, args.n)  # refuse before building the rule
    H = _subgroup(args)
    if args.input:
        agg = _load_input(args)
    elif args.rule:
        agg = _build_rule(args.rule, args.m, args.n, H, args.seed)
    else:
        raise ValueError("analyze needs --input or --rule")
    _check_partition_matches(agg, args, H)
    if args.orders:
        with open(args.orders) as fh:
            orders = orders_from_json(json.load(fh), agg.H, agg.m)
    else:
        orders = default_orders(agg.H, agg.m)
    # robustness first: it refuses a transitive H before any counting.
    # The three stages share agg's pair counts and encoding.
    robust = robustness_report(agg, center=args.center)
    ir = ir_combinatorial(agg)
    manip = manipulation_power(agg, orders)
    report = {
        "aggregator": {"m": agg.m, "n": agg.n, "type": agg.kind, "params": agg.params},
        "ir": {
            "profile_distance": ir.profile_distance,
            "indicator": ir.indicator,
            "quadratic": ir.quadratic,
        },
        "manipulation": manip.to_dict(),
        "robustness": robust.to_dict(),
        "summary": (
            f"analyze {agg.kind} m={agg.m} n={agg.n}: IR={float(ir.profile_distance):.6g}, "
            f"cM>=IR {manip.holds}, recovered voter {robust.voter}"
        ),
    }
    _emit(report, args)


def cmd_moments(args) -> None:
    from fractions import Fraction

    if args.m < 4:
        raise ValueError(f"moments requires m >= 4: the appendix algebra is "
                         f"degenerate below, got m={args.m}")
    if args.sigma_hyper != "auto":
        sigma = float(args.sigma_hyper)
        if not 0 <= sigma <= 1:  # also rejects nan
            raise ValueError(f"--sigma-hyper must lie in [0, 1], got {args.sigma_hyper}")
    rng = np.random.default_rng(args.seed)
    det_rows = []
    for m in range(4, 13):
        det = build_appendix(m).det
        det_rows.append({"m": m, "det": det, "matches_formula": det == det_formula(m)})
    audit = audit_blocks(args.m, trials=3, seed=args.seed)
    transfer_ok = 0
    trials = 25
    for _ in range(trials):
        A = random_equal_margin(args.m, rng)
        s = Fraction(int(rng.integers(0, 5)), 4)
        if moments(apply_Tt(A, s)).as_tuple() == \
                moments_after_Tt(moments(A), s, args.m).as_tuple():
            transfer_ok += 1
    if args.sigma_hyper == "auto":
        hyper = empirical_m0(samples=args.samples, seed=args.seed,
                             threads=args.threads)
    else:
        hyper = {"rows": [hypercontractivity_check(args.m, sigma, args.samples,
                                                   args.seed)],
                 "empirical_m0": None}
    report = {
        "determinant": det_rows,
        "block_audit": audit,
        "transfer_dual_path": {"trials": trials, "exact_matches": transfer_ok},
        "hypercontractivity": hyper,
        "matrix_cauchy_schwarz": matrix_cs_check(args.m, trials=100, seed=args.seed),
        "summary": (
            f"moments: det ok {sum(r['matches_formula'] for r in det_rows)}/9, "
            f"blocks repaired {audit['repair_count']}, "
            f"empirical m0 {hyper['empirical_m0']}"
        ),
    }
    _emit(report, args)


def _at_least(lo: int):
    """argparse type: an integer >= lo; anything else exits 2."""
    def integer(text: str) -> int:
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {text}")
        return int(text)
    return integer


def _add_flags(sub, *names, n_min: int = 0):
    """--m, the named flags (the ones the subcommand reads), and --out."""
    specs = {
        "m": dict(type=int, required=True),
        "n": dict(type=_at_least(n_min), default=n_min),
        "partition": dict(default="", help='blocks like "1|2,3"; default all singletons'),
        "seed": dict(type=int, default=0),
        "samples": dict(type=_at_least(1), default=1000),
        "threads": dict(type=_at_least(1), default=1),
        "out": dict(default=""),
    }
    for name in ("m", *names, "out"):
        sub.add_argument(f"--{name}", **specs[name])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="irlap",
        description="Spectral analysis of rank-independent social aggregators",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectra", help="hat-L(1) eigensystem and n-voter gap")
    _add_flags(sp, "n")
    sp.set_defaults(func=cmd_spectra)

    sc = subs.add_parser("census", help="exhaustive IR zero-locus census")
    _add_flags(sc, "n", "partition", n_min=1)
    sc.set_defaults(func=cmd_census)

    sa = subs.add_parser("analyze", help="IR, manipulation power, robustness")
    _add_flags(sa, "n", "partition", "seed", n_min=1)
    sa.add_argument("--input", type=str, default="", help="aggregator JSON file")
    sa.add_argument("--rule", type=str, default="",
                    help="dictator:i=1,sigma=213 | constant:output=123 | "
                         "plurality | borda | random:seed=7")
    sa.add_argument("--orders", type=str, default="",
                    help="JSON preference-order override")
    sa.add_argument("--center", action="store_true",
                    help="apply the dummy-voter mean-centering reduction")
    sa.set_defaults(func=cmd_analyze)

    sm = subs.add_parser("moments", help="determinant/block audit and "
                                         "hypercontractivity sweep")
    _add_flags(sm, "seed", "samples", "threads")
    sm.add_argument("--sigma-hyper", type=str, default="auto",
                    help='noise level in [0, 1], or "auto" for the sigma = m^-1/2 sweep')
    sm.set_defaults(func=cmd_moments)

    args = parser.parse_args(argv)
    try:
        args.func(args)
    except FeasibilityError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
