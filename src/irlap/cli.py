"""Batch front-end: subcommands emit deterministic JSON reports.

Exit codes: 0 success, 2 input error, 3 feasibility refusal.
A fixed seed makes reports byte-identical across runs.  Each
subcommand imports the irlap modules it runs when it starts, so a job
compiles and loads only those: `moments` needs none of the aggregator,
Laplacian or rounding layers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from ._util import FeasibilityError, expect_json, expect_key, jsonable, parse_fraction


def _emit(report: dict, args) -> None:
    text = json.dumps(jsonable(report), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        summary = report.get("summary", "report written")
        print(f"{summary} -> {args.out}")
    else:
        sys.stdout.write(text)


def _blocks(args, kind: str = "") -> list:
    """The --partition blocks; by default rule `kind`'s (`default_blocks`)."""
    from .aggregators import default_blocks

    if not args.partition:
        return default_blocks(kind, args.m)
    try:
        return [[int(v) for v in part.split(",")] for part in args.partition.split("|")]
    except ValueError:
        raise ValueError(f'--partition "{args.partition}" is not blocks of integers like "1|2,3"')


def _build_rule(spec: str, m: int, n: int, H, seed: int):
    from .aggregators import check_params, make_named_rule, random_aggregator

    kind, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if key in params:
                raise ValueError(f"repeated key {key!r} in --rule {spec!r}")
            params[key] = value
    if kind == "random":
        check_params(kind, params, {"seed"})
        rng = np.random.default_rng(int(params.get("seed", seed)))
        return random_aggregator(m, n, H, rng)
    if kind == "dictator":
        params.setdefault("i", 1)
    return make_named_rule(kind, params, H, n)


def cmd_spectra(args) -> None:
    from .laplacian import gap_bracket, hat_l1, spectral_gap

    if args.m < 3:
        raise ValueError(f"spectra requires m >= 3: hat-L(1) is degenerate below, got m={args.m}")
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
    from .metrics import census_ir_functions, check_census_budget
    from .perms import MAX_M, TRANSITIVE, build_fixing_subgroup, coset_count

    if not 2 <= args.m <= MAX_M:
        raise ValueError(f"census requires m in 2..{MAX_M}, got m={args.m}")
    # refuse before building H: the coset count follows from the blocks
    blocks = _blocks(args)
    cosets = coset_count(args.m, blocks)
    if cosets == 1:  # one block: H = S_m
        raise ValueError(f"{TRANSITIVE}: every rule is constant, the census vacuous")
    check_census_budget(args.m, args.n, cosets)
    H = build_fixing_subgroup(args.m, blocks)
    result = census_ir_functions(args.m, args.n, H)
    report = result.to_dict()
    report["summary"] = (
        f"census m={args.m} n={args.n}: {result.ir_count} IR functions "
        f"({result.constants} constants, {result.dictators} dictators, "
        f"{result.others} other)"
    )
    _emit(report, args)


def _load_input(args, H):
    """The --input rule; its m, n and partition are checked against --m,
    --n and an explicit --partition (H) before from_json builds it."""
    from .aggregators import from_json
    from .perms import build_fixing_subgroup

    with open(args.input) as fh:
        doc = expect_json(json.load(fh), dict, "aggregator document")
    m, n = (expect_key(doc, key, "aggregator document") for key in ("m", "n"))
    if (m, n) != (args.m, args.n):
        raise ValueError(f"--m {args.m} --n {args.n} disagree with the rule's "
                         f"m={m!r:.20}, n={n!r:.20}")
    if args.partition:
        own = build_fixing_subgroup(m, expect_key(doc, "partition", "aggregator document"))
        if own.partition != H.partition:
            text = "|".join(",".join(map(str, block)) for block in own.partition)
            raise ValueError(f'--partition "{args.partition}" disagrees with the '
                             f'input rule\'s output partition "{text}"')
    return from_json(doc)


def cmd_analyze(args) -> None:
    from .laplacian import check_ir_budget
    from .metrics import default_orders, ir_combinatorial, manipulation_power, orders_from_json
    from .perms import build_fixing_subgroup
    from .rounding import robustness_report

    if args.m < 3:
        raise ValueError(f"analyze requires m >= 3: L^n is zero at m = 2, got m={args.m}")
    # refuse before building the rule; --center analyses n + 1 voters
    check_ir_budget(args.m, args.n + 1 if args.center else args.n)
    H = build_fixing_subgroup(args.m, _blocks(args, args.rule.partition(":")[0]))
    if args.input:
        agg = _load_input(args, H)
    elif args.rule:
        agg = _build_rule(args.rule, args.m, args.n, H, args.seed)
    else:
        raise ValueError("analyze needs --input or --rule")
    if args.orders:
        with open(args.orders) as fh:
            orders = orders_from_json(json.load(fh), agg.H, agg.m)
    else:
        orders = default_orders(agg.H, agg.m)
    # robustness first: it refuses a transitive H before any counting.
    # The three stages share agg's pair counts.
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

    from .moments import (
        audit_blocks,
        build_appendix,
        check_audit_budget,
        det_formula,
        empirical_m0,
        hypercontractivity_check,
        matrix_cs_check,
        random_equal_margin,
        transfer_dual_path,
    )

    if args.m < 4:
        raise ValueError(f"moments requires m >= 4: the appendix algebra is "
                         f"degenerate below, got m={args.m}")
    if args.sigma_hyper != "auto":
        try:
            sigma = parse_fraction(args.sigma_hyper)  # "1/2" and "0.5" are one value
            in_range = 0 <= sigma <= 1
        except ValueError:  # nan, inf or no number
            in_range = False
        if not in_range:
            raise ValueError(f"--sigma-hyper must lie in [0, 1], got {args.sigma_hyper}")
    check_audit_budget(args.m)  # refuse before anything is built
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
        transfer_ok += transfer_dual_path(A, Fraction(int(rng.integers(0, 5)), 4))
    if args.sigma_hyper == "auto":
        hyper = empirical_m0(threads=args.threads)
    else:
        hyper = {"rows": [hypercontractivity_check(args.m, sigma)], "certified_m0": None}
    report = {
        "determinant": det_rows,
        "block_audit": audit,
        "transfer_dual_path": {"trials": trials, "exact_matches": transfer_ok},
        "hypercontractivity": hyper,
        "matrix_cauchy_schwarz": matrix_cs_check(args.m, trials=100, seed=args.seed),
        "summary": (
            f"moments: det ok {sum(r['matches_formula'] for r in det_rows)}/9, "
            f"blocks repaired {audit['repair_count']}, "
            f"certified m0 {hyper['certified_m0']}"
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
        "partition": dict(default="", help='blocks like "1|2,3"; default 1|2,...,m for '
                          'plurality, all singletons otherwise'),
        "seed": dict(type=int, default=0),
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
                         "plurality | borda | random:seed=7; each is built on --partition")
    sa.add_argument("--orders", type=str, default="",
                    help="JSON preference-order override")
    sa.add_argument("--center", action="store_true",
                    help="apply the dummy-voter mean-centering reduction")
    sa.set_defaults(func=cmd_analyze)

    sm = subs.add_parser("moments", help="determinant/block audit and exact "
                                         "hypercontractivity decision")
    _add_flags(sm, "seed", "threads")
    sm.add_argument("--sigma-hyper", type=str, default="auto",
                    help='noise level in [0, 1] ("1/2" or "0.5"), or "auto" for '
                         'sigma = m^-1/2 at m = 4..12')
    sm.set_defaults(func=cmd_moments)

    args = parser.parse_args(argv)
    try:  # an --out path that cannot take the report is refused before any work
        out_dir = os.path.dirname(os.path.abspath(args.out))
        if args.out and (os.path.isdir(args.out) or not os.path.isdir(out_dir)):
            raise ValueError(f"--out {args.out!r} is a directory or its directory does not exist")
        args.func(args)
    except FeasibilityError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as exc:  # OSError: a path that is no readable file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
