"""The ensemble-lib client: one long-lived process that evaluates a
seeded stream of aggregators through the irlap library, one after
another (closed loop, one client).

Prints READY once imports and warm-up are done, then runs passes over
the fixed case list until the time budget is used, and prints one JSON
line with the per-pass and per-item results.  With --trace 1, every
other pass runs with boundary tracing installed.

Usage (irlap importable, e.g. PYTHONPATH=src):
    python3 perfbench/ensemble_worker.py --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

# Library calls go through the module objects so that the tracer's
# wrappers, installed on those modules, see them.
from irlap import aggregators, basis, laplacian, metrics, perms, rounding

import tracer
import workloads


def build_inputs(cases) -> list:
    subgroups = {}
    aggs = []
    for m, n, partition, kind, rng_seed, voter, sigma, entries in cases:
        if (m, partition) not in subgroups:
            subgroups[m, partition] = perms.build_fixing_subgroup(m, partition)
        H = subgroups[m, partition]
        rng = np.random.default_rng(rng_seed)
        if kind == "random":
            aggs.append(aggregators.random_aggregator(m, n, H, rng))
        else:
            base = aggregators.make_dictator(voter, perms.parse_perm(sigma, m), H, n)
            aggs.append(aggregators.corrupt_aggregator(base, entries, rng))
    return aggs


def warm_up(cases) -> dict:
    """One-voter bundles, rho1 tables and the first gap per (m, n)."""
    bundles = {}
    for m, n, *_ in cases:
        if m not in bundles:
            bundles[m] = laplacian.build_one_voter(m)
            basis.rho1_table(m)
        rounding.measured_gap(m, n)
    return bundles


def evaluate(agg, bundle, orders_seed: int) -> tuple:
    """Steps 1-6 on one aggregator; returns (ok, gap_reported, gap_ok, reason)."""
    agg2 = aggregators.from_json(json.loads(json.dumps(aggregators.to_json(agg))))
    if not np.array_equal(agg2.table, agg.table):
        return False, False, True, "JSON round trip changed the table"
    ir = metrics.ir_combinatorial(agg2)
    exact = ir.profile_distance
    if abs(ir.quadratic - float(exact)) > workloads.IR_TOL:
        return False, False, True, "quadratic IR disagrees with the exact value"
    forms = {v: laplacian.apply_quadratic_form(agg2, bundle, v).canonical for v in ("L", "L1", "L2")}
    if forms["L1"] != exact or forms["L2"] != exact:
        return False, False, True, "L1/L2 form differs from the exact oracle"
    if abs(forms["L"] - float(exact)) > workloads.L_TOL:
        return False, False, True, "L form differs from the exact oracle"
    orders = metrics.random_orders(agg2.H, agg2.m, np.random.default_rng(orders_seed))
    if not metrics.manipulation_power(agg2, orders, ir=exact).holds_weak:
        return False, False, True, "2c*M >= IR violated"
    if metrics.is_ir_single(agg2) != (ir.indicator == 0):
        return False, False, True, "is_ir_single disagrees with the IR indicator"
    rep = rounding.robustness_report(agg2)
    gap_ok = workloads.gap_check(rep.m, rep.n, rep.gap) and rep.kernel_bound_ok
    return True, True, gap_ok, ""


def resident_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans-out", default="")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    cases = workloads.ensemble_cases(args.seed)
    aggs = build_inputs(cases)
    bundles = warm_up(cases)
    print("READY", flush=True)
    if args.setup_only:
        return

    tr = tracer.Tracer()
    passes = []
    start = time.perf_counter()
    while workloads.another_pass([p["wall"] for p in passes],
                                 time.perf_counter() - start, args.seconds):
        traced = bool(args.trace) and len(passes) % 2 == 0
        if traced:
            tr.install()
        items = []
        t_pass = time.perf_counter()
        for k, agg in enumerate(aggs):
            tr.item = f"p{len(passes)}:{k}"
            t0 = time.perf_counter()
            result = evaluate(agg, bundles[agg.m], cases[k][4] + 1)
            items.append([k, time.perf_counter() - t0, *result])
        wall = time.perf_counter() - t_pass
        if traced:
            tr.uninstall()
        passes.append({"traced": traced, "wall": wall, "items": items,
                       "rss_mb": resident_mb()})
    if args.spans_out:
        tr.dump(args.spans_out)
    print(json.dumps({"passes": passes}))


if __name__ == "__main__":
    main()
