"""The irlap benchmark.

Usage, from the root of a source checkout (no install needed; the
library is imported from ./src):

    python3 perfbench/run.py --workload spectral-cli --seed 1 --seconds 34 --trace 0

Workloads (see README.md): spectral-cli and moments-cli launch a fresh
`irlap` process per item; ensemble-lib drives the library from one
long-lived process.  Items run one after another (closed loop, one
client), in passes over a fixed item list made from --seed: at least
two, then as many as fit in --seconds (see workloads.another_pass).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates traced
and untraced passes and prints the per-layer metrics from the traced
ones, plus the tracing overhead.  The last stdout line is the result
JSON; the line before it holds provenance and details.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
CLI_CHILD = os.path.join(HERE, "cli_child.py")
WORKER = os.path.join(HERE, "ensemble_worker.py")

SETUP_REPEATS = 15  # fresh-interpreter imports per CLI run (median reported)
ENSEMBLE_SETUP_REPEATS = 5  # worker start-ups per ensemble-lib run
RSS_PASSES = 10  # ensemble-lib memory is sampled over this many passes
ITEM_TIMEOUT = 120.0
TAIL_BEYOND = 10  # samples beyond the reported tail percentile


def run_child(cmd: list[str], tmp: str, timeout: float) -> tuple:
    """Run cmd to completion; returns (exit code, stdout, seconds,
    peak RSS in MB from wait4, seconds until the first stdout line)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    with open(os.path.join(tmp, "stderr.txt"), "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            first_s = time.perf_counter() - start
            out = first + proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            timer.cancel()
    return proc.returncode, out, time.perf_counter() - start, usage.ru_maxrss / 1024, first_s


def run_cli(items, args, tmp, spans) -> tuple:
    import_cli = [sys.executable, "-c", "import irlap.cli"]
    run_child(import_cli, tmp, ITEM_TIMEOUT)  # untimed: writes bytecode caches
    setup = [run_child(import_cli, tmp, ITEM_TIMEOUT)[2] for _ in range(SETUP_REPEATS)]
    spans_path = os.path.join(tmp, "spans.json")
    passes = []
    start = time.perf_counter()
    while workloads.another_pass([p["wall"] for p in passes],
                                 time.perf_counter() - start, args.seconds):
        traced = bool(args.trace) and len(passes) % 2 == 0
        records = []
        t_pass = time.perf_counter()
        for k, argv in enumerate(items):
            if traced:
                cmd = [sys.executable, CLI_CHILD, spans_path, f"p{len(passes)}:{k}", *argv]
            else:
                cmd = [sys.executable, "-m", "irlap.cli", *argv]
            code, out, secs, rss, _ = run_child(cmd, tmp, ITEM_TIMEOUT)
            records.append([k, secs, *workloads.check_cli(argv, code, out), rss])
            if traced and os.path.exists(spans_path):
                with open(spans_path) as fh:
                    spans.extend(json.load(fh))
                os.remove(spans_path)
        passes.append({"traced": traced, "wall": time.perf_counter() - t_pass,
                       "items": records})
    peak = max(rec[-1] for p in passes for rec in p["items"])
    return statistics.median(setup), passes, peak


def run_ensemble(cases, args, tmp, spans) -> tuple:
    cmd = [sys.executable, WORKER, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setup = [run_child(cmd + ["--setup-only"], tmp, ITEM_TIMEOUT)[4]
             for _ in range(ENSEMBLE_SETUP_REPEATS - 1)]
    spans_path = os.path.join(tmp, "spans.json")
    code, out, _, _, ready = run_child(cmd + ["--spans-out", spans_path], tmp,
                                       args.seconds + ITEM_TIMEOUT)
    if code != 0:
        with open(os.path.join(tmp, "stderr.txt")) as fh:
            sys.stderr.write(fh.read())
        raise SystemExit(f"ensemble worker exited with code {code}")
    setup.append(ready)
    passes = json.loads(out.splitlines()[-1])["passes"]
    if args.trace:
        with open(spans_path) as fh:
            spans.extend(json.load(fh))
    peak = max(p["rss_mb"] for p in passes[:RSS_PASSES])
    return statistics.median(setup), passes, peak


# name -> (item generator, runner, passes of the tail's reference run)
WORKLOADS = {
    "spectral-cli": (workloads.spectral_items, run_cli, 2),
    "moments-cli": (workloads.moments_items, run_cli, 2),
    "ensemble-lib": (workloads.ensemble_cases, run_ensemble, 10),
}


def tail(times: list[float], ref_items: int) -> tuple[float, float]:
    """Nearest-rank percentile of times at the highest percentile that
    has TAIL_BEYOND samples beyond it in a reference run of ref_items
    items.  Fixing the percentile per workload keeps it from moving with
    the number of passes a run holds; longer runs have more samples
    beyond it.  Returns (value, percentile)."""
    rank = -(-(ref_items - TAIL_BEYOND) * len(times) // ref_items)  # ceiling
    return sorted(times)[max(rank, 1) - 1], 100.0 * (ref_items - TAIL_BEYOND) / ref_items


def summarize(passes) -> dict:
    records = [rec for p in passes for rec in p["items"]]
    gap_items = [rec for rec in records if rec[3]]
    return {
        "attempted": len(records),
        "failed": sum(1 for rec in records if not rec[2]),
        "gap_items": len(gap_items),
        "gap_misses": sum(1 for rec in gap_items if not rec[4]),
        "failures": sorted({(rec[0], rec[5]) for rec in records if not rec[2]}),
    }


def end_to_end(passes, setup_s: float, peak_rss: float, counts: dict,
               tail_passes: int) -> tuple:
    untraced = [p for p in passes if not p["traced"]]
    times = [rec[1] for p in untraced for rec in p["items"]]
    tail_s, tail_pct = tail(times, tail_passes * len(untraced[0]["items"]))
    fail_rate = counts["failed"] / counts["attempted"]
    gap_miss = counts["gap_misses"] / counts["gap_items"] if counts["gap_items"] else 0.0
    metrics = {
        "wall_s": (statistics.median(p["wall"] for p in untraced), "s"),
        "item_s_p50": (statistics.median(times), "s"),
        "item_s_tail": (tail_s, "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "setup_s": (setup_s, "s"),
        "ok_frac": (1.0 - fail_rate, "frac"),
        "gap_ok_frac": (1.0 - gap_miss, "frac"),
    }
    details = {"item_s_tail_percentile": tail_pct, "item_samples": len(times),
               "pass_walls": [p["wall"] for p in untraced], "fail_rate": fail_rate,
               "gap_miss_frac": gap_miss}
    return metrics, details


def per_layer(passes, spans) -> tuple:
    traced = [p["wall"] for p in passes if p["traced"]]
    untraced = [p["wall"] for p in passes if not p["traced"]]
    values = tracer.layer_metrics(spans, len(traced))
    metrics = {name: (value, _unit(name)) for name, value in values.items()}
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio")
    metrics["trace.spans"] = (len(spans) / len(traced), "count")
    return metrics, {"traced_passes": len(traced), "untraced_passes": len(untraced)}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("hit_ratio") else "count"


def provenance(args, items) -> dict:
    import numpy
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "irlap", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + fh.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "openblas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)), "items": items,
    }


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "irlap", "cli.py")):
        print("error: run from the root of an irlap source checkout (src/irlap missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    make_items, run, tail_passes = WORKLOADS[args.workload]
    items = make_items(args.seed)
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    spans: list = []
    try:
        setup_s, passes, peak_rss = run(items, args, tmp, spans)
    finally:
        shutil.rmtree(tmp)
    counts = summarize(passes)
    if args.trace:
        metrics, details = per_layer(passes, spans)
        with open(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump(spans, fh)
    else:
        metrics, details = end_to_end(passes, setup_s, peak_rss, counts, tail_passes)
    details.update(counts, provenance=provenance(args, items))
    print(json.dumps(details))
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
