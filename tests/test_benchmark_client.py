"""The benchmark client in perfbench/ still runs against the library:
every traced boundary resolves, the ensemble-lib evaluation passes on
a random and a corrupted-dictator case of each configuration, and the
harness's own self-tests pass.  A refactor that breaks any of them
fails here rather than in a benchmark run."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield tuple(importlib.import_module(name)
                    for name in ("tracer", "workloads", "ensemble_worker"))
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_boundary_resolves(perfbench_modules):
    tracer, _, _ = perfbench_modules
    for module, names in tracer.BOUNDARIES.items():
        home = importlib.import_module(f"irlap.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"irlap.{module}.{name}"


def test_ensemble_evaluation_passes_on_each_configuration(perfbench_modules):
    _, workloads, worker = perfbench_modules
    # the cases cycle through the configurations, random tables first,
    # then corrupted dictators
    configs = list(workloads.ENSEMBLE_CONFIGS)
    cases = workloads.ensemble_cases(seed=1)[:2 * len(configs)]
    assert [case[:3] for case in cases] == configs * 2
    assert {case[3] for case in cases} == {"random", "dictator"}
    bundles = worker.warm_up(cases)
    for case, agg in zip(cases, worker.build_inputs(cases)):
        ok, gap_reported, gap_ok, reason = worker.evaluate(agg, bundles[agg.m], case[4] + 1)
        assert ok and gap_reported and gap_ok, (case, reason)


def test_perfbench_self_tests_pass():
    """perfbench/test_perfbench.py, run as its docstring says, from the
    root of the checkout (it puts perfbench/ and src/ on sys.path)."""
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"],
        cwd=PERFBENCH.parent, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
