"""Per-aggregator derived values: the pair counts, the default-basis
encoding and its L form are built once per aggregator, shared by every
consumer, read-only, and equal to a fresh build."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import irlap
from irlap import aggregators, laplacian, metrics
from irlap._util import FeasibilityError
from irlap.aggregators import (
    corrupt_aggregator,
    encode_g,
    from_json,
    make_dictator,
    random_aggregator,
    to_json,
)
from irlap.basis import rho1_table
from irlap.laplacian import apply_Ln, apply_quadratic_form
from irlap.metrics import (
    ir_combinatorial,
    manipulation_power,
    pair_count_tensors,
    random_orders,
)
from irlap.perms import trivial_subgroup, winner_subgroup
from irlap.rounding import robustness_report


def _rule(seed=0):
    rng = np.random.default_rng(seed)
    return corrupt_aggregator(make_dictator(2, (2, 3, 1), winner_subgroup(3), 2), 3, rng)


def _run_everything(agg):
    """One pass of every consumer of the shared values, as a library
    client makes it."""
    ir = ir_combinatorial(agg)
    forms = [apply_quadratic_form(agg, None, v).canonical for v in ("L", "L1", "L2")]
    orders = random_orders(agg.H, agg.m, np.random.default_rng(1))
    manip = manipulation_power(agg, orders)
    robust = robustness_report(agg)
    return ir, forms, manip.to_dict(), robust.to_dict()


def test_one_run_builds_the_counts_and_the_encoding_once(monkeypatch):
    builds = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            builds.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(metrics, "_count_pairs", spy("pairs", metrics._count_pairs))
    monkeypatch.setattr(aggregators, "_encode", spy("encoding", aggregators._encode))
    monkeypatch.setattr(laplacian, "_class_sum_form",
                        spy("L", laplacian._class_sum_form))
    agg = _rule()
    _run_everything(agg)
    assert sorted(builds) == ["L", "encoding", "pairs"]
    _run_everything(agg)
    assert sorted(builds) == ["L", "encoding", "pairs"]  # a second run builds nothing


def test_shared_values_are_read_only():
    agg = _rule()
    cnt_all, cnt_same = pair_count_tensors(agg)
    enc = encode_g(agg)
    for array in (agg.table, cnt_all, cnt_same, enc.g_coset):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert encode_g(agg) is enc
    assert pair_count_tensors(agg)[0] is cnt_all


def test_an_explicit_table_builds_a_fresh_encoding():
    agg = _rule()
    fresh = encode_g(agg, rho1_table(agg.m))
    assert fresh is not encode_g(agg)
    assert np.array_equal(fresh.g_coset[fresh.table], encode_g(agg).g_coset[agg.table])


def test_budgets_refuse_after_a_warm_call(monkeypatch):
    agg = random_aggregator(3, 2, trivial_subgroup(3), np.random.default_rng(2))
    ir_combinatorial(agg)
    enc = encode_g(agg)
    apply_Ln(enc)
    monkeypatch.setattr(laplacian, "LN_BUDGET", 10)
    with pytest.raises(FeasibilityError, match="combinatorial IR budget"):
        ir_combinatorial(agg)
    with pytest.raises(FeasibilityError, match="combinatorial IR budget"):
        apply_Ln(enc)


def test_a_fresh_aggregator_gives_the_memoized_values():
    agg = _rule(seed=3)
    warm = _run_everything(agg)
    twin = from_json(json.loads(json.dumps(to_json(agg))))
    assert twin._derived == {}
    assert _run_everything(twin) == warm
    for a, b in zip(pair_count_tensors(twin), pair_count_tensors(agg)):
        assert np.array_equal(a, b)
    assert np.array_equal(encode_g(twin).g_coset[twin.table], encode_g(agg).g_coset[agg.table])


PRELUDE = """
import tracemalloc
import numpy as np
from irlap.aggregators import encode_g, profile_tables, random_aggregator
from irlap.basis import rho1_table
from irlap.laplacian import apply_Ln
from irlap.metrics import pair_count_tensors
from irlap.perms import rank_classes, trivial_subgroup
from irlap.rounding import kernel_projection

H = trivial_subgroup({m})
agg = random_aggregator({m}, {n}, H, np.random.default_rng(0))
profile_tables(H), rho1_table({m}), rank_classes({m})
tracemalloc.start()
"""


def _traced_bytes(script: str, m: int = 5, n: int = 2) -> int:
    """What PRELUDE + script prints for a random trivial rule at (m, n),
    run in a fresh process so that no earlier test has filled a cache."""
    src = os.path.dirname(os.path.dirname(irlap.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", PRELUDE.format(m=m, n=n) + script], env=env,
                          capture_output=True, text=True, check=True)
    return int(proc.stdout)


def test_ir_stages_retain_only_their_kept_values():
    """The encoding, the pair counts, the L form and the kernel
    projection keep their results on the rule and nothing of profile
    size besides: no index table or per-profile encoding outlives the
    call."""
    retained = _traced_bytes("""
enc = encode_g(agg)
counts = pair_count_tensors(agg)
apply_Ln(enc)
Q = kernel_projection(enc).Q
print(tracemalloc.get_traced_memory()[0] - sum(a.nbytes for a in counts) - Q.nbytes)
""")
    assert retained <= 64 * 1024


def test_l_form_peak_is_below_one_profile_sized_encoding():
    """Encoding a rule and putting it through the L form never holds
    g over all profiles, m!^n (m-1)^2 floats (1.84 MB at (5, 2))."""
    peak = _traced_bytes("""
apply_Ln(encode_g(agg))
print(tracemalloc.get_traced_memory()[1])
""")
    assert peak < 120 ** 2 * 4 ** 2 * 8


def test_pair_counts_peak_is_below_one_stacked_histogram():
    """The pair counts hold one voter's switch-class histogram at a
    time, never the stack over all voters, n m!^(n-1) m^2 P int64
    (1367 KB at (3, 5) with trivial H, P = 3)."""
    peak = _traced_bytes("""
pair_count_tensors(agg)
print(tracemalloc.get_traced_memory()[1])
""", m=3, n=5)
    assert peak < 5 * 6 ** 4 * 3 ** 2 * 3 * 8
