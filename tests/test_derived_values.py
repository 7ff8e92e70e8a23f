"""Per-aggregator derived values: the pair counts, the default-basis
coset means and the kernel projection are built once per aggregator,
shared by every consumer, read-only, and equal to a fresh build."""

import gc
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import weakref

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
from irlap.rounding import fkn_diagnostics, kernel_projection, robustness_report


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
    agg = _rule()
    _run_everything(agg)
    assert sorted(builds) == ["encoding", "pairs"]  # the L form is read off the pair counts
    _run_everything(agg)
    assert sorted(builds) == ["encoding", "pairs"]  # a second run builds nothing


def test_shared_values_are_read_only():
    agg = _rule()
    cnt_all, cnt_same = pair_count_tensors(agg)
    enc = encode_g(agg)
    for array in (agg.table, cnt_all, cnt_same, enc.g_coset):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert encode_g(agg).g_coset is enc.g_coset  # each call wraps the kept coset means
    assert pair_count_tensors(agg)[0] is cnt_all


def test_a_rule_and_its_kept_values_are_freed_with_its_last_reference():
    """An encoding holds its rule, and the rule keeps only the coset
    means, so no reference cycle waits for the garbage collector."""
    agg = _rule()
    _run_everything(agg)
    enc, gone = encode_g(agg), weakref.ref(agg)
    gc.disable()
    try:
        del agg
        assert gone() is not None  # the encoding keeps its rule
        del enc
        assert gone() is None
    finally:
        gc.enable()


def test_an_explicit_table_builds_a_fresh_encoding():
    agg = _rule()
    fresh = encode_g(agg, rho1_table(agg.m))
    assert fresh.g_coset is not encode_g(agg).g_coset
    assert np.array_equal(fresh.g_coset[fresh.table], encode_g(agg).g_coset[agg.table])


def test_budgets_refuse_after_a_warm_call(monkeypatch):
    agg = random_aggregator(3, 2, trivial_subgroup(3), np.random.default_rng(2))
    ir_combinatorial(agg)
    enc = encode_g(agg)
    apply_Ln(agg)
    kernel_projection(enc)
    monkeypatch.setattr(laplacian, "LN_BUDGET", 10)
    for call, arg in ((ir_combinatorial, agg), (apply_Ln, agg), (kernel_projection, enc)):
        with pytest.raises(FeasibilityError, match="combinatorial IR budget"):
            call(arg)


def _refuse_voter_view(monkeypatch):
    def refuse(*args):
        raise AssertionError("the profile table was read through voter_view")

    for info in pkgutil.iter_modules(irlap.__path__, "irlap."):
        module = importlib.import_module(info.name)
        if hasattr(module, "voter_view"):
            monkeypatch.setattr(module, "voter_view", refuse)


def test_the_l_form_reads_the_kept_pair_counts_not_the_table(monkeypatch):
    """irlap.laplacian makes no pass over the profiles: it imports no
    voter view, and once the pair counts are kept the L form is read
    off them, exactly IR."""
    assert not hasattr(laplacian, "voter_view") and not hasattr(laplacian, "rank_classes")
    agg = _rule(seed=6)
    want = ir_combinatorial(_rule(seed=6)).profile_distance
    pair_count_tensors(agg)
    _refuse_voter_view(monkeypatch)
    assert apply_Ln(agg) == want
    assert apply_quadratic_form(agg, None, "L").canonical == want


def test_the_projection_reads_the_kept_pair_counts_not_the_table(monkeypatch):
    """Once the pair counts are kept, the kernel projection and the FKN
    diagnostics read them and the encoding's per-coset arrays, and no
    irlap module looks at the profile table through a voter view."""
    agg, twin = _rule(seed=5), _rule(seed=5)
    want_proj, want_diag = kernel_projection(encode_g(twin)), fkn_diagnostics(encode_g(twin))
    pair_count_tensors(agg)
    _refuse_voter_view(monkeypatch)
    enc = encode_g(agg)
    proj = kernel_projection(enc)
    assert np.array_equal(proj.Q, want_proj.Q)
    for name in ("trace", "B_norm_sq", "coefficient_norms", "kernel_distance_sq", "voter",
                 "coset", "dictator_distance_sq"):
        assert getattr(proj, name) == getattr(want_proj, name), name
    assert fkn_diagnostics(enc) == want_diag
    assert kernel_projection(encode_g(agg, rho1_table(agg.m))) is proj  # kept on the rule


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
    """The coset means, the pair counts and the kernel projection keep
    their results on the rule, the L form keeps nothing, and nothing
    of profile size is kept besides: no index table or per-profile
    encoding outlives the call."""
    retained = _traced_bytes("""
enc = encode_g(agg)
counts = pair_count_tensors(agg)
apply_Ln(agg)
Q = kernel_projection(enc).Q
print(tracemalloc.get_traced_memory()[0] - sum(a.nbytes for a in counts) - Q.nbytes)
""")
    assert retained <= 64 * 1024


def test_l_form_peak_is_below_one_profile_sized_encoding():
    """Putting a rule through the L form never holds g over all
    profiles, m!^n (m-1)^2 floats (1.84 MB at (5, 2)): it reads the
    pair counts, whose peak is the bound of the next test."""
    peak = _traced_bytes("""
apply_Ln(agg)
print(tracemalloc.get_traced_memory()[1])
""")
    assert peak < 120 ** 2 * 4 ** 2 * 8


def test_pair_counts_peak_is_below_one_stacked_histogram():
    """The pair counts hold one voter's switch-class histogram at a
    time, never the stack over all voters, n m!^(n-1) m^2 P int64
    (1367 KB at (3, 5) with trivial H, P = 3).

    And they hold two label-sized arrays, not three.  At (5, 2) with
    trivial H the label table [vote, coset, j] and one voter's gathered
    labels are each 120 * 120 * 5 int64 = 576,000 bytes; that voter's
    histogram (120 * 125 int64 = 120,000) and the two count arrays
    (2 * 2 * 5^4 int64 = 20,000) bring the peak to 1.31 MB.  Slab
    offsets added out of place, as a second array of keys, took it to
    1.87 MB.  The bound, three label-sized arrays (1,728,000 bytes),
    lies between the two."""
    program = """
pair_count_tensors(agg)
print(tracemalloc.get_traced_memory()[1])
"""
    assert _traced_bytes(program, m=3, n=5) < 5 * 6 ** 4 * 3 ** 2 * 3 * 8
    assert _traced_bytes(program, m=5, n=2) < 3 * 120 * 120 * 5 * 8
