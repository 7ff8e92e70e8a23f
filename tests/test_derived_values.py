"""Per-aggregator derived values: the pair counts, the IR value and the
kernel projection are built once per aggregator, shared by every
consumer, read-only, and equal to a fresh build."""

import dataclasses
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import irlap
from irlap import laplacian, metrics
from irlap._util import FeasibilityError
from irlap.aggregators import (
    corrupt_aggregator,
    encode_g,
    from_json,
    make_dictator,
    random_aggregator,
    to_json,
)
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


def test_one_run_builds_the_pair_counts_once(monkeypatch):
    """And the IR value once: the L form and the report read the kept
    one."""
    builds = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            builds.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(metrics, "_count_pairs", spy("pairs", metrics._count_pairs))
    monkeypatch.setattr(metrics, "_reduce_ir", spy("ir", metrics._reduce_ir))
    agg = _rule()
    _run_everything(agg)
    # the L form and the projection read the pair counts, the report the IR value
    assert builds == ["ir", "pairs"]
    _run_everything(agg)
    assert builds == ["ir", "pairs"]  # a second run builds nothing
    _run_everything(_rule(seed=1))
    assert builds == ["ir", "pairs"] * 2  # one of each per rule


def test_the_kept_ir_value_cannot_change():
    agg = _rule()
    ir = ir_combinatorial(agg)
    assert ir_combinatorial(agg) is ir and apply_Ln(agg) == ir.profile_distance
    with pytest.raises(dataclasses.FrozenInstanceError):
        ir.profile_distance = 0
    assert ir_combinatorial(agg).profile_distance == ir_combinatorial(_rule()).profile_distance


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 5])
def test_random_orders_draw_as_the_per_pair_loop(monkeypatch, seed):
    """The one-call draw gives the orders of one rng.permutation(P) per
    (j, r), in (j, r) order, and leaves the generator where that loop
    leaves it; a numpy that drew `permuted`'s rows in another order
    would fail here.  The catalog size P is stubbed, so that P runs
    past the orbit counts of small m."""
    for m in (1, 3, 5, 8):
        for P in (1, 2, 3, 7, 30):
            monkeypatch.setattr(metrics, "profile_tables",
                                lambda H, P=P: SimpleNamespace(catalog=range(P)))
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            got = random_orders(None, m, rng).position
            want = np.array([[twin.permutation(P) for _ in range(m)] for _ in range(m)])
            assert np.array_equal(got, want), (m, P)
            assert rng.bit_generator.state == twin.bit_generator.state, (m, P)


def test_shared_values_are_read_only():
    agg = _rule()
    cnt_all, cnt_same = pair_count_tensors(agg)
    for array in (agg.table, cnt_all, cnt_same, encode_g(agg)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert pair_count_tensors(agg)[0] is cnt_all


def test_budgets_refuse_after_a_warm_call(monkeypatch):
    agg = random_aggregator(3, 2, trivial_subgroup(3), np.random.default_rng(2))
    ir_combinatorial(agg)
    apply_Ln(agg)
    kernel_projection(agg)
    monkeypatch.setattr(laplacian, "LN_BUDGET", 10)
    for call in (ir_combinatorial, apply_Ln, kernel_projection):
        with pytest.raises(FeasibilityError, match="combinatorial IR budget"):
            call(agg)


def _refuse(monkeypatch, name):
    """Make `name` raise in every irlap module that binds it."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"irlap called {name}")

    for info in pkgutil.iter_modules(irlap.__path__, "irlap."):
        module = importlib.import_module(info.name)
        if hasattr(module, name):
            monkeypatch.setattr(module, name, refuse)


def test_the_l_form_reads_the_kept_pair_counts_not_the_table(monkeypatch):
    """irlap.laplacian makes no pass over the profiles: it imports no
    voter view, and once the pair counts are kept the L form is read
    off them, exactly IR."""
    assert not hasattr(laplacian, "voter_view") and not hasattr(laplacian, "rank_classes")
    agg = _rule(seed=6)
    want = ir_combinatorial(_rule(seed=6)).profile_distance
    pair_count_tensors(agg)
    _refuse(monkeypatch, "voter_view")
    assert apply_Ln(agg) == want
    assert apply_quadratic_form(agg, None, "L").canonical == want


def test_the_projection_reads_the_kept_pair_counts_not_the_table(monkeypatch):
    """Once the pair counts are kept, the kernel projection and the FKN
    diagnostics read them and H's tables, and no irlap module looks at
    the profile table through a voter view."""
    agg, twin = _rule(seed=5), _rule(seed=5)
    want_proj, want_diag = kernel_projection(twin), fkn_diagnostics(twin)
    pair_count_tensors(agg)
    _refuse(monkeypatch, "voter_view")
    proj = kernel_projection(agg)
    assert np.array_equal(proj.Q, want_proj.Q)
    for name in ("trace", "B_norm_sq", "coefficient_norms", "kernel_distance_sq", "voter",
                 "coset", "dictator_distance_sq"):
        assert getattr(proj, name) == getattr(want_proj, name), name
    assert fkn_diagnostics(agg) == want_diag
    assert kernel_projection(agg) is proj  # kept on the rule


def test_the_report_path_builds_no_encoding(monkeypatch, tmp_path):
    """robustness_report and `analyze` read the rule's pair counts and
    H alone: no coset means are built, and the rule keeps exactly its
    pair counts, IR value and kernel projection."""
    import irlap.cli as cli
    from irlap import rounding

    _refuse(monkeypatch, "encode_g")
    agg = _rule()
    for center in (False, True):
        robustness_report(agg, center=center)
    assert sorted(agg._derived) == ["ir", "pair_counts", "projection"]
    rules, report = [], rounding.robustness_report

    def keep(rule, **kwargs):
        rules.append(rule)
        return report(rule, **kwargs)

    monkeypatch.setattr(rounding, "robustness_report", keep)
    argv = ["analyze", "--m", "3", "--n", "2", "--rule", "random", "--out",
            str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    assert sorted(rules[0]._derived) == ["ir", "pair_counts", "projection"]


def test_a_fresh_aggregator_gives_the_memoized_values():
    agg = _rule(seed=3)
    warm = _run_everything(agg)
    twin = from_json(json.loads(json.dumps(to_json(agg))))
    assert twin._derived == {}
    assert _run_everything(twin) == warm
    for a, b in zip(pair_count_tensors(twin), pair_count_tensors(agg)):
        assert np.array_equal(a, b)
    assert np.array_equal(encode_g(twin)[twin.table], encode_g(agg)[agg.table])


PRELUDE = """
import tracemalloc
import numpy as np
from irlap.aggregators import profile_tables, random_aggregator
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
    """The pair counts and the kernel projection keep their results on
    the rule, the L form keeps nothing, and nothing of profile size is
    kept besides: no index table or per-profile encoding outlives the
    call."""
    retained = _traced_bytes("""
counts = pair_count_tensors(agg)
apply_Ln(agg)
Q = kernel_projection(agg).Q
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

    And they hold one label-sized array, not two.  At (5, 2) with
    trivial H one voter's gathered labels [slab, vote, j] are 120 * 120
    * 5 int64 = 576,000 bytes; that voter's histogram (120 * 125 int64 =
    120,000) and the two count arrays (2 * 2 * 5^4 int64 = 20,000) bring
    the peak to 0.72 MB.  A [vote, coset, j] label table beside them, of
    the same size here, took it to 1.31 MB.  The bound, two label-sized
    arrays (1,152,000 bytes), lies between the two.

    The labels are the output's pid plus a [vote, j] offset: at (6, 1)
    with trivial H they are 720 * 6 int64 (34,560 bytes), and the peak
    stays under 1 MB, where the [vote, coset, j] table alone was 720 *
    720 * 6 int64 = 24.9 MB (1.42 GB at (7, 1))."""
    program = """
pair_count_tensors(agg)
print(tracemalloc.get_traced_memory()[1])
"""
    assert _traced_bytes(program, m=3, n=5) < 5 * 6 ** 4 * 3 ** 2 * 3 * 8
    assert _traced_bytes(program, m=5, n=2) < 2 * 120 * 120 * 5 * 8
    assert _traced_bytes(program, m=6, n=1) < 2**20

