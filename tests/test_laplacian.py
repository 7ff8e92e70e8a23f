"""Constraint operators, quadratic-form equivalences, and spectra."""

import dataclasses
import math
import tracemalloc
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from irlap._util import FeasibilityError
from irlap.aggregators import (
    ProfileTables,
    corrupt_aggregator,
    encode_g,
    make_borda,
    make_constant,
    make_dictator,
    make_plurality,
    profile_tables,
    random_aggregator,
)
from irlap.basis import Basis, Rho1Table, build_basis, project_to_lin, rho1_table
from irlap.laplacian import (
    apply_Ln,
    apply_quadratic_form,
    build_Ln_dense,
    build_one_voter,
    cluster_eigenvalues,
    gap_bracket,
    hat_l1,
    kappa,
    lin_space_basis,
    lprime_offset,
    sector_block,
    spectral_gap,
)
from irlap.metrics import ir_combinatorial
from irlap.perms import (
    build_fixing_subgroup,
    parse_perm,
    trivial_subgroup,
    winner_subgroup,
)


@pytest.fixture(scope="module")
def bundle3():
    bundle = build_one_voter(3)
    bundle.check()
    return bundle


@pytest.fixture(scope="module")
def bundle4():
    bundle = build_one_voter(4)
    bundle.check()
    return bundle


def test_bundle_row_sums(bundle3):
    for j in range(3):
        assert (bundle3.X[j].sum(axis=1) == 2).all()  # (m-1)! = 2


def test_d_matrices_sum_to_identity(bundle3):
    assert np.abs(bundle3.D.sum(axis=0) - np.eye(2)).max() <= 1e-12


def test_y_eigenvalues_m4(bundle4):
    for j in range(4):
        eig = np.linalg.eigvalsh(bundle4.Y[j].astype(float))
        assert eig.min() >= -1e-9
        for v in eig:
            assert min(abs(v), abs(v - 6)) <= 1e-9  # {0, (m-1)!}


def test_hat_l1_m3():
    system = hat_l1(3)
    vals = [(round(v, 9), k) for v, k in system.clusters]
    assert vals == [(0.0, 1), (round(1 / 6, 9), 2), (round(1 / 3, 9), 1)]
    assert system.EEt_residual <= 1e-12


def test_hat_l1_m5_middle_eigenvalue():
    system = hat_l1(5)
    assert any(abs(v - 1 / 20) <= 1e-9 and k == 4 for v, k in system.clusters)


def test_hat_l1_u0_is_identity():
    for m in (3, 4, 5):
        U0 = hat_l1(m).U0.reshape(m - 1, m - 1)
        assert np.abs(U0 - np.eye(m - 1)).max() <= 1e-9


def test_eet_eigenvalues_m3():
    system = hat_l1(3)
    eig = np.linalg.eigvalsh(system.E @ system.E.T)
    assert np.allclose(sorted(eig), [1 / 3, 1 / 3, 2 / 3], atol=1e-12)


def test_hat_l1_refuses_past_the_dense_limit(monkeypatch):
    """hat-L(1) is the t = 1 sector block, (m-1)^2 square: refused past
    DENSE_LIMIT as it stands when called, before anything is built."""
    monkeypatch.setattr("irlap.laplacian.DENSE_LIMIT", 3)
    with pytest.raises(FeasibilityError, match="hat-L"):
        hat_l1(3)
    monkeypatch.undo()
    tracemalloc.start()
    try:
        with pytest.raises(FeasibilityError):
            hat_l1(10**4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**5


def test_hat_l1_rejects_m2():
    with pytest.raises(ValueError):
        hat_l1(2)


def test_one_voter_dense_spectrum_m3():
    # Eigenvalues of L/m! come in three plateaus: the kernel, the
    # rho1-block value 1/(m(m-1)), and 1/m (rho1 remainder plus all
    # higher components).
    L = build_Ln_dense(3, 1)
    clusters = cluster_eigenvalues(np.linalg.eigvalsh(L))
    assert [(round(v, 9), k) for v, k in clusters] == [
        (0.0, 4), (round(1 / 6, 9), 4), (round(1 / 3, 9), 4)]


def test_clustering_reads_its_tolerance_at_call_time(monkeypatch):
    import irlap.laplacian as laplacian

    eigvals = np.array([0.0, 1e-3, 1.0])
    assert [k for _, k in cluster_eigenvalues(eigvals)] == [1, 1, 1]
    monkeypatch.setattr(laplacian, "CLUSTER_TOL", 1e-2)
    assert [k for _, k in cluster_eigenvalues(eigvals)] == [2, 1]


@pytest.mark.parametrize("m,n", [(3, 1), (3, 2), (4, 1), (4, 2)])
def test_kernel_is_lin_space(m, n):
    table = rho1_table(m)
    L = build_Ln_dense(m, n)
    eigvals, eigvecs = np.linalg.eigh(L)
    kernel_dim = int((eigvals < 1e-9).sum())
    assert kernel_dim == (n + 1) * (m - 1)
    fact = factorial(m)
    for idx in range(kernel_dim):
        vec = eigvecs[:, idx].reshape(fact**n, 1, m - 1)
        rows = np.zeros((fact**n, m - 1, m - 1))
        rows[:, 0, :] = vec[:, 0, :]
        _, residual = project_to_lin(rows, n, table)
        assert residual <= 1e-16
    # conversely the lin space lies in the numerical kernel
    Q = lin_space_basis(m, n, table)
    assert np.abs(L @ Q).max() <= 1e-8


def test_higher_components_pinned_at_inverse_m():
    # On the orthocomplement of all degree <= 1 functions the
    # normalized one-voter operator acts as exactly 1/m.
    for m in (3, 4):
        table = rho1_table(m)
        fact = factorial(m)
        L = build_Ln_dense(m, 1)
        d = m - 1
        cols = [np.ones(fact)]
        cols += [table.R[:, a, b] for a in range(d) for b in range(d)]
        Qx, _ = np.linalg.qr(np.column_stack(cols))
        P = np.eye(fact) - Qx @ Qx.T
        proj = np.kron(P, np.eye(d))
        restricted = proj @ L @ proj
        eig = np.linalg.eigvalsh(restricted)
        outside = eig[eig > 1e-9]
        assert outside.min() >= 1 / m - 1e-9


def test_quadratic_forms_zero_on_dictators(bundle3):
    H = trivial_subgroup(3)
    d = make_dictator(1, parse_perm("213", 3), H, 1)
    for variant in ("L1", "L2", "L"):
        qf = apply_quadratic_form(d, bundle3, variant)
        assert abs(float(qf.canonical)) <= 1e-9
    c = make_constant(0, H, 1)
    for variant in ("L1", "L2", "L"):
        assert abs(float(apply_quadratic_form(c, bundle3, variant).canonical)) <= 1e-9


@pytest.mark.parametrize("m,n,scf", [(3, 1, False), (3, 2, False),
                                     (3, 1, True), (3, 2, True),
                                     (4, 1, False), (4, 1, True)])
def test_equivalence_chain(m, n, scf, bundle3, bundle4):
    bundle = bundle3 if m == 3 else bundle4
    H = winner_subgroup(m) if scf else trivial_subgroup(m)
    rng = np.random.default_rng(17)
    for _ in range(20):
        agg = random_aggregator(m, n, H, rng)
        oracle = ir_combinatorial(agg).profile_distance
        assert apply_quadratic_form(agg, bundle, "L1").canonical == oracle
        assert apply_quadratic_form(agg, bundle, "L2").canonical == oracle
        assert apply_quadratic_form(agg, bundle, "L").canonical == oracle
        assert apply_Ln(agg) == oracle


def test_kappa_calibration():
    for H in (trivial_subgroup(3), winner_subgroup(3)):
        for variant in ("L1", "L2"):
            ratios = ref.calibrate_kappa(variant, 3, 1, H, trials=5)
            assert ratios, "degenerate calibration sample"
            assert all(r == kappa(variant, 3, 1) for r in ratios)
        ratios = ref.calibrate_kappa("L", 3, 1, H, trials=5)
        assert all(abs(r - float(kappa("L", 3, 1))) <= 1e-9 for r in ratios)


def test_lprime_offset_matches_constant_aggregator(bundle3):
    # A constant aggregator has IR 0; the raw L' value on it is exactly
    # the structural offset.
    H = winner_subgroup(3)
    c = make_constant(1, H, 1)
    qf = apply_quadratic_form(c, bundle3, "L1")
    assert qf.raw == lprime_offset(3, 1, H)
    assert qf.canonical == 0


@pytest.mark.parametrize("H", [
    build_fixing_subgroup(4, [[1, 2, 3], [4]]),  # orbits {1, 2, 3} and {4}
    build_fixing_subgroup(4, [[1, 2, 3, 4]]),  # transitive
], ids=["123|4", "1234"])
def test_lprime_offset_reads_the_orbits_of_any_subgroup(H):
    """The L' offset counts the orbits of H, its blocks, so L' gives the
    exact IR whatever the orbit sizes, a transitive H included."""
    rng = np.random.default_rng(8)
    for n in (1, 2):
        assert apply_quadratic_form(make_constant(0, H, n), None, "L1").canonical == 0
        agg = random_aggregator(4, n, H, rng)
        oracle = ir_combinatorial(agg).profile_distance
        assert apply_quadratic_form(agg, None, "L1").canonical == oracle


# Output partitions: full rankings, a single winner, and a winner
# plus an unordered pair (at m = 3 the winner partition is 1|2,3).
PARTITIONS = {3: ([[1], [2], [3]], [[1], [2, 3]]),
              4: ([[1], [2], [3], [4]], [[1], [2, 3, 4]], [[1], [2, 3], [4]])}


@pytest.mark.parametrize("m", [3, 4])
def test_coset_agreement_is_profile_product(m):
    # Mem X^j Mem^T = K_j K_j^T, K_j[c] = coset c's j-profile counts.
    X = build_one_voter(m).X
    for partition in PARTITIONS[m]:
        H = build_fixing_subgroup(m, partition)
        prof = profile_tables(H).prof
        agree = ref.coset_agreement(H, X)
        for j in range(m):
            assert (agree[j] == prof[:, j] @ prof[:, j].T).all()


@pytest.mark.parametrize("m,n", [(3, 1), (3, 2), (4, 1), (4, 2)])
def test_forms_match_coset_histogram_oracle(m, n):
    X = build_one_voter(m).X
    rng = np.random.default_rng(31 * m + n)
    aggs = [make_plurality(m, n), make_borda(m, n)]
    for partition in PARTITIONS[m]:
        H = build_fixing_subgroup(m, partition)
        aggs += [random_aggregator(m, n, H, rng) for _ in range(3)]
    for agg in aggs:
        for variant in ("L1", "L2"):
            assert apply_quadratic_form(agg, None, variant).raw == \
                ref.coset_form_raw(agg, X, variant), (agg.kind, agg.H.partition, variant)


@pytest.mark.parametrize("m,n", [(5, 2), (4, 3)])
def test_forms_exact_beyond_dense_oracle(m, n):
    rng = np.random.default_rng(m + n)
    for H in (trivial_subgroup(m), winner_subgroup(m)):
        agg = random_aggregator(m, n, H, rng)
        oracle = ir_combinatorial(agg).profile_distance
        assert apply_quadratic_form(agg, None, "L1").canonical == oracle
        assert apply_quadratic_form(agg, None, "L2").canonical == oracle


def test_forms_do_not_read_the_bundle():
    agg = random_aggregator(3, 2, winner_subgroup(3), np.random.default_rng(2))
    oracle = ir_combinatorial(agg).profile_distance
    assert apply_quadratic_form(agg, None, "L1").canonical == oracle
    assert apply_quadratic_form(agg, None, "L2").canonical == oracle
    assert apply_quadratic_form(agg, None, "L").canonical == oracle
    with pytest.raises(ValueError):
        apply_quadratic_form(agg, None, "L3")


@pytest.mark.parametrize("m,n", [(3, 2), (4, 2)])
def test_l_form_reads_the_encoding_basis(m, n):
    # the float class sums read g and C from one basis: a random
    # completion gives the same IR, which the exact form needs no basis for
    alt = build_basis(m, kind="random", seed=1)
    agg = random_aggregator(m, n, trivial_subgroup(m), np.random.default_rng(3))
    oracle = ir_combinatorial(agg).profile_distance
    assert abs(ref.l_form_float(agg, Rho1Table(m, alt)) - float(oracle)) <= 1e-9
    assert apply_quadratic_form(agg, build_one_voter(m, alt), "L").canonical == oracle


def _assert_catalog_identity(H):
    """mPi Pc mPi = m (m Pc - |H| J) for every coset's rank counts Pc,
    the one fact the exact L form rests on (laplacian docstring)."""
    m, prof = H.m, ProfileTables(H).prof
    mPi = m * np.eye(m, dtype=np.int64) - 1
    J = np.ones((m, m), dtype=np.int64)
    for Pc in prof:
        assert (mPi @ Pc @ mPi == m * (m * Pc - H.order * J)).all()
        assert (Pc.sum(axis=0) == H.order).all() and (Pc.sum(axis=1) == H.order).all()


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_catalog_identity_holds_for_every_partition(m):
    partitions = list(ref.set_partitions(list(range(1, m + 1))))
    assert len(partitions) == {2: 2, 3: 5, 4: 15, 5: 52, 6: 203}[m]  # Bell numbers
    for partition in partitions:
        _assert_catalog_identity(build_fixing_subgroup(m, partition))


def test_catalog_identity_is_checked_when_the_tables_are_built():
    H = winner_subgroup(3)
    ids = H.coset_ids.copy()
    ids[np.argmax(ids == 1)] = 0  # coset 1's least member moved to coset 0
    with pytest.raises(AssertionError, match="sum to"):
        ProfileTables(dataclasses.replace(H, coset_ids=ids))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_class_sum_oracle_matches_the_exact_l_form(data):
    """The float L form over every switch class of the matrix encoding,
    in the Helmert basis and in a random one, is the exact apply_Ln."""
    m = data.draw(st.sampled_from([3, 4]), label="m")
    n = data.draw(st.integers(1, 3 if m == 3 else 2), label="n")
    H = build_fixing_subgroup(m, data.draw(st.sampled_from(PARTITIONS[m]), label="partition"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    kind = data.draw(st.sampled_from(["random", "corrupted", "plurality", "borda"]), label="kind")
    if kind == "random":
        agg = random_aggregator(m, n, H, rng)
    elif kind == "corrupted":
        sigma = data.draw(st.permutations(range(1, m + 1)), label="sigma")
        base = make_dictator(data.draw(st.integers(1, n), label="voter"), sigma, H, n)
        agg = corrupt_aggregator(base, data.draw(st.integers(0, 3), label="entries"), rng)
    else:
        agg = (make_plurality if kind == "plurality" else make_borda)(m, n)
    exact = float(apply_Ln(agg))
    alt = build_basis(m, "random", seed=data.draw(st.integers(0, 10**6), label="basis seed"))
    for table in (rho1_table(m), Rho1Table(m, alt)):
        got = ref.l_form_float(agg, table)
        assert math.isclose(got, exact, rel_tol=1e-12, abs_tol=1e-12), (kind, got, exact)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_gap_is_invariant_under_relabeling_the_alternatives(data):
    """Permuting the rows of C (a relabeling of the alternatives) leaves
    the gap and the cluster multiplicities of spectral_gap unchanged."""
    m = data.draw(st.integers(3, 6), label="m")
    n = data.draw(st.integers(1, max(k for k in range(1, 9) if (m - 1) ** (k + 1) <= 500)),
                  label="n")
    if data.draw(st.booleans(), label="random basis"):
        basis = build_basis(m, "random", seed=data.draw(st.integers(0, 10**6), label="seed"))
    else:
        basis = build_basis(m)
    perm = list(data.draw(st.permutations(range(m)), label="relabeling"))
    moved = Basis(m, basis.U[perm], basis.C[perm])
    moved.check()
    want, got = spectral_gap(m, n, basis), spectral_gap(m, n, moved)
    assert abs(got.gap - want.gap) <= 1e-12
    assert [k for _, k in got.clusters] == [k for _, k in want.clusters]


def test_forms_refuse_where_ir_refuses():
    agg = random_aggregator(3, 8, trivial_subgroup(3), np.random.default_rng(0))
    for variant in ("L1", "L2", "L"):
        with pytest.raises(FeasibilityError, match="combinatorial IR budget"):
            apply_quadratic_form(agg, None, variant)
    with pytest.raises(FeasibilityError, match="combinatorial IR budget"):
        ir_combinatorial(agg)


@pytest.mark.parametrize("m,n", [(3, 1), (3, 2), (4, 1), (4, 2)])
def test_gap_brackets(m, n):
    rep = spectral_gap(m, n)
    lo, hi = gap_bracket(m, n)
    assert rep.exhaustive
    assert float(lo) - 1e-9 <= rep.gap <= float(hi) + 1e-9
    assert rep.min_eigenvalue >= -1e-9


def test_gap_m3_n1_exact():
    assert abs(spectral_gap(3, 1).gap - 1 / 6) <= 1e-9


def test_sector_spectrum_matches_dense_oracle():
    for m, n in [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]:
        rep = spectral_gap(m, n)
        dense = cluster_eigenvalues(np.linalg.eigvalsh(build_Ln_dense(m, n)))
        assert [k for _, k in rep.clusters] == [k for _, k in dense]
        assert max(abs(a - b) for (a, _), (b, _) in zip(rep.clusters, dense)) <= 1e-12


@pytest.mark.parametrize("m,n", [(5, 2), (4, 3), (5, 3), (6, 2)])
def test_sector_spectrum_beyond_dense_oracle(m, n):
    rep = spectral_gap(m, n)
    assert rep.exhaustive
    assert sum(k for _, k in rep.clusters) == factorial(m) ** n * (m - 1) == rep.dim
    zero, zero_mult = rep.clusters[0]
    assert abs(zero) <= 1e-12
    assert zero_mult == (n + 1) * (m - 1)  # the lin space (test_kernel_is_lin_space)
    lo, hi = gap_bracket(m, n)
    assert float(lo) - 1e-12 <= rep.gap <= float(hi) + 1e-12
    alt = spectral_gap(m, n, basis=build_basis(m, kind="random", seed=m * n))
    assert [k for _, k in alt.clusters] == [k for _, k in rep.clusters]
    assert max(abs(a - b) for (a, _), (b, _) in zip(alt.clusters, rep.clusters)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spectral_gap_refuses_the_zero_operator_at_m2(n):
    """At m = 2, K = m! - 1 - (m-1)^2 = 0 and L^n vanishes: no gap."""
    assert not build_Ln_dense(2, n).any()
    with pytest.raises(ValueError, match="L\\^n / m! is zero for m=2"):
        spectral_gap(2, n)


def test_sector_block_one_voter_is_hat_l1():
    for m in range(3, 8):
        block = sector_block(m, 1, build_basis(m).C)
        assert np.abs(block - hat_l1(m).matrix).max() <= 1e-12


def test_spectral_gap_refuses_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(FeasibilityError):
            spectral_gap(9, 4)  # largest sector block 8^5 = 32768 > DENSE_LIMIT
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_bundle_memory_refusal():
    with pytest.raises(FeasibilityError):
        build_one_voter(8)


def test_apply_ln_budget_refusal(monkeypatch):
    H = trivial_subgroup(3)
    rng = np.random.default_rng(0)
    agg = random_aggregator(3, 2, H, rng)
    monkeypatch.setattr("irlap.laplacian.LN_BUDGET", 10)
    with pytest.raises(FeasibilityError):
        apply_Ln(agg)


def test_ln_matches_dense_operator():
    # tr(G L^n G^T) via the matrix-free path equals the dense operator
    # applied to the rows of a random encoding.
    m, n = 3, 2
    rng = np.random.default_rng(5)
    H = trivial_subgroup(m)
    agg = random_aggregator(m, n, H, rng)
    g = encode_g(agg)[agg.table]
    Ln = build_Ln_dense(m, n) * factorial(m)  # un-normalized
    dense_raw = 0.0
    for k in range(m - 1):
        vec = g[:, k, :].reshape(-1)
        dense_raw += float(vec @ Ln @ vec)
    canonical = 2 * dense_raw / factorial(m) ** (n + 1)
    assert abs(canonical - apply_Ln(agg)) <= 1e-9
