"""Exact moment calculus: Gram determinant, fourth moments, transfer."""

import math
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest

from irlap import moments as moments_module
from irlap.moments import (
    IDX_E3,
    IDX_E5,
    PARTITIONS,
    apply_Tt,
    audit_blocks,
    blocks_direct,
    blocks_transcribed,
    build_appendix,
    det_formula,
    empirical_m0,
    hypercontractivity_check,
    margin_value,
    matrix_cs_check,
    mean_value,
    moments,
    moments_after_Tt,
    norm2_value,
    norm4_exact,
    random_equal_margin,
    transfer_dual_path,
)
from reference_loops import (
    _bareiss_inverse,
    degree2_product_check,
    exhaustive_moment,
    frac_inv_det,
    gram_c15,
    moment_bounds_ok,
    norm4_zero_margin,
    sampled_sweep,
    zero_margin_sample,
)


def eye(m, scale=1):
    return [[scale if i == j else 0 for j in range(m)] for i in range(m)]


def ones(m):
    return [[1] * m for _ in range(m)]


@pytest.mark.parametrize("m", range(4, 13))
def test_determinant_identity(m):
    tables = build_appendix(m)
    assert tables.det == det_formula(m)


@pytest.mark.parametrize("m", [*range(4, 13), 200])
def test_gram_factors_over_the_partition_lattice(m):
    """C15 = Z D Z^T with D = diag((m)_|t|), Z mu = I, and det C15 is
    the product of D: the paper's formula."""
    Z, mu = moments_module._zeta_mobius()
    assert (Z @ mu).tolist() == np.eye(15, dtype=int).tolist()
    d = np.array([math.perm(m, len(t)) for t in PARTITIONS], dtype=object)
    assert ((Z * d) @ Z.T).tolist() == gram_c15(m)
    assert build_appendix(m).det == math.prod(d) == det_formula(m)


@pytest.mark.parametrize("m", range(4, 13))
def test_appendix_matches_the_elimination_oracle(m):
    det, adj = _bareiss_inverse(gram_c15(m))
    tables = build_appendix(m)
    assert tables.det == det and tables.adj == tuple(map(tuple, adj))
    want = np.array([[v / det for v in row] for row in adj])
    assert np.array_equal(tables.C15_inv_float.view(np.uint64), want.view(np.uint64))


def test_gram_is_symmetric():
    C = gram_c15(5)
    for i in range(15):
        for j in range(15):
            assert C[i][j] == C[j][i]


def test_appendix_rejects_small_m():
    with pytest.raises(ValueError):
        build_appendix(3)
    assert frac_inv_det(gram_c15(3)) == (None, 0)


def test_frac_inv_det_with_row_swap():
    inv, det = frac_inv_det([[0, 2], [3, 1]])
    assert det == -6
    assert inv == [[Fraction(-1, 6), Fraction(1, 3)], [Fraction(1, 2), 0]]
    inv, det = frac_inv_det([[Fraction(1, 2), 1, 0], [0, 0, 3], [1, 0, 1]])
    assert det == 3
    M = [[Fraction(1, 2), 1, 0], [0, 0, 3], [1, 0, 1]]
    for i in range(3):
        for j in range(3):
            assert sum(M[i][k] * inv[k][j] for k in range(3)) == (i == j)


def test_frac_inv_det_singular():
    assert frac_inv_det([[1, 2, 3], [2, 4, 6], [0, 1, 5]]) == (None, 0)
    assert frac_inv_det([[0, 0], [0, 7]]) == (None, 0)


@pytest.mark.parametrize("m", range(4, 13))
def test_frac_inv_round_trip(m):
    C = gram_c15(m)
    Cinv, det = frac_inv_det(C)
    assert det == det_formula(m)
    n = len(C)
    for i in range(n):
        for j in range(n):
            acc = sum(C[i][k] * Cinv[k][j] for k in range(n))
            assert acc == (1 if i == j else 0)


def test_appendix_is_cached_and_frozen():
    for m in range(4, 13):
        tables = build_appendix(m)
        assert build_appendix(m) is tables
        with pytest.raises(FrozenInstanceError):
            tables.det = Fraction(0)
        assert not tables.C15_inv_float.flags.writeable
        # int/int division rounds as float(Fraction) does: bit for bit
        want = np.array([[float(v) for v in row] for row in tables.C15_inv])
        assert np.array_equal(tables.C15_inv_float.view(np.uint64), want.view(np.uint64)), m
        assert tables.C15_inv is tables.C15_inv  # built once
        Cinv, det = frac_inv_det(gram_c15(m))
        assert tables.det == det and tables.C15_inv == tuple(map(tuple, Cinv)), m


def test_cold_appendix_cache_from_worker_threads():
    build_appendix.cache_clear()
    threaded = empirical_m0(range(4, 8), threads=2)
    assert threaded == empirical_m0(range(4, 8), threads=1)


def test_moment_examples():
    assert moments(ones(3)).as_tuple() == (9, 9, 9, 9, 27, 27, 81)
    assert moments(eye(3)).as_tuple() == (3, 3, 3, 3, 3, 3, 3)
    mv = moments(eye(3, 2))
    assert mv.M4 == 48 and mv.Mq == 48


def test_mean_and_norm2_identity_m3():
    assert mean_value(eye(3), 3) == 1
    assert norm2_value(eye(3), 3) == 2


def test_mean_and_norm2_constant_function():
    # A = J gives f == m exactly.
    for m in (3, 5):
        assert mean_value(ones(m), m) == m
        assert norm2_value(ones(m), m) == m * m


def test_norm2_matches_exhaustive_and_rejects_printed_order():
    # At m=4 the identity matrix separates the two orderings: the
    # certified form gives 2 (the true second moment of the fixed-point
    # count), the printed one gives 3.
    assert norm2_value(eye(4), 4) == exhaustive_moment(eye(4), 4, 2) == 2
    printed = Fraction((4 - 2) * 4 + 1, 3)
    assert printed != 2


def test_norm2_random_equal_margin():
    rng = np.random.default_rng(5)
    for m in (4, 5):
        for _ in range(5):
            A = random_equal_margin(m, rng)
            assert mean_value(A, m) == exhaustive_moment(A, m, 1)
            assert norm2_value(A, m) == exhaustive_moment(A, m, 2)


def test_margin_gate():
    bad = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
    with pytest.raises(ValueError):
        norm2_value(bad, 3)
    with pytest.raises(ValueError):
        norm4_exact(bad, 3)


def test_norm4_constant_function():
    for m in (4, 5):
        assert norm4_exact(ones(m), m) == Fraction(m**4)


def test_norm4_identity_m4():
    assert norm4_exact(eye(4), 4) == exhaustive_moment(eye(4), 4, 4)


@pytest.mark.parametrize("m", [4, 5])
def test_norm4_random(m):
    rng = np.random.default_rng(m)
    for _ in range(5):
        A = random_equal_margin(m, rng)
        assert norm4_exact(A, m) == exhaustive_moment(A, m, 4)


def test_transcribed_e5e3_disagrees_with_direct():
    # The printed table closes the matrix with E5 E3^T = (Mc Mc Mc),
    # but transposing swaps row and column square sums: the direct
    # construction yields (Mr Mr Mr) there.
    rng = np.random.default_rng(7)
    while True:
        A = random_equal_margin(4, rng)
        mv = moments(A)
        if mv.Mr != mv.Mc:
            break
    direct = blocks_direct(A)
    printed = blocks_transcribed(mv, 4)
    for p in IDX_E3:
        assert direct[IDX_E5][p] == mv.Mr
        assert direct[p][IDX_E5] == mv.Mc == printed[p][IDX_E5]
        assert printed[IDX_E5][p] == mv.Mc != direct[IDX_E5][p]


def test_audit_reports_repairs():
    rep = audit_blocks(4, trials=2, seed=0)
    assert rep["repair_count"] > 0
    assert (14, 7) in [tuple(p) for p in rep["positions_repaired"]]


def test_transfer_sigma_one_is_identity():
    A = random_equal_margin(4, np.random.default_rng(0))
    assert moments(apply_Tt(A, 1)).as_tuple() == moments(A).as_tuple()
    assert moments_after_Tt(moments(A), 1, 4).as_tuple() == moments(A).as_tuple()


def test_transfer_sigma_zero_is_constant():
    A = random_equal_margin(4, np.random.default_rng(1))
    mv = moments(A)
    flat = apply_Tt(A, 0)
    target = Fraction(mv.M1, 16)
    assert all(v == target for row in flat for v in row)
    assert moments(flat).as_tuple() == moments_after_Tt(mv, 0, 4).as_tuple()
    # f becomes the constant E f
    assert norm4_exact(flat, 4) == mean_value(A, 4) ** 4


@pytest.mark.parametrize("m", [4, 5, 6])
def test_transfer_dual_path(m):
    rng = np.random.default_rng(m)
    for _ in range(8):
        A = random_equal_margin(m, rng)
        sigma = Fraction(int(rng.integers(0, 9)), 8)
        direct = moments(apply_Tt(A, sigma))
        formula = moments_after_Tt(moments(A), sigma, m)
        assert direct.as_tuple() == formula.as_tuple()


@pytest.mark.parametrize("m", [4, 5, 6])
def test_transfer_dual_path_over_ints_matches_fractions(m):
    """The integer comparison agrees with the Fraction one, also on
    matrices without equal margins, where the Mr, Mc, Mq rules fail."""
    rng = np.random.default_rng(10 + m)
    verdicts = []
    for trial in range(12):
        A = random_equal_margin(m, rng)
        if trial % 2:
            A[0][0] += 1
        sigma = Fraction(int(rng.integers(0, 9)), 8)
        want = moments(apply_Tt(A, sigma)).as_tuple() == \
            moments_after_Tt(moments(A), sigma, m).as_tuple()
        assert transfer_dual_path(A, sigma) == want
        verdicts.append(want)
    assert any(verdicts) and not all(verdicts)


def test_zero_margin_reduced_fourth_moment():
    # With zero margins only the pair-pair and all-equal patterns
    # survive; the reduced float path must match the exact one.
    rng = np.random.default_rng(9)
    c15 = build_appendix(5).C15_inv_float
    for _ in range(5):
        A = random_equal_margin(5, rng)
        mv = moments(A)
        if mv.M1 != 0:
            shift = Fraction(mv.M1, 25)
            A = [[v - shift for v in row] for row in A]
        exact = norm4_exact(A, 5)
        reduced = norm4_zero_margin(moments([[float(v) for v in r] for r in A]), c15)
        assert abs(float(exact) - reduced) <= 1e-6 * max(1.0, abs(float(exact)))


def test_zero_margin_sampler_is_normalized():
    rng = np.random.default_rng(3)
    for m in (4, 6):
        stack = zero_margin_sample(m, rng, 3)
        assert stack.shape == (3, m, m)
        for A in stack:
            assert abs(margin_value(A)) <= 1e-9
            assert abs(norm2_value(A, m) - 1.0) <= 1e-9


class QueuedDraws:
    """A stand-in generator whose integers() hands out queued (m, m)
    draws, as many as the requested stack holds."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.sizes = []

    def integers(self, low, high, size):
        self.sizes.append(size)
        taken, self.draws = self.draws[:size[0]], self.draws[size[0]:]
        return np.array(taken)


def test_zero_margin_sampler_skips_rank_pattern():
    m = 4
    r, c = np.arange(m), np.array([3, -1, 0, 2])
    rank_pattern = r[:, None] + c[None, :]  # zero margins after centering
    rng = np.random.default_rng(11)
    draws = [rng.integers(-9, 10, size=(m, m)) for _ in range(3)]
    stub = QueuedDraws([rank_pattern] + draws)
    stack = zero_margin_sample(m, stub, 3)
    assert stub.sizes == [(3, m, m), (1, m, m)] and not stub.draws
    assert np.array_equal(stack, zero_margin_sample(m, QueuedDraws(draws), 3))
    for A in stack:
        assert abs(norm2_value(A, m) - 1.0) <= 1e-9


def reference_hypercontractivity(m, sigma, samples, seed):
    """The sampled sweep one sample at a time: the oracle of the
    stacked `sampled_sweep`."""
    sigma = float(sigma) if sigma is not None else m**-0.5
    rng = np.random.default_rng(seed)
    c15_inv = build_appendix(m).C15_inv_float
    violations = failures = 0
    max_t4 = max_ratio = 0.0
    for _ in range(samples):
        while True:
            D = rng.integers(-9, 10, size=(m, m)).astype(float)
            A0 = m * m * D - m * D.sum(axis=1, keepdims=True) \
                - m * D.sum(axis=0, keepdims=True) + D.sum()
            m2 = float((A0**2).sum())
            if m2 > 0:
                break
        mv = moments(A0 * np.sqrt((m - 1) / m2))
        f4 = norm4_zero_margin(mv, c15_inv)
        t4 = sigma**4 * f4
        max_t4 = max(max_t4, t4)
        max_ratio = max(max_ratio, f4)
        violations += t4 > 1 + 1e-9
        failures += not all(moment_bounds_ok(mv, m).values())
    return {"m": m, "sigma": sigma, "samples": samples, "violations": violations,
            "max_ratio": max_ratio, "max_T4_norm4": max_t4,
            "moment_bound_failures": failures}


@pytest.mark.parametrize("m", range(4, 13))
def test_sampled_sweep_matches_one_at_a_time(m):
    for sigma in (None, 0.3):
        for samples in (1, 127, 128, 129, 1000):
            seed = 100 * m + samples
            assert sampled_sweep(m, sigma, samples, seed) == \
                reference_hypercontractivity(m, sigma, samples, seed)


@pytest.mark.parametrize("m", range(4, 13))
def test_stacked_moments_match_single_matrices(m):
    # Bit for bit, over enough samples that a stacked moment rounded
    # differently from the single-matrix one would show.
    stack = zero_margin_sample(m, np.random.default_rng(m), 1500)
    batched = moments(stack)
    c15 = build_appendix(m).C15_inv_float
    f4 = norm4_zero_margin(batched, c15)
    for k, A in enumerate(stack):
        single = moments(A)
        assert tuple(v[k] for v in batched.as_tuple()) == single.as_tuple()
        assert f4[k] == norm4_zero_margin(single, c15)


def test_hypercontractivity_sigma_zero():
    # sigma = 0 kills a zero-mean function entirely: ||T f||_4 = 0.
    rep = hypercontractivity_check(4, sigma=0)
    assert rep["sigma4_U"] == 0 and rep["decision"] == "holds"
    sampled = sampled_sweep(4, 0.0, 50, 0)
    assert sampled["violations"] == 0
    assert sampled["max_T4_norm4"] == 0.0


def test_hypercontractivity_bounds_hold():
    rep = sampled_sweep(6, None, 200, 1)
    assert rep["moment_bound_failures"] == 0
    assert 0 < rep["max_T4_norm4"] <= hypercontractivity_check(6)["sigma4_U"]


U_PINNED = ["87/8", "46/5", "75/8", "699/70", "861/80", "244/21", "7011/560",
            "1775/132", "1727/120"]
WITNESS_PINNED = ["15/8", "11/5", "5/2", "39/14", "49/16", "10/3", "18/5", "85/22", "33/8"]


def test_contraction_bound_and_witness_are_pinned():
    rows = [hypercontractivity_check(m) for m in range(4, 13)]
    assert [row["U"] for row in rows] == list(map(Fraction, U_PINNED))
    assert [row["witness"] for row in rows] == list(map(Fraction, WITNESS_PINNED))
    for row in rows:
        m = row["m"]
        assert row["sigma"] == f"{m}^(-1/2)" and row["sigma4_U"] == row["U"] / m**2
        assert row["decision"] == "holds"
    sweep = empirical_m0()
    assert sweep == {"rows": rows, "certified_m0": 4}


@pytest.mark.parametrize("m", range(4, 13))
def test_witness_ratio_is_exact(m):
    """A = (e1 - e2)(e1 - e2)^T attains the witness ratio."""
    A = [[0] * m for _ in range(m)]
    A[0][0] = A[1][1] = 1
    A[0][1] = A[1][0] = -1
    rep = hypercontractivity_check(m)
    assert norm4_exact(A, m) / norm2_value(A, m) ** 2 == rep["witness"] <= rep["U"]


def test_contraction_bound_is_at_most_m_squared():
    """U(m) <= m^2, so sigma = m^-1/2 always holds, at m = 4..200."""
    for m in range(4, 201):
        rep = hypercontractivity_check(m)
        assert rep["U"] <= m * m and rep["decision"] == "holds", m


@pytest.mark.parametrize("m", range(4, 13))
def test_sampled_ratios_never_exceed_the_bound(m):
    """1000 draws at the seed the sampled sweep gave each m (seed 0 + m):
    no ratio E f^4 / (E f^2)^2 passes U(m) and every moment bound holds."""
    sampled = sampled_sweep(m, None, 1000, m)
    rep = hypercontractivity_check(m)
    assert sampled["max_ratio"] <= rep["U"] * (1 + 1e-9)
    assert sampled["violations"] == sampled["moment_bound_failures"] == 0


def test_hypercontractivity_decisions():
    # m = 4: U = 87/8, witness 15/8
    assert hypercontractivity_check(4, Fraction(1, 2))["decision"] == "holds"
    assert hypercontractivity_check(4, Fraction(3, 4))["decision"] == "open"
    assert hypercontractivity_check(4, 1)["decision"] == "fails"
    assert hypercontractivity_check(4, 0.5) == hypercontractivity_check(4, "1/2")
    with pytest.raises(ValueError):
        hypercontractivity_check(3)


def test_contraction_bound_refuses_a_negative_c4(monkeypatch):
    tables = build_appendix(4)
    adj = [list(row) for row in tables.adj]
    adj[IDX_E5][IDX_E5] = -1
    fake = moments_module.AppendixTables(4, tuple(map(tuple, adj)),
                                         tables.C15_inv_float, tables.det)
    monkeypatch.setattr(moments_module, "build_appendix", lambda m: fake)
    with pytest.raises(AssertionError, match="c4 = -1 < 0"):
        hypercontractivity_check(4)


def test_degree2_product_bound():
    rep = degree2_product_check(4, samples=30, seed=2)
    assert rep["holds"]


def test_matrix_cauchy_schwarz():
    rep = matrix_cs_check(3, trials=100, seed=0)
    assert rep["holds"]
    assert rep["tight"]
    # spelled out: ||J J||_1 = 27 = 3 * ||J||_2 * ||J||_2
    J = np.ones((3, 3))
    assert np.abs(J @ J).sum() == 27
    assert 3 * np.linalg.norm(J) * np.linalg.norm(J) == 27
