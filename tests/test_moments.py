"""Exact moment calculus: Gram determinant, fourth moments, transfer."""

from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest

from irlap.moments import (
    IDX_E3,
    IDX_E5,
    apply_Tt,
    audit_blocks,
    blocks_direct,
    blocks_transcribed,
    build_appendix,
    degree2_product_check,
    det_formula,
    empirical_m0,
    exhaustive_moment,
    frac_inv_det,
    gram_c15,
    hypercontractivity_check,
    margin_value,
    mean_value,
    moments,
    moments_after_Tt,
    norm2_value,
    norm4_exact,
    norm4_zero_margin,
    random_equal_margin,
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


def test_gram_is_symmetric():
    C = gram_c15(5)
    for i in range(15):
        for j in range(15):
            assert C[i][j] == C[j][i]


def test_appendix_rejects_small_m():
    with pytest.raises(ValueError):
        build_appendix(3)
    assert frac_inv_det(gram_c15(3)) == (None, 0)


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
    tables = build_appendix(5)
    assert build_appendix(5) is tables
    with pytest.raises(FrozenInstanceError):
        tables.det = Fraction(0)
    assert not tables.C15_inv_float.flags.writeable
    assert tables.C15_inv_float.tolist() == [[float(v) for v in row]
                                             for row in tables.C15_inv]


def test_cold_appendix_cache_from_worker_threads():
    build_appendix.cache_clear()
    threaded = empirical_m0(range(4, 8), samples=20, seed=1, threads=2)
    assert threaded == empirical_m0(range(4, 8), samples=20, seed=1, threads=1)


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
        A = zero_margin_sample(m, rng)
        assert abs(margin_value(A)) <= 1e-9
        assert abs(norm2_value(A, m) - 1.0) <= 1e-9


def test_hypercontractivity_sigma_zero():
    # sigma = 0 kills a zero-mean function entirely: ||T f||_4 = 0.
    rep = hypercontractivity_check(4, sigma=0.0, samples=50, seed=0)
    assert rep["violations"] == 0
    assert rep["max_T4_norm4"] == 0.0


def test_hypercontractivity_bounds_hold():
    rep = hypercontractivity_check(6, samples=200, seed=1)
    assert rep["moment_bound_failures"] == 0
    assert rep["max_T4_norm4"] > 0


def test_degree2_product_bound():
    rep = degree2_product_check(4, samples=30, seed=2)
    assert rep["holds"]
