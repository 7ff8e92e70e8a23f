"""Change of basis, the standard representation, and projections."""

import numpy as np
import pytest

import reference_loops as ref
from irlap.aggregators import encode_g, make_plurality
from irlap.basis import (
    Rho1Table,
    build_basis,
    perm_matrix,
    project_to_lin,
    rho1,
    rho1_table,
    schur_diagnostics,
    trivial_multiplicity,
)
from irlap.perms import compose, enumerate_group, fixed_points, identity, parse_perm


@pytest.mark.parametrize("m", range(2, 9))
def test_basis_invariants(m):
    basis = build_basis(m)
    assert basis.check() <= 1e-12
    assert np.abs(np.ones(m) @ basis.C).max() <= 1e-12


def test_basis_m2_column():
    C = build_basis(2).C
    expected = np.array([[1.0], [-1.0]]) / np.sqrt(2)
    assert np.allclose(C, expected) or np.allclose(C, -expected)


def test_perm_matrix_identity():
    assert np.array_equal(perm_matrix(identity(3)), np.eye(3, dtype=int))


def test_perm_matrix_example():
    P = perm_matrix(parse_perm("231", 3))
    assert P[0, 1] == P[1, 2] == P[2, 0] == 1
    assert P.sum() == 3


def test_perm_matrix_trace_counts_fixed_points():
    for x in enumerate_group(4):
        assert perm_matrix(x).trace() == fixed_points(x)


def test_perm_matrix_reversed_intertwining():
    # With compose(x, y) applying y first, P reverses the order:
    # P(compose(x, y)) = P(y) P(x).  The group product that P carries
    # homomorphically is "apply left factor first".
    group = enumerate_group(3)
    for x in group:
        for y in group:
            assert np.array_equal(
                perm_matrix(compose(x, y)), perm_matrix(y) @ perm_matrix(x)
            )


def test_rho1_identity_and_unitarity():
    basis = build_basis(4)
    assert np.allclose(rho1(identity(4), basis), np.eye(3), atol=1e-12)
    for x in enumerate_group(4):
        R = rho1(x, basis)
        assert np.abs(R @ R.T - np.eye(3)).max() <= 1e-10


@pytest.mark.parametrize("m", [3, 4, 5])
def test_rho1_reversed_homomorphism(m):
    table = rho1_table(m)
    group = enumerate_group(m)
    rng = np.random.default_rng(0)
    pairs = [(group[a], group[b]) for a, b in
             rng.integers(0, len(group), size=(200, 2))] if m == 5 else [
        (x, y) for x in group for y in group]
    for x, y in pairs:
        lhs = table.of(compose(x, y))
        rhs = table.of(y) @ table.of(x)
        assert np.abs(lhs - rhs).max() <= 1e-10


@pytest.mark.parametrize("m", [3, 4, 5])
def test_rho1_mean_is_zero(m):
    table = rho1_table(m)
    assert np.abs(table.R.mean(axis=0)).max() <= 1e-12


def test_rho1_second_moment_identity():
    table = rho1_table(4)
    second = np.einsum("xkl,xtl->kt", table.R, table.R) / len(table.perms)
    assert np.abs(second - np.eye(3)).max() <= 1e-10


@pytest.mark.parametrize("m,bound", [(2, 1e-12), (3, 1e-10), (4, 1e-10)])
def test_schur_diagnostics(m, bound):
    assert schur_diagnostics(m) <= bound


def test_trivial_multiplicity_values():
    assert trivial_multiplicity(3, 2) == 2
    assert trivial_multiplicity(5, 2) == 2
    assert trivial_multiplicity(5, 4) == 15
    with pytest.raises(ValueError):
        trivial_multiplicity(3, 4)
    with pytest.raises(ValueError):
        trivial_multiplicity(5, 3)


def test_projection_recovers_span_member():
    table = rho1_table(3)
    g = table.R.copy()  # g(x) = rho1(x_1), n = 1
    lin, residual = project_to_lin(g, 1, table)
    assert np.abs(lin.B).max() <= 1e-12
    assert np.abs(lin.A[0] - np.eye(2)).max() <= 1e-12
    assert residual <= 1e-12


def test_projection_recovers_constant():
    table = rho1_table(3)
    Q = np.array([[1.0, 2.0], [3.0, 4.0]])
    g = np.broadcast_to(Q, (6, 2, 2)).copy()
    lin, residual = project_to_lin(g, 1, table)
    assert np.abs(lin.B - Q).max() <= 1e-12
    assert np.abs(lin.A).max() <= 1e-12
    assert residual <= 1e-12


def test_projection_plurality_has_residual():
    agg = make_plurality(3, 2)
    lin, residual = project_to_lin(encode_g(agg)[agg.table], 2, rho1_table(3))
    assert residual > 1e-3


def test_projection_idempotent_and_pythagoras():
    rng = np.random.default_rng(1)
    table = rho1_table(3)
    g = rng.standard_normal((36, 2, 2))
    lin, residual = project_to_lin(g, 2, table)
    again, residual2 = project_to_lin(lin.evaluate_all(table), 2, table)
    assert np.abs(again.B - lin.B).max() <= 1e-10
    assert np.abs(again.A - lin.A).max() <= 1e-10
    assert residual2 <= 1e-12
    total = float((g**2).sum(axis=(1, 2)).mean())
    # Parseval: E ||lin||^2 = ||B||^2 + sum_i ||A^i||^2
    assert abs(total - ((lin.B**2).sum() + (lin.A**2).sum() + residual)) <= 1e-9


def test_basis_independence():
    # IR-type scalars must not depend on how 1/sqrt(m) is completed.
    from irlap.laplacian import hat_l1, spectral_gap

    helmert = build_basis(3)
    alt = build_basis(3, kind="random", seed=11)
    assert not np.allclose(helmert.C, alt.C)
    agg = make_plurality(3, 2)
    table, table_alt = Rho1Table(3, helmert), Rho1Table(3, alt)
    _, res = project_to_lin(encode_g(agg, table)[agg.table], 2, table)
    _, res_alt = project_to_lin(encode_g(agg, table_alt)[agg.table], 2, table_alt)
    assert abs(res - res_alt) <= 1e-9
    assert abs(ref.l_form_float(agg, table) - ref.l_form_float(agg, table_alt)) <= 1e-9
    assert abs(spectral_gap(3, 1, basis=helmert).gap
               - spectral_gap(3, 1, basis=alt).gap) <= 1e-9
    e1 = hat_l1(3, helmert).eigenvalues
    e2 = hat_l1(3, alt).eigenvalues
    assert np.abs(e1 - e2).max() <= 1e-9
