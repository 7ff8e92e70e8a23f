"""Permutation matrices, the orthonormal change of basis U = [1/sqrt(m) | C],
and the (m-1)-dimensional standard component rho1 of the permutation
representation.

P(x)[i, j] = 1 iff x(i) = j (rank i holds name j).  With compose(x, y)
applying y first, P intertwines composition in reversed order:

    P(compose(x, y)) = P(y) @ P(x)

(equivalently, P is a homomorphism for the product "apply left factor
first").  All downstream formulas use this orientation; in particular
the mean of rho1 over a coset {compose(x, h)} is M_H @ rho1(x), with
the subgroup mean M_H acting on the left.

rho1(x) = C^T P(x) C, so rho1 inherits the same reversed-order rule.
P(x) = U (1 (+) rho1(x)) U^T exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .perms import MAX_M, broadcast_voter, enumerate_group, fixed_points, perm_index

BASIS_TOL = 1e-12


@dataclass(frozen=True)
class Basis:
    """Orthonormal U = [1/sqrt(m) | C]; rows of C are C_j."""

    m: int
    U: np.ndarray
    C: np.ndarray

    def check(self, tol: float = BASIS_TOL) -> float:
        m = self.m
        resid = max(
            np.abs(self.U.T @ self.U - np.eye(m)).max(),
            np.abs(self.C @ self.C.T - (np.eye(m) - np.full((m, m), 1.0 / m))).max(),
            np.abs(self.C.T @ self.C - np.eye(m - 1)).max(),
            np.abs(np.ones(m) @ self.C).max(),
        )
        if resid > tol:
            raise AssertionError(f"basis invariants violated: residual {resid}")
        return resid


def build_basis(m: int, kind: str = "helmert", seed: int | None = None) -> Basis:
    """Complete 1/sqrt(m) to an orthonormal basis.

    The completion is not pinned down by any of the quantities computed
    here (they are basis-independent); the deterministic Helmert basis
    is the default, and a seeded random completion is available to test
    exactly that independence.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if kind == "helmert":
        C = np.zeros((m, m - 1))
        for k in range(1, m):
            col = np.zeros(m)
            col[:k] = 1.0
            col[k] = -k
            C[:, k - 1] = col / np.sqrt(k * (k + 1))
    elif kind == "random":
        rng = np.random.default_rng(seed)
        raw = np.column_stack([np.full(m, 1.0 / np.sqrt(m)), rng.standard_normal((m, m - 1))])
        Q, R = np.linalg.qr(raw)
        Q = Q * np.sign(np.diag(R))  # keep the first column equal to +1/sqrt(m)
        C = Q[:, 1:]
    else:
        raise ValueError(f"unknown basis kind {kind!r}")
    U = np.column_stack([np.full(m, 1.0 / np.sqrt(m)), C])
    basis = Basis(m, U, C)
    basis.check()
    return basis


def perm_matrix(x: tuple[int, ...]) -> np.ndarray:
    """0/1 matrix with P[i, j] = 1 iff x(i) = j."""
    m = len(x)
    P = np.zeros((m, m), dtype=np.int64)
    for r, name in enumerate(x):
        P[r, name - 1] = 1
    return P


def rho1(x: tuple[int, ...], basis: Basis) -> np.ndarray:
    return basis.C.T @ perm_matrix(x) @ basis.C


class Rho1Table:
    """rho1 over all of S_m, indexed by lexicographic permutation rank.

    Immutable shared read-only table; building it is the only
    non-concurrent step.
    """

    def __init__(self, m: int, basis: Basis | None = None):
        self.m = m
        self.basis = basis if basis is not None else build_basis(m)
        self.perms = enumerate_group(m)
        # P[x] = perm_matrix of the x-th permutation
        P = (np.array(self.perms)[:, :, None] == np.arange(1, m + 1)).astype(np.int64)
        self.R = np.einsum("ki,xkl,lj->xij", self.basis.C, P, self.basis.C, optimize=True)

    def of(self, x: tuple[int, ...]) -> np.ndarray:
        return self.R[perm_index(x)]


@functools.lru_cache(maxsize=MAX_M)  # m runs over 2..MAX_M
def rho1_table(m: int) -> Rho1Table:
    """Cached table over the default Helmert basis."""
    return Rho1Table(m)


def trivial_multiplicity(m: int, k: int) -> int:
    """Multiplicity of the trivial representation in the k-th tensor
    power of P, as the exact character sum E_x (trace P(x))^k."""
    if k not in (2, 4):
        raise ValueError("tensor power must be 2 or 4")
    if k == 4 and m < 4:
        raise ValueError("k=4 requires m >= 4 (small m degenerate)")
    total = sum(fixed_points(x) ** k for x in enumerate_group(m))
    fact = len(enumerate_group(m))
    assert total % fact == 0
    return total // fact


def schur_diagnostics(m: int, basis: Basis | None = None) -> float:
    """Max deviation of sum_x rho1_ab(x) rho1_cd(x) from
    (m!/(m-1)) * delta_ac delta_bd, over all entry pairs."""
    if m > 8:
        raise ValueError("schur_diagnostics supports m <= 8")
    table = Rho1Table(m, basis) if basis is not None else rho1_table(m)
    d = m - 1
    flat = table.R.reshape(len(table.perms), d * d)
    gram = flat.T @ flat
    target = np.eye(d * d) * (len(table.perms) / d)
    return float(np.abs(gram - target).max())


@dataclass
class LinFunction:
    """g(x) = B + sum_i A[i] @ rho1(x_i): the kernel format of the IR
    quadratic form."""

    n: int
    B: np.ndarray
    A: np.ndarray  # shape (n, m-1, m-1)

    def evaluate_all(self, table: Rho1Table) -> np.ndarray:
        """Values over all m!^n profiles in mixed-radix order
        (voter 1 most significant)."""
        fact = len(table.perms)
        n, d = self.n, self.B.shape[0]
        out = np.broadcast_to(self.B, (fact**n, d, d)).copy()
        for i in range(n):
            contrib = np.einsum("kt,xtl->xkl", self.A[i], table.R)
            out += broadcast_voter(contrib, i + 1, n)
        return out


def project_to_lin(g: np.ndarray, n: int, table: Rho1Table) -> tuple[LinFunction, float]:
    """Least-squares projection of g: S_m^n -> R^{(m-1)x(m-1)} onto
    span{1, rho1_ab(x_i)}.

    B = E_x g(x) and A^i = E_x[g(x) rho1(x_i)^T]; exactness of these
    formulas is Schur orthogonality of the entry functions.  Returns
    the projection and the residual E_x ||g - lin||_F^2.
    """
    fact = len(table.perms)
    if g.shape[0] != fact**n:
        raise ValueError(f"expected {fact**n} profiles, got {g.shape[0]}")
    d = table.m - 1
    B = g.mean(axis=0)
    A = np.empty((n, d, d))
    shaped = g.reshape((fact,) * n + (d, d))
    for i in range(n):
        axes = tuple(ax for ax in range(n) if ax != i)
        per_vote = shaped.mean(axis=axes) if axes else shaped
        A[i] = np.einsum("vkl,vtl->kt", per_vote, table.R) / fact
    lin = LinFunction(n, B, A)
    diff = g - lin.evaluate_all(table)
    residual_sq = float(np.einsum("xkl,xkl->", diff, diff) / g.shape[0])
    return lin, residual_sq

