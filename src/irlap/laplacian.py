"""Constraint operators on rankings and their spectra.

For each alternative j, X^j connects rankings that agree on j's rank
(X^j[x, y] = 1 iff x^-1(j) = y^-1(j)), Y^j = (m-1)! I - X^j is the
graph Laplacian of that relation, and D^j = C_j^T C_j localizes the
value side to alternative j.  Three quadratic forms measure violated
rank-independence constraints:

    L'  = sum_j X^j (x) complement(X^j)     (indicator encoding F)
    L'' = sum_j Y^j (x) X^j                 (indicator encoding F)
    L   = sum_j Y^j (x) D^j                 (matrix encoding G)

and the n-voter operator applies the one-voter form per voter
coordinate.

Normalization.  The canonical IR value is the ordered-pair expectation

    IR(f) = sum_{i,j} E_{x^-i, x_i, y_i}
            [x_i^-1(j) = y_i^-1(j)] * || Delta j-profile ||_2^2

Raw form values convert to it by a constant fixed per variant:

    IR = 2 * raw(L) / m!^(n+1) = 2 * raw(L'') / m!^(n+1)
    IR = 2 * (raw(L') - offset) / m!^(n+1),
    offset = n * m!^n * (m-1)! * (m - #blocks(H))

The factor 2 converts the Laplacian's unordered edge sum into the
ordered-pair expectation.  The L' offset is the rank-disagreement mass
between members of one coset; it vanishes only when cosets are
singletons.  These constants are asserted against the exhaustive
rational oracle on random aggregators (calibrate_kappa), never
assumed.

Switch classes.  Every form is a sum over single-voter switches: hold
all voters but i fixed and group voter i's rankings by the rank r they
give alternative j.  Each such (i, j, r, others) group of (m-1)!
profiles is a switch class, and ``perms.switch_classes(m, n)`` lists
them all in one cached read-only index.  The per-class j-profile
histograms (jprofile_histograms) give the pair counts
(metrics.pair_count_tensors), and L' and L'' are read off their
same-rank part cnt_same, which IR also reads; L is the per-class
identity in _class_sum_form, and the IR detectors and census gather
through the same index.

Spectrum.  Y^j = (m-1)! (I - P^j) with P^j the average over the rank
class of j, so L^n / m! = (1/m) sum_{i,j} (I - P^j)_i (x) D^j.  The
range of P^j lies in the trivial (+) rho1 components of the regular
representation, so on each voter's coordinate the term is 0 on the
trivial component (dim 1), exactly 1/m on the other non-rho1 ones
(P^j = 0; dim K = m! - 1 - (m-1)^2), and on rho1 ((m-1) copies of an
(m-1)-dim multiplicity space) P^j acts as Q^j = m/(m-1) D^j.  A sector
with t voters in rho1 and o in the others is o/m + sector_block(m, t),
sector_block = (1/m) sum_{i<=t, j} (I - Q^j)_i (x) D^j on
(R^(m-1))^(t+1): zero for t = 0, hat-L(1) for t = 1.  Each of its
eigenvalues lambda gives o/m + lambda with multiplicity
C(n,t) C(n-t,o) (m-1)^t K^o; these sum to m!^n (m-1), so spectral_gap
is exhaustive from blocks of size at most (m-1)^(n+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from ._util import FeasibilityError, memoized
from .aggregators import Aggregator, GEncoding, encode_g, profile_tables
from .basis import Basis, Rho1Table, build_basis
from .perms import broadcast_voter, class_histograms, rank_table, switch_classes

DENSE_LIMIT = 5000  # largest sector block spectral_gap diagonalizes
LN_BUDGET = 2 * 10**8  # bound on n * m * (m!)^(n+1)
PSD_TOL = 1e-9
CLUSTER_TOL = 1e-7


def check_ir_budget(m: int, n: int, budget: int = LN_BUDGET) -> None:
    """Refuse an (m, n) whose IR evaluation costs n m (m!)^(n+1) over
    the budget; callers can run it before building anything.  IR, its
    quadratic cross-check, the pair counts and the three forms all
    refuse here."""
    cost = n * m * factorial(m) ** (n + 1)
    if cost > budget:
        raise FeasibilityError(
            f"combinatorial IR budget exceeded: {cost:.2e} > {budget:.0e}",
            estimate=f"{cost:.2e}",
        )


@dataclass
class LaplacianBundle:
    """Dense one-voter operators X^j, Y^j, D^j over ``basis``; memory is
    about m * (m!)^2 bytes, so construction refuses m > 7.  The dense
    oracle behind build_Ln_dense and the operator tests; the quadratic
    forms do not read it."""

    m: int
    basis: Basis
    X: np.ndarray  # (m, m!, m!) uint8
    Y: np.ndarray  # (m, m!, m!) int64
    D: np.ndarray  # (m, m-1, m-1)

    def check(self) -> None:
        m = self.m
        for j in range(m):
            Xj = self.X[j]
            assert (Xj == Xj.T).all()
            assert (Xj.sum(axis=1) == factorial(m - 1)).all()
            assert (np.diag(Xj) == 1).all()
        assert np.abs(self.D.sum(axis=0) - np.eye(m - 1)).max() < 1e-12
        for j in range(m):
            eig = np.linalg.eigvalsh(self.Y[j].astype(float))
            assert eig.min() > -PSD_TOL


def build_one_voter(m: int, basis: Basis | None = None) -> LaplacianBundle:
    if m > 7:
        raise FeasibilityError(
            f"dense one-voter bundle for m={m} needs ~{m * factorial(m)**2 / 1e9:.1f} GB",
            estimate=f"{m}*({m}!)^2 bytes",
        )
    basis = basis if basis is not None else build_basis(m)
    fact = factorial(m)
    ranks = rank_table(m)
    X = (ranks[:, :, None] == ranks[:, None, :]).astype(np.uint8)
    Y = factorial(m - 1) * np.eye(fact, dtype=np.int64)[None, :, :] - X.astype(np.int64)
    D = np.einsum("jk,jl->jkl", basis.C, basis.C)
    return LaplacianBundle(m, basis, X, Y, D)


@dataclass
class HatL1System:
    """The rho1-isotypic block of the one-voter operator, with its
    three exact eigenspaces {0, 1/(m(m-1)), 1/m} of dimensions
    {1, m-1, (m-1)^2 - m}."""

    m: int
    matrix: np.ndarray
    eigenvalues: np.ndarray
    clusters: list  # [(value, multiplicity)]
    U0: np.ndarray
    U1: np.ndarray
    U2: np.ndarray
    E: np.ndarray
    EEt_residual: float


def cluster_eigenvalues(eigvals: np.ndarray, tol: float = CLUSTER_TOL,
                        multiplicity=None) -> list:
    """[(value, multiplicity)]: sorted eigenvalues chained within tol;
    eigvals[k] counts multiplicity[k] times (default once)."""
    mult = [1] * len(eigvals) if multiplicity is None else multiplicity
    groups: list[list[int]] = []
    for k in np.argsort(eigvals, kind="stable"):
        if not groups or eigvals[k] - eigvals[groups[-1][-1]] > tol:
            groups.append([])
        groups[-1].append(k)
    return [(float(np.average(eigvals[g], weights=[float(mult[k]) for k in g])),
             sum(mult[k] for k in g)) for g in groups]


def hat_l1(m: int, basis: Basis | None = None) -> HatL1System:
    if m < 3:
        raise ValueError("hat_l1 requires m >= 3 (the m=2 block is degenerate)")
    basis = basis if basis is not None else build_basis(m)
    d = m - 1
    E = np.array([np.kron(basis.C[j], basis.C[j]) for j in range(m)])  # m x d^2
    EEt = E @ E.T
    target = ((m - 2) / m) * np.eye(m) + np.full((m, m), 1.0 / m**2)
    eet_residual = float(np.abs(EEt - target).max())
    hat = (((d / m) * np.eye(d * d)) - E.T @ E) / d
    eigvals, eigvecs = np.linalg.eigh(hat)
    clusters = cluster_eigenvalues(eigvals)
    if [mult for _, mult in clusters] != [1, m - 1, d * d - m]:
        raise AssertionError(f"unexpected hat-L(1) multiplicities: {clusters}")
    U1 = eigvecs[:, 1:m]
    U2 = eigvecs[:, m:]
    # scale U0 so that, read as a (m-1)x(m-1) matrix, it is the identity
    v0 = eigvecs[:, 0]
    scale = float(np.eye(d).reshape(-1) @ v0)
    U0 = v0 * (d / scale)
    return HatL1System(m, hat, eigvals, clusters, U0, U1, U2, E, eet_residual)


# ---------------------------------------------------------------------------
# Quadratic forms


def kappa(variant: str, m: int, n: int) -> Fraction:
    if variant not in ("L", "L1", "L2"):
        raise ValueError(f"unknown variant {variant!r}")
    return Fraction(2, factorial(m) ** (n + 1))


def lprime_offset(m: int, n: int, H) -> Fraction:
    """Constant rank-disagreement mass inside single cosets, present in
    the L' form even for IR functions."""
    return Fraction(n * factorial(m) ** n * factorial(m - 1) * (m - H.block_count))


@dataclass
class QuadraticFormValue:
    variant: str
    raw: Fraction | float
    canonical: Fraction | float


def jprofile_histograms(agg: Aggregator, j: int) -> np.ndarray:
    """h[i, r, s, p] = profiles of switch class (i, j, r, s) whose output
    has j-profile id p (0-based j; ids index profile_tables' catalog)."""
    tables = profile_tables(agg.H)
    return class_histograms(tables.pid[agg.table, j], switch_classes(agg.m, agg.n)[:, j],
                            len(tables.catalogs[j]))


def apply_quadratic_form(agg: Aggregator, bundle: LaplacianBundle | None,
                         variant: str) -> QuadraticFormValue:
    """Evaluate one of the three forms on an aggregator, summed over
    single-voter switches.  "L1" (X (x) complement X) and "L2"
    (Y (x) X) are exact: members of cosets c and c' agree on j's rank
    prof_j(c) . prof_j(c') times, so with agg's shared same-rank pair
    counts cnt_same (metrics.pair_count_tensors) and
    S = sum_j sum cnt_same[:, j, :, p, q] dot_j[p, q],

        raw(L'') = (n (m-1)! sum_x sum_j dot_j[p, p] - S) / |H|^2
        raw(L')  = (|H|^2 n m m!^n (m-1)! - S) / |H|^2

    "L" (Y (x) D) is apply_Ln on agg's shared matrix encoding, in
    floats.  ``bundle`` is not read; it stays positional for existing
    callers.
    """
    from .metrics import pair_count_tensors

    m, n, H = agg.m, agg.n, agg.H
    scale = kappa(variant, m, n)
    check_ir_budget(m, n)
    if variant == "L":
        canonical = apply_Ln(encode_g(agg))
        return QuadraticFormValue("L", canonical / float(scale), canonical)
    tables = profile_tables(H)
    _, cnt_same = pair_count_tensors(agg)
    S = 0
    for j in range(m):
        P = len(tables.catalogs[j])
        S += int((cnt_same[:, j, :, :P, :P] * tables.dot[j]).sum())
    hh, k = H.order ** 2, factorial(m - 1)
    if variant == "L1":
        raw = Fraction(hh * n * m * factorial(m) ** n * k - S, hh)
        return QuadraticFormValue("L1", raw, scale * (raw - lprime_offset(m, n, H)))
    # sum_j dot_j[p, p] at f(x) is the squared norm of f(x)'s profiles
    diag = int((tables.prof ** 2).sum(axis=(1, 2))[agg.table].sum())
    raw = Fraction(n * k * diag - S, hh)
    return QuadraticFormValue("L2", raw, scale * raw)


def _class_sum_form(enc: GEncoding) -> float:
    """tr(G L^n G^T) for the matrix encoding, in the basis it was
    encoded with, via the per-class identity: the Y (x) D form on one
    rank class equals (m-1)! sum_a ||v_a||^2 - ||sum_a v_a||^2 with
    v_a = C_j g(a)^T.  The (i, j, r) accumulation order is fixed:
    reports pin its float rounding."""
    idx = switch_classes(enc.m, enc.n)
    k = factorial(enc.m - 1)
    v = np.einsum("jl,xkl->jxk", enc.rho1.basis.C, enc.g)
    norms = np.einsum("jxk,jxk->jx", v, v)
    raw = 0.0
    for i, j, r in np.ndindex(idx.shape[:3]):
        rows = idx[i, j, r]  # (slabs, (m-1)!)
        sums = v[j][rows].sum(axis=1)
        raw += float(k * norms[j][rows].sum() - np.einsum("sk,sk->", sums, sums))
    return raw


def apply_Ln(enc: GEncoding, budget: int = LN_BUDGET) -> float:
    """Canonical IR value from the matrix encoding, matrix-free: the
    n-voter operator is never materialized.  The budget is checked
    first; the value is then computed once per encoding and kept."""
    check_ir_budget(enc.m, enc.n, budget)
    return memoized(enc, "L", lambda e: float(2 * _class_sum_form(e)
                                              / factorial(e.m) ** (e.n + 1)))


def calibrate_kappa(variant: str, m: int, n: int, H,
                    trials: int = 5, seed: int = 0) -> list:
    """Measure canonical-IR / raw-form ratios on random aggregators.
    All ratios must equal kappa(variant) (after the L' offset); tests
    assert exactly that."""
    from .aggregators import random_aggregator
    from .metrics import ir_combinatorial

    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(trials):
        agg = random_aggregator(m, n, H, rng)
        oracle = ir_combinatorial(agg, with_quadratic=False).profile_distance
        qf = apply_quadratic_form(agg, None, variant)
        raw = qf.raw - lprime_offset(m, n, H) if variant == "L1" else qf.raw
        if raw == 0:
            continue
        ratios.append(oracle / raw if isinstance(raw, Fraction) else float(oracle) / raw)
    return ratios


# ---------------------------------------------------------------------------
# Spectra


@dataclass
class SpectralReport:
    m: int
    n: int
    normalization: str
    dim: int
    exhaustive: bool
    gap: float
    min_eigenvalue: float
    clusters: list  # [(value, multiplicity)]

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "normalization": self.normalization,
            "dim": self.dim,
            "exhaustive": self.exhaustive,
            "gap": self.gap,
            "min_eigenvalue": self.min_eigenvalue,
            "eigenvalues": [[v, k] for v, k in self.clusters],
            "note": "",
        }


def build_Ln_dense(m: int, n: int, basis: Basis | None = None) -> np.ndarray:
    """The n-voter operator divided by m!, on profile (x) value space
    with voter 1 most significant and the value index fastest: the
    dense oracle that tests hold spectral_gap to."""
    bundle = build_one_voter(m, basis)
    fact = factorial(m)
    dim = fact**n * (m - 1)
    out = np.zeros((dim, dim))
    for i in range(1, n + 1):
        for j in range(m):
            term = np.kron(np.eye(fact ** (i - 1)), bundle.Y[j].astype(float))
            term = np.kron(term, np.eye(fact ** (n - i)))
            term = np.kron(term, bundle.D[j])
            out += term
    return out / fact


def lin_space_basis(m: int, n: int, table: Rho1Table) -> np.ndarray:
    """Orthonormal basis of the kernel of the n-voter operator on the
    row-function space R^(m!^n * (m-1)): constants plus single-voter
    rho1 rows; dimension (n+1)(m-1)."""
    fact = factorial(m)
    d = m - 1
    cols = []
    for l in range(d):
        vec = np.zeros((fact**n, d))
        vec[:, l] = 1.0
        cols.append(vec.reshape(-1))
    for i in range(1, n + 1):
        for t in range(d):
            cols.append(broadcast_voter(table.R[:, t, :], i, n).reshape(-1))
    Q, _ = np.linalg.qr(np.column_stack(cols))
    return Q


def sector_block(m: int, t: int, C: np.ndarray) -> np.ndarray:
    """(1/m) sum_{i<=t, j} (I - Q^j)_i (x) D^j on (R^(m-1))^(t+1), written
    as (t/m) I - 1/(m-1) sum_{i, j} (D^j)_i (x) D^j since sum_j D^j = I."""
    d = m - 1
    block = (t / m) * np.eye(d ** (t + 1))
    for i in range(t):
        for c in C:
            D = np.outer(c, c)
            block -= np.kron(np.kron(np.eye(d**i), D), np.kron(np.eye(d ** (t - 1 - i)), D)) / d
    return block


def spectral_gap(m: int, n: int, basis: Basis | None = None) -> SpectralReport:
    """Exact spectrum and gap of L^n / m! from the voter sectors (module
    docstring, "Spectrum"); refuses blocks larger than DENSE_LIMIT."""
    d = m - 1
    if d ** (n + 1) > DENSE_LIMIT:
        raise FeasibilityError(f"sector block for m={m}, n={n} exceeds dimension {DENSE_LIMIT}",
                               estimate=f"({d})^{n + 1} = {d ** (n + 1)}")
    C = (basis if basis is not None else build_basis(m)).C
    other = factorial(m) - 1 - d * d  # K, the non-trivial non-rho1 dimension
    values, mults = [], []
    for t in range(n + 1):
        lam = np.linalg.eigvalsh(sector_block(m, t, C))
        for o in range(n - t + 1):
            values.append(o / m + lam)
            mults += [comb(n, t) * comb(n - t, o) * d**t * other**o] * lam.size
    eigvals = np.concatenate(values)
    gap = float(eigvals[eigvals > PSD_TOL].min())
    return SpectralReport(m, n, "L^n / m!", factorial(m) ** n * d, True, gap,
                          float(eigvals.min()), cluster_eigenvalues(eigvals, multiplicity=mults))


def gap_bracket(m: int, n: int) -> tuple[Fraction, Fraction]:
    """[(m-2)/(m(m-1)^2), 1/(m(m-1))]: the two-coordinate block lower
    bound and the single-coordinate smallest nonzero eigenvalue."""
    return Fraction(m - 2, m * (m - 1) ** 2), Fraction(1, m * (m - 1))
