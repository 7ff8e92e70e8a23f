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
    offset = n * m!^n * (m-1)! * (m - #orbits(H))

The factor 2 converts the Laplacian's unordered edge sum into the
ordered-pair expectation.  The L' offset is the rank-disagreement mass
between members of one coset; it vanishes only when cosets are
singletons.  The L' and L'' constants are asserted against the
exhaustive rational oracle (tests/reference_loops.calibrate_kappa);
the L constant is proved below.

Switch classes.  Every form is a sum over single-voter switches: hold
all voters but i fixed and group voter i's rankings by the rank r they
give alternative j.  Each such (i, j, r, others) group of (m-1)!
profiles is a switch class.  metrics.pair_count_tensors counts, one
voter at a time, the output j-profiles of every class and keeps only
their pair counts; every alternative reads one catalog of j-profiles
(aggregators.ProfileTables), so L, L', L'' and IR are each one
contraction of the same-rank part cnt_same with a (P, P) catalog
table, and the kernel projection is the first moment of cnt_all.
This module makes no pass over the profiles.

IR = L.  The L form is IR, class by class.  With P(y) the permutation
matrix of y (basis module), rho1(y) = C^T P(y) C, C^T 1 = 0 and
C C^T = Pi = I - J/m.  The mean of P(y) over coset c is Pc / |H|,
where Pc[r, j] = prof[c, j, r] counts the members ranking j at r; its
rows and columns all sum to |H|, so Pc Pi = Pc - |H| J / m, and with
g_c = C^T Pc C / |H| the coset's mean of rho1 (aggregators.encode_g)

    W_j[c] = g_c C_j = C^T Pc Pi e_j / |H| = C^T prof_j(c) / |H|.

Two j-profiles differ by a sum-zero vector, which C C^T fixes, so
||W_j[c] - W_j[c']||^2 = dist2[pid(c, j), pid(c', j)] / |H|^2.  On one
class the Y (x) D form is (m-1)! sum_a ||v_a||^2 - ||sum_a v_a||^2 =
(1/2) sum_{a,b} ||v_a - v_b||^2 with v_a = W_j[f(a)], hence

    raw(L) = sum cnt_same[i, j, r, p, q] dist2[p, q] / (2 |H|^2),

and the canonical L value is IR exactly, in every basis.  The one fact
about the catalog this uses is checked in integers once per subgroup,
when its ProfileTables is built: every coset's Pc has rows and
columns summing to |H|, so with mPi = m I - J it has
mPi Pc mPi = m (m Pc - |H| J), and the columns mPi Pc mPi e_j of two
cosets are at squared distance m^4 dist2.  tests/reference_loops keeps
the float class sums (_class_sum_form) as the identity's oracle.

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

from ._util import FeasibilityError, size_past
from .aggregators import Aggregator, profile_tables
from .basis import Basis, Rho1Table, build_basis
from .perms import broadcast_voter, rank_table

DENSE_LIMIT = 5000  # largest sector block spectral_gap diagonalizes
LN_BUDGET = 2 * 10**8  # bound on n * m * (m!)^(n+1)
PSD_TOL = 1e-9
CLUSTER_TOL = 1e-7


def check_ir_budget(m: int, n: int) -> None:
    """Refuse an (m, n) whose IR evaluation costs n m (m!)^(n+1) over
    LN_BUDGET (read at call time); callers can run it before building
    anything.  IR, the pair counts and the three forms all refuse here."""
    cost = size_past(LN_BUDGET, n * m, factorial(m), n + 1, 2)
    if cost:
        raise FeasibilityError(
            f"combinatorial IR budget exceeded: {cost} > {LN_BUDGET:.0e}", estimate=cost)


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
    """The rho1-isotypic block of the one-voter operator: its three
    exact eigenvalues {0, 1/(m(m-1)), 1/m}, of multiplicities
    {1, m-1, (m-1)^2 - m}, and its kernel vector U0."""

    m: int
    matrix: np.ndarray
    eigenvalues: np.ndarray
    clusters: list  # [(value, multiplicity)]
    U0: np.ndarray
    E: np.ndarray
    EEt_residual: float


def cluster_eigenvalues(eigvals: np.ndarray, multiplicity=None) -> list:
    """[(value, multiplicity)]: sorted eigenvalues chained within
    CLUSTER_TOL (read at call time); eigvals[k] counts multiplicity[k]
    times (default once)."""
    mult = [1] * len(eigvals) if multiplicity is None else multiplicity
    groups: list[list[int]] = []
    for k in np.argsort(eigvals, kind="stable"):
        if not groups or eigvals[k] - eigvals[groups[-1][-1]] > CLUSTER_TOL:
            groups.append([])
        groups[-1].append(k)
    return [(float(np.average(eigvals[g], weights=[float(mult[k]) for k in g])),
             sum(mult[k] for k in g)) for g in groups]


def hat_l1(m: int, basis: Basis | None = None) -> HatL1System:
    if m < 3:
        raise ValueError("hat_l1 requires m >= 3 (the m=2 block is degenerate)")
    if (m - 1) ** 2 > DENSE_LIMIT:  # hat-L(1) is the t = 1 sector block
        raise FeasibilityError(f"hat-L(1) for m={m} has dimension ({m - 1})^2 = "
                               f"{(m - 1) ** 2} > {DENSE_LIMIT}", estimate=f"{(m - 1) ** 2}")
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
    # scale U0 so that, read as a (m-1)x(m-1) matrix, it is the identity
    v0 = eigvecs[:, 0]
    scale = float(np.eye(d).reshape(-1) @ v0)
    U0 = v0 * (d / scale)
    return HatL1System(m, hat, eigvals, clusters, U0, E, eet_residual)


# ---------------------------------------------------------------------------
# Quadratic forms


def kappa(variant: str, m: int, n: int) -> Fraction:
    if variant not in ("L", "L1", "L2"):
        raise ValueError(f"unknown variant {variant!r}")
    return Fraction(2, factorial(m) ** (n + 1))


def lprime_offset(m: int, n: int, H) -> Fraction:
    """Constant rank-disagreement mass inside single cosets, present in
    the L' form even for IR functions; #orbits(H) is H's number of
    blocks."""
    return Fraction(n * factorial(m) ** n * factorial(m - 1) * (m - H.orbit_count))


@dataclass
class QuadraticFormValue:
    variant: str
    raw: Fraction
    canonical: Fraction


def apply_quadratic_form(agg: Aggregator, bundle: LaplacianBundle | None,
                         variant: str) -> QuadraticFormValue:
    """Evaluate one of the three forms on an aggregator, summed over
    single-voter switches; all three are exact.  "L1" (X (x) complement
    X) and "L2" (Y (x) X): members of cosets c and c' agree on j's rank
    prof_j(c) . prof_j(c') times, so with the same-rank block kept beside
    agg's IR value (cnt_same summed over voters, alternatives and ranks,
    `metrics.IRValue.same_rank`) and the one catalog's inner products
    dot, S = sum block[p, q] dot[p, q],

        raw(L'') = (n (m-1)! sum_x sum_j ||prof_j(f(x))||^2 - S) / |H|^2
        raw(L')  = (|H|^2 n m m!^n (m-1)! - S) / |H|^2

    and each canonical value, kappa (raw - offset), is one Fraction over
    |H|^2 m!^(n+1).  "L" (Y (x) D) is apply_Ln.  ``bundle`` is not read;
    it stays positional for existing callers.
    """
    from .metrics import ir_combinatorial

    m, n, H = agg.m, agg.n, agg.H
    if variant not in ("L", "L1", "L2"):
        raise ValueError(f"unknown variant {variant!r}")
    hh, N, k = H.order ** 2, factorial(m) ** n, factorial(m - 1)
    if variant == "L":  # canonical = kappa raw = 2 raw / m!^(n+1)
        canonical = apply_Ln(agg)
        raw = Fraction(canonical.numerator * N * m * k, 2 * canonical.denominator)
        return QuadraticFormValue("L", raw, canonical)
    tables = profile_tables(H)
    S = int((ir_combinatorial(agg).same_rank * tables.dot).sum())
    if variant == "L1":
        raw = hh * n * m * N * k - S
        offset = hh * lprime_offset(m, n, H)
    else:
        diag = int((tables.prof ** 2).sum(axis=(1, 2))[agg.table].sum())
        raw, offset = n * k * diag - S, 0
    return QuadraticFormValue(variant, Fraction(raw, hh),
                              Fraction(2 * (raw - offset), hh * N * m * k))


def apply_Ln(agg: Aggregator) -> Fraction:
    """Canonical value of the L form on agg: exactly IR (module
    docstring, "IR = L"), agg's kept IR value, reduced from its shared
    same-rank pair counts.  The n-voter operator is never built;
    refuses where the counts do."""
    from .metrics import ir_combinatorial

    return ir_combinatorial(agg).profile_distance


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
            mult = comb(n, t) * comb(n - t, o) * d**t * other**o
            if mult:  # K = 0 at m = 2 empties every sector with o >= 1
                values.append(o / m + lam)
                mults += [mult] * lam.size
    eigvals = np.concatenate(values)
    positive = eigvals[eigvals > PSD_TOL]
    if not positive.size:
        raise ValueError(f"L^n / m! is zero for m={m}, n={n}: no spectral gap")
    gap = float(positive.min())
    return SpectralReport(m, n, "L^n / m!", factorial(m) ** n * d, True, gap,
                          float(eigvals.min()), cluster_eigenvalues(eigvals, multiplicity=mults))


def gap_bracket(m: int, n: int) -> tuple[Fraction, Fraction]:
    """[(m-2)/(m(m-1)^2), 1/(m(m-1))]: the two-coordinate block lower
    bound and the single-coordinate smallest nonzero eigenvalue."""
    return Fraction(m - 2, m * (m - 1) ** 2), Fraction(1, m * (m - 1))
