"""Robustness pipeline: distance from the IR kernel, nearest-dictator
extraction, rounding back to coset-valued form, and the moment
diagnostics behind the dictatorship theorem.

The pipeline takes an aggregator with small IR, projects its matrix
encoding onto the kernel span {B + sum_i A^i rho1(x_i)}, picks the
voter with the largest coefficient mass, rounds that coefficient to
the nearest realizable dictator matrix M_H rho1(y), and reports the
resulting distances.  Moment diagnostics run on the trace-normalized
encoding (divided by sqrt(tr M_H), the measured trace, so the
constraint matrix has unit trace).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

import numpy as np

from .aggregators import Aggregator, GEncoding, encode_g, make_dictator
from .basis import LinFunction, Rho1Table, project_to_lin
from .laplacian import spectral_gap
from .metrics import ir_combinatorial
from .perms import (
    broadcast_voter,
    compose_table,
    coset_ids,
    format_perm,
    perm_index,
    perm_indices,
    rank_table,
)


def kernel_distance(enc: GEncoding):
    """Projection of g onto the kernel span and the squared L2 distance
    E_x ||g - lin||_F^2, in the encoding's own rho1."""
    return project_to_lin(enc.g, enc.n, enc.rho1)


def nearest_dictator(lin: LinFunction) -> tuple[int, np.ndarray]:
    """Voter with the largest squared coefficient mass ||A^i||_F^2;
    ties go to the lowest index."""
    norms = [float((lin.A[i] ** 2).sum()) for i in range(lin.n)]
    i_star = int(np.argmax(norms))  # argmax returns the first maximum
    return i_star + 1, lin.A[i_star]


@dataclass
class RoundResult:
    coset_id: int
    sigma: tuple[int, ...]  # canonical representative of the rounded relabeling
    aggregator: Aggregator
    candidate_distance: float  # ||A* - M_H rho1(sigma)||_F


def round_to_consistent(enc: GEncoding, A_star: np.ndarray, voter: int) -> RoundResult:
    """Exhaustive nearest-point search over the realizable dictator
    coefficients {M_H rho1(y)}: the encoding's coset means, one
    candidate per coset of H."""
    dists = np.sqrt(((enc.g_coset - A_star[None]) ** 2).sum(axis=(1, 2)))
    c_star = int(np.argmin(dists))
    sigma = enc.H.cosets[c_star].representative
    agg = make_dictator(voter, sigma, enc.H, enc.n)
    return RoundResult(c_star, sigma, agg, float(dists[c_star]))


def center_aggregator(agg: Aggregator) -> Aggregator:
    """Mean-zero reduction via a dummy voter: the returned (n+1)-voter
    aggregator composes the output with the dummy vote,

        f'(x, y) = coset(compose(y, rep of f(w))),
        w_i = compose(inverse(y), x_i),

    which forces E g' = 0 while preserving consistency, membership in
    the kernel span, and dictator structure (a constant f becomes a
    dictator on the dummy voter)."""
    m, n, H = agg.m, agg.n, agg.H
    fact = factorial(m)
    comp = compose_table(m)
    inv = perm_indices(rank_table(m).T)  # the rank columns are the inverse words
    reps = np.array([perm_index(c.representative) for c in H.cosets])
    shift = comp[inv]  # shift[y, x] = perm_index(compose(inverse(y), x))
    votes = np.arange(fact)
    y = broadcast_voter(votes, n + 1, n + 1)
    w = np.zeros(fact ** (n + 1), dtype=np.int64)  # profile index of (w_1, ..., w_n)
    for i in range(1, n + 1):
        w = w * fact + shift[y, broadcast_voter(votes, i, n + 1)]
    table = coset_ids(H)[comp[y, reps[agg.table[w]]]]
    return Aggregator(m, n + 1, H, table, "centered", {"base": agg.kind})


@dataclass
class MomentDiagnostics:
    """Second/fourth moments of r = h h^T - M on the trace-normalized
    encoding, the Markov tail at the optimizing threshold, and the
    explicit 108 (m-1)^4 C^8 upper bound with C = sqrt(m)."""

    epsilon: float  # E ||ghat - h||^2 with h the linear (non-constant) part
    r_norm2_mean: float  # E ||r||_F^2
    r_entry4_max: float  # max_ij E r_ij^4
    alpha: float
    tail_prob: float
    bound: float  # 108 (m-1)^4 m^4 epsilon
    bound_ok: bool
    degree2_residual: float

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "r_norm2_mean": self.r_norm2_mean,
            "r_entry4_max": self.r_entry4_max,
            "alpha": self.alpha,
            "tail_prob": self.tail_prob,
            "bound_108m4C8": self.bound,
            "bound_ok": self.bound_ok,
            "degree2_residual": self.degree2_residual,
        }


def degree2_residual(values: np.ndarray, n: int, table: Rho1Table) -> np.ndarray:
    """Squared mass of scalar functions on S_m^n outside the span of
    {1, rho1_ab(x_i), rho1_ab(x_i) rho1_cd(x_j) for i < j}, one per
    column of values (shape (m!^n, k)).  The basis functions are
    orthogonal with norms 1, 1/(m-1), 1/(m-1)^2.

    On the entries of r = h h^T - M that `fkn_diagnostics` passes in,
    the residual is exactly 0 in exact arithmetic: h is a sum of
    A^i rho1(x_i), rho1 is orthogonal, so each i = j term of h h^T is
    the constant A^i A^i^T and every other term lies in the span.  The
    reported value is a rounding check."""
    fact = len(table.perms)
    d = table.m - 1
    f = values.reshape((fact,) * n + (-1,))
    voters = tuple(range(n))
    total = (f**2).mean(axis=voters)
    explained = f.mean(axis=voters) ** 2
    Rf = table.R.reshape(fact, d * d)
    for i in range(n):
        per = f.mean(axis=tuple(ax for ax in voters if ax != i))  # (m!, k)
        coef = Rf.T @ per / fact  # <f, rho_ab(x_i)>
        explained += (coef**2).sum(axis=0) * d
    for i in range(n):
        for j in range(i + 1, n):
            per = f.mean(axis=tuple(ax for ax in voters if ax not in (i, j)))
            per = np.moveaxis(per, -1, 0)  # (k, m!, m!) over (x_i, x_j)
            coef = Rf.T @ per @ Rf / fact**2  # <f, rho_ab(x_i) rho_cd(x_j)>
            explained += (coef**2).sum(axis=(1, 2)) * d * d
    return np.maximum(total - explained, 0.0)


def fkn_diagnostics(enc: GEncoding) -> MomentDiagnostics:
    m, table = enc.m, enc.rho1
    MH = enc.g_coset[0]  # the identity's coset is H itself
    K = float(np.trace(MH))
    ghat = enc.g / np.sqrt(K)
    lin, _ = project_to_lin(ghat, enc.n, table)
    h_vals = lin.evaluate_all(table) - lin.B[None]  # linear part only
    eps = float(((ghat - h_vals) ** 2).sum(axis=(1, 2)).mean())
    Mhat = MH / K
    r = np.einsum("xkl,xtl->xkt", h_vals, h_vals) - Mhat[None]
    r_norm2 = float((r**2).sum(axis=(1, 2)).mean())
    r_entry4 = float((r**4).mean(axis=0).max())
    C4 = m**2  # C = sqrt(m)
    alpha = 6 * (m - 1) * C4 * np.sqrt(eps)
    tail = float((np.sqrt((r**2).sum(axis=(1, 2))) > alpha).mean())
    bound = 108 * (m - 1) ** 4 * m**4 * eps
    deg2 = float(degree2_residual(r.reshape(len(r), -1), enc.n, table).max())
    return MomentDiagnostics(eps, r_norm2, r_entry4, alpha, tail,
                             bound, r_norm2 <= bound + 1e-9, deg2)


def matrix_cs_check(d: int, trials: int = 100, seed: int = 0) -> dict:
    """Entrywise-L1 / Frobenius Cauchy-Schwarz: ||AB||_1 <= d ||A||_2
    ||B||_2, tight at A = B = all-ones."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        A = rng.standard_normal((d, d))
        B = rng.standard_normal((d, d))
        lhs = float(np.abs(A @ B).sum())
        rhs = d * float(np.linalg.norm(A) * np.linalg.norm(B))
        worst = max(worst, lhs / rhs)
    J = np.ones((d, d))
    tight = float(np.abs(J @ J).sum()) / (d * np.linalg.norm(J) ** 2)
    return {"d": d, "trials": trials, "max_ratio": worst, "tight_ratio": tight,
            "holds": worst <= 1 + 1e-12, "tight": abs(tight - 1) < 1e-12}


@dataclass
class RobustnessReport:
    m: int
    n: int
    ir: float
    kernel_distance_sq: float
    gap: float
    gap_exhaustive: bool
    voter: int
    coefficient_norms: list
    rounded_sigma: str
    rounded_coset: int
    dictator_distance_sq: float
    rounding_factor: float
    centered: bool
    diagnostics: MomentDiagnostics
    kernel_bound_ok: bool = field(init=False)

    def __post_init__(self):
        self.kernel_bound_ok = self.kernel_distance_sq <= self.ir / self.gap + 1e-9

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "ir": self.ir,
            "ir_normalization": "ordered-pair expectation; quadratic forms "
                                "scaled by 2/m!^(n+1)",
            "kernel_distance_sq": self.kernel_distance_sq,
            "gap": self.gap,
            "gap_exhaustive": self.gap_exhaustive,
            "kernel_bound_ok": self.kernel_bound_ok,
            "voter": self.voter,
            "coefficient_norms": self.coefficient_norms,
            "rounded_sigma": self.rounded_sigma,
            "rounded_coset": self.rounded_coset,
            "dictator_distance_sq": self.dictator_distance_sq,
            "rounding_factor": self.rounding_factor,
            "centered": self.centered,
            "diagnostics": self.diagnostics.to_dict(),
        }


_GAP_CACHE: dict[tuple[int, int], tuple[float, bool]] = {}


def measured_gap(m: int, n: int) -> tuple[float, bool]:
    if (m, n) not in _GAP_CACHE:
        rep = spectral_gap(m, n)
        _GAP_CACHE[m, n] = (rep.gap, rep.exhaustive)
    return _GAP_CACHE[m, n]


def robustness_report(agg: Aggregator, center: bool = False,
                      ir: Fraction | None = None) -> RobustnessReport:
    """Full pipeline: IR, kernel distance (checked against IR/gap),
    nearest dictator, rounding, and moment diagnostics, all on one
    encoding.  A given `ir` is agg's exact IR and is reused; a centered
    rule's own IR is always computed."""
    work = center_aggregator(agg) if center else agg
    if ir is None or center:
        ir = ir_combinatorial(work, with_quadratic=False).profile_distance
    ir = float(ir)
    enc = encode_g(work)
    lin, dist_sq = kernel_distance(enc)
    gap, exhaustive = measured_gap(work.m, work.n)
    voter, A_star = nearest_dictator(lin)
    rounded = round_to_consistent(enc, A_star, voter)
    rounded_g = enc.g_coset[rounded.aggregator.table]
    dict_dist_sq = float(((enc.g - rounded_g) ** 2).sum(axis=(1, 2)).mean())
    # unconstrained best on the chosen voter: h = A* rho1(x_voter)
    h_vals = broadcast_voter(np.einsum("kt,xtl->xkl", A_star, enc.rho1.R), voter, work.n)
    unconstrained = float(np.sqrt(((enc.g - h_vals) ** 2).sum(axis=(1, 2)).mean()))
    rounded_dist = float(np.sqrt(dict_dist_sq))
    factor = rounded_dist / unconstrained if unconstrained > 1e-12 else 1.0
    diag = fkn_diagnostics(enc)
    return RobustnessReport(
        m=work.m, n=work.n, ir=ir,
        kernel_distance_sq=dist_sq, gap=gap, gap_exhaustive=exhaustive,
        voter=voter,
        coefficient_norms=[float((lin.A[i] ** 2).sum()) for i in range(lin.n)],
        rounded_sigma=format_perm(rounded.sigma), rounded_coset=rounded.coset_id,
        dictator_distance_sq=dict_dist_sq, rounding_factor=factor,
        centered=center, diagnostics=diag,
    )
