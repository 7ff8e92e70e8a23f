"""Robustness pipeline: distance from the IR kernel, nearest-dictator
extraction, rounding back to coset-valued form, and the moment
diagnostics behind the dictatorship theorem.

The projection of g onto the kernel span {B + sum_i A^i rho1(x_i)} and
its rounding to the nearest dictator M_H rho1(y) are exact, read off
the pair counts: in F[i, j, r, p] = sum_q cnt_all[i, j, r, p, q] / m!
profiles voter i ranks j at r and the output's j-profile is cat[p].
With N = m!^n, h = |H|, Pc[c] = |H| times coset c's mean of P (an
integer matrix), mPi = m I - J and the sum-zero basis C, g_c =
C^T Pc[c] C / h and

    Q^i = sum_x Pc[f(x)] mPi P(x_i)^T:  Q^i[a, r] = m sum_{j,p} F[i, j, r, p] cat[p, a] - N h,
    Xb = sum_x Pc[f(x)]:                Xb[a, j] = sum_{r,p} F[0, j, r, p] cat[p, a],
    A^i = C^T Q^i C / (N h m),   B = C^T Xb C / (N h)

(`basis.project_to_lin`'s formulas; m Pc[f(x)][a, x_i(r)] - h sees x
only through j = x_i(r) and f(x)'s j-profile).  C drops out of every
inner product, <C^T X C, C^T Y C> = tr(X^T Pi Y Pi), so with tr M_H =
#orbits - 1 = ||g_c||^2 for every c, `kernel_projection` gives exactly:
kernel_distance_sq = tr M_H - ||B||^2 - sum_i ||A^i||^2; the voter, the
first maximum of ||A^i||^2; the coset c, the first maximum of <g_c, A*>;
dictator_distance_sq = 2 tr M_H - 2 <g_c, A*>, as the dictator's value
g_c rho1(x_voter) has E <g, g_c rho1(x_voter)> = <g_c, A*>; and the
unconstrained distance^2 to A* rho1(x_voter), tr M_H - ||A*||^2.
Moment diagnostics run on g / sqrt(tr M_H), with epsilon =
(kernel_distance_sq + ||B||^2) / tr M_H; only r = h h^T - M is
evaluated on every profile, in blocks of BLOCK profiles (at least one
slab of m!^(n-1)), from the n per-voter tables A^i rho1(v): the pass
adds up the moments of r and the sufficient statistics of its
degree-2 residual, so its memory is a few block-sized arrays, not
m!^n (m-1)^2 floats.  A transitive H (tr M_H = 0) is refused.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from math import factorial, sqrt

import numpy as np

from ._util import memoized
from .aggregators import Aggregator, GEncoding, encode_g, profile_tables
from .basis import Rho1Table
from .laplacian import check_ir_budget, spectral_gap
from .metrics import ir_combinatorial, pair_count_tensors
from .perms import (
    broadcast_voter,
    compose_table,
    coset_ids,
    format_perm,
    perm_index,
    perm_indices,
    rank_table,
)

BLOCK = 4096  # profiles per block of fkn_diagnostics (at least one slab); bounds its memory


@dataclass(frozen=True, eq=False)
class KernelProjection:
    """Exact projection onto the kernel span and rounding (module
    docstring)."""

    trace: int  # tr M_H
    Q: np.ndarray  # (n, m, m) integers: A^i = C^T Q[i] C / (m!^n |H| m)
    B_norm_sq: Fraction
    coefficient_norms: tuple  # ||A^i||^2, per voter
    kernel_distance_sq: Fraction
    voter: int  # 1-based
    coset: int
    dictator_distance_sq: Fraction


def _centered(X: np.ndarray) -> np.ndarray:
    """mPi X mPi over Python ints: <C^T X C, C^T Y C> = <_centered(X), Y> / m^2."""
    m = X.shape[-1]
    mPi = (m * np.eye(m, dtype=np.int64) - 1).astype(object)
    return mPi @ X.astype(object) @ mPi


def kernel_projection(enc: GEncoding) -> KernelProjection:
    """The exact projection and rounding of enc's rule from its pair counts
    and H, kept on the rule for all its encodings; refuses where they do."""
    _require_fixing(enc.H)
    check_ir_budget(enc.m, enc.n)
    return memoized(enc.rule, "projection", _project)


def _project(agg: Aggregator) -> KernelProjection:
    m, n, H = agg.m, agg.n, agg.H
    N, h, K = factorial(m) ** n, H.order, H.orbit_count - 1
    tables = profile_tables(H)
    cat = np.array(tables.catalog, dtype=np.int64)
    # F[i, j, r, p]: profiles where voter i+1 ranks j at r and the output's
    # j-profile is p; cnt_all pairs each of them with all m! reports
    F = pair_count_tensors(agg)[0].sum(axis=-1) // factorial(m)
    # C order: the float A that fkn_diagnostics builds from Q rounds by its layout
    Q = m * np.einsum("ijrp,pa->iar", F, cat, order="C") - N * h
    Q.setflags(write=False)
    Xb = np.einsum("jrp,pa->aj", F[0], cat)
    cQ = _centered(Q)
    norms = [Fraction(int((cQ[i] * Q[i]).sum()), (N * h * m * m) ** 2) for i in range(n)]
    best = max(range(n), key=norms.__getitem__)  # max takes the first maximum
    # N h^2 m^3 <g_c, A*> per coset c, <Pc[c], cQ> with Pc[c][r, j] = prof[c, j, r];
    # argmax takes the first maximum
    scores = tables.prof.reshape(len(tables.prof), -1).astype(object) @ cQ[best].T.reshape(-1)
    coset = int(np.argmax(scores))
    B_sq = Fraction(int((_centered(Xb) * Xb).sum()), (N * h * m) ** 2)
    return KernelProjection(
        trace=K, Q=Q, B_norm_sq=B_sq, coefficient_norms=tuple(norms),
        kernel_distance_sq=K - B_sq - sum(norms), voter=best + 1, coset=coset,
        dictator_distance_sq=2 * K - Fraction(2 * scores[coset], N * h * h * m**3),
    )


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

    epsilon: Fraction  # E ||ghat - h||^2 with h the linear (non-constant) part
    r_norm2_mean: float  # E ||r||_F^2
    r_entry4_max: float  # max_ij E r_ij^4
    alpha: float
    tail_prob: float
    bound: Fraction  # 108 (m-1)^4 m^4 epsilon
    bound_ok: bool
    degree2_residual: float

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["bound_108m4C8"] = doc.pop("bound")
        return doc


class Degree2Sums:
    """The sufficient statistics of `degree2_residual` for k scalar
    functions on S_m^n, added up over blocks of profiles in mixed-radix
    order: sum f^2, sum f, the per-voter marginal sums and the per-pair
    ones.  A block covers consecutive leading votes x_1, so it holds
    every row (x_1, x_j) of the pairs with voter 1; those are contracted
    with rho1 on both sides block by block, and the other pairs' (m!,
    m!) sums once, in `residual`.  With sums over all profiles,
    <f, rho1_ab(x_i)> = Rf^T per_i / m!^n, and likewise for pairs."""

    def __init__(self, n: int, table: Rho1Table, k: int):
        fact, d = len(table.perms), table.m - 1
        self.n, self.fact, self.d = n, fact, d
        self.Rf = table.R.reshape(fact, d * d)
        self.rows = 0  # leading votes added so far
        self.sq = np.zeros(k)  # sum f^2
        self.voter = np.zeros((n, k, fact))  # voters 0-based from here on
        self.coef = {j: np.zeros((k, d * d, d * d)) for j in range(1, n)}  # pairs (0, j)
        self.pair = {(i, j): np.zeros((k, fact, fact))
                     for i in range(1, n) for j in range(i + 1, n)}

    def add(self, f: np.ndarray, sq: np.ndarray) -> None:
        """Add the block f (k, #profiles) that follows the blocks added so
        far; sq is f * f."""
        n, fact, Rf = self.n, self.fact, self.Rf
        lead = f.shape[1] // fact ** (n - 1)
        rows = slice(self.rows, self.rows + lead)
        self.rows += lead
        f = f.reshape((len(f), lead) + (fact,) * (n - 1))

        def marginal(*voters):  # sum over the other voters' axes
            axes = tuple(ax for ax in range(1, n + 1) if ax - 1 not in voters)
            return f.sum(axis=axes) if axes else f

        self.sq += sq.sum(axis=1)
        self.voter[0][:, rows] += marginal(0)
        for i in range(1, n):
            self.voter[i] += marginal(i)
        for j in self.coef:
            self.coef[j] += Rf[rows].T @ marginal(0, j) @ Rf
        for i, j in self.pair:
            self.pair[i, j] += marginal(i, j)

    def residual(self) -> np.ndarray:
        N, d, Rf = self.fact**self.n, self.d, self.Rf
        explained = (self.voter[0].sum(axis=1) / N) ** 2  # (E f)^2
        explained += ((self.voter @ Rf / N) ** 2).sum(axis=(0, 2)) * d
        coefs = [*self.coef.values(), *(Rf.T @ p @ Rf for p in self.pair.values())]
        for coef in coefs:
            explained += ((coef / N) ** 2).sum(axis=(1, 2)) * d * d
        return np.maximum(self.sq / N - explained, 0.0)


def degree2_residual(values: np.ndarray, n: int, table: Rho1Table) -> np.ndarray:
    """Squared mass of scalar functions on S_m^n outside the span of
    {1, rho1_ab(x_i), rho1_ab(x_i) rho1_cd(x_j) for i < j}, one per
    column of values (shape (m!^n, k)).  The basis functions are
    orthogonal with norms 1, 1/(m-1), 1/(m-1)^2, so the residual is
    E f^2 minus the squared coefficients: the one-block case of
    `Degree2Sums`, which `fkn_diagnostics` feeds block by block.

    On the entries of r = h h^T - M that `fkn_diagnostics` passes in,
    the residual is exactly 0 in exact arithmetic: h is a sum of
    A^i rho1(x_i), rho1 is orthogonal, so each i = j term of h h^T is
    the constant A^i A^i^T and every other term lies in the span.  The
    reported value is a rounding check."""
    f = values.T
    sums = Degree2Sums(n, table, len(f))
    sums.add(f, f * f)
    return sums.residual()


def _require_fixing(H) -> None:
    """Refuse an H transitive on the rank positions: there M_H = 0, and
    the diagnostics would divide by tr M_H = #orbits - 1 = 0."""
    if H.orbit_count == 1:
        raise ValueError("the output subgroup is transitive on the rank positions "
                         "(M_H = 0): the rounding diagnostics are undefined")


def fkn_diagnostics(enc: GEncoding) -> MomentDiagnostics:
    """The moment diagnostics of enc's rule: epsilon and the bound
    exactly from the kernel projection, the moments of r over every
    profile with h = sum_i A^i rho1(x_i) / sqrt(tr M_H) built from the
    exact A in enc's own basis.  One pass over blocks of BLOCK profiles
    (at least one slab of m!^(n-1)) adds up sum ||r||^2, sum r_ij^4, the
    tail count and the `Degree2Sums` of the entries of r, so no array
    of all m!^n profiles is built."""
    proj = kernel_projection(enc)
    m, n, table, K = enc.m, enc.n, enc.rho1, proj.trace
    fact, d = len(table.perms), m - 1
    eps = (proj.kernel_distance_sq + proj.B_norm_sq) / K
    C = table.basis.C
    A = np.einsum("ak,iab,bl->ikl", C, proj.Q, C) / (
        fact**n * enc.H.order * m * sqrt(K))
    # T[i, :, :, v] = A^i rho1(v); profiles run along the last axis
    T = np.einsum("ikt,vtl->iklv", A, table.R)
    rest = np.zeros((d, d, 1))  # sum over voters 2..n of A^i rho1(x_i)
    for i in range(1, n):
        rest = (rest[..., None] + T[i][:, :, None]).reshape(d, d, -1)
    M = enc.g_coset[0][..., None] / K  # g_coset[0] = M_H
    alpha = 6 * (m - 1) * m**2 * sqrt(eps)  # 6 (m-1) C^4 sqrt(epsilon), C = sqrt(m)
    sums, fourth, tail = Degree2Sums(n, table, d * d), np.zeros(d * d), 0
    step = max(1, BLOCK // fact ** (n - 1))  # leading votes per block
    for lead in range(0, fact, step):
        h = (T[0][:, :, lead:lead + step, None] + rest[:, :, None]).reshape(d, d, -1)
        r = np.einsum("klx,tlx->ktx", h, h)  # h h^T, profile by profile
        del h  # at most two block-sized arrays are alive at a time
        r -= M
        f = r.reshape(d * d, -1)
        sq = f * f
        tail += int(np.count_nonzero(np.sqrt(sq.sum(axis=0)) > alpha))
        sums.add(f, sq)
        sq *= sq  # r^4 without pow
        fourth += sq.sum(axis=1)
        del r, f, sq
    N = fact**n
    r_norm2 = float(sums.sq.sum() / N)
    # epsilon = 0 makes g = h sqrt(tr M_H), so r = 0 exactly: no tail
    tail_prob = 0.0 if eps == 0 else tail / N
    bound = 108 * (m - 1) ** 4 * m**4 * eps
    return MomentDiagnostics(eps, r_norm2, float(fourth.max() / N), alpha, tail_prob,
                             bound, r_norm2 <= bound + 1e-9,
                             float(sums.residual().max()))


@dataclass
class RobustnessReport:
    m: int
    n: int
    ir: Fraction
    kernel_distance_sq: Fraction
    gap: float
    gap_exhaustive: bool
    voter: int
    coefficient_norms: list
    rounded_sigma: str
    rounded_coset: int
    dictator_distance_sq: Fraction
    rounding_factor: float
    centered: bool
    diagnostics: MomentDiagnostics
    kernel_bound_ok: bool = field(init=False)

    def __post_init__(self):
        self.kernel_bound_ok = self.kernel_distance_sq <= self.ir / self.gap + 1e-9

    def to_dict(self) -> dict:
        """The fields, the diagnostics' own dict and the IR scale (the
        CLI sorts the keys)."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["diagnostics"] = self.diagnostics.to_dict()
        doc["ir_normalization"] = ("ordered-pair expectation; quadratic forms "
                                   "scaled by 2/m!^(n+1)")
        return doc


_GAP_CACHE: dict[tuple[int, int], tuple[float, bool]] = {}


def measured_gap(m: int, n: int) -> tuple[float, bool]:
    if (m, n) not in _GAP_CACHE:
        rep = spectral_gap(m, n)
        _GAP_CACHE[m, n] = (rep.gap, rep.exhaustive)
    return _GAP_CACHE[m, n]


def robustness_report(agg: Aggregator, center: bool = False) -> RobustnessReport:
    """Full pipeline: IR, kernel distance (checked against IR/gap),
    nearest dictator, rounding, and moment diagnostics, on the shared
    pair counts and encoding of agg or of its centered rule.  Refuses
    (ValueError) an H transitive on the rank positions."""
    _require_fixing(agg.H)
    work = center_aggregator(agg) if center else agg
    ir = ir_combinatorial(work).profile_distance
    enc = encode_g(work)
    proj = kernel_projection(enc)
    gap, exhaustive = measured_gap(work.m, work.n)
    # E ||g - A* rho1(x_voter)||^2, the best without rounding
    unconstrained = proj.trace - proj.coefficient_norms[proj.voter - 1]
    factor = 1.0 if unconstrained == 0 else sqrt(proj.dictator_distance_sq / unconstrained)
    return RobustnessReport(
        m=work.m, n=work.n, ir=ir,
        kernel_distance_sq=proj.kernel_distance_sq, gap=gap, gap_exhaustive=exhaustive,
        voter=proj.voter, coefficient_norms=list(proj.coefficient_norms),
        rounded_sigma=format_perm(work.H.cosets[proj.coset].representative),
        rounded_coset=proj.coset, dictator_distance_sq=proj.dictator_distance_sq,
        rounding_factor=factor, centered=center, diagnostics=fkn_diagnostics(enc),
    )
