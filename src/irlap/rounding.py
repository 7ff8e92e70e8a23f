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
inner product, <C^T X C, C^T Y C> = tr(X^T Pi Y Pi), Pi = mPi / m.

Every Q^i has zero row and column sums.  Summed over r, F[i, j, r, .]
counts every profile once for each j, and a coset's j-profiles at
position a sum, over j, to h (its rank counts sum to h by row and
column, as `ProfileTables` checks): sum_r Q^i[a, r] = m N h - m N h =
0.  Summed over a, cat[p] sums to h and F[i, ., r, .] counts every
profile once (one j sits at rank r): sum_a Q^i[a, r] = m h N - m N h
= 0.  So Pi Q^i Pi = Q^i; and every row and column of Xb sums to N h,
so Pi Xb Pi = Xb - (N h / m) J.  With tr M_H = #orbits - 1 = ||g_c||^2
for every c, `kernel_projection` reads off Q and Xb directly, exactly:
||A^i||^2 = ||Q^i||^2 / (N h m)^2; ||B||^2 = (||Xb||^2 - (N h)^2) /
(N h)^2; kernel_distance_sq = tr M_H - ||B||^2 - sum_i ||A^i||^2; the
nearest dictator g_c rho1(x_i), at distance^2 2 tr M_H - 2 <g_c, A^i>
(E <g, g_c rho1(x_i)> = <g_c, A^i>, ||g_c||^2 = tr M_H), so the voter
and the coset c are the first maximum, voter-major, of the score
<g_c, A^i> = <Pc[c], Q^i> / (N h^2 m); dictator_distance_sq = 2 tr M_H
- 2 <g_c, A*>, A* = A^voter; and the unconstrained distance^2 to A*
rho1(x_voter), tr M_H - ||A*||^2.
Each of these values is one Fraction over a fixed denominator, from
the integers that `KernelProjection` keeps: a_i = ||Q^i||^2, b =
||Xb||^2 - (N h)^2 and the winning score sc = <Pc[c], Q^voter>.  With
K = tr M_H, U = (N h m)^2 and A = sum_i a_i: ||A^i||^2 = a_i / U,
||B||^2 = b / (N h)^2, kernel_distance_sq = (K U - m^2 b - A) / U and
dictator_distance_sq = 2 (K N h^2 m - sc) / (N h^2 m).
Moment diagnostics run on g / sqrt(tr M_H), with epsilon =
(kernel_distance_sq + ||B||^2) / tr M_H = 1 - S/K.  E ||r||^2, r =
h h^T - M, is exact from n integer m x m Gram matrices; its tail and
fourth moment are certified by the exact ||r(x)||^2 <= R = min(2
(nS/K)^2 + 2/K, 2 (nS/K + 1) n Delta/K), S = sum_i ||A^i||^2, Delta =
S - K + dictator_distance_sq, from rho1 orthogonal, Cauchy-Schwarz
over the voters and ||M||^2 = 1/K (`MomentDiagnostics`), not from the
profiles.
A transitive H (tr M_H = 0) is refused.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from math import factorial, sqrt

import numpy as np

from ._util import memoized
from .aggregators import Aggregator, profile_tables
from .laplacian import check_ir_budget, spectral_gap
from .metrics import ir_combinatorial, pair_count_tensors
from .perms import (
    TRANSITIVE,
    broadcast_voter,
    compose_table,
    enumerate_group,
    format_perm,
    perm_indices,
    rank_table,
)


@dataclass(frozen=True, eq=False)
class KernelProjection:
    """Exact projection onto the kernel span and rounding to the nearest
    dictator (module docstring).  The reported values are one Fraction
    each, built from the kept integers over their fixed denominators."""

    trace: int  # K = tr M_H
    Q: np.ndarray  # (n, m, m) integers, zero margins: A^i = C^T Q[i] C / (m!^n |H| m)
    scale: int  # U = (m!^n |H| m)^2
    sq_norms: tuple  # a_i = ||Q^i||^2 = U ||A^i||^2, per voter
    b: int  # ||Xb||^2 - (m!^n |H|)^2 = (m!^n |H|)^2 ||B||^2
    score: int  # sc = <Pc[coset], Q^voter> = m!^n |H|^2 m <g_coset, A*>
    B_norm_sq: Fraction  # b / (m!^n |H|)^2
    coefficient_norms: tuple  # ||A^i||^2 = a_i / U, per voter
    kernel_distance_sq: Fraction  # (K U - m^2 b - sum_i a_i) / U
    voter: int  # 1-based
    coset: int
    dictator_distance_sq: Fraction  # 2 (K m!^n |H|^2 m - sc) / (m!^n |H|^2 m)


def kernel_projection(agg: Aggregator) -> KernelProjection:
    """The exact projection and rounding of agg from its pair counts and
    H, kept on the rule; refuses where they do."""
    _require_fixing(agg.H)
    check_ir_budget(agg.m, agg.n)
    return memoized(agg, "projection", _project)


def _project(agg: Aggregator) -> KernelProjection:
    m, n, H = agg.m, agg.n, agg.H
    N, h, K = factorial(m) ** n, H.order, H.orbit_count - 1
    tables = profile_tables(H)
    cat = tables.catalog
    # F[i, j, r, p]: profiles where voter i+1 ranks j at r and the output's
    # j-profile is p; cnt_all pairs each of them with all m! reports
    F = pair_count_tensors(agg)[0].sum(axis=-1) // factorial(m)
    # cat does not depend on j, so Q sums F over j first; Xb^T is (j, a)
    Q = m * (F.sum(axis=1) @ cat).transpose(0, 2, 1) - N * h
    Q.setflags(write=False)
    Xb = F[0].sum(axis=1) @ cat
    # Q and Xb have the margins of the module docstring, so no centering;
    # the sums of squares run on Python ints, past int64 at scale
    a = [sum(v * v for v in q) for q in Q.reshape(n, -1).tolist()]
    # N h^2 m <g_c, A^i> per voter i and coset c, <Pc[c], Q^i> with Pc[c][r, j] =
    # prof[c, j, r]; |score| <= m^2 N h^2, below the bound 2 n m! N h^2 of IR's
    # int64 sum.  argmax takes the first maximum, voter-major
    scores = Q.transpose(0, 2, 1).reshape(n, -1) @ tables.prof.reshape(len(tables.prof), -1).T
    best, coset = divmod(int(np.argmax(scores)), scores.shape[1])
    sc, Nh, V = int(scores[best, coset]), N * h, N * h * h * m
    b = sum(v * v for v in Xb.reshape(-1).tolist()) - Nh * Nh
    U = (Nh * m) ** 2
    return KernelProjection(
        trace=K, Q=Q, scale=U, sq_norms=tuple(a), b=b, score=sc,
        B_norm_sq=Fraction(b, Nh * Nh), coefficient_norms=tuple(Fraction(v, U) for v in a),
        kernel_distance_sq=Fraction(K * U - m * m * b - sum(a), U), voter=best + 1,
        coset=coset, dictator_distance_sq=Fraction(2 * (K * V - sc), V),
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
    reps = H.representatives
    shift = comp[inv]  # shift[y, x] = perm_index(compose(inverse(y), x))
    votes = np.arange(fact)
    y = broadcast_voter(votes, n + 1, n + 1)
    w = np.zeros(fact ** (n + 1), dtype=np.int64)  # profile index of (w_1, ..., w_n)
    for i in range(1, n + 1):
        w = w * fact + shift[y, broadcast_voter(votes, i, n + 1)]
    table = H.coset_ids[comp[y, reps[agg.table[w]]]]
    return Aggregator(m, n + 1, H, table, "centered", {"base": agg.kind})


@dataclass
class MomentDiagnostics:
    """Moments of r = h h^T - M on the trace-normalized encoding, the
    Markov tail and the explicit 108 (m-1)^4 C^8 upper bound, C = sqrt(m).

    E ||r||^2 is exact.  With D = m^3 m!^n |H|, K = tr M_H and the integer
    B_i = mPi Q^i mPi = m^2 Q^i (rows and columns sum to 0, module
    docstring), voter i's term of h is C^T Y_i C / (D sqrt K) with Y_i =
    B_i P(x_i), so h h^T = C^T X X^T C / (D^2 K) with X = sum_i Y_i.
    The votes are independent and E Y_i = B_i J / m = 0, so of the voter
    4-tuples in E tr((X X^T)^2) only these remain, with G_i = B_i B_i^T:
    iiii gives tr(G_i^2); iikk tr(G_i G_k); ikki tr G_i tr G_k / (m-1),
    as E P^T W P = tr W Pi / (m-1) when W's rows and columns sum to 0;
    ikik, with R = P(x_i) P(x_k)^T uniform and Z = B_k^T B_i,
    E tr(R Z R Z) = ||Z||^2 / (m-1) = <G_i, G_k> / (m-1).
    Summed, with S = sum_i G_i, and as M = M_H / K, <M_H, C^T Y C> =
    <Pc[0], Y> / |H| for such Y and ||M_H||^2 = K (a projection):

        (m-1) D^4 K^2 E tr((h h^T)^2) = m ||S||^2 + (tr S)^2
                                        - sum_i (||G_i||^2 + (tr G_i)^2),
        E ||r||^2 = E tr((h h^T)^2) - 2 <Pc[0], S> / (|H| D^2 K^2) + 1/K.

    Both terms are unchanged when the B_i and D are scaled by one factor
    (degree 4 over D^4, degree 2 over D^2), so they are evaluated on
    Q^i = B_i / m^2 and D / m^2 = m m!^n |H|.

    r has no mass above degree 2: rho1 is orthogonal, so each i = k term
    of h h^T is the constant A^i A^i^T, and each other one lies in the
    span of rho1_ab(x_i) rho1_cd(x_k).  bound_ok compares E ||r||^2 with
    the bound exactly.

    The pointwise bound R.  With S now the scalar sum_i ||A^i||^2 and the
    rounded dictator h_d = g_c rho1(x_v) / sqrt K, Delta = sum_i ||A^i - A_d^i||^2
    = S - K + dictator_distance_sq (A_d^v = g_c, else 0; ||g_c||^2 = K).
    rho1 is orthogonal, so by Cauchy-Schwarz over the voters ||h||^2 <=
    nS/K and ||h - h_d||^2 <= n Delta/K at every profile.  ||h h^T|| <=
    ||h||^2 and ||M||^2 = 1/K give ||r||^2 <= 2 (nS/K)^2 + 2/K; h_d h_d^T =
    g_c g_c^T / K = M and ||h_d|| = 1 give r = h (h - h_d)^T + (h - h_d)
    h_d^T, ||r||^2 <= (||h|| + 1)^2 ||h - h_d||^2 <= 2 (nS/K + 1) n Delta/K.
    So P(||r|| > alpha) <= tail_prob_bound, 0 if R < alpha^2 = 36 (m-1)^2
    m^4 epsilon, else min(1, tail_markov_bound = E ||r||^2 / alpha^2, 0 at
    epsilon = 0 where r = 0); E r_ab^4 <= E ||r||^4 <= r_norm4_bound = R
    E ||r||^2 in every basis.

    Common denominators.  On the projection's integers (U = (m!^n |H|
    m)^2, a_i = U ||A^i||^2, A = sum_i a_i, so S = A/U) the B terms
    cancel: epsilon = (kernel_distance_sq + ||B||^2) / K = 1 - S/K =
    (K U - A) / (K U).  U Delta = A + K U - 2 m m!^n sc, with sc the
    projection's score, so both branches of R lie over (K U)^2:
    (2 n^2 A^2 + 2 K U^2) and 2 n (n A + K U) U Delta, and the min
    compares the numerators.  alpha^2 and the 108 bound are integer
    multiples of epsilon, and E ||r||^2 is one Fraction, so every
    reported value is one Fraction built from its numerator and
    denominator, and alpha = 6 (m-1) m^2 sqrt((K U - A) / (K U)) is
    the float of the Fraction's: int true division rounds correctly."""

    epsilon: Fraction  # E ||ghat - h||^2 with h the linear (non-constant) part
    r_norm2_mean: Fraction  # E ||r||_F^2
    r_sup_bound: Fraction  # R >= max_x ||r(x)||_F^2
    r_norm4_bound: Fraction  # R E ||r||^2 >= E ||r||_F^4 >= max_ab E r_ab^4
    alpha: float  # 6 (m-1) C^4 sqrt(epsilon)
    tail_prob_bound: Fraction  # >= P(||r|| > alpha)
    tail_markov_bound: Fraction
    bound: Fraction  # 108 (m-1)^4 m^4 epsilon
    bound_ok: bool

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["bound_108m4C8"] = doc.pop("bound")
        return doc


def _r_norm2_mean(proj: KernelProjection, H) -> Fraction:
    """E ||r||^2 from the Gram matrices of the Q^i (MomentDiagnostics)."""
    Q, K, h = proj.Q.astype(object), proj.trace, H.order  # Python ints: degree 4 below
    n, m = Q.shape[:2]
    N = factorial(m) ** n
    G = (Q @ Q.transpose(0, 2, 1)).reshape(n, m * m)
    S, tr = G.sum(axis=0), G[:, ::m + 1].sum(axis=1)  # sum_i G_i, tr G_i
    s4 = m * (S @ S) + tr.sum() ** 2 - (G * G).sum() - (tr * tr).sum()
    # <Pc[0], S>: prof[0] is Pc[0]^T, and S is symmetric
    cross = profile_tables(H).prof[0].reshape(-1).astype(object) @ S
    D = m * N * h
    return Fraction(s4 - 2 * (m - 1) * (D * D // h) * cross + (m - 1) * D**4 * K,
                    (m - 1) * D**4 * K * K)


def _require_fixing(H) -> None:
    """Refuse a one-block partition: its H = S_m is transitive on the
    rank positions, so M_H = 0, and the diagnostics would divide by
    tr M_H = #blocks - 1 = 0."""
    if H.orbit_count == 1:
        raise ValueError(f"{TRANSITIVE}: the rounding diagnostics are undefined")


def fkn_diagnostics(agg: Aggregator) -> MomentDiagnostics:
    """The moment diagnostics of agg, all exact from the integers of its
    kernel projection: epsilon, E ||r||^2, the pointwise bound R on
    ||r||^2 and the tail and fourth-moment bounds it certifies
    (MomentDiagnostics)."""
    proj = kernel_projection(agg)
    m, n, K, U = agg.m, agg.n, proj.trace, proj.scale
    A, KU = sum(proj.sq_norms), proj.trace * proj.scale
    # U Delta, Delta = S - K + dictator_distance_sq = sum_i ||A^i - A_d^i||^2
    u_delta = A + KU - 2 * m * factorial(m) ** n * proj.score
    # R's two branches over their common denominator (K U)^2
    sup = min(2 * n * n * A * A + 2 * K * U * U, 2 * n * (n * A + KU) * u_delta)
    r_norm2 = _r_norm2_mean(proj, agg.H)
    rn, rd = r_norm2.numerator, r_norm2.denominator
    unit = 36 * (m - 1) ** 2 * m**4  # alpha^2 = unit epsilon, epsilon = (K U - A) / (K U)
    # epsilon = 0 makes g = h sqrt(tr M_H), so r = 0 exactly: no tail
    markov = Fraction(0) if A == KU else Fraction(rn * KU, rd * unit * (KU - A))
    tail = Fraction(0) if sup < unit * (KU - A) * KU else min(Fraction(1), markov)
    bound = Fraction(3 * (m - 1) ** 2 * unit * (KU - A), KU)  # 108 (m-1)^4 m^4 epsilon
    alpha = 6 * (m - 1) * m**2 * sqrt((KU - A) / KU)  # 6 (m-1) C^4 sqrt(epsilon), C = sqrt(m)
    return MomentDiagnostics(Fraction(KU - A, KU), r_norm2, Fraction(sup, KU * KU),
                             Fraction(sup * rn, KU * KU * rd), alpha, tail, markov, bound,
                             r_norm2 <= bound)


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
        # IR = 2 E <g, (L^n / m!) g>, so the Rayleigh quotient bounds the
        # kernel distance^2 by IR / (2 gap)
        self.kernel_bound_ok = self.kernel_distance_sq <= self.ir / (2 * self.gap) + 1e-9

    def to_dict(self) -> dict:
        """The fields, the diagnostics' own dict and the IR scale (the
        CLI sorts the keys)."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["diagnostics"] = self.diagnostics.to_dict()
        doc["ir_normalization"] = ("ordered-pair expectation; quadratic forms "
                                   "scaled by 2/m!^(n+1)")
        return doc


@functools.lru_cache(maxsize=16)
def measured_gap(m: int, n: int) -> tuple[float, bool]:
    """The spectral gap of size (m, n) and whether it is exhaustive,
    solved once per size."""
    rep = spectral_gap(m, n)
    return rep.gap, rep.exhaustive


def robustness_report(agg: Aggregator, center: bool = False) -> RobustnessReport:
    """Full pipeline: IR, kernel distance (checked against IR/(2 gap)),
    nearest dictator, rounding, and moment diagnostics, on the shared
    pair counts of agg or of its centered rule.  Refuses
    an H transitive on the rank positions (ValueError), and a centered
    rule past the IR budget before its n+1 voters are built."""
    _require_fixing(agg.H)
    if center:
        check_ir_budget(agg.m, agg.n + 1)
    work = center_aggregator(agg) if center else agg
    ir = ir_combinatorial(work).profile_distance
    proj = kernel_projection(work)
    gap, exhaustive = measured_gap(work.m, work.n)
    # U E ||g - A* rho1(x_voter)||^2, the best without rounding, and U
    # dictator_distance_sq: their ratio is one int / int, correctly rounded
    # as the float of the Fractions' ratio is
    m, N, K = work.m, factorial(work.m) ** work.n, proj.trace
    unconstrained = K * proj.scale - proj.sq_norms[proj.voter - 1]
    dictator = 2 * m * N * (K * N * work.H.order ** 2 * m - proj.score)
    factor = 1.0 if unconstrained == 0 else sqrt(dictator / unconstrained)
    return RobustnessReport(
        m=work.m, n=work.n, ir=ir,
        kernel_distance_sq=proj.kernel_distance_sq, gap=gap, gap_exhaustive=exhaustive,
        voter=proj.voter, coefficient_norms=list(proj.coefficient_norms),
        rounded_sigma=format_perm(enumerate_group(m)[work.H.representatives[proj.coset]]),
        rounded_coset=proj.coset, dictator_distance_sq=proj.dictator_distance_sq,
        rounding_factor=factor, centered=center, diagnostics=fkn_diagnostics(work),
    )
