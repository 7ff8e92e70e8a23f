"""Moment calculus for functions f(x) = tr(A P(x)) whose transform is
supported on the trivial and standard components.

Everything exact runs in rational arithmetic, on Python ints wherever
the denominators can be cleared: the 15x15 Gram matrix of
trivial-isotypic vectors in the fourth tensor power, its determinant
and inverse, the fourth-moment contraction, and the noise-operator
moment transfer.  The fourth moment is

    E_x f(x)^4 = tr( E (A (x) A (x) A (x) A) E^T  *  C15^-1 )

where the rows of E are the 15 invariant delta/ones patterns indexed
by partitions of the four tensor positions, and C15 = E E^T with
C15[p, q] = m^(blocks of join(p, q)).

`blocks_direct` evaluates E (A (x) A (x) A (x) A) E^T as the
definition's pattern sum over the integer matrix X = den * A: entry
[p, q] adds up, over the index tuples constant on the blocks of p,
the product over the blocks Q of q of G_|Q|(i_Q), where G_1 = row
sums, G_2 = X X^T, G_3 = P2 X^T and G_4 = P2 P2^T with the pair
products P2[(a, b), c] = X[a, c] X[b, c].  The factors are gathered
at cached index tuples and summed with one `np.add.reduceat` per q.
No entry or partial sum exceeds m^8 max|X|^4 in magnitude, so when
that is below 2^63 the sums run on int64, and otherwise on Python-int
object arrays (`np.einsum` is avoided: on object arrays it silently
drops to int64).  `moments()` clears denominators the same way.

C15 needs no elimination.  A tuple in [m]^4 constant on the blocks of
p is constant on those of exactly one coarser pattern t, its kernel,
and (m)_|t| = m!/(m-|t|)! tuples have kernel t.  So C15 = Z D Z^T,
with Z[p, t] = 1 when p refines t (the partition lattice's zeta
matrix) and D = diag((m)_|t|).  Z is unitriangular, so det C15 is the
product of D: (m)_4 for the one 4-block pattern, (m)_3 for each of six
3-block ones, (m)_2 for each of seven 2-block ones and m for the
1-block one, which is m^15 (m-1)^14 (m-2)^7 (m-3).  And C15^-1 =
mu^T D^-1 mu, where mu = Z^-1 is the lattice's Mobius function,
mu(p, t) = prod over the blocks B of t of (-1)^(k-1) (k-1)!, k the
blocks of p inside B (Rota 1964).  `build_appendix(m)` checks
Z D Z^T = C15 in Python ints and keeps, once per m, det, adj = det
C15^-1 = mu^T diag(det/(m)_|t|) mu, its read-only float copy adj/det
by correctly rounded int/int division and the Fraction inverse built
on first use.

The noise-operator rules are homogeneous in (sigma, tau), so
`transfer_dual_path` compares the direct moments of T_sigma A with
the closed-form rules over one common integer denominator, with no
Fraction.

Hypercontractivity is decided exactly, from adj and det.  For A with
zero margins (E f = 0) every pattern with a singleton position sums a
margin and vanishes; only the pair-pair patterns E3 (IDX_E3) and the
all-equal one E5 (IDX_E5) survive, so

    E f^4 = (c2 M2^2 + cq Mq + cr Mr + cc Mc + c4 M4) / det

with integer c's summed over adj's E3 + E5 block: c2 over E3's
diagonal, cq off it, cr and cc over the E3-E5 column and row, and
c4 = adj[E5][E5].  E f^2 = M2 / (m-1).  For every A, 0 <= Mq =
||A A^T||_F^2 <= ||A||_F^4 = M2^2 and 0 <= Mr, Mc <= M2^2 (a sum of
squares of nonnegative terms is at most the square of their sum), and
M4 <= min(Mr, Mc) <= (Mr + Mc)/2, as each A_ij^4 is a term of its
row's and of its column's squared square sum.  So, when c4 >= 0
(checked; it holds at every m tested, 4..200),

    E f^4 / (E f^2)^2 <= U(m) = (m-1)^2 (c2 + cq+ + (c4/2 + cr)+
                                         + (c4/2 + cc)+) / det,

with x+ = max(x, 0).  The witness A = (e1 - e2)(e1 - e2)^T has M2 = 4,
Mq = 16, Mr = Mc = 8 and M4 = 4, so the ratio (m-1)^2 (c2 + cq +
(cr + cc)/2 + c4/4) / det is attained.  With M1 = 0 the noise operator
maps A to sigma A, so ||T_sigma f||_4 <= ||f||_2 for every zero-mean f
when sigma^4 U <= 1, and fails at the witness when sigma^4 times its
ratio exceeds 1.  U = 87/8 and the witness ratio 15/8 at m = 4.

Moment operators on A:
    M1 = sum A_ij        M2 = sum A_ij^2     M3, M4 likewise
    Mr = sum_i (row sq sum)^2     Mc = sum_j (col sq sum)^2
    Mq = tr(A A^T A A^T)

Coefficient matrices coming from the supported band have all row sums
and all column sums equal (to M1/m); the closed-form transfer rules
for Mr, Mc, Mq under the noise operator rely on that invariant and the
operations below enforce it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._util import FeasibilityError, blocked_pmap

# The 15 invariant patterns: partitions of the four tensor positions,
# in the appendix layout (singletons; pairs; pair-pairs; triples; all).
PARTITIONS: list[tuple[tuple[int, ...], ...]] = (
    [((0,), (1,), (2,), (3,))]
    + [tuple(sorted([pair] + [(t,) for t in range(4) if t not in pair]))
       for pair in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]]
    + [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    + [tuple(sorted([triple] + [(t,) for t in range(4) if t not in triple]))
       for triple in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]]
    + [((0, 1, 2, 3),)]
)
IDX_E3 = (7, 8, 9)
IDX_E5 = 14
DEGREES = (1, 2, 3, 4, 4, 4, 4)  # of M1, M2, M3, M4, Mr, Mc, Mq
# index tuples per block-audit trial, m^4 + 6m^3 + 7m^2 + m: m = 25
# (488,775) runs, m = 26 (567,190) refuses
AUDIT_TUPLE_LIMIT = 500_000


def _block_of(partition) -> tuple[int, int, int, int]:
    return tuple(next(b for b, block in enumerate(partition) if t in block) for t in range(4))


def _join_block_count(p, q) -> int:
    label = list(_block_of(p))
    for block in q:  # merge the classes that meet this block of q
        merged = {label[t] for t in block}
        label = [min(merged) if v in merged else v for v in label]
    return len(set(label))


@functools.cache
def _join_exponents() -> tuple[tuple[int, ...], ...]:
    """Blocks of join(p, q) for every pair of patterns; m-independent."""
    return tuple(tuple(_join_block_count(p, q) for q in PARTITIONS) for p in PARTITIONS)


def _gram_ints(m: int) -> list[list[int]]:
    return [[m**e for e in row] for row in _join_exponents()]


def _to_int_matrix(A) -> tuple[np.ndarray, int]:
    """Clear denominators: (Python-int object array, common denominator)."""
    A = np.array(A, dtype=object)
    fracs = [Fraction(v) for v in A.flat]
    den = math.lcm(*(v.denominator for v in fracs))
    ints = np.array([v.numerator * (den // v.denominator) for v in fracs], dtype=object)
    return ints.reshape(A.shape), den


@functools.cache
def _zeta_mobius() -> tuple[np.ndarray, np.ndarray]:
    """Z and mu (module docstring) as read-only Python-int object
    arrays; p refines t when join(p, t) is t.  Z mu = I is checked."""
    Z = np.array([[int(e == len(t)) for e, t in zip(row, PARTITIONS)]
                  for row in _join_exponents()], dtype=object)
    mu = np.zeros((15, 15), dtype=object)
    for p, t in zip(*np.nonzero(Z)):
        inside = [_block_of(PARTITIONS[t])[b[0]] for b in PARTITIONS[p]]
        mu[p, t] = math.prod((-1) ** (k - 1) * math.factorial(k - 1)
                             for k in map(inside.count, set(inside)))
    if (Z @ mu).tolist() != np.eye(15, dtype=int).tolist():
        raise AssertionError("the Mobius matrix does not invert the zeta matrix")
    Z.flags.writeable = mu.flags.writeable = False
    return Z, mu


def det_formula(m: int) -> int:
    return m**15 * (m - 1) ** 14 * (m - 2) ** 7 * (m - 3)


@dataclass(frozen=True, eq=False)
class AppendixTables:
    """C15's determinant and inverse: C15^-1 = adj / det with integer
    adj, its float copy, and the Fraction form on first use."""

    m: int
    adj: tuple[tuple[int, ...], ...]
    C15_inv_float: np.ndarray
    det: Fraction

    @functools.cached_property
    def C15_inv(self) -> tuple[tuple[Fraction, ...], ...]:
        det = self.det.numerator
        return tuple(tuple(Fraction(v, det) for v in row) for row in self.adj)


@functools.lru_cache(maxsize=16)  # m = 4..12 of the determinant rows, and --m
def build_appendix(m: int) -> AppendixTables:
    """C15's tables from C15 = Z D Z^T (module docstring); the float
    inverse equals float() of each Fraction.  Shared by every caller."""
    if m <= 3:
        raise ValueError(f"the 15x15 Gram matrix is singular for m={m}: its "
                         f"determinant carries a factor (m-3)")
    d = np.array([math.perm(m, len(t)) for t in PARTITIONS], dtype=object)
    Z, mu = _zeta_mobius()
    if ((Z * d) @ Z.T).tolist() != _gram_ints(m):  # Python ints: no overflow
        raise AssertionError(f"C15 is not Z D Z^T at m={m}")
    det = math.prod(d)
    adj = (mu.T * (det // d)) @ mu
    inv_float = (adj / det).astype(float)  # int/int true division, entry by entry
    inv_float.flags.writeable = False
    return AppendixTables(m, tuple(map(tuple, adj.tolist())), inv_float, Fraction(det))


# ---------------------------------------------------------------------------
# Moment operators


@dataclass
class MomentVector:
    M1: Fraction | float
    M2: Fraction | float
    M3: Fraction | float
    M4: Fraction | float
    Mr: Fraction | float
    Mc: Fraction | float
    Mq: Fraction | float

    def as_tuple(self):
        return (self.M1, self.M2, self.M3, self.M4, self.Mr, self.Mc, self.Mq)


def moments(A) -> MomentVector:
    """The seven moment operators of the trailing (m, m) axes.  A float
    (m, m) ndarray gives floats and a float (k, m, m) stack gives
    length-k arrays, each entry bit-identical to the single-matrix
    value.  Any other input is evaluated exactly: Python ints give
    ints; with any Fraction entry the denominators are cleared once,
    the sums run over Python ints and each value is divided by den^d
    for its degree d, giving Fractions."""
    exact = not (isinstance(A, np.ndarray) and A.dtype.kind == "f")
    den = None
    if exact:
        A = np.array(A, dtype=object)
        if any(isinstance(v, Fraction) for v in A.flat):
            A, den = _to_int_matrix(A)
    AA = A @ np.swapaxes(A, -1, -2)
    sq = A**2
    both = (-2, -1)
    values = (
        A.sum(axis=both), sq.sum(axis=both), (sq * A).sum(axis=both),
        (sq * sq).sum(axis=both),  # not A**4, which floats evaluate through pow
        (sq.sum(axis=-1) ** 2).sum(axis=-1),
        (sq.sum(axis=-2) ** 2).sum(axis=-1),
        (AA * AA).sum(axis=both),
    )
    if den is not None:
        values = [v / Fraction(den**d) for v, d in zip(values, DEGREES)]
    if exact or A.ndim > 2:
        return MomentVector(*values)
    return MomentVector(*map(float, values))


def margin_value(A):
    """Common row/column sum; raises if rows or columns disagree.
    Exact comparison for rational entries, small relative tolerance for
    floats (scaling makes float margins inexact at the last ulp)."""
    rows = [list(r) for r in A]
    n = len(rows)
    rsums = [sum(r) for r in rows]
    csums = [sum(rows[i][j] for i in range(n)) for j in range(n)]
    sums = rsums + csums
    if any(isinstance(v, float) for row in rows for v in row):
        scale = max(abs(v) for row in rows for v in row) * n or 1.0
        equal = max(sums) - min(sums) <= 1e-9 * scale
    else:
        equal = len(set(sums)) == 1
    if not equal:
        raise ValueError(
            f"matrix is outside the supported band: row sums {rsums}, "
            f"column sums {csums} must all be equal"
        )
    return rsums[0]


def mean_value(A, m: int):
    """E_x f = M1(A)/m."""
    m1 = moments(A).M1
    return m1 / m if isinstance(m1, float) else Fraction(m1, m)


def norm2_value(A, m: int):
    """E_x f^2 = (M2 + (m-2) M1^2 / m^2) / (m-1).  The coefficient
    placement follows the two-tensor Gram computation and is certified
    against the exhaustive oracle in the tests; it requires the
    equal-margin invariant."""
    margin_value(A)
    mv = moments(A)
    if isinstance(mv.M1, float):
        return (mv.M2 + (m - 2) * mv.M1**2 / m**2) / (m - 1)
    return (mv.M2 + Fraction((m - 2), m**2) * mv.M1**2) / (m - 1)


# ---------------------------------------------------------------------------
# Exact fourth-moment contraction


@functools.lru_cache(maxsize=16)
def _pattern_tuples(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The index tuples i in [m]^4 that are constant on the blocks of
    each pattern, stacked in PARTITIONS order, and the row where each
    pattern's run starts.  Read-only."""
    runs = []
    for p in PARTITIONS:
        labels = np.indices((m,) * len(p)).reshape(len(p), -1)
        runs.append(labels[list(_block_of(p))].T)
    idx = np.concatenate(runs)
    starts = np.cumsum([0] + [len(r) for r in runs[:-1]])
    idx.flags.writeable = starts.flags.writeable = False
    return idx, starts


def blocks_direct(A) -> list[list[Fraction]]:
    """The full 15x15 matrix E (A tensor^4) E^T as the pattern sum
    described in the module docstring; independent of any transcribed
    table."""
    X, den = _to_int_matrix(A)
    m = len(X)
    if m**8 * max(map(abs, X.flat)) ** 4 < 2**63:  # no sum can overflow int64
        X = X.astype(np.int64)
    idx, starts = _pattern_tuples(m)
    P2 = (X[:, None, :] * X[None, :, :]).reshape(m * m, m)
    G = {1: X.sum(axis=1), 2: (X @ X.T).ravel(),
         3: (P2 @ X.T).ravel(), 4: (P2 @ P2.T).ravel()}
    columns = []
    for q in PARTITIONS:
        term = 1
        for Q in q:
            term = term * G[len(Q)][idx[:, list(Q)] @ m ** np.arange(len(Q))[::-1]]
        columns.append(np.add.reduceat(term, starts).tolist())
    scale = den**4
    return [[Fraction(col[p], scale) for col in columns] for p in range(15)]


def blocks_transcribed(mv: MomentVector, m: int) -> list[list[Fraction]]:
    """The appendix table exactly as printed (including its symmetry
    rule for unlisted blocks).  Kept verbatim as the audit subject; the
    computational path uses blocks_direct."""
    M1, M2, M3, M4, Mr, Mc, Mq = (Fraction(v) for v in mv.as_tuple())
    a1, a13, a112, a22 = M1**4, M1 * M3, M1**2 * M2, M2**2
    B = [[None] * 15 for _ in range(15)]

    def put(block, rows, cols, scale=Fraction(1)):
        for i, r in enumerate(rows):
            for j, c in enumerate(cols):
                B[r][c] = scale * block[i][j]

    E1, E2, E3, E4, E5 = [0], [1, 2, 3, 4, 5, 6], [7, 8, 9], [10, 11, 12, 13], [14]
    put([[a1]], E1, E1)
    put([[a1] * 6], E1, E2, Fraction(1, m))
    put([[a1] * 3], E1, E3, Fraction(m))
    put([[a1] * 4], E1, E4, Fraction(m))
    put([[a1]], E1, E5, Fraction(1, m**2))
    put([[a112 if i == j else a1 * m for j in range(6)] for i in range(6)],
        E2, E2, Fraction(1, m**2))
    e23_rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    put([[a112 if flag else a1 * Fraction(1, m**2) for flag in row] for row in e23_rows],
        E2, E3, Fraction(1, m))
    e24_rows = [(1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1),
                (0, 1, 0, 1), (0, 0, 1, 1)]
    put([[a112 if flag else a1 * Fraction(1, m**2) for flag in row] for row in e24_rows],
        E2, E4, Fraction(1, m))
    put([[a112]] * 6, E2, E5, Fraction(1, m**2))
    put([[a22 if i == j else Mq for j in range(3)] for i in range(3)], E3, E3)
    put([[a112] * 4 for _ in range(3)], E3, E4, Fraction(1, m**2))
    put([[Mc]] * 3, E3, E5)
    put([[a13 * Fraction(1, m) if i == j else a112 for j in range(4)] for i in range(4)],
        E4, E4, Fraction(1, m**2))
    put([[a13]] * 4, E4, E5, Fraction(1, m))
    put([[Mc] * 3], E5, E3)
    put([[M4]], E5, E5)
    for i in range(15):
        for j in range(15):
            if B[i][j] is None:
                B[i][j] = B[j][i]
    return B


def check_audit_budget(m: int) -> None:
    """Refuse an m whose block audit gathers more index tuples per trial,
    m^4 + 6m^3 + 7m^2 + m, than AUDIT_TUPLE_LIMIT (read at call time);
    `irlap moments` runs it before anything is built."""
    tuples = m**4 + 6 * m**3 + 7 * m**2 + m
    if tuples > AUDIT_TUPLE_LIMIT:
        raise FeasibilityError(
            f"block audit for m={m} gathers {tuples:,} index tuples per trial "
            f"> {AUDIT_TUPLE_LIMIT:,}", estimate=f"{tuples:,} index tuples")


def audit_blocks(m: int, trials: int = 3, seed: int = 0) -> dict:
    """Compare the printed table against the direct contraction on
    random equal-margin rational matrices.  Positions that disagree on
    any trial are reported; the direct value is the repaired one."""
    rng = np.random.default_rng(seed)
    bad: set[tuple[int, int]] = set()
    example = {}
    for _ in range(trials):
        A = random_equal_margin(m, rng)
        direct = blocks_direct(A)
        printed = blocks_transcribed(moments(A), m)
        for i in range(15):
            for j in range(15):
                if direct[i][j] != printed[i][j]:
                    bad.add((i, j))
                    example.setdefault(
                        (i, j), (str(printed[i][j]), str(direct[i][j]))
                    )
    return {
        "m": m,
        "trials": trials,
        "positions_checked": 225,
        "positions_repaired": sorted(bad),
        "repair_count": len(bad),
        "examples": {f"{i},{j}": v for (i, j), v in sorted(example.items())[:10]},
    }


def norm4_exact(A, m: int) -> Fraction:
    """E_x f^4 = tr(E (A tensor^4) E^T * C15^-1), exact.  Requires the
    equal-margin invariant and m >= 4."""
    margin_value(A)
    B = blocks_direct(A)
    Cinv = build_appendix(m).C15_inv
    return sum(B[p][q] * Cinv[q][p] for p in range(15) for q in range(15))


# ---------------------------------------------------------------------------
# Noise operator


def apply_Tt(A, sigma):
    """A' = sigma A + (1 - sigma) (M1/m^2) J: the coefficient matrix of
    the noise-smoothed function."""
    rows = [[Fraction(v) for v in r] for r in A]
    m = len(rows)
    m1 = sum(v for r in rows for v in r)
    shift = (1 - Fraction(sigma)) * m1 / m**2
    return [[Fraction(sigma) * v + shift for v in row] for row in rows]


def _transfer_scaled(mv: MomentVector, S, T, m: int) -> tuple:
    """m^2 D^d times the closed-form moments of T_sigma A, for each of
    the seven of degree d, where sigma = S/D and tau = (1 - sigma)/m^2 =
    T/D.  Each rule is homogeneous of degree d in (sigma, tau), so S and
    T stand in for sigma and tau, and the factor m^2 clears the rules'
    divisions by m and m^2: integer moments and integer S, T give
    integers.  The M2 rule carries the factor m^2 on its tau^2 term
    (forced by expanding sum (sigma A_ij + tau M1)^2; the printed rule
    omits it and fails the dual-path check at sigma = 0).  M1 is
    (sigma + tau m^2) M1, which is M1.  The Mr, Mc, Mq rules use the
    equal-margin invariant."""
    M1, M2, M3, M4, Mr, Mc, Mq = mv.as_tuple()
    k = m * m
    # Mr and Mc share every term but the leading one
    margin_terms = (4 * S**3 * T * M1**2 * M2 * m + 2 * S**2 * T**2 * M1**2 * M2 * m**3
                    + 4 * S**2 * T**2 * M1**4 * m + 4 * S * T**3 * M1**4 * m**3
                    + T**4 * M1**4 * m**5)
    return (
        k * (S + T * k) * M1,
        k * (S**2 * M2 + 2 * S * T * M1**2 + T**2 * M1**2 * k),
        k * (S**3 * M3 + 3 * S**2 * T * M1 * M2 + 3 * S * T**2 * M1**3 + T**3 * M1**3 * k),
        k * (S**4 * M4 + 4 * S**3 * T * M1 * M3 + 6 * S**2 * T**2 * M1**2 * M2
             + 4 * S * T**3 * M1**4 + T**4 * M1**4 * k),
        k * S**4 * Mr + margin_terms,
        k * S**4 * Mc + margin_terms,
        k * S**4 * Mq + 4 * S**3 * T * M1**4 + 6 * S**2 * T**2 * M1**4 * k
        + 4 * S * T**3 * M1**4 * k**2 + T**4 * M1**4 * k**3,
    )


def _sigma_scale(sigma, m: int) -> tuple[int, int, int]:
    """(S, T, D) with sigma = S/D and (1 - sigma)/m^2 = T/D: for
    sigma = p/q, D = q m^2, S = p m^2 and T = q - p."""
    s = Fraction(sigma)
    p, q = s.numerator, s.denominator
    return p * m * m, q - p, q * m * m


def moments_after_Tt(mv: MomentVector, sigma, m: int) -> MomentVector:
    """Closed-form transfer of all seven moments under the noise
    operator (`_transfer_scaled`'s rules), as Fractions."""
    S, T, D = _sigma_scale(sigma, m)
    mv = MomentVector(*(Fraction(v) for v in mv.as_tuple()))
    return MomentVector(*(Fraction(v, m * m * D**d)
                          for v, d in zip(_transfer_scaled(mv, S, T, m), DEGREES)))


def transfer_dual_path(A, sigma) -> bool:
    """Whether the direct moments of T_sigma A (`apply_Tt`) equal the
    closed-form transfer of A's moments, for an integer matrix A and a
    rational sigma.  Both sides are compared over the common integer
    denominator m^2 D^d: the direct side is m^2 times the moments of the
    integer matrix D T_sigma A = S A + T M1 J, the other side is
    `_transfer_scaled` of A's integer moments."""
    X = np.array(A, dtype=object)
    m = len(X)
    S, T, _ = _sigma_scale(sigma, m)
    direct = moments(S * X + T * X.sum())
    closed = _transfer_scaled(moments(X), S, T, m)
    return all(m * m * v == w for v, w in zip(direct.as_tuple(), closed))


# ---------------------------------------------------------------------------
# Random matrices and hypercontractivity


def random_equal_margin(m: int, rng, spread: int = 9) -> list[list[int]]:
    """Integer matrix with all row sums and all column sums equal:
    m^2 D - m R - m C + total, plus a random multiple of J."""
    D = rng.integers(-spread, spread + 1, size=(m, m))
    R = D.sum(axis=1)
    Ccol = D.sum(axis=0)
    total = int(D.sum())
    shift = int(rng.integers(-spread, spread + 1))
    out = [
        [int(m * m * D[i, j] - m * R[i] - m * Ccol[j] + total + shift)
         for j in range(m)]
        for i in range(m)
    ]
    return out


def hypercontractivity_check(m: int, sigma=None) -> dict:
    """Decide ||T_sigma f||_4 <= ||f||_2 for every zero-mean band f at
    m exactly, from U(m) and the witness ratio (module docstring), at a
    rational sigma or, by default, at sigma = m^-1/2 (sigma^4 = 1/m^2):
    "holds" when sigma^4 U <= 1, "fails" when sigma^4 times the
    witness ratio exceeds 1, "open" otherwise."""
    if m < 4:
        raise ValueError("hypercontractivity check needs m >= 4")
    tables = build_appendix(m)
    adj, det = tables.adj, tables.det.numerator
    c2 = sum(adj[p][p] for p in IDX_E3)
    cq = sum(adj[p][q] for p in IDX_E3 for q in IDX_E3) - c2
    cr = sum(adj[p][IDX_E5] for p in IDX_E3)
    cc = sum(adj[IDX_E5][p] for p in IDX_E3)
    c4 = adj[IDX_E5][IDX_E5]
    if c4 < 0:
        raise AssertionError(f"c4 = {c4} < 0 at m={m}: M4 <= min(Mr, Mc) bounds no c4 M4")
    scale = (m - 1) ** 2
    U = Fraction(scale * (2 * c2 + 2 * max(cq, 0) + max(c4 + 2 * cr, 0)
                          + max(c4 + 2 * cc, 0)), 2 * det)
    witness = Fraction(scale * (4 * c2 + 4 * cq + 2 * cr + 2 * cc + c4), 4 * det)
    sigma4 = Fraction(1, m * m) if sigma is None else Fraction(sigma) ** 4
    decision = ("holds" if sigma4 * U <= 1 else
                "fails" if sigma4 * witness > 1 else "open")
    return {"m": m, "sigma": f"{m}^(-1/2)" if sigma is None else Fraction(sigma),
            "U": U, "witness": witness, "sigma4_U": sigma4 * U, "decision": decision}


def empirical_m0(m_values=range(4, 13), threads: int = 1) -> dict:
    """`hypercontractivity_check` at sigma = m^-1/2 for each m, on a
    pool of `threads`, and the certified onset: the least m from which
    every check holds (None when the last one does not)."""
    rows = blocked_pmap(hypercontractivity_check, list(m_values), threads)
    m0 = None
    for row in rows:
        if row["decision"] == "holds":
            if m0 is None:
                m0 = row["m"]
        else:
            m0 = None
    return {"rows": rows, "certified_m0": m0}


def matrix_cs_check(d: int, trials: int = 100, seed: int = 0) -> dict:
    """Entrywise-L1 / Frobenius Cauchy-Schwarz: ||AB||_1 <= d ||A||_2
    ||B||_2, tight at A = B = all-ones; a row of the `irlap moments`
    report."""
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
