"""Exact rank-independence metrics, the exhaustive zero-locus census,
and manipulation power.

All rates here are exact rationals computed by counting: a profile
pair enters through integer-valued j-profile tables, and expectations
divide by m!^(n+1) at the end.  The canonical IR value is the
ordered-pair expectation of the squared j-profile distance; the
indicator variant replaces the squared distance by [profiles differ].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from ._util import FeasibilityError, expect_json, memoized, parse_fraction
from .aggregators import Aggregator, encode_g, make_dictator, profile_tables
from .laplacian import LN_BUDGET, apply_Ln, check_ir_budget, jprofile_histograms
from .perms import FixingSubgroup, enumerate_group, switch_classes

CENSUS_LIMIT = 2 * 10**6


@dataclass
class IRValue:
    profile_distance: Fraction
    indicator: Fraction
    quadratic: float | None = None

    @property
    def is_ir(self) -> bool:
        return self.indicator == 0


def pair_count_tensors(agg: Aggregator) -> tuple[np.ndarray, np.ndarray]:
    """Count ordered single-switch pairs, bucketed per voter by
    (alternative, truthful rank, truthful profile id, reported profile
    id).  cnt_all counts every (x_i, y_i) pair; cnt_same only pairs
    whose reported vote keeps the rank of the alternative.  Refuses
    where IR refuses; otherwise the read-only arrays are counted once
    per aggregator and shared.
    """
    check_ir_budget(agg.m, agg.n)
    return memoized(agg, "pair_counts", _count_pairs)


def _count_pairs(agg: Aggregator) -> tuple[np.ndarray, np.ndarray]:
    m, n = agg.m, agg.n
    nprof = max(len(cat) for cat in profile_tables(agg.H).catalogs)
    cnt_all = np.zeros((n, m, m, nprof, nprof), dtype=np.int64)
    cnt_same = np.zeros_like(cnt_all)
    for j in range(m):
        h = jprofile_histograms(agg, j)
        P = h.shape[-1]
        cnt_same[:, j, :, :P, :P] = np.einsum("irsp,irsq->irpq", h, h)
        cnt_all[:, j, :, :P, :P] = np.einsum("irsp,isq->irpq", h, h.sum(axis=1))
    cnt_all.setflags(write=False)
    cnt_same.setflags(write=False)
    return cnt_all, cnt_same


def ir_combinatorial(agg: Aggregator, with_quadratic: bool = True,
                     budget: int = LN_BUDGET) -> IRValue:
    """Direct evaluation of the ordered-pair IR definitions from agg's
    shared pair counts.  Exact; the optional quadratic field
    cross-evaluates the spectral form on agg's shared encoding.  The
    budget is checked before either is read."""
    m, n = agg.m, agg.n
    fact = factorial(m)
    check_ir_budget(m, n, budget)
    tables = profile_tables(agg.H)
    h = agg.H.order
    _, cnt_same = pair_count_tensors(agg)
    dist_num = 0
    neq_num = 0
    for j in range(m):
        P = len(tables.catalogs[j])
        block = cnt_same[:, j, :, :P, :P].sum(axis=(0, 1))  # (P, P) over voters+ranks
        dist_num += int((block * tables.dist2[j]).sum())
        neq_num += int(block[tables.dist2[j] > 0].sum())
    denom = fact ** (n + 1)
    value = IRValue(
        profile_distance=Fraction(dist_num, h * h * denom),
        indicator=Fraction(neq_num, denom),
    )
    if with_quadratic:
        value.quadratic = apply_Ln(encode_g(agg), budget=budget)
    return value


def per_entry_ir_bound(m: int, n: int, H: FixingSubgroup) -> Fraction:
    """Changing one table entry moves the canonical IR by at most this
    much: the entry participates in 2(m-1)! ordered same-rank pairs
    per (voter, alternative), each moving by at most the diameter c."""
    c = profile_tables(H).max_pair_dist2
    return Fraction(2 * n * m * factorial(m - 1)) * c / factorial(m) ** (n + 1)


# ---------------------------------------------------------------------------
# IR detectors (many-voter vs single-switch definitions)


def _switch_invariant(funcs: np.ndarray, pid: np.ndarray, m: int, n: int) -> np.ndarray:
    """For each coset table in funcs (..., m!^n): whether every output
    j-profile id is constant on every switch class."""
    idx = switch_classes(m, n)
    keep = np.ones(funcs.shape[:-1], dtype=bool)
    for j in range(m):
        sub = pid[funcs[..., idx[:, j]], j]  # (..., n, m, S, (m-1)!)
        keep &= (sub == sub[..., :1]).all(axis=(-4, -3, -2, -1))
    return keep


def is_ir_single(agg: Aggregator) -> bool:
    """Single-switch detector: within every (voter, others, alternative,
    rank) class the output j-profile is constant."""
    return bool(_switch_invariant(agg.table, profile_tables(agg.H).pid, agg.m, agg.n))


def is_ir_multi(agg: Aggregator) -> bool:
    """Many-voter detector: profiles whose full rank vector for j
    agrees must share the output j-profile."""
    m, n = agg.m, agg.n
    fact = factorial(m)
    tables = profile_tables(agg.H)
    for j in range(m):
        keys: dict[tuple, int] = {}
        for idx, profile in enumerate(itertools.product(range(fact), repeat=n)):
            key = tuple(tables.rank[j][v] for v in profile)
            pid = tables.pid[agg.table[idx], j]
            if keys.setdefault(key, pid) != pid:
                return False
    return True


# ---------------------------------------------------------------------------
# Census


@dataclass
class CensusResult:
    m: int
    n: int
    total: int
    ir_count: int
    constants: int
    dictators: int
    others: int
    other_tables: list
    degenerate: bool  # m == 2: the kernel admits non-dictators for n >= 2

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "total": self.total,
            "ir_count": self.ir_count,
            "constants": self.constants,
            "dictators": self.dictators,
            "others": self.others,
            "degenerate_m2": self.degenerate,
        }


def census_ir_functions(m: int, n: int, H: FixingSubgroup,
                        limit: int = CENSUS_LIMIT) -> CensusResult:
    """Enumerate every aggregator S_m^n -> S_m/H, keep the IR ones, and
    classify them as constants, rank-relabeled dictators, or other.
    The theorem under test is that "other" is empty for m >= 3."""
    fact = factorial(m)
    ncos = len(H.cosets)
    npos = fact**n
    total = ncos**npos
    if total > limit:
        raise FeasibilityError(
            f"census infeasible: {ncos}^{npos} = {total:.3e} functions",
            estimate=f"{ncos}^{npos} ~ {total:.3e}",
        )
    tables = profile_tables(H)
    # all function tables, mixed-radix decode of 0..total-1
    codes = np.arange(total, dtype=np.int64)
    funcs = np.empty((total, npos), dtype=np.int64)
    for pos in range(npos):
        funcs[:, npos - 1 - pos] = (codes // ncos**pos) % ncos
    keep = _switch_invariant(funcs, tables.pid, m, n)
    ir_tables = funcs[keep]
    dictator_set = set()
    for i in range(1, n + 1):
        for sigma in enumerate_group(m):
            t = make_dictator(i, sigma, H, n).table
            dictator_set.add(t.tobytes())
    constants = dictators = others = 0
    other_tables = []
    for row in ir_tables:
        if (row == row[0]).all():
            constants += 1
        elif row.tobytes() in dictator_set:
            dictators += 1
        else:
            others += 1
            if len(other_tables) < 32:
                other_tables.append(row.tolist())
    return CensusResult(m, n, total, int(keep.sum()), constants, dictators,
                        others, other_tables, degenerate=(m == 2))


# ---------------------------------------------------------------------------
# Preference orders and manipulation power


@dataclass
class OrderFamily:
    """For each alternative j and truthful rank r, a strict total order
    on the possible j-profiles: position[j][r-1][pid] with 0 the most
    preferred."""

    m: int
    position: list  # per j: (m, P) int array
    label: str

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "position": [p.tolist() for p in self.position],
        }


def default_orders(H: FixingSubgroup, m: int) -> OrderFamily:
    """Rank j-profiles by squared distance to the unit vector at the
    truthful rank, ties lexicographic.  Under this family the top of
    every order is the profile of a coset ranking j there."""
    tables = profile_tables(H)
    h = H.order
    position = []
    for j in range(m):
        cat = tables.catalogs[j]
        P = len(cat)
        pos = np.empty((m, P), dtype=np.int64)
        for r in range(1, m + 1):
            target = tuple(h if rr == r else 0 for rr in range(1, m + 1))
            keyed = sorted(
                range(P),
                key=lambda p: (sum((a - b) ** 2 for a, b in zip(cat[p], target)), cat[p]),
            )
            for rank_pos, p in enumerate(keyed):
                pos[r - 1, p] = rank_pos
        position.append(pos)
    return OrderFamily(m, position, "distance-to-truthful-rank")


def random_orders(H: FixingSubgroup, m: int, rng) -> OrderFamily:
    tables = profile_tables(H)
    position = []
    for j in range(m):
        P = len(tables.catalogs[j])
        pos = np.empty((m, P), dtype=np.int64)
        for r in range(m):
            pos[r] = rng.permutation(P)
        position.append(pos)
    return OrderFamily(m, position, "random")


def orders_from_json(doc, H: FixingSubgroup, m: int) -> OrderFamily:
    """Override format: a list of {"j": int, "r": int, "ranking":
    [profile vectors in descending preference]}; unspecified (j, r)
    pairs keep the default order.  j and r run over 1..m, entries are
    multiples of 1/|H|, and a ranking lists every profile once."""
    tables = profile_tables(H)
    family = default_orders(H, m)
    h = H.order
    for entry in expect_json(doc, list, "orders document"):
        j, r = expect_json(entry, dict, "orders entry")["j"], entry["r"]
        if not all(type(v) is int and 1 <= v <= m for v in (j, r)):
            raise ValueError(f"orders entry needs integer j and r in 1..{m}, got j={j!r}, r={r!r}")
        cat = tables.catalogs[j - 1]
        lookup = {p: i for i, p in enumerate(cat)}
        ranking = expect_json(entry["ranking"], list, "ranking")
        if len(ranking) != len(cat):
            raise ValueError(f"ranking for j={j}, r={r} must list all {len(cat)} profiles")
        order = []
        for vec in ranking:
            # exact: no truncation
            counts = tuple(parse_fraction(v) * h for v in expect_json(vec, list, "j-profile"))
            if counts not in lookup:
                raise ValueError(f"unknown j-profile {vec} for j={j}")
            order.append(lookup[counts])
        if len(set(order)) != len(cat):
            raise ValueError(f"ranking for j={j}, r={r} lists a profile twice")
        family.position[j - 1][r - 1, order] = np.arange(len(cat))
    family.label = "override"
    return family


@dataclass
class ManipulationReport:
    """Manipulation rate against the IR rate.

    `holds` records the literal comparison c*M(f) >= IR(f).  That
    inequality is not a theorem of these definitions: a violated
    same-rank pair enters the ordered-pair IR rate twice (once per
    ordering) with weight up to c, but contributes exactly one
    improving direction to M, so only 2c*M(f) >= IR(f) is guaranteed
    (`holds_weak`).  Cross-rank manipulations usually hide the factor,
    but it is attained: the identity dictator on S_3 with the one entry
    132 sent to 123 has IR = 2/9, M = 1/18 and c = 2, so
    c*M = 1/9 < IR = 2c*M.
    """

    per_voter: list  # Fractions M_i(f)
    total: Fraction
    c: Fraction
    ir: Fraction
    holds: bool  # c * M(f) >= IR(f), literal
    holds_weak: bool  # 2 c * M(f) >= IR(f), provable
    orders_label: str

    def to_dict(self) -> dict:
        return {
            "per_voter": [str(v) for v in self.per_voter],
            "total": str(self.total),
            "c": str(self.c),
            "ir_profile_distance": str(self.ir),
            "c_times_M_ge_IR": self.holds,
            "2c_times_M_ge_IR": self.holds_weak,
            "orders": self.orders_label,
        }


def manipulation_power(agg: Aggregator, orders: OrderFamily | None = None,
                       cnt_all: np.ndarray | None = None,
                       ir: Fraction | None = None) -> ManipulationReport:
    """Rate of (voter, others, truth, report) tuples where the reported
    outcome's j-profile strictly beats the truthful one under the
    voter's rank-indexed order.  Exact rational.  `cnt_all` and `ir`
    default to agg's shared pair counts and its exact IR."""
    m, n = agg.m, agg.n
    fact = factorial(m)
    tables = profile_tables(agg.H)
    if orders is None:
        orders = default_orders(agg.H, m)
    if cnt_all is None:
        cnt_all, _ = pair_count_tensors(agg)
    per_voter = []
    denom = fact ** (n + 1)
    for i in range(n):
        num = 0
        for j in range(m):
            P = len(tables.catalogs[j])
            pos = orders.position[j]  # (m, P)
            better = pos[:, None, :] < pos[:, :, None]  # [r, pa, pb]: pb preferred
            num += int((cnt_all[i, j, :, :P, :P] * better).sum())
        per_voter.append(Fraction(num, denom))
    total = sum(per_voter, Fraction(0))
    c = tables.max_pair_dist2
    if ir is None:
        ir = ir_combinatorial(agg, with_quadratic=False).profile_distance
    return ManipulationReport(per_voter, total, c, ir, c * total >= ir,
                              2 * c * total >= ir, orders.label)
