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
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

import numpy as np

from ._util import FeasibilityError, expect_json, expect_key, memoized, parse_fraction, size_past
from .aggregators import Aggregator, ProfileTables, make_dictator, profile_tables
from .laplacian import check_ir_budget
from .perms import FixingSubgroup, enumerate_group, rank_classes, voter_view

CENSUS_LIMIT = 2 * 10**6


@dataclass(frozen=True)
class IRValue:
    """Frozen: `ir_combinatorial` keeps one per rule and hands every
    caller the same object."""

    profile_distance: Fraction
    indicator: Fraction
    # (P, P) read-only: cnt_same summed over voters, alternatives and ranks,
    # reduced once for IR and the L' and L'' forms
    same_rank: np.ndarray = field(compare=False, repr=False)

    @property
    def quadratic(self) -> float:
        """The L form's canonical value, which is profile_distance
        (laplacian docstring, "IR = L"), as a float."""
        return float(self.profile_distance)


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
    m, n, tables = agg.m, agg.n, profile_tables(agg.H)
    P = len(tables.catalog)
    offset = (np.arange(m) * m + tables.rank.T - 1) * P  # [vote, j]: (j, rank of j) block
    cnt_all = np.empty((n, m, m, P, P), dtype=np.int64)
    cnt_same = np.empty_like(cnt_all)
    for i in range(n):  # one voter's arrays are dropped before the next voter's are built
        cnt_same[i], cnt_all[i] = _voter_pair_counts(offset, tables.pid,
                                                     voter_view(agg.table, i, n), P)
    cnt_all.setflags(write=False)
    cnt_same.setflags(write=False)
    return cnt_all, cnt_same


def _voter_pair_counts(offset: np.ndarray, pid: np.ndarray, view: np.ndarray,
                       P: int) -> tuple[np.ndarray, np.ndarray]:
    """One voter's (cnt_same, cnt_all), each (m, m, P, P): the label
    (j, rank of j under the vote, output j-profile id), the offset of
    (vote, j) plus the output's pid, counted along the vote axis of the
    voter's view gives the histogram h[j, r, p, s] of switch class
    (j, r, s), which is contracted with itself over the slabs s.  The
    contractions are integer matmuls: exact, and faster than einsum."""
    m = offset.shape[-1]
    size = m * m * P
    labels = pid[view.T]  # [slab, vote, j]
    labels += offset  # in place: one label-sized array
    labels += size * np.arange(len(labels))[:, None, None]
    counts = np.bincount(labels.reshape(-1), minlength=len(labels) * size)
    counts = counts.reshape(len(labels), size)  # [slab, (j, r, p)]
    del labels  # before the histogram's copy below
    h = np.ascontiguousarray(counts.T).reshape(m, m, P, -1)  # slabs innermost for the matmuls
    per_class = h.reshape(m * m, P, -1)  # [(j, r), p, slab]
    same = per_class @ per_class.transpose(0, 2, 1)
    every = h.reshape(m, m * P, -1) @ h.sum(axis=1).transpose(0, 2, 1)  # [j, (r, p), q]
    return same.reshape(m, m, P, P), every.reshape(m, m, P, P)


def ir_combinatorial(agg: Aggregator) -> IRValue:
    """Direct evaluation of the ordered-pair IR definitions from agg's
    shared pair counts.  Exact; refuses where IR refuses, and otherwise
    reduced once per aggregator and kept on it."""
    check_ir_budget(agg.m, agg.n)
    return memoized(agg, "ir", _reduce_ir)


def _reduce_ir(agg: Aggregator) -> IRValue:
    _, cnt_same = pair_count_tensors(agg)
    dist2 = profile_tables(agg.H).dist2
    block = cnt_same.sum(axis=(0, 1, 2))
    block.setflags(write=False)
    denom = factorial(agg.m) ** (agg.n + 1)
    return IRValue(
        profile_distance=Fraction(int((block * dist2).sum()), agg.H.order ** 2 * denom),
        indicator=Fraction(int(block[dist2 > 0].sum()), denom), same_rank=block,
    )


def per_entry_ir_bound(m: int, n: int, H: FixingSubgroup) -> Fraction:
    """Changing one table entry moves the canonical IR by at most this
    much: the entry participates in 2(m-1)! ordered same-rank pairs
    per (voter, alternative), each moving by at most the diameter c."""
    c = profile_tables(H).max_pair_dist2
    return Fraction(2 * n * m * factorial(m - 1)) * c / factorial(m) ** (n + 1)


# ---------------------------------------------------------------------------
# IR detectors (many-voter vs single-switch definitions)


def _switch_invariant(funcs: np.ndarray, tables: ProfileTables, n: int) -> np.ndarray:
    """For each coset table in funcs (m!^n,) or (#tables, m!^n): whether
    every output j-profile id is constant on every switch class."""
    keep = np.ones(funcs.shape[:-1], dtype=bool)
    for i in range(n):
        view = voter_view(funcs.T, i, n)  # (m!, slabs, ...)
        for j, members in enumerate(rank_classes(len(tables.rank))):
            sub = tables.pid[view[members], j]  # (m, (m-1)!, slabs, ...): the classes of j
            keep &= (sub == sub[:, :1]).all(axis=(0, 1, 2))
    return keep


def is_ir_single(agg: Aggregator) -> bool:
    """Single-switch detector: within every (voter, others, alternative,
    rank) class the output j-profile is constant."""
    return bool(_switch_invariant(agg.table, profile_tables(agg.H), agg.n))


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


def check_census_budget(m: int, n: int, ncos: int) -> None:
    """Refuse ncos^(m!^n) tables past CENSUS_LIMIT (read at call time);
    the CLI runs it on the partition's coset count, before H is built."""
    npos = factorial(m) ** n
    size = size_past(CENSUS_LIMIT, 1, ncos, npos, 3)
    if size:
        tables = f"{ncos}^{npos}" if npos < 10**30 else f"{ncos}^({m}!^{n})"
        raise FeasibilityError(f"census infeasible: {tables} = {size} functions",
                               estimate=f"{tables} ~ {size}")


def census_ir_functions(m: int, n: int, H: FixingSubgroup) -> CensusResult:
    """Enumerate every aggregator S_m^n -> S_m/H, keep the IR ones, and
    classify them as constants, rank-relabeled dictators, or other;
    refuses over CENSUS_LIMIT tables (`check_census_budget`).  The
    theorem under test is that "other" is empty for m >= 3."""
    ncos = len(H.representatives)
    check_census_budget(m, n, ncos)
    npos = factorial(m) ** n
    total = ncos**npos
    tables = profile_tables(H)
    # all function tables, mixed-radix decode of 0..total-1
    codes = np.arange(total, dtype=np.int64)
    funcs = np.empty((total, npos), dtype=np.int64)
    for pos in range(npos):
        funcs[:, npos - 1 - pos] = (codes // ncos**pos) % ncos
    keep = _switch_invariant(funcs, tables, n)
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
    on the catalog of j-profiles: position[j-1, r-1, pid] with 0 the
    most preferred."""

    m: int
    position: np.ndarray  # (m, m, P) int
    label: str


def default_orders(H: FixingSubgroup, m: int) -> OrderFamily:
    """Rank j-profiles by squared distance to the unit vector at the
    truthful rank, ties lexicographic.  Under this family the top of
    every order is the profile of a coset ranking j there.  The order
    depends on r only, so it is sorted once per r and shared by every j."""
    tables = profile_tables(H)
    # [r, p]: squared distance from profile p to |H| e_r, less the constant |H|^2
    key = np.diag(tables.dot)[None, :] - 2 * H.order * tables.catalog.T
    # a stable sort breaks ties by catalog index, which is lexicographic
    pos = np.argsort(np.argsort(key, axis=1, kind="stable"), axis=1)
    return OrderFamily(m, np.tile(pos, (m, 1, 1)), "distance-to-truthful-rank")


def random_orders(H: FixingSubgroup, m: int, rng) -> OrderFamily:
    """A uniform order per (j, r), drawn in one call that consumes rng
    as m^2 calls rng.permutation(P), in (j, r) order, would."""
    P = len(profile_tables(H).catalog)
    position = rng.permuted(np.broadcast_to(np.arange(P), (m, m, P)), axis=-1)
    return OrderFamily(m, position, "random")


def orders_from_json(doc, H: FixingSubgroup, m: int) -> OrderFamily:
    """Override format: a list of {"j": int, "r": int, "ranking":
    [profile vectors in descending preference]}; unspecified (j, r)
    pairs keep the default order.  j and r run over 1..m, entries are
    multiples of 1/|H|, a ranking lists every profile once, and no
    (j, r) pair is listed twice."""
    cat = profile_tables(H).catalog
    lookup = {p: i for i, p in enumerate(map(tuple, cat.tolist()))}
    family = default_orders(H, m)
    h = H.order
    listed = set()
    for entry in expect_json(doc, list, "orders document"):
        expect_json(entry, dict, "orders entry")
        j, r, ranking = (expect_key(entry, key, "orders entry") for key in ("j", "r", "ranking"))
        if not all(type(v) is int and 1 <= v <= m for v in (j, r)):
            raise ValueError(f"orders entry needs integer j and r in 1..{m}, got j={j!r}, r={r!r}")
        if (j, r) in listed:
            raise ValueError(f"orders document lists j={j}, r={r} twice")
        listed.add((j, r))
        if len(expect_json(ranking, list, "ranking")) != len(cat):
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
        family.position[j - 1, r - 1, order] = np.arange(len(cat))
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
            "per_voter": list(self.per_voter),
            "total": self.total,
            "c": self.c,
            "ir_profile_distance": self.ir,
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
    if orders is None:
        orders = default_orders(agg.H, agg.m)
    if cnt_all is None:
        cnt_all, _ = pair_count_tensors(agg)
    pos = orders.position
    better = pos[:, :, None, :] < pos[:, :, :, None]  # [j, r, pa, pb]: pb preferred
    denom = factorial(agg.m) ** (agg.n + 1)
    # exact in int64: a voter's counts sum to m * m!^(n+1)
    better_counts = cnt_all.reshape(agg.n, -1) @ better.reshape(-1).astype(np.int64)
    per_voter = [Fraction(v, denom) for v in better_counts.tolist()]
    total = sum(per_voter, Fraction(0))
    c = profile_tables(agg.H).max_pair_dist2
    if ir is None:
        ir = ir_combinatorial(agg).profile_distance
    return ManipulationReport(per_voter, total, c, ir, c * total >= ir,
                              2 * c * total >= ir, orders.label)
