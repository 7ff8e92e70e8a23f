"""Social aggregators over S_m^n with coset-valued outputs, their
matrix encodings, and the consistency invariant g(x) g(x)^T = M_H.

A profile (x_1, ..., x_n) is addressed by its mixed-radix rank with
voter 1 most significant:

    index = sum_i perm_index(x_i) * (m!)^(n-1-i)

Aggregator tables map that index to a coset index of H (cosets ordered
by their lexicographically least representative).
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

import numpy as np

from ._util import expect_json, memoized
from .basis import Rho1Table, rho1_table
from .perms import (
    MAX_M,
    Coset,
    FixingSubgroup,
    broadcast_voter,
    build_fixing_subgroup,
    compose,
    coset_ids,
    enumerate_group,
    format_perm,
    j_profile_counts,
    parse_perm,
    perm_index,
    perm_indices,
    rank_table,
    trivial_subgroup,
    winner_subgroup,
)


@dataclass(frozen=True, eq=False)
class Aggregator:
    """Total function S_m^n -> S_m/H stored as a coset-index table.

    The table is made read-only, so the values derived from it (pair
    counts, default encoding) are computed on first use and kept in
    `_derived` for the aggregator's lifetime."""

    m: int
    n: int
    H: FixingSubgroup
    table: np.ndarray  # shape (m!^n,), values in [0, #cosets); read-only
    kind: str = "table"
    params: dict = field(default_factory=dict)
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        fact = factorial(self.m)
        if self.table.shape != (fact**self.n,):
            raise ValueError(
                f"table must cover all {fact**self.n} profiles, got {self.table.shape}"
            )
        self.table.setflags(write=False)

    def profile_index(self, profile) -> int:
        fact = factorial(self.m)
        if len(profile) != self.n:
            raise ValueError(f"expected {self.n} votes, got {len(profile)}")
        idx = 0
        for x in profile:
            if sorted(x) != list(range(1, self.m + 1)):
                raise ValueError(f"vote {x!r} is not a permutation of 1..{self.m}")
            idx = idx * fact + perm_index(x)
        return idx

    def evaluate(self, profile) -> Coset:
        return self.H.cosets[int(self.table[self.profile_index(profile)])]


class ProfileTables:
    """Exact per-(m, H) lookup tables used by all rational metrics.

    prof[c, j-1, r-1] is the number of members of coset c ranking
    alternative j at r (entries per (c, j) sum to |H|).  pid[c, j-1]
    is the index of that integer profile in a per-j catalog sorted
    lexicographically; dist2[j-1] and dot[j-1] are catalog-level
    pairwise tables of squared distance and inner product.
    """

    def __init__(self, H: FixingSubgroup):
        self.H = H
        m = H.m
        ncos = len(H.cosets)
        self.prof = np.zeros((ncos, m, m), dtype=np.int64)
        for c, coset in enumerate(H.cosets):
            for j in range(1, m + 1):
                self.prof[c, j - 1] = j_profile_counts(coset, j, m)
        self.catalogs = []  # per j: list of integer profile tuples
        self.pid = np.zeros((ncos, m), dtype=np.int64)
        for j in range(m):
            cat = sorted({tuple(self.prof[c, j]) for c in range(ncos)})
            lookup = {p: i for i, p in enumerate(cat)}
            self.catalogs.append(cat)
            for c in range(ncos):
                self.pid[c, j] = lookup[tuple(self.prof[c, j])]
        self.dist2 = []  # per j: (P, P) integer matrix of sum_r (n1-n2)^2
        self.dot = []  # per j: (P, P) integer matrix of sum_r n1*n2
        for j in range(m):
            cat = np.array(self.catalogs[j], dtype=np.int64)
            dots = cat @ cat.T
            norms = np.diag(dots)
            self.dist2.append(norms[:, None] + norms[None, :] - 2 * dots)
            self.dot.append(dots)
        self.rank = rank_table(m)  # rank of alternative j under each permutation

    @property
    def max_pair_dist2(self) -> Fraction:
        """The constant c = max over j and coset pairs of the squared
        j-profile distance; m/(m-1) for winner-take-all H."""
        h = self.H.order
        worst = max(int(self.dist2[j].max()) for j in range(self.H.m))
        return Fraction(worst, h * h)


_PROFILE_TABLES: dict[tuple, ProfileTables] = {}


def profile_tables(H: FixingSubgroup) -> ProfileTables:
    """Tables shared by every subgroup with the same members: the
    members fix the cosets and their order, so equal subgroups built
    separately (e.g. by repeated JSON loads) reuse one entry."""
    key = (H.m, H.members)
    if key not in _PROFILE_TABLES:
        _PROFILE_TABLES[key] = ProfileTables(H)
    return _PROFILE_TABLES[key]


def make_dictator(i: int, sigma, H: FixingSubgroup, n: int) -> Aggregator:
    """f(x) = coset of compose(x_i, sigma): voter i's ranking with a
    fixed rank relabeling.  These are exactly the nonconstant members
    of the IR kernel."""
    if not 1 <= i <= n:
        raise ValueError(f"voter {i} out of range 1..{n}")
    m = H.m
    sigma = tuple(sigma)
    per_vote = np.array(
        [H.coset_index[compose(v, sigma)] for v in enumerate_group(m)], dtype=np.int64
    )
    table = broadcast_voter(per_vote, i, n)
    return Aggregator(m, n, H, table, "dictator", {"i": i, "sigma": format_perm(sigma)})


def make_constant(coset_id: int, H: FixingSubgroup, n: int) -> Aggregator:
    table = np.full(factorial(H.m) ** n, coset_id, dtype=np.int64)
    rep = format_perm(H.cosets[coset_id].representative)
    return Aggregator(H.m, n, H, table, "constant", {"output": rep})


def make_plurality(m: int, n: int) -> Aggregator:
    """Winner = alternative with the most rank-1 votes, ties broken
    lexicographically by name.  Output space is the winner partition."""
    H = winner_subgroup(m)
    winner_coset = np.array([
        H.coset_index[tuple([w] + sorted(v for v in range(1, m + 1) if v != w))]
        for w in range(1, m + 1)
    ])
    first = (rank_table(m) == 1).T.astype(np.int64)  # (m!, m): one vote for the top name
    votes = sum(broadcast_voter(first, i, n) for i in range(1, n + 1))
    # argmax takes the first maximum, so ties go to the lowest name
    return Aggregator(m, n, H, winner_coset[votes.argmax(axis=1)], "plurality", {})


def make_borda(m: int, n: int) -> Aggregator:
    """Full ranking by total Borda score (rank r contributes m - r),
    ties broken lexicographically by name."""
    H = trivial_subgroup(m)
    points = (m - rank_table(m)).T  # (m!, m): points per vote for each name
    score = sum(broadcast_voter(points, i, n) for i in range(1, n + 1))
    # a stable sort keeps tied names in ascending order
    ranking = np.argsort(-score, axis=1, kind="stable")
    return Aggregator(m, n, H, coset_ids(H)[perm_indices(ranking)], "borda", {})


# The rules `make_named_rule` rebuilds from params alone, with the
# params each one takes; every other kind is stored by its entries.
NAMED_RULE_PARAMS = {
    "dictator": {"i", "sigma"},
    "constant": {"output"},
    "plurality": set(),
    "borda": set(),
}


def check_params(kind: str, params: dict, allowed) -> None:
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ValueError(f"unknown params {unknown} for rule {kind!r}")


def make_named_rule(kind: str, params: dict, H: FixingSubgroup, n: int) -> Aggregator:
    """Build a parameterized rule from its JSON type and params:
    "dictator" (i, sigma), "constant" (output), "plurality" or "borda".
    Plurality and Borda fix their own output subgroup and ignore H."""
    if kind not in NAMED_RULE_PARAMS:
        raise ValueError(f"unknown aggregator type {kind!r}")
    check_params(kind, params, NAMED_RULE_PARAMS[kind])
    m = H.m
    if kind == "dictator":
        return make_dictator(int(params["i"]), parse_perm(params["sigma"], m), H, n)
    if kind == "constant":
        rep = parse_perm(params["output"], m)
        return make_constant(H.coset_index[rep], H, n)
    if kind == "plurality":
        return make_plurality(m, n)
    return make_borda(m, n)


def random_aggregator(m: int, n: int, H: FixingSubgroup, rng) -> Aggregator:
    table = rng.integers(0, len(H.cosets), size=factorial(m) ** n).astype(np.int64)
    return Aggregator(m, n, H, table, "table", {})


def corrupt_aggregator(agg: Aggregator, entries: int, rng) -> Aggregator:
    """Copy with `entries` distinct table positions rewritten to a
    uniformly random different coset."""
    table = agg.table.copy()
    ncos = len(agg.H.cosets)
    positions = rng.choice(table.shape[0], size=entries, replace=False)
    for pos in positions:
        shift = rng.integers(1, ncos)
        table[pos] = (table[pos] + shift) % ncos
    return Aggregator(agg.m, agg.n, agg.H, table, "table", {"corrupted_from": agg.kind})


@dataclass(frozen=True, eq=False)
class GEncoding:
    """g(x) = mean of rho1(y) over y in f(x); the matrix payload of all
    spectral computations.  g_coset[c] = M_H @ rho1(representative),
    with rho1 the table ``rho1`` the encoding was built with; every
    consumer reads that table, so no second basis can enter.  The
    identity's coset, H itself, comes first, so g_coset[0] = M_H.
    The arrays are read-only; `_derived` keeps the L form's value."""

    m: int
    n: int
    H: FixingSubgroup
    g: np.ndarray  # (m!^n, m-1, m-1)
    g_coset: np.ndarray  # (#cosets, m-1, m-1)
    table: np.ndarray  # coset ids, shared with the aggregator
    rho1: Rho1Table
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.g.setflags(write=False)
        self.g_coset.setflags(write=False)


def coset_means(H: FixingSubgroup, table: Rho1Table) -> np.ndarray:
    ncos = len(H.cosets)
    d = H.m - 1
    out = np.empty((ncos, d, d))
    for c, coset in enumerate(H.cosets):
        idx = [table.index[y] for y in coset.members]
        out[c] = table.R[idx].mean(axis=0)
    return out


def _encode(agg: Aggregator, table: Rho1Table) -> GEncoding:
    gc = coset_means(agg.H, table)
    return GEncoding(agg.m, agg.n, agg.H, gc[agg.table], gc, agg.table, table)


def encode_g(agg: Aggregator, table: Rho1Table | None = None) -> GEncoding:
    """agg's encoding in `table`'s basis, built fresh; without a table,
    the default-basis encoding, built once per aggregator and shared."""
    if table is not None:
        return _encode(agg, table)
    return memoized(agg, "encoding", lambda a: _encode(a, rho1_table(a.m)))


@dataclass
class ConsistencyReport:
    M_H: np.ndarray
    max_deviation: float
    idempotency_deviation: float
    fixing: bool


def consistency_check(agg: Aggregator) -> ConsistencyReport:
    """Verify g(x) g(x)^T = M_H for all x, where M_H is the mean of
    rho1 over H's members.  M_H = 0 exactly when H is transitive on the
    rank positions (tr M_H = #orbits - 1); then g == 0 and the whole
    spectral pipeline is vacuous."""
    enc = encode_g(agg)
    MH = np.mean([enc.rho1.of(h) for h in agg.H.members], axis=0)
    prods = np.einsum("xkl,xtl->xkt", enc.g, enc.g)
    max_dev = float(np.abs(prods - MH).max())
    idem = float(np.abs(MH @ MH - MH).max())
    fixing = agg.H.orbit_count > 1
    return ConsistencyReport(MH, max_dev, idem, fixing)


# ---------------------------------------------------------------------------
# JSON round trip


@functools.lru_cache(maxsize=MAX_M)
def _perm_texts(m: int) -> tuple[tuple[str, ...], dict[str, int]]:
    """format_perm of every permutation in lex order, and the reverse
    lookup text -> index."""
    texts = tuple(format_perm(x) for x in enumerate_group(m))
    return texts, {t: i for i, t in enumerate(texts)}


def _perm_id(text, m: int, lookup: dict[str, int]) -> int:
    """Lex index of a permutation literal; any text not in the canonical
    form goes through parse_perm, which accepts or rejects it."""
    idx = lookup.get(text) if isinstance(text, str) else None
    return perm_index(parse_perm(text, m)) if idx is None else idx


def to_json(agg: Aggregator) -> dict:
    """Named rules are written as type and params; every other kind
    (table, centered, ...) also carries its full list of entries."""
    doc = {
        "m": agg.m,
        "n": agg.n,
        "partition": [list(b) for b in agg.H.partition],
        "type": agg.kind,
        "params": dict(agg.params),
    }
    if agg.kind not in NAMED_RULE_PARAMS:
        texts, _ = _perm_texts(agg.m)
        outputs = [format_perm(c.representative) for c in agg.H.cosets]
        doc["entries"] = [
            {"profile": list(profile), "output": outputs[c]}
            for profile, c in zip(itertools.product(texts, repeat=agg.n), agg.table.tolist())
        ]
    return doc


def from_json(doc: dict) -> Aggregator:
    expect_json(doc, dict, "aggregator document")
    m, n = doc["m"], doc["n"]
    if type(m) is not int or type(n) is not int:
        raise ValueError(f"m and n must be integers, got m={m!r:.20}, n={n!r:.20}")
    H = build_fixing_subgroup(m, doc["partition"])
    kind = doc.get("type", "table")
    params = expect_json(doc.get("params", {}), dict, "params")
    if kind in NAMED_RULE_PARAMS:
        if "entries" in doc:
            raise ValueError(f"named rule {kind!r} is built from params; it takes no entries")
        return make_named_rule(kind, params, H, n)
    if "entries" not in doc:
        raise ValueError(f"aggregator type {kind!r} needs entries")
    fact = factorial(m)
    _, lookup = _perm_texts(m)
    coset_of = coset_ids(H).tolist()
    table = [-1] * fact**n
    for entry in expect_json(doc["entries"], list, "entries"):
        profile = expect_json(expect_json(entry, dict, "entry")["profile"], list, "entry profile")
        votes = [_perm_id(t, m, lookup) for t in profile]
        if len(votes) != n:
            raise ValueError("entry profile has wrong voter count")
        idx = 0
        for v in votes:
            idx = idx * fact + v
        if table[idx] >= 0:
            raise ValueError(f"duplicate entry for profile {profile}")
        table[idx] = coset_of[_perm_id(entry["output"], m, lookup)]
    missing = table.count(-1)
    if missing:
        raise ValueError(f"table not total: {missing} profiles missing")
    return Aggregator(m, n, H, np.array(table, dtype=np.int64), kind, dict(params))


def save_json(agg: Aggregator, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_json(agg), fh, indent=2, sort_keys=True)


def load_json(path: str) -> Aggregator:
    with open(path) as fh:
        return from_json(json.load(fh))
