"""Social aggregators over S_m^n with coset-valued outputs, their
per-coset matrix means, and the invariant g(x) g(x)^T = M_H.

A profile (x_1, ..., x_n) is addressed by its mixed-radix rank with
voter 1 most significant:

    index = sum_i perm_index(x_i) * (m!)^(n-1-i)

Aggregator tables map that index to a coset id of H (`H.coset_ids`:
cosets numbered by their lexicographically least member).
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

import numpy as np

from ._util import expect_json, expect_key
from .basis import Rho1Table, rho1_table
from .perms import (
    MAX_M,
    FixingSubgroup,
    broadcast_voter,
    build_fixing_subgroup,
    enumerate_group,
    format_perm,
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
    counts, kernel projection) are computed on first use and kept in
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

    def evaluate(self, profile) -> int:
        """The coset id of the output at `profile`."""
        return int(self.table[self.profile_index(profile)])


class ProfileTables:
    """Exact per-H lookup tables used by all rational metrics.

    prof[c, j-1, r-1] is the number of members of coset c ranking
    alternative j at r (entries per (c, j) sum to |H|), one bincount of
    (coset id, j, rank of j) over all m! permutations.  pid[c, j-1]
    is the index of that integer profile in ``catalog``, the read-only
    (P, m) array of the distinct rows of prof[0], sorted
    lexicographically; dist2 and dot are its (P, P) pairwise tables of
    squared distance and inner product.

    One catalog serves every alternative.  The member compose(x, h) of
    the coset of x ranks j at h^-1(x^-1(j)), and as h runs over H that
    rank runs uniformly over the H-orbit of x^-1(j): each point of an
    orbit O is hit |H|/|O| times (orbit-stabilizer).  So a j-profile
    is |H|/|O| on one orbit O of H on the rank positions and 0
    elsewhere, every orbit occurs for every j, and the catalog has
    P = H.orbit_count entries, all in coset 0 = H (j's own orbit for
    j); the build checks that every row is one of them.

    The build checks, in integers, the fact the L form's identity rests
    on (laplacian docstring, "IR = L"): each coset's rank-count matrix
    has every row and column summing to |H|.
    """

    def __init__(self, H: FixingSubgroup):
        self.H = H
        m = H.m
        self.rank = rank_table(m)  # rank of alternative j under each permutation
        keys = (H.coset_ids * m + np.arange(m)[:, None]) * m + self.rank - 1  # [j, x]
        counts = np.bincount(keys.reshape(-1), minlength=len(H.representatives) * m * m)
        self.prof = counts.reshape(-1, m, m)
        if not ((self.prof.sum(axis=1) == H.order).all()
                and (self.prof.sum(axis=2) == H.order).all()):
            raise AssertionError("a coset's rank counts do not sum to |H| by row and column")
        # coset 0 is H, whose m j-profiles hold every orbit's vector
        self.catalog = np.array(sorted(set(map(tuple, self.prof[0].tolist()))), dtype=np.int64)
        self.catalog.setflags(write=False)
        self.pid = np.full(self.prof.shape[:2], -1)
        for p, vec in enumerate(self.catalog):
            self.pid[(self.prof == vec).all(axis=2)] = p
        if (self.pid < 0).any():
            raise AssertionError("a coset's j-profile is not in the catalog of coset 0")
        self.dot = self.catalog @ self.catalog.T  # sum_r n1*n2
        norms = np.diag(self.dot)
        self.dist2 = norms[:, None] + norms[None, :] - 2 * self.dot  # sum_r (n1-n2)^2

    @property
    def max_pair_dist2(self) -> Fraction:
        """The constant c = max over coset pairs of the squared j-profile
        distance; m/(m-1) for winner-take-all H."""
        return Fraction(int(self.dist2.max()), self.H.order ** 2)


@functools.lru_cache(maxsize=8)  # the bound of perms.rank_classes
def profile_tables(H: FixingSubgroup) -> ProfileTables:
    """Tables shared by every equal subgroup: H's partition fixes its
    coset ids, so equal subgroups built separately reuse one entry."""
    return ProfileTables(H)


def make_dictator(i: int, sigma, H: FixingSubgroup, n: int) -> Aggregator:
    """f(x) = coset of compose(x_i, sigma): voter i's ranking with a
    fixed rank relabeling.  These are exactly the nonconstant members
    of the IR kernel."""
    if not 1 <= i <= n:
        raise ValueError(f"voter {i} out of range 1..{n}")
    m = H.m
    sigma = tuple(sigma)
    words = np.array(enumerate_group(m))
    # compose(v, sigma) has the word v[sigma - 1]
    table = broadcast_voter(H.coset_ids[perm_indices(words[:, np.array(sigma) - 1])], i, n)
    return Aggregator(m, n, H, table, "dictator", {"i": i, "sigma": format_perm(sigma)})


def make_constant(coset_id: int, H: FixingSubgroup, n: int) -> Aggregator:
    table = np.full(factorial(H.m) ** n, coset_id, dtype=np.int64)
    rep = _perm_texts(H.m)[0][H.representatives[coset_id]]
    return Aggregator(H.m, n, H, table, "constant", {"output": rep})


# A vote gives alternative j the points s[rank - 1] of its rule's score vector s.
SCORE_VECTORS = {
    "plurality": lambda m: [1] + [0] * (m - 1),
    "borda": lambda m: list(range(m - 1, -1, -1)),
}


def default_blocks(kind: str, m: int) -> list:
    """The output partition rule `kind` takes when none is given."""
    if kind == "plurality":
        return [[1], list(range(2, m + 1))]
    return [[v] for v in range(1, m + 1)]


def make_scoring(kind: str, H: FixingSubgroup, n: int) -> Aggregator:
    """The positional scoring rule `kind` of SCORE_VECTORS: the names
    ranked by total points, ties to the lower name, and the output that
    ranking's coset under H."""
    m = H.m
    points = np.array(SCORE_VECTORS[kind](m))[rank_table(m) - 1].T  # (m!, m): per vote, name
    score = sum(broadcast_voter(points, i, n) for i in range(1, n + 1))
    # a stable sort keeps tied names in ascending order
    ranking = np.argsort(-score, axis=1, kind="stable")
    return Aggregator(m, n, H, H.coset_ids[perm_indices(ranking)], kind, {})


def make_plurality(m: int, n: int) -> Aggregator:
    """Plurality on its default output partition, the winner partition."""
    return make_scoring("plurality", winner_subgroup(m), n)


def make_borda(m: int, n: int) -> Aggregator:
    """Borda on its default output partition, all singletons."""
    return make_scoring("borda", trivial_subgroup(m), n)


# The rules `make_named_rule` rebuilds from params alone, with the
# params each one requires; every other kind is stored by its entries.
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
    """Build a parameterized rule on H from its JSON type and params:
    "dictator" (i, sigma), "constant" (output), or the scoring rules
    "plurality" and "borda" (`make_scoring`)."""
    if kind not in NAMED_RULE_PARAMS:
        raise ValueError(f"unknown aggregator type {kind!r}")
    check_params(kind, params, NAMED_RULE_PARAMS[kind])
    missing = sorted(NAMED_RULE_PARAMS[kind] - set(params))
    if missing:
        raise ValueError(f"rule {kind!r} is missing params {missing}")
    m = H.m
    if kind == "dictator":
        return make_dictator(int(params["i"]), parse_perm(params["sigma"], m), H, n)
    if kind == "constant":
        rep = parse_perm(params["output"], m)
        return make_constant(int(H.coset_ids[perm_index(rep)]), H, n)
    return make_scoring(kind, H, n)


def random_aggregator(m: int, n: int, H: FixingSubgroup, rng) -> Aggregator:
    table = rng.integers(0, len(H.representatives), size=factorial(m) ** n).astype(np.int64)
    return Aggregator(m, n, H, table, "table", {})


def corrupt_aggregator(agg: Aggregator, entries: int, rng) -> Aggregator:
    """Copy with `entries` distinct table positions rewritten to a
    uniformly random different coset."""
    table = agg.table.copy()
    ncos = len(agg.H.representatives)
    if not 0 <= entries <= len(table):
        raise ValueError(f"cannot corrupt {entries} of the {len(table)} table entries")
    if entries and ncos == 1:
        raise ValueError("a one-coset subgroup has no different coset to corrupt to")
    positions = rng.choice(table.shape[0], size=entries, replace=False)
    for pos in positions:
        shift = rng.integers(1, ncos)
        table[pos] = (table[pos] + shift) % ncos
    return Aggregator(agg.m, agg.n, agg.H, table, "table", {"corrupted_from": agg.kind})


def encode_g(agg: Aggregator, table: Rho1Table | None = None) -> np.ndarray:
    """The means g_c of rho1 over each coset c in `table`'s basis (the
    cached Helmert table by default), g_0 = M_H: a fresh read-only
    (#cosets, m-1, m-1) array g, with g(x) = g[agg.table[x]]."""
    table = table if table is not None else rho1_table(agg.m)
    # a stable argsort lists each coset's members in lex order, coset by coset
    members = np.argsort(agg.H.coset_ids, kind="stable").reshape(-1, agg.H.order)
    out = table.R[members].mean(axis=1)
    out.setflags(write=False)
    return out


@dataclass
class ConsistencyReport:
    M_H: np.ndarray
    max_deviation: float
    idempotency_deviation: float
    fixing: bool


def consistency_check(agg: Aggregator) -> ConsistencyReport:
    """Verify g g^T = M_H on every coset mean, hence at every profile,
    where M_H is the mean of rho1 over H, which is coset 0.  M_H = 0
    exactly when H is transitive on the rank positions (tr M_H =
    #orbits - 1); then g == 0 and the whole spectral pipeline is
    vacuous."""
    g = encode_g(agg)
    MH = rho1_table(agg.m).R[agg.H.coset_ids == 0].mean(axis=0)
    prods = np.einsum("ckl,ctl->ckt", g, g)
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
        outputs = [texts[r] for r in agg.H.representatives]
        doc["entries"] = [
            {"profile": list(profile), "output": outputs[c]}
            for profile, c in zip(itertools.product(texts, repeat=agg.n), agg.table.tolist())
        ]
    return doc


def _entry_ids(entry, n: int, m: int, lookup: dict[str, int]) -> list[int]:
    """One entry's vote ids and output id, each literal checked on its
    own, so a malformed entry raises its own ValueError."""
    expect_json(entry, dict, "entry")
    profile = expect_json(expect_key(entry, "profile", "entry"), list, "entry profile")
    votes = [_perm_id(t, m, lookup) for t in profile]
    if len(votes) != n:
        raise ValueError("entry profile has wrong voter count")
    return votes + [_perm_id(expect_key(entry, "output", "entry"), m, lookup)]


def _entries_ids(entries: list, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The entries' vote ids, (#entries, n), and output ids, (#entries,),
    as int64.  When every profile is a list of n canonical literals, one
    pass of dict lookups over all literals gives them; anything else
    sends the entries through `_entry_ids`, which names the first bad
    one."""
    _, lookup = _perm_texts(m)

    def ids(texts) -> np.ndarray:
        return np.fromiter(map(lookup.__getitem__, texts), dtype=np.int64)

    try:
        profiles = list(map(operator.itemgetter("profile"), entries))
        outputs = list(map(operator.itemgetter("output"), entries))
        if set(map(type, profiles)) <= {list} and set(map(len, profiles)) <= {n}:
            votes = ids(itertools.chain.from_iterable(profiles))
            return votes.reshape(len(entries), n), ids(outputs)
    except (TypeError, KeyError):
        pass
    rows = [_entry_ids(e, n, m, lookup) for e in entries]
    rows = np.array(rows, dtype=np.int64).reshape(len(entries), n + 1)
    return rows[:, :n], rows[:, n]


def _refuse_repeats(entries: list, first: np.ndarray) -> None:
    """Name the first entry whose profile an earlier entry gives;
    `first` holds the index of each distinct profile's first entry."""
    if len(first) < len(entries):
        repeated = np.ones(len(entries), dtype=bool)
        repeated[first] = False
        raise ValueError(f"duplicate entry for profile {entries[repeated.argmax()]['profile']}")


def from_json(doc: dict) -> Aggregator:
    expect_json(doc, dict, "aggregator document")
    m, n = (expect_key(doc, key, "aggregator document") for key in ("m", "n"))
    if type(m) is not int or type(n) is not int:
        raise ValueError(f"m and n must be integers, got m={m!r:.20}, n={n!r:.20}")
    if n < 1:
        raise ValueError(f"a rule needs n >= 1 voters, got n={n}")
    H = build_fixing_subgroup(m, expect_key(doc, "partition", "aggregator document"))
    kind = doc.get("type", "table")
    params = expect_json(doc.get("params", {}), dict, "params")
    if kind in NAMED_RULE_PARAMS:
        if "entries" in doc:
            raise ValueError(f"named rule {kind!r} is built from params; it takes no entries")
        return make_named_rule(kind, params, H, n)
    if "entries" not in doc:
        raise ValueError(f"aggregator type {kind!r} needs entries")
    entries = expect_json(doc["entries"], list, "entries")
    votes, outputs = _entries_ids(entries, n, m)
    fact = factorial(m)
    if len(entries) < fact**n:  # refused by count: no array of m!^n entries is built
        _refuse_repeats(entries, np.unique(votes, axis=0, return_index=True)[1])
        raise ValueError(f"table not total: {fact**n - len(entries)} profiles missing")
    idx = votes @ fact ** np.arange(n - 1, -1, -1, dtype=np.int64)  # voter 1 leads
    # at least m!^n entries: with no profile repeated, every profile is present
    if np.bincount(idx, minlength=fact**n).max() > 1:
        _refuse_repeats(entries, np.unique(idx, return_index=True)[1])
    table = np.empty(fact**n, dtype=np.int64)
    table[idx] = H.coset_ids[outputs]
    return Aggregator(m, n, H, table, kind, dict(params))


def save_json(agg: Aggregator, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_json(agg), fh, indent=2, sort_keys=True)


def load_json(path: str) -> Aggregator:
    with open(path) as fh:
        return from_json(json.load(fh))
