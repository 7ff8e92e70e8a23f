"""Permutations, fixing subgroups, cosets, and rank profiles.

Conventions (fixed once, used everywhere):

- A ranking of m alternatives is a permutation x stored as a tuple
  ``word`` of length m with 1-based values: ``word[r-1]`` is the name
  ranked r, i.e. x(rank) = name.
- ``compose(x, y)(r) = x(y(r))`` -- y is applied first.  Under this
  rule a rank relabeling of x by sigma is ``compose(x, sigma)``.
- A fixing subgroup H for a partition of [m] consists of all
  permutations mapping every block onto itself.  The output space of
  an aggregator is the set of cosets ``{compose(x, h) : h in H}``.
  With the winner-take-all partition {{1},{2..m}} these cosets are
  exactly "all rankings with a fixed name in rank 1", so a coset is a
  single election winner; with the all-singletons partition cosets
  are singletons and aggregators return full rankings.

All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod

import numpy as np

MAX_M = 9  # enumerate_group materializes all m! tuples; 9! = 362880


def identity(m: int) -> tuple[int, ...]:
    return tuple(range(1, m + 1))


def parse_perm(text: str, m: int) -> tuple[int, ...]:
    """Parse a permutation literal: concatenated digits for m <= 9
    (e.g. "231"), comma-separated integers otherwise."""
    if not isinstance(text, str):
        raise ValueError(f"not a permutation literal: {text!r}")
    text = text.strip()
    if "," in text:
        parts = text.split(",")
    else:
        parts = list(text)
    try:
        word = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"not a permutation literal: {text!r}")
    if len(word) != m:
        raise ValueError(f"expected {m} symbols, got {len(word)}: {text!r}")
    if sorted(word) != list(range(1, m + 1)):
        raise ValueError(f"symbols must be a rearrangement of 1..{m}: {text!r}")
    return word


def format_perm(word: tuple[int, ...]) -> str:
    if len(word) <= 9:
        return "".join(str(v) for v in word)
    return ",".join(str(v) for v in word)


def compose(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """compose(x, y)(r) = x(y(r)): apply y first, then x."""
    if len(x) != len(y):
        raise ValueError(f"mixed sizes: {len(x)} vs {len(y)}")
    return tuple(x[v - 1] for v in y)


def inverse(x: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(x)
    for r, name in enumerate(x, start=1):
        inv[name - 1] = r
    return tuple(inv)


def rank_of(x: tuple[int, ...], j: int) -> int:
    """The rank x^-1(j) that x assigns to alternative j."""
    return x.index(j) + 1


def enumerate_group(m: int) -> list[tuple[int, ...]]:
    """All m! permutations in lexicographic order of their words."""
    if not 2 <= m <= MAX_M:
        raise ValueError(f"m must be in 2..{MAX_M}, got {m}")
    return list(itertools.permutations(range(1, m + 1)))


def perm_index(x: tuple[int, ...]) -> int:
    """Lexicographic rank of x among all permutations of its size."""
    m = len(x)
    seen = 0  # bitmask of names already placed
    idx = 0
    for r, name in enumerate(x):
        smaller = name - 1 - bin(seen & ((1 << (name - 1)) - 1)).count("1")
        idx += smaller * factorial(m - 1 - r)
        seen |= 1 << (name - 1)
    return idx


def perm_indices(words: np.ndarray) -> np.ndarray:
    """perm_index over the last axis of an integer array of words: the
    Lehmer digits (later names that are smaller) weighted by
    factorials."""
    words = np.asarray(words)
    m = words.shape[-1]
    later = np.triu(np.ones((m, m), dtype=bool), 1)  # [r, s]: s comes after r
    smaller = (words[..., None, :] < words[..., :, None]) & later
    weights = np.array([factorial(m - 1 - r) for r in range(m)], dtype=np.int64)
    return smaller.sum(axis=-1) @ weights


def compose_table(m: int) -> np.ndarray:
    """comp[a, b] = perm_index(compose(x_a, x_b)) for the lex-ordered
    permutations x_a, x_b; shape (m!, m!)."""
    words = np.array(enumerate_group(m))
    return perm_indices(words[:, words - 1])


def fixed_points(x: tuple[int, ...]) -> int:
    return sum(1 for r, name in enumerate(x, start=1) if name == r)


def is_even(x: tuple[int, ...]) -> bool:
    word = list(x)
    parity = 0
    for i in range(len(word)):
        while word[i] != i + 1:
            j = word[i] - 1
            word[i], word[j] = word[j], word[i]
            parity ^= 1
    return parity == 0


@dataclass(frozen=True)
class Coset:
    """A coset {compose(x, h) : h in H}; representative is the
    lexicographically least member."""

    representative: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]


def _validate_partition(m: int, partition) -> tuple[tuple[int, ...], ...]:
    if not (isinstance(partition, (list, tuple)) and all(
            isinstance(b, (list, tuple)) and all(type(v) is int for v in b) for b in partition)):
        raise ValueError(f"partition must be a list of integer blocks: {partition!r:.60}")
    blocks = tuple(tuple(sorted(b)) for b in partition)
    flat = sorted(v for b in blocks for v in b)
    if not blocks or any(len(b) == 0 for b in blocks):
        raise ValueError("partition blocks must be nonempty")
    if flat != list(range(1, m + 1)):
        raise ValueError(f"partition must cover 1..{m} exactly: {partition}")
    return tuple(sorted(blocks))


@dataclass(frozen=True)
class FixingSubgroup:
    """Subgroup of all permutations respecting a partition of [m],
    together with the coset decomposition of S_m.

    ``partition`` is None for ad-hoc subgroups built from explicit
    members (test fixtures); only partition-built subgroups are fixing
    subgroups in the guaranteed sense.
    """

    m: int
    partition: tuple[tuple[int, ...], ...] | None
    members: tuple[tuple[int, ...], ...]
    cosets: tuple[Coset, ...]
    coset_index: dict[tuple[int, ...], int] = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def block_count(self) -> int:
        if self.partition is None:
            raise ValueError("subgroup was not built from a partition")
        return len(self.partition)

    @property
    def orbit_count(self) -> int:
        """Orbits of H on the rank positions 1..m, by Burnside the mean
        fixed-point count (an exact integer division).  tr M_H =
        orbit_count - 1, so M_H = 0 exactly when H is transitive."""
        return sum(fixed_points(h) for h in self.members) // self.order

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def coset_of(self, x: tuple[int, ...]) -> Coset:
        return self.cosets[self.coset_index[x]]


def coset_ids(H: FixingSubgroup) -> np.ndarray:
    """The coset index of every permutation, in lex order; shape (m!,)."""
    return np.array([H.coset_index[x] for x in enumerate_group(H.m)], dtype=np.int64)


def _cosets_from_members(m: int, members) -> tuple[tuple[Coset, ...], dict]:
    perms = enumerate_group(m)
    seen: dict[tuple[int, ...], int] = {}
    cosets: list[Coset] = []
    for x in perms:  # lex order makes the first-seen member the representative
        if x in seen:
            continue
        coset_members = tuple(sorted(compose(x, h) for h in members))
        idx = len(cosets)
        cosets.append(Coset(representative=coset_members[0], members=coset_members))
        for y in coset_members:
            seen[y] = idx
    return tuple(cosets), seen


def build_fixing_subgroup(m: int, partition) -> FixingSubgroup:
    """All permutations mapping each partition block onto itself, with
    the coset decomposition of S_m and canonical representatives."""
    blocks = _validate_partition(m, partition)
    per_block = [list(itertools.permutations(b)) for b in blocks]
    members = []
    for arrangement in itertools.product(*per_block):
        word = [0] * m
        for block, images in zip(blocks, arrangement):
            for pos, img in zip(block, images):
                word[pos - 1] = img
        members.append(tuple(word))
    members.sort()
    expected = 1
    for b in blocks:
        expected *= factorial(len(b))
    assert len(members) == expected
    cosets, index = _cosets_from_members(m, members)
    return FixingSubgroup(m, blocks, tuple(members), cosets, index)


def subgroup_from_members(m: int, members) -> FixingSubgroup:
    """Ad-hoc subgroup from an explicit member list (e.g. the
    alternating group, which is not fixing).  Closure is checked."""
    mset = set(tuple(x) for x in members)
    if identity(m) not in mset:
        raise ValueError("members must contain the identity")
    for a in mset:
        if inverse(a) not in mset:
            raise ValueError("members not closed under inverse")
        for b in mset:
            if compose(a, b) not in mset:
                raise ValueError("members not closed under composition")
    ordered = tuple(sorted(mset))
    cosets, index = _cosets_from_members(m, ordered)
    return FixingSubgroup(m, None, ordered, cosets, index)


def trivial_subgroup(m: int) -> FixingSubgroup:
    """All-singletons partition: aggregators return full rankings."""
    return build_fixing_subgroup(m, [[v] for v in range(1, m + 1)])


def winner_subgroup(m: int) -> FixingSubgroup:
    """Partition {{1},{2..m}}: aggregators return a single winner."""
    return build_fixing_subgroup(m, [[1], list(range(2, m + 1))])


def j_profile(coset: Coset, j: int, m: int) -> tuple[Fraction, ...]:
    """Rank profile of alternative j over the coset: entry r is the
    fraction of members ranking j at r.  Entries sum to 1."""
    if not 1 <= j <= m:
        raise ValueError(f"alternative {j} out of range 1..{m}")
    counts = [0] * m
    for y in coset.members:
        counts[rank_of(y, j) - 1] += 1
    h = len(coset.members)
    return tuple(Fraction(c, h) for c in counts)


def j_profile_counts(coset: Coset, j: int, m: int) -> tuple[int, ...]:
    """Integer rank-multiplicity vector (sums to |H|); exact arithmetic
    building block for the rational IR metrics."""
    counts = [0] * m
    for y in coset.members:
        counts[rank_of(y, j) - 1] += 1
    return tuple(counts)


# ---------------------------------------------------------------------------
# Profile-space index arrays


def rank_table(m: int) -> np.ndarray:
    """ranks[j-1, x] = the rank that the x-th permutation (lex order)
    assigns to alternative j; shape (m, m!)."""
    return np.argsort(np.array(enumerate_group(m)), axis=1).T + 1


def _voter_slabs(table: np.ndarray, i: int, n: int, fact: int) -> np.ndarray:
    """View a per-profile array as (m!^(n-1), m!) with voter i
    (1-based) as the fast axis."""
    shaped = table.reshape((fact,) * n)
    return np.moveaxis(shaped, i - 1, -1).reshape(-1, fact)


@functools.lru_cache(maxsize=8)
def switch_classes(m: int, n: int) -> np.ndarray:
    """Profile indices grouped into single-voter switch classes.

    Entry [i, j, r, s] lists, ascending, the (m-1)! profiles of slab s
    (every voter but i+1 held fixed) in which voter i+1 ranks
    alternative j+1 at r+1.  Shape (n, m, m, m!^(n-1), (m-1)!);
    cached per (m, n) and read-only.
    """
    fact = factorial(m)
    # members[j, r] = permutations ranking alternative j+1 at r+1
    members = np.argsort(rank_table(m), axis=1, kind="stable").reshape(m, m, -1)
    profiles = np.arange(fact**n, dtype=np.int64)
    slabs = np.stack([_voter_slabs(profiles, i, n, fact).T for i in range(1, n + 1)])
    # Stored class-major, so each [i, j, r] block is column-major.  The
    # float sums of _class_sum_form run in this memory order, and the
    # golden CLI reports pin their rounding.
    idx = np.ascontiguousarray(slabs[:, members]).swapaxes(-1, -2)
    idx.setflags(write=False)
    return idx


def class_histograms(labels: np.ndarray, classes: np.ndarray, size: int) -> np.ndarray:
    """counts[..., v] = how often label v (0 <= v < size) occurs in each
    class: labels[classes] counted along the last axis."""
    gathered = labels[classes]
    rows = gathered.shape[:-1]
    keys = gathered + size * np.arange(prod(rows)).reshape(rows + (1,))
    counts = np.bincount(keys.reshape(-1), minlength=prod(rows) * size)
    return counts.reshape(rows + (size,))


def broadcast_voter(per_vote: np.ndarray, i: int, n: int) -> np.ndarray:
    """Expand a per-vote array (m!, ...) to the per-profile array
    (m!^n, ...) whose value depends only on voter i (1-based)."""
    fact = per_vote.shape[0]
    reps = (fact ** (i - 1),) + (1,) * (per_vote.ndim - 1)
    return np.tile(np.repeat(per_vote, fact ** (n - i), axis=0), reps)
