"""Permutations, fixing subgroups, and their coset decompositions.

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
- A coset decomposition is one integer array, ``H.coset_ids``: the
  coset of every permutation in lex order, cosets numbered by their
  least member.  Representatives, members and rank profiles are array
  reads of it (`FixingSubgroup`, `aggregators.ProfileTables`).

All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from math import factorial, prod

import numpy as np

MAX_M = 9  # enumerate_group materializes all m! tuples; 9! = 362880
# why a one-block partition is refused: H = S_m, and tr M_H = #orbits - 1
TRANSITIVE = "the output subgroup is transitive on the rank positions (M_H = 0)"


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
    Lehmer digits (later names that are smaller), one position at a
    time, weighted by factorials."""
    words = np.asarray(words)
    m = words.shape[-1]
    idx = np.zeros(words.shape[:-1], dtype=np.int64)
    for r in range(m - 1):
        idx += sum(words[..., s] < words[..., r] for s in range(r + 1, m)) * factorial(m - 1 - r)
    return idx


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

    ``coset_ids[a]`` is the coset {compose(x, h) : h in H} of the a-th
    permutation x in lex order, cosets numbered by their least member;
    the (m!,) array is read-only and the only stored form of the
    decomposition: `representatives`, each coset's members (a stable
    argsort) and the rank counts of `aggregators.ProfileTables` are read
    off it.  It follows from m and the members, so it takes no part in
    equality or hashing.

    ``partition`` is None for ad-hoc subgroups built from explicit
    members (test fixtures); only partition-built subgroups are fixing
    subgroups in the guaranteed sense.
    """

    m: int
    partition: tuple[tuple[int, ...], ...] | None
    members: tuple[tuple[int, ...], ...]
    coset_ids: np.ndarray = field(compare=False, repr=False)

    @property
    def order(self) -> int:
        return len(self.members)

    @functools.cached_property
    def orbit_count(self) -> int:
        """Orbits of H on the rank positions 1..m, by Burnside the mean
        fixed-point count (exact, kept on H).  tr M_H = orbit_count - 1,
        so M_H = 0 exactly when H is transitive."""
        return sum(fixed_points(h) for h in self.members) // self.order

    @functools.cached_property
    def representatives(self) -> np.ndarray:
        """The lex index of every coset's least member, by coset id;
        read-only and kept on H.  Its length is the coset count."""
        reps = np.unique(self.coset_ids, return_index=True)[1]
        reps.setflags(write=False)
        return reps


def _coset_ids(m: int, members) -> np.ndarray:
    perms = enumerate_group(m)
    index = {x: a for a, x in enumerate(perms)}
    ids = [-1] * len(perms)
    count = 0
    for a, x in enumerate(perms):  # lex order meets each coset first at its least member
        if ids[a] < 0:
            for h in members:
                ids[index[compose(x, h)]] = count
            count += 1
    out = np.array(ids, dtype=np.int64)
    out.setflags(write=False)
    return out


def build_fixing_subgroup(m: int, partition) -> FixingSubgroup:
    """All permutations mapping each partition block onto itself, with
    the coset decomposition of S_m and canonical representatives; the
    partition is checked on every call, the build kept per its blocks."""
    return _fixing_subgroup(m, _validate_partition(m, partition))


@functools.lru_cache(maxsize=8)  # the bound of rank_classes
def _fixing_subgroup(m: int, blocks: tuple[tuple[int, ...], ...]) -> FixingSubgroup:
    per_block = [list(itertools.permutations(b)) for b in blocks]
    members = []
    for arrangement in itertools.product(*per_block):
        word = [0] * m
        for block, images in zip(blocks, arrangement):
            for pos, img in zip(block, images):
                word[pos - 1] = img
        members.append(tuple(word))
    members.sort()
    assert len(members) == prod(factorial(len(b)) for b in blocks)
    return FixingSubgroup(m, blocks, tuple(members), _coset_ids(m, members))


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
    return FixingSubgroup(m, None, ordered, _coset_ids(m, ordered))


def coset_count(m: int, partition) -> int:
    """m! / prod |B|!, the cosets of a valid partition's H, without H."""
    blocks = _validate_partition(m, partition)
    return factorial(m) // prod(factorial(len(b)) for b in blocks)


def trivial_subgroup(m: int) -> FixingSubgroup:
    """All-singletons partition: aggregators return full rankings."""
    return build_fixing_subgroup(m, [[v] for v in range(1, m + 1)])


def winner_subgroup(m: int) -> FixingSubgroup:
    """Partition {{1},{2..m}}: aggregators return a single winner."""
    return build_fixing_subgroup(m, [[1], list(range(2, m + 1))])


# ---------------------------------------------------------------------------
# Profile-space index arrays


def rank_table(m: int) -> np.ndarray:
    """ranks[j-1, x] = the rank that the x-th permutation (lex order)
    assigns to alternative j; shape (m, m!)."""
    return np.argsort(np.array(enumerate_group(m)), axis=1).T + 1


def voter_view(values: np.ndarray, i: int, n: int) -> np.ndarray:
    """A per-profile array (m!^n, ...) as (m!, m!^(n-1), ...): entry
    [v, s] is the profile where voter i+1 casts the v-th permutation
    and the other voters, in order, have mixed-radix index s.  A view
    for the first and the last voter, one copy for the voters between."""
    fact, rest = round(len(values) ** (1 / n)), values.shape[1:]
    split = values.reshape((fact**i, fact, -1) + rest)  # (earlier voters, voter i+1, later)
    return split.swapaxes(0, 1).reshape((fact, -1) + rest)


@functools.lru_cache(maxsize=8)
def rank_classes(m: int) -> np.ndarray:
    """Entry [j, r] lists, ascending, the (m-1)! permutations that rank
    alternative j+1 at r+1; shape (m, m, (m-1)!), read-only.  The
    switch class of voter i+1, alternative j+1, rank r+1 and other
    voters s is voter_view(values, i, n)[rank_classes(m)[j, r], s]."""
    classes = np.argsort(rank_table(m), axis=1, kind="stable").reshape(m, m, -1)
    classes.setflags(write=False)
    return classes


def broadcast_voter(per_vote: np.ndarray, i: int, n: int) -> np.ndarray:
    """Expand a per-vote array (m!, ...) to the per-profile array
    (m!^n, ...) whose value depends only on voter i (1-based)."""
    fact = per_vote.shape[0]
    reps = (fact ** (i - 1),) + (1,) * (per_vote.ndim - 1)
    return np.tile(np.repeat(per_vote, fact ** (n - i), axis=0), reps)
