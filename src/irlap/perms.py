"""Permutations, fixing subgroups, and their coset decompositions.

Conventions (fixed once, used everywhere):

- A ranking of m alternatives is a permutation x stored as a tuple
  ``word`` of length m with 1-based values: ``word[r-1]`` is the name
  ranked r, i.e. x(rank) = name.
- ``compose(x, y)(r) = x(y(r))`` -- y is applied first.  Under this
  rule a rank relabeling of x by sigma is ``compose(x, sigma)``.
- A fixing subgroup H for a partition of [m] consists of all
  permutations mapping every block onto itself; H is a function of m
  and the partition alone.  The output space of an aggregator is the
  set of cosets ``{compose(x, h) : h in H}``.
  With the winner-take-all partition {{1},{2..m}} these cosets are
  exactly "all rankings with a fixed name in rank 1", so a coset is a
  single election winner; with the all-singletons partition cosets
  are singletons and aggregators return full rankings.
- A coset decomposition is one integer array, ``H.coset_ids``: the
  coset of every permutation in lex order, cosets numbered by their
  least member, built with the representatives.  Members and rank
  profiles are array reads of it (`FixingSubgroup`,
  `aggregators.ProfileTables`).

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
    """The subgroup H of all permutations mapping every block of a
    partition of [m] onto itself, with the coset decomposition of S_m;
    a function of m and the partition alone, which equality and hashing
    read.

    compose(x, h) permutes x's names within each block's positions, so
    the least member of x's coset {compose(x, h) : h in H} is x with
    each block's names sorted ascending.  ``coset_ids[a]`` is the coset
    of the a-th permutation in lex order and ``representatives[c]`` the
    lex index of coset c's least member, cosets numbered by it: two
    read-only arrays from one np.unique of the least members.  Each
    coset's members (a stable argsort) and the rank counts of
    `aggregators.ProfileTables` are read off the ids; coset 0 holds the
    identity, so it is H.
    """

    m: int
    partition: tuple[tuple[int, ...], ...]
    coset_ids: np.ndarray = field(compare=False, repr=False)  # (m!,)
    representatives: np.ndarray = field(compare=False, repr=False)  # (#cosets,)

    @property
    def order(self) -> int:
        return prod(factorial(len(b)) for b in self.partition)

    @property
    def orbit_count(self) -> int:
        """Orbits of H on the rank positions: its blocks.  tr M_H =
        orbit_count - 1, so M_H = 0 exactly when H is one block."""
        return len(self.partition)


def build_fixing_subgroup(m: int, partition) -> FixingSubgroup:
    """The fixing subgroup of a partition, with the coset decomposition
    of S_m; the partition is checked on every call, the build kept per
    its blocks."""
    return _fixing_subgroup(m, _validate_partition(m, partition))


@functools.lru_cache(maxsize=8)  # the bound of rank_classes
def _fixing_subgroup(m: int, blocks: tuple[tuple[int, ...], ...]) -> FixingSubgroup:
    least = np.array(enumerate_group(m))  # sorted per block below: each coset's least member
    for block in blocks:
        pos = np.array(block) - 1
        least[:, pos] = np.sort(least[:, pos], axis=1)
    reps, ids = np.unique(perm_indices(least), return_inverse=True)
    for arr in (reps, ids):
        arr.setflags(write=False)
    return FixingSubgroup(m, blocks, ids, reps)


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
