"""Permutation substrate: parsing, composition, subgroups, profiles."""

import itertools
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from irlap.aggregators import profile_tables
from irlap.perms import (
    broadcast_voter,
    build_fixing_subgroup,
    compose,
    compose_table,
    enumerate_group,
    format_perm,
    identity,
    inverse,
    parse_perm,
    perm_index,
    perm_indices,
    rank_classes,
    trivial_subgroup,
    voter_view,
    winner_subgroup,
)


def test_parse_identity():
    assert parse_perm("123", 3) == (1, 2, 3)


def test_parse_word():
    x = parse_perm("231", 3)
    assert x[0] == 2 and x[1] == 3 and x[2] == 1


def test_parse_comma_form():
    assert parse_perm("2,3,1", 3) == (2, 3, 1)


@pytest.mark.parametrize("bad", ["221", "124", "12", "abc"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_perm(bad, 3)


def test_format_round_trip():
    for x in enumerate_group(4):
        assert parse_perm(format_perm(x), 4) == x


def test_compose_identity_neutral():
    y = parse_perm("231", 3)
    assert compose(identity(3), y) == y
    assert compose(y, identity(3)) == y


def test_compose_example():
    assert compose(parse_perm("213", 3), parse_perm("231", 3)) == parse_perm("132", 3)


def test_compose_inverse():
    for x in enumerate_group(4):
        assert compose(x, inverse(x)) == identity(4)
        assert compose(inverse(x), x) == identity(4)
        assert inverse(inverse(x)) == x


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_inverse_examples():
    assert inverse(identity(3)) == identity(3)
    assert inverse(parse_perm("231", 3)) == parse_perm("312", 3)


def test_antiautomorphism_exhaustive_m4():
    group = enumerate_group(4)
    for x in group:
        for y in group:
            assert compose(inverse(y), inverse(x)) == inverse(compose(x, y))


def test_enumerate_group():
    g3 = enumerate_group(3)
    assert len(g3) == 6
    assert g3[0] == (1, 2, 3) and g3[-1] == (3, 2, 1)
    assert len(enumerate_group(4)) == 24


def test_enumerate_group_bounds():
    with pytest.raises(ValueError):
        enumerate_group(1)
    with pytest.raises(ValueError):
        enumerate_group(10)


def test_perm_index_is_lex_rank():
    for m in (3, 4, 5):
        for i, x in enumerate(enumerate_group(m)):
            assert perm_index(x) == i


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9).flatmap(lambda m: st.lists(st.permutations(range(1, m + 1)),
                                                    min_size=1, max_size=4)))
def test_perm_indices_match_perm_index(words):
    got = perm_indices(np.array(words))
    assert got.tolist() == [perm_index(tuple(w)) for w in words]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_compose_table_and_coset_ids(m):
    perms = enumerate_group(m)
    comp = compose_table(m)
    for a, x in enumerate(perms):
        for b, y in enumerate(perms):
            assert comp[a, b] == perm_index(compose(x, y))
    for H in (trivial_subgroup(m), winner_subgroup(m)):
        members = ref.fixing_members(m, H.partition)
        least = [min(perm_index(compose(x, h)) for h in members) for x in perms]
        assert H.representatives[H.coset_ids].tolist() == least


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_coset_ids_are_kept_read_only_on_H(m):
    """Every permutation's coset, by the definition, over several
    partitions; the array is built once per H and cannot be written."""
    rest = list(range(3, m + 1))
    for partition in ([[v] for v in range(1, m + 1)], [[1], [2] + rest], [[1, 2], rest],
                      [[1, 3], [2]] + [[v] for v in rest[1:]], [list(range(1, m + 1))]):
        H = build_fixing_subgroup(m, partition)
        ids = H.coset_ids
        assert H.coset_ids is ids
        assert not ids.flags.writeable
        with pytest.raises(ValueError):
            ids[0] = 1
        reps = H.representatives.tolist()
        members = ref.fixing_members(m, H.partition)
        assert ids.tolist() == [reps.index(min(perm_index(compose(x, h)) for h in members))
                                for x in enumerate_group(m)]


def test_trivial_subgroup_is_swf():
    H = trivial_subgroup(3)
    assert H.order == 1
    assert len(H.representatives) == 6


def test_winner_subgroup_is_scf():
    H = winner_subgroup(3)
    assert H.order == 2
    assert len(H.representatives) == 3


def test_fixing_subgroup_m4():
    H = build_fixing_subgroup(4, [[1], [2, 3], [4]])
    assert H.order == 2
    assert len(H.representatives) == 12


def test_fixing_subgroups_are_kept_per_canonical_blocks():
    """Spellings of one partition share one build; a bad partition is
    refused on every call, also once a good one is kept; at most eight
    builds are kept."""
    from irlap import perms

    H = build_fixing_subgroup(4, [[4], [3, 2], [1]])
    assert build_fixing_subgroup(4, ([1], (2, 3), [4])) is H
    assert H.partition == ((1,), (2, 3), (4,))
    for _ in range(2):
        with pytest.raises(ValueError, match="cover 1..4 exactly"):
            build_fixing_subgroup(4, [[4], [3, 2], [1, 1]])
    for m in (5, 6):  # nine more partitions
        for k in range(1, m):
            build_fixing_subgroup(m, [list(range(1, k + 1)), list(range(k + 1, m + 1))])
    assert perms._fixing_subgroup.cache_info().currsize == 8


@pytest.mark.parametrize("partition", [[[1], [2]], [[1, 2], [2, 3]], [[]]])
def test_invalid_partitions(partition):
    with pytest.raises(ValueError):
        build_fixing_subgroup(3, partition)


@pytest.mark.parametrize("m,partition", [
    (3, [[1], [2, 3]]),
    (4, [[1, 2], [3, 4]]),
    (5, [[1, 2], [3, 4, 5]]),
])
def test_group_laws(m, partition):
    H = build_fixing_subgroup(m, partition)
    members = set(ref.fixing_members(m, H.partition))
    assert identity(m) in members
    for a in members:
        assert inverse(a) in members
        for b in members:
            assert compose(a, b) in members
    order = 1
    for block in partition:
        order *= factorial(len(block))
    assert H.order == order == len(members)
    # coset 0 holds the identity: it is H
    assert np.flatnonzero(H.coset_ids == 0).tolist() == sorted(map(perm_index, members))


@pytest.mark.parametrize("m,partition", [
    (3, [[1], [2, 3]]),
    (4, [[1], [2, 3], [4]]),
    (4, [[1, 2], [3, 4]]),
])
def test_cosets_partition_group(m, partition):
    H = build_fixing_subgroup(m, partition)
    seen = set()
    for c, rep in enumerate(H.representatives):
        members = np.flatnonzero(H.coset_ids == c)
        assert rep == members.min()
        assert len(members) == H.order
        seen.update(members.tolist())
    assert len(seen) == factorial(m)


def test_j_profile_swf_unit_vector():
    H = trivial_subgroup(3)
    x = parse_perm("231", 3)
    prof = profile_tables(H).prof[H.coset_ids[perm_index(x)], 0] / H.order
    assert prof[x.index(1)] == 1
    assert sum(prof) == 1


def test_j_profile_scf_example():
    H = winner_subgroup(3)
    K = H.coset_ids[perm_index(parse_perm("123", 3))]  # winner 1
    prof = profile_tables(H).prof[K]
    assert [Fraction(v, H.order) for v in prof[0]] == [1, 0, 0]
    assert [Fraction(v, H.order) for v in prof[1]] == [0, Fraction(1, 2), Fraction(1, 2)]


def test_j_profiles_sum_to_one():
    H = build_fixing_subgroup(4, [[1], [2, 3], [4]])
    assert (profile_tables(H).prof.sum(axis=2) == H.order).all()


@pytest.mark.parametrize("m", [3, 4])
def test_orbit_count_is_the_trace_of_M_H_plus_one(m):
    from irlap.basis import rho1_table

    table = rho1_table(m)
    cases = [(m, trivial_subgroup(m)), (2, winner_subgroup(m)),
             (1, build_fixing_subgroup(m, [list(range(1, m + 1))]))]
    for orbits, H in cases:
        assert H.orbit_count == orbits
        members = ref.fixing_members(m, H.partition)
        trace = np.trace(np.mean([table.of(h) for h in members], axis=0))
        assert abs(trace - (H.orbit_count - 1)) < 1e-12


@pytest.mark.parametrize("m,n", [(3, 1), (3, 2), (2, 3)])
def test_voter_view_and_rank_classes_match_definition(m, n):
    perms = enumerate_group(m)
    fact = len(perms)
    classes = rank_classes(m)
    assert classes.shape == (m, m, factorial(m - 1))
    assert not classes.flags.writeable
    for j in range(m):
        for r in range(m):
            assert list(classes[j, r]) == [
                v for v, x in enumerate(perms) if x.index(j + 1) == r]
    profiles = list(itertools.product(range(fact), repeat=n))
    others = list(itertools.product(range(fact), repeat=n - 1))
    values = np.arange(2 * len(profiles)).reshape(-1, 2)  # a trailing axis rides along
    for i in range(n):
        view = voter_view(values, i, n)
        assert view.shape == (fact, fact ** (n - 1), 2)
        for v in range(fact):
            for s, rest in enumerate(others):
                p = profiles.index(rest[:i] + (v,) + rest[i:])
                assert (view[v, s] == values[p]).all()
    assert np.shares_memory(voter_view(values, 0, n), values)


@pytest.mark.parametrize("n,shared", [(1, [True]), (2, [True, True]),
                                      (3, [True, False, True])])
def test_voter_view_copies_only_the_middle_voters(n, shared):
    values = np.arange(6 ** n)
    assert [np.shares_memory(voter_view(values, i, n), values) for i in range(n)] == shared


def test_broadcast_voter_depends_only_on_that_voter():
    per_vote = np.arange(6) * 10
    table = broadcast_voter(per_vote, 2, 3)
    for p, prof in enumerate(itertools.product(range(6), repeat=3)):
        assert table[p] == per_vote[prof[1]]
