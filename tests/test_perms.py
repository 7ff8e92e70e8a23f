"""Permutation substrate: parsing, composition, subgroups, profiles."""

import itertools
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irlap.perms import (
    broadcast_voter,
    build_fixing_subgroup,
    compose,
    compose_table,
    coset_ids,
    enumerate_group,
    format_perm,
    identity,
    inverse,
    is_even,
    j_profile,
    parse_perm,
    perm_index,
    perm_indices,
    rank_of,
    subgroup_from_members,
    switch_classes,
    trivial_subgroup,
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
        assert coset_ids(H).tolist() == [H.coset_index[x] for x in perms]


def test_trivial_subgroup_is_swf():
    H = trivial_subgroup(3)
    assert H.order == 1
    assert len(H.cosets) == 6


def test_winner_subgroup_is_scf():
    H = winner_subgroup(3)
    assert H.order == 2
    assert len(H.cosets) == 3


def test_fixing_subgroup_m4():
    H = build_fixing_subgroup(4, [[1], [2, 3], [4]])
    assert H.order == 2
    assert len(H.cosets) == 12


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
    members = set(H.members)
    assert identity(m) in members
    for a in members:
        assert inverse(a) in members
        for b in members:
            assert compose(a, b) in members
    order = 1
    for block in partition:
        order *= factorial(len(block))
    assert H.order == order


@pytest.mark.parametrize("m,partition", [
    (3, [[1], [2, 3]]),
    (4, [[1], [2, 3], [4]]),
    (4, [[1, 2], [3, 4]]),
])
def test_cosets_partition_group(m, partition):
    H = build_fixing_subgroup(m, partition)
    seen = set()
    for coset in H.cosets:
        assert coset.representative == min(coset.members)
        assert len(coset.members) == H.order
        seen.update(coset.members)
    assert len(seen) == factorial(m)


def test_j_profile_swf_unit_vector():
    H = trivial_subgroup(3)
    x = parse_perm("231", 3)
    prof = j_profile(H.coset_of(x), 1, 3)
    assert prof[rank_of(x, 1) - 1] == 1
    assert sum(prof) == 1


def test_j_profile_scf_example():
    H = winner_subgroup(3)
    K = H.coset_of(parse_perm("123", 3))  # winner 1
    assert j_profile(K, 1, 3) == (1, 0, 0)
    assert j_profile(K, 2, 3) == (0, Fraction(1, 2), Fraction(1, 2))


def test_j_profiles_sum_to_one():
    H = build_fixing_subgroup(4, [[1], [2, 3], [4]])
    for coset in H.cosets:
        for j in range(1, 5):
            assert sum(j_profile(coset, j, 4)) == 1


@pytest.mark.parametrize("m", [3, 4])
def test_orbit_count_is_the_trace_of_M_H_plus_one(m):
    from irlap.basis import rho1_table

    table = rho1_table(m)
    alternating = subgroup_from_members(m, [x for x in enumerate_group(m) if is_even(x)])
    cases = [(m, trivial_subgroup(m)), (2, winner_subgroup(m)),
             (1, build_fixing_subgroup(m, [list(range(1, m + 1))])), (1, alternating)]
    for orbits, H in cases:
        assert H.orbit_count == orbits
        trace = np.trace(np.mean([table.of(h) for h in H.members], axis=0))
        assert abs(trace - (H.orbit_count - 1)) < 1e-12


def test_subgroup_from_members_rejects_nongroup():
    with pytest.raises(ValueError):
        subgroup_from_members(3, [(1, 2, 3), (2, 3, 1)])


@pytest.mark.parametrize("m,n", [(3, 1), (3, 2), (2, 3)])
def test_switch_classes_match_definition(m, n):
    perms = enumerate_group(m)
    profiles = list(itertools.product(range(len(perms)), repeat=n))
    idx = switch_classes(m, n)
    assert idx.shape == (n, m, m, len(perms) ** (n - 1), factorial(m - 1))
    assert not idx.flags.writeable
    for i in range(n):
        for j in range(m):
            for r in range(m):
                expected = {}
                for p, prof in enumerate(profiles):
                    if rank_of(perms[prof[i]], j + 1) == r + 1:
                        others = prof[:i] + prof[i + 1:]
                        expected.setdefault(others, []).append(p)
                assert sorted(map(list, idx[i, j, r])) == sorted(expected.values())


def test_broadcast_voter_depends_only_on_that_voter():
    per_vote = np.arange(6) * 10
    table = broadcast_voter(per_vote, 2, 3)
    for p, prof in enumerate(itertools.product(range(6), repeat=3)):
        assert table[p] == per_vote[prof[1]]
