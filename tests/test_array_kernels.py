"""The numpy kernels for coset decompositions, rule tables, centering,
JSON, the exact FKN diagnostics and the exact moment kernels against
the loops in reference_loops.py."""

import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import reference_loops as ref
from irlap.aggregators import (
    corrupt_aggregator,
    profile_tables,
    from_json,
    make_dictator,
    make_borda,
    make_plurality,
    make_scoring,
    random_aggregator,
    to_json,
)
from irlap.basis import Rho1Table, build_basis, rho1_table
from irlap.moments import blocks_direct, moments
from irlap.perms import (
    build_fixing_subgroup,
    enumerate_group,
    fixed_points,
    trivial_subgroup,
    winner_subgroup,
)
from irlap.rounding import center_aggregator, fkn_diagnostics

RULE_SIZES = [(3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]
FEW = settings(max_examples=12, deadline=None)


@pytest.mark.parametrize("m,n", RULE_SIZES)
def test_rule_tables_match_loops(m, n):
    plurality = make_plurality(m, n)
    borda = make_borda(m, n)
    assert np.array_equal(plurality.table, ref.plurality_table(m, n))
    assert np.array_equal(borda.table, ref.borda_table(m, n))
    assert plurality.table.dtype == borda.table.dtype == np.int64


@pytest.mark.parametrize("m,n", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
def test_scoring_rules_match_the_loop_on_every_partition(m, n):
    scores = {"plurality": [1] + [0] * (m - 1), "borda": list(range(m - 1, -1, -1))}
    for partition in ref.set_partitions(list(range(1, m + 1))):
        H = build_fixing_subgroup(m, partition)
        for kind, s in scores.items():
            agg = make_scoring(kind, H, n)
            assert agg.H is H and (agg.kind, agg.params) == (kind, {})
            assert np.array_equal(agg.table, ref.scoring_table(s, H, n)), (kind, partition)


SUBGROUPS = [(m, partition) for m in range(2, 7)
             for partition in ref.set_partitions(list(range(1, m + 1)))]


@pytest.mark.parametrize("m,how", SUBGROUPS)
def test_coset_arrays_match_the_definition(m, how):
    """Every set partition at m = 2..6: the coset ids, representatives
    and rank counts from the members of the definition; the order; the
    orbits on the rank positions by Burnside (the mean fixed-point
    count over the members); and equality and hashing by m and the
    partition alone, in which the arrays take no part."""
    H = build_fixing_subgroup(m, how)
    ids, reps, prof = ref.coset_arrays(H)
    assert H.coset_ids.tolist() == ids
    assert H.representatives.tolist() == reps
    assert profile_tables(H).prof.tolist() == prof
    members = ref.fixing_members(m, H.partition)
    assert H.order == len(members)
    assert H.orbit_count == sum(map(fixed_points, members)) // len(members)
    twin = dataclasses.replace(H, coset_ids=H.coset_ids[::-1], representatives=H.coset_ids)
    assert twin == H and hash(twin) == hash(H)


@functools.lru_cache(maxsize=None)
def _rules(m, n):
    return make_plurality(m, n), make_borda(m, n)


@FEW
@given(st.sampled_from([(3, 5), (4, 4)]).flatmap(
    lambda mn: st.tuples(st.just(mn[0]),
                         st.lists(st.sampled_from(enumerate_group(mn[0])),
                                  min_size=mn[1], max_size=mn[1]))))
def test_rules_beyond_the_loop_sizes(case):
    """Single profiles, ties included, where a full loop is too slow."""
    m, profile = case
    plurality, borda = _rules(m, len(profile))
    words = enumerate_group(m)
    winner = words[plurality.H.representatives[plurality.evaluate(profile)]][0]
    assert winner == ref.plurality_winner(profile, m)
    assert words[borda.H.representatives[borda.evaluate(profile)]] == ref.borda_ranking(profile, m)


def _partitions(m):
    return [[[v] for v in range(1, m + 1)], [[1], list(range(2, m + 1))],
            [list(range(1, m)), [m]]]


@FEW
@given(st.sampled_from([(3, 2), (3, 3), (4, 2)]), st.integers(0, 2),
       st.integers(0, 2**32 - 1))
def test_center_aggregator_matches_loop(mn, part, seed):
    m, n = mn
    H = build_fixing_subgroup(m, _partitions(m)[part])
    agg = random_aggregator(m, n, H, np.random.default_rng(seed))
    centered = center_aggregator(agg)
    assert np.array_equal(centered.table, ref.centered_table(agg))
    assert (centered.n, centered.kind, centered.params) == (n + 1, "centered", {"base": "table"})


@pytest.mark.parametrize("m", [3, 4])
def test_center_aggregator_of_named_rules(m):
    for agg in (make_plurality(m, 1), make_borda(m, 2),
                make_dictator(1, enumerate_group(m)[-1], winner_subgroup(m), 2)):
        assert np.array_equal(center_aggregator(agg).table, ref.centered_table(agg))


JSON_SIZES = [(3, 1), (3, 2), (4, 1), (4, 2)]


@st.composite
def stored_aggregators(draw):
    m, n = draw(st.sampled_from(JSON_SIZES))
    H = build_fixing_subgroup(m, _partitions(m)[draw(st.integers(0, 2))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["table", "corrupted", "centered", "dictator"]))
    if kind == "table":
        return random_aggregator(m, n, H, rng)
    dictator = make_dictator(draw(st.integers(1, n)),
                             draw(st.sampled_from(enumerate_group(m))), H, n)
    if kind == "corrupted":
        return corrupt_aggregator(dictator, draw(st.integers(1, 3)), rng)
    if kind == "centered":
        return center_aggregator(random_aggregator(m, 1, H, rng))
    return dictator


@settings(max_examples=30, deadline=None)
@given(stored_aggregators())
def test_json_matches_loops(agg):
    doc = to_json(agg)
    assert doc == ref.json_doc(agg)
    back = from_json(doc)
    assert (back.kind, back.params, back.n, back.H.partition) == \
        (agg.kind, agg.params, agg.n, agg.H.partition)
    assert np.array_equal(back.table, agg.table)
    if "entries" in doc:
        assert np.array_equal(ref.json_table(doc), agg.table)


def _comma(text):
    return ",".join(text)


@FEW
@given(stored_aggregators().filter(lambda a: a.kind != "dictator"), st.data())
def test_json_reads_comma_literals(agg, data):
    doc = to_json(agg)
    for entry in doc["entries"]:
        if data.draw(st.booleans()):
            entry["profile"] = [_comma(t) for t in entry["profile"]]
        if data.draw(st.booleans()):
            entry["output"] = " " + _comma(entry["output"])
    assert np.array_equal(from_json(doc).table, agg.table)
    assert np.array_equal(ref.json_table(doc), agg.table)


def _break(doc, how, k):
    """Damage entry k of a stored document in one of the ways the
    reader must reject."""
    entries = doc["entries"]
    k %= len(entries)
    entry = entries[k]
    m = doc["m"]
    if how == "missing":
        del entries[k]
    elif how == "duplicate":
        entries.append(dict(entry))
    elif how == "voters":
        entry["profile"] = entry["profile"] + entry["profile"][:1]
    elif how == "wrong m":
        entry["profile"][0] = entry["profile"][0] + str(m + 1)
    elif how == "not a literal":
        entry["profile"][-1] = "x" * m
    elif how == "repeated symbol":
        entry["output"] = "1" * m
    elif how == "comma wrong m":
        entry["output"] = _comma(entry["output"]) + f",{m + 1}"
    elif how == "empty comma field":
        entry["output"] = entry["output"][0] + ",," + entry["output"][1:]
    else:
        raise AssertionError(how)


@settings(max_examples=40, deadline=None)
@given(stored_aggregators().filter(lambda a: a.kind != "dictator"),
       st.sampled_from(["missing", "duplicate", "voters", "wrong m", "not a literal",
                        "repeated symbol", "comma wrong m", "empty comma field"]),
       st.integers(0, 10**6))
def test_json_errors_match_loop(agg, how, k):
    doc = to_json(agg)
    _break(doc, how, k)
    with pytest.raises(ValueError) as expected:
        ref.json_table(doc)
    with pytest.raises(ValueError) as got:
        from_json(doc)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("m,n", [(4, 3), (5, 2)])
def test_r_lies_in_the_degree2_span(m, n):
    """Every entry of r = h h^T - M has no mass above degree 2 (the
    proof is in the rounding.MomentDiagnostics docstring); noise has
    mass of order 1 there, so the oracle sees such mass."""
    table = rho1_table(m)
    rng = np.random.default_rng(m * 10 + n)
    agg = random_aggregator(m, n, trivial_subgroup(m), rng)
    r = ref.fkn_r(agg, table).reshape(math.factorial(m) ** n, -1)
    assert max(ref.degree2_residual(r[:, k], n, table) for k in range(r.shape[1])) <= 1e-12
    noise = rng.standard_normal(len(r))
    assert ref.degree2_residual(noise, n, table) >= 0.5


_FKN_SIZES = [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2)]


@pytest.mark.parametrize("basis", ["helmert", "random"])
@pytest.mark.parametrize("kind", ["random", "corrupted", "centered", "plurality", "borda"])
@FEW
@given(st.sampled_from(_FKN_SIZES), st.booleans(), st.integers(0, 3),
       st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_fkn_certificate_bounds_the_whole_array_oracle(kind, basis, size, winner, entries,
                                                       rule_seed, basis_seed):
    """The exact R, tail and fourth-moment bounds hold on r counted over
    every profile, in the Helmert basis and in a random one, and the
    other diagnostics are the oracle's.  The only slack is the oracle's
    float rounding: at an exact dictator R = 0 while the oracle reads
    about 1e-31."""
    m, n = size
    rng = np.random.default_rng(rule_seed)
    H = (winner_subgroup if winner else trivial_subgroup)(m)
    if kind == "plurality":
        work = make_plurality(m, n)
    elif kind == "borda":
        work = make_borda(m, n)
    elif kind == "corrupted":  # 0 entries: an exact dictator
        sigma = enumerate_group(m)[rng.integers(0, math.factorial(m))]
        work = corrupt_aggregator(make_dictator(int(rng.integers(1, n + 1)), sigma, H, n),
                                  entries, rng)
    else:
        if kind == "centered" and math.factorial(m) ** (n + 1) > 20000:
            n -= 1  # keeps the oracle's r over m!^(n+1) profiles small
        work = random_aggregator(m, n, H, rng)
        work = center_aggregator(work) if kind == "centered" else work
    table = rho1_table(m) if basis == "helmert" else Rho1Table(
        m, build_basis(m, "random", basis_seed))
    got, want = fkn_diagnostics(work), ref.fkn_diagnostics(work, table)
    assert want.r_sup <= got.r_sup_bound + 1e-12
    assert want.r_entry4_max <= got.r_norm4_bound + 1e-12
    assert want.tail_prob <= got.tail_prob_bound
    assert got.r_norm4_bound == got.r_sup_bound * got.r_norm2_mean
    assert (got.epsilon, got.alpha, got.bound) == (want.epsilon, want.alpha, want.bound)
    assert math.isclose(got.r_norm2_mean, want.r_norm2_mean, rel_tol=1e-12, abs_tol=1e-15)
    assert math.isclose(got.tail_markov_bound, want.tail_markov_bound, rel_tol=1e-12,
                        abs_tol=1e-15)
    assert got.bound_ok == (want.r_norm2_mean <= got.bound + 1e-12)


def _int_matrices(m, lo=-30, hi=30):
    return st.lists(st.lists(st.integers(lo, hi), min_size=m, max_size=m),
                    min_size=m, max_size=m)


def _equal_margin(D, shift):
    """m^2 D - m R - m C + total + shift: all row and column sums equal."""
    m = len(D)
    R = [sum(r) for r in D]
    C = [sum(D[i][j] for i in range(m)) for j in range(m)]
    total = sum(R)
    return [[m * m * D[i][j] - m * R[i] - m * C[j] + total + shift for j in range(m)]
            for i in range(m)]


def _margins(A):
    return {sum(r) for r in A} | {sum(c) for c in zip(*A)}


def _fractions(m):
    return st.lists(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12),
                             min_size=m, max_size=m), min_size=m, max_size=m)


# No shrinking: each step reruns the reference contraction (0.1 s at
# m = 8), so shrinking a failure takes minutes; the unshrunk matrices
# are small enough to read.
@pytest.mark.parametrize("m", range(4, 9))
@settings(max_examples=3, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.data())
def test_blocks_direct_matches_contraction(m, data):
    """Equal-margin ints, rationals that are not equal-margin, and
    asymmetric ints (where the E5/E3 blocks tell rows from columns)."""
    equal = _equal_margin(data.draw(_int_matrices(m, -9, 9)), data.draw(st.integers(-9, 9)))
    rational = data.draw(_fractions(m).filter(lambda A: len(_margins(A)) > 1))
    asymmetric = data.draw(_int_matrices(m).filter(
        lambda A: any(A[i][j] != A[j][i] for i in range(m) for j in range(i))))
    for A in (equal, rational, asymmetric):
        got = blocks_direct(A)
        assert got == ref.blocks_by_contraction(A)
        assert all(type(v) is Fraction for row in got for v in row)


def test_blocks_direct_at_the_int64_bound():
    """The [0, 0] entry of the all-v matrix is m^8 v^4, the bound that
    picks int64: at the largest v under 2^63 the int64 sums stay exact,
    and one more takes the object path."""
    m = 4
    v = round((2**63 / m**8) ** 0.25)
    while m**8 * v**4 >= 2**63:
        v -= 1
    for w in (v, v + 1):
        for A in ([[w] * m for _ in range(m)],
                  [[w * (-1) ** (i * j) for j in range(m)] for i in range(m)]):
            assert blocks_direct(A) == ref.blocks_by_contraction(A)
    assert blocks_direct([[v] * m for _ in range(m)])[0][0] == m**8 * v**4


def _mixed(m):
    return st.lists(st.lists(st.one_of(st.integers(-50, 50),
                                       st.fractions(-50, 50, max_denominator=30)),
                             min_size=m, max_size=m), min_size=m, max_size=m)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 8).flatmap(
    lambda m: st.one_of(_int_matrices(m, -10**6, 10**6), _fractions(m), _mixed(m))))
def test_exact_moments_match_loops(A):
    """Value and type: ints give ints, any Fraction gives Fractions."""
    got = moments(A).as_tuple()
    want = ref.moments_by_loops(A).as_tuple()
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


@FEW
@given(st.integers(4, 6).flatmap(lambda m: st.lists(_mixed(m), min_size=1, max_size=4)))
def test_exact_moments_of_a_stack(stack):
    """A Fraction anywhere in the stack makes every value a Fraction."""
    got = moments(stack).as_tuple()
    rational = any(isinstance(v, Fraction) for A in stack for row in A for v in row)
    for k, A in enumerate(stack):
        assert tuple(v[k] for v in got) == ref.moments_by_loops(A).as_tuple()
        assert {type(v[k]) for v in got} == {Fraction if rational else int}
