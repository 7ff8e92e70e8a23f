"""Aggregator rules, encodings, consistency, and serialization."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from irlap.aggregators import (
    ProfileTables,
    consistency_check,
    corrupt_aggregator,
    encode_g,
    from_json,
    load_json,
    make_borda,
    make_constant,
    make_dictator,
    make_named_rule,
    make_plurality,
    make_scoring,
    profile_tables,
    random_aggregator,
    save_json,
    to_json,
)
from irlap.basis import Rho1Table, build_basis, rho1_table
from irlap.perms import (
    build_fixing_subgroup,
    enumerate_group,
    parse_perm,
    perm_index,
    trivial_subgroup,
    winner_subgroup,
)


def test_dictator_identity_sigma():
    H = trivial_subgroup(3)
    d = make_dictator(1, (1, 2, 3), H, 2)
    x = (parse_perm("231", 3), parse_perm("123", 3))
    assert enumerate_group(3)[H.representatives[d.evaluate(x)]] == parse_perm("231", 3)


def test_dictator_scf_returns_top_choice():
    H = winner_subgroup(3)
    d = make_dictator(1, (1, 2, 3), H, 2)
    x = (parse_perm("231", 3), parse_perm("123", 3))
    # winner = voter 1's rank-1 name = 2
    assert d.evaluate(x) == H.coset_ids[perm_index(parse_perm("231", 3))]


def test_dictator_voter_out_of_range():
    with pytest.raises(ValueError):
        make_dictator(3, (1, 2, 3), trivial_subgroup(3), 2)


def test_constant():
    H = winner_subgroup(3)
    c = make_constant(2, H, 2)
    for profile in [(parse_perm("123", 3), parse_perm("321", 3))]:
        assert c.evaluate(profile) == 2


def test_plurality_unanimity():
    p = make_plurality(3, 3)
    profile = tuple(parse_perm("123", 3) for _ in range(3))
    assert enumerate_group(3)[p.H.representatives[p.evaluate(profile)]][0] == 1


def test_plurality_tie_break_lexicographic():
    p = make_plurality(3, 2)
    profile = (parse_perm("123", 3), parse_perm("231", 3))  # one vote each for 1, 2
    assert enumerate_group(3)[p.H.representatives[p.evaluate(profile)]][0] == 1


def test_borda_example():
    b = make_borda(3, 2)
    profile = (parse_perm("123", 3), parse_perm("231", 3))
    # scores: 1 -> 2, 2 -> 3, 3 -> 1
    assert enumerate_group(3)[b.H.representatives[b.evaluate(profile)]] == parse_perm("213", 3)


def test_evaluate_rejects_wrong_size():
    p = make_plurality(3, 2)
    with pytest.raises(ValueError):
        p.evaluate((parse_perm("123", 3),))


def test_evaluate_rejects_non_permutation_votes():
    b = make_borda(3, 1)
    for vote in ((1, 1, 1), (3, 3, 3), (0, 1, 2), (1, 2)):
        with pytest.raises(ValueError, match="not a permutation"):
            b.evaluate([vote])


def test_swf_dictator_encoding_is_orthogonal():
    H = trivial_subgroup(3)
    agg = make_dictator(1, parse_perm("213", 3), H, 1)
    for g in encode_g(agg)[agg.table]:
        assert np.abs(g @ g.T - np.eye(2)).max() <= 1e-10


def test_m_h_traces():
    swf = consistency_check(make_constant(0, trivial_subgroup(3), 1))
    assert np.abs(swf.M_H - np.eye(2)).max() <= 1e-12  # trace m-1
    scf = consistency_check(make_constant(0, winner_subgroup(3), 1))
    assert abs(np.trace(scf.M_H) - 1.0) <= 1e-10
    assert np.abs(scf.M_H).max() > 1e-9


def test_consistency_invariant_random():
    rng = np.random.default_rng(2)
    for H in (trivial_subgroup(3), winner_subgroup(3)):
        for n in (1, 2):
            rep = consistency_check(random_aggregator(3, n, H, rng))
            assert rep.max_deviation <= 1e-9
            assert rep.idempotency_deviation <= 1e-9
            assert rep.fixing


@st.composite
def _partitions(draw, lo=3, hi=5):
    """m in lo..hi and a set partition of 1..m, as blocks of a drawn label."""
    m = draw(st.integers(lo, hi))
    labels = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    return m, [[a for a in range(1, m + 1) if labels[a - 1] == b] for b in sorted(set(labels))]


@settings(max_examples=30, deadline=None)
@given(_partitions(), st.one_of(st.none(), st.integers(0, 2**32 - 1)))
def test_coset_means_satisfy_the_consistency_identity(drawn, basis_seed):
    """g_c g_c^T = M_H on every coset mean, in the Helmert basis or a
    random one; g(x) = g_c[f(x)], so this holds at every profile."""
    m, partition = drawn
    H = build_fixing_subgroup(m, partition)
    basis = build_basis(m) if basis_seed is None else build_basis(m, "random", basis_seed)
    table = Rho1Table(m, basis)
    gc = encode_g(make_constant(0, H, 1), table)
    MH = np.mean([table.of(h) for h in ref.fixing_members(m, H.partition)], axis=0)
    assert len(gc) == len(H.representatives)
    assert np.abs(np.einsum("ckl,ctl->ckt", gc, gc) - MH).max() <= 1e-10


@settings(max_examples=40, deadline=None)
@given(_partitions(2, 6), st.booleans())
def test_one_catalog_lists_the_orbits(drawn, transitive):
    """The j-profile of coset c is |H|/|O| on the orbit O of H that holds
    the rank c's representative gives j, for every j: one catalog of
    H.orbit_count entries serves every alternative.  H is a drawn
    fixing subgroup or the transitive one-block one."""
    m, partition = drawn
    H = build_fixing_subgroup(m, [list(range(1, m + 1))] if transitive else partition)
    tables = profile_tables(H)
    members = ref.fixing_members(m, H.partition)
    assert len(tables.catalog) == H.orbit_count
    for c, rep in enumerate(H.representatives):
        for j in range(1, m + 1):
            orbit = {h[enumerate_group(m)[rep].index(j)] for h in members}
            expected = tuple(H.order // len(orbit) if r in orbit else 0 for r in range(1, m + 1))
            assert tuple(tables.catalog[tables.pid[c, j - 1]].tolist()) == expected


def test_catalog_is_one_read_only_array():
    tables = profile_tables(winner_subgroup(4))
    assert tables.catalog.dtype == np.int64 and not tables.catalog.flags.writeable
    assert tables.catalog.tolist() == [[0, 2, 2, 2], [6, 0, 0, 0]]


def test_a_j_profile_outside_the_catalog_is_refused():
    """Doctored ids that swap 132 and 213 between winner 1's coset and
    winner 2's keep every coset's size, so the row and column sums hold,
    but coset 0 then ranks 1 at 1 and at 2 once each: not an orbit's
    vector."""
    H = winner_subgroup(3)
    ids = H.coset_ids.copy()
    ids[[1, 2]] = ids[[2, 1]]
    with pytest.raises(AssertionError, match="not in the catalog"):
        ProfileTables(dataclasses.replace(H, coset_ids=ids))


def test_one_block_subgroup_flagged_nonfixing():
    H = build_fixing_subgroup(3, [[1, 2, 3]])
    rep = consistency_check(make_constant(0, H, 1))
    assert not rep.fixing
    assert np.abs(rep.M_H).max() <= 1e-12


def test_m_h_two_ways_agree():
    table = rho1_table(3)
    H = winner_subgroup(3)
    agg = make_constant(1, H, 1)
    g = encode_g(agg, table)[agg.table]
    MH_from_members = np.mean([table.of(h) for h in ref.fixing_members(3, H.partition)], axis=0)
    MH_from_g = g[0] @ g[0].T
    assert np.abs(MH_from_members - MH_from_g).max() <= 1e-10


@pytest.mark.parametrize("scf", [False, True])
def test_json_round_trip(scf):
    H = winner_subgroup(3) if scf else trivial_subgroup(3)
    rng = np.random.default_rng(4)
    agg = random_aggregator(3, 2, H, rng)
    doc = to_json(agg)
    back = from_json(doc)
    assert np.array_equal(agg.table, back.table)
    assert back.H.partition == H.partition


@st.composite
def _json_rules(draw):
    """A rule of every kind JSON stores: by entries (random, corrupted,
    centered) or by params (dictator, constant, plurality, Borda)."""
    from irlap.rounding import center_aggregator

    m, partition = draw(_partitions(3, 4))
    n = draw(st.integers(1, 2))
    H = build_fixing_subgroup(m, partition)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "corrupted", "centered", "dictator",
                                 "constant", "plurality", "borda"]))
    if kind == "random":
        return random_aggregator(m, n, H, rng)
    if kind == "centered":
        return center_aggregator(random_aggregator(m, 1, H, rng))
    if kind == "constant":
        return make_constant(draw(st.integers(0, len(H.representatives) - 1)), H, n)
    if kind in ("plurality", "borda"):
        return make_scoring(kind, H, n)
    dictator = make_dictator(draw(st.integers(1, n)),
                             draw(st.sampled_from(enumerate_group(m))), H, n)
    if kind == "corrupted" and len(H.representatives) > 1:
        return corrupt_aggregator(dictator, draw(st.integers(1, 3)), rng)
    return dictator


@settings(max_examples=60, deadline=None)
@given(_json_rules())
def test_json_round_trip_is_lossless(agg):
    doc = to_json(agg)
    back = from_json(json.loads(json.dumps(doc)))
    assert (back.m, back.n, back.kind, back.params) == (agg.m, agg.n, agg.kind, agg.params)
    assert back.H == agg.H and np.array_equal(back.H.coset_ids, agg.H.coset_ids)
    assert back.table.dtype == np.int64 and np.array_equal(back.table, agg.table)
    assert to_json(back) == doc


def test_json_rejects_a_rule_without_voters():
    for n, kind in ((0, "table"), (-1, "table"), (-1, "plurality")):
        doc = {"m": 3, "n": n, "partition": [[1], [2], [3]], "type": kind,
               "entries": [{"profile": [], "output": "123"}]}
        if kind == "plurality":
            del doc["entries"]
        with pytest.raises(ValueError, match=f"n >= 1 voters, got n={n}"):
            from_json(doc)


def test_json_named_rules():
    doc = to_json(make_dictator(2, parse_perm("213", 3), trivial_subgroup(3), 2))
    back = from_json(doc)
    assert back.kind == "dictator"
    assert np.array_equal(
        back.table, make_dictator(2, parse_perm("213", 3), trivial_subgroup(3), 2).table
    )


def test_json_round_trip_keeps_stored_kinds(tmp_path):
    # kinds that make_named_rule cannot rebuild travel with their entries
    # and keep their type and params
    from irlap.rounding import center_aggregator

    H = trivial_subgroup(3)
    dictator = make_dictator(1, parse_perm("213", 3), H, 1)
    corrupted = corrupt_aggregator(dictator, 2, np.random.default_rng(0))
    for agg in (center_aggregator(dictator), corrupted):
        path = tmp_path / f"{agg.kind}.json"
        save_json(agg, str(path))
        back = load_json(str(path))
        assert (back.kind, back.params, back.n) == (agg.kind, agg.params, agg.n)
        assert np.array_equal(back.table, agg.table)
    assert corrupted.params == {"corrupted_from": "dictator"}


def test_corrupt_refuses_a_one_coset_subgroup():
    """No other coset exists to corrupt to: a named ValueError, raised
    before the generator is touched; zero entries is still a copy."""
    one_coset = make_constant(0, build_fixing_subgroup(3, [[1, 2, 3]]), 2)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="one-coset subgroup"):
        corrupt_aggregator(one_coset, 1, rng)
    assert rng.bit_generator.state == state
    assert np.array_equal(corrupt_aggregator(one_coset, 0, rng).table, one_coset.table)


def test_corrupt_refuses_more_entries_than_the_table():
    """A table has m!^n entries: more (or fewer than 0) is a named
    ValueError before any draw; all of them is allowed."""
    dictator = make_dictator(1, parse_perm("213", 3), trivial_subgroup(3), 2)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for entries in (37, -1):
        with pytest.raises(ValueError, match=f"cannot corrupt {entries} of the 36 table entries"):
            corrupt_aggregator(dictator, entries, rng)
    assert rng.bit_generator.state == state
    whole = corrupt_aggregator(dictator, 36, rng)  # every entry moves to another coset
    assert (whole.table != dictator.table).all()


@pytest.mark.parametrize("m", [3, 4, 5])
def test_json_named_rules_keep_their_own_partition(m):
    """Plurality and Borda round-trip on their default partitions and on
    the other one: a document is built on the partition it declares."""
    for rule, other in ((make_plurality(m, 2), trivial_subgroup(m)),
                        (make_borda(m, 2), winner_subgroup(m))):
        assert from_json(to_json(rule)).H is rule.H
        moved = from_json({**to_json(rule), "partition": [list(b) for b in other.partition]})
        assert moved.H is other and moved.kind == rule.kind
        assert np.array_equal(moved.table, make_scoring(rule.kind, other, 2).table)
        assert to_json(moved) == to_json(make_scoring(rule.kind, other, 2))


def test_json_named_rule_with_entries_is_input_error():
    doc = to_json(random_aggregator(3, 1, trivial_subgroup(3), np.random.default_rng(0)))
    doc["type"] = "plurality"
    with pytest.raises(ValueError, match="entries"):
        from_json(doc)
    del doc["entries"]
    doc["type"] = "centered"
    with pytest.raises(ValueError, match="entries"):
        from_json(doc)


def test_named_rule_rejects_unknown_params():
    H = trivial_subgroup(3)
    with pytest.raises(ValueError, match="bogus"):
        make_named_rule("plurality", {"bogus": "1"}, H, 1)
    with pytest.raises(ValueError, match="extra"):
        make_named_rule("dictator", {"i": 1, "sigma": "123", "extra": 0}, H, 1)
    with pytest.raises(ValueError, match="unknown aggregator type"):
        make_named_rule("centered", {}, H, 1)


def test_named_rule_names_missing_params():
    H = trivial_subgroup(3)
    with pytest.raises(ValueError, match=r"'dictator' is missing params \['sigma'\]"):
        make_named_rule("dictator", {"i": 1}, H, 2)
    with pytest.raises(ValueError, match=r"'constant' is missing params \['output'\]"):
        from_json({"m": 3, "n": 1, "partition": [[1], [2], [3]], "type": "constant"})
    doc = {"m": 3, "n": 2, "partition": [[1], [2], [3]], "type": "dictator", "params": {"i": 1}}
    with pytest.raises(ValueError, match=r"missing params \['sigma'\]"):
        from_json(doc)


def test_json_rejects_partial_table():
    H = trivial_subgroup(3)
    agg = random_aggregator(3, 1, H, np.random.default_rng(0))
    doc = to_json(agg)
    doc["entries"] = doc["entries"][:-1]
    with pytest.raises(ValueError):
        from_json(doc)


@pytest.mark.parametrize("n", [12, 20, 30])
def test_json_refuses_a_short_table_by_its_count(n):
    """Fewer entries than the m!^n profiles are refused from the count,
    before any array of m!^n entries is built (6^12 int64 take 16 GiB;
    6^30 does not fit in int64)."""
    import tracemalloc

    doc = {"m": 3, "n": n, "partition": [[1], [2], [3]], "entries": []}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"table not total: {6**n} profiles missing"):
            from_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_json_rejects_duplicate_profile():
    H = trivial_subgroup(3)
    doc = to_json(random_aggregator(3, 1, H, np.random.default_rng(0)))
    first = doc["entries"][0]
    other = "132" if first["output"] == "123" else "123"
    doc["entries"].append({"profile": first["profile"], "output": other})
    with pytest.raises(ValueError, match="duplicate"):
        from_json(doc)


def test_profile_tables_cache_shared_across_json_round_trips():
    agg = random_aggregator(3, 1, trivial_subgroup(3), np.random.default_rng(1))
    first = profile_tables(from_json(to_json(agg)).H)
    size = profile_tables.cache_info().currsize
    for _ in range(50):
        assert profile_tables(from_json(to_json(agg)).H) is first
    assert profile_tables.cache_info().currsize == size


def test_profile_tables_cache_is_bounded():
    """Twenty distinct partitions leave at most eight cached tables,
    the newest of them among those kept."""
    import itertools

    partitions = sorted({tuple(sorted(tuple(v + 1 for v in range(5) if labels[v] == b)
                                      for b in set(labels)))
                         for labels in itertools.product(range(3), repeat=5)})[:20]
    for partition in partitions:
        last = build_fixing_subgroup(5, partition)
        tables = profile_tables(last)
        assert profile_tables.cache_info().currsize <= 8
    assert profile_tables(last) is tables


def test_profile_tables_constants():
    swf = profile_tables(trivial_subgroup(3))
    assert swf.max_pair_dist2 == 2
    scf = profile_tables(winner_subgroup(3))
    from fractions import Fraction

    assert scf.max_pair_dist2 == Fraction(3, 2)
