"""IR metrics, the census, preference orders, and manipulation power."""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irlap import metrics
from irlap._util import FeasibilityError
from irlap.aggregators import (
    Aggregator,
    corrupt_aggregator,
    make_dictator,
    make_plurality,
    profile_tables,
    random_aggregator,
)
from irlap.laplacian import apply_Ln, apply_quadratic_form
from irlap.metrics import (
    census_ir_functions,
    default_orders,
    ir_combinatorial,
    is_ir_multi,
    is_ir_single,
    manipulation_power,
    pair_count_tensors,
    per_entry_ir_bound,
    random_orders,
)
from irlap.perms import (
    build_fixing_subgroup,
    compose,
    enumerate_group,
    parse_perm,
    perm_index,
    trivial_subgroup,
    winner_subgroup,
)
from irlap.rounding import kernel_projection


def test_dictator_ir_is_zero_everywhere():
    for H in (trivial_subgroup(3), winner_subgroup(3)):
        for n in (1, 2):
            value = ir_combinatorial(make_dictator(n, parse_perm("321", 3), H, n))
            assert value.profile_distance == 0
            assert value.indicator == 0
            assert abs(value.quadratic) <= 1e-12


def test_zero_locus_exact_m4():
    from irlap.aggregators import make_constant
    from irlap.perms import build_fixing_subgroup

    for H in (trivial_subgroup(4), winner_subgroup(4),
              build_fixing_subgroup(4, [[1], [2, 3], [4]])):
        for n in (1, 2):
            d = ir_combinatorial(make_dictator(1, parse_perm("2134", 4), H, n))
            assert d.profile_distance == 0 and d.indicator == 0
            c = ir_combinatorial(make_constant(0, H, n))
            assert c.profile_distance == 0
            assert abs(c.quadratic) <= 1e-12


def test_name_relabeling_has_positive_ir():
    H = trivial_subgroup(3)
    sigma = parse_perm("213", 3)
    table = np.array([H.coset_ids[perm_index(compose(sigma, x))] for x in enumerate_group(3)])
    value = ir_combinatorial(Aggregator(3, 1, H, table))
    assert value.profile_distance > 0
    assert abs(float(value.profile_distance) - value.quadratic) <= 1e-9


def test_swf_distance_is_twice_indicator():
    H = trivial_subgroup(3)
    rng = np.random.default_rng(9)
    for _ in range(50):
        value = ir_combinatorial(random_aggregator(3, 1, H, rng))
        assert value.profile_distance == 2 * value.indicator


def test_scf_distance_is_c_times_indicator():
    # Winner-subgroup profiles come in exactly two shapes per j, so
    # every violation sits at the diameter c = m/(m-1).
    H = winner_subgroup(3)
    rng = np.random.default_rng(19)
    c = profile_tables(H).max_pair_dist2
    for _ in range(50):
        value = ir_combinatorial(random_aggregator(3, 2, H, rng))
        assert value.profile_distance == c * value.indicator


def test_plurality_three_voters_positive_and_consistent():
    value = ir_combinatorial(make_plurality(3, 3))
    assert value.profile_distance > 0
    assert abs(float(value.profile_distance) - value.quadratic) <= 1e-9


def test_budget_scale_m5_n2():
    # The documented budget admits m=5, n=2; both the exact oracle and
    # the matrix-free spectral path must agree there in reasonable time.
    import time

    from irlap.perms import winner_subgroup as ws

    H = ws(5)
    rng = np.random.default_rng(55)
    agg = random_aggregator(5, 2, H, rng)
    t0 = time.time()
    value = ir_combinatorial(agg)
    elapsed = time.time() - t0
    assert abs(float(value.profile_distance) - value.quadratic) <= 1e-9
    assert elapsed < 300  # documented bound: five minutes


def test_detectors_agree():
    rng = np.random.default_rng(10)
    H = trivial_subgroup(3)
    for _ in range(200):
        agg = random_aggregator(3, 2, H, rng)
        assert is_ir_single(agg) == is_ir_multi(agg)
    d = make_dictator(2, parse_perm("132", 3), H, 2)
    assert is_ir_single(d) and is_ir_multi(d)


def test_detectors_match_ir_value():
    rng = np.random.default_rng(11)
    H = winner_subgroup(3)
    for _ in range(50):
        agg = random_aggregator(3, 2, H, rng)
        assert is_ir_single(agg) == (
            ir_combinatorial(agg).indicator == 0
        )


def test_census_swf():
    result = census_ir_functions(3, 1, trivial_subgroup(3))
    assert result.total == 46656
    assert result.ir_count == 12
    assert result.constants == 6
    assert result.dictators == 6
    assert result.others == 0


def test_census_scf():
    result = census_ir_functions(3, 1, winner_subgroup(3))
    assert result.total == 729
    assert (result.constants, result.dictators, result.others) == (3, 3, 0)


def test_census_m2_degeneracy():
    # With one voter every member of the m=2 zero locus is a constant
    # or dictator; from two voters on, composition-style functions
    # (e.g. the parity of the two sign characters) join the kernel, so
    # the "other" bucket is nonempty exactly there.
    single = census_ir_functions(2, 1, trivial_subgroup(2))
    assert single.ir_count == 4 and single.others == 0
    double = census_ir_functions(2, 2, trivial_subgroup(2))
    assert double.ir_count == 16  # every function is IR at m=2
    assert double.others == 10
    assert double.degenerate


def test_census_mask_matches_ir_oracle():
    # Every one of the 729 winner-subgroup functions, classified by the
    # census, must agree with the per-function indicator rate.
    H = winner_subgroup(3)
    result = census_ir_functions(3, 1, H)
    ir_zero = 0
    for code in range(729):
        table = np.array([(code // 3**p) % 3 for p in reversed(range(6))])
        value = ir_combinatorial(Aggregator(3, 1, H, table))
        ir_zero += value.indicator == 0
    assert ir_zero == result.ir_count == 6


def test_census_refusal():
    with pytest.raises(FeasibilityError) as err:
        census_ir_functions(4, 1, trivial_subgroup(4))
    assert "24^24" in str(err.value)


def test_census_limit_is_read_at_call_time(monkeypatch):
    monkeypatch.setattr(metrics, "CENSUS_LIMIT", 10)
    with pytest.raises(FeasibilityError):
        census_ir_functions(3, 1, trivial_subgroup(3))


# (m, n, partition) shapes of the voter-permutation property
VOTER_SHAPES = [(3, 2, [[1], [2], [3]]), (3, 2, [[1], [2, 3]]),
                (3, 3, [[1], [2], [3]]), (4, 2, [[1], [2, 3, 4]])]


@settings(max_examples=25, deadline=None)
@given(shape=st.sampled_from(VOTER_SHAPES), seed=st.integers(0, 2**32 - 1),
       dictator=st.booleans(), data=st.data())
def test_statistics_follow_a_voter_permutation(shape, seed, dictator, data):
    """Relabeling the voters, and the alternatives by a pi in S_m (every
    vote x and every output coset x H becomes compose(pi, x) and its
    coset), keeps IR, the forms and the kernel distance, and permutes
    the per-voter values as the voters move.  The rule is random, or a
    dictator with up to two corrupted entries."""
    m, n, partition = shape
    perm = data.draw(st.permutations(range(n)))
    pi = data.draw(st.sampled_from(enumerate_group(m)))
    H, rng = build_fixing_subgroup(m, partition), np.random.default_rng(seed)
    if dictator:
        sigma = data.draw(st.sampled_from(enumerate_group(m)))
        base = make_dictator(data.draw(st.integers(1, n)), sigma, H, n)
        agg = corrupt_aggregator(base, data.draw(st.integers(0, 2)), rng)
    else:
        agg = random_aggregator(m, n, H, rng)
    # renamed[v] = index of compose(pi, x_v); coset c goes to the coset of compose(pi, rep_c)
    renamed = np.array([perm_index(compose(pi, x)) for x in enumerate_group(m)])
    words = enumerate_group(m)
    outputs = H.coset_ids[[perm_index(compose(pi, words[r])) for r in H.representatives]]
    cube = agg.table.reshape((factorial(m),) * n).transpose(perm)
    moved = Aggregator(m, n, H, outputs[cube[np.ix_(*[np.argsort(renamed)] * n)]].reshape(-1))
    ir, ir_moved = (ir_combinatorial(a) for a in (agg, moved))
    assert (ir_moved.profile_distance, ir_moved.indicator) == (ir.profile_distance, ir.indicator)
    for variant in ("L1", "L2"):
        assert (apply_quadratic_form(moved, None, variant).canonical
                == apply_quadratic_form(agg, None, variant).canonical)
    assert apply_Ln(moved) == apply_Ln(agg)
    proj, proj_moved = (kernel_projection(a) for a in (agg, moved))
    assert proj_moved.kernel_distance_sq == proj.kernel_distance_sq
    assert list(proj_moved.coefficient_norms) == [proj.coefficient_norms[i] for i in perm]
    per_voter = manipulation_power(agg).per_voter
    assert manipulation_power(moved).per_voter == [per_voter[i] for i in perm]
    assert is_ir_single(moved) == is_ir_single(agg)


def test_default_orders_scf():
    H = winner_subgroup(3)
    orders = default_orders(H, 3)
    tables = profile_tables(H)
    # j = 1, truthful rank 1: winner profile (1,0,0) tops (0, 1/2, 1/2)
    cat = list(map(tuple, tables.catalog.tolist()))
    winner_pid = cat.index((2, 0, 0))
    other_pid = cat.index((0, 1, 1))
    pos = orders.position[0]
    assert pos[0, winner_pid] < pos[0, other_pid]
    # any rank != 1: the non-winner profile is preferred
    assert pos[1, other_pid] < pos[1, winner_pid]


def test_default_orders_swf_unit_top():
    H = trivial_subgroup(3)
    orders = default_orders(H, 3)
    tables = profile_tables(H)
    for j in range(3):
        cat = list(map(tuple, tables.catalog.tolist()))
        for r in range(1, 4):
            target = tuple(1 if rr == r else 0 for rr in range(1, 4))
            assert orders.position[j][r - 1, cat.index(target)] == 0


def test_identity_dictator_is_strategy_proof():
    for H in (trivial_subgroup(3), winner_subgroup(3)):
        for n in (1, 2):
            rep = manipulation_power(make_dictator(1, (1, 2, 3), H, n))
            assert rep.total == 0
            assert rep.holds


def test_scf_constant_c():
    rep = manipulation_power(make_dictator(1, (1, 2, 3), winner_subgroup(3), 1))
    assert rep.c == Fraction(3, 2)


def test_plurality_manipulation():
    rep = manipulation_power(make_plurality(3, 2))
    assert rep.total > 0
    assert rep.holds


def test_manipulation_bounds_random_orders():
    # The provable factor-2 bound holds for every order family; the
    # literal c*M >= IR comparison is recorded per report and fails on
    # rare single-voter inputs (see the acceptance suite).
    rng = np.random.default_rng(12)
    for H in (trivial_subgroup(3), winner_subgroup(3)):
        for n in (1, 2):
            for _ in range(20):
                agg = random_aggregator(3, n, H, rng)
                ir = ir_combinatorial(agg).profile_distance
                for trial in range(3):
                    rep = manipulation_power(agg, random_orders(H, 3, rng), ir=ir)
                    assert rep.holds_weak
                assert sum(rep.per_voter, Fraction(0)) == rep.total


def test_literal_cm_bound_has_single_voter_counterexamples():
    # Exhibit the gap: sweep seeded single-voter aggregators until the
    # literal inequality fails while the factor-2 form still holds.
    rng = np.random.default_rng(500 + 1)  # seed path known to expose one
    found = False
    for _ in range(500):
        agg = random_aggregator(3, 1, trivial_subgroup(3), rng)
        rep = manipulation_power(agg)
        assert rep.holds_weak
        if not rep.holds:
            found = True
            assert 2 * rep.c * rep.total >= rep.ir
    assert found
    # The hand-checked witness of acceptance criterion 8: the identity
    # dictator with profile 132 sent to 123.  Its values come from the
    # literal loop, not from the counting code the criterion checks.
    H = trivial_subgroup(3)
    witness = Aggregator(3, 1, H, np.array([0, 0, 2, 3, 4, 5]))
    ir_brute, m_brute = _brute_ir_and_M(witness, default_orders(H, 3))
    assert ir_brute == Fraction(2, 9)
    assert m_brute == Fraction(1, 18)
    assert profile_tables(H).max_pair_dist2 * m_brute < ir_brute


def test_per_entry_bound():
    H = trivial_subgroup(3)
    bound = per_entry_ir_bound(3, 2, H)
    rng = np.random.default_rng(13)
    d = make_dictator(1, parse_perm("231", 3), H, 2)
    for k in (1, 2, 4):
        corr = corrupt_aggregator(d, k, rng)
        value = ir_combinatorial(corr).profile_distance
        assert value <= k * bound


def test_ir_budget_refusal(monkeypatch):
    H = trivial_subgroup(3)
    agg = random_aggregator(3, 2, H, np.random.default_rng(0))
    monkeypatch.setattr("irlap.laplacian.LN_BUDGET", 10)
    with pytest.raises(FeasibilityError):
        ir_combinatorial(agg)


def test_pair_counts_refuse_where_ir_refuses():
    agg = random_aggregator(3, 8, trivial_subgroup(3), np.random.default_rng(0))
    with pytest.raises(FeasibilityError, match="combinatorial IR budget"):
        pair_count_tensors(agg)


def _brute_ir_and_M(agg, orders):
    """Literal loop over (voter, others, truth, report, alternative);
    the reference all counting shortcuts are held to."""
    import itertools
    from math import factorial

    m, n, H = agg.m, agg.n, agg.H
    tables = profile_tables(H)
    h = H.order
    fact = factorial(m)
    dist_num = manip = 0
    for i in range(n):
        for others in itertools.product(range(fact), repeat=n - 1):
            for xi in range(fact):
                idx_x = 0
                for v in others[:i] + (xi,) + others[i:]:
                    idx_x = idx_x * fact + v
                cx = agg.table[idx_x]
                for yi in range(fact):
                    idx_y = 0
                    for v in others[:i] + (yi,) + others[i:]:
                        idx_y = idx_y * fact + v
                    cy = agg.table[idx_y]
                    for j in range(m):
                        if tables.rank[j][xi] == tables.rank[j][yi]:
                            dist_num += int(
                                ((tables.prof[cx, j] - tables.prof[cy, j]) ** 2).sum()
                            )
                        pos = orders.position[j][tables.rank[j][xi] - 1]
                        if pos[tables.pid[cy, j]] < pos[tables.pid[cx, j]]:
                            manip += 1
    denom = fact ** (n + 1)
    return Fraction(dist_num, h * h * denom), Fraction(manip, denom)


def test_counting_paths_match_literal_loops():
    rng = np.random.default_rng(77)
    for H in (trivial_subgroup(3), winner_subgroup(3)):
        for n in (1, 2):
            for trial in range(2):
                agg = random_aggregator(3, n, H, rng)
                orders = random_orders(H, 3, rng) if trial else default_orders(H, 3)
                ir_brute, m_brute = _brute_ir_and_M(agg, orders)
                assert ir_combinatorial(agg).profile_distance \
                    == ir_brute
                assert manipulation_power(agg, orders).total == m_brute
