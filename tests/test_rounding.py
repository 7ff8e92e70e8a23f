"""Robustness pipeline: kernel distance, recovery, rounding, moments."""

import math
import tracemalloc
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irlap._util import jsonable
from irlap.aggregators import (
    Aggregator,
    corrupt_aggregator,
    encode_g,
    make_borda,
    make_constant,
    make_dictator,
    make_plurality,
    profile_tables,
    random_aggregator,
)
from irlap.basis import Rho1Table, build_basis, project_to_lin, rho1_table
from irlap.cli import _blocks, _build_rule
from irlap.laplacian import apply_quadratic_form, spectral_gap
from irlap.perms import (
    broadcast_voter,
    build_fixing_subgroup,
    enumerate_group,
    parse_perm,
    perm_index,
    trivial_subgroup,
    winner_subgroup,
)
from irlap import rounding
from irlap.rounding import (
    center_aggregator,
    fkn_diagnostics,
    kernel_projection,
    measured_gap,
    robustness_report,
)
from make_golden import CASES
import reference_loops as ref
from reference_loops import kernel_projection_by_votes


def test_kernel_distance_zero_for_dictator():
    agg = make_dictator(1, parse_perm("312", 3), trivial_subgroup(3), 2)
    assert kernel_projection(agg).kernel_distance_sq == 0


def test_kernel_distance_bound_one_corruption():
    H = trivial_subgroup(3)
    d = make_dictator(1, parse_perm("123", 3), H, 1)
    table = d.table.copy()
    table[0] = (table[0] + 1) % 6
    corr = Aggregator(3, 1, H, table)
    from irlap.metrics import ir_combinatorial

    ir = ir_combinatorial(corr).profile_distance
    dist = kernel_projection(corr).kernel_distance_sq
    assert 0 < dist <= ir / (2 * Fraction(1, 6))  # one-voter gap is exactly 1/6


def test_random_basis_encoding_gives_the_helmert_values():
    agg, table = make_plurality(3, 2), Rho1Table(3, build_basis(3, "random", seed=1))
    assert kernel_projection(agg).kernel_distance_sq == Fraction(19, 54)
    assert abs(project_to_lin(encode_g(agg, table)[agg.table], 2, table)[1] - 19 / 54) <= 1e-12
    assert fkn_diagnostics(agg).epsilon == Fraction(1, 2)


def _subgroups(m):
    """Trivial, winner, {1..m-1}|{m}, and the one-block partition
    (transitive: M_H = 0, so every rounding candidate ties)."""
    return [trivial_subgroup(m), winner_subgroup(m),
            build_fixing_subgroup(m, [list(range(1, m)), [m]]),
            build_fixing_subgroup(m, [list(range(1, m + 1))])]


def _drawn_rule(m, n, H, corrupted, seed):
    """A corrupted dictator or a random table; one coset (a one-block H)
    leaves nothing to corrupt, so there the table is drawn."""
    rng = np.random.default_rng(seed)
    if corrupted and len(H.representatives) > 1:
        sigma = enumerate_group(m)[rng.integers(0, len(enumerate_group(m)))]
        return corrupt_aggregator(make_dictator(n, sigma, H, n), 2, rng)
    return random_aggregator(m, n, H, rng)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 4]), st.sampled_from([1, 2]), st.integers(0, 3),
       st.booleans(), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_rounding_does_not_depend_on_the_basis(m, n, part, corrupted, rule_seed, basis_seed):
    H = _subgroups(m)[part]
    agg = _drawn_rule(m, n, H, corrupted, rule_seed)
    tables = rho1_table(m), Rho1Table(m, build_basis(m, "random", basis_seed))
    (lin_h, dist_h), (lin_o, dist_o) = (project_to_lin(encode_g(agg, t)[agg.table], n, t)
                                        for t in tables)
    assert abs(dist_h - dist_o) <= 1e-9
    assert np.abs((lin_h.A ** 2).sum(axis=(1, 2)) - (lin_o.A ** 2).sum(axis=(1, 2))).max() <= 1e-9
    if H.orbit_count == 1:  # one block is transitive: M_H = 0
        for call in (kernel_projection, fkn_diagnostics, robustness_report):
            with pytest.raises(ValueError, match="transitive on the rank positions"):
                call(agg)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 4]), st.sampled_from([1, 2, 3]), st.integers(0, 2), st.booleans(),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_pair_count_projection_matches_the_vote_count_oracle(m, n, part, corrupted, center,
                                                             rule_seed):
    agg = _drawn_rule(m, n, _subgroups(m)[part], corrupted, rule_seed)
    work = center_aggregator(agg) if center else agg
    proj, oracle = kernel_projection(work), kernel_projection_by_votes(work)
    assert np.array_equal(proj.Q, oracle.Q)
    for name in ("scale", "sq_norms", "b", "score", "B_norm_sq", "coefficient_norms",
                 "kernel_distance_sq", "voter", "coset", "dictator_distance_sq"):
        assert getattr(proj, name) == getattr(oracle, name), name


def _block_123(m):
    """The partition 1,2,3 and singletons above: transitive at m = 3,
    with orbits {1, 2, 3} and the fixed points above."""
    return build_fixing_subgroup(m, [[1, 2, 3]] + [[v] for v in range(4, m + 1)])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 4]), st.sampled_from([1, 2, 3]), st.integers(0, 4),
       st.sampled_from(["random", "corrupted", "centered"]), st.integers(0, 2**32 - 1))
def test_zero_margin_projection_matches_the_centered_oracle(m, n, part, kind, rule_seed):
    """Every Q^i has zero row and column sums, so the projection read
    off Q directly equals the explicit mPi X mPi readout exactly, field
    by field, and so does E ||r||^2.  A transitive H (one block) is
    refused by the report, so there the projection is built directly
    and E ||r||^2 (over tr M_H = 0) is not defined."""
    H = (_subgroups(m) + [_block_123(m)])[part]
    if kind == "centered" and n == 3:
        n = 2  # the centered rule has n + 1 voters
    agg = _drawn_rule(m, n, H, kind == "corrupted", rule_seed)
    work = center_aggregator(agg) if kind == "centered" else agg
    fixing = H.orbit_count > 1
    proj = kernel_projection(work) if fixing else rounding._project(work)
    assert (proj.Q.sum(axis=1) == 0).all() and (proj.Q.sum(axis=2) == 0).all()
    oracle = ref.centered_readout(work, proj.Q)
    for name in ("trace", "scale", "sq_norms", "b", "score", "B_norm_sq", "coefficient_norms",
                 "kernel_distance_sq", "voter", "coset", "dictator_distance_sq"):
        assert getattr(proj, name) == getattr(oracle, name), name
    if fixing:
        assert fkn_diagnostics(work).r_norm2_mean == ref.r_norm2_mean_by_centering(proj, H)


def _same(got, want, where="") -> None:
    """Field by field: Fractions equal and of type Fraction, floats
    bit-equal, arrays equal, dataclasses and sequences recursively."""
    if hasattr(want, "__dataclass_fields__"):
        for name in want.__dataclass_fields__:
            _same(getattr(got, name), getattr(want, name), f"{where}.{name}")
    elif isinstance(want, np.ndarray):
        assert np.array_equal(got, want), where
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want), where
        for k, (a, b) in enumerate(zip(got, want)):
            _same(a, b, f"{where}[{k}]")
    elif isinstance(want, float):
        assert type(got) is float and got.hex() == want.hex(), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


_ORACLE_SIZES = [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_ORACLE_SIZES), st.integers(0, 2),
       st.sampled_from(["random", "dictator", "corrupted", "constant", "centered"]),
       st.integers(0, 2**32 - 1))
def test_integer_numerators_match_the_fraction_chain_oracles(size, part, kind, rule_seed):
    """The projection, the moment diagnostics, the report and the three
    forms, from integer numerators over fixed denominators, equal the
    Fraction-chain oracles field by field, at epsilon = 0 (dictators),
    epsilon = 1 (constants) and between."""
    m, n = size
    rest = list(range(3, m + 1))
    H = build_fixing_subgroup(m, [[[v] for v in range(1, m + 1)], [[1], [2] + rest],
                                  [[1, 2], rest]][part])
    rng = np.random.default_rng(rule_seed)
    if kind == "constant":
        agg = make_constant(int(rng.integers(0, len(H.representatives))), H, n)
    elif kind in ("dictator", "corrupted"):
        sigma = enumerate_group(m)[rng.integers(0, factorial(m))]
        agg = make_dictator(int(rng.integers(1, n + 1)), sigma, H, n)
        agg = corrupt_aggregator(agg, 2, rng) if kind == "corrupted" else agg
    else:
        agg = random_aggregator(m, n, H, rng)
    center = kind == "centered"
    work = center_aggregator(agg) if center else agg
    _same(kernel_projection(work), ref.project_by_fractions(work), "projection")
    _same(fkn_diagnostics(work), ref.fkn_by_fractions(work), "diagnostics")
    _same(robustness_report(agg, center=center),
          ref.robustness_report_by_fractions(agg, center=center), "report")
    for variant in ("L", "L1", "L2"):
        _same(apply_quadratic_form(agg, None, variant),
              ref.quadratic_form_by_fractions(agg, variant), variant)
    if kind == "dictator":
        assert fkn_diagnostics(agg).epsilon == 0
    if kind == "constant":
        assert fkn_diagnostics(agg).epsilon == 1


def _top_two_apart(values, pick) -> bool:
    """Whether the float `pick` (max or min) of values is clear of the
    runner-up by more than 1e-9."""
    ordered = np.sort(values)
    if len(ordered) == 1:
        return True
    return (ordered[-1] - ordered[-2] if pick == "max" else ordered[1] - ordered[0]) > 1e-9


def _assert_matches_float_oracle(agg, table):
    """The exact block against project_to_lin and the profile-array
    distances that the float pipeline computed in `table`'s basis."""
    m, n, H = agg.m, agg.n, agg.H
    proj = kernel_projection(agg)
    gc = encode_g(agg, table)
    g = gc[agg.table]
    lin, residual = project_to_lin(g, n, table)
    assert abs(float(proj.kernel_distance_sq) - residual) <= 1e-12
    assert abs(float(proj.B_norm_sq) - float((lin.B ** 2).sum())) <= 1e-12
    norms = (lin.A ** 2).sum(axis=(1, 2))
    assert np.abs(np.array(proj.coefficient_norms, dtype=float) - norms).max() <= 1e-12
    C = table.basis.C
    A = np.einsum("ak,iab,bl->ikl", C, proj.Q, C) / (factorial(m) ** n * H.order * m)
    assert np.abs(A - lin.A).max() <= 1e-12
    assert proj.trace == pytest.approx(float(np.trace(gc[0])), abs=1e-12)
    # the dictator g_c rho1(x_i) at distance^2 2 tr M_H - 2 <g_c, A^i>
    scores = np.einsum("ckl,ikl->ic", gc, lin.A)
    if _top_two_apart(scores.reshape(-1), "max"):
        assert (proj.voter - 1, proj.coset) == np.unravel_index(np.argmax(scores), scores.shape)
    A_star = lin.A[proj.voter - 1]
    dists = ((gc - A_star[None]) ** 2).sum(axis=(1, 2))
    if _top_two_apart(dists, "min"):
        assert proj.coset == int(np.argmin(dists))
    sigma = enumerate_group(m)[H.representatives[proj.coset]]
    rounded = gc[make_dictator(proj.voter, sigma, H, n).table]
    dict_sq = ((g - rounded) ** 2).sum(axis=(1, 2)).mean()
    assert abs(float(proj.dictator_distance_sq) - dict_sq) <= 1e-12
    h = broadcast_voter(np.einsum("kt,xtl->xkl", A_star, table.R), proj.voter, n)
    unconstrained = proj.trace - proj.coefficient_norms[proj.voter - 1]
    assert abs(float(unconstrained) - ((g - h) ** 2).sum(axis=(1, 2)).mean()) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 4]), st.sampled_from([1, 2]), st.integers(0, 2), st.booleans(),
       st.booleans(), st.integers(0, 2**32 - 1), st.none() | st.integers(0, 2**32 - 1))
def test_exact_block_matches_the_float_oracle(m, n, part, corrupted, center, rule_seed,
                                              basis_seed):
    agg = _drawn_rule(m, n, _subgroups(m)[part], corrupted, rule_seed)
    work = center_aggregator(agg) if center else agg
    basis = build_basis(m) if basis_seed is None else build_basis(m, "random", basis_seed)
    _assert_matches_float_oracle(work, Rho1Table(m, basis))


GOLDEN_ANALYZE = [(stem, args) for stem, args in CASES if args[0] == "analyze"]


def _golden_rule(args):
    """The rule a golden `analyze` case reports on, centered if asked."""
    import argparse

    flags = [a for a in args[1:] if a != "--center"]
    opts = dict(zip(flags[::2], flags[1::2]))
    m, n = int(opts["--m"]), int(opts["--n"])
    partition, kind = opts.get("--partition", ""), opts["--rule"].partition(":")[0]
    H = build_fixing_subgroup(m, _blocks(argparse.Namespace(m=m, partition=partition), kind))
    agg = _build_rule(opts["--rule"], m, n, H, 0)
    return center_aggregator(agg) if "--center" in args else agg


@pytest.mark.parametrize("stem,args", GOLDEN_ANALYZE, ids=[s for s, _ in GOLDEN_ANALYZE])
def test_exact_block_matches_the_float_oracle_on_the_golden_rules(stem, args):
    agg = _golden_rule(args)
    _assert_matches_float_oracle(agg, rho1_table(agg.m))


@pytest.mark.parametrize("stem,args", GOLDEN_ANALYZE, ids=[s for s, _ in GOLDEN_ANALYZE])
def test_markov_bound_and_bound_ok_are_exact_on_the_golden_rules(stem, args):
    """tail_markov_bound and bound_ok are exact readings of r_norm2_mean.
    alpha = 6 (m-1) m^2 sqrt(epsilon) is so loose that the pointwise
    bound R on ||r||^2 stays below alpha^2 on every golden rule, so the
    tail bound is a certified 0, not the Markov bound."""
    work = _golden_rule(args)
    diag = fkn_diagnostics(work)
    m = work.m
    alpha_sq = 36 * (m - 1) ** 2 * m**4 * diag.epsilon
    assert diag.tail_prob_bound == Fraction(0)
    assert diag.epsilon == 0 or diag.r_sup_bound < alpha_sq
    assert all(isinstance(getattr(diag, key), Fraction) for key in
               ("r_norm2_mean", "r_sup_bound", "r_norm4_bound", "tail_prob_bound"))
    assert diag.r_norm4_bound == diag.r_sup_bound * diag.r_norm2_mean
    assert diag.tail_markov_bound == (0 if diag.epsilon == 0 else diag.r_norm2_mean / alpha_sq)
    assert diag.bound_ok is (diag.r_norm2_mean <= diag.bound)


# (5, 3) is past the IR budget
_SIZES = [(m, n) for m in (3, 4, 5) for n in (1, 2, 3) if (m, n) != (5, 3)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_SIZES), st.integers(0, 2),
       st.sampled_from(["random", "corrupted", "centered"]), st.integers(0, 2**32 - 1),
       st.none() | st.integers(0, 2**32 - 1))
def test_exact_r_norm2_mean_matches_the_whole_array_oracle(size, part, kind, rule_seed,
                                                           basis_seed):
    """The closed form against the float mean over every profile, in the
    Helmert basis or a random one (it reads only the integer Q^i)."""
    m, n = size
    if kind == "centered" and factorial(m) ** (n + 1) > 20000:
        n -= 1  # keeps the oracle's whole-array r over m!^(n+1) profiles small
    H = [trivial_subgroup(m), winner_subgroup(m),
         build_fixing_subgroup(m, [[1, 2], list(range(3, m + 1))])][part]
    agg = _drawn_rule(m, n, H, kind == "corrupted", rule_seed)
    work = center_aggregator(agg) if kind == "centered" else agg
    basis = build_basis(m) if basis_seed is None else build_basis(m, "random", basis_seed)
    got, want = fkn_diagnostics(work), ref.fkn_diagnostics(work, Rho1Table(m, basis))
    assert math.isclose(got.r_norm2_mean, want.r_norm2_mean, rel_tol=1e-12, abs_tol=1e-15)


def test_nearest_dictator_selection():
    """The voter of the nearest dictator; where voters tie exactly, the
    lowest index."""
    doc = jsonable(robustness_report(make_plurality(4, 2)).to_dict())
    assert doc["coefficient_norms"] == ["1/4", "1/4"]
    assert doc["voter"] == 1
    borda = kernel_projection(make_borda(4, 3))
    assert len(set(borda.coefficient_norms)) == 1 and borda.voter == 1
    lone = kernel_projection(make_dictator(2, parse_perm("231", 3), trivial_subgroup(3), 2))
    assert lone.coefficient_norms == (0, 2) and lone.voter == 2


@pytest.mark.parametrize("m,n", [(3, 1), (3, 2), (4, 1), (4, 2)])
def test_the_reported_dictator_is_the_nearest_one(m, n):
    """dictator_distance_sq is the least E ||g - g_d||^2 over every
    make_dictator(i, sigma), exact from the rank counts (||g_c - g_c'||^2
    = ||Pc[c] - Pc[c']||^2 / |H|^2), and the reported voter and coset are
    the first dictator at that distance, voter-major."""
    for H in (trivial_subgroup(m), winner_subgroup(m)):
        prof = profile_tables(H).prof.reshape(len(H.representatives), -1)
        D2 = ((prof[:, None] - prof[None]) ** 2).sum(axis=2)
        denominator = factorial(m) ** n * H.order ** 2
        for seed in range(8):
            agg = random_aggregator(m, n, H, np.random.default_rng(seed))
            proj = kernel_projection(agg)
            dists = {}
            for i in range(1, n + 1):
                for sigma in enumerate_group(m):
                    dictator = make_dictator(i, sigma, H, n)
                    dists[i, int(H.coset_ids[perm_index(sigma)])] = Fraction(
                        int(D2[agg.table, dictator.table].sum()), denominator)
            nearest = min(dists.values())
            assert proj.dictator_distance_sq == nearest
            assert (proj.voter, proj.coset) == min(k for k, d in dists.items() if d == nearest)


def test_the_nearest_dictator_need_not_carry_the_most_mass():
    """The seed-7 random rule at (4, 2): voter 2 has the larger
    coefficient mass, but the nearest dictator is voter 1's."""
    agg = _build_rule("random:seed=7", 4, 2, trivial_subgroup(4), 0)
    doc = jsonable(robustness_report(agg).to_dict())
    assert (doc["voter"], doc["rounded_sigma"], doc["dictator_distance_sq"]) == (1, "3412", "277/48")
    norms = kernel_projection(agg).coefficient_norms
    assert norms[1] > norms[0]


def test_rounding_exact_recovery():
    for H in (trivial_subgroup(3), winner_subgroup(3)):
        for sigma in enumerate_group(3):
            proj = kernel_projection(make_dictator(2, sigma, H, 2))
            assert (proj.voter, proj.coset) == (2, H.coset_ids[perm_index(sigma)])
            assert proj.kernel_distance_sq == proj.dictator_distance_sq == 0
            assert proj.coefficient_norms[1] == proj.trace  # ||A*||^2 = tr M_H


def test_rounding_with_noise():
    """One corrupted entry of a one-voter dictator still rounds to its
    relabeling."""
    H = trivial_subgroup(3)
    for sigma in enumerate_group(3):
        for seed in range(3):
            corr = corrupt_aggregator(make_dictator(1, sigma, H, 1), 1,
                                      np.random.default_rng(seed))
            proj = kernel_projection(corr)
            assert enumerate_group(3)[H.representatives[proj.coset]] == sigma
            assert 0 < proj.dictator_distance_sq


def test_rounding_search_space_scf():
    H = winner_subgroup(3)
    assert len(H.representatives) == 3  # candidate set size


def test_corrupted_dictator_recovery_seeded():
    for H in (trivial_subgroup(3), winner_subgroup(3)):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            sigma = enumerate_group(3)[rng.integers(0, 6)]
            d = make_dictator(2, sigma, H, 2)
            corr = corrupt_aggregator(d, 1, rng)
            rep = robustness_report(corr)
            assert rep.voter == 2
            assert rep.rounded_coset == H.coset_ids[perm_index(sigma)]
            assert rep.kernel_bound_ok
            assert rep.rounding_factor <= 2 + 1e-9


def test_pipeline_exact_at_zero():
    for H in (trivial_subgroup(3), winner_subgroup(3)):
        rep = robustness_report(make_dictator(1, parse_perm("321", 3), H, 2))
        assert rep.ir == rep.dictator_distance_sq == rep.kernel_distance_sq == 0
        assert rep.rounding_factor == 1.0
        assert rep.diagnostics.r_sup_bound == rep.diagnostics.tail_prob_bound == 0


def test_dictator_distance_dominates_kernel_distance():
    rng = np.random.default_rng(21)
    for H in (trivial_subgroup(3), winner_subgroup(3)):
        for _ in range(10):
            agg = random_aggregator(3, 2, H, rng)
            rep = robustness_report(agg)
            assert rep.dictator_distance_sq >= rep.kernel_distance_sq


def test_monotone_under_corruption():
    H = trivial_subgroup(3)
    d = make_dictator(1, parse_perm("213", 3), H, 2)
    means = []
    for k in (0, 1, 2, 4, 8):
        vals = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            agg = corrupt_aggregator(d, k, rng) if k else d
            vals.append(robustness_report(agg).dictator_distance_sq)
        means.append(float(np.mean(vals)))
    for lo, hi in zip(means, means[1:]):
        assert hi >= lo - 1e-9
    assert means[0] <= 1e-12


def test_fkn_diagnostics_zero_for_dictator():
    diag = fkn_diagnostics(make_dictator(1, parse_perm("123", 3), winner_subgroup(3), 2))
    assert diag.epsilon == 0
    assert diag.r_norm2_mean == diag.tail_markov_bound == Fraction(0)
    assert diag.r_sup_bound == diag.r_norm4_bound == diag.tail_prob_bound == Fraction(0)


def test_fkn_diagnostics_bound_and_degree():
    rng = np.random.default_rng(31)
    d = make_dictator(1, parse_perm("213", 3), trivial_subgroup(3), 2)
    corr = corrupt_aggregator(d, 2, rng)
    diag = fkn_diagnostics(corr)
    assert diag.bound_ok
    assert diag.r_norm2_mean <= diag.bound / 100  # the 108(m-1)^4 m^4 bound is loose
    table = rho1_table(3)
    r = ref.fkn_r(corr, table).reshape(factorial(3) ** 2, -1)  # no mass above degree 2
    assert max(ref.degree2_residual(r[:, k], 2, table) for k in range(r.shape[1])) <= 1e-12


def test_fkn_diagnostics_holds_no_profile_sized_array():
    m, n = 5, 2
    agg = random_aggregator(m, n, trivial_subgroup(m), np.random.default_rng(3))
    tracemalloc.start()
    try:
        fkn_diagnostics(agg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < factorial(m) ** n * (m - 1) ** 2 * 8  # one float r: 1.84 MB


def test_centering_zeroes_mean_and_keeps_consistency():
    rng = np.random.default_rng(41)
    agg = random_aggregator(3, 1, winner_subgroup(3), rng)
    centered = center_aggregator(agg)
    assert centered.n == 2
    assert np.abs(encode_g(centered)[centered.table].mean(axis=0)).max() <= 1e-12
    from irlap.aggregators import consistency_check

    assert consistency_check(centered).max_deviation <= 1e-9


def test_centering_preserves_dictator_recovery():
    d = make_dictator(1, parse_perm("132", 3), trivial_subgroup(3), 1)
    rep = robustness_report(d, center=True)
    assert rep.centered
    assert rep.dictator_distance_sq == 0


def test_centering_refuses_before_building_the_centered_rule(monkeypatch):
    from irlap._util import FeasibilityError

    def unreachable(*args, **kwargs):
        raise AssertionError("the centered rule was built before the budget check")

    monkeypatch.setattr(rounding, "center_aggregator", unreachable)
    agg = make_dictator(1, parse_perm("213", 3), trivial_subgroup(3), 7)
    with pytest.raises(FeasibilityError, match="budget exceeded"):
        robustness_report(agg, center=True)


def test_report_serializes():
    rep = robustness_report(make_plurality(3, 2))
    doc = rep.to_dict()
    assert doc["kernel_bound_ok"] is True
    exact = {"epsilon", "r_norm2_mean", "r_sup_bound", "r_norm4_bound", "tail_prob_bound",
             "tail_markov_bound", "bound_108m4C8"}
    assert set(doc["diagnostics"]) == exact | {"alpha", "bound_ok"}
    assert all(isinstance(jsonable(doc["diagnostics"][key]), str) for key in exact)


def test_report_reads_no_rho1_table(monkeypatch):
    """robustness_report reads no basis: it runs with every binding of
    basis.rho1_table patched to raise."""
    import irlap

    def unreachable(*args, **kwargs):
        raise AssertionError("the report read a rho1 table")

    original = irlap.basis.rho1_table
    for module in list(vars(irlap).values()):
        if getattr(module, "rho1_table", None) is original:
            monkeypatch.setattr(module, "rho1_table", unreachable)
    rng = np.random.default_rng(5)
    for agg in (make_plurality(4, 2), random_aggregator(4, 2, winner_subgroup(4), rng)):
        for center in (False, True):
            assert robustness_report(agg, center=center).diagnostics.tail_prob_bound == 0


def test_measured_gap_solves_once_per_size(monkeypatch):
    measured_gap.cache_clear()
    calls = []

    def counting_gap(m, n):
        calls.append((m, n))
        return spectral_gap(m, n)

    monkeypatch.setattr(rounding, "spectral_gap", counting_gap)
    for _ in range(3):
        gap, exact = measured_gap(4, 2)
        assert exact
        assert abs(gap - 1 / 12) <= 1e-9
    measured_gap(3, 2)
    assert calls == [(4, 2), (3, 2)]


def test_caches_stay_within_their_bounds(monkeypatch):
    """measured_gap and build_appendix, asked for more sizes than they
    keep, hold at most their maxsize; build_appendix's bound holds a
    moments job's m = 4..12 and --m, rho1_table's every valid m."""
    from types import SimpleNamespace

    from irlap.moments import build_appendix
    from irlap.perms import MAX_M

    monkeypatch.setattr(rounding, "spectral_gap",
                        lambda m, n: SimpleNamespace(gap=1 / n, exhaustive=False))
    measured_gap.cache_clear()
    try:
        for cache, key in ((measured_gap, lambda k: (3, k + 1)),
                           (build_appendix, lambda k: (k + 4,))):
            bound = cache.cache_info().maxsize
            for k in range(bound + 4):
                cache(*key(k))
                assert cache.cache_info().currsize <= bound
            assert cache.cache_info().currsize == bound
    finally:
        measured_gap.cache_clear()  # drop the stand-in gaps
    assert build_appendix.cache_info().maxsize >= len(range(4, 13)) + 1  # a moments job
    assert rho1_table.cache_info().maxsize >= MAX_M - 1  # m runs over 2..MAX_M
    rho1_table(3)
    assert rho1_table.cache_info().currsize <= rho1_table.cache_info().maxsize
