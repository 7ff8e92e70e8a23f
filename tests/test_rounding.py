"""Robustness pipeline: kernel distance, recovery, rounding, moments."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from irlap.aggregators import (
    Aggregator,
    corrupt_aggregator,
    encode_g,
    make_constant,
    make_dictator,
    make_plurality,
    random_aggregator,
)
from irlap.basis import LinFunction, Rho1Table, build_basis
from irlap.laplacian import spectral_gap
from irlap.perms import (
    build_fixing_subgroup,
    enumerate_group,
    is_even,
    parse_perm,
    subgroup_from_members,
    trivial_subgroup,
    winner_subgroup,
)
from irlap import rounding
from irlap.rounding import (
    center_aggregator,
    fkn_diagnostics,
    kernel_distance,
    matrix_cs_check,
    measured_gap,
    nearest_dictator,
    robustness_report,
    round_to_consistent,
)


def test_kernel_distance_zero_for_dictator():
    enc = encode_g(make_dictator(1, parse_perm("312", 3), trivial_subgroup(3), 2))
    _, dist = kernel_distance(enc)
    assert dist <= 1e-12


def test_kernel_distance_bound_one_corruption():
    H = trivial_subgroup(3)
    d = make_dictator(1, parse_perm("123", 3), H, 1)
    table = d.table.copy()
    table[0] = (table[0] + 1) % 6
    corr = Aggregator(3, 1, H, table)
    from irlap.metrics import ir_combinatorial

    ir = float(ir_combinatorial(corr, with_quadratic=False).profile_distance)
    _, dist = kernel_distance(encode_g(corr))
    assert 0 < dist <= ir / (1 / 6) + 1e-9  # one-voter gap is exactly 1/6


def test_random_basis_encoding_gives_the_helmert_values():
    enc = encode_g(make_plurality(3, 2), Rho1Table(3, build_basis(3, "random", seed=1)))
    _, dist = kernel_distance(enc)
    assert abs(dist - 19 / 54) <= 1e-12  # 0.35185..., the Helmert encoding's value
    assert abs(fkn_diagnostics(enc).epsilon - 0.5) <= 1e-12


def _subgroups(m):
    """Trivial, winner, {1..m-1}|{m}, and the alternating group (not
    fixing: M_H = 0, so every rounding candidate ties)."""
    return [trivial_subgroup(m), winner_subgroup(m),
            build_fixing_subgroup(m, [list(range(1, m)), [m]]),
            subgroup_from_members(m, [x for x in enumerate_group(m) if is_even(x)])]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 4]), st.sampled_from([1, 2]), st.integers(0, 3),
       st.booleans(), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_rounding_does_not_depend_on_the_basis(m, n, part, corrupted, rule_seed, basis_seed):
    H = _subgroups(m)[part]
    rng = np.random.default_rng(rule_seed)
    if corrupted:
        sigma = enumerate_group(m)[rng.integers(0, len(enumerate_group(m)))]
        agg = corrupt_aggregator(make_dictator(n, sigma, H, n), 2, rng)
    else:
        agg = random_aggregator(m, n, H, rng)
    helmert = encode_g(agg)
    other = encode_g(agg, Rho1Table(m, build_basis(m, "random", basis_seed)))
    (lin_h, dist_h), (lin_o, dist_o) = kernel_distance(helmert), kernel_distance(other)
    assert abs(dist_h - dist_o) <= 1e-9
    norms_h = (lin_h.A ** 2).sum(axis=(1, 2))
    assert np.abs(norms_h - (lin_o.A ** 2).sum(axis=(1, 2))).max() <= 1e-9
    # the same voter and coset, up to exact ties that floats may break either way
    voter_h, A_h = nearest_dictator(lin_h)
    voter_o, _ = nearest_dictator(lin_o)
    assert voter_o == voter_h or norms_h[voter_o - 1] >= norms_h.max() - 1e-9
    round_h = round_to_consistent(helmert, A_h, voter_h)
    round_o = round_to_consistent(other, lin_o.A[voter_h - 1], voter_h)
    assert abs(round_h.candidate_distance - round_o.candidate_distance) <= 1e-9
    dists_h = np.sqrt(((helmert.g_coset - A_h) ** 2).sum(axis=(1, 2)))
    assert (round_o.coset_id == round_h.coset_id
            or dists_h[round_o.coset_id] <= dists_h.min() + 1e-9)
    if H.partition is None:
        return  # M_H = 0: the diagnostics divide by tr M_H and are undefined
    diag_h, diag_o = fkn_diagnostics(helmert), fkn_diagnostics(other)
    assert abs(diag_h.epsilon - diag_o.epsilon) <= 1e-9
    assert abs(diag_h.r_norm2_mean - diag_o.r_norm2_mean) <= 1e-9


def test_nearest_dictator_selection():
    d = 2
    lin = LinFunction(2, np.zeros((d, d)), np.stack([np.zeros((d, d)), np.eye(d)]))
    voter, A = nearest_dictator(lin)
    assert voter == 2
    assert np.array_equal(A, np.eye(d))
    lin2 = LinFunction(2, np.zeros((d, d)),
                       np.stack([0.9 * np.eye(d), 0.1 * np.eye(d)]))
    voter2, _ = nearest_dictator(lin2)
    assert voter2 == 1


def test_rounding_exact_recovery():
    enc = encode_g(make_constant(0, trivial_subgroup(3), 1))
    sigma = parse_perm("231", 3)
    result = round_to_consistent(enc, enc.rho1.of(sigma), 1)
    assert result.sigma == sigma
    assert result.candidate_distance <= 1e-12


def test_rounding_with_noise():
    enc = encode_g(make_constant(0, trivial_subgroup(3), 1))
    sigma = parse_perm("231", 3)
    rng = np.random.default_rng(3)
    A = 0.95 * enc.rho1.of(sigma) + 0.05 * rng.standard_normal((2, 2))
    result = round_to_consistent(enc, A, 1)
    assert result.sigma == sigma


def test_rounding_search_space_scf():
    H = winner_subgroup(3)
    assert len(H.cosets) == 3  # candidate set size


def test_corrupted_dictator_recovery_seeded():
    for H in (trivial_subgroup(3), winner_subgroup(3)):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            sigma = enumerate_group(3)[rng.integers(0, 6)]
            d = make_dictator(2, sigma, H, 2)
            corr = corrupt_aggregator(d, 1, rng)
            rep = robustness_report(corr)
            assert rep.voter == 2
            assert rep.rounded_coset == H.coset_index[sigma]
            assert rep.kernel_bound_ok
            assert rep.rounding_factor <= 2 + 1e-9


def test_pipeline_exact_at_zero():
    for H in (trivial_subgroup(3), winner_subgroup(3)):
        rep = robustness_report(make_dictator(1, parse_perm("321", 3), H, 2))
        assert rep.ir == 0
        assert rep.dictator_distance_sq <= 1e-12
        assert rep.kernel_distance_sq <= 1e-12
        assert rep.dictator_distance_sq >= rep.kernel_distance_sq - 1e-9


def test_dictator_distance_dominates_kernel_distance():
    rng = np.random.default_rng(21)
    for H in (trivial_subgroup(3), winner_subgroup(3)):
        for _ in range(10):
            agg = random_aggregator(3, 2, H, rng)
            rep = robustness_report(agg)
            assert rep.dictator_distance_sq >= rep.kernel_distance_sq - 1e-9


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
    enc = encode_g(make_dictator(1, parse_perm("123", 3), winner_subgroup(3), 2))
    diag = fkn_diagnostics(enc)
    assert diag.epsilon <= 1e-12
    assert diag.r_norm2_mean <= 1e-12
    assert diag.r_entry4_max <= 1e-12
    assert diag.tail_prob == 0


def test_fkn_diagnostics_bound_and_degree():
    rng = np.random.default_rng(31)
    d = make_dictator(1, parse_perm("213", 3), trivial_subgroup(3), 2)
    corr = corrupt_aggregator(d, 2, rng)
    diag = fkn_diagnostics(encode_g(corr))
    assert diag.bound_ok
    assert diag.r_norm2_mean <= 0.01 * diag.bound  # the 108(m-1)^4 m^4 bound is loose
    assert diag.degree2_residual <= 1e-9


def test_matrix_cauchy_schwarz():
    rep = matrix_cs_check(3, trials=100, seed=0)
    assert rep["holds"]
    assert rep["tight"]
    # spelled out: ||J J||_1 = 27 = 3 * ||J||_2 * ||J||_2
    J = np.ones((3, 3))
    assert np.abs(J @ J).sum() == 27
    assert 3 * np.linalg.norm(J) * np.linalg.norm(J) == 27


def test_centering_zeroes_mean_and_keeps_consistency():
    rng = np.random.default_rng(41)
    agg = random_aggregator(3, 1, winner_subgroup(3), rng)
    centered = center_aggregator(agg)
    assert centered.n == 2
    enc = encode_g(centered)
    assert np.abs(enc.g.mean(axis=0)).max() <= 1e-12
    from irlap.aggregators import consistency_check

    assert consistency_check(centered).max_deviation <= 1e-9


def test_centering_preserves_dictator_recovery():
    d = make_dictator(1, parse_perm("132", 3), trivial_subgroup(3), 1)
    rep = robustness_report(d, center=True)
    assert rep.centered
    assert rep.dictator_distance_sq <= 1e-12


def test_report_serializes():
    rep = robustness_report(make_plurality(3, 2))
    doc = rep.to_dict()
    assert doc["kernel_bound_ok"] is True
    assert set(doc["diagnostics"]) >= {"epsilon", "r_norm2_mean", "tail_prob"}


def test_measured_gap_solves_once_per_size(monkeypatch):
    monkeypatch.setattr(rounding, "_GAP_CACHE", {})
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
