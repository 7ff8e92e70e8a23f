"""Robustness pipeline: kernel distance, recovery, rounding, moments."""

import numpy as np

from irlap.aggregators import (
    Aggregator,
    corrupt_aggregator,
    encode_g,
    make_dictator,
    make_plurality,
    random_aggregator,
)
from irlap.basis import LinFunction, rho1_table
from irlap.laplacian import spectral_gap
from irlap.perms import enumerate_group, parse_perm, trivial_subgroup, winner_subgroup
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


def test_nearest_dictator_selection():
    table = rho1_table(3)
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
    table = rho1_table(3)
    H = trivial_subgroup(3)
    sigma = parse_perm("231", 3)
    result = round_to_consistent(table.of(sigma), 1, H, 1, table)
    assert result.sigma == sigma
    assert result.candidate_distance <= 1e-12


def test_rounding_with_noise():
    table = rho1_table(3)
    H = trivial_subgroup(3)
    sigma = parse_perm("231", 3)
    rng = np.random.default_rng(3)
    A = 0.95 * table.of(sigma) + 0.05 * rng.standard_normal((2, 2))
    result = round_to_consistent(A, 1, H, 1, table)
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
