"""CLI reports: determinism, exit codes, wired-through values."""

import json
import subprocess
import sys

CMD = [sys.executable, "-m", "irlap.cli"]


def run(*args, check=True):
    proc = subprocess.run(CMD + list(args), capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


def test_spectra_values():
    out = json.loads(run("spectra", "--m", "3", "--n", "2").stdout)
    clusters = out["hat_l1"]["eigenvalues"]
    assert [k for _, k in clusters] == [1, 2, 1]
    assert abs(clusters[1][0] - 1 / 6) <= 1e-9
    assert abs(clusters[2][0] - 1 / 3) <= 1e-9
    assert out["hat_l1"]["EEt_residual"] <= 1e-12
    gap = out["gap"]["gap"]
    assert 1 / 12 - 1e-9 <= gap <= 1 / 6 + 1e-9


def test_spectra_m2_is_input_error():
    proc = run("spectra", "--m", "2", check=False)
    assert proc.returncode == 2
    assert "m >= 3" in proc.stderr


def test_census_values_and_refusal():
    out = json.loads(run("census", "--m", "3", "--n", "1").stdout)
    assert (out["constants"], out["dictators"], out["others"]) == (6, 6, 0)
    scf = json.loads(run("census", "--m", "3", "--n", "1",
                         "--partition", "1|2,3").stdout)
    assert (scf["constants"], scf["dictators"], scf["others"]) == (3, 3, 0)
    refused = run("census", "--m", "4", "--n", "1", check=False)
    assert refused.returncode == 3
    assert "24^24" in refused.stderr


def test_analyze_rule_and_file_input(tmp_path):
    out = json.loads(run(
        "analyze", "--m", "3", "--n", "2", "--partition", "1|2,3",
        "--rule", "plurality").stdout)
    assert out["ir"]["profile_distance"] == "1/9"
    assert out["manipulation"]["c"] == "3/2"
    assert out["manipulation"]["c_times_M_ge_IR"] is True
    assert out["robustness"]["kernel_bound_ok"] is True

    from irlap.aggregators import make_plurality, save_json

    path = tmp_path / "plurality.json"
    save_json(make_plurality(3, 2), str(path))
    out2 = json.loads(run(
        "analyze", "--m", "3", "--n", "2", "--partition", "1|2,3",
        "--input", str(path)).stdout)
    assert out2["ir"]["profile_distance"] == out["ir"]["profile_distance"]


def test_analyze_rejects_duplicate_profile(tmp_path):
    import numpy as np

    from irlap.aggregators import random_aggregator, to_json
    from irlap.perms import trivial_subgroup

    doc = to_json(random_aggregator(3, 1, trivial_subgroup(3), np.random.default_rng(0)))
    doc["entries"].append(doc["entries"][0])
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    proc = run("analyze", "--m", "3", "--n", "1", "--input", str(path), check=False)
    assert proc.returncode == 2
    assert "duplicate" in proc.stderr


def test_analyze_rejects_non_string_literals(tmp_path, capsys):
    import numpy as np

    import irlap.cli as cli
    from irlap.aggregators import random_aggregator, to_json
    from irlap.perms import trivial_subgroup

    for key, value in (("profile", [123]), ("output", None)):
        doc = to_json(random_aggregator(3, 1, trivial_subgroup(3), np.random.default_rng(0)))
        doc["entries"][0][key] = value
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["analyze", "--m", "3", "--n", "1", "--input", str(path)]) == 2, key
        assert "not a permutation literal" in capsys.readouterr().err


def test_analyze_rejects_aggregator_files_of_the_wrong_shape(tmp_path, capsys):
    import numpy as np

    import irlap.cli as cli
    from irlap.aggregators import random_aggregator, to_json
    from irlap.perms import trivial_subgroup

    good = to_json(random_aggregator(3, 1, trivial_subgroup(3), np.random.default_rng(0)))
    bad = {
        "a list": [good],
        "entries is a number": {**good, "entries": 5},
        "null entry": {**good, "entries": [None] + good["entries"][1:]},
        "profile not a list": {**good, "entries": [{"profile": 5, "output": "123"}]},
        "params not an object": {**good, "params": ["seed"]},
        "m not an integer": {**good, "m": None},
        "partition not a list": {**good, "partition": 5},
    }
    for label, doc in bad.items():
        path = tmp_path / "agg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["analyze", "--m", "3", "--n", "1", "--input", str(path)]) == 2, label
        assert "error:" in capsys.readouterr().err, label


def test_analyze_rejects_flags_that_disagree_with_the_rule(monkeypatch, tmp_path, capsys):
    import irlap.cli as cli
    from irlap import metrics
    from irlap.aggregators import make_dictator, make_plurality, save_json
    from irlap.perms import winner_subgroup

    def unreachable(*args, **kwargs):
        raise AssertionError("pairs were counted before the flags were checked")

    monkeypatch.setattr(metrics, "pair_count_tensors", unreachable)
    plurality = tmp_path / "plurality.json"
    save_json(make_plurality(4, 2), str(plurality))
    dictator = tmp_path / "dictator.json"
    save_json(make_dictator(1, (1, 2, 3), winner_subgroup(3), 2), str(dictator))
    cases = [
        (["--m", "3", "--n", "2", "--input", str(plurality)], "disagree with the rule's m=4"),
        (["--m", "4", "--n", "1", "--input", str(plurality)], "n=2"),
        (["--m", "3", "--n", "2", "--partition", "1,2|3", "--input", str(dictator)],
         'output partition "1|2,3"'),
        (["--m", "3", "--n", "2", "--partition", "1|2,3", "--rule", "borda"],
         'borda rule\'s output partition "1|2|3"'),
        (["--m", "3", "--n", "2", "--partition", "1|2|3", "--rule", "plurality"],
         'plurality rule\'s output partition "1|2,3"'),
    ]
    for flags, message in cases:
        assert cli.main(["analyze", *flags]) == 2, flags
        assert message in capsys.readouterr().err, flags


def test_analyze_orders_override(tmp_path):
    orders = [{"j": 1, "r": 1, "ranking": [["0", "1/2", "1/2"], ["1", "0", "0"]]}]
    path = tmp_path / "orders.json"
    path.write_text(json.dumps(orders))
    out = json.loads(run(
        "analyze", "--m", "3", "--n", "1", "--partition", "1|2,3",
        "--rule", "dictator:i=1,sigma=123", "--orders", str(path)).stdout)
    # inverting one order makes the identity dictator manipulable
    assert out["manipulation"]["total"] != "0"


def test_analyze_rejects_malformed_orders(tmp_path, capsys):
    import irlap.cli as cli

    ranking = [["0", "1/2", "1/2"], ["1", "0", "0"]]
    bad = {
        "j is 0": ([{"j": 0, "r": 1, "ranking": ranking}], "1|2,3"),
        "r is 0": ([{"j": 1, "r": 0, "ranking": ranking}], "1|2,3"),
        "repeated profile": ([{"j": 1, "r": 1, "ranking": [["1", "0", "0"]] * 3}], "1|2|3"),
        # 3/4 of |H| = 2 members is not a count; int() would read it as 1/2
        "fractional count": ([{"j": 1, "r": 1,
                               "ranking": [["0", "3/4", "1/2"], ["1", "0", "0"]]}], "1|2,3"),
        "top-level object": ({"j": 1, "r": 1, "ranking": ranking}, "1|2,3"),
        "null entry": ([None], "1|2,3"),
        "ranking not a list": ([{"j": 1, "r": 1, "ranking": 5}], "1|2,3"),
        "profile not a list": ([{"j": 1, "r": 1, "ranking": [5, ["1", "0", "0"]]}], "1|2,3"),
        "null count": ([{"j": 1, "r": 1, "ranking": [["0", None, "1/2"],
                                                      ["1", "0", "0"]]}], "1|2,3"),
    }
    for label, (doc, partition) in bad.items():
        path = tmp_path / "orders.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["analyze", "--m", "3", "--n", "1", "--partition", partition,
                         "--rule", "dictator:i=1,sigma=123", "--orders", str(path)])
        assert code == 2, label
        assert "error" in capsys.readouterr().err, label


def test_analyze_missing_rule_is_input_error():
    proc = run("analyze", "--m", "3", "--n", "1", check=False)
    assert proc.returncode == 2


def test_dense_limit_flag_is_gone():
    for sub in (["spectra", "--m", "4", "--n", "2"],
                ["analyze", "--m", "3", "--n", "1", "--rule", "plurality"]):
        proc = run(*sub, "--dense-limit", "0", check=False)
        assert proc.returncode == 2
        assert "--dense-limit" in proc.stderr


def test_subcommands_reject_flags_they_ignore():
    for sub in (["spectra", "--m", "3", "--samples", "5"],
                ["spectra", "--m", "3", "--threads", "7"],
                ["spectra", "--m", "3", "--partition", "9,9"],
                ["spectra", "--m", "3", "--seed", "1"],
                ["census", "--m", "3", "--seed", "1"],
                ["census", "--m", "3", "--samples", "5"],
                ["analyze", "--m", "3", "--rule", "plurality", "--threads", "2"],
                ["moments", "--m", "4", "--n", "2"],
                ["moments", "--m", "4", "--partition", "1|2,3,4"]):
        proc = run(*sub, check=False)
        assert proc.returncode == 2, sub
        assert "unrecognized arguments" in proc.stderr


def test_out_of_range_counts_are_input_errors():
    for sub in (["spectra", "--m", "3", "--n", "-1"],
                ["census", "--m", "3", "--n", "0"],
                ["analyze", "--m", "3", "--n", "-2", "--rule", "plurality"],
                ["moments", "--m", "4", "--samples", "0"],
                ["moments", "--m", "4", "--threads", "0"]):
        proc = run(*sub, check=False)
        assert proc.returncode == 2, sub
        assert "must be >=" in proc.stderr
    for sigma in ("-3", "1.5", "nan", "inf"):
        proc = run("moments", "--m", "4", "--samples", "5",
                   "--sigma-hyper", sigma, check=False)
        assert proc.returncode == 2, sigma
        assert "must lie in [0, 1]" in proc.stderr


def test_moments_rejects_small_m(capsys):
    import irlap.cli as cli

    for m in ("0", "1", "2", "3"):
        assert cli.main(["moments", "--m", m, "--samples", "5"]) == 2, m
        assert "moments requires m >= 4" in capsys.readouterr().err


def test_analyze_counts_pairs_once(monkeypatch, tmp_path):
    """IR, manipulation and robustness share one pair count and one
    encoding of the rule."""
    import irlap.cli as cli
    from irlap import aggregators, metrics

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(metrics, "_count_pairs", counted("pairs", metrics._count_pairs))
    monkeypatch.setattr(aggregators, "_encode", counted("encoding", aggregators._encode))
    argv = ["analyze", "--m", "3", "--n", "2", "--rule", "random", "--out",
            str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    assert sorted(calls) == ["encoding", "pairs"]
    calls.clear()
    assert cli.main(argv + ["--center"]) == 0  # the centered rule's own counts
    assert sorted(calls) == ["encoding", "encoding", "pairs", "pairs"]


def test_analyze_refuses_before_building_the_rule(monkeypatch, tmp_path):
    import irlap.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError("the rule was built before the budget check")

    monkeypatch.setattr(cli, "make_named_rule", unreachable)
    monkeypatch.setattr(cli, "random_aggregator", unreachable)
    monkeypatch.setattr(cli, "from_json", unreachable)
    for m, n in ((5, 3), (6, 2)):
        for source in (["--rule", "plurality"], ["--rule", "random"],
                       ["--input", str(tmp_path / "agg.json")]):
            argv = ["analyze", "--m", str(m), "--n", str(n), *source]
            assert cli.main(argv) == 3, argv


def test_analyze_checks_input_size_before_building_the_rule(monkeypatch, tmp_path, capsys):
    import irlap.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError("the rule was built before its m and n were checked")

    monkeypatch.setattr(cli, "from_json", unreachable)
    doc = {"m": 5, "n": 3, "partition": [[1], [2, 3, 4, 5]], "type": "plurality",
           "params": {}}
    path = tmp_path / "agg.json"
    bad = {
        "other size": (doc, "disagree with the rule's m=5, n=3"),
        "m missing": ({k: v for k, v in doc.items() if k != "m"}, "'m'"),
        "n a string": ({**doc, "m": 3, "n": "1"}, "n='1'"),
    }
    for label, (text, message) in bad.items():
        path.write_text(json.dumps(text))
        assert cli.main(["analyze", "--m", "3", "--n", "1", "--input", str(path)]) == 2, label
        assert message in capsys.readouterr().err, label


def test_analyze_refuses_a_transitive_partition(capsys):
    """One block: H is all of S_m, M_H = 0, and the diagnostics would
    divide by tr M_H = 0."""
    import irlap.cli as cli

    argv = ["analyze", "--m", "3", "--n", "2", "--partition", "1,2,3",
            "--rule", "random:seed=1"]
    assert cli.main(argv) == 2
    assert "transitive on the rank positions" in capsys.readouterr().err


def test_unknown_rule_params_are_input_errors():
    for rule in ("plurality:bogus=1", "random:seed=1,foo=2", "dictator:j=2"):
        proc = run("analyze", "--m", "3", "--n", "1", "--rule", rule, check=False)
        assert proc.returncode == 2, rule
        assert "unknown params" in proc.stderr


def test_analyze_centered_pipeline():
    out = json.loads(run(
        "analyze", "--m", "3", "--n", "1",
        "--rule", "dictator:i=1,sigma=213", "--center").stdout)
    assert out["robustness"]["centered"] is True
    assert out["robustness"]["dictator_distance_sq"] <= 1e-12


def test_determinism_byte_identical():
    args = ["analyze", "--m", "3", "--n", "2", "--rule", "random:seed=5",
            "--seed", "5"]
    assert run(*args).stdout == run(*args).stdout
    margs = ["moments", "--m", "4", "--samples", "50", "--seed", "3"]
    assert run(*margs).stdout == run(*margs).stdout


def test_thread_pool_size_does_not_change_reports():
    base = ["moments", "--m", "4", "--samples", "40", "--seed", "9"]
    assert run(*base, "--threads", "1").stdout == run(*base, "--threads", "4").stdout


def test_moments_report(tmp_path):
    out_path = tmp_path / "moments.json"
    proc = run("moments", "--m", "4", "--samples", "50", "--seed", "1",
               "--out", str(out_path))
    assert "moments" in proc.stdout  # human summary on stdout
    doc = json.loads(out_path.read_text())
    assert all(row["matches_formula"] for row in doc["determinant"])
    assert doc["transfer_dual_path"]["exact_matches"] == 25
    assert doc["block_audit"]["repair_count"] > 0
    assert doc["hypercontractivity"]["empirical_m0"] is not None
