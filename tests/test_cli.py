"""CLI reports: determinism, exit codes, wired-through values."""

import json
import subprocess
import sys

import pytest

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
    from irlap import aggregators, metrics
    from irlap.aggregators import make_dictator, make_plurality, save_json
    from irlap.perms import winner_subgroup

    def unreachable(*args, **kwargs):
        raise AssertionError("the rule was built before the flags were checked")

    # plurality and Borda are built on the partition they are given
    for flags in (["--partition", "1|2,3", "--rule", "borda"],
                  ["--partition", "1|2|3", "--rule", "plurality"]):
        assert cli.main(["analyze", "--m", "3", "--n", "2", *flags,
                         "--out", str(tmp_path / "report.json")]) == 0, flags
    monkeypatch.setattr(metrics, "pair_count_tensors", unreachable)
    monkeypatch.setattr(aggregators, "from_json", unreachable)
    plurality = tmp_path / "plurality.json"
    save_json(make_plurality(4, 2), str(plurality))
    dictator = tmp_path / "dictator.json"
    save_json(make_dictator(1, (1, 2, 3), winner_subgroup(3), 2), str(dictator))
    cases = [
        (["--m", "3", "--n", "2", "--input", str(plurality)], "disagree with the rule's m=4"),
        (["--m", "4", "--n", "1", "--input", str(plurality)], "n=2"),
        (["--m", "3", "--n", "2", "--partition", "1,2|3", "--input", str(dictator)],
         'output partition "1|2,3"'),
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
    assert out["manipulation"]["total"] != "0/1"


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
        # JSON true is no count, though Fraction(True) is 1
        "boolean count": ([{"j": 1, "r": 1, "ranking": [[True, False, False],
                                                         [False, 0.5, 0.5]]}], "1|2,3"),
        # the last entry would silently win
        "repeated (j, r)": ([{"j": 1, "r": 2, "ranking": ranking},
                             {"j": 1, "r": 2, "ranking": ranking[::-1]}], "1|2,3"),
    }
    for label, (doc, partition) in bad.items():
        path = tmp_path / "orders.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["analyze", "--m", "3", "--n", "1", "--partition", partition,
                         "--rule", "dictator:i=1,sigma=123", "--orders", str(path)])
        assert code == 2, label
        err = capsys.readouterr().err
        assert "error" in err, label
        if label == "repeated (j, r)":
            assert "j=1, r=2" in err


RANKING = [["0", "1/2", "1/2"], ["1", "0", "0"]]


def _rule_doc(drop=None, drop_from_entry=None):
    """A random (3, 1) rule's document without the key `drop`, or with
    the key `drop_from_entry` taken from one entry."""
    import numpy as np

    from irlap.aggregators import random_aggregator, to_json
    from irlap.perms import trivial_subgroup

    doc = to_json(random_aggregator(3, 1, trivial_subgroup(3), np.random.default_rng(0)))
    doc.pop(drop, None)
    doc["entries"][2].pop(drop_from_entry, None)
    return doc


@pytest.mark.parametrize("flag,doc,message", [
    ("--orders", [{"j": 1, "ranking": RANKING}], "orders entry has no key 'r'"),
    ("--orders", [{"j": 1, "r": 1}], "orders entry has no key 'ranking'"),
    ("--input", _rule_doc(drop="m"), "aggregator document has no key 'm'"),
    ("--input", _rule_doc(drop="partition"), "aggregator document has no key 'partition'"),
    ("--input", _rule_doc(drop_from_entry="output"), "entry has no key 'output'"),
], ids=["orders-r", "orders-ranking", "input-m", "input-partition", "input-output"])
def test_a_missing_key_is_named(flag, doc, message, tmp_path, capsys):
    import irlap.cli as cli

    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    args = ["analyze", "--m", "3", "--n", "1", flag, str(path)]
    if flag == "--orders":
        args += ["--partition", "1|2,3", "--rule", "dictator:i=1,sigma=123"]
    assert cli.main(args) == 2
    assert f"error: {message}" in capsys.readouterr().err


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
                ["moments", "--m", "4", "--partition", "1|2,3,4"],
                ["moments", "--m", "4", "--samples", "5"]):
        proc = run(*sub, check=False)
        assert proc.returncode == 2, sub
        assert "unrecognized arguments" in proc.stderr


def test_out_of_range_counts_are_input_errors():
    for sub in (["spectra", "--m", "3", "--n", "-1"],
                ["census", "--m", "3", "--n", "0"],
                ["analyze", "--m", "3", "--n", "-2", "--rule", "plurality"],
                ["moments", "--m", "4", "--threads", "0"]):
        proc = run(*sub, check=False)
        assert proc.returncode == 2, sub
        assert "must be >=" in proc.stderr
    for sigma in ("-3", "1.5", "nan", "inf"):
        proc = run("moments", "--m", "4", "--sigma-hyper", sigma, check=False)
        assert proc.returncode == 2, sigma
        assert "must lie in [0, 1]" in proc.stderr


def test_moments_rejects_small_m(capsys):
    import irlap.cli as cli

    for m in ("0", "1", "2", "3"):
        assert cli.main(["moments", "--m", m]) == 2, m
        assert "moments requires m >= 4" in capsys.readouterr().err


def test_moments_refuses_an_m_past_the_audit_bound(monkeypatch, capsys):
    import irlap.cli as cli
    import irlap.moments as moments

    def unreachable(*args, **kwargs):
        raise AssertionError("moments built something before the size check")

    with monkeypatch.context() as patch:
        for name in ("build_appendix", "audit_blocks", "random_equal_margin",
                     "empirical_m0", "hypercontractivity_check"):
            patch.setattr(moments, name, unreachable)
        assert cli.main(["moments", "--m", "200", "--sigma-hyper", "0.5"]) == 3
        err = capsys.readouterr().err
        assert "refused" in err and "1,648,280,200 index tuples" in err
        patch.setattr(moments, "AUDIT_TUPLE_LIMIT", 10**3)  # read at call time
        assert cli.main(["moments", "--m", "5"]) == 3
    assert cli.main(["moments", "--m", "12", "--sigma-hyper", "0.5"]) == 0


# per subcommand: an irlap module it runs, and the ones it may not load
MODULES = {
    "moments": ("moments", {"aggregators", "basis", "laplacian", "metrics", "perms",
                            "rounding"}),
    "spectra": ("laplacian", {"metrics", "rounding", "moments"}),
    "analyze": ("rounding", {"moments"}),
    "census": ("metrics", {"moments"}),
}


@pytest.mark.parametrize("argv", [
    ["moments", "--m", "4"],
    ["spectra", "--m", "4", "--n", "2"],
    ["analyze", "--m", "3", "--n", "2", "--rule", "plurality"],
    ["census", "--m", "3", "--n", "1"],
])
def test_subcommands_load_only_their_modules(argv):
    script = ("import json, sys, irlap.cli\n"
              f"assert irlap.cli.main({argv!r}) == 0\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.startswith('irlap.'))))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = {name.split(".")[1] for name in json.loads(proc.stdout.splitlines()[-1])}
    runs, never = MODULES[argv[0]]
    assert runs in loaded and "cli" in loaded
    assert not loaded & never, loaded


def test_analyze_counts_pairs_once(monkeypatch, tmp_path):
    """IR, manipulation and robustness share one pair count of the rule."""
    import irlap.cli as cli
    from irlap import metrics

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(metrics, "_count_pairs", counted("pairs", metrics._count_pairs))
    argv = ["analyze", "--m", "3", "--n", "2", "--rule", "random", "--out",
            str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    assert calls == ["pairs"]
    calls.clear()
    # the centered rule is counted for its report, the rule itself for its IR
    assert cli.main(argv + ["--center"]) == 0
    assert calls == ["pairs", "pairs"]


def test_analyze_refuses_before_building_the_rule(monkeypatch, tmp_path):
    import irlap.aggregators as aggregators
    import irlap.cli as cli
    import irlap.rounding as rounding

    def unreachable(*args, **kwargs):
        raise AssertionError("the rule was built before the budget check")

    monkeypatch.setattr(aggregators, "make_named_rule", unreachable)
    monkeypatch.setattr(aggregators, "random_aggregator", unreachable)
    monkeypatch.setattr(aggregators, "from_json", unreachable)
    monkeypatch.setattr(rounding, "center_aggregator", unreachable)
    for m, n in ((5, 3), (6, 2)):
        for source in (["--rule", "plurality"], ["--rule", "random"],
                       ["--input", str(tmp_path / "agg.json")]):
            argv = ["analyze", "--m", str(m), "--n", str(n), *source]
            assert cli.main(argv) == 3, argv
    # inside the budget at n, past it at the n + 1 voters that --center analyses
    for argv in (["--m", "4", "--n", "4", "--rule", "random:seed=1"],
                 ["--m", "3", "--n", "7", "--rule", "plurality"]):
        assert cli.main(["analyze", *argv, "--center"]) == 3, argv


def test_out_is_checked_before_any_work(monkeypatch, tmp_path, capsys):
    import irlap.aggregators as aggregators
    import irlap.cli as cli
    import irlap.rounding as rounding

    def unreachable(*args, **kwargs):
        raise AssertionError("the rule was built before --out was checked")

    with monkeypatch.context() as patch:
        for name in ("make_named_rule", "random_aggregator", "from_json"):
            patch.setattr(aggregators, name, unreachable)
        patch.setattr(rounding, "center_aggregator", unreachable)
        for out in (tmp_path, tmp_path / "missing" / "report.json"):
            for source in (["--rule", "plurality"], ["--rule", "random"],
                           ["--input", str(tmp_path / "agg.json")]):
                argv = ["analyze", "--m", "3", "--n", "1", *source, "--out", str(out)]
                assert cli.main(argv) == 2, argv
                assert capsys.readouterr().err.startswith("error: --out"), argv
        for argv in (["spectra", "--m", "3"], ["census", "--m", "3"], ["moments", "--m", "4"]):
            assert cli.main([*argv, "--out", str(tmp_path)]) == 2, argv
    # a job that refuses or fails leaves an existing --out file as it was
    kept = tmp_path / "kept.json"
    kept.write_text("kept\n")
    for argv, code in ((["analyze", "--m", "6", "--n", "2", "--rule", "random"], 3),
                       (["analyze", "--m", "3", "--n", "1", "--rule", "nosuch"], 2),
                       (["moments", "--m", "4", "--sigma-hyper", "2"], 2)):
        assert cli.main([*argv, "--out", str(kept)]) == code, argv
        assert kept.read_text() == "kept\n", argv


def _named_rules(m: int) -> list[str]:
    ident = "".join(map(str, range(1, m + 1))) or "1"
    return ["random", "plurality", "borda", f"dictator:sigma={ident[::-1]}",
            f"constant:output={ident}"]


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_small_m_exits_without_a_traceback(m, capsys):
    """Malformed or degenerate input fails loudly with exit 2 (or 3),
    never with an uncaught exception."""
    import irlap.cli as cli

    jobs = [["spectra", "--m", str(m), "--n", "1"], ["census", "--m", str(m)],
            ["moments", "--m", str(m)]]
    jobs += [["analyze", "--m", str(m), "--rule", rule] for rule in _named_rules(m)]
    names_m = {"spectra": m < 3, "census": m < 2}  # the jobs that refuse this m
    for argv in jobs:
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3) and "Traceback" not in err, argv
        if names_m.get(argv[0]):
            assert code == 2 and f"got m={m}" in err, (argv, err)
    if m == 2:
        assert cli.main(["analyze", "--m", "2", "--rule", "random"]) == 2
        assert "analyze requires m >= 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["census", "--m", "4", "--n", "2"],
    ["census", "--m", "7", "--n", "1"],
    ["analyze", "--m", "3", "--n", "500", "--rule", "borda"],
    ["analyze", "--m", "5", "--n", "200", "--rule", "plurality"],
    ["census", "--m", "9", "--n", "800"],
])
def test_sizes_past_the_float_range_are_refused(argv):
    """A census or IR size past the float range is compared and printed
    without converting it to float; m!^n past 10^30 (4448 digits at
    --m 9 --n 800) is printed as such."""
    proc = run(*argv, check=False)
    assert proc.returncode == 3 and "refused" in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr


def test_census_refuses_before_building_the_subgroup(monkeypatch, capsys):
    import irlap.cli as cli
    import irlap.perms as perms

    def unreachable(*args, **kwargs):
        raise AssertionError("the subgroup was built before the census budget check")

    monkeypatch.setattr(perms, "build_fixing_subgroup", unreachable)
    assert cli.main(["census", "--m", "9", "--n", "1"]) == 3
    assert "362880^362880" in capsys.readouterr().err
    # one block: H = S_m is transitive (M_H = 0), refused from the blocks alone
    assert cli.main(["census", "--m", "7", "--n", "1", "--partition", "1,2,3,4,5,6,7"]) == 2
    assert "transitive on the rank positions (M_H = 0)" in capsys.readouterr().err
    assert cli.main(["census", "--m", "3", "--n", "1", "--partition", "1,2,2"]) == 2
    assert "partition must cover 1..3 exactly" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--out", "--input", "--orders"])
def test_a_path_that_is_no_file_is_an_input_error(flag, tmp_path, capsys):
    """A directory is an input error: --out is refused before any work,
    --input and --orders by the IsADirectoryError (an OSError) of
    opening them."""
    import irlap.cli as cli

    argv = ["analyze", "--m", "3", "--n", "1", flag, str(tmp_path)]
    if flag != "--input":
        argv += ["--rule", "dictator:i=1,sigma=123"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_checks_input_size_before_building_the_rule(monkeypatch, tmp_path, capsys):
    import irlap.aggregators as aggregators
    import irlap.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError("the rule was built before its m and n were checked")

    monkeypatch.setattr(aggregators, "from_json", unreachable)
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


@pytest.mark.parametrize("partition", ["1|2,3,", "1||2,3"])
def test_a_malformed_partition_names_the_flag(partition, capsys):
    import irlap.cli as cli

    for argv in (["analyze", "--m", "3", "--n", "2", "--rule", "plurality"],
                 ["census", "--m", "3", "--n", "1"]):
        assert cli.main([*argv, "--partition", partition]) == 2, argv
        assert f'--partition "{partition}"' in capsys.readouterr().err, argv


@pytest.mark.parametrize("kind,partition", [
    ("plurality", [[1], [2], [3]]),
    ("borda", [[1], [2, 3]]),
])
def test_a_named_rule_document_keeps_its_declared_partition(kind, partition, tmp_path):
    """A plurality or Borda document is built on the partition it
    declares, not on the rule's default one."""
    import irlap.cli as cli
    from irlap.aggregators import from_json, make_scoring
    from irlap.perms import build_fixing_subgroup

    path = tmp_path / "agg.json"
    doc = {"m": 3, "n": 2, "partition": partition, "type": kind, "params": {}}
    path.write_text(json.dumps(doc))
    H = build_fixing_subgroup(3, partition)
    agg = from_json(doc)
    assert agg.H.partition == H.partition
    assert (agg.table == make_scoring(kind, H, 2).table).all()
    assert cli.main(["analyze", "--m", "3", "--n", "2", "--input", str(path),
                     "--out", str(tmp_path / "report.json")]) == 0


def test_unknown_rule_params_are_input_errors():
    """Unknown, repeated and missing params each exit 2 and are named."""
    for rule, message in (("plurality:bogus=1", "unknown params"),
                          ("random:seed=1,foo=2", "unknown params"),
                          ("dictator:j=2", "unknown params"),
                          ("random:seed=1,seed=2", "repeated key 'seed'"),
                          ("dictator:i=1,sigma=123,i=2", "repeated key 'i'"),
                          ("dictator:i=2", "missing params ['sigma']"),
                          ("constant", "missing params ['output']")):
        proc = run("analyze", "--m", "3", "--n", "1", "--rule", rule, check=False)
        assert proc.returncode == 2, rule
        assert message in proc.stderr, rule


def test_spectra_refuses_a_hat_l1_past_the_dense_limit():
    proc = run("spectra", "--m", "72", check=False)  # (72-1)^2 = 5041 > DENSE_LIMIT
    assert proc.returncode == 3
    assert "refused" in proc.stderr and "5041" in proc.stderr


def test_analyze_centered_pipeline():
    out = json.loads(run(
        "analyze", "--m", "3", "--n", "1",
        "--rule", "dictator:i=1,sigma=213", "--center").stdout)
    assert out["robustness"]["centered"] is True
    assert out["robustness"]["dictator_distance_sq"] == "0/1"


def test_determinism_byte_identical():
    args = ["analyze", "--m", "3", "--n", "2", "--rule", "random:seed=5",
            "--seed", "5"]
    assert run(*args).stdout == run(*args).stdout
    margs = ["moments", "--m", "4", "--seed", "3"]
    assert run(*margs).stdout == run(*margs).stdout


def test_thread_pool_size_does_not_change_reports():
    base = ["moments", "--m", "4", "--seed", "9"]
    assert run(*base, "--threads", "1").stdout == run(*base, "--threads", "4").stdout


def test_sigma_hyper_is_read_exactly():
    """A fraction and its decimal give one report, whose decision is exact."""
    base = ["moments", "--m", "5", "--seed", "2", "--sigma-hyper"]
    out = run(*base, "1/2").stdout
    assert run(*base, "0.5").stdout == out
    row, = json.loads(out)["hypercontractivity"]["rows"]
    assert (row["sigma"], row["sigma4_U"], row["decision"]) == ("1/2", "23/40", "holds")


def test_moments_report(tmp_path):
    out_path = tmp_path / "moments.json"
    proc = run("moments", "--m", "4", "--seed", "1", "--out", str(out_path))
    assert "moments" in proc.stdout  # human summary on stdout
    doc = json.loads(out_path.read_text())
    assert all(row["matches_formula"] for row in doc["determinant"])
    assert doc["transfer_dual_path"]["exact_matches"] == 25
    assert doc["block_audit"]["repair_count"] > 0
    assert doc["hypercontractivity"]["certified_m0"] == 4
    assert "certified m0 4" in proc.stdout
