"""Self-tests of the benchmark harness.

Run from the root of the checkout:
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _report(argv):
    import irlap.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = irlap.cli.main(argv)
    return code, out.getvalue()


class SelfTime(unittest.TestCase):
    # (id, parent, name, start, end, item, value)
    SPANS = [
        (1, None, "rounding.robustness_report", 0.0, 10.0, "p0:0", None),
        (2, 1, "rounding.measured_gap", 1.0, 4.0, "p0:0", None),
        (3, 1, "aggregators.profile_tables", 3.0, 6.0, "p0:0", None),  # overlaps 2
        (4, 2, "laplacian.spectral_gap", 2.0, 3.0, "p0:0", 72),
        (5, 3, "aggregators.ProfileTables", 3.5, 4.5, "p0:0", None),
        (6, None, "aggregators.profile_tables", 7.0, 8.0, "p0:1", None),
    ]

    def test_self_time_subtracts_union_of_children(self):
        got = tracer.self_times(self.SPANS)
        self.assertEqual(got, {1: 5.0, 2: 2.0, 3: 2.0, 4: 1.0, 5: 1.0, 6: 1.0})

    def test_layer_metrics_per_pass_and_hit_ratios(self):
        got = tracer.layer_metrics(self.SPANS, passes=2)
        self.assertEqual(got["rounding.robustness_report.total_s"], 5.0)
        self.assertEqual(got["rounding.robustness_report.self_s"], 2.5)
        self.assertEqual(got["aggregators.profile_tables.calls"], 1.0)
        self.assertEqual(got["aggregators.profile_tables.hit_ratio"], 0.5)
        self.assertEqual(got["rounding.measured_gap.hit_ratio"], 0.0)
        self.assertEqual(got["laplacian.spectral_gap.dim"], 36.0)
        self.assertEqual(got["basis.rho1_table.hit_ratio"], 0.0)  # never called


class Checks(unittest.TestCase):
    def test_doctored_gap_counts_toward_gap_miss(self):
        argv = ["analyze", "--m", "3", "--n", "2", "--rule", "plurality"]
        code, text = _report(argv)
        self.assertEqual(workloads.check_cli(argv, code, text.encode()), (True, True, True, ""))
        doc = json.loads(text)
        doc["robustness"]["gap"] = 10.0
        result = workloads.check_cli(argv, code, json.dumps(doc).encode())
        self.assertEqual(result[:3], (True, True, False))
        passes = [{"traced": False, "wall": 1.0, "items": [[0, 1.0, *result, 50.0]]}]
        counts = run.summarize(passes)
        metrics, details = run.end_to_end(passes, 0.1, 50.0, counts, 2)
        self.assertEqual(details["gap_miss_frac"], 1.0)
        self.assertEqual(metrics["gap_ok_frac"][0], 0.0)
        self.assertEqual(counts["failed"], 0)

    def test_nonzero_exit_counts_toward_fail_rate(self):
        argv = ["analyze", "--m", "3", "--n", "2", "--rule", "bogus"]
        with tempfile.TemporaryDirectory() as tmp:
            code, out, *_ = run.run_child([sys.executable, "-m", "irlap.cli", *argv],
                                          tmp, 60.0)
        self.assertEqual(code, 2)
        result = workloads.check_cli(argv, code, out)
        self.assertFalse(result[0])
        ok = [1, 1.0, True, False, True, "", 40.0]
        passes = [{"traced": False, "wall": 2.0, "items": [[0, 1.0, *result, 40.0], ok]}]
        counts = run.summarize(passes)
        metrics, details = run.end_to_end(passes, 0.1, 40.0, counts, 2)
        self.assertEqual((counts["attempted"], counts["failed"]), (2, 1))
        self.assertEqual(details["fail_rate"], 0.5)
        self.assertEqual(metrics["ok_frac"][0], 0.5)


class Inputs(unittest.TestCase):
    @staticmethod
    def _shape(workload, items):
        if workload == "ensemble-lib":
            return [case[:4] for case in items]
        return [(a[0], tuple(t for t in a if t.startswith("--")),
                 workloads._option(a, "--m"), workloads._option(a, "--n")) for a in items]

    def test_seeds_change_inputs_but_not_shape(self):
        for name, (make, *_) in run.WORKLOADS.items():
            first, second = make(1), make(2)
            self.assertEqual(first, make(1), name)
            self.assertNotEqual(first, second, name)
            self.assertEqual(self._shape(name, first), self._shape(name, second), name)

    def test_tail_percentile_is_fixed_by_the_reference_run(self):
        times = [float(v) for v in range(26)]
        value, pct = run.tail(times, 26)
        self.assertEqual(value, 15.0)  # exactly ten samples beyond
        self.assertAlmostEqual(pct, 100.0 * 16 / 26)
        three_passes = times + [v + 26 for v in times[:13]]
        self.assertEqual(run.tail(three_passes, 26)[0], 23.0)  # fifteen beyond


class Contract(unittest.TestCase):
    def test_benchmark_json_names_match_emitted_metrics(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        passes = [{"traced": t, "wall": 1.0, "items": [[0, 1.0, True, True, True, "", 9.0]]}
                  for t in (True, False)]
        counts = run.summarize(passes)
        e2e, _ = run.end_to_end(passes, 0.1, 9.0, counts, 2)
        layers, _ = run.per_layer(passes, [])
        for section, metrics in (("end_to_end", e2e), ("per_layer", layers)):
            declared = {m["name"]: m["unit"] for m in spec[section]}
            self.assertEqual(declared, {k: unit for k, (_, unit) in metrics.items()}, section)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(metric["name"], r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


if __name__ == "__main__":
    unittest.main()
