#!/usr/bin/env python3
"""Self-tests of the benchmark's own code (no build, no simulation).

    python3 perfbench/test_run.py
"""
import json
import os
import statistics
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        self.assertEqual(run.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(run.percentile([1, 2, 3, 4], 0), 1)
        self.assertEqual(run.percentile([1, 2, 3, 4], 100), 4)
        self.assertEqual(run.percentile([7], 99.9), 7)
        self.assertAlmostEqual(run.percentile(range(101), 95), 95)

    def test_tail_leaves_at_least_ten_samples_beyond(self):
        expected = {10: 50, 20: 50, 39: 50, 40: 75, 100: 90, 200: 95,
                    999: 95, 1000: 99, 10000: 99.9}
        for n, pct in expected.items():
            self.assertEqual(run.tail_pct(n), pct, n)
        for n in range(20, 3000):
            p = run.tail_pct(n)
            self.assertGreaterEqual(n * (100 - p) / 100.0, 10)
            higher = [q for q in run.TAIL_PCTS if q > p]
            if higher:
                self.assertLess(n * (100 - higher[0]) / 100.0, 10)

    def test_summarize_reports_median_tail_and_count(self):
        median, tail, pct, n = run.summarize(list(range(1, 101)))
        self.assertEqual((median, pct, n), (50.5, 90, 100))
        self.assertAlmostEqual(tail, 90.1)

    def test_histogram_quantile_interpolates_inside_log2_buckets(self):
        buckets = [[0, 2], [4, 2]]  # two zeros, two values in [4, 8)
        self.assertEqual(run.hist_quantile(buckets, 0.25), 0.0)
        self.assertEqual(run.hist_quantile(buckets, 0.75), 6.0)
        self.assertEqual(run.hist_quantile(buckets, 1.0), 8.0)
        self.assertEqual(run.hist_quantile([], 0.5), 0.0)
        median, tail, pct, n = run.summarize_hist(
            {"buckets": [[1024, 30], [2048, 10]]}, 1e-3)
        self.assertEqual((pct, n), (75, 40))
        self.assertAlmostEqual(median, 1.024 * (1 + 20 / 30))
        self.assertAlmostEqual(tail, 2.048)

    def test_quartile_spread_uses_statistics_quantiles(self):
        values = [9, 1, 5, 3, 7, 2, 8, 4, 6, 10]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(run.quartile_spread(values), (q3 - q1) / q2)
        self.assertEqual(run.quartile_spread([2.0] * 10), 0.0)


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.tmp.name, "campaign0.csr")
        with open(self.path, "wb") as f:
            f.write(b"CSR1" + bytes(range(256)) * 4)

    def tearDown(self):
        self.tmp.cleanup()

    def flip_byte(self, offset):
        with open(self.path, "r+b") as f:
            f.seek(offset)
            b = f.read(1)[0]
            f.seek(offset)
            f.write(bytes([b ^ 0x01]))

    def test_committed_hash_accepts_identical_bytes(self):
        ref = {"campaign0.csr": run.sha256_file(self.path)}
        checker = run.OutputChecker(ref)
        self.assertEqual(checker.check({"stanza0": {"campaign0.csr": self.path}}),
                         {"stanza0": True})

    def test_flipped_byte_is_a_failed_operation(self):
        checker = run.OutputChecker({"campaign0.csr": run.sha256_file(self.path)})
        self.flip_byte(100)
        ok = checker.check({"stanza0": {"campaign0.csr": self.path},
                            "stanza1": {}})
        self.assertEqual(ok, {"stanza0": False, "stanza1": True})
        ops = list(ok.values())
        result = run.make_result({n: 1.0 for n, _ in run.END_TO_END}, 0, ops, {})
        self.assertEqual((result["attempted"], result["failed"], result["correct"]),
                         (2, 1, False))

    def test_missing_file_fails_without_raising(self):
        checker = run.OutputChecker({"x.csr": "0" * 64})
        missing = os.path.join(self.tmp.name, "missing.csr")
        self.assertEqual(checker.check({"op": {"x.csr": missing}}), {"op": False})

    def test_other_seeds_check_repetitions_against_the_first(self):
        checker = run.OutputChecker()
        op = {"stanza0": {"campaign0.csr": self.path}}
        self.assertEqual(checker.check(op), {"stanza0": True})
        self.assertEqual(checker.check(op), {"stanza0": True})
        self.flip_byte(0)
        self.assertEqual(checker.check(op), {"stanza0": False})


class MetricTableTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def test_end_to_end_metrics_match_benchmark_json(self):
        declared = [(m["name"], m["unit"]) for m in self.bench["end_to_end"]]
        self.assertEqual(run.metric_table(0), declared)
        self.assertIn(("setup_s", "s"), declared)

    def test_per_layer_metrics_match_benchmark_json(self):
        declared = [(m["name"], m["unit"]) for m in self.bench["per_layer"]]
        self.assertEqual(run.metric_table(1), declared)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(sorted(w["name"] for w in self.bench["workloads"]),
                         sorted(run.WORKLOADS))

    def test_result_object_has_exactly_the_result_keys(self):
        for trace in (0, 1):
            values = {name: 1.5 for name, _ in run.metric_table(trace)}
            result = run.make_result(values, trace, [True, True], {"g": True})
            self.assertEqual(sorted(result),
                             ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            for name, unit in run.metric_table(trace):
                self.assertEqual(result["metrics"][name],
                                 {"value": 1.5, "unit": unit})
            json.dumps(result)

    def test_tripped_guard_marks_the_run_incorrect(self):
        values = {name: 1.0 for name, _ in run.metric_table(1)}
        result = run.make_result(values, 1, [True], {"cache.hit == 0": False})
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
