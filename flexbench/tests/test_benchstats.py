"""Unit tests of the benchmark's arithmetic (no engine build needed).

    python3 -m unittest discover -s flexbench/tests
"""

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import benchstats  # noqa: E402


class TailRuleTest(unittest.TestCase):
    def test_keeps_exactly_ten_samples_beyond(self):
        values = list(range(1, 101))
        percentile, value, beyond = benchstats.tail(values)
        self.assertEqual(value, 90)
        self.assertEqual(beyond, 10)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(percentile, 90.0)

    def test_is_the_highest_such_percentile(self):
        # Any higher sample would leave fewer than ten beyond it.
        values = [float(v) for v in range(1000)]
        _, value, _ = benchstats.tail(values)
        self.assertEqual(sum(v > value for v in values), 10)
        next_up = min(v for v in values if v > value)
        self.assertEqual(sum(v > next_up for v in values), 9)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0] * 10
        self.assertEqual(benchstats.tail(values), benchstats.tail(sorted(values)))

    def test_too_few_samples_fall_back_to_the_maximum(self):
        percentile, value, beyond = benchstats.tail([3.0, 1.0, 2.0])
        self.assertEqual((percentile, value, beyond), (100.0, 3.0, 0))

    def test_eleven_samples(self):
        percentile, value, beyond = benchstats.tail(list(range(11)))
        self.assertEqual((value, beyond), (0, 10))
        self.assertAlmostEqual(percentile, 100.0 / 11)


class CalibrationTest(unittest.TestCase):
    def test_factor_uses_geometric_mean_of_the_two_probes(self):
        self.assertAlmostEqual(benchstats.pass_factor(2.0, 4.0, 1.0), 1.0)
        self.assertAlmostEqual(benchstats.pass_factor(2.0, 4.0, 4.0), 0.5)
        self.assertAlmostEqual(benchstats.pass_factor(1.0, 0.5, 0.5), 2.0)

    def raw_run(self, slowdown):
        """Two passes of two ops; the second pass ran on a host `slowdown`x slower."""
        return {
            "reference_kernel_ms": 1.0,
            "setup": [[1000.0, 1.0, 1.0], [2000.0 * slowdown, slowdown, 2.0 * slowdown],
                      [1500.0, 1.0, 1.0]],
            # kernel_before, kernel_after, wall_ms, cpu_ms, ops
            "passes": [[1.0, 1.0, 30.0, 28.0, 2],
                       [slowdown, slowdown, 30.0 * slowdown, 28.0 * slowdown, 2]],
            "op_ms": [10.0, 20.0, 10.0 * slowdown, 20.0 * slowdown],
            "op_pass": [0, 0, 1, 1],
            "attempted": 4, "errors": 0, "mismatches": 0, "peak_rss_mb": 12.5,
            "answers_per_op": 3.0, "shape_repeat_ratio": 0.5,
            "exact_repeat_ratio": 0.0,
        }

    def test_a_host_slowdown_cancels_out(self):
        steady, _ = benchstats.e2e_metrics(self.raw_run(1.0))
        slowed, diag = benchstats.e2e_metrics(self.raw_run(3.0))
        for name in ("latency_p50_ms", "latency_tail_ms", "throughput_qps",
                     "cpu_ms_per_query"):
            self.assertAlmostEqual(steady[name], slowed[name], msg=name)
        # The raw diagnostics keep the slowdown visible.
        self.assertAlmostEqual(diag["host.raw_throughput_qps"], 4 / 0.120)

    def test_metric_arithmetic(self):
        metrics, diag = benchstats.e2e_metrics(self.raw_run(2.0))
        self.assertAlmostEqual(metrics["latency_p50_ms"], 15.0)
        self.assertAlmostEqual(metrics["throughput_qps"], 4 / 0.060)
        self.assertAlmostEqual(metrics["cpu_ms_per_query"], 56.0 / 4)
        # Set-ups: 1.0 s, 2000*2/sqrt(2*4) ms = 1.414 s, 1.5 s -> median 1.414.
        self.assertAlmostEqual(metrics["setup_s"], 4.0 / math.sqrt(8.0))
        self.assertEqual(metrics["peak_rss_mb"], 12.5)
        self.assertEqual(diag["samples"], 4)
        self.assertEqual(diag["tail_samples_beyond"], 0)


class FailedOpsRatioTest(unittest.TestCase):
    def test_clean_run_is_positive_and_nearly_constant(self):
        few = benchstats.failed_ops_ratio(0, 500)
        many = benchstats.failed_ops_ratio(0, 1500)
        self.assertGreater(many, 0.0)
        self.assertLess(abs(few - many) / many, 0.02)

    def test_one_failure_doubles_it(self):
        clean = benchstats.failed_ops_ratio(0, 1000)
        self.assertAlmostEqual(benchstats.failed_ops_ratio(1, 1000) / clean, 2.0)


if __name__ == "__main__":
    unittest.main()
