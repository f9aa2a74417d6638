"""Summary statistics and span arithmetic against hand-computed values.

    python3 -m unittest discover -s carbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import summary  # noqa: E402


class MedianQuartileTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(summary.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(summary.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            summary.median([])

    def test_quartiles_one_to_ten(self):
        # Exclusive method, n = 10: positions 2.75, 5.5 and 8.25.
        self.assertEqual(summary.quartiles(list(range(1, 11))),
                         (2.75, 5.5, 8.25))

    def test_quartiles_on_exact_ranks(self):
        # n = 7: positions 2, 4 and 6 of the sorted values.
        values = [9.0, 2.0, 12.0, 4.0, 7.0, 4.0, 5.0]
        self.assertEqual(summary.quartiles(values), (4.0, 5.0, 9.0))

    def test_single_sample(self):
        self.assertEqual(summary.quartiles([0.25]), (0.25, 0.25, 0.25))
        self.assertEqual(summary.relative_spread([0.25]), 0.0)

    def test_relative_spread(self):
        # (8.25 - 2.75) / 5.5
        self.assertAlmostEqual(
            summary.relative_spread(list(range(1, 11))), 1.0)
        self.assertAlmostEqual(
            summary.relative_spread([9.0, 2.0, 12.0, 4.0, 7.0, 4.0, 5.0]),
            1.0)


class TailPercentileTest(unittest.TestCase):
    def test_too_few_samples(self):
        # 39 samples leave fewer than ten beyond p75.
        self.assertIsNone(summary.tail_percentile(list(range(39))))

    def test_p75_at_forty(self):
        # Ten samples lie beyond the 30th of 1..40.
        self.assertEqual(summary.tail_percentile(list(range(1, 41))),
                         (75.0, 30))

    def test_p90_at_one_hundred(self):
        self.assertEqual(summary.tail_percentile(list(range(1, 101))),
                         (90.0, 90))

    def test_p99_at_one_thousand(self):
        values = list(range(1000, 0, -1))  # order must not matter
        self.assertEqual(summary.tail_percentile(values), (99.0, 990))

    def test_describe_reports_sample_count(self):
        row = summary.describe([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0,
                                10.0])
        self.assertEqual(row["n"], 10)
        self.assertEqual((row["q1"], row["median"], row["q3"]),
                         (2.75, 5.5, 8.25))
        self.assertIsNone(row["tail"])


class SpanTest(unittest.TestCase):
    SPANS = [
        {"name": "iteration", "start_s": 0.0, "end_s": 10.0, "parent": -1,
         "iteration": 2},
        {"name": "setup", "start_s": 1.0, "end_s": 4.0, "parent": 0,
         "iteration": 2},
        {"name": "recovery", "start_s": 5.0, "end_s": 9.0, "parent": 0,
         "iteration": 2},
        {"name": "emul.execute", "start_s": 6.0, "end_s": 7.0, "parent": 2,
         "iteration": 2},
        {"name": "emul.execute", "start_s": 7.5, "end_s": 8.0, "parent": 2,
         "iteration": 2},
    ]

    def test_self_times(self):
        self.assertEqual(summary.self_times(self.SPANS),
                         [3.0, 3.0, 2.5, 1.0, 0.5])

    def test_grouped_by_iteration_and_name(self):
        own = summary.self_time_by_iteration(self.SPANS)
        self.assertEqual(own, {2: {"iteration": 3.0, "setup": 3.0,
                                   "recovery": 2.5, "emul.execute": 1.5}})


if __name__ == "__main__":
    unittest.main()
