import statistics
import unittest

import _path  # noqa: F401
from pb import stats


class Percentiles(unittest.TestCase):
    def test_p90_refuses_fewer_than_100_samples(self):
        with self.assertRaises(stats.Refused):
            stats.percentile(list(range(99)), 90)
        self.assertEqual(stats.percentile(list(range(100)), 90).count, 100)

    def test_minimums_leave_ten_samples_beyond(self):
        self.assertEqual(stats.min_samples(90), 100)
        self.assertEqual(stats.min_samples(75), 40)
        self.assertEqual(stats.min_samples(99), 1000)
        with self.assertRaises(stats.Refused):
            stats.percentile(list(range(39)), 75)

    def test_nearest_rank(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(xs, 90), 90)
        self.assertEqual(stats.percentile(list(reversed(xs)), 90), 90)
        self.assertEqual(stats.percentile(list(range(1, 41)), 75), 30)

    def test_every_percentile_reports_its_count(self):
        self.assertEqual(stats.percentile([3.0, 1.0, 2.0], 50).count, 3)
        self.assertEqual(stats.median([1.0, 2.0]).count, 2)
        self.assertEqual(stats.percentile([0.5] * 250, 90).count, 250)

    def test_median_interpolates_even_counts(self):
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)
        with self.assertRaises(stats.Refused):
            stats.median([])


class Rates(unittest.TestCase):
    def test_units_per_s(self):
        self.assertAlmostEqual(stats.rate(45, 22.5), 2.0)
        with self.assertRaises(ValueError):
            stats.rate(1, 0)

    def test_per_unit_normalisation(self):
        self.assertEqual(stats.per(600_000, 15), 40_000)
        with self.assertRaises(ValueError):
            stats.per(1, 0)

    def test_error_pct(self):
        self.assertEqual(stats.error_pct(0, 120), 0.0)
        self.assertEqual(stats.error_pct(3, 120), 2.5)
        self.assertEqual(stats.verified_pct(3, 120), 97.5)
        for bad in [(1, 0), (-1, 5), (6, 5)]:
            with self.assertRaises(ValueError):
                stats.error_pct(*bad)

    def test_spread_is_the_acceptance_formula(self):
        xs = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 10.0, 9.7]
        q1, _, q3 = statistics.quantiles(xs, n=4)
        self.assertEqual(stats.spread(xs), (q3 - q1) / statistics.median(xs))


if __name__ == "__main__":
    unittest.main()
