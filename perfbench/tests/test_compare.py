"""Tests of perfbench/compare.py: quartile spread and the verdict rules.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import json
import os
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
import compare  # noqa: E402

LOWER = {"better": "lower", "bound": 0.1}
HIGHER = {"better": "higher", "bound": 0.1}


class Summary(unittest.TestCase):
    def test_quartiles_are_pythons_exclusive_method(self):
        values = [2.5, 0.5, 9.0, 4.25, 7.75, 1.0, 3.0]
        q1, q2, q3, spread = compare.summary(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual([q1, q2, q3], [1.0, 3.0, 7.75])
        self.assertAlmostEqual(spread, (7.75 - 1.0) / 3.0)

    def test_median_of_ten(self):
        values = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        self.assertEqual(compare.summary(values)[:3], (27.5, 55.0, 82.5))


class Verdict(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9,
              100.3]

    def test_improved_needs_nine_tenths_of_pairs_and_a_gap(self):
        change = [v * 0.8 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, LOWER),
                         ("improved", 1.0))
        # Higher-is-better metrics win in the other direction.
        self.assertEqual(compare.verdict(change, self.parent, HIGHER)[0],
                         "improved")

    def test_small_shift_is_within_bound(self):
        change = [v * 1.02 for v in self.parent]
        result, win_share = compare.verdict(self.parent, change, LOWER)
        self.assertEqual(result, "within bound")
        self.assertEqual(win_share, 0.0)

    def test_worse_than_the_bound_is_regressed(self):
        change = [v * 1.3 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, LOWER)[0],
                         "regressed")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
                 100.0]
        change = [v * 1.3 for v in noisy]
        self.assertEqual(compare.verdict(noisy, change, LOWER)[0],
                         "unresolved")

    def test_every_change_run_better_resolves_a_wide_spread(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
                 100.0]
        change = [v / 3.0 for v in noisy]  # max 46.7 < min 60
        result, _ = compare.verdict(noisy, change, LOWER)
        self.assertNotEqual(result, "unresolved")

    def test_ties_count_for_neither_side(self):
        change = list(self.parent)
        self.assertEqual(compare.verdict(self.parent, change, LOWER),
                         ("within bound", 0.0))


def result(value):
    return {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {"setup_s": {"value": value, "unit": "s"}}}


class Runs(unittest.TestCase):
    def write(self, directory, name, header, value=1.0):
        with open(os.path.join(directory, name), "w") as f:
            f.write(header + "\n  setup_s = 1 s\n")
            f.write(json.dumps(result(value)) + "\n")

    def test_runs_are_keyed_by_workload_and_seed(self):
        with tempfile.TemporaryDirectory() as d:
            self.write(d, "a.out", "workload=encode seed=7 seconds=10.0 "
                       "trace=0", 2.0)
            self.write(d, "b.out", "workload=encode seed=3 seconds=10 "
                       "trace=0", 1.0)
            runs = compare.read_runs(d, 10)
        self.assertEqual(sorted(runs["encode"]), [3, 7])
        self.assertEqual(
            runs["encode"][7]["metrics"]["setup_s"]["value"], 2.0)

    def test_other_run_length_or_traced_run_is_refused(self):
        for header in ("workload=encode seed=1 seconds=5.0 trace=0",
                       "workload=encode seed=1 seconds=10.0 trace=1"):
            with tempfile.TemporaryDirectory() as d:
                self.write(d, "a.out", header)
                with self.assertRaises(SystemExit):
                    compare.read_runs(d, 10)

    def test_pairs_are_matched_by_seed(self):
        parent = {1: "p1", 2: "p2", 5: "p5"}
        change = {5: "c5", 1: "c1", 9: "c9"}
        self.assertEqual(compare.pair_by_seed(parent, change),
                         (["p1", "p5"], ["c1", "c5"], 2))


if __name__ == "__main__":
    unittest.main()
