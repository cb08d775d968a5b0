#!/usr/bin/env python3
"""Self-tests of the A/B rules in compare.py, on synthetic runs.

    python3 nbbench/test_compare.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9,
          100.3]


class ClaimRule(unittest.TestCase):
    def test_clear_gain_is_met(self):
        change = [v * 1.10 for v in PARENT]
        c = compare.claim(PARENT, change, "higher")
        self.assertEqual(c["wins"], 10)
        self.assertTrue(c["met"])

    def test_lower_is_better(self):
        change = [v * 0.90 for v in PARENT]
        self.assertTrue(compare.claim(PARENT, change, "lower")["met"])
        self.assertFalse(compare.claim(PARENT, change, "higher")["met"])

    def test_eight_of_ten_wins_is_not_enough(self):
        change = [v * 1.10 for v in PARENT]
        change[0] = PARENT[0] - 1
        change[1] = PARENT[1] - 1
        c = compare.claim(PARENT, change, "higher")
        self.assertEqual(c["wins"], 8)
        self.assertFalse(c["met"])

    def test_nine_of_ten_wins_is_enough(self):
        change = [v * 1.10 for v in PARENT]
        change[3] = PARENT[3] - 1
        self.assertTrue(compare.claim(PARENT, change, "higher")["met"])

    def test_ties_win_for_neither_side(self):
        change = [v * 1.10 for v in PARENT]
        change[0] = PARENT[0]
        change[1] = PARENT[1]
        c = compare.claim(PARENT, change, "higher")
        self.assertEqual(c["wins"], 8)
        self.assertFalse(c["met"])

    def test_gain_inside_parent_iqr_is_not_met(self):
        # Every pair won, but by less than the parent's own spread.
        change = [v + 0.05 for v in PARENT]
        c = compare.claim(PARENT, change, "higher")
        self.assertEqual(c["wins"], 10)
        self.assertLess(c["median_gain"], c["parent_iqr"])
        self.assertFalse(c["met"])

    def test_unpaired_runs_are_rejected(self):
        with self.assertRaises(ValueError):
            compare.claim(PARENT, PARENT[:-1], "higher")


class Verdicts(unittest.TestCase):
    def test_unchanged_is_no_worse(self):
        self.assertEqual(
            compare.verdict(PARENT, list(PARENT), "higher", 0.1),
            "no worse")

    def test_loss_beyond_bound_is_worse(self):
        change = [v * 0.8 for v in PARENT]
        self.assertEqual(
            compare.verdict(PARENT, change, "higher", 0.1), "worse")

    def test_loss_within_bound_is_no_worse(self):
        change = [v * 0.95 for v in PARENT]
        self.assertEqual(
            compare.verdict(PARENT, change, "higher", 0.1), "no worse")

    def test_lower_is_better_direction(self):
        change = [v * 1.2 for v in PARENT]
        self.assertEqual(
            compare.verdict(PARENT, change, "lower", 0.1), "worse")
        self.assertEqual(
            compare.verdict(PARENT, change, "higher", 0.1), "no worse")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0,
                 70.0, 130.0]
        self.assertEqual(
            compare.verdict(noisy, list(noisy), "higher", 0.1),
            "unresolved")

    def test_wide_spread_but_every_run_better_is_resolved(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0,
                 70.0, 130.0]
        change = [v + 200.0 for v in noisy]
        self.assertEqual(
            compare.verdict(noisy, change, "higher", 0.1), "no worse")

    def test_quartiles_match_statistics_quantiles(self):
        q1, q2, q3 = compare.quartiles([1, 2, 3, 4, 5, 6, 7, 8])
        self.assertEqual((q1, q2, q3), (2.25, 4.5, 6.75))


if __name__ == "__main__":
    unittest.main()
