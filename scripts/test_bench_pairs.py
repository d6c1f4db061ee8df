#!/usr/bin/env python3
"""Unit checks of scripts/bench_pairs.py's verdict() and io_changes().

    python3 scripts/test_bench_pairs.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import io_changes, verdict  # noqa: E402

QPS = {"name": "qps", "better": "higher", "bound": 0.25}
SETUP = {"name": "setup_s", "better": "lower", "bound": 0.25}

# A parent whose interquartile range is about 40% of its median: wider than
# the 25% bound.
WIDE = [0.010, 0.012, 0.014, 0.016, 0.018]
NARROW = [100.0, 101.0, 102.0, 103.0, 104.0]


class Verdict(unittest.TestCase):
    def v(self, metric, parent, change):
        return verdict(metric, parent, change)[2]

    def test_wide_parent_clearly_worse_change_regresses(self):
        # Every run worse and the median twice the parent's.
        self.assertEqual(self.v(SETUP, WIDE, [2 * x for x in WIDE]),
                         "regressed")

    def test_wide_parent_median_past_bound_plus_spread_regresses(self):
        # One change run overlaps the parent, but the median is 3x worse.
        change = [0.011, 0.040, 0.042, 0.044, 0.046]
        self.assertEqual(self.v(SETUP, WIDE, change), "regressed")

    def test_wide_parent_change_inside_noise_is_unresolved(self):
        change = [0.012, 0.014, 0.016, 0.018, 0.020]
        self.assertEqual(self.v(SETUP, WIDE, change), "unresolved")

    def test_wide_parent_every_run_better_is_not_unresolved(self):
        change = [x / 2 for x in WIDE]
        self.assertEqual(self.v(SETUP, WIDE, change), "improved")

    def test_narrow_parent_worse_beyond_bound_regresses(self):
        self.assertEqual(self.v(QPS, NARROW, [x * 0.7 for x in NARROW]),
                         "regressed")

    def test_narrow_parent_small_loss_is_unchanged(self):
        self.assertEqual(self.v(QPS, NARROW, [x * 0.99 for x in NARROW]),
                         "unchanged")

    def test_narrow_parent_clear_gain_is_improved(self):
        self.assertEqual(self.v(QPS, NARROW, [x * 1.5 for x in NARROW]),
                         "improved")


class IoChanges(unittest.TestCase):
    A = ("SELECT A", {"auto": "transformed", "auto_cost": 16, "nested": 16})
    B = ("SELECT B", {"auto": "nested_iteration", "auto_cost": 0,
                      "batched": "refused"})

    def test_identical_traces_change_nothing(self):
        self.assertEqual(io_changes([self.A, self.B], [self.A, self.B]), [])

    def test_one_strategy_io_names_its_statement(self):
        moved = ("SELECT A", dict(self.A[1], nested=133))
        self.assertEqual(io_changes([self.A, self.B], [moved, self.B]),
                         ["SELECT A"])

    def test_a_changed_pick_counts(self):
        picked = ("SELECT B", dict(self.B[1], auto="batched"))
        self.assertEqual(io_changes([self.A, self.B], [self.A, picked]),
                         ["SELECT B"])

    def test_different_statements_change_everything(self):
        self.assertEqual(io_changes([self.A, self.B], [self.B, self.A]),
                         ["SELECT A", "SELECT B"])


if __name__ == "__main__":
    unittest.main()
