"""Tests of the benchmark's own arithmetic: the ten-beyond percentile
rule, how failures are counted, and the compare verdicts.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_p99_needs_a_thousand(self):
        self.assertEqual(run.beyond(1000, 99.0), 10)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(999), 95.0)

    def test_cap_bounds_the_percentile(self):
        self.assertEqual(run.tail_percentile(10 ** 6, cap=99.0), 99.0)
        self.assertEqual(run.tail_percentile(10 ** 6, cap=99.9), 99.9)
        self.assertEqual(run.tail_percentile(10 ** 6, cap=95.0), 95.0)

    def test_small_samples_step_down_the_ladder(self):
        self.assertEqual(run.tail_percentile(200), 95.0)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(40), 75.0)
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertIsNone(run.tail_percentile(19))

    def test_every_chosen_percentile_has_ten_beyond(self):
        for n in range(20, 3000, 7):
            p = run.tail_percentile(n)
            self.assertGreaterEqual(run.beyond(n, p), 10)
            xs = list(range(n))
            self.assertEqual(sum(1 for x in xs if x > run.nearest_rank(xs, p)), run.beyond(n, p))

    def test_a_stall_under_three_quarters_of_the_run_does_not_move_the_tail(self):
        steady = [1_000_000] * 990 + [2_000_000] * 10
        stalled = [4_000_000] * 990 + [8_000_000] * 10
        t = run.timing(steady * 6 + stalled * 10, 99.0)
        self.assertEqual(t["tail"], 1.0)
        self.assertEqual(t["p50"], 1.0)

    def test_timing_reports_the_rule_and_the_max_without_it(self):
        t = run.timing([1_000_000] * 5, 99.0)
        self.assertIsNone(t["pct"])
        self.assertEqual(t["tail"], 1.0)
        t = run.timing(list(range(1, 1001)), 99.0)
        self.assertEqual(t["pct"], 99.0)
        self.assertEqual(t["tail"], 990 / 1e6)


class Throughput(unittest.TestCase):
    def test_steady_completions_give_their_rate(self):
        # 1000 completions, one every millisecond: 1000 per second
        records = [(False, i * 1_000_000, 0, "ok", 1) for i in range(1000)]
        self.assertAlmostEqual(run.chunked_rate(records), 1000.0)

    def test_one_slow_chunk_does_not_move_the_median(self):
        records = [(False, i * 1_000_000, 0, "ok", 1) for i in range(800)]
        records += [(False, 800_000_000 + i * 10_000_000, 0, "ok", 1) for i in range(100)]
        self.assertAlmostEqual(run.chunked_rate(records), 1000.0)

    def test_pauses_between_segments_are_not_time(self):
        # four segments of 250 completions a millisecond apart, each
        # followed by a five-second pause
        records = [(False, s * 5_250_000_000 + i * 1_000_000, 0, "ok", s + 1)
                   for s in range(4) for i in range(250)]
        self.assertAlmostEqual(run.chunked_rate(records), 1000.0)


class FailedRatio(unittest.TestCase):
    OK = "ok 0 12 HIT plan {1 -> br}"

    def test_each_failure_class_counts(self):
        replies = [self.OK, "err bad line", "ok 0 3 REJECTED: shed (queue full)",
                   "ok 0 4 DEGRADED after 64/90 plans", "", self.OK]
        failed, attempted, by = run.count_failures(replies, 2)
        self.assertEqual(attempted, 6)
        self.assertEqual(by, {"err": 1, "shed": 1, "degraded": 1, "missing": 1, "mismatch": 2})
        self.assertEqual(failed, 6)

    def test_no_plan_and_other_rejections_are_answers(self):
        replies = ["ok 0 5 REJECTED: no valid plan", "ok * 6 OK",
                   "ok 0 7 REJECTED: no mediation: x", "ok 0 8 MISS plan"]
        self.assertEqual(run.count_failures(replies, 0)[0], 0)

    def test_a_degraded_level_tag_is_still_degraded(self):
        self.assertEqual(run.classify("ok 0 9 DEGRADED[skip:2] after 3/4 plans"), "degraded")


class Verdicts(unittest.TestCase):
    def test_within_bound_is_unchanged(self):
        self.assertEqual(run.verdict([100, 101, 99, 100], [104, 105, 103, 104], "lower", 0.1),
                         "unchanged")

    def test_worse_than_bound_is_a_regression(self):
        self.assertEqual(run.verdict([100, 101, 99, 100], [120, 121, 119, 120], "lower", 0.1),
                         "regression")
        self.assertEqual(run.verdict([100, 101, 99, 100], [80, 81, 79, 80], "higher", 0.1),
                         "regression")

    def test_better_than_bound_is_improved(self):
        self.assertEqual(run.verdict([100, 101, 99, 100], [80, 81, 79, 80], "lower", 0.1),
                         "improved")

    def test_spread_wider_than_bound_is_unresolved(self):
        self.assertEqual(run.verdict([60, 100, 140, 100], [125, 126, 124, 125], "lower", 0.1),
                         "unresolved")

    def test_unresolved_unless_every_new_run_is_better(self):
        self.assertEqual(run.verdict([100, 130, 160, 190], [40, 50, 60, 70], "lower", 0.1),
                         "improved")


if __name__ == "__main__":
    unittest.main()
