"""Tests of the benchmark's own arithmetic (perfbench/analysis.py).

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import analysis  # noqa: E402


def span(name, begin, end, rid=-1, batch=0, value=-1, repeat=0):
    return [name, begin, end, rid, batch, value, repeat]


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_from_their_parent(self):
        self.assertEqual(analysis.self_times([(0, 100), (10, 30), (40, 50)]), [70, 20, 10])

    def test_only_direct_children_are_subtracted(self):
        # root [0,100] > child [10,60] > grandchild [20,30]
        self.assertEqual(analysis.self_times([(0, 100), (10, 60), (20, 30)]), [50, 40, 10])

    def test_input_order_does_not_matter(self):
        self.assertEqual(analysis.self_times([(40, 50), (0, 100), (10, 30)]), [10, 70, 20])

    def test_disjoint_spans_keep_their_duration(self):
        self.assertEqual(analysis.self_times([(0, 10), (10, 25)]), [10, 15])

    def test_child_past_parent_end_is_clipped(self):
        self.assertEqual(analysis.self_times([(0, 100), (90, 120)]), [90, 30])


class LedgerTest(unittest.TestCase):
    def rows(self):
        return [
            # sample 0: 100 ns, hash 30 + search 20 inside, 50 other
            span("sample", 0, 100, batch=0),
            span("hash", 5, 35, batch=0, value=0),
            span("cam_search", 40, 60, batch=0, value=1),
            # sample 1: 50 ns, postproc 10 inside, 40 other
            span("sample", 200, 250, batch=1),
            span("postproc", 210, 220, batch=1, value=0),
            # ignored: not a sample or kernel stage
            span("submit", 0, 0, batch=0),
        ]

    def test_stage_self_times_and_other_sum_to_sample_time(self):
        led = analysis.ledger(self.rows())
        self.assertEqual(led["samples"], 2)
        self.assertEqual(led["sample_ns"], 150)
        self.assertEqual(led["stage_ns"], {"hash": 30, "cam_write": 0, "cam_search": 20,
                                           "postproc": 10})
        self.assertEqual(led["other_ns"], 90)
        self.assertEqual(led["residual_ns"], 0)
        self.assertEqual(led["layer_ns"][("hash", 0)], 30)
        self.assertEqual(led["layer_ns"][("cam_search", 1)], 20)

    def test_samples_of_other_repeats_are_kept_apart(self):
        rows = self.rows() + [span("hash", 0, 100, batch=0, value=0, repeat=1),
                              span("sample", 0, 100, batch=0, repeat=1)]
        led = analysis.ledger(rows)
        self.assertEqual(led["samples"], 3)
        self.assertEqual(led["stage_ns"]["hash"], 130)
        self.assertEqual(led["other_ns"], 90)
        self.assertEqual(led["residual_ns"], 0)

    def test_kernel_span_outside_any_sample_is_an_orphan(self):
        led = analysis.ledger(self.rows() + [span("hash", 300, 310, batch=7)])
        self.assertEqual(led["orphan_ns"], 10)
        self.assertEqual(led["stage_ns"]["hash"], 30)


class PercentileTest(unittest.TestCase):
    def test_linear_interpolation(self):
        self.assertEqual(analysis.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(analysis.percentile([5], 99), 5)
        self.assertEqual(analysis.percentile(list(range(101)), 90), 90)

    def test_percentile_needs_ten_samples_beyond_it(self):
        self.assertIsNone(analysis.supported_percentile(list(range(19))))
        self.assertEqual(analysis.supported_percentile(list(range(20)))[0], 50.0)
        self.assertEqual(analysis.supported_percentile(list(range(40)))[0], 75.0)
        self.assertEqual(analysis.supported_percentile(list(range(100)))[0], 90.0)
        self.assertEqual(analysis.supported_percentile(list(range(999)))[0], 95.0)
        self.assertEqual(analysis.supported_percentile(list(range(1000)))[0], 99.0)
        self.assertEqual(analysis.supported_percentile(list(range(10000)))[0], 99.9)

    def test_summary_reports_median_tail_and_count(self):
        entry = analysis.summarize("x", "ms", list(range(1, 101)))
        self.assertEqual(entry["median"], 50.5)
        self.assertEqual((entry["tail_pct"], entry["n"]), (90.0, 100))
        self.assertIsNone(analysis.summarize("y", "ms", [3.0])["tail_pct"])


def request(scheduled, sent, done, admission="accepted", ok=True, slo_met=True):
    return {"scheduled_ns": scheduled, "sent_ns": sent, "done_ns": done,
            "admission": admission, "ok": ok, "slo_met": slo_met}


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_the_scheduled_send_time(self):
        # Due at 0 ms, sent 5 ms late by a stalled generator, answered at 12.
        r = request(0, 5_000_000, 12_000_000)
        self.assertEqual(analysis.latency_ms(r), 12.0)
        self.assertEqual(analysis.gen_lag_ms(r), 5.0)

    def test_refused_and_failed_requests_miss_the_deadline(self):
        reqs = [request(0, 0, 1_000_000),
                request(0, 0, -1, admission="rejected-shed", ok=False, slo_met=False),
                request(0, 0, 2_000_000, ok=False, slo_met=False)]
        st = analysis.step_stats(reqs, seconds=0.5)
        self.assertEqual((st["sent"], st["met"], st["failed"]), (3, 1, 2))
        self.assertEqual(st["goodput_rps"], 2.0)

    def test_max_rate_is_the_highest_rate_meeting_the_deadline_share(self):
        steps = [{"rate_rps": r, "role": role} for r, role in
                 ((200, "warmup"), (100, "ladder"), (200, "mid"), (400, "ladder"),
                  (200, "mid"), (800, "ladder"), (200, "mid-untraced"))]
        met = (0, 100, 100, 99, 99, 50, 100)
        stats = [{"sent": 100, "met": k} for k in met]
        self.assertEqual(analysis.max_rate(steps, stats), 400)
        stats[3]["met"] = 98
        self.assertEqual(analysis.max_rate(steps, stats), 200)

    def test_max_rate_pools_every_step_at_a_rate(self):
        steps = [{"rate_rps": 200, "role": "mid"}, {"rate_rps": 200, "role": "mid"}]
        stats = [{"sent": 100, "met": 100}, {"sent": 100, "met": 97}]
        self.assertEqual(analysis.max_rate(steps, stats), 0.0)
        stats[1]["met"] = 98
        self.assertEqual(analysis.max_rate(steps, stats), 200)

if __name__ == "__main__":
    unittest.main()
