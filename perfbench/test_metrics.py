#!/usr/bin/env python3
"""Self-tests of the benchmark's helpers and of BENCHMARK.json.

    python3 perfbench/test_metrics.py
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as m  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p90_of_100_has_10_beyond(self):
        samples = list(range(1, 101))
        self.assertEqual(m.nearest_rank(samples, 0.9), (90, 10))
        self.assertEqual(m.tail_percentile(samples, 0.9), 90)

    def test_p90_of_120_has_12_beyond(self):
        value, beyond = m.nearest_rank(list(range(120, 0, -1)), 0.9)
        self.assertEqual((value, beyond), (108, 12))

    def test_too_few_samples_beyond_is_refused(self):
        with self.assertRaises(ValueError):
            m.tail_percentile(list(range(99)), 0.9)
        with self.assertRaises(ValueError):
            m.tail_percentile([3.0], 0.9)

    def test_single_sample(self):
        self.assertEqual(m.nearest_rank([2.5], 0.9), (2.5, 0))
        self.assertEqual(m.nearest_rank([2.5], 0.5), (2.5, 0))


def span(i, parent, t0, t1):
    return {"id": i, "parent": parent, "t0": t0, "t1": t1}


class SpanSelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [span(0, -1, 0.0, 10.0), span(1, 0, 1.0, 3.0),
                 span(2, 0, 5.0, 6.0), span(3, 1, 1.5, 2.5)]
        st = m.self_times(spans)
        self.assertAlmostEqual(st[0], 7.0)
        self.assertAlmostEqual(st[1], 1.0)
        self.assertAlmostEqual(st[2], 1.0)
        self.assertAlmostEqual(st[3], 1.0)

    def test_overlapping_children_count_once(self):
        spans = [span(0, -1, 0.0, 10.0), span(1, 0, 2.0, 6.0),
                 span(2, 0, 4.0, 8.0)]
        self.assertAlmostEqual(m.self_times(spans)[0], 4.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, -1, 0.0, 4.0), span(1, 0, 3.0, 9.0)]
        self.assertAlmostEqual(m.self_times(spans)[0], 3.0)

    def test_leaf_self_time_is_duration(self):
        self.assertAlmostEqual(m.self_times([span(7, -1, 2.0, 2.5)])[7], 0.5)


class MetricNames(unittest.TestCase):
    def test_charset(self):
        for ok in ("solve_s", "cfd.residual.busy_s", "mesh.order_s",
                   "a-b.c_d9", "9lives"):
            self.assertTrue(m.valid_metric_name(ok), ok)
        for bad in ("", ".lead", "_lead", "has space", "slash/name",
                    "colon:x", "x" * 65, "ünï"):
            self.assertFalse(m.valid_metric_name(bad), bad)

    def test_benchmark_json_names(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        names = [w["name"] for w in bench["workloads"]]
        names += [e["name"] for e in bench["end_to_end"]]
        names += [e["name"] for e in bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(m.valid_metric_name(name), name)


class Spread(unittest.TestCase):
    def test_quartile_spread(self):
        self.assertAlmostEqual(m.quartile_spread([1.0] * 10), 0.0)
        self.assertGreater(m.quartile_spread([1, 2, 3, 4, 5]), 0.0)


if __name__ == "__main__":
    unittest.main()
