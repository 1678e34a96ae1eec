"""Tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import benchlib  # noqa: E402


def span(i, name, start, end, parent=-1):
    return {"id": i, "name": name, "start": start, "end": end,
            "parent": parent, "group": -1}


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        # n=1000: p99 leaves 10 beyond, p99.9 only 1.
        self.assertEqual(benchlib.tail_percentile(1000), (99.0, 1000))
        self.assertEqual(benchlib.tail_percentile(999), (90.0, 999))
        self.assertEqual(benchlib.tail_percentile(10000), (99.9, 10000))
        self.assertEqual(benchlib.tail_percentile(100), (90.0, 100))
        self.assertEqual(benchlib.tail_percentile(99), (50.0, 99))
        self.assertEqual(benchlib.tail_percentile(20), (50.0, 20))
        self.assertEqual(benchlib.tail_percentile(19), (None, 19))

    def test_samples_beyond(self):
        self.assertEqual(benchlib.beyond(1000, 99.0), 10)
        self.assertEqual(benchlib.beyond(1001, 99.0), 10)
        self.assertEqual(benchlib.beyond(115, 90.0), 11)

    def test_nearest_rank(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(xs, 50), 50)
        self.assertEqual(benchlib.percentile(xs, 90), 90)
        self.assertEqual(benchlib.percentile(xs, 99), 99)
        self.assertEqual(benchlib.percentile([7], 99), 7)
        self.assertEqual(benchlib.percentile([3, 1, 2], 50), 2)

    def test_serve_notes(self):
        # 30 cold samples: p50 leaves 15 beyond it, p90 only 3.
        raw = {"samples": {"warm_wall_ms": [i / 1e3 for i in range(1000)],
                           "cold_wall_s": [i / 1e3 for i in range(1, 31)],
                           "round_s": [1.0]},
               "values": {"loop_requests": 10}}
        notes = " ".join(benchlib.serve_tail_notes(raw))
        self.assertIn("rtt_cold: n=30, p50 = 15 ms; highest percentile with "
                      ">=10 samples beyond it: p50 = 15 ms", notes)
        self.assertIn("rtt_warm: n=1000, p50 = 499 us; highest percentile "
                      "with >=10 samples beyond it: p99 = 989 us", notes)
        self.assertIn("req_per_s: 10 requests/s", notes)
        raw["samples"]["cold_wall_s"] = [1.0] * 19
        self.assertIn("fewer than 20 samples",
                      " ".join(benchlib.serve_tail_notes(raw)))


class SpanSelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [span(0, "root", 0.0, 10.0),
                 span(1, "a", 1.0, 3.0, parent=0),
                 span(2, "b", 5.0, 6.5, parent=0),
                 span(3, "leaf", 1.5, 2.0, parent=1)]
        own = benchlib.self_times(spans)
        self.assertAlmostEqual(own[0], 10.0 - 2.0 - 1.5)
        self.assertAlmostEqual(own[1], 2.0 - 0.5)
        self.assertAlmostEqual(own[2], 1.5)
        self.assertAlmostEqual(own[3], 0.5)

    def test_overlap_counted_once_and_clipped(self):
        spans = [span(0, "root", 0.0, 4.0),
                 span(1, "a", 1.0, 3.0, parent=0),
                 span(2, "b", 2.0, 5.0, parent=0)]  # overlaps a, ends late
        self.assertAlmostEqual(benchlib.self_times(spans)[0], 1.0)

    def test_grouped_by_name(self):
        spans = [span(0, "root", 0.0, 3.0),
                 span(1, "x", 0.0, 1.0, parent=0),
                 span(2, "x", 1.0, 3.0, parent=0)]
        by = benchlib.self_by_name(spans)
        self.assertEqual(sorted(by["x"]), [1.0, 2.0])
        self.assertAlmostEqual(by["root"][0], 0.0)


class ThreadBudget(unittest.TestCase):
    def test_host_threads(self):
        w = benchlib.WORKLOADS
        self.assertEqual(benchlib.host_threads(w["paging-S"]), 4)
        self.assertEqual(benchlib.host_threads(w["serve-mix"]), 4)
        grid = {"mode": "sweep", "workers": 1, "threads": [1, 2, 4]}
        self.assertEqual(benchlib.host_threads(grid), 4)

    def test_refusal(self):
        w = benchlib.WORKLOADS["paging-S"]
        self.assertIsNone(benchlib.budget_error("paging-S", w, 4))
        why = benchlib.budget_error("paging-S", w, 3)
        self.assertIn("needs 4 host threads", why)
        why = benchlib.budget_error("serve-mix", benchlib.WORKLOADS["serve-mix"], 2)
        self.assertIn("daemon + client", why)

    def test_run_py_refuses_before_building(self):
        if not hasattr(os, "sched_setaffinity"):
            self.skipTest("needs sched_setaffinity")
        with tempfile.TemporaryDirectory() as empty:
            proc = subprocess.run(
                ["taskset", "-c", "0", sys.executable, str(HERE.parent / "run.py"),
                 "--workload", "paging-S", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=empty, capture_output=True, text=True)
        self.assertEqual(proc.returncode, 3, proc.stderr)
        self.assertIn("refusing to run", proc.stderr)
        self.assertEqual(proc.stdout, "")


class MetricNames(unittest.TestCase):
    """Every metric BENCHMARK.json names is one benchlib can produce, with
    the same unit, and nothing else is produced."""

    def setUp(self):
        path = HERE.parent.parent / "BENCHMARK.json"
        self.bench = json.loads(path.read_text())

    def declared(self, key):
        return {m["name"]: m["unit"] for m in self.bench[key]}

    def traced_raw(self):
        values = {name: 1.0 for name in benchlib.VALUE_UNITS}
        values.update(warm_points=4, warm_hits=3)
        samples = {key: [1.0] for key, _ in benchlib.SAMPLE_UNITS.values()}
        samples.update(traced_wall_s=[3.0], untraced_wall_s=[2.0])
        spans = [span(0, "bench.layers", 0.0, 10.0)] + [
            span(i + 1, name, i, i + 0.5, parent=0) for i, name in
            enumerate(["npb.numerics", "core.runtime_ctor"])]
        return {"samples": samples, "values": values}, spans

    def test_per_layer(self):
        raw, spans = self.traced_raw()
        got = benchlib.per_layer(raw, spans)
        self.assertEqual({k: u for k, (_, u) in got.items()},
                         self.declared("per_layer"))
        self.assertEqual(got["exec.warm_hit_frac"], (0.75, "ratio"))
        self.assertEqual(got["bench.tracing_overhead"], (1.5, "ratio"))
        self.assertEqual(got["bench.self_s"], (9.0, "s"))

    def test_missing_layer_metric_is_an_error(self):
        raw, spans = self.traced_raw()
        del raw["values"]["trace.replay_s"]
        with self.assertRaises(KeyError):
            benchlib.per_layer(raw, spans)

    def test_end_to_end(self):
        # Every workload reports every end-to-end metric.
        samples = {"setup_s": [1.0], "cold_wall_s": [1.0, 4.0, 2.0],
                   "warm_wall_ms": [1.0] * 1000, "rss_mb": [3.0, 9.0, 2.0],
                   "round_s": [2.0]}
        raw = {"samples": samples, "values": {"loop_requests": 10}}
        for mode in ("sweep", "serve"):
            samples["cold_wall_s"] = [1.0, 4.0, 2.0] * 40
            metrics, _ = benchlib.end_to_end(mode, raw)
            self.assertEqual({k: u for k, (_, u) in metrics.items()},
                             self.declared("end_to_end"))
            self.assertEqual(metrics["peak_rss_mb"], (3.0, "MB"))
            self.assertEqual(metrics["cold_wall_s"], (2.0, "s"))
            self.assertNotIn("warm_wall_ms", metrics)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(benchlib.WORKLOADS))


class ResultLine(unittest.TestCase):
    def test_failures_make_it_incorrect(self):
        raw = {"attempted": 10, "failed": 1}
        line = benchlib.result_line(raw, {"setup_s": (0.5, "s")})
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertFalse(line["correct"])
        self.assertEqual(line["metrics"]["setup_s"], {"value": 0.5, "unit": "s"})


if __name__ == "__main__":
    unittest.main()
