"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

The smoke test builds the repository and runs every workload once at
minimal size with all output checks on (about a minute after a build).
"""

import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import proc  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def span(sid, parent, name, start, end, request=0):
    return [sid, parent, request, name, start, end]


class SampleSummaries(unittest.TestCase):
    def test_top_percentile_needs_ten_samples_beyond_it(self):
        self.assertIsNone(stats.top_percentile(19))
        self.assertEqual(stats.top_percentile(20), 50.0)
        self.assertEqual(stats.top_percentile(99), 50.0)
        self.assertEqual(stats.top_percentile(100), 90.0)
        self.assertEqual(stats.top_percentile(1000), 99.0)
        self.assertEqual(stats.top_percentile(10000), 99.9)

    def test_summary_reports_count_quartiles_and_top_percentile(self):
        s = stats.summarize(range(1, 101))
        self.assertEqual((s["n"], s["median"]), (100, 50.5))
        self.assertLess(s["q1"], s["median"])
        self.assertGreater(s["q3"], s["median"])
        self.assertAlmostEqual(s["p90"], 90.1)
        self.assertNotIn("p90", stats.summarize(range(30)))
        self.assertEqual(stats.summarize([2.5])["median"], 2.5)

    def test_percentile_interpolates_between_ranks(self):
        self.assertEqual(stats.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(stats.percentile([7], 90), 7)

    def test_best_averages_each_inputs_best_sample(self):
        self.assertEqual(stats.best([[3.0, 1.0, 2.0], [10.0, 12.0]]), 5.5)
        self.assertEqual(stats.best([[3.0, 1.0, 2.0], [10.0, 12.0]], higher=True), 7.5)
        self.assertEqual(stats.best([]), 0.0)

    def test_a_run_keeps_inputs_apart_for_best_and_pools_them_for_summaries(self):
        r = workloads.Run("vex", "replay", ".", 1, 0, False, "smoke")
        for key, value in [("a", 1.0), ("b", 4.0), ("a", 2.0), ("b", 3.0), ("a", 9.0)]:
            r.add("wall_s", value, key)
        self.assertEqual(r.best("wall_s"), 2.0)
        self.assertEqual(r.best("wall_s", higher=True), 6.5)
        self.assertEqual(r.median("wall_s"), 3.0)
        self.assertEqual(sorted(r.values("wall_s")), [1.0, 2.0, 3.0, 4.0, 9.0])
        self.assertEqual(run.end_to_end(r, "wall_s", "lower"), 2.0)
        self.assertEqual(run.end_to_end(r, "cached_s", "lower"), 0.0)

    def test_setup_time_is_the_median_of_its_probes(self):
        r = workloads.Run("vex", "replay", ".", 1, 0, False, "smoke")
        for value in (0.3, 0.1, 0.2, 0.9):
            r.add("setup_s", value)
        self.assertAlmostEqual(run.end_to_end(r, "setup_s", "lower"), 0.25)

    def test_spread_is_the_interquartile_range_over_the_median(self):
        self.assertEqual(stats.spread([10.0] * 10), 0.0)
        self.assertAlmostEqual(stats.spread([9, 10, 11, 9, 10, 11, 9, 10, 11, 10]), 0.2)


class SelfTimes(unittest.TestCase):
    def test_nested_children_are_subtracted_once(self):
        spans = [
            span(0, -1, "run", 0, 100),
            span(1, 0, "compile", 10, 40),
            span(2, 1, "decode", 20, 30),
            span(3, 0, "engine.run", 50, 90),
        ]
        self.assertEqual(stats.self_times(spans), {0: 30, 1: 20, 2: 10, 3: 40})

    def test_overlapping_children_count_their_union(self):
        spans = [
            span(0, -1, "run", 0, 100),
            span(1, 0, "compile", 10, 40),
            span(2, 0, "decode", 30, 60),
        ]
        self.assertEqual(stats.self_times(spans)[0], 50)

    def test_children_are_clipped_to_their_parent(self):
        spans = [span(0, -1, "run", 0, 10), span(1, 0, "compile", 5, 20)]
        self.assertEqual(stats.self_times(spans)[0], 5)


class Ledger(unittest.TestCase):
    def test_layers_plus_unaccounted_equal_the_traced_total(self):
        spans = [
            span(0, -1, "run", 0, 1000),
            span(1, 0, "request", 0, 600, 1),
            span(2, 1, "spec.parse", 10, 30, 1),
            span(3, 1, "spec.print", 30, 40, 1),
            span(4, 1, "spec.expand", 40, 50, 1),
            span(5, 1, "engine.run", 100, 500, 1),
            span(6, 0, "emit", 700, 800),
        ]
        layers, total, calls = stats.layer_ledger(spans)
        self.assertEqual(total, 1000)
        self.assertEqual(layers["spec.parse_s"], 20)
        self.assertEqual(layers["spec.expand_s"], 20)
        self.assertEqual(layers["engine.run_s"], 400)
        self.assertEqual(layers["emit.s"], 100)
        self.assertEqual(layers["unaccounted_s"], 1000 - 20 - 20 - 400 - 100)
        self.assertEqual(sum(layers.values()), total)
        self.assertEqual(calls["spec.parse"], 1)

    def test_a_child_outside_its_parent_breaks_the_identity(self):
        spans = [span(0, -1, "run", 0, 10), span(1, 0, "compile", 5, 20)]
        with self.assertRaises(ValueError):
            stats.layer_ledger(spans)

    def test_a_span_without_a_layer_is_refused(self):
        with self.assertRaises(ValueError):
            stats.layer_ledger([span(0, -1, "mystery", 0, 10)])

    def test_every_self_time_metric_is_a_per_layer_metric(self):
        names = {m for m, _, _ in run.PER_LAYER}
        self.assertTrue(set(stats.LAYER_OF_SPAN.values()) <= names)


class Checks(unittest.TestCase):
    def test_mask_wall_zeroes_every_wall_time(self):
        text = '{"wall_secs": 0.013370}, {"wall_secs": 1.5}'
        self.assertEqual(workloads.mask_wall(text), '{"wall_secs": 0.000000}, {"wall_secs": 0.000000}')

    def test_attribution_must_match_the_untraced_statistics(self):
        want = {"cycles": 10, "empty_cycles": 2, "merged_cycles": 3, "memport_stall_cycles": 0,
                "split_instructions": [1, 0], "split_parts": [2, 0]}
        attr = {"total_cycles": 10, "issue_cycles": 8, "merged_cycles": 3, "memport_cycles": 0,
                "threads": [
                    {"thread": 0, "total": 10, "bins": {"issue": 6, "dmiss": 4},
                     "split_instructions": 1, "split_parts": 2},
                    {"thread": 1, "total": 10, "bins": {"issue": 5, "retired": 5},
                     "split_instructions": 0, "split_parts": 0}]}
        path = os.path.join(os.environ.get("TMPDIR", "/tmp"), "perfbench-attr-%d.json" % os.getpid())
        try:
            for mutate, ok in [(lambda a: None, True),
                               (lambda a: a["threads"][1]["bins"].update(retired=4), False),
                               (lambda a: a.update(merged_cycles=2), False),
                               (lambda a: a["threads"][0].update(split_instructions=0), False)]:
                doc = json.loads(json.dumps(attr))
                mutate(doc)
                with open(path, "w") as f:
                    json.dump(doc, f)
                self.assertEqual(workloads.check_attribution(path, want) is None, ok)
        finally:
            os.remove(path)

    def test_inputs_follow_the_seed(self):
        self.assertEqual(workloads.derive(7, 1), workloads.derive(7, 1))
        self.assertNotEqual(workloads.derive(7, 1), workloads.derive(8, 1))
        self.assertNotEqual(workloads.derive(7, 1), workloads.derive(7, 2))


class PeakRss(unittest.TestCase):
    def test_the_replay_does_not_count_toward_peak_rss(self):
        with tempfile.TemporaryDirectory() as work:
            replay = os.path.join(work, "replay")
            with open(replay, "w") as f:
                f.write("#!/bin/sh\nexec %s -c 'b = bytearray(b\"x\") * (64 << 20)'\n"
                        % sys.executable)
            os.chmod(replay, 0o755)
            r = workloads.Run(shutil.which("true"), replay, work, 1, 0, False, "smoke")
            self.assertIsNotNone(r.vex([], "vex"))
            done = r.replay([], "replay")
            self.assertIsNotNone(done)
            self.assertGreaterEqual(done.rss_mb, 64)
            self.assertGreater(r.rss_mb, 0)
            self.assertLess(r.rss_mb, 32)
            self.assertEqual((r.attempted, r.failures), (2, []))


class Connections(unittest.TestCase):
    def test_an_established_connection_is_seen_from_either_port(self):
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            port = listener.getsockname()[1]
            self.assertFalse(proc.tcp_established(port))
            with socket.create_connection(("127.0.0.1", port)) as client:
                self.assertTrue(proc.tcp_established(port))
                self.assertTrue(proc.tcp_established(client.getsockname()[1]))
                self.assertFalse(proc.tcp_established(port, socket.AF_INET6))


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_what_the_benchmark_reports(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual(bench["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(bench["paths"], ["perfbench"])
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         run.PER_LAYER)


class Smoke(unittest.TestCase):
    def test_every_workload_runs_clean_at_minimal_size(self):
        done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                              cwd=run.ROOT, capture_output=True, text=True, timeout=1800)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)


if __name__ == "__main__":
    unittest.main()
