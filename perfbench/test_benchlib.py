"""Tests of the benchmark's own logic (no build needed):

    python3 -m unittest discover -s perfbench -p 'test_benchlib.py'
"""

import json
import os
import unittest

import benchlib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def city_sim(**kw):
    sim = {"pings_sent": 10, "pings_ok": 6, "pings_failed": 2,
           "probes_sent": 120, "probes_ok": 100, "probes_failed": 10,
           "probe_rtt_ns": [i * 1_000_000 for i in range(1, 101)],
           "payload_bytes": 32, "sim_ns": 60_000_000_000, "events": 5}
    sim.update(kw)
    return sim


def repeat(sim, run_s=1.0):
    return {"sim": sim, "run_s": run_s, "setup_s": [0.1, 0.2, 0.3],
            "peak_rss_mb": 10.0}


class PercentileChoice(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(benchlib.tail_percentile(10_000), 99.9)
        self.assertEqual(benchlib.tail_percentile(1_000), 99.0)
        self.assertEqual(benchlib.tail_percentile(999), 95.0)
        self.assertEqual(benchlib.tail_percentile(200), 95.0)
        self.assertEqual(benchlib.tail_percentile(100), 90.0)
        self.assertEqual(benchlib.tail_percentile(99), 75.0)
        self.assertEqual(benchlib.tail_percentile(20), 50.0)
        self.assertIsNone(benchlib.tail_percentile(19))
        self.assertIsNone(benchlib.tail_percentile(0))

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 90), 90)
        self.assertEqual(benchlib.percentile(list(reversed(values)), 90), 90)
        self.assertEqual(benchlib.percentile([7], 99), 7)
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)

    def test_run_fails_when_p90_is_unsupported(self):
        sim = city_sim(probes_ok=99, probe_rtt_ns=list(range(99)))
        self.assertTrue(any("p90" in p for p in benchlib.check("city", [repeat(sim)])))
        self.assertEqual(benchlib.check("city", [repeat(city_sim())]), [])


class PingAccounting(unittest.TestCase):
    def test_resolved_and_in_flight(self):
        acct = benchlib.PingAccount(sent=10, ok=6, failed=2)
        self.assertEqual(acct.resolved, 8)
        self.assertEqual(acct.in_flight, 2)
        self.assertAlmostEqual(acct.delivery_ratio(), 0.75)
        self.assertEqual(acct.problems(), [])

    def test_in_flight_pings_are_not_failures(self):
        sim = city_sim()
        attempted, failed = benchlib.operations("city", sim)
        self.assertEqual(attempted, 130)
        self.assertEqual(failed, 0)
        # 106 answered of 118 resolved; 12 still in flight do not count.
        self.assertAlmostEqual(
            benchlib.end_to_end_sim("city", sim)["delivery_ratio"], 106 / 118)

    def test_inconsistent_counters(self):
        self.assertIn("more pings resolved than sent",
                      benchlib.PingAccount(3, 2, 2).problems())
        self.assertIn("no ping resolved", benchlib.PingAccount(3, 0, 0).problems())

    def test_bulk_transfer_failures(self):
        sim = {"transfers": 2, "transfers_ok": 1}
        self.assertEqual(benchlib.operations("bulk", sim), (2, 1))

    def test_repeats_must_agree(self):
        a, b = city_sim(), city_sim(events=6)
        self.assertIn("simulated outputs differ across repeats of one seed",
                      benchlib.check("city", [repeat(a), repeat(b)]))


class LayerTimes(unittest.TestCase):
    def traced(self, run_s, parts_ms):
        host = {"sim.step_ns_p50": 1, "sim.step_ns_p99": 2,
                "bench.api_host_ms": 0.5}
        for name, ms in zip(benchlib.LAYER_TIME_METRICS, parts_ms):
            host[name] = ms
        return {"sim": city_sim(), "run_s": run_s, "host": host, "layer": {}}

    def test_layers_sum_to_traced_total(self):
        parts = [100.0, 0.0, 250.5, 49.5, 0.0, 300.0, 0.0, 0.0, 300.0]
        sim = city_sim()
        self.assertEqual(
            benchlib.check("city", [repeat(sim)], self.traced(1.0, parts)), [])
        # The run's own clock reads a little more than its step spans.
        self.assertIsNone(benchlib.layer_sum_problem(self.traced(1.0004, parts)))

    def test_missing_time_is_reported(self):
        parts = [100.0, 0.0, 250.5, 49.5, 0.0, 300.0, 0.0, 0.0, 290.0]
        problems = benchlib.check("city", [repeat(city_sim())],
                                  self.traced(1.0, parts))
        self.assertTrue(any("layer host times" in p for p in problems))

    def test_run_time_disagreeing_with_layers_is_reported(self):
        parts = [100.0, 0.0, 250.5, 49.5, 0.0, 300.0, 0.0, 0.0, 300.0]
        self.assertIsNotNone(benchlib.layer_sum_problem(self.traced(1.2, parts)))
        self.assertIsNotNone(benchlib.layer_sum_problem(self.traced(0.9, parts)))

    def test_overhead_ratio(self):
        parts = [1000.0] + [0.0] * 8
        values = benchlib.per_layer([repeat(city_sim(), 0.5)],
                                    self.traced(1.0, parts))
        self.assertAlmostEqual(values["trace.overhead_ratio"], 2.0)
        self.assertAlmostEqual(values["trace.run_s"], 1.0)
        self.assertAlmostEqual(values["radio.host_ms"], 1000.0)


class MetricNames(unittest.TestCase):
    def test_names_match_pattern(self):
        for name in list(benchlib.END_TO_END) + list(benchlib.PER_LAYER):
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertTrue(benchlib.valid_metric_name(name), name)
        for bad in ("", "run s", "rtt/p90", "-lead", "x" * 65):
            self.assertFalse(benchlib.valid_metric_name(bad), bad)

    def test_benchmark_json_matches_tables(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
        layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
        self.assertEqual(e2e, benchlib.END_TO_END)
        self.assertEqual(layer, benchlib.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         benchlib.GATED_WORKLOADS)
        self.assertTrue(set(benchlib.GATED_WORKLOADS) <= set(benchlib.WORKLOADS))

    def test_result_reports_every_metric_with_unit(self):
        values = benchlib.end_to_end("city", [repeat(city_sim())])
        out = benchlib.result(values, benchlib.END_TO_END, True, 1, 0)
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(out["metrics"]), set(benchlib.END_TO_END))
        self.assertEqual(out["metrics"]["rtt_p90_ms"], {"value": 90.0, "unit": "ms"})
        self.assertEqual(out["metrics"]["setup_s"]["value"], 0.2)


if __name__ == "__main__":
    unittest.main()
