"""Tests of the benchmark's own metric extraction and checks.

  python3 -m unittest discover -s perfbench -p 'test_*.py'

Stdlib only; needs no build.  The records below are hand-made in the
shape perfbench_driver prints.
"""
import copy
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import extract  # noqa: E402
import run  # noqa: E402


def registry(now_ns, disk_busy, link_busy, cache_hits=0, attr=False):
    counters = {"sim.now_ns": now_ns, "cdd.remote_requests": 30,
                "cdd.local_requests": 10, "cache.hits": cache_hits,
                "cache.peer_hits": 2, "cache.misses": 8,
                "cache.evictions": 4, "cache.invalidations": 1}
    for i, busy in enumerate(disk_busy):
        counters["disk.%03d.busy_ns" % i] = busy
        counters["disk.%03d.reads" % i] = 5
        counters["disk.%03d.writes" % i] = 1
    for i, busy in enumerate(link_busy):
        counters["link.%03d.tx_busy_ns" % i] = busy
        counters["link.%03d.messages_sent" % i] = 7
        counters["link.%03d.bytes_sent" % i] = 7000
    if attr:
        counters["attr.read.count"] = 9
    return {"counters": counters, "gauges": {"cache.hit_ratio": 0.5},
            "histograms": {}}


def record(traced=False, driver_ns=2_000_000_000, offered=10, completed=10,
           slowdown=1):
    lanes = {name: 0 for name in extract.LANES}
    read_lanes = dict(lanes, **{"disk.service": 600, "ctl.service": 300})
    write_lanes = dict(lanes, **{"net.queue": 100})
    rec = {
        "workload": "mixed-256",
        "seed": 7,
        "traced": traced,
        "result": {"offered": offered, "completed": completed, "failed": 0,
                   "rejected": 0, "shed": 0, "cap_dropped": 0,
                   "bytes_completed": completed * 32768,
                   "peak_in_flight": 3, "remote_ops": 0, "start_ns": 0,
                   "window_ns": 1_000_000_000,
                   "foreground_end_ns": 1_000_000_000,
                   "drain_end_ns": 1_100_000_000, "lat_count": completed,
                   "lat_sum_ns": 1000, "lat_p50_ns": 90.0,
                   "lat_p99_ns": 110.0, "lat_p999_ns": 120.0},
        "engine": {"events": 500, "peak_pending": 12, "frames": 200,
                   "shard_events": [500], "windows": 0, "cross_msgs": 0,
                   "remote_sent": 0, "remote_failed": 0, "lock_records": 0},
        "registry": registry(2_000_000_000, [500_000_000, 1_000_000_000],
                             [200_000_000], cache_hits=10, attr=traced),
        "host": {"setup_ns": 1_000_000 * slowdown,
                 "driver_ns": driver_ns * slowdown,
                 "driver_cpu_ns": driver_ns * slowdown,
                 "teardown_ns": 5_000_000 * slowdown, "peak_rss_kb": 2048,
                 "calibration_ns": [int(extract.REFERENCE_SLICE_NS)
                                    * slowdown] * 10,
                 "spans": {"construct.cluster": 1000 * slowdown,
                           "driver": driver_ns * slowdown}},
        "trace_files": [],
    }
    if traced:
        rec["attribution"] = {
            "read": {"lane_ns": read_lanes, "count": 9, "total_ns": 900,
                     "aborted": 0, "aborted_ns": 0},
            "write": {"lane_ns": write_lanes, "count": 1, "total_ns": 100,
                      "aborted": 0, "aborted_ns": 0},
            "live_slots": 0,
        }
    return rec


def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class MetricNamesTest(unittest.TestCase):
    def test_units_match_benchmark_json(self):
        bench = benchmark_json()
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         extract.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         extract.PER_LAYER_UNITS)
        self.assertEqual(tuple(w["name"] for w in bench["workloads"]),
                         run.WORKLOADS)

    def test_extraction_yields_exactly_the_declared_metrics(self):
        self.assertEqual(set(extract.end_to_end([record()])),
                         set(extract.END_TO_END_UNITS))
        self.assertEqual(
            set(extract.per_layer([record(traced=True)], [record()])),
            set(extract.PER_LAYER_UNITS))


class AccountingTest(unittest.TestCase):
    def test_complete_record_passes(self):
        self.assertEqual(extract.check_accounting(record()), [])

    def test_missing_op_is_rejected(self):
        rec = record(offered=10, completed=9)
        errs = extract.check_accounting(rec)
        self.assertTrue(any("1 of 10 offered ops unaccounted" in e
                            for e in errs), errs)

    def test_shed_and_rejected_ops_count_as_accounted(self):
        rec = record(offered=12, completed=10)
        rec["result"]["shed"] = 1
        rec["result"]["rejected"] = 1
        self.assertEqual(extract.check_accounting(rec), [])
        self.assertEqual(extract.failed_ops(rec["result"]), 2)

    def test_short_closed_loop_transfer_is_rejected(self):
        rec = record()
        rec["result"]["bytes_expected"] = rec["result"]["bytes_completed"] + 1
        self.assertTrue(extract.check_accounting(rec))


class AttributionTest(unittest.TestCase):
    def test_reconciling_lanes_pass(self):
        self.assertEqual(extract.check_attribution(record(True), False), [])

    def test_lane_drift_is_rejected(self):
        rec = record(True)
        rec["attribution"]["read"]["lane_ns"]["disk.queue"] += 1
        self.assertTrue(extract.check_attribution(rec, False))

    def test_traced_and_untraced_runs_must_simulate_alike(self):
        self.assertEqual(
            extract.check_same_simulation([record(), record(True)]), [])
        drifted = record(True)
        drifted["registry"]["counters"]["disk.000.busy_ns"] += 1
        self.assertTrue(
            extract.check_same_simulation([record(), drifted]))


class ExtractionTest(unittest.TestCase):
    def test_same_snapshot_gives_same_numbers(self):
        traced, untraced = record(True), [record(), record(driver_ns=3)]
        first = extract.per_layer([traced], untraced, 2500.0)
        again = extract.per_layer([copy.deepcopy(traced)],
                                  copy.deepcopy(untraced), 2500.0)
        self.assertEqual(first, again)
        self.assertEqual(extract.end_to_end(untraced),
                         extract.end_to_end(copy.deepcopy(untraced)))

    def test_host_times_are_scaled_to_the_reference_host(self):
        # A host twice as slow takes twice as long for the workload and
        # for the calibration slices alike: the reported times agree.
        base = extract.end_to_end([record()])
        slow = extract.end_to_end([record(slowdown=2)])
        self.assertEqual(base, slow)
        self.assertAlmostEqual(base["host_us_per_req"], 2e9 / 10 / 1e3)
        self.assertEqual(
            extract.per_layer([record(True)], [record()]),
            extract.per_layer([record(True, slowdown=2)],
                              [record(slowdown=2)]))

    def test_values_from_the_snapshot(self):
        m = extract.per_layer([record(True)], [record()])
        self.assertAlmostEqual(m["disk.util_mean"], 0.375)
        self.assertAlmostEqual(m["disk.util_max"], 0.5)
        self.assertAlmostEqual(m["disk.ops_per_req"], 1.2)
        self.assertAlmostEqual(m["cache.hit_ratio"], 0.5)
        self.assertAlmostEqual(m["cdd.remote_per_req"], 3.0)
        self.assertAlmostEqual(m["disk.service_ms_per_req"], 600 / 1e6 / 10)
        # Ten samples leave fewer than ten beyond any percentile.
        self.assertEqual(m["sim_p50_ms"], 0.0)

    def test_percentiles_need_ten_samples_beyond(self):
        res = record()["result"]
        res["lat_count"] = 1000
        self.assertAlmostEqual(extract.latency_ms(res, 0.5), 90.0 / 1e6)
        self.assertAlmostEqual(extract.latency_ms(res, 0.99), 110.0 / 1e6)
        self.assertEqual(extract.latency_ms(res, 0.999), 0.0)

    def test_warm_pass_is_subtracted(self):
        rec = record(True)
        rec["registry_before"] = registry(1_000_000_000,
                                          [400_000_000, 500_000_000],
                                          [100_000_000], cache_hits=4)
        m = extract.per_layer([rec], [record()])
        self.assertAlmostEqual(m["disk.util_max"], 0.5)
        self.assertAlmostEqual(m["cache.hit_ratio"], 1.0)

    def test_sharded_counters_sum_over_groups(self):
        counters = {"shard.000.cdd.remote_requests": 3,
                    "shard.001.cdd.remote_requests": 4,
                    "sim.shard.windows": 9}
        self.assertEqual(extract.total(counters, "cdd.remote_requests"), 7)

    def test_knee_is_highest_rate_within_limit(self):
        def point(p99_ms, late_ns=0):
            rec = record()
            rec["result"]["lat_count"] = 5000
            rec["result"]["lat_p99_ns"] = p99_ms * 1e6
            rec["result"]["foreground_end_ns"] += late_ns
            return rec
        ladder = {500: point(20), 1000: point(60), 1500: point(99),
                  2000: point(50, late_ns=500_000_000), 2500: point(140)}
        self.assertEqual(extract.knee_ops(ladder), 1500.0)


class SpanSelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_child_union(self):
        events = [
            {"ph": "b", "name": "raid.write", "ts": 0.0,
             "args": {"span": 1, "parent": 0}},
            {"ph": "b", "name": "cdd.request", "ts": 10.0,
             "args": {"span": 2, "parent": 1}},
            {"ph": "X", "name": "disk.service", "ts": 20.0, "dur": 30.0,
             "args": {"span": 3, "parent": 2}},
            {"ph": "X", "name": "disk.service", "ts": 40.0, "dur": 20.0,
             "args": {"span": 4, "parent": 2}},
            {"ph": "e", "name": "cdd.request", "ts": 70.0,
             "args": {"span": 2}},
            {"ph": "e", "name": "raid.write", "ts": 100.0,
             "args": {"span": 1}},
        ]
        layers, roots = extract.span_self_times(events)
        self.assertEqual(roots, 1)
        # ms from Chrome's microseconds: raid 100-60, cdd 60-40, disk 50.
        self.assertAlmostEqual(layers["raid"], 0.040)
        self.assertAlmostEqual(layers["cdd"], 0.020)
        self.assertAlmostEqual(layers["disk"], 0.050)


if __name__ == "__main__":
    unittest.main()
