"""Self-tests of the benchmark's own arithmetic (run: python3 perfbench/run.py
--selftest, or python3 -m unittest test_benchlib inside perfbench/)."""

import json
import math
import os
import unittest

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))


def spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


class TailRule(unittest.TestCase):
    def test_beyond_counts_samples_past_the_nearest_rank(self):
        self.assertEqual(benchlib.beyond(100, 0.9), 10)
        self.assertEqual(benchlib.beyond(99, 0.9), 9)
        self.assertEqual(benchlib.beyond(1000, 0.99), 10)

    def test_highest_rung_with_ten_beyond(self):
        self.assertEqual(benchlib.tail_rung(100), 0.9)
        self.assertEqual(benchlib.tail_rung(99), 0.75)
        self.assertEqual(benchlib.tail_rung(1000), 0.99)
        self.assertEqual(benchlib.tail_rung(10000), 0.999)
        self.assertIsNone(benchlib.tail_rung(19))

    def test_fixed_tails_hold_at_the_sample_counts_runs_produce(self):
        # tpch_power: at least three passes of 21 queries; short_stmt and
        # ingest_read: well over 1000 statements / 200 rounds per run.
        self.assertGreaterEqual(benchlib.tail_rung(63), benchlib.TAIL["tpch_power"])
        self.assertGreaterEqual(benchlib.tail_rung(1000), benchlib.TAIL["short_stmt"])
        self.assertGreaterEqual(benchlib.tail_rung(200), benchlib.TAIL["ingest_read"])

    def test_failures_sort_beyond_every_latency(self):
        xs = [1.0] * 9 + [math.inf]
        self.assertEqual(benchlib.percentile(xs, 0.9), 1.0)
        self.assertTrue(math.isinf(benchlib.percentile(xs, 0.95)))
        self.assertEqual(benchlib.ms(math.inf), benchlib.MISSING_MS)


class SelfTime(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        self.assertEqual(benchlib.self_time((0, 10), [(2, 5), (4, 8)]), 4)

    def test_nested_child_inside_another_child(self):
        self.assertEqual(benchlib.self_time((0, 10), [(2, 8), (3, 4)]), 4)

    def test_child_sticking_out_of_parent_is_clipped(self):
        self.assertEqual(benchlib.self_time((0, 10), [(-5, 2), (9, 20)]), 7)

    def test_no_children(self):
        self.assertEqual(benchlib.self_time((3, 10), []), 7)

    def test_split_covered_adds_up_to_the_union(self):
        workers = [(0, 10, 0.5), (5, 15, 1.0), (20, 22, 0.0)]
        busy, wait = benchlib.split_covered(workers)
        self.assertAlmostEqual(sum(busy) + sum(wait), 17)
        # [0,5): only worker 0, half busy.
        # [5,10): densities 0.5 + 1.0 saturate one processor.
        # [20,22): worker 2 only waits.
        self.assertAlmostEqual(busy[0], 2.5 + 5 * 0.5 / 1.5)
        self.assertAlmostEqual(wait[0], 2.5)
        self.assertAlmostEqual(busy[2], 0)
        self.assertAlmostEqual(wait[2], 2)

    def test_attribution_adds_up_to_the_statement(self):
        # One gang slice on two segments feeding the QD slice 0.
        st = {
            "total": 1000.0, "parse": 10.0, "analyze": 20.0, "plan": 30.0,
            "overhead": 40.0, "d0": 100.0, "d1": 900.0,
            "spans": [[0, -1, 150, 880], [1, 0, 160, 700], [1, 1, 170, 600]],
            "sends": [[1, 0, 500.0], [1, 1, 400.0]],
            # node, segment, kind, parent, slice, total_us, rows, filtered
            "nodes": [[0, -1, 5, -1, 0, 600.0, 5, 0],   # HashAgg
                      [1, -1, 9, 0, 0, 500.0, 10, 0],   # MotionRecv
                      [2, 0, 8, -1, 1, 0.0, 5, 0],      # MotionSend
                      [3, 0, 0, 2, 1, 300.0, 100, 7],   # SeqScan
                      [2, 1, 8, -1, 1, 0.0, 5, 0],
                      [3, 1, 0, 2, 1, 250.0, 90, 3]],
        }
        parts = benchlib.attribute(st)
        self.assertAlmostEqual(sum(parts.values()), 1000.0)
        self.assertAlmostEqual(parts["engine.gang_start_us"], 50.0)
        self.assertAlmostEqual(parts["engine.dispatch_us"], 800 - 50 - 730)
        self.assertGreater(parts["executor.scan_self_us"], 0)
        self.assertGreater(parts["interconnect.recv_wait_us"], 0)
        self.assertGreater(parts["interconnect.send_us"], 0)
        self.assertGreaterEqual(parts["unattributed_us"], 0)

    def test_end_to_end_only_statement_is_unattributed(self):
        parts = benchlib.attribute({"total": 55.0, "e2e": True})
        self.assertEqual(dict(parts), {"unattributed_us": 55.0})


def untraced_records(stored=400, csv=1000):
    def lat(ph, cls, us, failed=0):
        return {"t": "lat", "phase": ph, "cls": cls, "us": us,
                "failed": failed, "refused": 0}
    return [
        {"t": "setup", "setup_s": [3.0, 1.0, 2.0]},
        {"t": "input", "gen_s": 0.1, "csv_bytes": csv},
        lat("timed", "master", [50.0, 60.0, 70.0]),
        lat("timed", "gang", [3000.0, 4000.0]),
        lat("probe", "direct", [1000.0, 1200.0, 1100.0]),
        lat("probe", "insert", [2000.0]),
        lat("probe", "read", [3000.0]),
        {"t": "phase", "phase": "timed", "elapsed_s": 2.0, "statements": 5,
         "rows_committed": 0, "maps_start": 100, "maps_added": 5},
        {"t": "phase", "phase": "probe", "elapsed_s": 0.5, "rows_committed": 200},
        {"t": "stored", "stored_bytes": stored},
        {"t": "end", "ok": True, "attempted": 10, "failed": 0, "refused": 0,
         "peak_rss_mb": 12.5},
    ]


class Attempts(unittest.TestCase):
    def test_the_attempt_with_least_steal_is_reported(self):
        recs = untraced_records()
        retry = [dict(r, attempt=1) for r in recs if r["t"] in ("lat", "phase")]
        for r in retry:
            if r["t"] == "lat":
                r["us"] = [u * 2 for u in r["us"]]
        recs += retry + [{"t": "attempt", "attempt": 0, "cpu_steal_share": 0.5},
                         {"t": "attempt", "attempt": 1, "cpu_steal_share": 0.02}]
        self.assertEqual(benchlib.chosen_attempt(recs), (1, 0.02))
        m, _ = benchlib.e2e_metrics("short_stmt", recs)
        self.assertAlmostEqual(m["master_p50_ms"], 0.12)
        self.assertEqual(benchlib.chosen_attempt(untraced_records()), (0, None))


class Metrics(unittest.TestCase):
    def test_stored_bytes_per_input_byte_divides_by_csv_bytes(self):
        m, _ = benchlib.e2e_metrics("short_stmt", untraced_records(400, 1000))
        self.assertAlmostEqual(m["stored_bytes_per_input_byte"], 0.4)

    def test_end_to_end_values(self):
        m, _ = benchlib.e2e_metrics("short_stmt", untraced_records())
        self.assertEqual(m["setup_s"], 2.0)
        self.assertAlmostEqual(m["throughput_qps"], 2.5)
        self.assertAlmostEqual(m["master_p50_ms"], 0.06)
        self.assertAlmostEqual(m["direct_p50_ms"], 1.1)  # from the probe
        self.assertAlmostEqual(m["ingest_rows_per_s"], 400)

    def test_output_schema_round_trip(self):
        s = spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            units = {x["name"]: x["unit"] for x in s[key]}
            if trace:
                metrics = {name: 1.5 for name in units}
            else:
                metrics, _ = benchlib.e2e_metrics("short_stmt", untraced_records())
            res = benchlib.make_result(True, 10, 0, metrics, units)
            back = json.loads(json.dumps(res))
            self.assertEqual(set(back), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual(list(back["metrics"]), list(units))
            for name, v in back["metrics"].items():
                self.assertEqual(set(v), {"value", "unit"})
                self.assertEqual(v["unit"], units[name])
                self.assertEqual(v["value"], metrics[name])

    def test_every_declared_metric_is_computed(self):
        s = spec()
        e2e, _ = benchlib.e2e_metrics("short_stmt", untraced_records())
        self.assertEqual(set(e2e), {x["name"] for x in s["end_to_end"]})
        st = {"t": "ts", "cls": "gang", "ok": True, "total": 100.0, "parse": 1.0,
              "analyze": 2.0, "plan": 3.0, "overhead": 4.0,
              "d0": 10.0, "d1": 90.0, "serialize": 5.0, "plan_bytes": 300.0,
              "slices": 2.0, "mem_peak": 1000.0, "spans": [[0, -1, 20, 80]],
              "sends": [], "nodes": [[0, -1, 5, -1, 0, 30.0, 5, 0]]}
        records = untraced_records() + [
            st,
            {"t": "phase", "phase": "untraced", "elapsed_s": 1.0,
             "statements": 10, "maps_start": 100, "maps_added": 20},
            {"t": "phase", "phase": "traced", "elapsed_s": 1.0, "statements": 8},
            {"t": "counters", "hdfs.bytes_read": 800.0},
            {"t": "probe", "decode_rows_per_s": 1e6, "encode_rows_per_s": 2e6,
             "zonemap_skip_ratio": 0.5, "blocks": 8,
             "codec_decompress_mb_s": 100.0},
            {"t": "commit", "commit_us": [1.0, 2.0, 3.0]},
        ]
        records[0]["load_s"] = [0.3]
        records[0]["analyze_s"] = [0.2]
        layers, info = benchlib.layer_metrics(records)
        self.assertEqual(set(layers), {x["name"] for x in s["per_layer"]})
        self.assertLess(info["breakdown_worst_gap"], 1e-9)
        self.assertEqual(layers["resource.maps_per_kstmt"], 2000)
        self.assertEqual(layers["hdfs.bytes_read_per_stmt"], 100)
        self.assertAlmostEqual(layers["obs.trace_overhead"], 0.25)

    def test_additive_layers_are_all_declared(self):
        declared = {x["name"] for x in spec()["per_layer"]}
        self.assertLessEqual(set(benchlib.ADDITIVE), declared)
        self.assertIn("traced_stmt_us", declared)


if __name__ == "__main__":
    unittest.main()
