"""Arithmetic of the repository benchmark: percentiles, the traced-run
self-time attribution, and the metric definitions.

perfbench/loadgen.cc writes raw observations as JSON lines; this module
turns them into the metrics named in BENCHMARK.json. It is kept free of
I/O so test_benchlib.py can check every rule on hand-made inputs.
"""

import math
import statistics
from collections import defaultdict

# Percentile ladder the tail metric is chosen from, and the percentile fixed
# per workload: the highest rung with at least TAIL_MIN_BEYOND samples
# beyond it at the sample counts a run produces (see README.md).
LADDER = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)
TAIL_MIN_BEYOND = 10
TAIL = {"tpch_power": 0.75, "short_stmt": 0.99, "ingest_read": 0.95}

# A failed statement counts as missing every latency percentile: it sorts
# above every real latency. Reported values that land on it read MISSING_MS.
MISSING_MS = 1e9

# Kernel default vm.max_map_count, for the map-leak headroom metric.
MAX_MAP_COUNT = 65530

# Operator kinds (plan::NodeKind order) -> executor self-time metric.
NODE_KINDS = ["SeqScan", "ExternalScan", "Filter", "Project", "HashJoin",
              "HashAgg", "Sort", "Limit", "MotionSend", "MotionRecv",
              "Result", "Insert", "VirtualScan"]
KIND_LAYER = {
    "SeqScan": "executor.scan_self_us",
    "ExternalScan": "executor.scan_self_us",
    "VirtualScan": "executor.scan_self_us",
    "Filter": "executor.filter_project_self_us",
    "Project": "executor.filter_project_self_us",
    "HashJoin": "executor.hashjoin_self_us",
    "HashAgg": "executor.hashagg_self_us",
    "Sort": "executor.sort_self_us",
}
SCAN_KINDS = {0, 1, 12}

# The additive breakdown of a traced statement: these plus unattributed_us
# sum to traced_stmt_us, statement by statement.
ADDITIVE = [
    "sql.parse_us", "sql.analyze_us", "planner.plan_us",
    "engine.stmt_overhead_us", "engine.gang_start_us", "engine.dispatch_us",
    "interconnect.recv_wait_us", "interconnect.send_us",
    "executor.scan_self_us", "executor.filter_project_self_us",
    "executor.hashjoin_self_us", "executor.hashagg_self_us",
    "executor.sort_self_us", "executor.other_self_us", "unattributed_us",
]


def beyond(n, p):
    """Samples strictly beyond the nearest-rank p-th percentile of n."""
    return n - math.ceil(p * n)


def tail_rung(n, ladder=LADDER, min_beyond=TAIL_MIN_BEYOND):
    """Highest percentile in `ladder` with at least `min_beyond` samples
    beyond it, or None when even the lowest rung has too few."""
    ok = [p for p in ladder if beyond(n, p) >= min_beyond]
    return max(ok) if ok else None


def percentile(values, p):
    """Nearest-rank percentile; math.inf entries (failures) sort last."""
    if not values:
        return math.inf
    xs = sorted(values)
    return xs[max(0, math.ceil(p * len(xs)) - 1)]


def union_length(intervals, lo=-math.inf, hi=math.inf):
    """Length of the union of [start, end] intervals clipped to [lo, hi]."""
    segs = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in segs:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(span, children):
    """A span's duration minus the part of it its children cover. Children
    may overlap each other, nest, or stick out of the parent."""
    s, e = span
    return max(0.0, e - s) - union_length(children, s, e)


def split_covered(workers):
    """Splits the wall time the workers' spans cover into busy and waiting
    shares. `workers` holds (start, end, busy_density) per worker, density
    being the fraction of its span spent in operators or sending. At every
    instant the active workers are expected to keep min(1, sum of their
    densities) of a processor busy; that part goes to them in proportion to
    density, the rest in equal parts as waiting. Returns (busy, wait) lists;
    together they sum to the union of the spans."""
    busy = [0.0] * len(workers)
    wait = [0.0] * len(workers)
    points = sorted({t for s, e, _ in workers for t in (s, e)})
    for a, b in zip(points, points[1:]):
        active = [i for i, (s, e, _) in enumerate(workers) if s <= a and e >= b]
        if not active:
            continue
        dt = b - a
        dens = sum(workers[i][2] for i in active)
        busy_dt = dt * min(1.0, dens)
        for i in active:
            if dens > 0:
                busy[i] += busy_dt * workers[i][2] / dens
            wait[i] += (dt - busy_dt) / len(active)
    return busy, wait


def attribute(st):
    """Wall-clock breakdown of one traced statement (times in us).

    Client-thread steps (parse, analyze, plan, the Session::Execute overhead
    steps) count as measured. Inside the dispatch call, time before the
    first slice starts is engine.gang_start_us, time no slice covers is
    engine.dispatch_us, and the covered time goes to the slice workers by
    split_covered. A worker's busy share is divided over its operators'
    self times (from the per-operator counters) and its motion send time in
    proportion; its waiting share goes to its motion receive wait, and what
    its span holds beyond receive wait and busy time to unattributed_us, as
    does time between the client steps.
    """
    out = defaultdict(float)
    total = st["total"]
    if st.get("e2e"):
        out["unattributed_us"] = total
        return out
    out["sql.parse_us"] = st["parse"]
    out["sql.analyze_us"] = st["analyze"]
    out["planner.plan_us"] = st["plan"]
    out["engine.stmt_overhead_us"] = st["overhead"]
    d0, d1 = st["d0"], st["d1"]
    spans = [(sl, seg, max(s, d0), min(e, d1)) for sl, seg, s, e in st["spans"]]
    spans = [x for x in spans if x[3] > x[2]]
    first = min((x[2] for x in spans), default=d1)
    out["engine.gang_start_us"] = first - d0
    out["engine.dispatch_us"] = (
        self_time((d0, d1), [(x[2], x[3]) for x in spans]) - (first - d0))

    nodes = {}  # (node, segment) -> (kind, parent, slice, total_us)
    for nid, seg, kind, parent, sl, tot, _rows, _filt in st["nodes"]:
        nodes[(nid, seg)] = (kind, parent, sl, tot)
    child_total = defaultdict(float)
    for (nid, seg), (kind, parent, sl, tot) in nodes.items():
        if parent >= 0:
            child_total[(parent, seg)] += tot
    send = {(sl, seg): dur for sl, seg, dur in st["sends"]}

    comps = []  # per worker: busy components and receive wait (us)
    for sl, seg, s, e in spans:
        c = defaultdict(float)
        recv = 0.0
        for (nid, nseg), (kind, parent, nsl, tot) in nodes.items():
            if nsl != sl or nseg != seg:
                continue
            name = NODE_KINDS[kind] if kind < len(NODE_KINDS) else "?"
            self_us = max(0.0, tot - child_total[(nid, seg)])
            if name == "MotionSend":
                c["interconnect.send_us"] += max(
                    0.0, send.get((sl, seg), 0.0) - child_total[(nid, seg)])
            elif name == "MotionRecv":
                recv += self_us
            else:
                c[KIND_LAYER.get(name, "executor.other_self_us")] += self_us
        comps.append((c, recv))
    workers = []
    for (sl, seg, s, e), (c, recv) in zip(spans, comps):
        dur = e - s
        workers.append((s, e, min(1.0, sum(c.values()) / dur)))
    busy, wait = split_covered(workers)
    for (sl, seg, s, e), (c, recv), b, w in zip(spans, comps, busy, wait):
        work = sum(c.values())
        for k, v in c.items():
            if work > 0:
                out[k] += b * v / work
        idle = max(0.0, (e - s) - work)
        to_recv = w * min(1.0, recv / idle) if idle > 0 else 0.0
        out["interconnect.recv_wait_us"] += to_recv
        out["unattributed_us"] += w - to_recv
    client = st["parse"] + st["analyze"] + st["plan"] + st["overhead"] + (d1 - d0)
    out["unattributed_us"] += total - client
    return out


def make_result(correct, attempted, failed, metrics, units):
    """The benchmark's last output line: exactly correct, attempted, failed
    and metrics, each metric as {"value", "unit"} in BENCHMARK.json order.
    Non-finite values are left out rather than written as invalid JSON."""
    return {
        "correct": bool(correct),
        "attempted": max(1, int(attempted)),
        "failed": int(failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": u}
                    for k, u in units.items()
                    if k in metrics and math.isfinite(metrics[k])},
    }


def median(xs):
    return statistics.median(xs) if xs else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def latency_pool(lat, classes, phases):
    """Latencies (us) of `classes` from the first phase in `phases` that ran
    any of them, failures appended as math.inf."""
    for ph in phases:
        rows = [lat[(ph, c)] for c in classes if (ph, c) in lat]
        if rows:
            xs = []
            for r in rows:
                xs += r["us"] + [math.inf] * int(r["failed"])
            return xs
    return []


def ms(us):
    return MISSING_MS if math.isinf(us) else us / 1000.0


def chosen_attempt(records):
    """The measurement attempt to report: the one during which the least CPU
    time was stolen (the load generator repeats a measurement that lost more than a
    tenth of the machine to the hypervisor). Returns (attempt, steal share);
    (0, None) when the run made no attempts (traced runs)."""
    attempts = [r for r in records if r["t"] == "attempt"]
    if not attempts:
        return 0, None
    best = min(attempts, key=lambda r: r["cpu_steal_share"])
    return int(best["attempt"]), best["cpu_steal_share"]


def index(records):
    """Groups load-generator records by type; latency lines keyed by (phase, class).
    Latency and phase lines of attempts other than the chosen one are left
    out."""
    attempt, _ = chosen_attempt(records)
    ix = defaultdict(list)
    lat = {}
    for r in records:
        if r["t"] in ("lat", "phase") and r.get("attempt", 0) != attempt:
            continue
        ix[r["t"]].append(r)
        if r["t"] == "lat":
            lat[(r["phase"], r["cls"])] = r
    return ix, lat


def phase(ix, name):
    for p in ix["phase"]:
        if p["phase"] == name:
            return p
    return None


def e2e_metrics(workload, records):
    """The end-to-end metrics of an untraced run (name -> value)."""
    ix, lat = index(records)
    m = {}
    m["setup_s"] = median(ix["setup"][0]["setup_s"])
    timed = phase(ix, "timed")
    classes = [c for (ph, c) in lat if ph == "timed"]
    ok = sum(len(lat[("timed", c)]["us"]) for c in classes)
    m["throughput_qps"] = ratio(ok, timed["elapsed_s"])
    if workload == "ingest_read":
        # One INSERT plus the read after it: a 50/50 median of two
        # separated classes would jump between them from run to run.
        ins = latency_pool(lat, ["insert"], ["timed"])
        rd = latency_pool(lat, ["read"], ["timed"])
        stmts = [a + b for a, b in zip(ins, rd)]
    else:
        stmts = latency_pool(lat, classes, ["timed"])
    tail = TAIL[workload]
    m["stmt_p50_ms"] = ms(percentile(stmts, 0.5))
    m["stmt_tail_ms"] = ms(percentile(stmts, tail))
    for cls in ("master", "direct", "gang"):
        m[cls + "_p50_ms"] = ms(percentile(
            latency_pool(lat, [cls], ["timed", "probe"]), 0.5))
    src = timed if ("timed", "insert") in lat else phase(ix, "probe")
    m["ingest_rows_per_s"] = ratio(src["rows_committed"], src["elapsed_s"])
    m["insert_p50_ms"] = ms(percentile(
        latency_pool(lat, ["insert"], ["timed", "probe"]), 0.5))
    m["read_p50_ms"] = ms(percentile(
        latency_pool(lat, ["read"], ["timed", "probe"]), 0.5))
    m["stored_bytes_per_input_byte"] = ratio(ix["stored"][0]["stored_bytes"],
                                             ix["input"][0]["csv_bytes"])
    m["peak_rss_mb"] = ix["end"][0]["peak_rss_mb"]
    return m, {"tail_samples": len(stmts),
               "tail_rule_ok": beyond(len(stmts), tail) >= TAIL_MIN_BEYOND}


def layer_metrics(records):
    """The per-layer metrics of a traced run (name -> value), plus the
    largest per-statement gap between the breakdown and the statement."""
    ix, _ = index(records)
    m = {}
    traced = [r for r in ix["ts"] if r["ok"]]
    n = len(traced)
    sums = defaultdict(float)
    worst_gap = 0.0
    for st in traced:
        parts = attribute(st)
        gap = abs(sum(parts.values()) - st["total"])
        worst_gap = max(worst_gap, gap / max(st["total"], 1.0))
        for k in ADDITIVE:
            sums[k] += parts.get(k, 0.0)
    # Means, so the layers add up to the mean statement (medians do not add).
    for k in ADDITIVE:
        m[k] = ratio(sums[k], n)
    m["traced_stmt_us"] = ratio(sum(st["total"] for st in traced), n)

    full = [st for st in traced if not st.get("e2e")]
    m["planner.serialize_us"] = median([st["serialize"] for st in full])
    m["planner.plan_bytes_compressed"] = median([st["plan_bytes"] for st in full])
    m["planner.slices"] = median([st["slices"] for st in full])
    m["resource.mem_peak_bytes"] = median([st["mem_peak"] for st in full])
    scan_rows = scan_us = filtered = 0.0
    for st in full:
        child = defaultdict(float)
        for nid, seg, kind, parent, sl, tot, rows, filt in st["nodes"]:
            if parent >= 0:
                child[(parent, seg)] += tot
        for nid, seg, kind, parent, sl, tot, rows, filt in st["nodes"]:
            if kind in SCAN_KINDS:
                scan_rows += rows
                scan_us += max(0.0, tot - child[(nid, seg)])
                filtered += filt
    m["executor.scan_rows_per_s"] = ratio(scan_rows, scan_us / 1e6)
    m["executor.rf_filtered_ratio"] = ratio(filtered, filtered + scan_rows)

    c = ix["counters"][0]
    tphase = phase(ix, "traced")
    nst = tphase["statements"] if tphase else 0
    m["resource.admit_wait_us"] = ratio(c.get("resource.admit_wait_us.sum", 0), nst)
    m["resource.lock_wait_us"] = ratio(
        sum(v for k, v in c.items()
            if k.startswith("sync.lock_wait_us.") and k.endswith(".sum")), nst)
    m["resource.spill_bytes"] = c.get("resource.spill_bytes", 0)
    m["interconnect.bytes_per_stmt"] = ratio(c.get("interconnect.udp.data_bytes", 0), nst)
    m["interconnect.packets_per_stmt"] = ratio(c.get("interconnect.udp.data_packets", 0), nst)
    m["interconnect.acks_per_stmt"] = ratio(c.get("interconnect.udp.acks", 0), nst)
    m["interconnect.retransmits"] = c.get("interconnect.udp.retransmissions", 0)
    m["interconnect.status_queries"] = c.get("interconnect.udp.status_queries", 0)
    m["hdfs.bytes_read_per_stmt"] = ratio(c.get("hdfs.bytes_read", 0), nst)
    hits, misses = c.get("hdfs.locality_hits", 0), c.get("hdfs.locality_misses", 0)
    m["hdfs.locality_ratio"] = ratio(hits, hits + misses)
    m["hdfs.read_retries"] = c.get("hdfs.read_retries", 0)
    w = ix["written"][0] if ix["written"] else {"bytes": 0, "rows": 0}
    m["hdfs.bytes_written_per_row"] = ratio(w["bytes"], w["rows"])

    untraced = phase(ix, "untraced")
    per_stmt = ratio(untraced["maps_added"], untraced["statements"])
    m["resource.maps_per_kstmt"] = 1000 * per_stmt
    maps_now = untraced["maps_start"] + untraced["maps_added"]
    m["resource.stmts_to_map_limit"] = (
        ratio(MAX_MAP_COUNT - maps_now, per_stmt) if per_stmt > 0 else 0.0)

    p = ix["probe"][0]
    m["storage.decode_rows_per_s"] = p["decode_rows_per_s"]
    m["storage.encode_rows_per_s"] = p["encode_rows_per_s"]
    m["storage.zonemap_skip_ratio"] = p["zonemap_skip_ratio"]
    m["storage.blocks_per_table"] = p["blocks"]
    m["storage.codec_decompress_mb_s"] = p["codec_decompress_mb_s"]
    m["tx.commit_us"] = median(ix["commit"][-1]["commit_us"])

    setup = ix["setup"][0]
    m["tpch.gen_s"] = ix["input"][0]["gen_s"] if ix["input"] else 0.0
    m["tpch.load_s"] = median(setup["load_s"])
    m["tpch.analyze_s"] = median(setup["analyze_s"])
    q15 = ix["q15"][0] if ix["q15"] else {"runs": 0, "empty": 0}
    m["tpch.q15_empty_ratio"] = ratio(q15["empty"], q15["runs"])

    qps_u = ratio(untraced["statements"], untraced["elapsed_s"])
    qps_t = ratio(tphase["statements"], tphase["elapsed_s"])
    m["obs.trace_overhead"] = ratio(qps_u, qps_t) - 1.0 if qps_t else 0.0
    return m, {"traced_statements": n, "breakdown_worst_gap": worst_gap}
