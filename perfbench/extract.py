"""Metrics and correctness checks over the driver's raw records.

Pure functions, no I/O: run.py feeds them the JSON records that
perfbench_driver prints (one per repetition), and the tests feed them
fixtures.  BENCHMARK.json lists every metric with its unit; see
perfbench/README.md for what each one measures and which end-to-end
metric it should move.
"""
import re
from statistics import mean, median

# Lane names as obs::lane_name() prints them.
LANES = ("ctl.service", "ctl.queue", "cache.service", "cdd.queue",
         "cdd.service", "net.queue", "net.service", "disk.queue",
         "disk.service")

# The latency limit and fixed rate ladder of sim_knee_ops (zipf-read-cache).
KNEE_P99_LIMIT_MS = 100.0
KNEE_LADDER_OPS = (500, 1000, 1500, 2000, 2500, 3000, 3500)
KNEE_LADDER_SECONDS = 10.0
# A ladder point has a growing backlog when its last completion lands more
# than this share of the arrival window after the window closes.
KNEE_MAX_OVERRUN_FRAC = 0.05

# A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

# Host times are reported as on a reference host that runs one of
# perfbench_driver's calibration slices in this time.  The 4-core Xeon VM
# of README.md takes 16-23 ms, depending on its neighbours.
REFERENCE_SLICE_NS = 20e6

_SHARD_KEY = re.compile(r"^shard\.\d{3}\.")

# Every metric the benchmark reports, with its unit, in print order.
# BENCHMARK.json lists the same names and units (a test holds them equal).
END_TO_END_UNITS = {
    "setup_s": "s",
    "host_us_per_req": "us",
    "peak_rss_mb": "MB",
    "sim_mbs": "MB/s",
}
PER_LAYER_UNITS = {
    "sim.events_per_req": "count",
    "sim.host_ns_per_event": "ns",
    "sim.frames_per_req": "count",
    "sim.peak_pending": "count",
    "sim.teardown_s": "s",
    "shard.windows_per_sim_s": "1/s",
    "shard.cross_msgs_per_req": "count",
    "shard.cpu_per_wall": "ratio",
    "shard.event_imbalance": "ratio",
    "load.peak_in_flight": "count",
    "load.drain_overrun_ms": "ms",
    "sim_p50_ms": "ms",
    "sim_p99_ms": "ms",
    "sim_p999_ms": "ms",
    "sim_latency_samples": "count",
    "sim_knee_ops": "1/s",
    "raid.ctl_queue_ms_per_req": "ms",
    "raid.ctl_service_ms_per_req": "ms",
    "raid.foreground_mbs": "MB/s",
    "raid.sustained_mbs": "MB/s",
    "cache.hit_ratio": "ratio",
    "cache.peer_hit_ratio": "ratio",
    "cache.evictions_per_req": "count",
    "cache.invalidations_per_write": "count",
    "cache.service_ms_per_req": "ms",
    "cdd.remote_per_req": "count",
    "cdd.local_per_req": "count",
    "cdd.queue_ms_per_req": "ms",
    "cdd.service_ms_per_req": "ms",
    "cdd.lock_records": "count",
    "net.msgs_per_req": "count",
    "net.bytes_per_req": "B",
    "net.tx_util_max": "ratio",
    "net.queue_ms_per_req": "ms",
    "net.service_ms_per_req": "ms",
    "disk.ops_per_req": "count",
    "disk.util_mean": "ratio",
    "disk.util_max": "ratio",
    "disk.queue_ms_per_req": "ms",
    "disk.service_ms_per_req": "ms",
    "remote.sent": "count",
    "remote.failed": "count",
    "obs.trace_overhead_frac": "ratio",
    "host.construct_cluster_s": "s",
    "host.construct_cdd_s": "s",
    "host.construct_cache_s": "s",
    "host.construct_engine_s": "s",
    "host.construct_load_s": "s",
    "host.warm_s": "s",
    "host.driver_s": "s",
    "host.collect_s": "s",
}


# --- registry snapshots -------------------------------------------------

def total(delta, name):
    """`name` summed over the bare key and every "shard.NNN." copy (the
    sharded federation folds each group's registry under that prefix)."""
    return sum(v for k, v in delta.items()
               if k == name or (_SHARD_KEY.match(k)
                                and _SHARD_KEY.sub("", k) == name))


def counter_delta(record):
    """Counters accumulated by the measured phase only (after any warm
    pass), from the snapshots taken before and after it."""
    after = record["registry"]["counters"]
    before = record.get("registry_before", {}).get("counters", {})
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _per_resource(delta, kind, field):
    """{resource prefix: value} for keys like [shard.NNN.]disk.NNN.busy_ns."""
    pat = re.compile(r"^((?:shard\.\d{3}\.)?)%s\.\d{3}\.%s$" % (kind, field))
    return {k[: -len(field) - 1]: v for k, v in delta.items() if pat.match(k)}


def _sim_seconds(delta):
    """Measured-phase simulated time of the longest-running shard."""
    return max(v for k, v in delta.items()
               if _SHARD_KEY.sub("", k) == "sim.now_ns") / 1e9


def _sim_elapsed_ns(delta, resource):
    """Measured-phase simulated time of the shard that owns `resource`."""
    m = _SHARD_KEY.match(resource)
    return delta[(m.group(0) if m else "") + "sim.now_ns"]


def utilizations(delta, kind, field):
    busy = _per_resource(delta, kind, field)
    return [v / _sim_elapsed_ns(delta, r) for r, v in busy.items()]


def speed_factor(record):
    """Scales one process's host times to the reference host: the
    reference slice time over the median of the calibration slices the
    process timed around its measured phase."""
    return REFERENCE_SLICE_NS / median(record["host"]["calibration_ns"])


def host_ns(record, key):
    """A host time of `record` in ns, scaled to the reference host."""
    return record["host"][key] * speed_factor(record)


def span_ns(record, span):
    """A benchmark span's host time in ns, scaled to the reference host."""
    return record["host"]["spans"].get(span, 0) * speed_factor(record)


# --- correctness gate ---------------------------------------------------

def unaccounted(result):
    """Offered ops that no outcome bucket claims (0 when all accounted)."""
    outcomes = sum(result.get(k, 0) for k in
                   ("completed", "failed", "rejected", "shed", "cap_dropped"))
    return result["offered"] - outcomes


def failed_ops(result):
    return sum(result.get(k, 0) for k in
               ("failed", "rejected", "shed", "cap_dropped"))


def check_accounting(record):
    res = record["result"]
    errs = []
    missing = unaccounted(res)
    if missing != 0:
        errs.append("%d of %d offered ops unaccounted for"
                    % (missing, res["offered"]))
    if res["lat_count"] != res["completed"]:
        errs.append("latency samples %d != completed %d"
                    % (res["lat_count"], res["completed"]))
    expected = res.get("bytes_expected", res["bytes_completed"])
    if res["bytes_completed"] != expected:
        errs.append("moved %d bytes, expected %d"
                    % (res["bytes_completed"], expected))
    return errs


def check_attribution(record, sharded):
    """The lanes partition each request's time exactly: per type, the lane
    sums equal the completed plus aborted totals; every completed request
    is folded in once; and (single simulation) the completed total equals
    the latency histogram's sum."""
    attr = record["attribution"]
    res = record["result"]
    errs = []
    for kind in ("read", "write"):
        t = attr[kind]
        lanes = sum(t["lane_ns"][lane] for lane in LANES)
        if lanes != t["total_ns"] + t["aborted_ns"]:
            errs.append("%s lanes sum %d != total %d + aborted %d"
                        % (kind, lanes, t["total_ns"], t["aborted_ns"]))
    count = attr["read"]["count"] + attr["write"]["count"]
    if count != res["completed"]:
        errs.append("attributed %d requests, completed %d"
                    % (count, res["completed"]))
    attributed_ns = attr["read"]["total_ns"] + attr["write"]["total_ns"]
    # Cross-shard requests carry spine time the executing shard's lanes
    # never see, so only single-simulation worlds reconcile the sum.
    if not sharded and attributed_ns != res["lat_sum_ns"]:
        errs.append("attributed %d ns, latency histogram holds %d ns"
                    % (attributed_ns, res["lat_sum_ns"]))
    if attr["live_slots"] != 0:
        errs.append("%d attribution slots still open" % attr["live_slots"])
    return errs


def _without_obs_keys(snapshot):
    """A registry snapshot minus the attribution counters (`attr.*`),
    which collect_cluster exports only when a traced run enabled them."""
    return {section: {k: v for k, v in entries.items()
                      if not _SHARD_KEY.sub("", k).startswith("attr.")}
            for section, entries in snapshot.items()}


def simulated_view(record):
    """Everything in a record that is simulated, hence a pure function of
    (workload, seed): two runs of one seed, traced or not, must agree."""
    view = {k: record[k] for k in ("result", "engine") if k in record}
    for k in ("registry", "registry_before"):
        if k in record:
            view[k] = _without_obs_keys(record[k])
    return view


def check_same_simulation(records):
    first = simulated_view(records[0])
    errs = []
    for i, rec in enumerate(records[1:], 1):
        view = simulated_view(rec)
        if view != first:
            diff = sorted(k for k in first if first[k] != view.get(k))
            errs.append("run %d (traced=%s) differs from run 0 in %s"
                        % (i, rec["traced"], ", ".join(diff)))
    return errs


def sim_mbs(result):
    """Simulated goodput: bytes completed over the foreground span, from
    the first request's start to the last completion (Fig. 5's y-axis)."""
    span_s = (result["foreground_end_ns"] - result["start_ns"]) / 1e9
    return result["bytes_completed"] / 1e6 / span_s


def check_reference_mbs(result, reference):
    """Fig. 5(c)'s RAID-x endpoint must reproduce the committed baseline,
    which stores it with six significant digits."""
    got = float("%.6g" % sim_mbs(result))
    if got != reference:
        return ["sim_mbs %.6g != BENCH_fig5_bandwidth_full.json "
                "large_write_mbs_RAID-x %s" % (got, reference)]
    return []


# --- metrics ------------------------------------------------------------

def end_to_end(untraced):
    """The end-to-end metrics over a run's untraced repetitions: host
    figures are medians, times scaled to the reference host; simulated
    ones come from the first repetition (all repetitions agree, which
    check_same_simulation enforces)."""
    res = untraced[0]["result"]
    return {
        "setup_s": median([host_ns(r, "setup_ns") for r in untraced]) / 1e9,
        "host_us_per_req": median(
            [host_ns(r, "driver_ns") / r["result"]["completed"]
             for r in untraced]) / 1e3,
        "peak_rss_mb": median(
            [r["host"]["peak_rss_kb"] for r in untraced]) / 1024.0,
        "sim_mbs": sim_mbs(res),
    }


def latency_ms(result, q):
    """Interpolated percentile q in ms, or 0.0 when fewer than ten samples
    lie beyond it (closed-loop runs record no latency histogram)."""
    key = {0.5: "lat_p50_ns", 0.99: "lat_p99_ns", 0.999: "lat_p999_ns"}[q]
    if key not in result or result["lat_count"] * (1.0 - q) < MIN_TAIL_SAMPLES:
        return 0.0
    return result[key] / 1e6


def knee_ops(ladder):
    """Highest ladder rate whose p99 stays within the limit with no
    growing backlog; 0.0 when no rate qualifies.  `ladder` maps rate to
    that point's raw record."""
    best = 0.0
    for rate, rec in ladder.items():
        res = rec["result"]
        overrun = (res["foreground_end_ns"] - res["start_ns"]
                   - res["window_ns"]) / res["window_ns"]
        p99 = latency_ms(res, 0.99)
        if 0.0 < p99 <= KNEE_P99_LIMIT_MS and overrun <= KNEE_MAX_OVERRUN_FRAC:
            best = max(best, float(rate))
    return best


_HOST_SPANS = ("construct.cluster", "construct.cdd", "construct.cache",
               "construct.engine", "construct.load", "warm", "driver",
               "collect")


def per_layer(traced_runs, untraced, knee=0.0):
    """Per-layer metrics: simulated counts and lane times from a traced
    repetition (all of them agree), host times as medians over the
    untraced ones, scaled to the reference host."""
    traced = traced_runs[-1]
    res = traced["result"]
    eng = traced["engine"]
    delta = counter_delta(traced)
    done = res["completed"]
    attr = traced["attribution"]
    attributed = attr["read"]["count"] + attr["write"]["count"]
    writes = attr["write"]["count"]

    def lane_ms(lane):
        ns = attr["read"]["lane_ns"][lane] + attr["write"]["lane_ns"][lane]
        return ns / 1e6 / attributed if attributed else 0.0

    def host_median(fn):
        return median([fn(r) for r in untraced])

    def per(n, d):
        return n / d if d else 0.0

    disk_util = utilizations(delta, "disk", "busy_ns")
    tx_util = utilizations(delta, "link", "tx_busy_ns")
    lookups = sum(total(delta, "cache." + k)
                  for k in ("hits", "peer_hits", "misses"))
    link_msgs = sum(_per_resource(delta, "link", "messages_sent").values())
    link_bytes = sum(_per_resource(delta, "link", "bytes_sent").values())
    disk_ops = (sum(_per_resource(delta, "disk", "reads").values())
                + sum(_per_resource(delta, "disk", "writes").values()))
    shard_events = eng["shard_events"]
    sim_s = _sim_seconds(delta)
    window = res.get("window_ns", 0)
    fg_ns = res["foreground_end_ns"] - res["start_ns"]

    m = {
        "sim.events_per_req": per(eng["events"], done),
        "sim.host_ns_per_event": host_median(
            lambda r: host_ns(r, "driver_ns") / r["engine"]["events"]),
        "sim.frames_per_req": per(eng["frames"], done),
        "sim.peak_pending": eng["peak_pending"],
        "sim.teardown_s": host_median(
            lambda r: host_ns(r, "teardown_ns")) / 1e9,
        "shard.windows_per_sim_s": per(eng["windows"], sim_s),
        "shard.cross_msgs_per_req": per(eng["cross_msgs"], done),
        "shard.cpu_per_wall": host_median(
            lambda r: r["host"]["driver_cpu_ns"] / r["host"]["driver_ns"]),
        "shard.event_imbalance": max(shard_events) / mean(shard_events),
        "load.peak_in_flight": res.get("peak_in_flight", 0),
        "load.drain_overrun_ms": (fg_ns - window) / 1e6 if window else 0.0,
        "sim_p50_ms": latency_ms(res, 0.5),
        "sim_p99_ms": latency_ms(res, 0.99),
        "sim_p999_ms": latency_ms(res, 0.999),
        "sim_latency_samples": res["lat_count"] if "lat_p50_ns" in res else 0,
        "sim_knee_ops": knee,
        "raid.ctl_queue_ms_per_req": lane_ms("ctl.queue"),
        "raid.ctl_service_ms_per_req": lane_ms("ctl.service"),
        "raid.foreground_mbs": sim_mbs(res),
        "raid.sustained_mbs": res["bytes_completed"] / 1e6 / (
            (res["drain_end_ns"] - res["start_ns"]) / 1e9),
        "cache.hit_ratio": per(total(delta, "cache.hits"), lookups),
        "cache.peer_hit_ratio": per(total(delta, "cache.peer_hits"), lookups),
        "cache.evictions_per_req": per(total(delta, "cache.evictions"), done),
        "cache.invalidations_per_write": per(
            total(delta, "cache.invalidations"), writes),
        "cache.service_ms_per_req": lane_ms("cache.service"),
        "cdd.remote_per_req": per(total(delta, "cdd.remote_requests"), done),
        "cdd.local_per_req": per(total(delta, "cdd.local_requests"), done),
        "cdd.queue_ms_per_req": lane_ms("cdd.queue"),
        "cdd.service_ms_per_req": lane_ms("cdd.service"),
        "cdd.lock_records": eng["lock_records"],
        "net.msgs_per_req": per(link_msgs, done),
        "net.bytes_per_req": per(link_bytes, done),
        "net.tx_util_max": max(tx_util),
        "net.queue_ms_per_req": lane_ms("net.queue"),
        "net.service_ms_per_req": lane_ms("net.service"),
        "disk.ops_per_req": per(disk_ops, done),
        "disk.util_mean": mean(disk_util),
        "disk.util_max": max(disk_util),
        "disk.queue_ms_per_req": lane_ms("disk.queue"),
        "disk.service_ms_per_req": lane_ms("disk.service"),
        "remote.sent": eng["remote_sent"],
        "remote.failed": eng["remote_failed"],
        "obs.trace_overhead_frac": median(
            [host_ns(r, "driver_ns") for r in traced_runs]) / host_median(
            lambda r: host_ns(r, "driver_ns")) - 1.0,
    }
    for span in _HOST_SPANS:
        name = "host.%s_s" % span.replace("construct.", "construct_")
        m[name] = host_median(lambda r, s=span: span_ns(r, s)) / 1e9
    return m


# --- span self time -------------------------------------------------------

def span_self_times(trace_events):
    """Simulated self time per layer from one Chrome trace-event list.

    A span's self time is its duration minus the union of its children's
    intervals; the layer is the span name's first dotted component
    ("cdd.request" -> "cdd").  Returns ({layer: self_ms}, root_count).
    """
    spans = {}
    opened = {}
    for ev in trace_events:
        ph = ev.get("ph")
        args = ev.get("args", {})
        if ph == "b":
            opened[args["span"]] = (ev["name"], ev["ts"],
                                    args.get("parent", 0))
        elif ph == "e" and args.get("span") in opened:
            name, begin, parent = opened.pop(args["span"])
            spans[args["span"]] = (name, begin, ev["ts"], parent)
        elif ph == "X":
            spans[args["span"]] = (ev["name"], ev["ts"], ev["ts"] + ev["dur"],
                                   args.get("parent", 0))
    children = {}
    for sid, (_, begin, end, parent) in spans.items():
        children.setdefault(parent, []).append((begin, end))
    layers = {}
    roots = 0
    for sid, (name, begin, end, parent) in spans.items():
        if parent == 0 or parent not in spans:
            roots += 1
        covered = 0.0
        cur_b = cur_e = None
        for b, e in sorted(children.get(sid, [])):
            b, e = max(b, begin), min(e, end)
            if e <= b:
                continue
            if cur_e is None or b > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_b
                cur_b, cur_e = b, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_b
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + (end - begin - covered) / 1e3
    return layers, roots
