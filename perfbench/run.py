#!/usr/bin/env python3
"""Benchmark of the RAID-x simulator: one workload per invocation.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  On first use it builds perfbench_driver,
and the simulator library from src/ with it, into .bench_build/perfbench
(Release).  It then repeats the workload in fresh driver processes until S
seconds have passed, checks every repetition, prints a table of metrics
with units, and ends with one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports BENCHMARK.json's end_to_end metrics from untraced runs.
--trace 1 alternates untraced and traced runs (attribution lanes and the
sampled span tracer on), adds the sim_knee_ops rate ladder on
zipf-read-cache, and reports the per_layer metrics.  The full result,
with host context, per-layer self times and the per-repetition records'
host figures, is written to .bench_build/perfbench/results/.  Host times
are scaled to a reference host speed, which each driver process measures
with calibration slices around its measured phase (extract.speed_factor).

Exit status: 0 with a result; 1 when a check fails (the JSON line then
says "correct": false and carries no metrics); 2 on bad arguments or when
the simulator sources or the build are missing.
"""
import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave nothing behind in perfbench/
import extract  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("paper16-large-write", "zipf-read-cache", "mixed-256",
             "sharded-256")
# Later performance claims must also hold on this seed, which no tuning of
# the benchmark or of the simulator may use.
HELD_OUT_SEED = 1009
# One driver process may not outlive this (the run itself must end within
# 180 s).
DRIVER_TIMEOUT_S = 150
REFERENCE = ("BENCH_fig5_bandwidth_full.json", "large_write_mbs_RAID-x")


class CheckFailed(Exception):
    pass


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources not found under %s/src" % ROOT)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench_driver"])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if proc.returncode != 0:
            die("build failed: " + " ".join(cmd))


def host_context(seed):
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)$",
                         line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    compiler = subprocess.run([cache["CMAKE_CXX_COMPILER"], "--version"],
                              capture_output=True, text=True).stdout
    commit = None
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": compiler.splitlines()[0] if compiler else "unknown",
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def source_digest():
    """Digest of the measured sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def run_driver(workload, seed, traced=False, trace_dir=None, rate=None):
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd += ["--traced", "--trace-dir", trace_dir]
    if rate is not None:
        cmd += ["--rate", str(rate), "--duration",
                str(extract.KNEE_LADDER_SECONDS)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise CheckFailed("driver exited %d: %s"
                          % (proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout)


def reference_mbs():
    with open(os.path.join(ROOT, REFERENCE[0])) as f:
        return json.load(f)[REFERENCE[1]]


def check(records, workload):
    errs = []
    for rec in records:
        errs += extract.check_accounting(rec)
        if rec["traced"]:
            errs += extract.check_attribution(rec, workload == "sharded-256")
    errs += extract.check_same_simulation(records)
    if workload == "paper16-large-write":
        errs += extract.check_reference_mbs(records[0]["result"],
                                            reference_mbs())
    if errs:
        raise CheckFailed("; ".join(errs))


def measure(workload, seed, seconds, traced_mode):
    """Repeat the workload until `seconds` have passed, untraced runs only,
    or (traced_mode) the knee ladder first and then untraced/traced pairs.
    Returns (records, knee ladder records)."""
    deadline = time.monotonic() + seconds
    ladder = {}
    if traced_mode and workload == "zipf-read-cache":
        for rate in extract.KNEE_LADDER_OPS:
            ladder[rate] = run_driver(workload, seed, rate=rate)
    trace_dir = os.path.join(BUILD, "traces", "%s-seed%d" % (workload, seed))
    if traced_mode:
        os.makedirs(trace_dir, exist_ok=True)
    records = []
    while True:
        records.append(run_driver(workload, seed))
        if traced_mode:
            records.append(run_driver(workload, seed, True, trace_dir))
        if time.monotonic() >= deadline:
            break
    return records, ladder


def traced_report(traced, untraced, metrics):
    """Per-layer self time of the traced run: simulated, from the lanes
    (ms per request) and from the kept spans; host, from the benchmark's
    own spans around each public call (median over untraced runs)."""
    attr = traced["attribution"]
    n = attr["read"]["count"] + attr["write"]["count"]
    lanes = {lane: (attr["read"]["lane_ns"][lane]
                    + attr["write"]["lane_ns"][lane]) / 1e6 / n
             for lane in extract.LANES}
    span_layers, roots = {}, 0
    for path in traced["trace_files"]:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        layers, r = extract.span_self_times(events)
        roots += r
        for k, v in layers.items():
            span_layers[k] = span_layers.get(k, 0.0) + v
    host = {name: extract.median([extract.span_ns(r, name)
                                  for r in untraced]) / 1e9
            for name in untraced[0]["host"]["spans"]}
    return {
        "sim_self_ms_per_req_by_lane": lanes,
        "sim_self_ms_by_span_layer": span_layers,
        "span_roots_kept": roots,
        "span_files": traced["trace_files"],
        "host_self_s_by_span": host,
        "obs.trace_overhead_frac": metrics["obs.trace_overhead_frac"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    build()
    context = host_context(args.seed)
    traced_mode = args.trace == 1
    attempted = failed = 0
    try:
        records, ladder = measure(args.workload, args.seed, args.seconds,
                                  traced_mode)
        for rec in records + list(ladder.values()):
            attempted += rec["result"]["offered"]
            failed += extract.failed_ops(rec["result"])
        check(records, args.workload)
        for rec in ladder.values():
            check([rec], args.workload)
    except (CheckFailed, subprocess.TimeoutExpired, ValueError) as e:
        print("perfbench: %s: check failed: %s" % (args.workload, e),
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": max(failed, 1), "metrics": {}}))
        return 1

    untraced = [r for r in records if not r["traced"]]
    if traced_mode:
        traced = [r for r in records if r["traced"]]
        metrics = extract.per_layer(traced, untraced,
                                    extract.knee_ops(ladder))
        units = extract.PER_LAYER_UNITS
    else:
        metrics = extract.end_to_end(untraced)
        units = extract.END_TO_END_UNITS

    print("%s  seed %d  trace %d  %d untraced + %d traced runs  "
          "attempted %d  failed %d" % (args.workload, args.seed, args.trace,
                                       len(untraced),
                                       len(records) - len(untraced),
                                       attempted, failed))
    slice_ms = extract.median([extract.median(r["host"]["calibration_ns"])
                               for r in records]) / 1e6
    print("host: %d cpus, %s, %s, commit %s" % (
        context["nproc"], context["compiler"], context["build_type"],
        context["commit"]))
    print("host speed: calibration slice %.2f ms (median); host times are "
          "scaled to a %.0f ms slice" % (slice_ms,
                                         extract.REFERENCE_SLICE_NS / 1e6))
    for name, unit in units.items():
        print("  %-32s %16.6g %s" % (name, metrics[name], unit))

    report = {
        "context": context,
        "workload": args.workload,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "calibration_slice_ms": slice_ms,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "runs": [{"traced": r["traced"], "host": r["host"]} for r in records],
    }
    if traced_mode:
        report["traced_run"] = traced_report(traced[-1], untraced, metrics)
        report["knee_ladder"] = {
            str(rate): {"p99_ms": extract.latency_ms(rec["result"], 0.99),
                        "sim_mbs": extract.sim_mbs(rec["result"])}
            for rate, rec in ladder.items()}
    out_dir = os.path.join(BUILD, "results")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, "%s-seed%d-trace%d.json"
                       % (args.workload, args.seed, args.trace))
    with open(out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    print("wrote " + os.path.relpath(out, ROOT))

    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
