#!/usr/bin/env python3
"""Compare two BENCH_*.json snapshots key by key.

Both files are flattened to dotted paths (lists index as ``path[i]``), then:

* keys present in both: numeric values get an absolute and relative delta,
  other values an equality check;
* keys only in one file are listed as added/removed (new engine counters
  showing up in a newer snapshot is expected and does not fail the diff).

With ``--threshold PCT`` the script exits non-zero when any shared numeric
key moved by more than PCT percent (relative to the baseline value), which
makes it usable as a CI regression gate:

    tools/bench_diff.py BENCH_fig5_bandwidth_full.json \
        build/bench/BENCH_fig5_bandwidth.json --threshold 0.0

A threshold of 0.0 demands bit-identical numbers -- the contract this
simulator actually makes, since every reported figure is a deterministic
function of the simulated cluster.  The one engine-internal count in the
snapshots, ``sim.queue.cascaded_events``, also depends on the timing
wheel's geometry, so a wheel change regenerates the baselines.

``--require REGEX`` (repeatable; each pattern must match at least one
candidate key) guards gated key families: a bench that silently loses its
orchestrator, integrity plane, or open-loop wiring still produces a
passing diff on the remaining keys, so CI pins each section explicitly --
``--require 'ha\\.'`` for the recovery report, ``--require 'integrity\\.'``
for the scrub report, and (schema v6) ``--require 'load\\.' --require
'qos\\.'`` for the saturation report's traffic and QoS sections.
"""

import argparse
import json
import re
import sys


def flatten(node, prefix=""):
    out = {}
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten(value, path))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            out.update(flatten(value, f"{prefix}[{i}]"))
    else:
        out[prefix] = node
    return out


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def main():
    parser = argparse.ArgumentParser(
        description="Per-key diff of two BENCH_*.json snapshots.")
    parser.add_argument("baseline", help="reference snapshot")
    parser.add_argument("candidate", help="snapshot to compare against it")
    parser.add_argument(
        "--threshold", type=float, default=None, metavar="PCT",
        help="fail (exit 1) if any shared numeric key differs from the "
             "baseline by more than PCT percent; omit to only report")
    parser.add_argument(
        "--ignore", action="append", default=[], metavar="REGEX",
        help="skip keys matching this regex (repeatable); schema_version, "
             "*_wall_ms, *speedup_wall, *.threads, and frame_pool "
             "statistics are always skipped")
    parser.add_argument(
        "--require", action="append", default=[], metavar="REGEX",
        help="fail (exit 1) unless at least one candidate key matches this "
             "regex (repeatable, each must match); guards against a bench "
             "silently dropping a key family, e.g. --require 'ha\\.'")
    parser.add_argument(
        "--quiet", action="store_true",
        help="print only differing keys and the summary line")
    args = parser.parse_args()

    ignore = [re.compile(p) for p in args.ignore]
    # Host-side metadata: legitimately differs between runs and machines.
    ignore.append(re.compile(r"(^|\.)schema_version$"))
    ignore.append(re.compile(r"wall_ms$"))
    # Wall-clock-derived scaling numbers and worker counts (the
    # shard_scaling report): functions of the host's core count and load,
    # never of the simulation.
    ignore.append(re.compile(r"speedup_wall$"))
    ignore.append(re.compile(r"(^|\.)threads$"))
    # Engine-internal frame-pool statistics (schema v8: an informational
    # "frame_pool" section next to each obs block): they move whenever any
    # coroutine frame changes size, i.e. with every engine change, so they
    # are never part of the regression contract.
    ignore.append(re.compile(r"(^|\.)frame_pool\."))
    ignore.append(re.compile(r"(^|\.)sim\.frame_pool\."))

    with open(args.baseline) as f:
        base = flatten(json.load(f))
    with open(args.candidate) as f:
        cand = flatten(json.load(f))

    def skipped(key):
        return any(p.search(key) for p in ignore)

    base_keys = {k for k in base if not skipped(k)}
    cand_keys = {k for k in cand if not skipped(k)}
    shared = sorted(base_keys & cand_keys)
    removed = sorted(base_keys - cand_keys)
    added = sorted(cand_keys - base_keys)

    worst = 0.0
    violations = []
    identical = 0
    for key in shared:
        b, c = base[key], cand[key]
        if is_number(b) and is_number(c):
            delta = c - b
            if delta == 0:
                identical += 1
                continue
            rel = abs(delta) / abs(b) * 100.0 if b != 0 else float("inf")
            worst = max(worst, rel)
            line = f"  {key}: {b} -> {c}  ({delta:+g}, {rel:.4g}%)"
            if args.threshold is not None and rel > args.threshold:
                violations.append(line)
            print(line)
        elif b != c:
            worst = float("inf")
            line = f"  {key}: {b!r} -> {c!r}"
            if args.threshold is not None:
                violations.append(line)
            print(line)
        else:
            identical += 1

    if not args.quiet:
        for key in removed:
            print(f"  removed: {key}")
        for key in added:
            print(f"  added:   {key}")

    print(f"{len(shared)} shared keys: {identical} identical, "
          f"{len(shared) - identical} differ (worst {worst:.4g}%); "
          f"{len(added)} added, {len(removed)} removed")

    failed = False
    for pattern in args.require:
        # Match the raw candidate key set: --require is about presence, so
        # --ignore must not be able to hide a missing family from it.
        regex = re.compile(pattern)
        if not any(regex.search(k) for k in cand):
            print(f"FAIL: no candidate key matches required pattern "
                  f"{pattern!r}", file=sys.stderr)
            failed = True

    if args.threshold is not None and violations:
        print(f"FAIL: {len(violations)} key(s) moved more than "
              f"{args.threshold}%", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
