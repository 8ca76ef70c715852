#!/usr/bin/env python3
"""Perf-regression gate: compare a fresh BENCH_*.json against the
checked-in baseline and fail on a throughput drop beyond tolerance.

Usage:
    ci/perf_gate.py BASELINE FRESH [--tolerance 0.30]

Understands the artifact shapes this repo emits:

* ``t_throughput``: top-level ``scenarios``, keyed by ``name``, metric
  ``frames_per_sec``;
* ``t_serve``: top-level ``results``, keyed by
  ``(wire, shards, sensors)`` (entries without a ``wire`` field — the
  pre-v2 artifact — count as the f64 wire), gating ``per_sensor_fps``
  and, when present, the wire byte rate ``wire_mb_per_sec`` and the
  per-wire ``sensors_sustained_realtime`` counts;
* ``t_ingest``: top-level ``results`` keyed by ``variant``, metric
  ``msgs_per_sec``;
* ``t_dsp``: top-level ``results`` keyed by ``(kernel, path)``, metric
  ``calls_per_sec`` — per-kernel SIMD/scalar microbenchmarks plus the
  whole profile-stage frame rows;
* ``t_fuse``: top-level ``results`` keyed by ``(sensors, overlap)``,
  metric ``fused_tracks_per_sec`` (the ``handoff_latency_ms`` scalar is
  lower-is-better and informational, so it is not gated);
* ``t_fanout``: top-level ``results`` keyed by ``(mode, subscriptions)``,
  metric ``matched_events_per_sec``, plus the top-level ``bytes_ratio``
  (offered bytes, unfiltered over selective — the filtered-fan-out
  savings factor, higher is better). The ≥10x floor on that ratio is
  contract-checked inside the bin itself;
* ``t_chaos``: top-level ``results`` keyed by ``(room, fault)``, metric
  ``recovery_to_good_ns`` — the time from the fault window closing to
  the first epoch where every covered target is re-acquired. It is
  lower-is-better and gated with the latency tolerance: recovery time
  quantizes to whole fused epochs (the bin floors it at one frame
  period), so one epoch of jitter can double a small value, exactly
  like the log2 histogram buckets. Error medians and tracked fractions
  are contract-checked inside the bin itself (it exits nonzero on a
  violation), so the gate does not re-judge them.

Rows may additionally carry latency-quantile fields (``*_p50_ns`` /
``*_p99_ns``, from the witrack-obs stage histograms). These are
lower-is-better: a fresh quantile above ``baseline * (1 +
lat-tolerance)`` fails. The histograms bucket at log2 (≤2x relative
resolution), so one bucket of jitter can double an estimate — the
default latency tolerance is 3.0 (fail only past 4x baseline).
Artifacts written before these fields existed simply contribute no
latency entries, so old-vs-new comparisons still work. The t_serve
shard-queue latencies (``queue_wait_*``, ``dequeue_to_report_*``)
measure queue occupancy under deliberate Block backpressure — they
swing an order of magnitude with host load, so they are carried in the
artifact for inspection but never gated.

Only entries present in BOTH files are compared (CI smoke runs a subset
of the baseline matrix). Every entry present in only one file is listed
by name, marked with the file that has it, so a renamed row that drops
out of the gate is visible in the log; these never fail the gate.
Improvements never fail; a fresh value below ``baseline * (1 -
tolerance)`` does. Exits 0 on pass, 1 on regression, 2 on a malformed or
incomparable pair.
"""

import argparse
import json
import sys


# Latency fields that track queue occupancy (not code speed): present
# in the artifact, never gated.
UNGATED_LATENCY = ("queue_wait", "dequeue_to_report")


def latency_entries(key, row):
    """Yield lower-is-better latency-quantile entries a row may carry.

    Rows written before the telemetry fields existed yield nothing, so a
    new gate run still compares cleanly against an old baseline.
    """
    for field, value in row.items():
        if field.endswith(("_p50_ns", "_p99_ns")) and not field.startswith(UNGATED_LATENCY):
            yield key + (field,), float(value)


def entries(doc):
    """Yield (key, metric_value) pairs for any supported artifact shape."""
    if "scenarios" in doc:
        for s in doc["scenarios"]:
            yield s["name"], float(s["frames_per_sec"])
            yield from latency_entries((s["name"],), s)
    elif "results" in doc:
        for r in doc["results"]:
            if "subscriptions" in r:  # t_fanout rows
                key = ("fanout", r["mode"], r["subscriptions"])
                yield key + ("matched/s",), float(r["matched_events_per_sec"])
                yield from latency_entries(key, r)
                continue
            if "variant" in r:  # t_ingest rows
                yield (r["variant"], "msgs/s"), float(r["msgs_per_sec"])
                continue
            if "kernel" in r:  # t_dsp rows
                yield ("dsp", r["kernel"], r["path"]), float(r["calls_per_sec"])
                continue
            if "fault" in r:  # t_chaos rows
                key = ("chaos", r["room"], r["fault"])
                yield key + ("recovery_to_good_ns",), float(r["recovery_to_good_ns"])
                continue
            if "fused_tracks_per_sec" in r:  # t_fuse rows
                key = ("fuse", r["sensors"], r.get("overlap", 1.0))
                yield key + ("fused/s",), float(r["fused_tracks_per_sec"])
                yield from latency_entries(key, r)
                continue
            key = (r.get("wire", "f64"), r["shards"], r["sensors"])
            yield key + ("fps",), float(r["per_sensor_fps"])
            if "wire_mb_per_sec" in r:
                yield key + ("MB/s",), float(r["wire_mb_per_sec"])
            yield from latency_entries(key, r)
        ratio = doc.get("bytes_ratio")
        if ratio is not None:  # t_fanout: filtered-fan-out savings factor
            yield ("fanout", "bytes_ratio"), float(ratio)
        sustained = doc.get("sensors_sustained_realtime")
        if isinstance(sustained, dict):
            for wire, n in sustained.items():
                yield ("sustained", wire), float(n)
        elif isinstance(sustained, (int, float)):
            yield ("sustained", "f64"), float(sustained)
    else:
        raise KeyError("neither 'scenarios' nor 'results' present")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="allowed fractional drop (default 0.30)")
    ap.add_argument("--lat-tolerance", type=float, default=3.0,
                    help="allowed fractional growth of latency quantiles "
                         "(default 3.0, i.e. fail past 4x baseline; the "
                         "log2 histogram buckets make finer gates noisy)")
    args = ap.parse_args()

    try:
        with open(args.baseline) as f:
            base = dict(entries(json.load(f)))
        with open(args.fresh) as f:
            fresh = dict(entries(json.load(f)))
    except (OSError, ValueError, KeyError) as e:
        print(f"perf gate: cannot read artifacts: {e}", file=sys.stderr)
        return 2

    common = sorted(set(base) & set(fresh), key=str)
    if not common:
        print("perf gate: no comparable entries between baseline and fresh run",
              file=sys.stderr)
        return 2

    # sensors_sustained_realtime is discontinuous (it jumps between the
    # sensor counts the run actually tested) and the CI smoke tests a
    # subset of the baseline matrix, so gating it needs two adjustments:
    # the baseline is clamped to the largest sensor count the fresh run
    # tested for that wire, and the tolerance is widened to half — one
    # marginal cell flickering across the 80 fps line must not read as a
    # 2x regression when the continuous per-cell fps gate already bounds
    # real slowdowns at 30%.
    fresh_max_sensors = {}
    for key in fresh:
        if isinstance(key, tuple) and len(key) == 4 and key[3] == "fps":
            wire = key[0]
            fresh_max_sensors[wire] = max(fresh_max_sensors.get(wire, 0), key[2])

    failed = False
    for key in common:
        baseline = base[key]
        tolerance = args.tolerance
        lower_is_better = (isinstance(key, tuple) and key
                           and str(key[-1]).endswith("_ns"))
        if isinstance(key, tuple) and key and key[0] == "sustained":
            limit = fresh_max_sensors.get(key[1])
            if limit is not None:
                baseline = min(baseline, float(limit))
            tolerance = max(tolerance, 0.5)
        if lower_is_better:
            ceiling = baseline * (1.0 + args.lat_tolerance)
            ok = fresh[key] <= ceiling
        else:
            floor = baseline * (1.0 - tolerance)
            ok = fresh[key] >= floor
        ratio = fresh[key] / baseline if baseline > 0 else float("inf")
        verdict = "ok" if ok else "REGRESSION"
        failed |= verdict != "ok"
        print(f"  {key!s:>32}: baseline {baseline:10.1f}  fresh {fresh[key]:10.1f}"
              f"  ({ratio:6.1%})  {verdict}")
    skipped = sorted((set(base) | set(fresh)) - set(common), key=str)
    if skipped:
        print(f"  skipped {len(skipped)} entries present in only one file:")
        for key in skipped:
            where = "baseline" if key in base else "fresh"
            print(f"  {key!s:>32}: {where} only")

    if failed:
        print(f"perf gate: FAIL — fresh throughput fell more than "
              f"{args.tolerance:.0%} below baseline (or a latency quantile "
              f"rose more than {args.lat_tolerance:.0%} above it)",
              file=sys.stderr)
        return 1
    print(f"perf gate: pass ({len(common)} entries within {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
