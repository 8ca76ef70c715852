#!/usr/bin/env python3
"""Observability smoke check: validate the text exposition that
``examples/sensor_fleet --stats-out`` pulls over the wire.

Usage:
    ci/obs_smoke.py EXPOSITION_FILE

Every hot-path series the engine registers must be present AND nonzero
for at least one label after the fleet run: engine ingest/emit counters,
per-sensor frame counts, per-stage pipeline latency, per-shard queue
accounting, the fused world-frame counter, and the (global-registry)
dsp plan-cache hits — the last one proves the wire pull merges the
process-wide registry into the engine's. A metric that is registered
but never incremented is exactly the kind of silent telemetry rot this
gate exists to catch.

Exits 0 when every required series checks out, 1 otherwise.
"""

import re
import sys

# Each entry: (display name, regex matching the series' exposition
# line(s) with the value captured as group 1). A series passes when at
# least one matching line has a value > 0.
REQUIRED = [
    ("engine batches_in", r"^witrack_engine_batches_in (\d+)$"),
    ("engine sweeps_processed", r"^witrack_engine_sweeps_processed (\d+)$"),
    ("engine frames_emitted", r"^witrack_engine_frames_emitted (\d+)$"),
    ("engine sessions_opened", r"^witrack_engine_sessions_opened (\d+)$"),
    ("engine world_frames", r"^witrack_engine_world_frames (\d+)$"),
    ("per-sensor frames", r'^witrack_sensor_frames\{sensor="\d+"\} (\d+)$'),
    ("pipeline profile_ns", r'^witrack_pipeline_profile_ns_count\{sensor="\d+"\} (\d+)$'),
    ("pipeline detect_ns", r'^witrack_pipeline_detect_ns_count\{sensor="\d+"\} (\d+)$'),
    ("pipeline associate_ns", r'^witrack_pipeline_associate_ns_count\{sensor="\d+"\} (\d+)$'),
    ("shard queue_wait_ns", r'^witrack_shard_queue_wait_ns_count\{shard="\d+"\} (\d+)$'),
    ("shard dequeue_to_report_ns",
     r'^witrack_shard_dequeue_to_report_ns_count\{shard="\d+"\} (\d+)$'),
    ("room tracks gauge registered", r'^witrack_room_tracks\{room="\d+"\} (-?\d+)$'),
    ("sensor liveness gauge registered",
     r'^witrack_sensor_liveness\{sensor="\d+"\} (-?\d+)$'),
    ("sensor reconnects counter registered",
     r'^witrack_sensor_reconnects\{sensor="\d+"\} (\d+)$'),
    ("dsp plan_cache hits (global registry merged)",
     r"^witrack_dsp_plan_cache_hits (\d+)$"),
    # SIMD hot path: the selected lane width (4 on AVX2+FMA, 1 scalar —
    # either way nonzero once a kernel has run), the fallback counter
    # (zero on vector-capable hosts, so presence-only), and the shard
    # drain loop's cache-blocked frame groups.
    ("dsp simd_lanes", r"^witrack_dsp_simd_lanes (-?\d+)$"),
    ("dsp scalar_fallbacks registered", r"^witrack_dsp_scalar_fallbacks (\d+)$"),
    ("dsp batched_frames", r'^witrack_dsp_batched_frames\{shard="\d+"\} (\d+)$'),
    # Messages a connection reader ran on an idle shard instead of
    # queueing them. Whether any run inline depends on timing (the
    # example's in-process readers often hold further input), so zero is
    # a healthy value: presence-only.
    ("shard inline_runs registered", r'^witrack_shard_inline_runs\{shard="\d+"\} (\d+)$'),
    # Replies sent on the thread that ran their message, and replies left
    # to a connection's writer thread. The example's in-process
    # connections send directly whenever the client's queue has room, so
    # the first must be live; the second, and the stall episodes direct
    # sends started, are zero while no client lags: presence-only.
    ("engine direct_writes", r"^witrack_engine_direct_writes (\d+)$"),
    ("engine queued_writes registered", r"^witrack_engine_queued_writes (\d+)$"),
    ("engine direct_stalls registered", r"^witrack_engine_direct_stalls (\d+)$"),
    # Programmable subscriptions (wire v3): the fleet run subscribes to
    # every room, so the hub must have installed subscriptions, run
    # filter programs, matched events, and offered world bytes.
    ("engine subscriptions_opened", r"^witrack_engine_subscriptions_opened (\d+)$"),
    ("engine events_evaluated", r"^witrack_engine_events_evaluated (\d+)$"),
    ("engine events_matched", r"^witrack_engine_events_matched (\d+)$"),
    ("engine world_bytes", r"^witrack_engine_world_bytes (\d+)$"),
    ("room event_eval_ns", r'^witrack_room_event_eval_ns_count\{room="\d+"\} (\d+)$'),
    ("engine subscriptions_closed registered",
     r"^witrack_engine_subscriptions_closed (\d+)$"),
    ("engine events_rate_limited registered",
     r"^witrack_engine_events_rate_limited (\d+)$"),
]

# Registered-but-allowed-zero: presence is required (the series must be
# in the report), the value is not gated. Room gauges read whatever the
# last fused frame held, which may legitimately be zero; liveness is 0
# (= Live) and reconnects stay 0 for a fleet that never misbehaves —
# their presence proves the failure-model plumbing is wired end-to-end.
PRESENCE_ONLY = {
    "room tracks gauge registered",
    "sensor liveness gauge registered",
    "sensor reconnects counter registered",
    # The stats pull happens while the fleet's subscriptions are still
    # open (closed stays 0), and the fleet installs no rate-limited
    # programs — presence proves the v3 counter plumbing is wired.
    "engine subscriptions_closed registered",
    "engine events_rate_limited registered",
    # Zero is the healthy value on a vector-capable host: it counts
    # processes that fell back to scalar kernels.
    "dsp scalar_fallbacks registered",
    "shard inline_runs registered",
    "engine queued_writes registered",
    "engine direct_stalls registered",
}


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    try:
        with open(sys.argv[1]) as f:
            text = f.read()
    except OSError as e:
        print(f"obs smoke: cannot read exposition: {e}", file=sys.stderr)
        return 1

    failures = []
    for name, pattern in REQUIRED:
        values = [int(m.group(1)) for m in re.finditer(pattern, text, re.M)]
        if not values:
            failures.append(f"{name}: series absent")
        elif name not in PRESENCE_ONLY and max(values) <= 0:
            failures.append(f"{name}: registered but zero everywhere")
        else:
            peak = max(values) if values else 0
            print(f"  ok {name}: {len(values)} series, peak {peak}")

    if failures:
        for f in failures:
            print(f"  FAIL {f}")
        print("obs smoke: FAIL — hot-path telemetry missing or silent",
              file=sys.stderr)
        return 1
    print(f"obs smoke: pass ({len(REQUIRED)} required series live)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
