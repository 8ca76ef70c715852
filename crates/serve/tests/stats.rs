//! Telemetry over the wire: `StatsQuery`/`StatsReport` round-trips,
//! version gating, the end-to-end TCP stats pull, the sessions
//! opened/closed balance, and flight-recorder anomaly capture.

use std::sync::Arc;
use witrack_core::WiTrackConfig;
use witrack_fmcw::SweepConfig;
use witrack_obs::{AnomalyKind, Label};
use witrack_serve::engine::{EngineConfig, OverloadPolicy, ShardedEngine, Submitted};
use witrack_serve::factory::{hello_for, witrack_factory};
use witrack_serve::server::Server;
use witrack_serve::transport::TcpTransport;
use witrack_serve::wire::{
    self, HistoWire, Message, PipelineKind, StatsQuery, StatsReport, StatsSample, StatsValue,
    WireError,
};
use witrack_serve::SensorClient;

fn reduced_base() -> WiTrackConfig {
    WiTrackConfig {
        sweep: SweepConfig {
            start_freq_hz: 5.56e8,
            bandwidth_hz: 1.69e8,
            sweep_duration_s: 1e-3,
            sample_rate_hz: 100e3,
            sweeps_per_frame: 5,
            transmit_power_w: 1e-3,
        },
        max_round_trip_m: 40.0,
        ..WiTrackConfig::witrack_default()
    }
}

fn silent_frame(base: &WiTrackConfig) -> Vec<Vec<Vec<f64>>> {
    let n = base.sweep.samples_per_sweep();
    vec![vec![vec![0.0; n]; 3]; base.sweep.sweeps_per_frame]
}

fn sample_report() -> StatsReport {
    StatsReport {
        samples: vec![
            StatsSample {
                subsystem: "engine".into(),
                name: "batches_in".into(),
                label: Label::Global,
                value: StatsValue::Counter(42),
            },
            StatsSample {
                subsystem: "shard".into(),
                name: "queue_depth".into(),
                label: Label::Shard(3),
                value: StatsValue::Gauge(-2),
            },
            StatsSample {
                subsystem: "pipeline".into(),
                name: "profile_ns".into(),
                label: Label::Sensor(7),
                value: StatsValue::Histo(HistoWire {
                    count: 10,
                    sum: 1000,
                    min: 50,
                    max: 300,
                    p50: 90,
                    p90: 250,
                    p99: 300,
                }),
            },
        ],
    }
}

#[test]
fn stats_messages_round_trip() {
    for msg in [
        Message::StatsQuery(StatsQuery { flags: 0 }),
        Message::StatsReport(sample_report()),
        Message::StatsReport(StatsReport::default()),
    ] {
        let bytes = wire::encode(&msg);
        let (back, used) = wire::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, msg);
    }
}

#[test]
fn truncated_stats_report_is_rejected() {
    let bytes = wire::encode(&Message::StatsReport(sample_report()));
    // A partial buffer is Incomplete (read more); corrupting the header's
    // payload length to claim a shorter frame must yield BadPayload,
    // never a panic or a bogus decode.
    match wire::decode(&bytes[..bytes.len() - 4]) {
        Err(WireError::Incomplete { needed }) => assert_eq!(needed, bytes.len()),
        other => panic!("expected Incomplete, got {other:?}"),
    }
    let mut clipped = bytes.clone();
    let short = (bytes.len() - 12 - 4) as u32;
    clipped[8..12].copy_from_slice(&short.to_le_bytes());
    clipped.truncate(12 + short as usize);
    match wire::decode(&clipped) {
        Err(WireError::BadPayload(_)) => {}
        other => panic!("expected BadPayload, got {other:?}"),
    }
}

#[test]
fn v1_frames_cannot_carry_stats() {
    let mut query = wire::encode(&Message::StatsQuery(StatsQuery { flags: 0 }));
    assert_eq!(query[4], wire::VERSION, "stats messages encode as current");
    query[4] = 1; // forge a v1 frame claiming type 10
    match wire::decode(&query) {
        Err(WireError::UnsupportedVersion(1)) => {}
        other => panic!("expected UnsupportedVersion(1), got {other:?}"),
    }
}

/// The acceptance-path test: a `SensorClient` pushes real traffic over
/// TCP, pulls a `StatsReport`, and the snapshot shows nonzero per-shard
/// queue-depth accounting, per-sensor frame counts, and per-stage
/// latency quantiles.
#[test]
fn tcp_stats_pull_reflects_pushed_frames() {
    let base = reduced_base();
    let server = Server::builder(witrack_factory(base))
        .config(EngineConfig {
            num_shards: 2,
            ..EngineConfig::default()
        })
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();
    let mut client = SensorClient::connect(TcpTransport::new(
        std::net::TcpStream::connect(addr).unwrap(),
    ))
    .unwrap();

    client
        .hello(hello_for(&base, 7, PipelineKind::SingleTarget))
        .unwrap();
    let frame = silent_frame(&base);
    for seq in 0..8u64 {
        client.send_sweeps(7, seq, &frame).unwrap();
    }
    client.query_stats().unwrap();
    // The engine answers from whatever has been processed when the query
    // lands; poll until the per-sensor frame counter covers all traffic.
    let report = loop {
        if let Some(r) = client.last_stats() {
            if let Some(s) = r.find("sensor", "frames", Label::Sensor(7)) {
                if s.value == StatsValue::Counter(8) {
                    break r;
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        client.query_stats().unwrap();
    };

    // Per-shard queue accounting exists for every shard, and sensor 7's
    // shard (7 % 2 == 1) saw its messages: depth returned to zero and
    // the wait/service histograms are populated.
    let depth = report
        .find("shard", "queue_depth", Label::Shard(1))
        .expect("per-shard queue depth");
    assert_eq!(depth.value, StatsValue::Gauge(0));
    for name in ["queue_wait_ns", "dequeue_to_report_ns"] {
        let s = report
            .find("shard", name, Label::Shard(1))
            .unwrap_or_else(|| panic!("missing shard series {name}"));
        let StatsValue::Histo(h) = s.value else {
            panic!("{name} is not a histogram");
        };
        assert!(h.count >= 8, "{name} saw all 8 batches: {h:?}");
        assert!(h.p50 > 0 && h.p50 <= h.p99, "{name} quantiles: {h:?}");
    }

    // Per-stage pipeline latency: profile/detect record once per antenna
    // on each of the 8 frame-completing sweeps (3 rx antennas), the
    // associate solve once per frame; p50/p99 populated and ordered.
    for (stage, expect) in [("profile_ns", 24), ("detect_ns", 24), ("associate_ns", 8)] {
        let s = report
            .find("pipeline", stage, Label::Sensor(7))
            .unwrap_or_else(|| panic!("missing pipeline stage {stage}"));
        let StatsValue::Histo(h) = s.value else {
            panic!("{stage} is not a histogram");
        };
        assert_eq!(h.count, expect, "{stage} timed every frame");
        assert!(
            h.p50 > 0 && h.p50 <= h.p99 && h.p99 <= h.max,
            "{stage}: {h:?}"
        );
    }

    // Engine-wide counters travel in the same report.
    let frames = report
        .find("engine", "frames_emitted", Label::Global)
        .expect("engine frames_emitted");
    assert_eq!(frames.value, StatsValue::Counter(8));

    client.teardown(7).unwrap();
    client.close();
    server.shutdown();
}

/// Satellite: sessions closed by a dropped connection (no `Teardown`)
/// and sessions still open at engine shutdown must still count, so
/// `sessions_opened == sessions_closed` once the engine is down.
#[test]
fn sessions_balance_without_teardown() {
    let base = reduced_base();
    let server = Server::builder(witrack_factory(base))
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    // Connection 1: hello + drop the connection without teardown
    // (connection-scoped cleanup closes it).
    let mut c1 = SensorClient::connect(TcpTransport::new(
        std::net::TcpStream::connect(addr).unwrap(),
    ))
    .unwrap();
    c1.hello(hello_for(&base, 1, PipelineKind::SingleTarget))
        .unwrap();
    let frame = silent_frame(&base);
    c1.send_sweeps(1, 0, &frame).unwrap();
    c1.close(); // EOF, no Teardown

    // Wait for the scoped cleanup to land.
    while server.metrics().sessions_closed < 1 {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let m = server.shutdown();
    assert_eq!(m.sessions_opened, 1);
    assert_eq!(
        m.sessions_closed, m.sessions_opened,
        "every opened session counts as closed: {m:?}"
    );
}

/// Sessions abandoned with their connection still up (no EOF cleanup
/// possible) close — and count — at engine shutdown.
#[test]
fn shutdown_closes_abandoned_sessions() {
    let base = reduced_base();
    let engine = ShardedEngine::builder(witrack_factory(base))
        .config(EngineConfig {
            num_shards: 2,
            ..EngineConfig::default()
        })
        .start();
    let handle = engine.handle();
    let (conn, _outbox) = handle.open_connection();
    for sensor in [1u32, 2, 3] {
        let hello = hello_for(&base, sensor, PipelineKind::SingleTarget);
        handle.submit(Message::Hello(hello), &conn).unwrap();
    }
    let m = engine.shutdown();
    assert_eq!(m.sessions_opened, 3);
    assert_eq!(m.sessions_closed, 3, "shutdown closes abandoned sessions");
}

/// Induced anomalies land in the flight recorder with their labels:
/// a sequence gap, a reject (stale sequence), and an ingress drop.
#[test]
fn flight_recorder_captures_induced_anomalies() {
    let base = reduced_base();
    let engine = ShardedEngine::builder(witrack_factory(base))
        .config(EngineConfig {
            num_shards: 1,
            queue_capacity: 1,
            overload: OverloadPolicy::DropNewest,
        })
        .start();
    let handle = engine.handle();
    let (conn, _outbox) = handle.open_connection();
    let hello = hello_for(&base, 5, PipelineKind::SingleTarget);
    handle.submit(Message::Hello(hello), &conn).unwrap();
    let frame = silent_frame(&base);
    let submit = |seq: u64| {
        let batch = wire::SweepBatchQ::from_sweeps(5, seq, &frame);
        handle.submit(Message::SweepBatchQ(batch), &conn).unwrap()
    };

    // A depth-1 DropNewest queue sheds whenever the worker is behind, so
    // the batches that *induce* the gap and the reject retry until queued.
    let submit_queued = |seq: u64| loop {
        let s = submit(seq);
        if s == Submitted::Queued {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    };
    // Seq 0, then jump to 3: a gap of 2.
    submit_queued(0);
    submit_queued(3);
    // Replay seq 0: a stale-sequence reject.
    submit_queued(0);
    // Flood a depth-1 queue until a drop is recorded.
    let mut dropped = false;
    for seq in 4..200u64 {
        if submit(seq) == Submitted::Dropped {
            dropped = true;
            break;
        }
    }
    assert!(dropped, "a depth-1 queue under flood must drop");
    let recorder = Arc::clone(engine.recorder());
    engine.shutdown();

    let dump = recorder.dump();
    let gap = dump
        .iter()
        .find(|a| a.kind == AnomalyKind::SeqGap)
        .expect("seq gap recorded");
    assert_eq!(gap.a, 5, "gap labeled with its sensor");
    assert_eq!(gap.b, 2, "gap size recorded");
    let reject = dump
        .iter()
        .find(|a| a.kind == AnomalyKind::Reject)
        .expect("reject recorded");
    assert_eq!(reject.a, 5, "reject labeled with its sensor");
    let drop_rec = dump
        .iter()
        .find(|a| a.kind == AnomalyKind::Drop)
        .expect("ingress drop recorded");
    assert_eq!(drop_rec.a, 5, "drop labeled with its sensor");
    assert_eq!(drop_rec.b, 0, "drop labeled with its shard");
    // The text dump names every kind it holds.
    let text = recorder.render_text();
    for needle in ["seq_gap", "reject", "drop"] {
        assert!(text.contains(needle), "dump text missing {needle}: {text}");
    }
}
