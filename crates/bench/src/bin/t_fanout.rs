//! t_fanout — filtered fan-out at ten thousand programmable
//! subscriptions, with a machine-readable `BENCH_fanout.json` artifact.
//!
//! The redesigned Subscribe API moves filtering server-side: the hub
//! evaluates each subscription's compiled program *before* encoding, so
//! an event is encoded once and offered only to the subscribers whose
//! program matched. This harness measures what that buys. A stub
//! pipeline (no RF — the subject is delivery, not tracking) walks one
//! target through a 100-zone corridor, emitting a zone transition
//! almost every fused frame. Two cells run against the same workload:
//!
//! * `unfiltered` — every subscription is a v2-style firehose (world
//!   stream plus all events), the pre-redesign behaviour;
//! * `selective` — subscriptions want only `ZoneEntered` in one
//!   specific zone (`sub i` watches zone `i % 100`), so each event
//!   matches ~1% of the fleet and the world stream is off.
//!
//! Offered bytes (`engine world_bytes`, counted at the offer whether or
//! not the outbox sheds), filter-evaluation counters, and the per-event
//! evaluation latency quantiles (`room event_eval_ns`) come from the
//! engine's telemetry. The bin enforces the redesign's contract itself:
//! the unfiltered cell must offer at least 10x the bytes of the
//! selective cell, else it exits nonzero.
//!
//! Flags: `--subs N` (default 10000), `--conns N` (default 4),
//! `--frames N` (default 240; `--quick` is the CI preset, 120),
//! `--out PATH` (default `BENCH_fanout.json`; `-` skips writing).

use std::sync::Arc;
use std::time::Instant;
use witrack_bench::printing::banner;
use witrack_core::{FramePipeline, FrameReport, TargetReport};
use witrack_fuse::{FuseConfig, Registration, Zone};
use witrack_geom::{RigidTransform, Vec3};
use witrack_obs::{HistoSnapshot, MetricSample, MetricValue};
use witrack_serve::engine::{EngineConfig, OverloadPolicy, PipelineFactory};
use witrack_serve::hub::WorldConfig;
use witrack_serve::transport::{in_proc_pair, InProcTransport};
use witrack_serve::wire::{Hello, PipelineKind};
use witrack_serve::{EventKind, MetricsSnapshot, SensorClient, Server, SubscriptionBuilder};

const ROOM: u32 = 11;
const ZONES: u32 = 100;
/// Fused-epoch period of the stub world (s).
const FRAME_S: f64 = 0.1;
/// Walker step per frame (m) — one zone width, so nearly every frame
/// crosses a zone boundary (1.5 m/s, under the fusion speed gate).
const STEP_M: f64 = 0.15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Unfiltered,
    Selective,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Unfiltered => "unfiltered",
            Mode::Selective => "selective",
        }
    }
}

struct Options {
    subs: usize,
    conns: usize,
    frames: u64,
    out: Option<String>,
}

fn parse_options() -> Options {
    let mut opts = Options {
        subs: 10_000,
        conns: 4,
        frames: 240,
        out: Some("BENCH_fanout.json".into()),
    };
    let mut frames_set = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--subs" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    opts.subs = v;
                }
            }
            "--conns" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    opts.conns = v;
                }
            }
            "--frames" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    opts.frames = v;
                    frames_set = true;
                }
            }
            "--quick" if !frames_set => {
                opts.frames = 120;
            }
            "--out" => {
                opts.out = it.next().filter(|s| s != "-");
            }
            _ => {}
        }
    }
    opts.conns = opts.conns.clamp(1, opts.subs.max(1));
    opts
}

/// A fake tracker: its lone target paces a triangle wave through the
/// corridor, one zone width per frame, so the fused world emits
/// `ZoneExited`/`ZoneEntered`/`OccupancyChanged` at a known cadence.
struct CorridorStub {
    frame: u64,
}

impl FramePipeline for CorridorStub {
    fn num_rx(&self) -> usize {
        1
    }

    fn process_sweeps(&mut self, _per_rx: &[&[f64]]) -> Option<FrameReport> {
        let i = self.frame;
        self.frame += 1;
        let period = 2 * ZONES as u64;
        let phase = (i % period) as i64 - ZONES as i64;
        let y = (phase.abs() as f64).min(ZONES as f64 - 0.5) * STEP_M;
        Some(FrameReport {
            frame_index: i,
            time_s: i as f64 * FRAME_S,
            targets: vec![TargetReport {
                id: Some(1),
                position: Vec3::new(0.0, y, 1.0),
                velocity: None,
                held: false,
                pos_var: Some(Vec3::new(0.01, 0.01, 0.01)),
                innovation: None,
            }],
        })
    }

    fn reset(&mut self) {
        self.frame = 0;
    }
}

fn stub_factory() -> Arc<PipelineFactory> {
    Arc::new(|_hello: &Hello| Ok(Box::new(CorridorStub { frame: 0 }) as Box<dyn FramePipeline>))
}

fn corridor_world() -> WorldConfig {
    let mut builder = FuseConfig::builder().frame_period_s(FRAME_S);
    for z in 0..ZONES {
        builder = builder.zone(Zone {
            id: z,
            name: format!("strip {z}"),
            x: (-1.0, 1.0),
            y: (z as f64 * STEP_M, (z + 1) as f64 * STEP_M),
        });
    }
    // The bench pauses between phases; wall-clock liveness would start
    // marking the (perfectly healthy) stub sensor suspect.
    WorldConfig::single_room(
        ROOM,
        builder.suspect_timeout_s(f64::INFINITY).build(),
        Registration::new().with_sensor(0, RigidTransform::IDENTITY),
    )
}

/// All rooms' `event_eval_ns` histograms, merged.
fn merged_eval_histo(samples: &[MetricSample]) -> HistoSnapshot {
    let mut merged = HistoSnapshot::default();
    for s in samples {
        if s.key.subsystem == "room" && s.key.name == "event_eval_ns" {
            if let MetricValue::Histo(h) = &s.value {
                merged.merge(h);
            }
        }
    }
    merged
}

/// Polls the engine's metrics until two consecutive reads agree — the
/// in-flight hub work has drained into the counters.
fn settled_metrics(server: &Server) -> MetricsSnapshot {
    let mut prev = server.metrics();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(40));
        let next = server.metrics();
        if next == prev {
            return next;
        }
        prev = next;
    }
}

struct CellResult {
    mode: Mode,
    subs: usize,
    frames: u64,
    elapsed_s: f64,
    events: u64,
    bytes_offered: u64,
    events_evaluated: u64,
    events_matched: u64,
    events_rate_limited: u64,
    updates_shed: u64,
    delivered_msgs: u64,
    eval: HistoSnapshot,
}

impl CellResult {
    fn matched_per_sec(&self) -> f64 {
        self.events_matched as f64 / self.elapsed_s.max(1e-12)
    }
}

fn run_cell(mode: Mode, subs: usize, conns: usize, frames: u64) -> CellResult {
    let server = Server::builder(stub_factory())
        .config(EngineConfig {
            queue_capacity: 8,
            overload: OverloadPolicy::Block,
            ..Default::default()
        })
        .world(corridor_world())
        .start();

    // The subscriber fleet: `subs` subscriptions spread over `conns`
    // connections, ids 1..=subs. Outboxes are deliberately shallow (64):
    // the subject is what the hub *offers*, which is counted at the
    // offer; a lagging subscriber sheds, exactly as in production.
    let mut subscribers: Vec<SensorClient<InProcTransport>> = Vec::with_capacity(conns);
    for _ in 0..conns {
        let (client_end, server_end) = in_proc_pair(64);
        server.attach(server_end).expect("attach subscriber");
        subscribers.push(SensorClient::connect(client_end).expect("connect subscriber"));
    }
    for i in 0..subs {
        let sub_id = (i + 1) as u64;
        let builder = match mode {
            Mode::Unfiltered => SubscriptionBuilder::room(ROOM).id(sub_id),
            Mode::Selective => SubscriptionBuilder::room(ROOM)
                .events(EventKind::ZoneEntered)
                .zone((i as u32) % ZONES)
                .world_updates(false)
                .id(sub_id),
        };
        subscribers[i % conns]
            .subscribe_with(builder.build())
            .expect("subscribe");
    }
    // Acks ride the same shed-on-full outboxes as data (control replies
    // are deliberately not backpressure-exempt), so a burst of thousands
    // can legitimately shed a few. The authoritative install signal is
    // the hub's own counter.
    let deadline = Instant::now() + std::time::Duration::from_secs(30);
    while server.metrics().subscriptions_opened < subs as u64 {
        assert!(
            Instant::now() < deadline,
            "subscription installs timed out: {}/{} installed",
            server.metrics().subscriptions_opened,
            subs
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    for client in &subscribers {
        assert_eq!(client.stats().rejects, 0, "all programs must install");
    }

    // The feeder: one stub sensor, one tiny wire batch per frame.
    let (feeder_end, server_end) = in_proc_pair(64);
    server.attach(server_end).expect("attach feeder");
    let mut feeder = SensorClient::connect(feeder_end).expect("connect feeder");
    feeder
        .hello(Hello {
            sensor_id: 0,
            kind: PipelineKind::SingleTarget,
            n_rx: 1,
            samples_per_sweep: 1,
            sweeps_per_frame: 1,
            quantized: false,
        })
        .expect("hello");

    let start = Instant::now();
    for seq in 0..frames {
        feeder
            .send_sweeps(0, seq, &[vec![vec![0.0]]])
            .expect("send stub frame");
    }
    feeder.teardown(0).expect("teardown");
    feeder.close();
    let m = settled_metrics(&server);
    let elapsed_s = start.elapsed().as_secs_f64();

    let eval = merged_eval_histo(&server.registry().snapshot());
    server.shutdown();
    let delivered_msgs = subscribers
        .drain(..)
        .map(|client| {
            let s = client.close();
            s.world_updates + s.world_events
        })
        .sum();

    assert_eq!(
        m.subscriptions_opened, subs as u64,
        "every subscription must install"
    );
    CellResult {
        mode,
        subs,
        frames,
        elapsed_s,
        events: m.world_events,
        bytes_offered: m.world_bytes,
        events_evaluated: m.events_evaluated,
        events_matched: m.events_matched,
        events_rate_limited: m.events_rate_limited,
        updates_shed: m.updates_dropped,
        delivered_msgs,
        eval,
    }
}

fn main() {
    let opts = parse_options();
    banner(
        "T-FANOUT",
        "filtered event fan-out at 10k programmable subscriptions",
        "server-side programs: evaluate before encode, offer only to matches",
    );
    println!(
        "config: {} subscriptions over {} connections, {} frames, {} zones, \
         frame period {:.0} ms\n",
        opts.subs,
        opts.conns,
        opts.frames,
        ZONES,
        FRAME_S * 1e3
    );

    println!(
        "{:>11} {:>7} {:>9} {:>13} {:>11} {:>11} {:>9} {:>12} {:>13}",
        "mode",
        "subs",
        "events",
        "bytes off.",
        "evaluated",
        "matched",
        "shed",
        "matched/s",
        "eval p50/p99"
    );
    let cells: Vec<CellResult> = [Mode::Unfiltered, Mode::Selective]
        .into_iter()
        .map(|mode| {
            let r = run_cell(mode, opts.subs, opts.conns, opts.frames);
            println!(
                "{:>11} {:>7} {:>9} {:>13} {:>11} {:>11} {:>9} {:>12.0} {:>13}",
                r.mode.label(),
                r.subs,
                r.events,
                r.bytes_offered,
                r.events_evaluated,
                r.events_matched,
                r.updates_shed,
                r.matched_per_sec(),
                format!(
                    "{:.0}/{:.0}us",
                    r.eval.p50() as f64 / 1e3,
                    r.eval.p99() as f64 / 1e3
                )
            );
            r
        })
        .collect();

    let bytes_ratio =
        cells[0].bytes_offered as f64 / (cells[1].bytes_offered as f64).max(f64::MIN_POSITIVE);
    println!(
        "\nbytes offered, unfiltered vs selective: {:.1}x (contract: >= 10x)",
        bytes_ratio
    );

    if let Some(path) = &opts.out {
        let rows: Vec<String> = cells
            .iter()
            .map(|r| {
                format!(
                    concat!(
                        "    {{\n",
                        "      \"mode\": \"{}\",\n",
                        "      \"subscriptions\": {},\n",
                        "      \"frames\": {},\n",
                        "      \"elapsed_s\": {:.6},\n",
                        "      \"events\": {},\n",
                        "      \"bytes_offered\": {},\n",
                        "      \"events_evaluated\": {},\n",
                        "      \"events_matched\": {},\n",
                        "      \"events_rate_limited\": {},\n",
                        "      \"updates_shed\": {},\n",
                        "      \"delivered_msgs\": {},\n",
                        "      \"matched_events_per_sec\": {:.2},\n",
                        "      \"eval_p50_ns\": {},\n",
                        "      \"eval_p99_ns\": {}\n",
                        "    }}"
                    ),
                    r.mode.label(),
                    r.subs,
                    r.frames,
                    r.elapsed_s,
                    r.events,
                    r.bytes_offered,
                    r.events_evaluated,
                    r.events_matched,
                    r.events_rate_limited,
                    r.updates_shed,
                    r.delivered_msgs,
                    r.matched_per_sec(),
                    r.eval.p50(),
                    r.eval.p99()
                )
            })
            .collect();
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"t_fanout\",\n",
                "  \"config\": {{\n",
                "    \"subscriptions\": {},\n",
                "    \"connections\": {},\n",
                "    \"frames\": {},\n",
                "    \"zones\": {},\n",
                "    \"frame_period_ms\": {:.1},\n",
                "    \"selectivity\": {:.4},\n",
                "    \"transport\": \"in_process_wire\"\n",
                "  }},\n",
                "  \"results\": [\n{}\n  ],\n",
                "  \"bytes_ratio\": {:.2}\n",
                "}}\n"
            ),
            opts.subs,
            opts.conns,
            opts.frames,
            ZONES,
            FRAME_S * 1e3,
            1.0 / ZONES as f64,
            rows.join(",\n"),
            bytes_ratio
        );
        std::fs::write(path, json).expect("write fanout JSON");
        println!("wrote {path}");
    }

    assert!(
        bytes_ratio >= 10.0,
        "selective programs must cut offered bytes at least 10x \
         (got {bytes_ratio:.1}x)"
    );
}
