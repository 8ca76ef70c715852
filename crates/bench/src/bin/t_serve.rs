//! t_serve — how many concurrent sensor streams the sharded serving
//! engine sustains at real time, with a machine-readable
//! `BENCH_serve.json` artifact.
//!
//! A deployment's real-time rate is 80 frames/s (one frame per 12.5 ms,
//! §7). This harness records a few rooms of fleet signal up front
//! ([`witrack_sim::fleet`], flat frame buffers), pre-encodes each frame
//! as a wire `SweepBatchQ` (i16 steps + one scale), then for every
//! (shard count × sensor count) cell pushes the whole workload through a
//! [`witrack_serve::Server`] over the in-process transport: framing,
//! pooled i16 decode, shard routing, pipeline, pooled update encode. It
//! measures the sustained
//! per-sensor frame rate, the wire byte rate, and — from the engine's
//! telemetry registry — per-shard queue-wait and dequeue-to-report
//! latency p50/p99. A cell is "real-time" when every sensor's rate is
//! ≥ 80 frames/s.
//!
//! Flags: `--sensors A,B,..` (default `4,8,16,24,32,40`), `--shards
//! A,B,..` (default `1,2`), `--frames N` (per sensor, default 48),
//! `--seed N`, `--out PATH` (default `BENCH_serve.json`; `-` skips
//! writing). Rows carry `"wire": "i16"`, the key the perf gate compares
//! them under.

use std::time::Instant;
use witrack_bench::printing::banner;
use witrack_core::WiTrackConfig;
use witrack_obs::{HistoSnapshot, MetricSample, MetricValue};
use witrack_serve::engine::{EngineConfig, OverloadPolicy};
use witrack_serve::factory::{hello_quantized_for, witrack_factory};
use witrack_serve::transport::{in_proc_pair, TransportTx};
use witrack_serve::wire::{self, Message, PipelineKind, SweepBatch, SweepBatchQ, HEADER_LEN};
use witrack_serve::{SensorClient, Server};
use witrack_sim::{FleetConfig, FleetSimulator, SimConfig};

struct Options {
    sensors: Vec<usize>,
    shards: Vec<usize>,
    frames: u64,
    seed: u64,
    out: Option<String>,
}

fn parse_list(s: &str) -> Option<Vec<usize>> {
    s.split(',').map(|p| p.trim().parse().ok()).collect()
}

fn parse_options() -> Options {
    let mut opts = Options {
        sensors: vec![4, 8, 16, 24, 32, 40],
        shards: vec![1, 2],
        frames: 48,
        seed: 7,
        out: Some("BENCH_serve.json".into()),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sensors" => {
                if let Some(v) = it.next().as_deref().and_then(parse_list) {
                    opts.sensors = v;
                }
            }
            "--shards" => {
                if let Some(v) = it.next().as_deref().and_then(parse_list) {
                    opts.shards = v;
                }
            }
            "--frames" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    opts.frames = v;
                }
            }
            "--seed" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    opts.seed = v;
                }
            }
            "--out" => {
                opts.out = it.next().filter(|s| s != "-");
            }
            _ => {}
        }
    }
    opts
}

/// Flat per-frame sample buffers for a few distinct rooms (sensor `i`
/// replays room `i mod rooms` with its own sensor id and sequence).
fn record_rooms(base: &WiTrackConfig, rooms: usize, frames: u64, seed: u64) -> Vec<Vec<Vec<f64>>> {
    let duration_s = (frames as f64 + 1.0) * base.sweep.frame_duration_s();
    let fleet = FleetSimulator::new(FleetConfig {
        rooms,
        max_walkers_per_room: 1, // the acceptance scenario is single-target
        duration_s,
        sim: SimConfig {
            sweep: base.sweep,
            noise_std: 0.05,
            seed,
        },
    });
    let mut recorded = fleet.record_frames_flat(base.sweep.sweeps_per_frame);
    for room in &mut recorded {
        room.truncate(frames as usize);
    }
    recorded
}

/// Pre-encodes every room frame. Sensor id and sequence are zero here and
/// patched per send.
fn encode_rooms(base: &WiTrackConfig, rooms: &[Vec<Vec<f64>>]) -> Vec<Vec<Vec<u8>>> {
    let sweeps = base.sweep.sweeps_per_frame;
    let samples = base.sweep.samples_per_sweep();
    rooms
        .iter()
        .map(|room| {
            room.iter()
                .map(|flat| {
                    let batch = SweepBatch {
                        sensor_id: 0,
                        seq: 0,
                        n_sweeps: sweeps as u16,
                        n_rx: 3,
                        samples_per_sweep: samples as u32,
                        data: flat.clone(),
                    };
                    wire::encode(&Message::SweepBatchQ(SweepBatchQ::quantize(&batch)))
                })
                .collect()
        })
        .collect()
}

/// Patches the sensor id and sequence number into an encoded sweep-batch
/// frame (payload offsets 0..4 and 4..12).
fn patch_frame(frame: &mut [u8], sensor_id: u32, seq: u64) {
    frame[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&sensor_id.to_le_bytes());
    frame[HEADER_LEN + 4..HEADER_LEN + 12].copy_from_slice(&seq.to_le_bytes());
}

/// All shards' histograms for one `("shard", name)` series, merged.
fn merged_shard_histo(samples: &[MetricSample], name: &str) -> HistoSnapshot {
    let mut merged = HistoSnapshot::default();
    for s in samples {
        if s.key.subsystem == "shard" && s.key.name == name {
            if let MetricValue::Histo(h) = &s.value {
                merged.merge(h);
            }
        }
    }
    merged
}

struct CellResult {
    shards: usize,
    sensors: usize,
    frames_per_sensor: u64,
    bytes_per_frame: usize,
    elapsed_s: f64,
    max_inflight: u64,
    updates_dropped: u64,
    /// Merged across shards: enqueue→dequeue wait per batch.
    queue_wait: HistoSnapshot,
    /// Merged across shards: dequeue→report-sent service time per batch.
    service: HistoSnapshot,
}

impl CellResult {
    fn per_sensor_fps(&self) -> f64 {
        self.frames_per_sensor as f64 / self.elapsed_s.max(1e-12)
    }

    fn aggregate_fps(&self) -> f64 {
        self.per_sensor_fps() * self.sensors as f64
    }

    fn wire_mb_per_sec(&self) -> f64 {
        self.aggregate_fps() * self.bytes_per_frame as f64 / 1e6
    }
}

fn run_cell(
    base: &WiTrackConfig,
    shards: usize,
    sensors: usize,
    frames: u64,
    encoded: &[Vec<Vec<u8>>],
) -> CellResult {
    let server = Server::builder(witrack_factory(*base))
        .config(EngineConfig {
            num_shards: shards,
            // Deep enough that the producer rarely blocks mid-burst: on a
            // single-core host every block/wake pair is two context
            // switches, and a shallow queue (the old 8) spent ~10% of the
            // per-frame budget thrashing between producer and shard
            // threads. 32 also lets the drain loop pull larger batches,
            // which the cache-blocked frame dispatch turns into locality.
            queue_capacity: 32,
            overload: OverloadPolicy::Block,
        })
        .start();
    let (client_end, server_end) = in_proc_pair(128);
    server.attach(server_end).expect("in-proc attach");
    let mut client = SensorClient::connect(client_end).expect("in-proc connect");
    for id in 0..sensors as u32 {
        client
            .hello(hello_quantized_for(base, id, PipelineKind::SingleTarget))
            .expect("hello");
    }
    let bytes_per_frame = encoded[0][0].len();
    let start = Instant::now();
    for f in 0..frames {
        for id in 0..sensors as u32 {
            let mut bytes = encoded[id as usize % encoded.len()][f as usize].clone();
            patch_frame(&mut bytes, id, f);
            client.tx().send_frame(bytes).expect("send");
        }
    }
    for id in 0..sensors as u32 {
        client.teardown(id).expect("teardown");
    }
    // close() returns once the server has finished responding, so the
    // elapsed time covers every frame fully processed.
    let stats = client.close();
    let elapsed_s = start.elapsed().as_secs_f64();
    assert_eq!(stats.rejects, 0, "the workload must be protocol-clean");
    let samples = server.registry().snapshot();
    let queue_wait = merged_shard_histo(&samples, "queue_wait_ns");
    let service = merged_shard_histo(&samples, "dequeue_to_report_ns");
    let m = server.shutdown();
    // The engine may shed updates to a lagging client outbox (e.g. a
    // scheduler stall of the drain thread on a loaded CI host); that is
    // load-shedding behaving as designed, not a measurement failure, so
    // report it instead of asserting it away. Shed or not, every frame
    // was *processed*, which is what the throughput number measures.
    let expected = frames * sensors as u64;
    if stats.frames < expected {
        eprintln!(
            "note: client received {}/{} frames ({} server->client messages shed to a \
             lagging outbox)",
            stats.frames, expected, m.updates_dropped
        );
    }
    assert_eq!(m.frames_emitted, expected, "every frame must be processed");
    CellResult {
        shards,
        sensors,
        frames_per_sensor: frames,
        bytes_per_frame,
        elapsed_s,
        max_inflight: m.max_inflight,
        updates_dropped: m.updates_dropped,
        queue_wait,
        service,
    }
}

fn main() {
    let opts = parse_options();
    banner(
        "T-SERVE",
        "concurrent sensor streams sustained by the sharded serving engine",
        "real-time budget: 80 frames/s per sensor (one frame per 12.5 ms, §7)",
    );
    let base = WiTrackConfig::witrack_default();
    let frame_period_s = base.sweep.frame_duration_s();
    let realtime_fps = 1.0 / frame_period_s;
    let rooms = 4.min(opts.sensors.iter().copied().max().unwrap_or(1));
    eprintln!(
        "recording {} room(s) of fleet signal ({} frames each)...",
        rooms, opts.frames
    );
    let recorded = record_rooms(&base, rooms, opts.frames, opts.seed);

    println!(
        "config: {} samples/sweep, {} sweeps/frame, 3 rx antennas, frame period {:.1} ms\n",
        base.sweep.samples_per_sweep(),
        base.sweep.sweeps_per_frame,
        frame_period_s * 1e3
    );
    println!(
        "{:>6} {:>8} {:>8} {:>10} {:>12} {:>12} {:>10} {:>9} {:>15}",
        "shards",
        "sensors",
        "frames",
        "elapsed",
        "fps/sensor",
        "aggregate",
        "MB/s",
        "realtime",
        "svc p50/p99 us"
    );
    let mut results = Vec::new();
    let encoded = encode_rooms(&base, &recorded);
    for &s in &opts.shards {
        for &k in &opts.sensors {
            let r = run_cell(&base, s, k, opts.frames, &encoded);
            println!(
                "{:>6} {:>8} {:>8} {:>9.3}s {:>12.1} {:>12.1} {:>10.1} {:>9} {:>15}",
                r.shards,
                r.sensors,
                r.frames_per_sensor,
                r.elapsed_s,
                r.per_sensor_fps(),
                r.aggregate_fps(),
                r.wire_mb_per_sec(),
                if r.per_sensor_fps() >= realtime_fps {
                    "yes"
                } else {
                    "NO"
                },
                format!(
                    "{:.0}/{:.0}",
                    r.service.p50() as f64 / 1e3,
                    r.service.p99() as f64 / 1e3
                )
            );
            results.push(r);
        }
    }
    let sustained = results
        .iter()
        .filter(|r| r.per_sensor_fps() >= realtime_fps)
        .map(|r| r.sensors)
        .max()
        .unwrap_or(0);
    println!();
    println!("sensors sustained at real time: {sustained}");

    if let Some(path) = &opts.out {
        let cells: Vec<String> = results
            .iter()
            .map(|r| {
                format!(
                    concat!(
                        "    {{\n",
                        "      \"wire\": \"i16\",\n",
                        "      \"shards\": {},\n",
                        "      \"sensors\": {},\n",
                        "      \"frames_per_sensor\": {},\n",
                        "      \"bytes_per_frame\": {},\n",
                        "      \"elapsed_s\": {:.6},\n",
                        "      \"per_sensor_fps\": {:.2},\n",
                        "      \"aggregate_fps\": {:.2},\n",
                        "      \"wire_mb_per_sec\": {:.2},\n",
                        "      \"realtime\": {},\n",
                        "      \"max_inflight\": {},\n",
                        "      \"updates_dropped\": {},\n",
                        "      \"queue_wait_p50_ns\": {},\n",
                        "      \"queue_wait_p99_ns\": {},\n",
                        "      \"dequeue_to_report_p50_ns\": {},\n",
                        "      \"dequeue_to_report_p99_ns\": {}\n",
                        "    }}"
                    ),
                    r.shards,
                    r.sensors,
                    r.frames_per_sensor,
                    r.bytes_per_frame,
                    r.elapsed_s,
                    r.per_sensor_fps(),
                    r.aggregate_fps(),
                    r.wire_mb_per_sec(),
                    r.per_sensor_fps() >= realtime_fps,
                    r.max_inflight,
                    r.updates_dropped,
                    r.queue_wait.p50(),
                    r.queue_wait.p99(),
                    r.service.p50(),
                    r.service.p99()
                )
            })
            .collect();
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"t_serve\",\n",
                "  \"config\": {{\n",
                "    \"samples_per_sweep\": {},\n",
                "    \"sweeps_per_frame\": {},\n",
                "    \"num_rx\": 3,\n",
                "    \"frame_period_ms\": {:.3},\n",
                "    \"realtime_frames_per_sec\": {:.1},\n",
                "    \"rooms_recorded\": {},\n",
                "    \"pipeline\": \"single_target\",\n",
                "    \"transport\": \"in_process_wire\"\n",
                "  }},\n",
                "  \"results\": [\n{}\n  ],\n",
                "  \"sensors_sustained_realtime\": {{\n    \"i16\": {}\n  }}\n",
                "}}\n"
            ),
            base.sweep.samples_per_sweep(),
            base.sweep.sweeps_per_frame,
            frame_period_s * 1e3,
            realtime_fps,
            rooms,
            cells.join(",\n"),
            sustained
        );
        std::fs::write(path, json).expect("write serve JSON");
        println!("wrote {path}");
    }
}
