//! Engine + server integration: full wire path over in-process transports
//! (no sockets), session lifecycle, a real walker tracked end-to-end over
//! TCP loopback, and overload behavior.

use std::sync::Arc;
use witrack_core::{FramePipeline, FrameReport, WiTrackConfig};
use witrack_fmcw::SweepConfig;
use witrack_geom::Vec3;
use witrack_serve::engine::{EngineConfig, OverloadPolicy, ShardedEngine, Submitted};
use witrack_serve::factory::{hello_for, witrack_factory};
use witrack_serve::server::Server;
use witrack_serve::transport::{in_proc_pair, TcpTransport};
use witrack_serve::wire::{self, Hello, Message, PipelineKind, RejectCode, SweepBatchQ};
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

/// Decodes one reply frame from an in-process connection's outbox.
fn decode(frame: &[u8]) -> Message {
    wire::decode(frame).expect("reply decodes").0
}

/// Dechirped sweeps for a reflector at `p`, one frame's worth.
fn frame_for(
    base: &WiTrackConfig,
    array: &witrack_geom::AntennaArray,
    p: Vec3,
) -> Vec<Vec<Vec<f64>>> {
    use std::f64::consts::PI;
    let sw = &base.sweep;
    let n = sw.samples_per_sweep();
    let one_sweep: Vec<Vec<f64>> = (0..array.num_rx())
        .map(|k| {
            let rt = array.round_trip(p, k);
            let tau = rt / 299_792_458.0;
            let beat = sw.beat_for_tof(tau);
            let phase = 2.0 * PI * sw.start_freq_hz * tau;
            (0..n)
                .map(|i| {
                    let t = i as f64 / sw.sample_rate_hz;
                    (2.0 * PI * beat * t + phase).cos()
                })
                .collect()
        })
        .collect();
    vec![one_sweep; sw.sweeps_per_frame]
}

#[test]
fn two_sensors_multiplex_one_in_process_connection() {
    let base = reduced_base();
    let server = Server::builder(witrack_factory(base)).start();
    let (client_end, server_end) = in_proc_pair(64);
    server.attach(server_end).unwrap();
    let mut client = SensorClient::connect(client_end).unwrap();

    client
        .hello(hello_for(&base, 1, PipelineKind::SingleTarget))
        .unwrap();
    client
        .hello(hello_for(&base, 2, PipelineKind::MultiTarget))
        .unwrap();
    let frame = silent_frame(&base);
    for seq in 0..6u64 {
        client.send_sweeps(1, seq, &frame).unwrap();
        client.send_sweeps(2, seq, &frame).unwrap();
    }
    client.teardown(1).unwrap();
    client.teardown(2).unwrap();
    let stats = client.close();
    // 6 frames per sensor, batched one frame per update batch.
    assert_eq!(stats.frames, 12, "stats: {stats:?}");
    assert_eq!(stats.rejects, 0);
    assert_eq!(stats.targets, 0, "silence tracks nobody");

    let m = server.shutdown();
    assert_eq!(m.sessions_opened, 2);
    assert_eq!(m.sessions_closed, 2);
    assert_eq!(m.frames_emitted, 12);
    assert_eq!(m.batches_dropped, 0);
    assert_eq!(m.updates_dropped, 0);
}

#[test]
fn a_walker_is_tracked_over_tcp_loopback() {
    let base = reduced_base();
    let server = Server::builder(witrack_factory(base))
        .bind("127.0.0.1:0")
        .unwrap();
    let array =
        witrack_geom::TArray::symmetric(base.array_origin, base.antenna_separation).antenna_array();

    let positions = Arc::new(std::sync::Mutex::new(Vec::<Vec3>::new()));
    let sink = Arc::clone(&positions);
    let transport = TcpTransport::connect(server.local_addr()).unwrap();
    let mut client = SensorClient::connect_with(
        transport,
        Some(Box::new(move |msg: &Message| {
            if let Message::UpdateBatch(u) = msg {
                let mut p = sink.lock().unwrap();
                p.extend(
                    u.updates
                        .iter()
                        .flat_map(|r| r.targets.iter().map(|t| t.position)),
                );
            }
        })),
    )
    .unwrap();

    client
        .hello(hello_for(&base, 11, PipelineKind::SingleTarget))
        .unwrap();
    let mut truth = Vec::new();
    for f in 0..60 {
        let s = f as f64 / 60.0;
        let p = Vec3::new(-1.0 + 2.0 * s, 4.0 + 2.0 * s, 1.2);
        truth.push(p);
        client
            .send_sweeps(11, f, &frame_for(&base, &array, p))
            .unwrap();
    }
    client.teardown(11).unwrap();
    let stats = client.close();
    assert_eq!(stats.frames, 60);
    assert!(
        stats.targets > 30,
        "walker mostly tracked, got {}",
        stats.targets
    );

    // The positions that came back over the socket are near the truth.
    let positions = positions.lock().unwrap();
    let worst = positions
        .iter()
        .map(|est| {
            truth
                .iter()
                .map(|t| est.distance(*t))
                .fold(f64::INFINITY, f64::min)
        })
        .fold(0.0_f64, f64::max);
    assert!(worst < 1.5, "worst distance to trajectory {worst}");

    let m = server.shutdown();
    assert_eq!(m.frames_emitted, 60);
    assert_eq!(m.unknown_sensor, 0);
    assert_eq!(m.updates_dropped, 0);
}

/// The two ends of a gate a pipeline's first sweep waits at: it says it
/// has entered, then blocks until the gate opens.
type Gate = (std::sync::mpsc::Sender<()>, std::sync::mpsc::Receiver<()>);

/// A pipeline that burns `pause` per sweep: forces queue buildup
/// deterministically. With a gate, its first sweep holds the thread
/// running it — and so its shard — until the gate opens.
struct SlowPipeline {
    frame: u64,
    pause: std::time::Duration,
    gate: Option<Gate>,
}

impl FramePipeline for SlowPipeline {
    fn num_rx(&self) -> usize {
        3
    }

    fn process_sweeps_flat_q(&mut self, _: &[i16], _: usize, _: f64) -> Option<FrameReport> {
        if let Some((entered, open)) = self.gate.take() {
            entered.send(()).unwrap();
            open.recv().unwrap();
        }
        std::thread::sleep(self.pause);
        let r = FrameReport {
            frame_index: self.frame,
            time_s: 0.0,
            targets: Vec::new(),
        };
        self.frame += 1;
        Some(r)
    }

    fn reset(&mut self) {
        self.frame = 0;
    }
}

#[test]
fn drop_newest_sheds_load_and_counts_it() {
    let cfg = EngineConfig {
        num_shards: 1,
        queue_capacity: 2,
        overload: OverloadPolicy::DropNewest,
    };
    let engine = ShardedEngine::builder(Arc::new(|_h: &_| {
        Ok(Box::new(SlowPipeline {
            frame: 0,
            pause: std::time::Duration::from_millis(20),
            gate: None,
        }) as _)
    }))
    .config(cfg)
    .start();
    let handle = engine.handle();
    let (conn, outbox) = handle.open_connection();
    // The hello's stream shape must match the tiny 4-sample batches the
    // flood sends (batches that disagree with the hello are refused).
    handle
        .submit(
            Message::Hello(witrack_serve::Hello {
                sensor_id: 0,
                kind: PipelineKind::SingleTarget,
                n_rx: 3,
                samples_per_sweep: 4,
                sweeps_per_frame: 1,
                quantized: false,
            }),
            &conn,
        )
        .unwrap();
    // Flood: a 20 ms/sweep pipeline with a depth-2 queue cannot keep up
    // with 50 instantaneous one-sweep batches, so some must drop.
    let mut queued = 0;
    let mut dropped = 0;
    for seq in 0..50u64 {
        let batch = SweepBatchQ::from_sweeps(0, seq, &[vec![vec![0.0; 4]; 3]]);
        match handle.submit(Message::SweepBatchQ(batch), &conn).unwrap() {
            Submitted::Queued => queued += 1,
            Submitted::Dropped => dropped += 1,
        }
    }
    assert!(dropped > 0, "flood never overflowed the bounded queue");
    assert_eq!(queued + dropped, 50);
    let m = engine.shutdown();
    assert_eq!(m.batches_dropped, dropped);
    assert_eq!(
        m.batches_in as i64,
        queued as i64 + 1,
        "hello + queued batches"
    );
    // The engine still emitted one report per batch it accepted, and
    // every one fit the outbox (at most 50 replies for 64 slots).
    let emitted = outbox
        .try_iter()
        .filter(|f| matches!(decode(f), Message::UpdateBatch(_)))
        .count();
    assert_eq!(emitted as u64, queued);
    assert_eq!(m.updates_dropped, 0);
    assert!(
        m.max_inflight >= 2,
        "queue reached its bound, lag was observed"
    );
}

#[test]
fn wrong_sweep_length_batch_is_refused_not_a_panic() {
    let base = reduced_base();
    let engine = ShardedEngine::builder(witrack_factory(base)).start();
    let handle = engine.handle();
    let (conn, outbox) = handle.open_connection();
    let hello = hello_for(&base, 5, PipelineKind::SingleTarget);
    handle.submit(Message::Hello(hello), &conn).unwrap();
    // Self-consistent wire batch whose sweeps are 10 samples instead of
    // the configured length: must bounce as BadConfig, not reach the
    // pipeline's panicking length assert and kill the shard.
    let bad = SweepBatchQ::from_sweeps(5, 0, &[vec![vec![0.0; 10]; 3]]);
    handle.submit(Message::SweepBatchQ(bad), &conn).unwrap();
    match decode(&outbox.recv().unwrap()) {
        Message::Reject(r) => {
            assert_eq!(r.sensor_id, 5);
            assert_eq!(r.code, RejectCode::BadConfig);
        }
        other => panic!("expected reject, got {other:?}"),
    }
    // The shard survived: a well-shaped frame still processes.
    let good = SweepBatchQ::from_sweeps(5, 1, &silent_frame(&base));
    handle.submit(Message::SweepBatchQ(good), &conn).unwrap();
    match decode(&outbox.recv().unwrap()) {
        Message::UpdateBatch(u) => assert_eq!(u.updates.len(), 1),
        other => panic!("expected updates, got {other:?}"),
    }
    let m = engine.shutdown();
    assert_eq!(m.batches_rejected, 1);
    assert_eq!(m.frames_emitted, 1);
    assert_eq!(m.updates_dropped, 0);
}

#[test]
fn refused_hello_reaches_the_client_and_leaves_no_state() {
    let base = reduced_base();
    let server = Server::builder(witrack_factory(base)).start();
    let (client_end, server_end) = in_proc_pair(64);
    server.attach(server_end).unwrap();
    let mut client = SensorClient::connect(client_end).unwrap();
    // A hello the factory refuses (wrong sweep shape)...
    let mut bad = hello_for(&base, 3, PipelineKind::SingleTarget);
    bad.samples_per_sweep += 1;
    client.hello(bad).unwrap();
    // ...then a corrected one for the same sensor, which must open
    // normally (the refused hello left nothing behind).
    client
        .hello(hello_for(&base, 3, PipelineKind::SingleTarget))
        .unwrap();
    client.send_sweeps(3, 0, &silent_frame(&base)).unwrap();
    // close() must not hang, the reject must have been delivered, and the
    // real session's updates must still arrive.
    let stats = client.close();
    assert_eq!(stats.rejects, 1, "the refused hello was reported");
    assert_eq!(stats.frames, 1, "the corrected session worked");
    let m = server.shutdown();
    assert_eq!(m.sessions_opened, 1);
    assert_eq!(m.sessions_closed, 1, "EOF cleanup closed the real session");
    assert_eq!(m.updates_dropped, 0);
}

#[test]
fn unknown_sensor_batches_are_rejected_over_the_wire() {
    let base = reduced_base();
    let server = Server::builder(witrack_factory(base)).start();
    let (client_end, server_end) = in_proc_pair(64);
    server.attach(server_end).unwrap();
    let mut client = SensorClient::connect(client_end).unwrap();
    // No hello at all: every batch must bounce back as a wire-visible
    // Reject, not vanish into silent data loss.
    for seq in 0..3 {
        client.send_sweeps(9, seq, &silent_frame(&base)).unwrap();
    }
    let stats = client.close();
    assert_eq!(stats.rejects, 3, "every orphan batch was reported");
    assert_eq!(stats.frames, 0);
    let m = server.shutdown();
    assert_eq!(m.unknown_sensor, 3);
    assert_eq!(m.sessions_opened, 0);
    assert_eq!(m.updates_dropped, 0);
}

#[test]
fn connection_close_tears_down_only_the_sessions_it_owns() {
    let base = reduced_base();
    let server = Server::builder(witrack_factory(base)).start();
    let attach = || {
        let (client_end, server_end) = in_proc_pair(64);
        let reader = server.attach(server_end).unwrap();
        let rejects = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&rejects);
        let client = SensorClient::connect_with(
            client_end,
            Some(Box::new(move |msg: &Message| {
                if let Message::Reject(r) = msg {
                    sink.lock().unwrap().push(*r);
                }
            })),
        )
        .unwrap();
        (client, reader, rejects)
    };
    let frame = silent_frame(&base);
    let wait_for_frames = |client: &SensorClient<_>, n: u64| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while client.stats().frames < n {
            assert!(std::time::Instant::now() < deadline, "updates stopped");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    };

    // Connection A owns sensor 3.
    let (mut a, a_reader, a_rejects) = attach();
    a.hello(hello_for(&base, 3, PipelineKind::SingleTarget))
        .unwrap();
    a.send_sweeps(3, 0, &frame).unwrap();
    wait_for_frames(&a, 1);

    // Connection B claims sensor 3 too: only B hears the refusal.
    let (mut b, b_reader, b_rejects) = attach();
    b.hello(hello_for(&base, 3, PipelineKind::SingleTarget))
        .unwrap();
    let b_stats = b.close();
    b_reader.join().unwrap();
    assert_eq!(b_stats.rejects, 1);
    assert_eq!(
        b_rejects.lock().unwrap()[0].code,
        RejectCode::DuplicateSensor
    );
    assert_eq!(b_rejects.lock().unwrap()[0].sensor_id, 3);

    // B's close queued a scoped teardown for sensor 3 ahead of A's next
    // batches on the same shard; A's session must outlive it.
    for seq in 1..4 {
        a.send_sweeps(3, seq, &frame).unwrap();
    }
    wait_for_frames(&a, 4);
    assert_eq!(server.metrics().sessions_closed, 0, "B's close spared A");

    let a_stats = a.close();
    assert_eq!(a_stats.frames, 4);
    assert_eq!(a_stats.rejects, 0, "A never heard of B's duplicate");
    assert!(a_rejects.lock().unwrap().is_empty());
    a_reader.join().unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.metrics().sessions_closed < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "A's close never ended its session"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let m = server.shutdown();
    assert_eq!(m.sessions_opened, 1);
    assert_eq!(m.sessions_closed, 1);
    assert_eq!(m.updates_dropped, 0);
}

#[test]
fn inline_and_queued_runs_keep_a_connection_in_order() {
    // A connection reader runs a message itself only when its shard is
    // idle; otherwise the message queues. Connection A opens one sensor
    // at a time over TCP — a hello, then its batches — while connection
    // B occupies the one shard:
    // - sensor 1 says hello while B's first batch holds the shard, so
    //   its hello and first batches queue, and the rest follow back to
    //   back as the shard drains;
    // - sensors 2 and 3 send back to back while B keeps the shard busy
    //   on and off, so their messages run both ways;
    // - sensor 4 sends one batch per update with B gone, so its batches
    //   run inline.
    // Each of A's update streams must equal an all-queued run bit for
    // bit, and no batch may overtake its hello.
    const SENSORS: std::ops::Range<u32> = 1..5;
    const BUSY: u32 = 99;
    const FRAMES: u64 = 30;
    const GATED: usize = 3;
    let base = reduced_base();
    let array =
        witrack_geom::TArray::symmetric(base.array_origin, base.antenna_separation).antenna_array();
    let batches = |sensor_id: u32| -> Vec<SweepBatchQ> {
        (0..FRAMES)
            .map(|f| {
                let s = (f + sensor_id as u64) as f64 / FRAMES as f64;
                let p = Vec3::new(-1.0 + 2.0 * s, 4.0 + s, 1.2);
                SweepBatchQ::from_sweeps(sensor_id, f, &frame_for(&base, &array, p))
            })
            .collect()
    };
    let (entered_tx, entered) = std::sync::mpsc::channel();
    let (open, open_rx) = std::sync::mpsc::channel();
    let gate = std::sync::Mutex::new(Some((entered_tx, open_rx)));
    let witrack = witrack_factory(base);
    let factory: Arc<witrack_serve::PipelineFactory> = Arc::new(move |h: &Hello| {
        if h.sensor_id == BUSY {
            Ok(Box::new(SlowPipeline {
                frame: 0,
                pause: std::time::Duration::from_micros(300),
                gate: gate.lock().unwrap().take(),
            }) as _)
        } else {
            witrack(h)
        }
    });
    let cfg = EngineConfig {
        num_shards: 1,
        ..EngineConfig::default()
    };
    let hello = |sensor_id| hello_for(&base, sensor_id, PipelineKind::SingleTarget);
    // Re-encoded from the decoded message on both sides.
    let canonical = |msg: &Message| wire::encode(msg);

    // Reference: the engine handle queues every message, and every batch
    // completes a frame (one update each).
    let engine = ShardedEngine::builder(Arc::clone(&factory))
        .config(cfg)
        .start();
    let handle = engine.handle();
    let (conn, outbox) = handle.open_connection();
    let mut reference = Vec::new();
    for sensor_id in SENSORS {
        handle
            .submit(Message::Hello(hello(sensor_id)), &conn)
            .unwrap();
        for b in batches(sensor_id) {
            handle.submit(Message::SweepBatchQ(b), &conn).unwrap();
            reference.push(canonical(&decode(&outbox.recv().unwrap())));
        }
    }
    engine.shutdown();

    let server = Server::builder(factory).config(cfg).start();
    let queue_depth = server
        .registry()
        .gauge("shard", "queue_depth", witrack_obs::Label::Shard(0));
    // Gives up quietly at one deadline for the whole run: a lost or
    // refused message then fails the assertions below, after every
    // connection has closed.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let wait_until = |done: &dyn Fn() -> bool| {
        while !done() && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    };
    let (busy_end, busy_server_end) = in_proc_pair(64);
    server.attach(busy_server_end).unwrap();
    let mut busy = SensorClient::connect(busy_end).unwrap();
    busy.hello(Hello {
        sensor_id: BUSY,
        kind: PipelineKind::SingleTarget,
        n_rx: 3,
        samples_per_sweep: 4,
        sweeps_per_frame: 1,
        quantized: false,
    })
    .unwrap();
    let busy_batch = |seq| SweepBatchQ::from_sweeps(BUSY, seq, &[vec![vec![0.0; 4]; 3]]);
    // B's first batch holds the shard at the gate.
    busy.send_batch(busy_batch(0)).unwrap();
    entered
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("B's first batch never ran: did it overtake B's hello?");
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut busy = Some(busy);
    let mut busy_thread = None;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let stream = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (accepted, _) = listener.accept().unwrap();
    let reader = server.attach(TcpTransport::new(accepted)).unwrap();
    let updates = Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = Arc::clone(&updates);
    let mut client = SensorClient::connect_with(
        TcpTransport::new(stream),
        Some(Box::new(move |msg: &Message| {
            if let Message::UpdateBatch(u) = msg {
                if SENSORS.contains(&u.sensor_id) {
                    sink.lock().unwrap().push(canonical(msg));
                }
            }
        })),
    )
    .unwrap();
    let received = || updates.lock().unwrap().len();
    for sensor_id in SENSORS {
        // The previous sensor's updates are all back first.
        let done = (sensor_id - SENSORS.start) as usize * FRAMES as usize;
        wait_until(&|| received() >= done);
        let mut batches = batches(sensor_id).into_iter();
        client.hello(hello(sensor_id)).unwrap();
        match sensor_id {
            1 => {
                for b in batches.by_ref().take(GATED) {
                    client.send_batch(b).unwrap();
                }
                // The hello and the first batches wait in the queue.
                wait_until(&|| queue_depth.get() == GATED as i64 + 1);
                open.send(()).unwrap();
                // From here on, B keeps the shard busy on and off.
                let mut busy = busy.take().unwrap();
                let stop = Arc::clone(&stop);
                busy_thread = Some(std::thread::spawn(move || {
                    let mut seq = 1;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        busy.send_batch(busy_batch(seq)).unwrap();
                        seq += 1;
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    busy.close()
                }));
            }
            4 => {
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
                for (i, b) in batches.by_ref().enumerate() {
                    client.send_batch(b).unwrap();
                    wait_until(&|| received() > done + i);
                }
            }
            _ => {}
        }
        for b in batches {
            client.send_batch(b).unwrap();
        }
    }
    let stats = client.close();
    reader.join().unwrap();
    let busy_stats = busy_thread.unwrap().join().unwrap();
    let inline_runs = server
        .registry()
        .counter("shard", "inline_runs", witrack_obs::Label::Shard(0))
        .get();
    let m = server.shutdown();

    assert_eq!(stats.rejects, 0, "a batch overtook its hello");
    assert_eq!(busy_stats.rejects, 0);
    assert_eq!(m.unknown_sensor, 0);
    assert_eq!(m.updates_dropped, 0);
    assert!(
        *updates.lock().unwrap() == reference,
        "served updates differ from the all-queued run"
    );
    assert!(
        inline_runs > 0 && inline_runs < m.batches_in,
        "{inline_runs} of {} messages ran inline: the runs did not mix",
        m.batches_in
    );
}

#[test]
fn an_idle_engine_stops_within_one_message() {
    // A shard thread that finds its queue empty after shutdown's wake
    // exits at once, instead of sleeping out the rest of its 50-ms
    // liveness tick first. An engine stopped right after it starts has
    // nearly the whole tick left to sleep; the median of a few rounds
    // stays far below it even on a loaded host.
    let mut rounds: Vec<std::time::Duration> = (0..7)
        .map(|_| {
            let engine = ShardedEngine::builder(witrack_factory(reduced_base()))
                .config(EngineConfig {
                    num_shards: 1,
                    ..EngineConfig::default()
                })
                .start();
            let started = std::time::Instant::now();
            engine.shutdown();
            started.elapsed()
        })
        .collect();
    rounds.sort();
    assert!(
        rounds[rounds.len() / 2] < std::time::Duration::from_millis(20),
        "shutdown waited out the liveness tick: {rounds:?}"
    );
}
