//! Chaos acceptance: the serving layer under transport faults.
//!
//! Covers the degradation contract end to end: fuzzed bytes never panic
//! the wire decoders, a corrupt payload costs one frame (reject +
//! anomaly) rather than the connection, a mid-frame EOF is recorded as a
//! truncated stream distinct from a clean close, a client whose
//! transport dies reconnects with backoff and monotone sequence numbers,
//! and a sensor that falls silent is demoted (Suspect → Dead) while the
//! room keeps fusing on the survivors — then recovers cleanly.

use proptest::prelude::*;
use std::io::{self, Write as _};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use witrack_core::WiTrackConfig;
use witrack_fmcw::SweepConfig;
use witrack_fuse::{FuseConfig, Registration};
use witrack_geom::{RigidTransform, Vec3};
use witrack_obs::AnomalyKind;
use witrack_serve::factory::{hello_for, witrack_factory};
use witrack_serve::hub::WorldConfig;
use witrack_serve::pool::PooledBuf;
use witrack_serve::transport::{
    in_proc_pair, InProcRx, InProcTransport, InProcTx, TcpTransport, Transport, TransportRx,
    TransportTx,
};
use witrack_serve::wire::{
    self, Hello, Message, PipelineKind, RejectCode, StatsQuery, SweepBatchQ, Teardown, HEADER_LEN,
};
use witrack_serve::{BackoffConfig, ReconnectingClient, SensorClient, Server, SubscriptionBuilder};

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

fn silent_sweeps(base: &WiTrackConfig) -> Vec<Vec<Vec<f64>>> {
    let n = base.sweep.samples_per_sweep();
    vec![vec![vec![0.0; n]; 3]; base.sweep.sweeps_per_frame]
}

// ---------------------------------------------------------------------------
// Decoder fuzz: random byte mutations of valid frames (and raw soup) must
// never panic, hang, or return nonsense offsets — only decode, reject, or
// ask for more bytes.

/// Representative frames of every shape the decoders special-case.
fn fuzz_corpus() -> Vec<Vec<u8>> {
    let sweeps = vec![
        vec![vec![0.5, -1.25, 3.0], vec![9.0, 10.0, -11.0]],
        vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]],
    ];
    let msgs = [
        Message::Hello(Hello {
            sensor_id: 42,
            kind: PipelineKind::MultiTarget,
            n_rx: 3,
            samples_per_sweep: 100,
            sweeps_per_frame: 5,
            quantized: false,
        }),
        Message::SweepBatchQ(SweepBatchQ::from_sweeps(42, 8, &sweeps)),
        Message::Teardown(Teardown { sensor_id: 42 }),
        Message::SubscribeV3(
            SubscriptionBuilder::room(3)
                .id(5)
                .zone(2)
                .rate_limit(2.0, 4)
                .build(),
        ),
        Message::StatsQuery(StatsQuery::default()),
    ];
    msgs.iter().map(wire::encode).collect()
}

/// Exercises every decode entry point on `buf`; asserts the contract that
/// holds for *arbitrary* bytes (no panic is implicit — a panic fails the
/// test), and that any success reports a sane consumed length.
fn decode_all_ways(buf: &[u8]) {
    if let Ok((_, frame_len)) = wire::decode_header(buf) {
        assert!(frame_len >= HEADER_LEN);
    }
    if let Ok((_, used)) = wire::decode(buf) {
        assert!(used >= HEADER_LEN && used <= buf.len());
    }
    let (mut samples, mut samples_q) = (Vec::new(), Vec::new());
    if let Ok((_, used)) = wire::decode_into_q(buf, &mut samples, &mut samples_q) {
        assert!(used >= HEADER_LEN && used <= buf.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_frames_never_panic_the_decoders(
        which in 0usize..5,
        flips in collection::vec((0usize..4096, 0u8..255), 1..12),
        cut in 0usize..4096,
    ) {
        let corpus = fuzz_corpus();
        let mut frame = corpus[which % corpus.len()].clone();
        for (at, val) in flips {
            let n = frame.len();
            frame[at % n] ^= val;
        }
        decode_all_ways(&frame);
        // Truncations of the mutant must also hold the contract.
        frame.truncate(cut % (frame.len() + 1));
        decode_all_ways(&frame);
    }

    #[test]
    fn random_byte_soup_never_panics_the_decoders(
        soup in collection::vec(0u8..255, 0..256),
    ) {
        decode_all_ways(&soup);
    }

    #[test]
    fn valid_prefixes_always_ask_for_more_not_less(
        which in 0usize..5,
        cut in 0usize..4096,
    ) {
        let corpus = fuzz_corpus();
        let frame = &corpus[which % corpus.len()];
        let cut = cut % frame.len();
        // An untouched prefix of a valid frame is *incomplete*, never
        // corrupt: a streaming reader must keep the bytes and wait.
        match wire::decode(&frame[..cut]) {
            Err(wire::WireError::Incomplete { needed }) => {
                prop_assert!(needed > cut, "asked for bytes it already has");
                prop_assert!(needed <= frame.len());
            }
            other => prop_assert!(false, "prefix of {cut} bytes: {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Server-side hardening over a real socket.

/// A frame with a valid header (type 6 = SweepBatchQ, correct length)
/// whose payload cannot decode: 4 bytes where the shape preamble needs
/// 20+.
fn corrupt_sweep_frame() -> Vec<u8> {
    let mut f = wire::encode(&Message::Teardown(Teardown { sensor_id: 0 }));
    f[5] = 6;
    f
}

fn wait_for_anomaly(server_dump: impl Fn() -> Vec<witrack_obs::Anomaly>, kind: AnomalyKind) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if server_dump().iter().any(|a| a.kind == kind) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "no {} anomaly recorded within 5 s",
            kind.name()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn corrupt_payload_draws_a_reject_and_the_session_survives() {
    let base = reduced_base();
    let server = Server::builder(witrack_factory(base))
        .bind("127.0.0.1:0")
        .expect("bind");
    let (mut tx, mut rx) = TcpTransport::connect(server.local_addr())
        .expect("connect")
        .split()
        .expect("split");
    tx.send_msg(&Message::Hello(hello_for(
        &base,
        1,
        PipelineKind::SingleTarget,
    )))
    .expect("hello");
    // A corrupt frame between two valid batches: the stream must survive
    // it and the batches on either side must still process.
    tx.send_msg(&Message::SweepBatchQ(SweepBatchQ::from_sweeps(
        1,
        0,
        &silent_sweeps(&base),
    )))
    .expect("batch 0");
    tx.send_frame(corrupt_sweep_frame()).expect("corrupt frame");
    tx.send_msg(&Message::SweepBatchQ(SweepBatchQ::from_sweeps(
        1,
        1,
        &silent_sweeps(&base),
    )))
    .expect("batch 1");
    tx.finish().expect("finish");
    let mut rejects = Vec::new();
    let mut frames = 0u64;
    while let Some(msg) = rx.recv_msg().expect("server hung up hard") {
        match msg {
            Message::Reject(r) => rejects.push(r),
            Message::UpdateBatch(u) => frames += u.updates.len() as u64,
            _ => {}
        }
    }
    assert_eq!(rejects.len(), 1, "exactly the corrupt frame was refused");
    assert_eq!(rejects[0].code, RejectCode::CorruptFrame);
    assert_eq!(rejects[0].sensor_id, 0, "a corrupt frame names no sensor");
    assert_eq!(frames, 2, "both valid batches survived the corruption");
    assert!(
        server
            .recorder()
            .dump()
            .iter()
            .any(|a| a.kind == AnomalyKind::Corrupt),
        "no Corrupt anomaly in the flight recorder"
    );
    let m = server.shutdown();
    assert_eq!(m.frames_emitted, 2);
}

#[test]
fn shed_corrupt_frame_rejects_are_counted() {
    const SENT: u64 = 100;
    let server = Server::builder(witrack_factory(reduced_base())).start();
    let (client_end, server_end) = in_proc_pair(1);
    let reader = server.attach(server_end).expect("attach");
    let (mut tx, mut rx) = client_end.split().expect("split");
    // The client does not read while it sends garbage: the writer blocks
    // on the 1-deep transport queue, the 64-deep outbox fills behind it,
    // and every further `CorruptFrame` reject must shed.
    for _ in 0..SENT {
        tx.send_frame(corrupt_sweep_frame()).expect("corrupt frame");
    }
    wait_for_anomaly(|| server.recorder().dump(), AnomalyKind::Shed);
    drop(tx);
    let mut delivered = 0u64;
    while let Some(msg) = rx.recv_msg().expect("server hung up hard") {
        match msg {
            Message::Reject(r) => assert_eq!(r.code, RejectCode::CorruptFrame),
            other => panic!("unexpected reply {other:?}"),
        }
        delivered += 1;
    }
    reader.join().expect("connection reader");
    let dump = server.recorder().dump();
    let conn = dump
        .iter()
        .find(|a| a.kind == AnomalyKind::Corrupt)
        .expect("corrupt frames recorded")
        .a;
    assert!(
        dump.iter()
            .any(|a| a.kind == AnomalyKind::Shed && a.a == conn),
        "shed reject recorded against its connection"
    );
    let m = server.shutdown();
    assert!(m.updates_dropped > 0, "a full outbox shed rejects: {m:?}");
    assert_eq!(
        delivered + m.updates_dropped,
        SENT,
        "every reject was delivered or counted as shed"
    );
}

#[test]
fn mid_frame_eof_is_recorded_as_truncated_stream() {
    let base = reduced_base();
    let server = Server::builder(witrack_factory(base))
        .bind("127.0.0.1:0")
        .expect("bind");
    let recorder = Arc::clone(server.recorder());
    {
        let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        // A valid frame, cut off mid-payload — then the peer "crashes".
        let frame = wire::encode(&Message::SweepBatchQ(SweepBatchQ::from_sweeps(
            1,
            0,
            &vec![vec![vec![1.0; 32]; 3]; 2],
        )));
        stream
            .write_all(&frame[..HEADER_LEN + 10])
            .expect("partial frame");
    } // drop = RST/FIN mid-frame
    wait_for_anomaly(|| recorder.dump(), AnomalyKind::TruncatedStream);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Client reconnect: a transport that dies mid-stream.

/// An in-proc transport whose send half starts failing (`BrokenPipe`)
/// after a budgeted number of frames — the receive half stays honest, so
/// the server sees a clean EOF once the client gives up on the tx.
struct FlakyTransport {
    inner: InProcTransport,
    sends_before_failure: u64,
}

struct FlakyTx {
    inner: InProcTx,
    remaining: u64,
}

impl Transport for FlakyTransport {
    type Tx = FlakyTx;
    type Rx = InProcRx;
    fn split(self) -> io::Result<(FlakyTx, InProcRx)> {
        let (tx, rx) = self.inner.split()?;
        Ok((
            FlakyTx {
                inner: tx,
                remaining: self.sends_before_failure,
            },
            rx,
        ))
    }
}

impl TransportTx for FlakyTx {
    fn send_frame(&mut self, frame: Vec<u8>) -> io::Result<()> {
        if self.remaining == 0 {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "flaky transport"));
        }
        self.remaining -= 1;
        self.inner.send_frame(frame)
    }
    fn send_pooled(&mut self, frame: PooledBuf<u8>) -> io::Result<()> {
        self.send_frame(frame.into_vec())
    }
    fn finish(&mut self) -> io::Result<()> {
        self.inner.finish()
    }
}

#[test]
fn reconnecting_client_survives_a_dying_transport() {
    let base = reduced_base();
    let server = Arc::new(Server::builder(witrack_factory(base)).start());
    let recorder = Arc::clone(server.recorder());

    // First connection dies after 3 frames (hello + 2 batches); every
    // redial gets a healthy one.
    let dial_count = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let factory = {
        let server = Arc::clone(&server);
        let dial_count = Arc::clone(&dial_count);
        move || {
            let (client_end, server_end) = in_proc_pair(64);
            server.attach(server_end).expect("attach");
            let n = dial_count.fetch_add(1, Ordering::Relaxed);
            Ok(FlakyTransport {
                inner: client_end,
                sends_before_failure: if n == 0 { 3 } else { u64::MAX },
            })
        }
    };
    let mut client = ReconnectingClient::connect(
        factory,
        hello_for(&base, 7, PipelineKind::SingleTarget),
        BackoffConfig {
            initial_ms: 5,
            seed: 3,
            ..BackoffConfig::default()
        },
    )
    .expect("connect")
    .with_recorder(Arc::clone(&recorder));

    let sweeps = silent_sweeps(&base);
    for want_seq in 0..5 {
        let seq = client.send_sweeps(&sweeps).expect("send survives faults");
        assert_eq!(seq, want_seq, "sequence numbers stay monotone");
    }
    assert_eq!(client.reconnects(), 1, "exactly one redial");
    let _ = client.close();
    assert!(
        recorder
            .dump()
            .iter()
            .any(|a| a.kind == AnomalyKind::Reconnect && a.a == 7),
        "reconnect not recorded"
    );
    // Wait for both connection threads to drain into the engine, then
    // confirm nothing was lost: 5 batches → 5 frames, and the redial's
    // session resumed at seq 2 (an honest forward gap, not a replay).
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.metrics().frames_emitted < 5 {
        assert!(Instant::now() < deadline, "frames never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }
    let server = Arc::try_unwrap(server).unwrap_or_else(|_| panic!("server still shared"));
    let m = server.shutdown();
    assert_eq!(m.frames_emitted, 5, "every batch processed exactly once");
    assert_eq!(m.seq_gaps, 2, "the resumed session declared its gap");
}

// ---------------------------------------------------------------------------
// Sensor failure model: silence → Suspect → Dead, fusion sheds the dead
// sensor, and a returning sensor re-registers cleanly.

#[test]
fn silent_sensor_degrades_gracefully_and_recovers() {
    let base = reduced_base();
    let fuse = FuseConfig::builder()
        .frame_period_s(base.sweep.frame_duration_s())
        // Aggressive timeouts so the test runs in well under a second of
        // wall clock (the room's shard sweeps every 50 ms).
        .suspect_timeout_s(0.06)
        .dead_timeout_s(0.15)
        .build();
    let registration = Registration::new()
        .with_sensor(1, RigidTransform::IDENTITY)
        .with_sensor(2, RigidTransform::from_yaw(0.0, Vec3::new(0.0, 8.0, 0.0)));
    let server = Server::builder(witrack_factory(base))
        .world(WorldConfig::single_room(1, fuse, registration))
        .start();
    let recorder = Arc::clone(server.recorder());
    let (client_end, server_end) = in_proc_pair(256);
    server.attach(server_end).expect("attach");
    let mut client = SensorClient::connect(client_end).expect("connect");
    client
        .subscribe_with(SubscriptionBuilder::room(1).build())
        .expect("subscribe");
    client
        .hello(hello_for(&base, 1, PipelineKind::SingleTarget))
        .expect("hello 1");
    client
        .hello(hello_for(&base, 2, PipelineKind::SingleTarget))
        .expect("hello 2");

    let sweeps = silent_sweeps(&base);
    // Phase 1: both sensors report; the room fuses normally.
    for seq in 0..20u64 {
        client.send_sweeps(1, seq, &sweeps).expect("send 1");
        client.send_sweeps(2, seq, &sweeps).expect("send 2");
        std::thread::sleep(Duration::from_millis(2));
    }
    // Phase 2: sensor 2 falls silent; sensor 1 keeps the room alive. The
    // room shard's liveness sweep must demote 2 (Stall anomaly at Suspect,
    // then SensorDead) without stalling epoch closure.
    let mut seq1 = 20u64;
    let deadline = Instant::now() + Duration::from_secs(5);
    while !recorder
        .dump()
        .iter()
        .any(|a| a.kind == AnomalyKind::SensorDead && a.a == 2)
    {
        assert!(
            Instant::now() < deadline,
            "sensor 2 was never declared dead"
        );
        client.send_sweeps(1, seq1, &sweeps).expect("send 1");
        seq1 += 1;
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        recorder
            .dump()
            .iter()
            .any(|a| a.kind == AnomalyKind::Stall && a.a == 2),
        "death must pass through Suspect (Stall anomaly) first"
    );
    // The room kept closing epochs on the survivor: world updates keep
    // arriving after the death verdict.
    let updates_at_death = client.stats().world_updates;
    for _ in 0..10 {
        client.send_sweeps(1, seq1, &sweeps).expect("send 1");
        seq1 += 1;
        std::thread::sleep(Duration::from_millis(2));
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while client.stats().world_updates <= updates_at_death {
        assert!(
            Instant::now() < deadline,
            "fusion stalled after sensor 2 died"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // Phase 3: sensor 2 comes back (same session, resumed seq) and must
    // be greeted as recovered, not rejected.
    let mut seq2 = 20u64;
    let deadline = Instant::now() + Duration::from_secs(5);
    while !recorder
        .dump()
        .iter()
        .any(|a| a.kind == AnomalyKind::SensorRecovered && a.a == 2)
    {
        assert!(Instant::now() < deadline, "sensor 2 never recovered");
        client.send_sweeps(1, seq1, &sweeps).expect("send 1");
        client.send_sweeps(2, seq2, &sweeps).expect("send 2");
        seq1 += 1;
        seq2 += 1;
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = client.close();
    assert_eq!(stats.rejects, 0, "recovery must not be refused");
    // The per-sensor liveness series exist and the recovery was counted.
    let rendered = server.registry().render_text();
    assert!(
        rendered.contains("witrack_sensor_liveness{sensor=\"2\"}"),
        "no liveness series for sensor 2:\n{rendered}"
    );
    let reconnect_line = rendered
        .lines()
        .find(|l| l.starts_with("witrack_sensor_reconnects{sensor=\"2\"}"))
        .expect("no reconnect series for sensor 2");
    let count: u64 = reconnect_line
        .rsplit(' ')
        .next()
        .and_then(|v| v.parse().ok())
        .expect("unparseable reconnect count");
    assert!(count >= 1, "recovery was not counted: {reconnect_line}");
    server.shutdown();
}
