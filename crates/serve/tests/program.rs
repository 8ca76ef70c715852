//! Programmable subscriptions (wire v3), end to end: decoder fuzzing
//! (malformed filter programs must reject, never panic), install-time
//! `BadProgram` rejects over the wire, `SubscribeAck` plumbing, the
//! unsubscribe path actually stopping hub work, and the deprecated v2
//! `Subscribe` shim staying wire-compatible.
//!
//! The end-to-end tests drive the hub through a stub [`FramePipeline`]
//! whose "walker" oscillates across a zone boundary — real RF simulation
//! is exercised elsewhere (`tests/world.rs`); here the subject is the
//! subscription machinery, so frames must be cheap and deterministic.

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use witrack_core::{FramePipeline, FrameReport, TargetReport};
use witrack_fuse::{FuseConfig, Registration, Zone};
use witrack_geom::{RigidTransform, Vec3};
use witrack_serve::engine::PipelineFactory;
use witrack_serve::hub::WorldConfig;
use witrack_serve::program::MAX_PROGRAM_OPS;
use witrack_serve::transport::{in_proc_pair, TransportTx};
use witrack_serve::wire::{
    self, Hello, Message, PipelineKind, RejectCode, Subscribe, SubscribeAck, SubscribeV3,
};
use witrack_serve::{
    EventKind, FilterProgram, MetricsSnapshot, Op, SensorClient, Server, SubscriptionBuilder,
};

const ROOM: u32 = 3;
const FRAME_S: f64 = 0.1;

// ---------------------------------------------------------------------------
// Decoder fuzzing: hostile bytes must fail cleanly.

/// Builds a type-12 (`SubscribeV3`) frame around an arbitrary payload.
fn v3_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(wire::HEADER_LEN + payload.len());
    frame.extend_from_slice(&wire::MAGIC.to_le_bytes());
    frame.push(wire::VERSION);
    frame.push(12); // SubscribeV3
    frame.extend_from_slice(&0u16.to_le_bytes()); // flags
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes in a `SubscribeV3` payload: the decoder returns
    /// `Ok` or a structured error, never panics — and anything it does
    /// accept must then compile or reject without panicking either.
    #[test]
    fn arbitrary_subscribe_payloads_never_panic(
        payload in collection::vec((0u32..256).prop_map(|b| b as u8), 0..160),
    ) {
        if let Ok((Message::SubscribeV3(sub), used)) = wire::decode(&v3_frame(&payload)) {
            prop_assert_eq!(used, wire::HEADER_LEN + payload.len());
            let _ = sub.program.compile();
        }
    }

    /// Structured-but-random op records: every record the decoder lets
    /// through must survive compilation (either verdict) and, when valid,
    /// evaluation — the server installs exactly this path.
    #[test]
    fn random_op_records_decode_compile_and_eval_without_panicking(
        records in collection::vec((0u8..12, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 0..12),
    ) {
        let mut payload = Vec::new();
        payload.extend_from_slice(&ROOM.to_le_bytes());
        payload.extend_from_slice(&7u64.to_le_bytes()); // sub_id
        payload.extend_from_slice(&0b11u16.to_le_bytes()); // world + events
        payload.extend_from_slice(&0u16.to_le_bytes());
        payload.extend_from_slice(&0f64.to_le_bytes()); // no rate cap
        payload.extend_from_slice(&(records.len() as u16).to_le_bytes());
        for &(code, a, b, f_bits) in &records {
            payload.push(code);
            payload.extend_from_slice(&(a as u32).to_le_bytes());
            payload.extend_from_slice(&(b as u32).to_le_bytes());
            // Raw bit patterns cover NaN, infinities, and negatives.
            payload.extend_from_slice(&f_bits.to_le_bytes());
        }
        if let Ok((Message::SubscribeV3(sub), _)) = wire::decode(&v3_frame(&payload)) {
            if let Ok(compiled) = sub.program.compile() {
                let mut state = compiled.new_state();
                for (i, kind) in [EventKind::Fall, EventKind::ZoneEntered, EventKind::OccupancyChanged]
                    .into_iter()
                    .enumerate()
                {
                    let ctx = witrack_serve::EventCtx {
                        kind: kind.wire_kind(),
                        zone: Some(i as u32),
                        track: Some(i as u64),
                        count: i as u32,
                        time_s: i as f64,
                    };
                    let verdict = compiled.eval(&mut state, &ctx);
                    // A rate-limited evaluation is by definition a
                    // suppressed would-be match, never also a match.
                    prop_assert!(!(verdict.matched && verdict.rate_limited));
                }
            }
        }
    }

    /// Programs built from the valid op vocabulary round-trip the wire
    /// bit-exactly (stack-valid or not — transport is agnostic).
    #[test]
    fn structurally_valid_programs_round_trip(
        raw_ops in collection::vec((1u8..10, 0u32..256, 0u32..256, 0u64..1_000_001), 0..10),
        sub_id in 0u64..u64::MAX,
        hz in 0f64..500.0,
    ) {
        let ops: Vec<Op> = raw_ops
            .iter()
            .map(|&(code, a, b, f)| {
                let f = f as f64 / 1e3;
                match code {
                    1 => Op::KindMask((a & 0xFF) as u16),
                    2 => Op::ZoneEq(a),
                    3 => Op::TrackEq((a as u64) | ((b as u64) << 32)),
                    4 => Op::And,
                    5 => Op::Or,
                    6 => Op::Not,
                    7 => Op::Debounce { min_interval_s: f },
                    8 => Op::RateLimit { per_s: f, burst: a },
                    _ => Op::OccupancyAbove { count: a, hold_s: f },
                }
            })
            .collect();
        let sub = SubscribeV3 {
            room_id: ROOM,
            sub_id,
            world_updates: true,
            events: true,
            max_update_hz: hz,
            program: FilterProgram { ops },
        };
        let frame = wire::encode(&Message::SubscribeV3(sub.clone()));
        let (back, used) = wire::decode(&frame).expect("round trip");
        prop_assert_eq!(used, frame.len());
        prop_assert_eq!(back, Message::SubscribeV3(sub));
    }
}

#[test]
fn oversized_programs_are_refused_at_decode() {
    let mut payload = Vec::new();
    payload.extend_from_slice(&ROOM.to_le_bytes());
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&0b11u16.to_le_bytes());
    payload.extend_from_slice(&0u16.to_le_bytes());
    payload.extend_from_slice(&0f64.to_le_bytes());
    payload.extend_from_slice(&((MAX_PROGRAM_OPS + 1) as u16).to_le_bytes());
    // No op records at all: the count alone must trip the budget check
    // before any allocation is sized from it.
    match wire::decode(&v3_frame(&payload)) {
        Err(wire::WireError::BadPayload(_)) => {}
        other => panic!("expected BadPayload, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// A cheap deterministic world: stub pipeline → fusion hub → subscriber.

/// A fake tracker: its lone target shuttles across `y = BOUNDARY_M`, so
/// every run emits `TrackBorn`, `ZoneEntered`/`ZoneExited`, and
/// `OccupancyChanged` events at a known cadence — no RF involved.
struct WalkerStub {
    frame: u64,
}

const BOUNDARY_M: f64 = 0.75;

impl FramePipeline for WalkerStub {
    fn num_rx(&self) -> usize {
        1
    }

    fn process_sweeps(&mut self, _per_rx: &[&[f64]]) -> Option<FrameReport> {
        let i = self.frame;
        self.frame += 1;
        // Triangle wave, period 20 frames, 0..1.5 m at 1.5 m/s — slow
        // enough to survive the fusion engine's speed gate.
        let phase = (i % 20) as i64;
        let y = (phase - 10).abs() as f64 * 0.15;
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
    Arc::new(|_hello: &Hello| Ok(Box::new(WalkerStub { frame: 0 }) as Box<dyn FramePipeline>))
}

fn stub_hello(sensor_id: u32) -> Hello {
    Hello {
        sensor_id,
        kind: PipelineKind::SingleTarget,
        n_rx: 1,
        samples_per_sweep: 1,
        sweeps_per_frame: 1,
        quantized: false,
    }
}

fn stub_world() -> WorldConfig {
    let fuse = FuseConfig::builder()
        .frame_period_s(FRAME_S)
        .zone(Zone {
            id: 5,
            name: "near end".into(),
            x: (-1.0, 1.0),
            y: (0.0, BOUNDARY_M),
        })
        // Wall-clock liveness has no business in a test that pauses
        // between streaming phases.
        .suspect_timeout_s(f64::INFINITY)
        .build();
    WorldConfig::single_room(
        ROOM,
        fuse,
        Registration::new().with_sensor(0, RigidTransform::IDENTITY),
    )
}

/// One tiny batch per frame: 1 sweep × 1 rx × 1 sample.
fn stream_frames(client: &mut SensorClient<impl witrack_serve::Transport>, seq0: u64, n: u64) {
    for seq in seq0..seq0 + n {
        client
            .send_sweeps(0, seq, &[vec![vec![0.0]]])
            .expect("send stub frame");
    }
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !done() {
        assert!(std::time::Instant::now() < deadline, "timed out: {what}");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// Polls the engine's metrics until two consecutive reads agree — the
/// in-flight pipeline work has drained into the hub's counters.
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

// ---------------------------------------------------------------------------
// Install-time validation over the wire.

#[test]
fn bad_program_is_rejected_and_the_connection_survives() {
    let server = Server::builder(stub_factory()).world(stub_world()).start();
    let (client_end, server_end) = in_proc_pair(32);
    server.attach(server_end).expect("attach");

    let seen: Arc<Mutex<(Vec<wire::Reject>, Vec<SubscribeAck>)>> =
        Arc::new(Mutex::new((Vec::new(), Vec::new())));
    let sink = Arc::clone(&seen);
    let mut client = SensorClient::connect_with(
        client_end,
        Some(Box::new(move |msg: &Message| {
            let mut s = sink.lock().expect("sink poisoned");
            match msg {
                Message::Reject(r) => s.0.push(*r),
                Message::SubscribeAck(a) => s.1.push(*a),
                _ => {}
            }
        })),
    )
    .expect("connect");

    // Stack-invalid: `And` with an empty stack. It decodes (transport is
    // structural) but must be refused at install time.
    client
        .subscribe_with(SubscribeV3 {
            room_id: ROOM,
            sub_id: 1,
            world_updates: true,
            events: true,
            max_update_hz: 0.0,
            program: FilterProgram { ops: vec![Op::And] },
        })
        .expect("send bad program");
    // The same connection then installs a valid subscription: a rejected
    // program must poison neither the connection nor later subscribes.
    client
        .subscribe_with(SubscriptionBuilder::room(ROOM).id(2).build())
        .expect("send good program");

    wait_until("ack for the valid subscription", || {
        client.stats().subscribe_acks == 1
    });
    let stats = client.close();
    server.shutdown();

    assert_eq!(stats.rejects, 1, "exactly the bad program is refused");
    let (rejects, acks) = Arc::try_unwrap(seen)
        .unwrap_or_else(|_| panic!("sink still shared"))
        .into_inner()
        .expect("sink poisoned");
    assert_eq!(rejects.len(), 1);
    assert_eq!(rejects[0].code, RejectCode::BadProgram);
    assert_eq!(rejects[0].sensor_id, ROOM, "reject names the room");
    assert_eq!(acks.len(), 1);
    assert_eq!(acks[0].room_id, ROOM);
    assert_eq!(acks[0].sub_id, 2, "ack echoes the client-chosen id");
    assert_eq!(acks[0].status, 0);
}

// ---------------------------------------------------------------------------
// The redesigned lifecycle: filter, counters, unsubscribe-stops-work.

#[test]
fn unsubscribe_returns_final_counters_and_stops_hub_evaluation() {
    let server = Server::builder(stub_factory()).world(stub_world()).start();
    let (client_end, server_end) = in_proc_pair(64);
    server.attach(server_end).expect("attach");
    let mut client = SensorClient::connect(client_end).expect("connect");

    const SUB: u64 = 42;
    client
        .subscribe_with(
            SubscriptionBuilder::room(ROOM)
                .events(EventKind::ZoneEntered | EventKind::ZoneExited)
                .id(SUB)
                .build(),
        )
        .expect("subscribe");
    wait_until("subscribe ack", || client.stats().subscribe_acks == 1);
    client.hello(stub_hello(0)).expect("hello");

    // Phase 1: the walker shuttles across the zone boundary; the filter
    // runs and zone events reach the subscriber.
    stream_frames(&mut client, 0, 60);
    wait_until("zone events at the subscriber", || {
        client.stats().world_events >= 4
    });
    let mid = settled_metrics(&server);
    assert!(mid.events_evaluated > 0, "the hub never ran the filter");
    assert!(mid.events_matched > 0, "the filter never matched");

    // Unsubscribe: the final per-subscription counters come back.
    client.unsubscribe(ROOM, SUB).expect("unsubscribe");
    wait_until("final subscription stats", || {
        client.last_subscription_stats().is_some()
    });
    let final_stats = client.last_subscription_stats().expect("stats polled");
    assert_eq!(final_stats.room_id, ROOM);
    assert_eq!(final_stats.sub_id, SUB);
    assert!(final_stats.evaluated > 0, "counters reflect hub work");
    assert!(final_stats.matched <= final_stats.evaluated);
    assert!(final_stats.shed <= final_stats.matched);

    // Phase 2: same traffic, no subscription. Events keep happening but
    // no filter runs and no bytes are offered — the closed subscription
    // consumes zero hub work.
    let before = settled_metrics(&server);
    stream_frames(&mut client, 60, 60);
    wait_until("phase-2 events at the hub", || {
        server.metrics().world_events > before.world_events
    });
    let after = settled_metrics(&server);
    assert_eq!(
        after.events_evaluated, before.events_evaluated,
        "a closed subscription still consumed evaluations"
    );
    assert_eq!(
        after.world_bytes, before.world_bytes,
        "a closed subscription was still encoded for"
    );

    let m = server.metrics();
    assert_eq!(m.subscriptions_opened, 1);
    assert_eq!(m.subscriptions_closed, 1);
    client.close();
    server.shutdown();
}

/// A subscriber whose reader stalls fills its connection's outbox with
/// world updates and events. The hub sheds that traffic, but the final
/// `SubscriptionStats` still arrives once the reader resumes, and its
/// `shed` counts only shed event messages, so it never exceeds `matched`.
#[test]
fn full_outbox_sheds_traffic_but_never_the_final_stats() {
    let server = Server::builder(stub_factory()).world(stub_world()).start();
    let (client_end, server_end) = in_proc_pair(1);
    server.attach(server_end).expect("attach");
    // The client's reader takes this lock for every message it reads,
    // so holding it stalls the connection's writer and then its outbox.
    let gate = Arc::new(Mutex::new(()));
    let reader_gate = Arc::clone(&gate);
    let mut client = SensorClient::connect_with(
        client_end,
        Some(Box::new(move |_: &Message| {
            drop(reader_gate.lock().expect("gate poisoned"));
        })),
    )
    .expect("connect");

    const SUB: u64 = 7;
    client
        .subscribe_with(SubscriptionBuilder::room(ROOM).id(SUB).build())
        .expect("subscribe");
    wait_until("subscribe ack", || client.stats().subscribe_acks == 1);
    client.hello(stub_hello(0)).expect("hello");

    let stalled = gate.lock().expect("gate poisoned");
    const FRAMES: u64 = 200;
    stream_frames(&mut client, 0, FRAMES);
    wait_until("every frame fused", || {
        server.metrics().world_frames >= FRAMES
    });
    client.unsubscribe(ROOM, SUB).expect("unsubscribe");
    wait_until("the hub released the subscription", || {
        server.metrics().subscriptions_closed == 1
    });
    drop(stalled);

    wait_until("final subscription stats", || {
        client.last_subscription_stats().is_some()
    });
    let stats = client.last_subscription_stats().expect("stats polled");
    client.close();
    let m = server.shutdown();

    assert_eq!(stats.sub_id, SUB);
    assert!(m.updates_dropped > 0, "the outbox never filled");
    assert!(stats.shed > 0, "no matched event was shed");
    assert!(
        stats.shed <= stats.matched,
        "shed {} exceeds matched {}",
        stats.shed,
        stats.matched
    );
}

#[test]
fn unknown_unsubscribe_is_rejected() {
    let server = Server::builder(stub_factory()).world(stub_world()).start();
    let (client_end, server_end) = in_proc_pair(8);
    server.attach(server_end).expect("attach");
    let mut client = SensorClient::connect(client_end).expect("connect");
    client.unsubscribe(ROOM, 999).expect("send");
    wait_until("reject for the unknown pair", || {
        client.stats().rejects == 1
    });
    assert!(client.last_subscription_stats().is_none());
    client.close();
    server.shutdown();
}

/// A selective filter does less delivery work than a match-all sibling
/// on the same connection: the zone-entry subscriber takes a strict
/// subset of the firehose subscriber's matches.
#[test]
fn selective_filters_match_a_strict_subset() {
    let server = Server::builder(stub_factory()).world(stub_world()).start();
    let (client_end, server_end) = in_proc_pair(64);
    server.attach(server_end).expect("attach");
    let mut client = SensorClient::connect(client_end).expect("connect");

    client
        .subscribe_with(SubscriptionBuilder::room(ROOM).id(1).build())
        .expect("subscribe firehose");
    client
        .subscribe_with(
            SubscriptionBuilder::room(ROOM)
                .events(EventKind::ZoneEntered)
                .zone(5)
                .id(2)
                .world_updates(false)
                .build(),
        )
        .expect("subscribe selective");
    wait_until("both acks", || client.stats().subscribe_acks == 2);
    client.hello(stub_hello(0)).expect("hello");
    stream_frames(&mut client, 0, 80);
    wait_until("events flowing", || client.stats().world_events >= 6);

    client.unsubscribe(ROOM, 2).expect("unsubscribe selective");
    wait_until("selective stats", || {
        client
            .last_subscription_stats()
            .is_some_and(|s| s.sub_id == 2)
    });
    let selective = client.last_subscription_stats().expect("selective");
    client.unsubscribe(ROOM, 1).expect("unsubscribe firehose");
    wait_until("firehose stats", || {
        client
            .last_subscription_stats()
            .is_some_and(|s| s.sub_id == 1)
    });
    let firehose = client.last_subscription_stats().expect("firehose");
    client.close();
    server.shutdown();

    assert!(firehose.matched > 0, "firehose saw events");
    assert!(selective.matched > 0, "the walker did enter the zone");
    assert!(
        selective.matched < firehose.matched,
        "zone-entries ({}) must be a strict subset of all events ({})",
        selective.matched,
        firehose.matched
    );
}

// ---------------------------------------------------------------------------
// The deprecated v2 shim.

/// An old client speaking wire-v2 `Subscribe` still gets the room
/// stream — no ack (the type predates acks), same updates and events.
/// The frame goes over the raw transport: no current client API emits
/// v2 `Subscribe` anymore, but the server must keep honouring it.
#[test]
fn v2_subscribe_shim_still_serves_the_world_stream() {
    let server = Server::builder(stub_factory()).world(stub_world()).start();
    let (client_end, server_end) = in_proc_pair(64);
    server.attach(server_end).expect("attach");
    let mut client = SensorClient::connect(client_end).expect("connect");

    client
        .tx()
        .send_msg(&Message::Subscribe(Subscribe::all(ROOM)))
        .expect("v2 subscribe");
    client.hello(stub_hello(0)).expect("hello");
    stream_frames(&mut client, 0, 60);
    wait_until("world stream over the v2 shim", || {
        let s = client.stats();
        s.world_updates > 0 && s.world_events > 0
    });
    let stats = client.close();
    let m = server.shutdown();

    assert_eq!(stats.rejects, 0);
    assert_eq!(
        stats.subscribe_acks, 0,
        "v2 clients must not receive v3 ack frames"
    );
    assert_eq!(m.subscriptions_opened, 1, "the shim installs one sub");
}
