//! End-to-end world-model acceptance: real RF simulation → wire → shards
//! (each fused room on the shard of its sensors) → wire subscriber.
//!
//! Two sensors with overlapping coverage watch the same walkers
//! ([`witrack_sim::vantage`]); their baseband streams enter the server
//! over the wire protocol exactly as deployed sensors would, and a
//! subscriber on the same connection receives the fused room stream. The
//! tests assert the world model's contract: exactly one world track per
//! person (no duplicates), identity stable across the coverage handoff,
//! fused accuracy no worse than the best single sensor, and fleet events
//! (falls) delivered over the wire.

use std::f64::consts::PI;
use std::sync::{Arc, Mutex};
use witrack_core::fall::FallConfig;
use witrack_core::WiTrackConfig;
use witrack_fuse::{FuseConfig, Registration, WorldEvent};
use witrack_geom::AntennaArray;
use witrack_geom::{RigidTransform, Vec3};
use witrack_serve::engine::{EngineConfig, OverloadPolicy, ShardedEngine};
use witrack_serve::factory::{hello_for, witrack_factory};
use witrack_serve::hub::WorldConfig;
use witrack_serve::transport::in_proc_pair;
use witrack_serve::wire::{self, EventMsg, Message, PipelineKind, WorldUpdateMsg};
use witrack_serve::{SensorClient, Server, SubscriptionBuilder};
use witrack_sim::motion::{Activity, ActivityScript, LinePath};
use witrack_sim::multi::PersonSpec;
use witrack_sim::vantage::{scenario, MultiVantageSimulator};
use witrack_sim::SimConfig;

const HALLWAY_M: f64 = 12.0;
const COVERAGE_M: f64 = 8.0;
const ROOM: u32 = 1;

fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

fn mid_base() -> WiTrackConfig {
    WiTrackConfig {
        sweep: witrack_fmcw::SweepConfig::witrack_mid(),
        max_round_trip_m: 40.0,
        ..WiTrackConfig::witrack_default()
    }
}

fn hallway_registration() -> (Registration, RigidTransform) {
    let world_from_s1 = RigidTransform::from_yaw(PI, Vec3::new(0.0, HALLWAY_M, 0.0));
    (
        Registration::new()
            .with_sensor(0, RigidTransform::IDENTITY)
            .with_sensor(1, world_from_s1)
            // Declared coverage matches the simulator's hard coverage
            // edge, arming the corroboration ghost filter in the overlap.
            .with_coverage(0, COVERAGE_M)
            .with_coverage(1, COVERAGE_M),
        world_from_s1,
    )
}

fn room_fuse_config(base: &WiTrackConfig, fall: FallConfig) -> FuseConfig {
    FuseConfig {
        frame_period_s: base.sweep.frame_duration_s(),
        // Radar z is the coarse axis (stem geometry amplifies range error
        // into elevation) and the per-sensor filters under-report that,
        // so the observation floor is widened for gating robustness.
        obs_std_floor_m: 0.25,
        gate_mahalanobis_sq: 25.0,
        // The sim's coverage edge is hard and SNR at 8 m is healthy, so a
        // real body entering the overlap corroborates within a few
        // frames; half a second of grace is plenty at 333 fps.
        max_uncorroborated_epochs: 150,
        coverage_margin_m: 0.25,
        // Wall-mirror ghosts are world-coherent (both sensors see the
        // same wall reflection), so corroboration cannot kill them — but
        // they are always born within ~2.5 m of the body that casts
        // them. A wide initiation exclusion keeps them from ever seeding
        // world tracks; association keeps existing tracks apart at any
        // range, so only co-located *births* are deferred.
        min_new_track_separation_m: 2.5,
        fall,
        ..FuseConfig::default()
    }
}

struct Collected {
    updates: Vec<WorldUpdateMsg>,
    events: Vec<EventMsg>,
    sensor_reports: Vec<(u32, witrack_core::FrameReport)>,
}

/// Streams a multi-vantage sim through a world-serving engine of
/// `num_shards` shards over the in-process wire; returns everything the
/// subscribing client received.
fn run_world(
    base: WiTrackConfig,
    fuse: FuseConfig,
    mut sim: MultiVantageSimulator,
    kind: PipelineKind,
    num_shards: usize,
) -> Collected {
    let (registration, _) = hallway_registration();
    let server = Server::builder(witrack_factory(base))
        .config(EngineConfig {
            num_shards,
            queue_capacity: 8,
            overload: OverloadPolicy::Block,
        })
        .world(WorldConfig::single_room(ROOM, fuse, registration))
        .start();
    let (client_end, server_end) = in_proc_pair(64);
    server.attach(server_end).expect("attach");

    let collected = Arc::new(Mutex::new(Collected {
        updates: Vec::new(),
        events: Vec::new(),
        sensor_reports: Vec::new(),
    }));
    let sink = Arc::clone(&collected);
    let mut client = SensorClient::connect_with(
        client_end,
        Some(Box::new(move |msg: &Message| {
            let mut c = sink.lock().expect("collector poisoned");
            match msg {
                Message::WorldUpdate(w) => c.updates.push(w.clone()),
                Message::Event(e) => c.events.push(*e),
                Message::UpdateBatch(u) => {
                    for r in &u.updates {
                        c.sensor_reports.push((u.sensor_id, r.clone()));
                    }
                }
                _ => {}
            }
        })),
    )
    .expect("connect");

    client
        .subscribe_with(SubscriptionBuilder::room(ROOM).build())
        .expect("subscribe");
    for sensor in 0..sim.num_vantages() as u32 {
        client.hello(hello_for(&base, sensor, kind)).expect("hello");
    }

    let sweeps_per_frame = base.sweep.sweeps_per_frame;
    let mut pending: Vec<Vec<Vec<Vec<f64>>>> = vec![Vec::new(); sim.num_vantages()];
    let mut seq = vec![0u64; sim.num_vantages()];
    while let Some(round) = sim.next_round() {
        for rs in round {
            let v = rs.sensor_id as usize;
            pending[v].push(rs.set.per_rx);
            if pending[v].len() == sweeps_per_frame {
                client
                    .send_sweeps(rs.sensor_id, seq[v], &pending[v])
                    .expect("send");
                seq[v] += 1;
                pending[v].clear();
            }
        }
    }
    for sensor in 0..2u32 {
        client.teardown(sensor).expect("teardown");
    }
    let stats = client.close();
    assert_eq!(stats.rejects, 0, "nothing should be refused");
    assert!(stats.world_updates > 0, "no world frames reached the wire");
    server.shutdown();
    Arc::try_unwrap(collected)
        .unwrap_or_else(|_| panic!("collector still shared"))
        .into_inner()
        .expect("collector poisoned")
}

#[test]
fn unknown_subscriptions_are_rejected_over_the_wire() {
    let base = mid_base();
    let (registration, _) = hallway_registration();
    // A server fusing one room: subscribing to a room it does not fuse
    // must come back as a Reject, not silence (and not a hangup).
    let server = Server::builder(witrack_factory(base))
        .world(WorldConfig::single_room(
            ROOM,
            FuseConfig::default(),
            registration,
        ))
        .start();
    let (client_end, server_end) = in_proc_pair(8);
    server.attach(server_end).expect("attach");
    let rejects = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&rejects);
    let mut client = SensorClient::connect_with(
        client_end,
        Some(Box::new(move |msg: &Message| {
            if let Message::Reject(r) = msg {
                sink.lock().expect("sink poisoned").push(*r);
            }
        })),
    )
    .expect("connect");
    client
        .subscribe_with(SubscriptionBuilder::room(999).build())
        .expect("send");
    client
        .subscribe_with(SubscriptionBuilder::room(ROOM).build())
        .expect("send");
    let stats = client.close();
    server.shutdown();
    assert_eq!(stats.rejects, 1, "exactly the bogus room is refused");
    let rejects = rejects.lock().expect("sink poisoned");
    assert_eq!(rejects.len(), 1);
    assert_eq!(rejects[0].sensor_id, 999, "reject names the bad room id");
    assert_eq!(
        rejects[0].code,
        witrack_serve::wire::RejectCode::UnknownSubscription
    );

    // A server fusing no rooms at all refuses every subscription.
    let server = Server::builder(witrack_factory(base)).start();
    let (client_end, server_end) = in_proc_pair(8);
    server.attach(server_end).expect("attach");
    let mut client = SensorClient::connect(client_end).expect("connect");
    client
        .subscribe_with(SubscriptionBuilder::room(ROOM).build())
        .expect("send");
    let stats = client.close();
    server.shutdown();
    assert_eq!(stats.rejects, 1, "no rooms: every subscription refused");
}

#[test]
fn a_subscription_reject_waits_out_a_full_outbox() {
    // An engine fusing no rooms, and a connection whose outbox is full
    // because nobody reads it: the refusal of a subscription is a
    // control reply, so it must be held until the outbox drains — never
    // shed like a world update.
    let engine = ShardedEngine::builder(witrack_factory(mid_base())).start();
    let handle = engine.handle();
    let (conn, outbox) = handle.open_connection();
    for _ in 0..witrack_serve::engine::OUTBOX_CAPACITY {
        handle
            .submit(Message::StatsQuery(wire::StatsQuery { flags: 0 }), &conn)
            .expect("stats query");
    }
    assert_eq!(
        handle.metrics().updates_dropped,
        0,
        "the outbox holds them all"
    );
    handle
        .submit(
            Message::SubscribeV3(SubscriptionBuilder::room(ROOM).build()),
            &conn,
        )
        .expect("subscribe");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while handle.metrics().batches_rejected == 0 {
        assert!(std::time::Instant::now() < deadline, "never refused");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    let mut reports = 0;
    let reject = loop {
        let frame = outbox
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the reject arrives once the outbox drains");
        match wire::decode(&frame).expect("a wire frame").0 {
            Message::StatsReport(_) => reports += 1,
            Message::Reject(r) => break r,
            other => panic!("unexpected {other:?}"),
        }
    };
    assert_eq!(reports, witrack_serve::engine::OUTBOX_CAPACITY);
    assert_eq!(reject.sensor_id, ROOM);
    assert_eq!(
        reject.code,
        witrack_serve::wire::RejectCode::UnknownSubscription
    );
    let metrics = engine.shutdown();
    assert_eq!(metrics.updates_dropped, 0, "the reject was never shed");
}

#[test]
fn a_subscriber_connection_closes_after_server_shutdown() {
    // The room's shard holds the subscriber's outbox sender, and the
    // connection's writer exits only once every sender is gone. Shutting
    // down first must still let the connection close: each shard drops
    // its rooms as it exits.
    let base = mid_base();
    let (registration, _) = hallway_registration();
    let server = Server::builder(witrack_factory(base))
        .world(WorldConfig::single_room(
            ROOM,
            FuseConfig::default(),
            registration,
        ))
        .start();
    let (client_end, server_end) = in_proc_pair(8);
    server.attach(server_end).expect("attach");
    let (ack_tx, ack_rx) = std::sync::mpsc::channel();
    let mut client = SensorClient::connect_with(
        client_end,
        Some(Box::new(move |msg: &Message| {
            if let Message::SubscribeAck(_) = msg {
                let _ = ack_tx.send(());
            }
        })),
    )
    .expect("connect");
    client
        .subscribe_with(SubscriptionBuilder::room(ROOM).build())
        .expect("subscribe");
    ack_rx.recv().expect("subscription installed");
    server.shutdown();
    assert_eq!(client.close().subscribe_acks, 1);
}

#[test]
fn each_fused_epoch_leaves_before_the_update_that_closed_it() {
    // One sensor, one room: every report closes exactly one epoch. The
    // connection feeding the sensor also subscribes to the room, so its
    // outbox carries both streams in the order the server pushed them —
    // and a fused location must not trail the update it came from.
    let base = mid_base();
    let registration = Registration::new().with_sensor(0, RigidTransform::IDENTITY);
    let fuse = room_fuse_config(&base, FallConfig::default());
    let server = Server::builder(witrack_factory(base))
        .world(WorldConfig::single_room(ROOM, fuse, registration))
        .start();
    let (client_end, server_end) = in_proc_pair(64);
    server.attach(server_end).expect("attach");

    enum Seen {
        Ack,
        World,
        Update { reports: usize },
    }
    let (seen_tx, seen_rx) = std::sync::mpsc::channel();
    let mut client = SensorClient::connect_with(
        client_end,
        Some(Box::new(move |msg: &Message| {
            let seen = match msg {
                Message::SubscribeAck(_) => Seen::Ack,
                Message::WorldUpdate(_) => Seen::World,
                Message::UpdateBatch(u) => Seen::Update {
                    reports: u.updates.len(),
                },
                _ => return,
            };
            let _ = seen_tx.send(seen);
        })),
    )
    .expect("connect");
    client
        .subscribe_with(SubscriptionBuilder::room(ROOM).no_events().build())
        .expect("subscribe");
    // The subscription must be in before the first report, or the
    // room's first epochs would close with nobody to send them to.
    assert!(matches!(seen_rx.recv().expect("ack"), Seen::Ack));
    client
        .hello(hello_for(&base, 0, PipelineKind::SingleTarget))
        .expect("hello");

    let from = Vec3::new(0.0, 2.5, 1.0);
    let to = Vec3::new(0.0, 5.0, 1.0);
    let mut sim = MultiVantageSimulator::new(
        SimConfig {
            sweep: base.sweep,
            noise_std: 0.05,
            seed: 5,
        },
        AntennaArray::t_shape(Vec3::new(0.0, 0.0, 1.0), 1.0),
        scenario::facing_pair(HALLWAY_M, COVERAGE_M)
            .into_iter()
            .take(1)
            .collect(),
        vec![PersonSpec::adult(LinePath::new(
            from,
            to,
            from.distance(to) / 1.5,
        ))],
    );
    let mut pending = Vec::new();
    let mut seq = 0;
    while let Some(round) = sim.next_round() {
        for rs in round {
            pending.push(rs.set.per_rx);
            if pending.len() == base.sweep.sweeps_per_frame {
                client.send_sweeps(0, seq, &pending).expect("send");
                seq += 1;
                pending.clear();
            }
        }
    }
    // Read every report back before hanging up: closing the connection
    // drops its subscription while the shard may still hold batches.
    let (mut worlds, mut reports, mut batches) = (0, 0, 0);
    while reports < seq as usize {
        let seen = seen_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("every report comes back");
        match seen {
            Seen::Ack => panic!("one subscription, one ack"),
            Seen::World => worlds += 1,
            Seen::Update { reports: n } => {
                reports += n;
                batches += 1;
                assert!(
                    worlds >= reports,
                    "update batch {batches} brings the report count to {reports}, \
                     but only {worlds} world updates arrived ahead of it"
                );
            }
        }
    }
    client.teardown(0).expect("teardown");
    client.close();
    let metrics = server.shutdown();
    assert_eq!(metrics.updates_dropped, 0, "nothing may shed here");
    assert!(batches > 100, "only {batches} update batches");
    assert_eq!(worlds, reports, "one fused epoch per report");
}

/// The handoff scenario's length (s) and its two walkers' paths. Walker
/// A crosses the whole hallway (sensor 0's exclusive region → overlap →
/// sensor 1's exclusive region: the handoff); walker B crosses the other
/// way. Offset in x so the crossing is never ambiguous.
const HANDOFF_S: f64 = 7.0;
const HANDOFF_PATHS: [(Vec3, Vec3); 2] = [
    (Vec3::new(-1.2, 2.2, 1.05), Vec3::new(-1.2, 9.8, 1.05)),
    (Vec3::new(1.2, 9.8, 0.95), Vec3::new(1.2, 2.2, 0.95)),
];

fn handoff_sim(base: &WiTrackConfig) -> MultiVantageSimulator {
    let people = HANDOFF_PATHS
        .iter()
        .map(|&(from, to)| {
            PersonSpec::adult(LinePath::new(from, to, from.distance(to) / HANDOFF_S))
        })
        .collect();
    MultiVantageSimulator::new(
        SimConfig {
            sweep: base.sweep,
            noise_std: 0.05,
            seed: 9,
        },
        AntennaArray::t_shape(Vec3::new(0.0, 0.0, 1.0), 1.0),
        scenario::facing_pair(HALLWAY_M, COVERAGE_M),
        people,
    )
}

#[test]
fn two_sensors_two_walkers_two_world_tracks_across_handoff() {
    let duration = HANDOFF_S;
    let [a_path, b_path] = HANDOFF_PATHS;
    let base = mid_base();
    let sim = handoff_sim(&base);
    let fuse = room_fuse_config(&base, FallConfig::default());
    let period = fuse.frame_period_s;
    let got = run_world(
        base,
        fuse,
        sim,
        PipelineKind::MultiTarget,
        EngineConfig::default().num_shards,
    );

    let truth_a = |t: f64| a_path.0.lerp(a_path.1, (t / duration).clamp(0.0, 1.0));
    let truth_b = |t: f64| b_path.0.lerp(b_path.1, (t / duration).clamp(0.0, 1.0));
    let (world_from_s1, s0_pose) = {
        let (_, p1) = hallway_registration();
        (p1, RigidTransform::IDENTITY)
    };

    // --- Exactly two world tracks, never more (no cross-sensor
    // duplicates), with stable identity per walker (no swaps).
    let warmup_s = 2.0;
    let settled: Vec<&WorldUpdateMsg> = got
        .updates
        .iter()
        .filter(|u| u.frame.time_s > warmup_s && u.frame.time_s < duration - 0.5)
        .collect();
    assert!(settled.len() > 500, "only {} settled epochs", settled.len());
    let mut owner: [Option<witrack_fuse::WorldTrackId>; 2] = [None, None];
    let mut two_track_epochs = 0usize;
    let mut fused_errs: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for u in &settled {
        assert!(
            u.frame.tracks.len() <= 2,
            "duplicate world tracks at t={:.2}: {:?}",
            u.frame.time_s,
            u.frame.tracks
        );
        if u.frame.tracks.len() == 2 {
            two_track_epochs += 1;
        }
        for (wi, truth) in [truth_a(u.frame.time_s), truth_b(u.frame.time_s)]
            .into_iter()
            .enumerate()
        {
            let Some(nearest) = u
                .frame
                .tracks
                .iter()
                .min_by(|x, y| {
                    x.position
                        .distance(truth)
                        .partial_cmp(&y.position.distance(truth))
                        .expect("finite")
                })
                .filter(|t| t.position.distance(truth) < 1.0)
            else {
                continue;
            };
            fused_errs[wi].push(nearest.position.distance(truth));
            match owner[wi] {
                None => owner[wi] = Some(nearest.id),
                Some(id) => assert_eq!(
                    id, nearest.id,
                    "walker {wi} changed identity at t={:.2} (handoff swap)",
                    u.frame.time_s
                ),
            }
        }
    }
    assert!(
        two_track_epochs as f64 > settled.len() as f64 * 0.8,
        "both walkers tracked in only {two_track_epochs}/{} settled epochs",
        settled.len()
    );
    let (a_id, b_id) = (
        owner[0].expect("walker A never covered"),
        owner[1].expect("walker B never covered"),
    );
    assert_ne!(a_id, b_id, "both walkers share one world track");

    // --- Fused accuracy: median 3D error per walker must not exceed the
    // best single sensor's (fusion averages out the per-viewpoint
    // surface bias and the per-sensor noise).
    let mut per_sensor_errs: [[Vec<f64>; 2]; 2] = Default::default();
    for (sensor, report) in &got.sensor_reports {
        if report.time_s <= warmup_s || report.time_s >= duration - 0.5 {
            continue;
        }
        let pose = if *sensor == 0 {
            &s0_pose
        } else {
            &world_from_s1
        };
        for target in &report.targets {
            let world_pos = pose.apply(target.position);
            for (wi, truth) in [truth_a(report.time_s), truth_b(report.time_s)]
                .into_iter()
                .enumerate()
            {
                if world_pos.distance(truth) < 1.0 {
                    per_sensor_errs[*sensor as usize][wi].push(world_pos.distance(truth));
                }
            }
        }
    }
    for wi in 0..2 {
        assert!(!fused_errs[wi].is_empty());
        let fused = median(&mut fused_errs[wi]);
        let mut best_single = f64::INFINITY;
        for sensor_errs in &mut per_sensor_errs {
            if !sensor_errs[wi].is_empty() {
                best_single = best_single.min(median(&mut sensor_errs[wi]));
            }
        }
        assert!(
            fused <= best_single,
            "walker {wi}: fused median {fused:.3} m worse than best single sensor {best_single:.3} m"
        );
        assert!(fused < 0.45, "walker {wi}: fused median {fused:.3} m");
    }

    // --- The handoff actually happened: walker A's track was anchored by
    // sensor 0 early and sensor 1 late.
    let anchor_of = |t_lo: f64, t_hi: f64| {
        settled
            .iter()
            .filter(|u| u.frame.time_s >= t_lo && u.frame.time_s < t_hi)
            .flat_map(|u| &u.frame.tracks)
            .filter(|t| t.id == a_id)
            .filter_map(|t| t.primary_sensor)
            .next_back()
    };
    assert_eq!(
        anchor_of(warmup_s, 3.0),
        Some(0),
        "A should start on sensor 0"
    );
    for u in &settled {
        if u.frame.time_s > 5.0 && (u.frame.time_s * 10.0).fract() < 0.02 {
            for t in &u.frame.tracks {
                if t.id == a_id {
                    eprintln!(
                        "DIAG t={:.2} A prim={:?} contrib={} coast={} var={:.4} p={}",
                        u.frame.time_s,
                        t.primary_sensor,
                        t.contributors,
                        t.coasting,
                        t.pos_var.x + t.pos_var.y + t.pos_var.z,
                        t.position
                    );
                }
            }
        }
    }
    assert_eq!(
        anchor_of(duration - 1.5, duration),
        Some(1),
        "A should end on sensor 1"
    );
    assert!(
        got.events.iter().any(|e| matches!(
            e.event,
            WorldEvent::Handoff { from_sensor: 0, to_sensor: 1, track, .. } if track == a_id
        )),
        "no handoff event for walker A; events: {:?}",
        got.events
            .iter()
            .map(|e| e.event.kind())
            .collect::<Vec<_>>()
    );
    let _ = period;
}

/// One world update as the shard-count comparison sees it: stream
/// sequence, epoch, and each track's id with its position's bits.
type WorldKey = (u64, u64, Vec<(u64, [u64; 3])>);

fn world_keys(got: &Collected) -> Vec<WorldKey> {
    let track = |t: &witrack_fuse::WorldTrackSnapshot| {
        let p = t.position;
        (t.id.0, [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
    };
    got.updates
        .iter()
        .map(|u| {
            (
                u.seq,
                u.frame.epoch,
                u.frame.tracks.iter().map(track).collect(),
            )
        })
        .collect()
}

#[test]
fn fused_streams_are_bit_identical_on_one_two_and_four_shards() {
    // The handoff scenario served on 1, 2 and 4 shards. Liveness timeouts
    // far beyond the run keep the wall clock out of fusion, so the shard
    // count is the only thing that differs between the runs.
    let base = mid_base();
    let fuse = FuseConfig {
        suspect_timeout_s: 1e6,
        dead_timeout_s: 1e6,
        ..room_fuse_config(&base, FallConfig::default())
    };
    let serve = |shards| {
        let got = run_world(
            base,
            fuse.clone(),
            handoff_sim(&base),
            PipelineKind::MultiTarget,
            shards,
        );
        // Debug formatting of an f64 round-trips exactly, so equal
        // strings mean bit-identical events.
        let events: Vec<String> = got.events.iter().map(|e| format!("{e:?}")).collect();
        (world_keys(&got), events)
    };
    let (updates, events) = serve(1);
    assert!(updates.len() > 500, "only {} world updates", updates.len());
    assert!(!events.is_empty(), "no events to compare");
    for shards in [2, 4] {
        let (other_updates, other_events) = serve(shards);
        assert_eq!(
            other_updates.len(),
            updates.len(),
            "{shards} shards: world update count"
        );
        if let Some(i) = (0..updates.len()).find(|&i| other_updates[i] != updates[i]) {
            panic!(
                "{shards} shards: world update {i} differs from one shard's: {:?} vs {:?}",
                other_updates[i], updates[i]
            );
        }
        assert_eq!(other_events, events, "{shards} shards: event stream");
    }
}

#[test]
fn fall_in_the_overlap_reaches_a_wire_subscriber() {
    // One person paces in the overlap region (both sensors watching),
    // then falls. The fused world elevation must trip the §6.2 rule and
    // the resulting Fall event must arrive at the room subscriber over
    // the wire. Thresholds are opened up for the mid sweep's coarse z
    // resolution (0.44 m bins, amplified into z by the stem geometry).
    // The default §6.2 thresholds work on the *fused* elevation: the
    // merged track drops from ~1.0 m to below ground_z well within the
    // transition budget (raising ground_z would break the detector's
    // "was recently up at 2× ground" precondition against a ~1 m-tall
    // walking height). Only the transition window is widened a little
    // for the Kalman smoothing lag.
    // Tracked z jitters while the person paces, so the measured 10–90 %
    // transition is diluted by pre-fall bobbing; widen the budget
    // accordingly. The ground/drop thresholds stay at the paper defaults.
    let base = mid_base();
    let fall_cfg = FallConfig {
        max_transition_s: 2.5,
        ..FallConfig::default()
    };
    let people = vec![PersonSpec::adult(ActivityScript::generate(
        Activity::Fall,
        Vec3::new(0.0, HALLWAY_M / 2.0, 1.0),
        12.0,
        5,
    ))];
    let sim = MultiVantageSimulator::new(
        SimConfig {
            sweep: base.sweep,
            noise_std: 0.05,
            seed: 21,
        },
        AntennaArray::t_shape(Vec3::new(0.0, 0.0, 1.0), 1.0),
        scenario::facing_pair(HALLWAY_M, COVERAGE_M),
        people,
    );
    let fuse = room_fuse_config(&base, fall_cfg);
    let got = run_world(
        base,
        fuse,
        sim,
        PipelineKind::SingleTarget,
        EngineConfig::default().num_shards,
    );

    // Both sensors contributed to the fused track at some point.
    assert!(
        got.updates
            .iter()
            .any(|u| u.frame.tracks.iter().any(|t| t.contributors == 2)),
        "the overlap never fused both sensors"
    );
    let falls: Vec<&EventMsg> = got
        .events
        .iter()
        .filter(|e| matches!(e.event, WorldEvent::Fall { .. }))
        .collect();
    // Diagnostics on failure: the fused elevation sampled every 0.5 s,
    // plus the offline §6.2 verdict over the full fused track.
    let z_track: Vec<(f64, f64)> = got
        .updates
        .iter()
        .filter_map(|u| {
            u.frame
                .tracks
                .first()
                .map(|t| (u.frame.time_s, t.position.z))
        })
        .collect();
    let z_profile: Vec<String> = z_track
        .iter()
        .filter(|(t, _)| (t * 2.0).fract() < 0.01)
        .map(|(t, z)| format!("{t:.1}s:{z:.2}"))
        .collect();
    let offline = witrack_core::fall::classify_elevation_track(&z_track, &fall_cfg);
    let mut replay = witrack_core::fall::FallDetector::new(fall_cfg);
    let replay_fired: Vec<String> = z_track
        .iter()
        .filter_map(|&(t, z)| replay.push(t, z).map(|e| format!("{:.2}s {e:?}", t)))
        .collect();
    assert!(
        !falls.is_empty(),
        "no Fall event reached the subscriber; events seen: {:?}; offline verdict: {:?}; \
         online replay fired: [{}]; fused z: {}",
        got.events
            .iter()
            .map(|e| e.event.kind())
            .collect::<Vec<_>>(),
        offline,
        replay_fired.join(", "),
        z_profile.join(" ")
    );
    assert_eq!(falls[0].room_id, ROOM);
    if let WorldEvent::Fall {
        from_z,
        to_z,
        time_s,
        ..
    } = falls[0].event
    {
        // The scripted fall starts at 40% of the 12 s trial.
        assert!(time_s > 4.0, "fall fired at {time_s:.2} s, before the drop");
        assert!(from_z > to_z, "fall rose? {from_z} → {to_z}");
    }
}
