//! The world hub: per-room cross-sensor fusion behind the wire protocol.
//!
//! Each fused room has exactly one owner, the shard that runs its
//! sensors. `Placement` picks that shard once, from the
//! [`WorldConfig`] fixed at start: rooms go greedily, in config order, to
//! the shard with the fewest placed sensors, and a room's sensors follow
//! it (unfused sensors keep `sensor_id mod num_shards`). The shard holds
//! its rooms in a plain `Rooms` — each room's [`FusionEngine`], its
//! subscribers and its encode scratch — so no lock and no thread sits
//! between a report and its fused delivery: the shard that made a
//! sensor's [`FrameReport`]s fuses them and broadcasts each closed
//! [`WorldFrame`] — as `WorldUpdate` wire frames — plus its fleet events
//! — as `Event` wire frames — to every connection subscribed to that
//! room, all before it pushes the reports' own `UpdateBatch`. Clients
//! therefore subscribe to *rooms*, not raw sensors: occupancy, handoffs,
//! and falls arrive pre-fused.
//!
//! The control plane rides the same shards: subscribe and unsubscribe
//! are shard messages to the room's shard (a room nobody fuses is shard
//! 0's to refuse), connection close goes to every shard, and the
//! liveness tick and held-reply retries run from the shard loop.
//!
//! Delivery mirrors the per-sensor update path: frames are encoded into
//! pooled buffers and `try_send`-shed to lagging subscribers (counted in
//! [`MetricsSnapshot::updates_dropped`]); a vanished subscriber is pruned
//! on its first failed send. Control replies (acks, rejects, final
//! `SubscriptionStats`) are never shed: one that meets a full outbox is
//! held by the shard and retried, and its connection takes no world
//! traffic from that shard's rooms until the reply is through. One
//! thread runs a room's subscriptions and its deliveries, so an ack
//! precedes the subscription's first world frame and final stats follow
//! its last.
//!
//! Subscriptions are *programmable*: each carries a compiled
//! [`FilterProgram`](crate::program::FilterProgram) the room evaluates
//! per event **before** any encoding. Per fused frame the room (1) rate-
//! gates its world subscribers and, only when the frame has events that
//! pass a per-room coarse kind index (the OR of every event subscriber
//! program's possible kinds), runs each event subscriber's program over
//! them — behind the program's own kind mask; then (2) encodes the world
//! update and *only the events somebody matched*, each exactly once into
//! the reused scratch, and (3) copies the matched windows into pooled
//! buffers for just the subscribers that got something. Both passes walk
//! index lists of the subscribers that want world updates or events, so
//! closing an epoch costs O(interested subscribers), not O(all).
//!
//! [`MetricsSnapshot::updates_dropped`]: crate::metrics::MetricsSnapshot::updates_dropped

use crate::engine::ConnSink;
use crate::metrics::EngineMetrics;
use crate::pool::{BufPool, PooledBuf};
use crate::program::{CompiledProgram, EventCtx, ProgramState};
use crate::wire::{self, Message, RejectCode, SubscribeAck, SubscribeV3, SubscriptionStats};
use std::collections::HashMap;
use std::sync::mpsc::TrySendError;
use std::sync::Arc;
use std::time::{Duration, Instant};
use witrack_core::FrameReport;
use witrack_fuse::{
    FuseConfig, FusionEngine, Registration, SensorLiveness, WorldEvent, WorldFrame,
};
use witrack_obs::{AnomalyKind, Counter, FlightRecorder, Gauge, Histo, Label};

/// How often a shard sweeps its rooms for silent sensors. Also the floor
/// on liveness-timeout resolution — `FuseConfig::suspect_timeout_s`
/// below this still takes one tick to notice.
pub(crate) const LIVENESS_TICK: Duration = Duration::from_millis(50);

/// Longest a shard sleeps while a control reply waits on a full outbox.
pub(crate) const REPLY_RETRY: Duration = Duration::from_millis(1);

/// One fused room: its sensor registration and fusion tuning.
pub struct RoomSpec {
    /// Room identity (what clients subscribe to).
    pub room_id: u32,
    /// Fusion tuning (gates, lifecycle, zones, fall rule).
    pub fuse: FuseConfig,
    /// Which sensors feed this room, and each one's world-from-sensor
    /// extrinsic. Sensor ids are global: a sensor may belong to at most
    /// one room.
    pub registration: Registration,
}

/// The world hub's configuration: the fleet's room layout.
#[derive(Default)]
pub struct WorldConfig {
    /// All fused rooms.
    pub rooms: Vec<RoomSpec>,
}

impl WorldConfig {
    /// A single-room world.
    pub fn single_room(room_id: u32, fuse: FuseConfig, registration: Registration) -> WorldConfig {
        WorldConfig {
            rooms: vec![RoomSpec {
                room_id,
                fuse,
                registration,
            }],
        }
    }
}

/// Which shard runs each fused room and each sensor, fixed at start.
pub(crate) struct Placement {
    num_shards: usize,
    /// room id → shard (the first room wins a duplicated id).
    rooms: HashMap<u32, usize>,
    /// Fused sensor id → its room's shard.
    sensors: HashMap<u32, usize>,
}

impl Placement {
    /// Places rooms greedily, in config order, on the shard with the
    /// fewest placed sensors (lowest index first on ties). Returns the
    /// placement and each shard's rooms.
    pub(crate) fn new(cfg: WorldConfig, num_shards: usize) -> (Placement, Vec<Vec<RoomSpec>>) {
        let mut load = vec![0usize; num_shards];
        let mut per_shard: Vec<Vec<RoomSpec>> = (0..num_shards).map(|_| Vec::new()).collect();
        let mut placement = Placement {
            num_shards,
            rooms: HashMap::new(),
            sensors: HashMap::new(),
        };
        for spec in cfg.rooms {
            let shard = (0..num_shards).min_by_key(|&s| load[s]).expect("a shard");
            placement.rooms.entry(spec.room_id).or_insert(shard);
            for sensor in spec.registration.sensor_ids() {
                let prev = placement.sensors.insert(sensor, shard);
                assert!(prev.is_none(), "sensor {sensor} registered to two rooms");
                load[shard] += 1;
            }
            per_shard[shard].push(spec);
        }
        (placement, per_shard)
    }

    /// The shard running `sensor_id`'s session: its room's, or
    /// `sensor_id mod num_shards` for a sensor no room fuses.
    pub(crate) fn sensor_shard(&self, sensor_id: u32) -> usize {
        match self.sensors.get(&sensor_id) {
            Some(&shard) => shard,
            None => sensor_id as usize % self.num_shards,
        }
    }

    /// The shard owning room `room_id`; shard 0 refuses unknown rooms.
    pub(crate) fn room_shard(&self, room_id: u32) -> usize {
        self.rooms.get(&room_id).copied().unwrap_or(0)
    }
}

/// The rooms one shard owns, and the control replies it holds.
pub(crate) struct Rooms {
    rooms: Vec<Room>,
    /// sensor id → index into `rooms`; fixed at start.
    sensor_rooms: HashMap<u32, usize>,
    out: Out,
}

/// What a room's delivery and replies write through.
struct Out {
    /// Control replies that met a full outbox, oldest first, retried
    /// until their connection takes them or closes.
    held: Vec<(ConnSink, PooledBuf<u8>)>,
    frame_pool: BufPool<u8>,
    metrics: Arc<EngineMetrics>,
    recorder: Arc<FlightRecorder>,
}

struct Room {
    room_id: u32,
    engine: FusionEngine,
    subscribers: Vec<Subscriber>,
    /// Indices into `subscribers` of those taking world updates, in
    /// subscriber order. Rebuilt with `event_kind_mask`.
    world_subs: Vec<u32>,
    /// Indices into `subscribers` of those taking events, in subscriber
    /// order. Rebuilt with `event_kind_mask`.
    event_subs: Vec<u32>,
    out_seq: u64,
    /// Live world tracks after the room's newest fused epoch.
    tracks: Gauge,
    /// Fusion epoch lag: newest sensor epoch minus the fusion watermark
    /// (how far the slowest sensor that is not dead trails the fastest).
    epoch_lag: Gauge,
    /// Fleet events emitted for this room.
    events: Counter,
    /// Anchor handoffs among this room's events.
    handoffs: Counter,
    /// Ghost (multipath) track initiations suppressed in this room.
    ghosts_quarantined: Counter,
    /// `FusionStats::ghosts_suppressed` at the last delta count.
    last_ghosts: u64,
    /// Per-sensor liveness (0 = live, 1 = suspect, 2 = dead), registered
    /// eagerly at startup so the series exists before any fault does.
    liveness: HashMap<u32, Gauge>,
    /// Per-sensor recoveries: how many times a dead sensor came back.
    reconnects: HashMap<u32, Counter>,
    /// Coarse event index: the OR of every event-subscriber program's
    /// possible kinds. An event whose kind bit is absent is skipped
    /// outright — no program runs, no encode happens. Rebuilt whenever
    /// the subscriber set changes.
    event_kind_mask: u16,
    /// Per-event filter-evaluation latency (ns, averaged over one
    /// frame's events).
    event_eval_ns: Arc<Histo>,
    scratch: DeliverScratch,
}

/// A room's reused per-frame delivery buffers.
#[derive(Default)]
struct DeliverScratch {
    /// Each fused frame (and its matched events) is serialized once
    /// here, then memcpy'd into per-subscriber pooled buffers.
    encoded: Vec<u8>,
    /// Events surviving the coarse kind index, paired with their
    /// frame-event index.
    ctxs: Vec<(u32, EventCtx)>,
    /// `event index → (start, end)` window into `encoded`, `(0, 0)` for
    /// events nobody matched (and therefore never encoded).
    ranges: Vec<(u32, u32)>,
    /// World subscribers whose rate gate passed this frame.
    world_to: Vec<u32>,
    /// Event subscribers that matched some event this frame.
    events_to: Vec<u32>,
    /// `world_to ∪ events_to`, in subscriber order.
    recipients: Vec<u32>,
    /// Recipients whose connection is gone, in subscriber order.
    gone: Vec<u32>,
}

impl Room {
    /// Recomputes the world/event index lists and the coarse kind index
    /// from the live subscriber set.
    fn rebuild_index(&mut self) {
        self.world_subs.clear();
        self.event_subs.clear();
        self.event_kind_mask = 0;
        for (i, s) in self.subscribers.iter().enumerate() {
            if s.world_updates {
                self.world_subs.push(i as u32);
            }
            if s.events {
                self.event_subs.push(i as u32);
                self.event_kind_mask |= s.program.kind_mask();
            }
        }
    }

    /// Broadcasts fused frames (and their events) to the room's
    /// subscribers, shedding to lagging connections and pruning dead
    /// ones.
    fn deliver(&mut self, frames: Vec<WorldFrame>, out: &Out) {
        // Ghost suppressions happen inside fusion; surface the delta as
        // a room counter and quarantine records.
        let ghosts = self.engine.stats().ghosts_suppressed;
        if ghosts > self.last_ghosts {
            let new = ghosts - self.last_ghosts;
            self.ghosts_quarantined.add(new);
            out.recorder.record(
                AnomalyKind::GhostQuarantine,
                self.room_id as u64,
                new,
                ghosts,
            );
            self.last_ghosts = ghosts;
        }
        for frame in frames {
            out.metrics.world_frames.inc();
            out.metrics.world_events.add(frame.events.len() as u64);
            self.tracks.set(frame.tracks.len() as i64);
            self.epoch_lag
                .set(self.engine.watermark_lag_epochs() as i64);
            self.events.add(frame.events.len() as u64);
            for event in &frame.events {
                if let WorldEvent::Handoff {
                    from_sensor,
                    to_sensor,
                    ..
                } = event
                {
                    self.handoffs.inc();
                    out.recorder.record(
                        AnomalyKind::Handoff,
                        *from_sensor as u64,
                        *to_sensor as u64,
                        frame.epoch,
                    );
                }
            }
            let seq = self.out_seq;
            self.out_seq += 1;
            if !self.subscribers.is_empty() {
                self.deliver_frame(&frame, seq, out);
            }
        }
    }

    /// Evaluates, encodes once and fans out one fused frame. Each frame
    /// and event is serialized exactly once (into the reused scratch) and
    /// copied byte-for-byte into per-subscriber pooled buffers.
    fn deliver_frame(&mut self, frame: &WorldFrame, seq: u64, out: &Out) {
        let metrics = &*out.metrics;
        let Room {
            room_id,
            subscribers,
            world_subs,
            event_subs,
            event_kind_mask,
            event_eval_ns,
            scratch,
            ..
        } = self;
        let DeliverScratch {
            encoded,
            ctxs,
            ranges,
            world_to,
            events_to,
            recipients,
            gone,
        } = scratch;

        // --- Phase 1: decide, before anything is encoded. -------------
        // World updates pass through a per-subscription rate gate on the
        // fused frame's event time (deterministic under replay, unlike a
        // wall clock).
        world_to.clear();
        for &si in world_subs.iter() {
            let sub = &mut subscribers[si as usize];
            let due = sub.min_update_interval_s <= 0.0
                || sub
                    .last_update_s
                    .is_none_or(|last| frame.time_s - last >= sub.min_update_interval_s);
            if due {
                sub.send_world = true;
                sub.last_update_s = Some(frame.time_s);
                world_to.push(si);
            }
        }
        // Extract each event's matchable facts once, skipping whole
        // events outside the room's coarse kind index (no subscriber
        // program could match them); programs run only when some event
        // survives it.
        ctxs.clear();
        if *event_kind_mask != 0 {
            for (ei, event) in frame.events.iter().enumerate() {
                let ctx = EventCtx::from_event(event);
                if *event_kind_mask & ctx.kind_bit() != 0 {
                    ctxs.push((ei as u32, ctx));
                }
            }
        }
        events_to.clear();
        if !ctxs.is_empty() {
            let eval_start = Instant::now();
            for &si in event_subs.iter() {
                let sub = &mut subscribers[si as usize];
                for (ei, ctx) in ctxs.iter() {
                    sub.evaluated += 1;
                    // The per-subscription mask is the second pre-screen:
                    // the gap between per-sub `evaluated` and the global
                    // `events_evaluated` counter is evaluations the index
                    // saved.
                    if sub.program.kind_mask() & ctx.kind_bit() == 0 {
                        continue;
                    }
                    metrics.events_evaluated.inc();
                    let verdict = sub.program.eval(&mut sub.state, ctx);
                    if verdict.rate_limited {
                        sub.rate_limited += 1;
                        metrics.events_rate_limited.inc();
                    }
                    if verdict.matched {
                        sub.matched += 1;
                        metrics.events_matched.inc();
                        sub.hits.push(*ei);
                    }
                }
                if !sub.hits.is_empty() {
                    events_to.push(si);
                }
            }
            let per_event = eval_start.elapsed().as_nanos() as u64 / ctxs.len() as u64;
            event_eval_ns.record(per_event);
        }
        if world_to.is_empty() && events_to.is_empty() {
            return; // nobody wants anything from this frame
        }

        // --- Phase 2: encode once — and only what somebody wants. -----
        encoded.clear();
        let world_len = if world_to.is_empty() {
            0
        } else {
            wire::encode_world_update_into(*room_id, seq, frame, encoded);
            encoded.len()
        };
        ranges.clear();
        ranges.resize(frame.events.len(), (0, 0));
        for &si in events_to.iter() {
            for &ei in &subscribers[si as usize].hits {
                let slot = &mut ranges[ei as usize];
                if slot.0 == slot.1 {
                    let start = encoded.len();
                    wire::encode_event_into(*room_id, &frame.events[ei as usize], encoded);
                    *slot = (start as u32, encoded.len() as u32);
                }
            }
        }

        // --- Phase 3: deliver to just the recipients, in subscriber
        // order, shedding and pruning as before. A connection with a held
        // reply yields its free outbox slots to that reply: its world
        // traffic sheds until the reply is through.
        recipients.clear();
        recipients.extend_from_slice(world_to);
        recipients.extend_from_slice(events_to);
        recipients.sort_unstable();
        recipients.dedup();
        gone.clear();
        for &si in recipients.iter() {
            let sub = &mut subscribers[si as usize];
            let yields = out.held.iter().any(|(s, _)| s.conn_id == sub.sink.conn_id);
            let send = |buf| push(&sub.sink, buf, yields, metrics, &out.recorder);
            let mut alive = true;
            if sub.send_world {
                let mut buf = out.frame_pool.get(world_len);
                buf.extend_from_slice(&encoded[..world_len]);
                metrics.world_bytes.add(world_len as u64);
                alive &= send(buf) != Pushed::Gone;
            }
            if alive {
                for &ei in &sub.hits {
                    let (start, end) = ranges[ei as usize];
                    let bytes = &encoded[start as usize..end as usize];
                    let mut buf = out.frame_pool.get(bytes.len());
                    buf.extend_from_slice(bytes);
                    metrics.world_bytes.add(bytes.len() as u64);
                    match send(buf) {
                        Pushed::Sent => {}
                        Pushed::Shed => sub.shed += 1,
                        Pushed::Gone => {
                            alive = false;
                            break;
                        }
                    }
                }
            }
            sub.send_world = false;
            sub.hits.clear();
            if !alive {
                gone.push(si);
            }
        }
        if !gone.is_empty() {
            metrics.subscriptions_closed.add(gone.len() as u64);
            let mut i = 0u32;
            subscribers.retain(|_| {
                let keep = gone.binary_search(&i).is_err();
                i += 1;
                keep
            });
            self.rebuild_index();
        }
    }
}

struct Subscriber {
    sink: ConnSink,
    /// Client-chosen id.
    sub_id: u64,
    world_updates: bool,
    events: bool,
    program: CompiledProgram,
    state: ProgramState,
    /// Seconds between delivered world updates (0 = every fused frame),
    /// from the subscription's `max_update_hz`. Gated on frame event
    /// time, so it is deterministic under replay.
    min_update_interval_s: f64,
    last_update_s: Option<f64>,
    /// Scratch: indices (into the current frame's events) this
    /// subscription matched. Empty between frames, capacity reused.
    hits: Vec<u32>,
    /// Whether the current frame's world update goes to this subscriber
    /// (decided in the rate-gate pass; `false` between frames).
    send_world: bool,
    /// Per-subscription filter counters, reported via
    /// `SubscriptionStats` at unsubscribe time.
    evaluated: u64,
    matched: u64,
    shed: u64,
    rate_limited: u64,
}

impl Subscriber {
    fn stats(&self, room_id: u32) -> SubscriptionStats {
        SubscriptionStats {
            room_id,
            sub_id: self.sub_id,
            evaluated: self.evaluated,
            matched: self.matched,
            shed: self.shed,
            rate_limited: self.rate_limited,
        }
    }
}

impl Rooms {
    /// Builds the rooms one shard owns, registering each room's and each
    /// sensor's series.
    pub(crate) fn new(
        specs: Vec<RoomSpec>,
        frame_pool: BufPool<u8>,
        metrics: Arc<EngineMetrics>,
        recorder: Arc<FlightRecorder>,
    ) -> Rooms {
        let registry = Arc::clone(metrics.registry());
        let mut sensor_rooms = HashMap::new();
        let rooms = specs
            .into_iter()
            .enumerate()
            .map(|(idx, spec)| {
                let label = Label::Room(spec.room_id);
                let mut liveness = HashMap::new();
                let mut reconnects = HashMap::new();
                for sensor in spec.registration.sensor_ids() {
                    sensor_rooms.insert(sensor, idx);
                    let g = registry.gauge("sensor", "liveness", Label::Sensor(sensor));
                    g.set(SensorLiveness::Live.as_gauge());
                    liveness.insert(sensor, g);
                    reconnects.insert(
                        sensor,
                        registry.counter("sensor", "reconnects", Label::Sensor(sensor)),
                    );
                }
                let mut engine = FusionEngine::new(spec.fuse, spec.registration);
                // Anchor-switch wait times (epochs the room sat on a
                // worse anchor, in ns of epoch time) land in the room's
                // handoff-latency histogram.
                engine.attach_handoff_histo(registry.histo("room", "handoff_latency_ns", label));
                Room {
                    room_id: spec.room_id,
                    engine,
                    subscribers: Vec::new(),
                    world_subs: Vec::new(),
                    event_subs: Vec::new(),
                    out_seq: 0,
                    tracks: registry.gauge("room", "tracks", label),
                    epoch_lag: registry.gauge("room", "epoch_lag", label),
                    events: registry.counter("room", "events", label),
                    handoffs: registry.counter("room", "handoffs", label),
                    ghosts_quarantined: registry.counter("room", "ghosts_quarantined", label),
                    last_ghosts: 0,
                    liveness,
                    reconnects,
                    event_kind_mask: 0,
                    event_eval_ns: registry.histo("room", "event_eval_ns", label),
                    scratch: DeliverScratch::default(),
                }
            })
            .collect();
        Rooms {
            rooms,
            sensor_rooms,
            out: Out {
                held: Vec::new(),
                frame_pool,
                metrics,
                recorder,
            },
        }
    }

    /// Fuses one sensor's frame reports and delivers every epoch they
    /// close. Sensors outside every room still stream their per-sensor
    /// updates; they just don't fuse.
    pub(crate) fn fuse_reports(&mut self, sensor_id: u32, reports: &[FrameReport]) {
        if let Some(&idx) = self.sensor_rooms.get(&sensor_id) {
            let room = &mut self.rooms[idx];
            for report in reports {
                let frames = room.engine.push_report(sensor_id, report);
                room.deliver(frames, &self.out);
            }
        }
    }

    /// A sensor's session closed: its room stops waiting for it at
    /// fusion watermarks (its world tracks coast until reacquired), and
    /// whatever epochs that unblocks are delivered.
    pub(crate) fn remove_sensor(&mut self, sensor_id: u32) {
        if let Some(&idx) = self.sensor_rooms.get(&sensor_id) {
            let room = &mut self.rooms[idx];
            let frames = room.engine.remove_sensor(sensor_id);
            room.deliver(frames, &self.out);
        }
    }

    /// Sweeps every room for silent sensors at `now_s` (seconds on the
    /// owning shard's clock): advances each [`FusionEngine`]'s liveness
    /// state machine, surfaces the transitions as anomalies and
    /// per-sensor series, and delivers any epochs the sweep unblocked.
    pub(crate) fn tick(&mut self, now_s: f64) {
        for room in &mut self.rooms {
            let frames = room.engine.tick(now_s);
            for t in &room.engine.take_liveness_transitions() {
                if let Some(g) = room.liveness.get(&t.sensor_id) {
                    g.set(t.to.as_gauge());
                }
                let silence_ns = (t.silence_s.max(0.0) * 1e9) as u64;
                let kind = match t.to {
                    // A stalled-but-not-yet-dead feed.
                    SensorLiveness::Suspect => AnomalyKind::Stall,
                    SensorLiveness::Dead => AnomalyKind::SensorDead,
                    SensorLiveness::Live => {
                        if let Some(c) = room.reconnects.get(&t.sensor_id) {
                            c.inc();
                        }
                        AnomalyKind::SensorRecovered
                    }
                };
                self.out
                    .recorder
                    .record(kind, t.sensor_id as u64, room.room_id as u64, silence_ns);
            }
            if !frames.is_empty() {
                room.deliver(frames, &self.out);
            }
        }
    }

    /// Whether some control reply still waits on a full outbox.
    pub(crate) fn holds_replies(&self) -> bool {
        !self.out.held.is_empty()
    }

    /// Offers every held reply to its outbox again, in order. A
    /// connection whose oldest reply still meets a full outbox keeps the
    /// rest of its replies held behind it.
    pub(crate) fn retry_held(&mut self) {
        let mut blocked: Vec<u64> = Vec::new();
        for (sink, buf) in std::mem::take(&mut self.out.held) {
            if blocked.contains(&sink.conn_id) {
                self.out.held.push((sink, buf));
                continue;
            }
            // A disconnected outbox means the connection is closing.
            if let Err(TrySendError::Full(buf)) = sink.tx.try_send(buf) {
                blocked.push(sink.conn_id);
                self.out.held.push((sink, buf));
            }
        }
    }

    /// Sends a reply frame (ack, stats, reject) back to a subscriber's
    /// connection. A full outbox holds the reply for a retry instead of
    /// shedding it, behind any reply the connection already waits on.
    fn reply(&mut self, sink: &ConnSink, msg: &Message) {
        let mut buf = self.out.frame_pool.get(64);
        wire::encode_into(msg, &mut buf);
        self.out.held.push((sink.clone(), buf));
        self.retry_held();
    }

    /// Refuses a subscription message naming `room_id`.
    fn reject(&mut self, sink: &ConnSink, room_id: u32, code: RejectCode) {
        self.out.metrics.batches_rejected.inc();
        self.reply(
            sink,
            &Message::Reject(wire::Reject {
                sensor_id: room_id,
                code,
            }),
        );
    }

    /// Installs a subscription and acks it, or refuses it: an unknown
    /// room as `UnknownSubscription`, an invalid program as `BadProgram`.
    pub(crate) fn subscribe(&mut self, sub: SubscribeV3, sink: ConnSink) {
        let Some(idx) = self.rooms.iter().position(|r| r.room_id == sub.room_id) else {
            self.reject(&sink, sub.room_id, RejectCode::UnknownSubscription);
            return;
        };
        // Validate the program once at install time: a stack-invalid or
        // oversized program is the client's bug, reported as BadProgram;
        // the connection (and its other subscriptions) survive.
        let Ok(program) = sub.program.compile() else {
            self.reject(&sink, sub.room_id, RejectCode::BadProgram);
            return;
        };
        self.out.metrics.subscriptions_opened.inc();
        let state = program.new_state();
        let room = &mut self.rooms[idx];
        room.subscribers.push(Subscriber {
            sink: sink.clone(),
            sub_id: sub.sub_id,
            world_updates: sub.world_updates,
            events: sub.events,
            program,
            state,
            min_update_interval_s: if sub.max_update_hz > 0.0 {
                1.0 / sub.max_update_hz
            } else {
                0.0
            },
            last_update_s: None,
            hits: Vec::new(),
            send_world: false,
            evaluated: 0,
            matched: 0,
            shed: 0,
            rate_limited: 0,
        });
        room.rebuild_index();
        let reply = Message::SubscribeAck(SubscribeAck {
            room_id: sub.room_id,
            sub_id: sub.sub_id,
            status: 0,
        });
        self.reply(&sink, &reply);
    }

    /// Removes one `(connection, sub_id)` subscription and answers with
    /// its final counters. Unknown subscriptions get
    /// `UnknownSubscription` — same as subscribing to an unknown room.
    pub(crate) fn unsubscribe(&mut self, unsub: wire::Unsubscribe, sink: ConnSink) {
        let found = self.rooms.iter_mut().find_map(|room| {
            if room.room_id != unsub.room_id {
                return None;
            }
            let at = room
                .subscribers
                .iter()
                .position(|s| s.sink.conn_id == sink.conn_id && s.sub_id == unsub.sub_id)?;
            let sub = room.subscribers.swap_remove(at);
            room.rebuild_index();
            Some(sub.stats(room.room_id))
        });
        match found {
            Some(stats) => {
                self.out.metrics.subscriptions_closed.inc();
                self.reply(&sink, &Message::SubscriptionStats(stats));
            }
            None => self.reject(&sink, unsub.room_id, RejectCode::UnknownSubscription),
        }
    }

    /// Drops every held reply and subscription of a closed connection.
    pub(crate) fn conn_closed(&mut self, conn_id: u64) {
        self.out.held.retain(|(s, _)| s.conn_id != conn_id);
        for room in &mut self.rooms {
            let before = room.subscribers.len();
            room.subscribers.retain(|s| s.sink.conn_id != conn_id);
            let closed = before - room.subscribers.len();
            if closed > 0 {
                self.out.metrics.subscriptions_closed.add(closed as u64);
                room.rebuild_index();
            }
        }
    }
}

/// What became of one message offered to a subscriber.
#[derive(PartialEq)]
enum Pushed {
    Sent,
    /// Shed on a full outbox (or one yielding to a held reply).
    Shed,
    /// The connection is gone: prune the subscriber.
    Gone,
}

/// `try_send` into a subscriber, shedding on full (counted in the
/// engine-wide `updates_dropped`; the caller also counts a shed matched
/// event in the subscription's own `shed`, which pairs with `matched`).
fn push(
    sink: &ConnSink,
    buf: PooledBuf<u8>,
    yields: bool,
    metrics: &EngineMetrics,
    recorder: &FlightRecorder,
) -> Pushed {
    if !yields {
        match sink.tx.try_send(buf) {
            Ok(()) => return Pushed::Sent,
            Err(TrySendError::Disconnected(_)) => return Pushed::Gone,
            Err(TrySendError::Full(_)) => {}
        }
    }
    metrics.updates_dropped.inc();
    recorder.record(AnomalyKind::Shed, sink.conn_id, 0, 0);
    Pushed::Shed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{EventKind, SubscriptionBuilder};
    use std::sync::mpsc::{sync_channel, Receiver};
    use witrack_fuse::WorldTrackId;
    use witrack_geom::RigidTransform;
    use witrack_obs::Registry;

    const ROOM: u32 = 3;

    fn room(room_id: u32, sensors: &[u32]) -> RoomSpec {
        let registration = sensors.iter().fold(Registration::new(), |r, &s| {
            r.with_sensor(s, RigidTransform::IDENTITY)
        });
        RoomSpec {
            room_id,
            fuse: FuseConfig::default(),
            registration,
        }
    }

    fn rooms() -> Rooms {
        Rooms::new(
            vec![room(ROOM, &[0])],
            BufPool::new(64),
            Arc::new(EngineMetrics::new(Arc::new(Registry::new()))),
            Arc::new(FlightRecorder::new(64)),
        )
    }

    fn connection(conn_id: u64, capacity: usize) -> (ConnSink, Receiver<PooledBuf<u8>>) {
        let (tx, rx) = sync_channel(capacity);
        (ConnSink { conn_id, tx }, rx)
    }

    #[test]
    fn fused_rooms_sit_whole_on_the_least_loaded_shard() {
        // The `rooms_fused` shape: six rooms of sensors {2r, 2r + 1}.
        let rooms = (0..6).map(|r| room(r, &[2 * r, 2 * r + 1])).collect();
        let (p, per_shard) = Placement::new(WorldConfig { rooms }, 2);
        for r in 0..6u32 {
            assert_eq!(p.sensor_shard(2 * r), p.room_shard(r), "room {r}");
            assert_eq!(p.sensor_shard(2 * r + 1), p.room_shard(r), "room {r}");
        }
        for (shard, rooms) in per_shard.iter().enumerate() {
            assert_eq!(rooms.len(), 3, "shard {shard}'s rooms");
            let sensors = (0..12).filter(|&s| p.sensor_shard(s) == shard).count();
            assert_eq!(sensors, 6, "shard {shard}'s sensors");
        }

        // Rooms of unequal size balance by sensor count, not room count;
        // an unfused sensor keeps `sensor_id mod num_shards`, and a room
        // nobody fuses is shard 0's to refuse.
        let unequal = || WorldConfig {
            rooms: vec![
                room(10, &[0, 1, 2, 3]),
                room(11, &[4]),
                room(12, &[5]),
                room(13, &[6, 7]),
            ],
        };
        let (p, _) = Placement::new(unequal(), 2);
        let shards: Vec<usize> = (10..14).map(|r| p.room_shard(r)).collect();
        assert_eq!(shards, vec![0, 1, 1, 1]);
        assert_eq!((p.sensor_shard(8), p.sensor_shard(9)), (0, 1));
        assert_eq!(p.room_shard(99), 0);

        // One shard takes everything.
        let (p, _) = Placement::new(unequal(), 1);
        assert!((10..14).all(|r| p.room_shard(r) == 0));
        assert!((0..10).all(|s| p.sensor_shard(s) == 0));
    }

    /// The index lists and coarse mask equal a full scan of the
    /// subscriber set, and no per-frame scratch outlives its frame.
    fn assert_index_matches_scan(rooms: &Rooms, after: &str) {
        let room = &rooms.rooms[0];
        let scan = |want: fn(&Subscriber) -> bool| -> Vec<u32> {
            (0..room.subscribers.len() as u32)
                .filter(|&i| want(&room.subscribers[i as usize]))
                .collect()
        };
        assert_eq!(
            room.world_subs,
            scan(|s| s.world_updates),
            "world list after {after}"
        );
        assert_eq!(
            room.event_subs,
            scan(|s| s.events),
            "event list after {after}"
        );
        let mask = room
            .subscribers
            .iter()
            .filter(|s| s.events)
            .fold(0, |m, s| m | s.program.kind_mask());
        assert_eq!(room.event_kind_mask, mask, "kind mask after {after}");
        assert!(
            room.subscribers
                .iter()
                .all(|s| s.hits.is_empty() && !s.send_world),
            "per-frame scratch left set after {after}"
        );
    }

    fn frame_with_an_event(epoch: u64) -> WorldFrame {
        let time_s = epoch as f64 * 0.0125;
        WorldFrame {
            epoch,
            time_s,
            tracks: Vec::new(),
            events: vec![WorldEvent::ZoneEntered {
                track: WorldTrackId(1),
                zone: 2,
                time_s,
            }],
        }
    }

    fn deliver(rooms: &mut Rooms, frame: WorldFrame) {
        rooms.rooms[0].deliver(vec![frame], &rooms.out);
    }

    #[test]
    fn index_lists_equal_a_full_scan_through_every_membership_change() {
        let mut rooms = rooms();
        // Two-slot outboxes nobody drains: each connection's later
        // replies are held.
        let conns: Vec<_> = (1..=4).map(|id| connection(id, 2)).collect();
        let shapes = [
            SubscriptionBuilder::room(ROOM),
            SubscriptionBuilder::room(ROOM).no_events(),
            SubscriptionBuilder::room(ROOM).world_updates(false),
            SubscriptionBuilder::room(ROOM)
                .world_updates(false)
                .events(EventKind::Fall),
            SubscriptionBuilder::room(ROOM)
                .world_updates(false)
                .no_events(),
        ];
        let mut sub_id = 0;
        for (sink, _) in &conns {
            for shape in &shapes {
                sub_id += 1;
                rooms.subscribe(shape.clone().id(sub_id).build(), sink.clone());
                assert_index_matches_scan(&rooms, &format!("subscribe {sub_id}"));
            }
        }

        // Delivery leaves the lists (and the scratch) as they were.
        deliver(&mut rooms, frame_with_an_event(1));
        assert_index_matches_scan(&rooms, "delivery");

        // Unsubscribe swaps the last subscriber into the hole.
        let unsub = |sub_id| wire::Unsubscribe {
            room_id: ROOM,
            sub_id,
        };
        rooms.unsubscribe(unsub(2), conns[0].0.clone());
        assert_index_matches_scan(&rooms, "unsubscribe 2");
        rooms.unsubscribe(unsub(8), conns[1].0.clone());
        assert_index_matches_scan(&rooms, "unsubscribe 8");

        // A close drops that connection's held replies and subscriptions,
        // and only that connection's.
        let held =
            |rooms: &Rooms| -> Vec<u64> { rooms.out.held.iter().map(|(s, _)| s.conn_id).collect() };
        let closed = conns[2].0.conn_id;
        let mut others = held(&rooms);
        others.retain(|&c| c != closed);
        let subs_before = rooms.rooms[0].subscribers.len();
        rooms.conn_closed(closed);
        assert_index_matches_scan(&rooms, "connection close");
        assert_eq!(held(&rooms), others, "other connections' held replies");
        let subs = &rooms.rooms[0].subscribers;
        assert!(subs.iter().all(|s| s.sink.conn_id != closed));
        assert_eq!(subs.len(), subs_before - shapes.len());

        // Connection 4 vanishes without a close: its subscribers that get
        // something are pruned on their first failed send; those offered
        // nothing (no world updates, no matching event) stay.
        let mut conns = conns;
        let (dead, dead_rx) = conns.pop().expect("four connections");
        drop(dead_rx);
        // Its held replies go on the next retry, so nothing makes its
        // traffic yield.
        rooms.retry_held();
        assert!(held(&rooms).iter().all(|&c| c != dead.conn_id));
        let before = rooms.rooms[0].subscribers.len();
        let closed_before = rooms.out.metrics.snapshot().subscriptions_closed;
        deliver(&mut rooms, frame_with_an_event(2));
        assert_index_matches_scan(&rooms, "prune");
        let room = &rooms.rooms[0];
        let mut left: Vec<u64> = room
            .subscribers
            .iter()
            .filter(|s| s.sink.conn_id == dead.conn_id)
            .map(|s| s.sub_id)
            .collect();
        left.sort_unstable();
        assert_eq!(left, vec![19, 20], "falls only, and neither stream");
        assert_eq!(room.subscribers.len(), before - 3);
        assert_eq!(
            rooms.out.metrics.snapshot().subscriptions_closed,
            closed_before + 3
        );
    }
}
