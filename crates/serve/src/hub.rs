//! The world hub: per-room cross-sensor fusion behind the wire protocol.
//!
//! Each fused room (sensor→room comes from the [`WorldConfig`]'s
//! registrations, fixed at start) lives behind its own lock and owns its
//! [`FusionEngine`], its subscribers and its encode scratch. Reports do
//! not travel to a hub thread: the shard that made a sensor's
//! [`FrameReport`]s locks the sensor's room, fuses them, and broadcasts
//! each closed [`WorldFrame`] — as `WorldUpdate` wire frames — plus its
//! fleet events — as `Event` wire frames — to every connection
//! subscribed to that room, all before it pushes the reports' own
//! `UpdateBatch`. Clients therefore subscribe to *rooms*, not raw
//! sensors: occupancy, handoffs, and falls arrive pre-fused.
//!
//! The hub thread is the control plane: subscribe, unsubscribe,
//! connection close, the liveness tick and held-reply retries arrive on
//! its channel or its timer, and it takes a room's lock to apply them.
//! Lock order is always room → held replies; nothing takes a room lock
//! while holding the held-reply lock.
//!
//! Delivery mirrors the per-sensor update path: frames are encoded into
//! pooled buffers and `try_send`-shed to lagging subscribers (counted in
//! [`MetricsSnapshot::updates_dropped`]); a vanished subscriber is pruned
//! on its first failed send. Control replies (acks, rejects, final
//! `SubscriptionStats`) are never shed: one that meets a full outbox is
//! held and retried, and its connection takes no world traffic until
//! the reply is through. Replies about a room's subscriptions are sent
//! under that room's lock, so an ack precedes the subscription's first
//! world frame and final stats follow its last.
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use witrack_core::FrameReport;
use witrack_fuse::{
    FuseConfig, FusionEngine, Registration, SensorLiveness, WorldEvent, WorldFrame,
};
use witrack_obs::{AnomalyKind, Counter, FlightRecorder, Gauge, Histo, Label};

/// How often the hub sweeps its rooms for silent sensors. Also the floor
/// on liveness-timeout resolution — `FuseConfig::suspect_timeout_s`
/// below this still takes one tick to notice.
const LIVENESS_TICK: Duration = Duration::from_millis(50);

/// Longest the hub sleeps while a control reply waits on a full outbox.
const REPLY_RETRY: Duration = Duration::from_millis(1);

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

/// Control-plane requests for the hub thread.
pub(crate) enum HubMsg {
    /// A connection wants a room's world stream; the hub answers with a
    /// `SubscribeAck` or a `Reject`.
    Subscribe(SubscribeV3, ConnSink),
    /// A connection releases one subscription; the hub answers with its
    /// final `SubscriptionStats`.
    Unsubscribe(wire::Unsubscribe, ConnSink),
    /// A connection hung up: drop its subscriptions *now*. Holding them
    /// until a failed send would also hold the connection's outbox
    /// sender — and the connection writer only exits when every sender
    /// is gone, so a stale subscription would wedge connection teardown.
    ConnClosed(u64),
}

/// Cloneable access to the hub: the control channel for connections,
/// and the shared rooms shards fuse into.
#[derive(Clone)]
pub(crate) struct HubHandle {
    tx: Sender<HubMsg>,
    state: Arc<HubState>,
}

impl HubHandle {
    /// `false` when the hub thread is gone (engine shutting down).
    pub(crate) fn send(&self, msg: HubMsg) -> bool {
        self.tx.send(msg).is_ok()
    }

    /// Fuses one sensor's frame reports on the calling thread and
    /// delivers every epoch they close. Sensors outside every room still
    /// stream their per-sensor updates; they just don't fuse.
    pub(crate) fn fuse_reports(&self, sensor_id: u32, reports: &[FrameReport]) {
        if let Some(mut room) = self.state.room_of(sensor_id) {
            for report in reports {
                let frames = room.engine.push_report(sensor_id, report);
                room.deliver(frames, &self.state);
            }
        }
    }

    /// A sensor's session closed: its room stops waiting for it at
    /// fusion watermarks (its world tracks coast until reacquired), and
    /// whatever epochs that unblocks are delivered.
    pub(crate) fn remove_sensor(&self, sensor_id: u32) {
        if let Some(mut room) = self.state.room_of(sensor_id) {
            let frames = room.engine.remove_sensor(sensor_id);
            room.deliver(frames, &self.state);
        }
    }
}

/// The running hub thread (owned by the engine).
pub(crate) struct WorldHub {
    thread: JoinHandle<()>,
}

/// Everything shards and the hub thread share.
struct HubState {
    rooms: Vec<Mutex<Room>>,
    /// Each room's id, indexed like `rooms` (readable without its lock).
    room_ids: Vec<u32>,
    /// sensor id → index into `rooms`; fixed at start.
    sensor_rooms: HashMap<u32, usize>,
    /// Control replies that met a full outbox, oldest first, retried on
    /// every hub wake-up (at least every [`REPLY_RETRY`]) until their
    /// connection takes them or closes. Taken after a room's lock, never
    /// before one.
    held: Mutex<Vec<(ConnSink, PooledBuf<u8>)>>,
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
    /// Connections with a held reply when this frame went out.
    held_conns: Vec<u64>,
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
    fn deliver(&mut self, frames: Vec<WorldFrame>, hub: &HubState) {
        // Ghost suppressions happen inside fusion; surface the delta as
        // a room counter and quarantine records.
        let ghosts = self.engine.stats().ghosts_suppressed;
        if ghosts > self.last_ghosts {
            let new = ghosts - self.last_ghosts;
            self.ghosts_quarantined.add(new);
            hub.recorder.record(
                AnomalyKind::GhostQuarantine,
                self.room_id as u64,
                new,
                ghosts,
            );
            self.last_ghosts = ghosts;
        }
        for frame in frames {
            hub.metrics.world_frames.inc();
            hub.metrics.world_events.add(frame.events.len() as u64);
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
                    hub.recorder.record(
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
                self.deliver_frame(&frame, seq, hub);
            }
        }
    }

    /// Evaluates, encodes once and fans out one fused frame. Each frame
    /// and event is serialized exactly once (into the reused scratch) and
    /// copied byte-for-byte into per-subscriber pooled buffers.
    fn deliver_frame(&mut self, frame: &WorldFrame, seq: u64, hub: &HubState) {
        let metrics = &*hub.metrics;
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
            held_conns,
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
        held_conns.clear();
        held_conns.extend(hub.held().iter().map(|(s, _)| s.conn_id));
        gone.clear();
        for &si in recipients.iter() {
            let sub = &mut subscribers[si as usize];
            let yields = held_conns.contains(&sub.sink.conn_id);
            let out = |buf| push(&sub.sink, buf, yields, metrics, &hub.recorder);
            let mut alive = true;
            if sub.send_world {
                let mut buf = hub.frame_pool.get(world_len);
                buf.extend_from_slice(&encoded[..world_len]);
                metrics.world_bytes.add(world_len as u64);
                alive &= out(buf) != Pushed::Gone;
            }
            if alive {
                for &ei in &sub.hits {
                    let (start, end) = ranges[ei as usize];
                    let bytes = &encoded[start as usize..end as usize];
                    let mut buf = hub.frame_pool.get(bytes.len());
                    buf.extend_from_slice(bytes);
                    metrics.world_bytes.add(bytes.len() as u64);
                    match out(buf) {
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

impl HubState {
    fn new(
        cfg: WorldConfig,
        frame_pool: BufPool<u8>,
        metrics: Arc<EngineMetrics>,
        recorder: Arc<FlightRecorder>,
    ) -> HubState {
        let registry = Arc::clone(metrics.registry());
        let mut sensor_rooms = HashMap::new();
        let mut room_ids = Vec::with_capacity(cfg.rooms.len());
        let rooms = cfg
            .rooms
            .into_iter()
            .enumerate()
            .map(|(idx, spec)| {
                for sensor in spec.registration.sensor_ids() {
                    let prev = sensor_rooms.insert(sensor, idx);
                    assert!(prev.is_none(), "sensor {sensor} registered to two rooms");
                }
                room_ids.push(spec.room_id);
                let label = Label::Room(spec.room_id);
                let mut liveness = HashMap::new();
                let mut reconnects = HashMap::new();
                for sensor in spec.registration.sensor_ids() {
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
                Mutex::new(Room {
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
                })
            })
            .collect();
        HubState {
            rooms,
            room_ids,
            sensor_rooms,
            held: Mutex::new(Vec::new()),
            frame_pool,
            metrics,
            recorder,
        }
    }

    fn room(&self, idx: usize) -> MutexGuard<'_, Room> {
        self.rooms[idx]
            .lock()
            .expect("room lock poisoned: a fusion or delivery panicked")
    }

    /// The locked room fusing `sensor_id`, if any room does.
    fn room_of(&self, sensor_id: u32) -> Option<MutexGuard<'_, Room>> {
        self.sensor_rooms.get(&sensor_id).map(|&idx| self.room(idx))
    }

    fn held(&self) -> MutexGuard<'_, Vec<(ConnSink, PooledBuf<u8>)>> {
        self.held
            .lock()
            .expect("held-reply lock poisoned: a reply retry panicked")
    }

    /// Sweeps every room for silent sensors: advances each
    /// [`FusionEngine`]'s liveness state machine, surfaces the
    /// transitions as anomalies and per-sensor series, and delivers any
    /// epochs the sweep unblocked.
    fn tick(&self, now_s: f64) {
        for idx in 0..self.rooms.len() {
            let mut room = self.room(idx);
            let frames = room.engine.tick(now_s);
            let transitions = room.engine.take_liveness_transitions();
            for t in &transitions {
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
                self.recorder
                    .record(kind, t.sensor_id as u64, room.room_id as u64, silence_ns);
            }
            if !frames.is_empty() {
                room.deliver(frames, self);
            }
        }
    }

    /// Sends a reply frame (ack, stats, reject) back to a subscriber's
    /// connection. A full outbox holds the reply for a retry instead of
    /// shedding it, behind any reply the connection already waits on.
    /// Callers may hold a room lock (room → held).
    fn reply(&self, sink: &ConnSink, msg: &Message) {
        let mut buf = self.frame_pool.get(64);
        wire::encode_into(msg, &mut buf);
        let mut held = self.held();
        held.push((sink.clone(), buf));
        retry(&mut held);
    }

    /// Offers every held reply to its outbox again; `true` while some
    /// are still held.
    fn retry_held_replies(&self) -> bool {
        let mut held = self.held();
        retry(&mut held);
        !held.is_empty()
    }

    fn subscribe(&self, sub: SubscribeV3, sink: ConnSink) {
        let Some(idx) = self.room_ids.iter().position(|&id| id == sub.room_id) else {
            self.metrics.batches_rejected.inc();
            self.reply(
                &sink,
                &Message::Reject(wire::Reject {
                    sensor_id: sub.room_id,
                    code: RejectCode::UnknownSubscription,
                }),
            );
            return;
        };
        // Validate the program once at install time: a stack-invalid or
        // oversized program is the client's bug, reported as BadProgram;
        // the connection (and its other subscriptions) survive.
        let Ok(program) = sub.program.compile() else {
            self.metrics.batches_rejected.inc();
            self.reply(
                &sink,
                &Message::Reject(wire::Reject {
                    sensor_id: sub.room_id,
                    code: RejectCode::BadProgram,
                }),
            );
            return;
        };
        self.metrics.subscriptions_opened.inc();
        let state = program.new_state();
        let mut room = self.room(idx);
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
        // Still under the room lock: no world frame can reach the new
        // subscriber ahead of its ack.
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
    fn unsubscribe(&self, unsub: wire::Unsubscribe, sink: ConnSink) {
        if let Some(idx) = self.room_ids.iter().position(|&id| id == unsub.room_id) {
            let mut room = self.room(idx);
            let at = room
                .subscribers
                .iter()
                .position(|s| s.sink.conn_id == sink.conn_id && s.sub_id == unsub.sub_id);
            if let Some(at) = at {
                let sub = room.subscribers.swap_remove(at);
                room.rebuild_index();
                self.metrics.subscriptions_closed.inc();
                // Under the room lock: the subscription's last frame is
                // already out, so its final counters are final.
                self.reply(&sink, &Message::SubscriptionStats(sub.stats(room.room_id)));
                return;
            }
        }
        self.metrics.batches_rejected.inc();
        self.reply(
            &sink,
            &Message::Reject(wire::Reject {
                sensor_id: unsub.room_id,
                code: RejectCode::UnknownSubscription,
            }),
        );
    }

    /// Drops every subscription and held reply (hub thread exit). The
    /// rooms outlive the thread in every engine handle, but with no
    /// thread left to prune them their outbox senders would keep each
    /// connection's writer — which exits only once every sender is
    /// gone — waiting forever.
    fn release_connections(&self) {
        self.held().clear();
        for idx in 0..self.rooms.len() {
            let mut room = self.room(idx);
            room.subscribers.clear();
            room.rebuild_index();
        }
    }

    /// Drops every held reply and subscription of a closed connection.
    fn conn_closed(&self, conn_id: u64) {
        self.held().retain(|(s, _)| s.conn_id != conn_id);
        for idx in 0..self.rooms.len() {
            let mut room = self.room(idx);
            let before = room.subscribers.len();
            room.subscribers.retain(|s| s.sink.conn_id != conn_id);
            let closed = before - room.subscribers.len();
            if closed > 0 {
                self.metrics.subscriptions_closed.add(closed as u64);
                room.rebuild_index();
            }
        }
    }
}

/// Offers every held reply to its outbox again, in order. A connection
/// whose oldest reply still meets a full outbox keeps the rest of its
/// replies held behind it.
fn retry(held: &mut Vec<(ConnSink, PooledBuf<u8>)>) {
    let mut blocked: Vec<u64> = Vec::new();
    for (sink, buf) in std::mem::take(held) {
        if blocked.contains(&sink.conn_id) {
            held.push((sink, buf));
            continue;
        }
        // A disconnected outbox means the connection is closing.
        if let Err(TrySendError::Full(buf)) = sink.tx.try_send(buf) {
            blocked.push(sink.conn_id);
            held.push((sink, buf));
        }
    }
}

/// The hub thread's state: the control channel and the liveness clock.
struct HubWorker {
    rx: Receiver<HubMsg>,
    state: Arc<HubState>,
    stop: Arc<AtomicBool>,
    /// Hub start; liveness silence is measured on this clock.
    epoch: Instant,
    /// Last liveness sweep (sweeps run every [`LIVENESS_TICK`]).
    last_tick: Instant,
}

impl WorldHub {
    pub(crate) fn start(
        cfg: WorldConfig,
        frame_pool: BufPool<u8>,
        metrics: Arc<EngineMetrics>,
        recorder: Arc<FlightRecorder>,
        stop: Arc<AtomicBool>,
    ) -> (WorldHub, HubHandle) {
        let (tx, rx) = channel();
        let state = Arc::new(HubState::new(cfg, frame_pool, metrics, recorder));
        let now = Instant::now();
        let worker = HubWorker {
            rx,
            state: Arc::clone(&state),
            stop,
            epoch: now,
            last_tick: now,
        };
        let thread = std::thread::Builder::new()
            .name("hub".into())
            .spawn(move || worker.run())
            .expect("spawn the hub thread");
        (WorldHub { thread }, HubHandle { tx, state })
    }

    /// Joins the hub thread (engine shutdown, after the shards).
    pub(crate) fn join(self) {
        self.thread.join().expect("world hub panicked");
    }
}

impl HubWorker {
    fn run(mut self) {
        loop {
            let wait = if self.state.retry_held_replies() {
                REPLY_RETRY
            } else {
                LIVENESS_TICK.saturating_sub(self.last_tick.elapsed())
            };
            match self.rx.recv_timeout(wait) {
                Ok(msg) => {
                    match msg {
                        HubMsg::Subscribe(sub, sink) => self.state.subscribe(sub, sink),
                        HubMsg::Unsubscribe(unsub, sink) => self.state.unsubscribe(unsub, sink),
                        HubMsg::ConnClosed(conn_id) => self.state.conn_closed(conn_id),
                    }
                    // A steady stream of control messages must not
                    // starve the sweep (cadence-gated below).
                    self.maybe_tick();
                }
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    // Inbox empty: the only time shutdown may interrupt.
                    if self.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    self.maybe_tick();
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        self.state.release_connections();
    }

    /// Runs the liveness sweep when [`LIVENESS_TICK`] has passed since
    /// the last one.
    fn maybe_tick(&mut self) {
        if self.last_tick.elapsed() < LIVENESS_TICK {
            return;
        }
        self.last_tick = Instant::now();
        self.state.tick(self.epoch.elapsed().as_secs_f64());
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
    use std::sync::mpsc::sync_channel;
    use witrack_fuse::WorldTrackId;
    use witrack_geom::RigidTransform;
    use witrack_obs::Registry;

    const ROOM: u32 = 3;

    fn hub_state() -> HubState {
        let registration = Registration::new().with_sensor(0, RigidTransform::IDENTITY);
        HubState::new(
            WorldConfig::single_room(ROOM, FuseConfig::default(), registration),
            BufPool::new(64),
            Arc::new(EngineMetrics::new(Arc::new(Registry::new()))),
            Arc::new(FlightRecorder::new(64)),
        )
    }

    fn connection(conn_id: u64) -> (ConnSink, Receiver<PooledBuf<u8>>) {
        let (tx, rx) = sync_channel(64);
        (ConnSink { conn_id, tx }, rx)
    }

    /// The index lists and coarse mask equal a full scan of the
    /// subscriber set, and no per-frame scratch outlives its frame.
    fn assert_index_matches_scan(state: &HubState, after: &str) {
        let room = state.room(0);
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

    #[test]
    fn index_lists_equal_a_full_scan_through_every_membership_change() {
        let state = hub_state();
        let conns: Vec<_> = (1..=4).map(connection).collect();
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
                state.subscribe(shape.clone().id(sub_id).build(), sink.clone());
                assert_index_matches_scan(&state, &format!("subscribe {sub_id}"));
            }
        }

        // Delivery leaves the lists (and the scratch) as they were.
        state.room(0).deliver(vec![frame_with_an_event(1)], &state);
        assert_index_matches_scan(&state, "delivery");

        // Unsubscribe swaps the last subscriber into the hole.
        let unsub = |sub_id| wire::Unsubscribe {
            room_id: ROOM,
            sub_id,
        };
        state.unsubscribe(unsub(2), conns[0].0.clone());
        assert_index_matches_scan(&state, "unsubscribe 2");
        state.unsubscribe(unsub(8), conns[1].0.clone());
        assert_index_matches_scan(&state, "unsubscribe 8");

        state.conn_closed(conns[2].0.conn_id);
        assert_index_matches_scan(&state, "connection close");
        assert!(state
            .room(0)
            .subscribers
            .iter()
            .all(|s| s.sink.conn_id != conns[2].0.conn_id));

        // Connection 4 vanishes without a close: its subscribers that get
        // something are pruned on their first failed send; those offered
        // nothing (no world updates, no matching event) stay.
        let mut conns = conns;
        let (dead, dead_rx) = conns.pop().expect("four connections");
        drop(dead_rx);
        let before = state.room(0).subscribers.len();
        let closed_before = state.metrics.snapshot().subscriptions_closed;
        state.room(0).deliver(vec![frame_with_an_event(2)], &state);
        assert_index_matches_scan(&state, "prune");
        let room = state.room(0);
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
            state.metrics.snapshot().subscriptions_closed,
            closed_before + 3
        );
    }
}
