//! The world hub: per-room cross-sensor fusion behind the wire protocol.
//!
//! Shards forward every sensor's [`FrameReport`]s here; the hub routes
//! them to the owning room's [`FusionEngine`]
//! (sensor→room comes from the [`WorldConfig`]'s registrations), and
//! broadcasts each fused [`WorldFrame`] — as `WorldUpdate` wire frames —
//! plus its fleet events — as `Event` wire frames — to every connection
//! subscribed to that room. Clients therefore subscribe to *rooms*, not
//! raw sensors: occupancy, handoffs, and falls arrive pre-fused.
//!
//! Delivery mirrors the per-sensor update path: frames are encoded into
//! pooled buffers and `try_send`-shed to lagging subscribers (counted in
//! [`MetricsSnapshot::updates_dropped`]); a vanished subscriber is pruned
//! on its first failed send. Control replies (acks, rejects, final
//! `SubscriptionStats`) are never shed: one that meets a full outbox is
//! held and retried, and its connection takes no world traffic until
//! the reply is through. The hub's inbox is unbounded — fusion is a
//! few Kalman updates per track per epoch, orders of magnitude cheaper
//! than the sweep pipelines feeding it — so shards never block on it.
//!
//! Subscriptions are *programmable* (wire v3): each carries a compiled
//! [`FilterProgram`](crate::program::FilterProgram) the hub evaluates
//! per event **before** any encoding. Per fused frame the hub (1) runs
//! every event-subscriber's program over the frame's events — behind two
//! kind-mask pre-screens: a per-room coarse index (the OR of every
//! subscriber program's possible kinds) skips whole events nobody could
//! match, and each program's own mask skips its evaluation — then (2)
//! encodes the world update and *only the events somebody matched*, each
//! exactly once into the reused scratch, and (3) copies the matched
//! windows into per-subscriber pooled buffers. Non-matching subscribers
//! therefore cost a few predicate ops, not an encode + send.
//!
//! [`MetricsSnapshot::updates_dropped`]: crate::metrics::MetricsSnapshot::updates_dropped

use crate::engine::ConnSink;
use crate::metrics::EngineMetrics;
use crate::pool::{BufPool, PooledBuf};
use crate::program::{CompiledProgram, EventCtx, ProgramState};
use crate::wire::{self, Message, RejectCode, SubscribeAck, SubscribeV3, SubscriptionStats};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TrySendError};
use std::sync::Arc;
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

pub(crate) enum HubMsg {
    /// One sensor's frame reports (already shard-processed).
    Reports(u32, Vec<FrameReport>),
    /// A connection wants a room's world stream. The bool says whether
    /// to answer with a `SubscribeAck` — v3 subscribers expect one, the
    /// deprecated v2 shim's clients don't know the type exists.
    Subscribe(SubscribeV3, ConnSink, bool),
    /// A connection releases one subscription; the hub answers with its
    /// final `SubscriptionStats`.
    Unsubscribe(wire::Unsubscribe, ConnSink),
    /// A sensor's session closed; stop waiting for it at fusion
    /// watermarks.
    SensorClosed(u32),
    /// A connection hung up: drop its subscriptions *now*. Holding them
    /// until a failed send would also hold the connection's outbox
    /// sender — and the connection writer only exits when every sender
    /// is gone, so a stale subscription would wedge connection teardown.
    ConnClosed(u64),
}

/// Cloneable ingress to the hub thread.
#[derive(Clone)]
pub(crate) struct HubHandle {
    tx: Sender<HubMsg>,
    /// Sensors belonging to some fused room (static for the hub's
    /// lifetime). Shards consult this before cloning report batches:
    /// a sensor outside every room would have its clone dropped at the
    /// hub's routing lookup, so the clone is never made.
    fused_sensors: Arc<HashSet<u32>>,
}

impl HubHandle {
    /// `false` when the hub thread is gone (engine shutting down).
    pub(crate) fn send(&self, msg: HubMsg) -> bool {
        self.tx.send(msg).is_ok()
    }

    /// Whether the hub fuses this sensor (worth forwarding its reports).
    pub(crate) fn wants(&self, sensor_id: u32) -> bool {
        self.fused_sensors.contains(&sensor_id)
    }
}

/// The running hub thread (owned by the engine).
pub(crate) struct WorldHub {
    thread: JoinHandle<()>,
}

struct Room {
    room_id: u32,
    engine: FusionEngine,
    subscribers: Vec<Subscriber>,
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
}

impl Room {
    /// Recomputes the coarse kind index from the live subscriber set.
    fn rebuild_event_mask(&mut self) {
        self.event_kind_mask = self
            .subscribers
            .iter()
            .filter(|s| s.events)
            .fold(0, |m, s| m | s.program.kind_mask());
    }
}

struct Subscriber {
    sink: ConnSink,
    /// Client-chosen id (0 for v2-shim subscriptions).
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
    /// subscription matched. Cleared per frame, capacity reused.
    hits: Vec<u32>,
    /// Whether the current frame's world update goes to this subscriber
    /// (decided in the evaluation pre-pass).
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

struct HubWorker {
    rx: Receiver<HubMsg>,
    rooms: Vec<Room>,
    /// sensor id → index into `rooms`.
    sensor_rooms: HashMap<u32, usize>,
    frame_pool: BufPool<u8>,
    metrics: Arc<EngineMetrics>,
    recorder: Arc<FlightRecorder>,
    stop: Arc<AtomicBool>,
    /// Reused encode buffer: each fused frame (and its events) is
    /// serialized once here, then memcpy'd into per-subscriber pooled
    /// buffers.
    update_scratch: Vec<u8>,
    /// Reused per-frame event contexts (events surviving the room's
    /// coarse kind index, paired with their frame-event index).
    ctx_scratch: Vec<(u32, EventCtx)>,
    /// Reused per-frame encoded byte ranges: `event index → (start, end)`
    /// window into `update_scratch`, `(0, 0)` for events nobody matched
    /// (and therefore never encoded).
    range_scratch: Vec<(u32, u32)>,
    /// Hub start; liveness silence is measured on this clock.
    epoch: Instant,
    /// Last liveness sweep (sweeps run at most every [`LIVENESS_TICK`]).
    last_tick: Instant,
    /// Control replies that met a full outbox, oldest first, retried on
    /// every hub wake-up (at least every [`REPLY_RETRY`]) until their
    /// connection takes them or closes.
    held_replies: Vec<(ConnSink, PooledBuf<u8>)>,
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
        let registry = Arc::clone(metrics.registry());
        let mut sensor_rooms = HashMap::new();
        let rooms: Vec<Room> = cfg
            .rooms
            .into_iter()
            .enumerate()
            .map(|(idx, spec)| {
                for sensor in spec.registration.sensor_ids() {
                    let prev = sensor_rooms.insert(sensor, idx);
                    assert!(prev.is_none(), "sensor {sensor} registered to two rooms");
                }
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
                Room {
                    room_id: spec.room_id,
                    engine,
                    subscribers: Vec::new(),
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
                }
            })
            .collect();
        let fused_sensors = Arc::new(sensor_rooms.keys().copied().collect());
        let now = Instant::now();
        let worker = HubWorker {
            rx,
            rooms,
            sensor_rooms,
            frame_pool,
            metrics,
            recorder,
            stop,
            update_scratch: Vec::new(),
            ctx_scratch: Vec::new(),
            range_scratch: Vec::new(),
            epoch: now,
            last_tick: now,
            held_replies: Vec::new(),
        };
        let thread = std::thread::spawn(move || worker.run());
        (WorldHub { thread }, HubHandle { tx, fused_sensors })
    }

    /// Joins the hub thread (engine shutdown, after the shards).
    pub(crate) fn join(self) {
        self.thread.join().expect("world hub panicked");
    }
}

impl HubWorker {
    fn run(mut self) {
        loop {
            let wait = if self.held_replies.is_empty() {
                LIVENESS_TICK
            } else {
                self.retry_held_replies();
                REPLY_RETRY
            };
            match self.rx.recv_timeout(wait) {
                Ok(msg) => {
                    self.handle(msg);
                    // Busy rooms rarely idle long enough to hit the
                    // Timeout arm, so the sweep must also ride the
                    // message path (cadence-gated below).
                    self.maybe_tick();
                }
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    // Inbox empty: the only time shutdown may interrupt.
                    if self.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    self.maybe_tick();
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// Sweeps every room for silent sensors (at most once per
    /// [`LIVENESS_TICK`]): advances each [`FusionEngine`]'s liveness
    /// state machine, surfaces the transitions as anomalies and
    /// per-sensor series, and delivers any epochs the sweep unblocked.
    fn maybe_tick(&mut self) {
        if self.last_tick.elapsed() < LIVENESS_TICK {
            return;
        }
        self.last_tick = Instant::now();
        let now_s = self.epoch.elapsed().as_secs_f64();
        for idx in 0..self.rooms.len() {
            let room = &mut self.rooms[idx];
            let frames = room.engine.tick(now_s);
            let transitions = room.engine.take_liveness_transitions();
            for t in &transitions {
                if let Some(g) = room.liveness.get(&t.sensor_id) {
                    g.set(t.to.as_gauge());
                }
                let silence_ns = (t.silence_s.max(0.0) * 1e9) as u64;
                match t.to {
                    SensorLiveness::Suspect => {
                        // A stalled-but-not-yet-dead feed.
                        self.recorder.record(
                            AnomalyKind::Stall,
                            t.sensor_id as u64,
                            room.room_id as u64,
                            silence_ns,
                        );
                    }
                    SensorLiveness::Dead => {
                        self.recorder.record(
                            AnomalyKind::SensorDead,
                            t.sensor_id as u64,
                            room.room_id as u64,
                            silence_ns,
                        );
                    }
                    SensorLiveness::Live => {
                        if let Some(c) = room.reconnects.get(&t.sensor_id) {
                            c.inc();
                        }
                        self.recorder.record(
                            AnomalyKind::SensorRecovered,
                            t.sensor_id as u64,
                            room.room_id as u64,
                            silence_ns,
                        );
                    }
                }
            }
            if !frames.is_empty() {
                self.deliver(idx, frames);
            }
        }
    }

    fn handle(&mut self, msg: HubMsg) {
        match msg {
            HubMsg::Reports(sensor_id, reports) => {
                let Some(&idx) = self.sensor_rooms.get(&sensor_id) else {
                    // Sensors outside every room still stream their
                    // per-sensor updates; they just don't fuse.
                    return;
                };
                for report in &reports {
                    let frames = self.rooms[idx].engine.push_report(sensor_id, report);
                    self.deliver(idx, frames);
                }
            }
            HubMsg::SensorClosed(sensor_id) => {
                if let Some(&idx) = self.sensor_rooms.get(&sensor_id) {
                    let frames = self.rooms[idx].engine.remove_sensor(sensor_id);
                    self.deliver(idx, frames);
                }
            }
            HubMsg::Subscribe(sub, sink, ack) => self.subscribe(sub, sink, ack),
            HubMsg::Unsubscribe(unsub, sink) => self.unsubscribe(unsub, sink),
            HubMsg::ConnClosed(conn_id) => {
                self.held_replies.retain(|(s, _)| s.conn_id != conn_id);
                for room in &mut self.rooms {
                    let before = room.subscribers.len();
                    room.subscribers.retain(|s| s.sink.conn_id != conn_id);
                    let closed = before - room.subscribers.len();
                    if closed > 0 {
                        self.metrics.subscriptions_closed.add(closed as u64);
                        room.rebuild_event_mask();
                    }
                }
            }
        }
    }

    /// Sends a reply frame (ack, stats, reject) back to a subscriber's
    /// connection. A full outbox holds the reply for a retry instead of
    /// shedding it, behind any reply the connection already waits on.
    fn reply(&mut self, sink: &ConnSink, msg: &Message) {
        let mut buf = self.frame_pool.get(64);
        wire::encode_into(msg, &mut buf);
        self.held_replies.push((sink.clone(), buf));
        self.retry_held_replies();
    }

    /// Offers every held reply to its outbox again, in order. A
    /// connection whose oldest reply still meets a full outbox keeps the
    /// rest of its replies held behind it.
    fn retry_held_replies(&mut self) {
        let mut blocked: Vec<u64> = Vec::new();
        for (sink, buf) in std::mem::take(&mut self.held_replies) {
            if blocked.contains(&sink.conn_id) {
                self.held_replies.push((sink, buf));
                continue;
            }
            // A disconnected outbox means the connection is closing.
            if let Err(TrySendError::Full(buf)) = sink.tx.try_send(buf) {
                blocked.push(sink.conn_id);
                self.held_replies.push((sink, buf));
            }
        }
    }

    fn subscribe(&mut self, sub: SubscribeV3, sink: ConnSink, ack: bool) {
        let Some(room) = self.rooms.iter_mut().find(|r| r.room_id == sub.room_id) else {
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
        let program = match sub.program.compile() {
            Ok(p) => p,
            Err(_) => {
                self.metrics.batches_rejected.inc();
                let room_id = sub.room_id;
                self.reply(
                    &sink,
                    &Message::Reject(wire::Reject {
                        sensor_id: room_id,
                        code: RejectCode::BadProgram,
                    }),
                );
                return;
            }
        };
        self.metrics.subscriptions_opened.inc();
        let state = program.new_state();
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
        room.rebuild_event_mask();
        if ack {
            let reply = Message::SubscribeAck(SubscribeAck {
                room_id: sub.room_id,
                sub_id: sub.sub_id,
                status: 0,
            });
            self.reply(&sink, &reply);
        }
    }

    /// Removes one `(connection, sub_id)` subscription and answers with
    /// its final counters. Unknown subscriptions get
    /// `UnknownSubscription` — same as subscribing to an unknown room.
    fn unsubscribe(&mut self, unsub: wire::Unsubscribe, sink: ConnSink) {
        let found = self
            .rooms
            .iter_mut()
            .find(|r| r.room_id == unsub.room_id)
            .and_then(|room| {
                let at = room
                    .subscribers
                    .iter()
                    .position(|s| s.sink.conn_id == sink.conn_id && s.sub_id == unsub.sub_id)?;
                let sub = room.subscribers.swap_remove(at);
                room.rebuild_event_mask();
                Some(sub.stats(room.room_id))
            });
        match found {
            Some(stats) => {
                self.metrics.subscriptions_closed.inc();
                self.reply(&sink, &Message::SubscriptionStats(stats));
            }
            None => {
                self.metrics.batches_rejected.inc();
                self.reply(
                    &sink,
                    &Message::Reject(wire::Reject {
                        sensor_id: unsub.room_id,
                        code: RejectCode::UnknownSubscription,
                    }),
                );
            }
        }
    }

    /// Broadcasts fused frames (and their events) to a room's
    /// subscribers, shedding to lagging connections and pruning dead
    /// ones. Each frame and event is serialized exactly once (into the
    /// reused scratch) and copied byte-for-byte into per-subscriber
    /// pooled buffers.
    fn deliver(&mut self, room_idx: usize, frames: Vec<WorldFrame>) {
        let room = &mut self.rooms[room_idx];
        // Ghost suppressions happen inside fusion; surface the delta as
        // a room counter and quarantine records.
        let ghosts = room.engine.stats().ghosts_suppressed;
        if ghosts > room.last_ghosts {
            let new = ghosts - room.last_ghosts;
            room.ghosts_quarantined.add(new);
            self.recorder.record(
                AnomalyKind::GhostQuarantine,
                room.room_id as u64,
                new,
                ghosts,
            );
            room.last_ghosts = ghosts;
        }
        for frame in frames {
            self.metrics.world_frames.inc();
            self.metrics.world_events.add(frame.events.len() as u64);
            room.tracks.set(frame.tracks.len() as i64);
            room.epoch_lag
                .set(room.engine.watermark_lag_epochs() as i64);
            room.events.add(frame.events.len() as u64);
            for event in &frame.events {
                if let WorldEvent::Handoff {
                    from_sensor,
                    to_sensor,
                    ..
                } = event
                {
                    room.handoffs.inc();
                    self.recorder.record(
                        AnomalyKind::Handoff,
                        *from_sensor as u64,
                        *to_sensor as u64,
                        frame.epoch,
                    );
                }
            }
            let seq = room.out_seq;
            room.out_seq += 1;
            if room.subscribers.is_empty() {
                continue; // sequence still advances; nothing to encode
            }

            // --- Phase 1: evaluate, before anything is encoded. -------
            // Extract each event's matchable facts once, skipping whole
            // events outside the room's coarse kind index (no subscriber
            // program could match them).
            let ctxs = &mut self.ctx_scratch;
            ctxs.clear();
            for (ei, event) in frame.events.iter().enumerate() {
                let ctx = EventCtx::from_event(event);
                if room.event_kind_mask & ctx.kind_bit() != 0 {
                    ctxs.push((ei as u32, ctx));
                }
            }
            let metrics = &self.metrics;
            let mut any_world = false;
            let mut any_hit = false;
            let eval_start = Instant::now();
            for sub in &mut room.subscribers {
                // World updates pass through a per-subscription rate
                // gate on the fused frame's event time (deterministic
                // under replay, unlike a wall clock).
                sub.send_world = sub.world_updates
                    && (sub.min_update_interval_s <= 0.0
                        || sub
                            .last_update_s
                            .is_none_or(|last| frame.time_s - last >= sub.min_update_interval_s));
                if sub.send_world {
                    sub.last_update_s = Some(frame.time_s);
                    any_world = true;
                }
                sub.hits.clear();
                if !sub.events {
                    continue;
                }
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
                        any_hit = true;
                    }
                }
            }
            if !ctxs.is_empty() {
                let per_event = eval_start.elapsed().as_nanos() as u64 / ctxs.len() as u64;
                room.event_eval_ns.record(per_event);
            }
            if !any_world && !any_hit {
                continue; // nobody wants anything from this frame
            }

            // --- Phase 2: encode once — and only what somebody wants. -
            let scratch = &mut self.update_scratch;
            scratch.clear();
            let world_len = if any_world {
                wire::encode_world_update_into(room.room_id, seq, &frame, scratch);
                scratch.len()
            } else {
                0
            };
            let ranges = &mut self.range_scratch;
            ranges.clear();
            ranges.resize(frame.events.len(), (0, 0));
            for sub in &room.subscribers {
                for &ei in &sub.hits {
                    let slot = &mut ranges[ei as usize];
                    if slot.0 == slot.1 {
                        let start = scratch.len();
                        wire::encode_event_into(room.room_id, &frame.events[ei as usize], scratch);
                        *slot = (start as u32, scratch.len() as u32);
                    }
                }
            }

            // --- Phase 3: deliver, shedding and pruning as before. ----
            // A connection with a held reply yields its free outbox slots
            // to that reply: its world traffic sheds until it is through.
            let pool = &self.frame_pool;
            let recorder = &self.recorder;
            let held = &self.held_replies;
            let mut pruned = 0u64;
            room.subscribers.retain_mut(|sub| {
                let mut alive = true;
                let yields = held.iter().any(|(s, _)| s.conn_id == sub.sink.conn_id);
                let out = |buf| push(&sub.sink, buf, yields, metrics, recorder);
                if sub.send_world {
                    let mut buf = pool.get(world_len);
                    buf.extend_from_slice(&scratch[..world_len]);
                    metrics.world_bytes.add(world_len as u64);
                    alive &= out(buf) != Pushed::Gone;
                }
                if alive {
                    for &ei in &sub.hits {
                        let (start, end) = ranges[ei as usize];
                        let bytes = &scratch[start as usize..end as usize];
                        let mut buf = pool.get(bytes.len());
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
                if !alive {
                    pruned += 1;
                }
                alive
            });
            if pruned > 0 {
                metrics.subscriptions_closed.add(pruned);
                room.rebuild_event_mask();
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
