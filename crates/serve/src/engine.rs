//! The sharded engine: N sensor streams multiplexed over worker shards.
//!
//! Each sensor id is pinned to one shard — its fused room's, or
//! `sensor_id mod num_shards` for a sensor no room fuses (see
//! [`crate::hub`]) — and each shard's state owns the [`FramePipeline`]
//! instances of the sensors pinned to it, behind one per-shard mutex, so
//! a sensor's sweeps are always processed in order, one message at a
//! time. Shard input queues
//! are **bounded**: a producer outrunning the engine either blocks
//! ([`OverloadPolicy::Block`], socket-like backpressure) or has its newest
//! batch dropped and counted ([`OverloadPolicy::DropNewest`], for sensors
//! where stale sweeps are worse than missing ones).
//!
//! Who runs a message: [`EngineHandle::submit`] always queues it for the
//! shard's thread. A served connection's reader, though, runs it to
//! completion itself when the shard is idle — its state unlocked and its
//! `shard/queue_depth` at 0 under the lock — and the reader holds no
//! further input; that saves the shard thread's wake per frame. Depth
//! only drops under the lock as a message runs, so an inline message
//! never overtakes one queued ahead of it. Under load (a busy shard, or
//! a reader with more input waiting) messages queue, and floods still
//! spread over the shard threads. Shard threads run queued work, the
//! liveness tick and held-reply retries.
//!
//! Lifecycle per sensor: [`Hello`] (builds the pipeline via the
//! [`PipelineFactory`]) → any number of
//! [`SweepBatchQ`](wire::SweepBatchQ)s (sequence-checked; gaps and
//! reordering are counted and reported) → [`Teardown`]. Every frame
//! report is emitted as an `UpdateBatch` carrying a per-sensor output
//! sequence number.
//!
//! Server→client traffic is **per connection**: every message is submitted
//! with the [`ConnSink`] of the connection that carried it (served
//! connections and in-process callers alike open one with
//! [`EngineHandle::open_connection`]). A `Hello` ties its session to that
//! sink, and the owning shard encodes the session's updates and rejects
//! straight into the connection's bounded outbox — shedding, never
//! blocking, when it is full: one lagging client must not stall a shard.
//!
//! With a [`WorldConfig`], each fused room lives on the shard that runs
//! all of its sensors, and that shard owns it outright: it pushes each
//! new report into the room's fusion engine, delivers every epoch that
//! closes, and only then pushes the reports' `UpdateBatch` — so a fused
//! location leaves together with its sensor's update. Session close (and
//! the shard's exit drain) removes the sensor from its room the same
//! way. The room's control plane — subscribe, unsubscribe, connection
//! close, the liveness tick and held-reply retries — runs on that shard
//! too, between its messages. An engine without a world is one with zero
//! rooms.

use crate::hub::{Placement, Rooms, WorldConfig, LIVENESS_TICK, REPLY_RETRY};
use crate::metrics::{EngineMetrics, MetricsSnapshot};
use crate::pool::{BufPool, PooledBatch, PooledBuf, SamplePools};
use crate::transport::RxMsg;
use crate::wire::{self, Hello, Message, RejectCode, SubscribeV3, Teardown};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use witrack_core::{FramePipeline, FrameReport};
use witrack_obs::{
    AnomalyKind, Counter, FlightRecorder, Gauge, Histo, Label, Registry, StageStats,
};

/// What ingress does when a shard's bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Block the producer until the shard drains (backpressure).
    Block,
    /// Discard the newly-arrived batch and count it in
    /// [`MetricsSnapshot::batches_dropped`].
    DropNewest,
}

/// Engine construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of worker shards. Defaults to the host's available
    /// parallelism.
    pub num_shards: usize,
    /// Bounded depth of each shard's input queue, in sweep batches.
    pub queue_capacity: usize,
    /// Full-queue behavior for sweep batches (control messages always
    /// block — dropping a `Hello` or `Teardown` would wedge a session).
    pub overload: OverloadPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_shards: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            queue_capacity: 8,
            overload: OverloadPolicy::Block,
        }
    }
}

/// Builds a sensor's pipeline from its `Hello`. Returning `Err` rejects
/// the session with [`RejectCode::BadConfig`].
pub type PipelineFactory = dyn Fn(&Hello) -> Result<Box<dyn FramePipeline>, String> + Send + Sync;

/// Where one session's server→client traffic goes: a bounded queue of
/// **already-encoded wire frames** (update batches, rejects) owned by the
/// session's connection. Shards encode into pool-backed buffers and
/// `try_send` them, shedding on full
/// ([`MetricsSnapshot::updates_dropped`]); the connection's writer pushes
/// the bytes to the transport and the buffer recycles.
pub type UpdateSink = SyncSender<PooledBuf<u8>>;

/// How many server→client frames one connection may have pending before
/// pushes into its outbox start shedding.
pub const OUTBOX_CAPACITY: usize = 64;

/// A connection's outbox sender plus the connection's id (connection ids
/// scope the cleanup at connection close; see
/// [`EngineHandle::notify_conn_closed`]). Opened by
/// [`EngineHandle::open_connection`].
#[derive(Clone)]
pub struct ConnSink {
    /// Opaque id of the owning connection.
    pub conn_id: u64,
    /// The connection's outbox.
    pub tx: UpdateSink,
}

/// Offers one encoded frame to a connection's outbox without blocking.
/// A full (or closed) outbox sheds the frame: it is counted in
/// [`MetricsSnapshot::updates_dropped`] and recorded as an
/// [`AnomalyKind::Shed`] against the connection. The pooled buffer
/// recycles either way (the writer drops it after sending; a failed push
/// drops it here).
pub(crate) fn push_frame(
    sink: &ConnSink,
    frame: PooledBuf<u8>,
    metrics: &EngineMetrics,
    recorder: &FlightRecorder,
) {
    if sink.tx.try_send(frame).is_err() {
        metrics.updates_dropped.inc();
        recorder.record(AnomalyKind::Shed, sink.conn_id, 0, 0);
    }
}

/// Whether a submitted batch entered a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submitted {
    /// The message is in its shard's queue.
    Queued,
    /// The queue was full and policy is `DropNewest`; the batch was
    /// discarded (and counted).
    Dropped,
}

/// Submission errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The engine has shut down.
    EngineDown,
    /// `UpdateBatch`/`Reject`/`WorldUpdate`/`Event` are server→client
    /// messages; clients cannot submit them.
    ServerOnlyMessage,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::EngineDown => write!(f, "engine has shut down"),
            SubmitError::ServerOnlyMessage => write!(f, "server-only message type"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Every message carries the sink of the connection that sent it, so
/// refusals — including ones no session exists for, like an unknown
/// sensor id — reach the sender over the wire.
enum ShardMsg {
    Hello(Hello, ConnSink),
    /// A sweep batch (header + pooled samples), its connection's sink and
    /// its enqueue instant (queue-wait telemetry; `None` until queued, and
    /// for a batch a connection reader runs inline).
    Batch(PooledBatch, ConnSink, Option<Instant>),
    Teardown(Teardown, ConnSink),
    /// A room subscription, for the room's shard to install or refuse.
    Subscribe(SubscribeV3, ConnSink),
    /// A subscription release, for the room's shard.
    Unsubscribe(wire::Unsubscribe, ConnSink),
    /// A connection hung up: every shard closes the sessions it owns and
    /// drops its subscriptions and held replies *now*. Holding them until
    /// a failed send would also hold the connection's outbox sender — and
    /// the connection writer only exits when every sender is gone.
    ConnClosed(u64),
    /// Wakes the shard thread: to notice the stop flag, or to retry
    /// replies an inline run left held.
    Wake,
}

/// Cloneable ingress side of the engine: routes client messages to shards.
#[derive(Clone)]
pub struct EngineHandle {
    shards: Vec<ShardPort>,
    overload: OverloadPolicy,
    metrics: Arc<EngineMetrics>,
    /// Recycles ingest sample buffers (socket → decode → shard →
    /// pipeline).
    ingest: SamplePools,
    /// Recycles outbox encode buffers (shard → outbox → transport).
    frame_pool: BufPool<u8>,
    /// Which shard runs each fused room and each sensor.
    placement: Arc<Placement>,
    /// The engine's metric registry (all `engine`/`shard`/`sensor`/
    /// `pipeline`/`room` series).
    registry: Arc<Registry>,
    /// The engine's anomaly flight recorder.
    recorder: Arc<FlightRecorder>,
    /// Source of this engine's connection ids (see
    /// [`Self::open_connection`]).
    next_conn_id: Arc<AtomicU64>,
}

impl EngineHandle {
    /// The pools connection readers should decode sweep samples into
    /// (see [`crate::transport::TransportRx::recv_msg_pooled`]).
    pub fn ingest_pools(&self) -> &SamplePools {
        &self.ingest
    }

    /// The pool shards encode outbound frames into — exposed for tests
    /// and capacity monitoring.
    pub fn frame_pool(&self) -> &BufPool<u8> {
        &self.frame_pool
    }

    /// Opens a connection: a fresh connection id and a bounded outbox of
    /// [`OUTBOX_CAPACITY`] pre-encoded frames. Submit messages with the
    /// returned sink; every reply (updates, rejects, acks, reports) for
    /// them arrives on the receiver, exactly as a socket client would
    /// read it. Pushes into a full outbox shed, so drain it while
    /// sending.
    pub fn open_connection(&self) -> (ConnSink, Receiver<PooledBuf<u8>>) {
        let (tx, rx) = sync_channel(OUTBOX_CAPACITY);
        let conn_id = self.next_conn_id.fetch_add(1, Ordering::Relaxed);
        (ConnSink { conn_id, tx }, rx)
    }

    /// Routes one client message, carried by the connection of `sink`.
    /// `Hello` and `Teardown` always block on a full shard queue;
    /// `SweepBatchQ` follows the configured [`OverloadPolicy`].
    ///
    /// A refused `Hello` sends its `Reject` to `sink` and leaves no
    /// session state behind. `SubscribeV3`/`Unsubscribe` go to the shard
    /// owning the room, which answers with a
    /// `SubscribeAck`/`SubscriptionStats` (or a `Reject` carrying
    /// [`RejectCode::BadProgram`]/[`RejectCode::UnknownSubscription`]);
    /// a room no shard owns — every room, for an engine started without
    /// a [`WorldConfig`] — is refused by shard 0. Those replies are never
    /// shed. A `StatsQuery` is answered at once with a
    /// `StatsReport` of [`Self::stats_samples`] — no shard round-trip.
    pub fn submit(&self, msg: Message, sink: &ConnSink) -> Result<Submitted, SubmitError> {
        match self.route(msg, sink)? {
            Some((idx, msg)) => self.queue(idx, msg),
            None => Ok(Submitted::Queued),
        }
    }

    /// Submits one message a connection reader decoded. When the reader
    /// holds no further input (`more_input` false) and the message's
    /// shard is idle, the reader runs it to completion itself (see
    /// [`Self::run_if_idle`]); otherwise it is queued exactly as
    /// [`Self::submit`] queues it.
    pub(crate) fn submit_read(
        &self,
        msg: RxMsg,
        sink: &ConnSink,
        more_input: bool,
    ) -> Result<(), SubmitError> {
        let routed = match msg {
            RxMsg::Batch(b) => Some(self.route_batch(b, sink)),
            RxMsg::Control(m) => self.route(m, sink)?,
        };
        let Some((idx, msg)) = routed else {
            return Ok(());
        };
        let msg = if more_input {
            msg
        } else {
            match self.run_if_idle(idx, msg) {
                Some(msg) => msg,
                None => return Ok(()),
            }
        };
        self.queue(idx, msg).map(drop)
    }

    /// The shard a client message goes to, with its shard message — or
    /// `None` for a `StatsQuery`, answered here at once.
    fn route(
        &self,
        msg: Message,
        sink: &ConnSink,
    ) -> Result<Option<(usize, ShardMsg)>, SubmitError> {
        let (idx, msg) = match msg {
            Message::Hello(h) => (
                self.placement.sensor_shard(h.sensor_id),
                ShardMsg::Hello(h, sink.clone()),
            ),
            Message::Teardown(t) => (
                self.placement.sensor_shard(t.sensor_id),
                ShardMsg::Teardown(t, sink.clone()),
            ),
            Message::SweepBatchQ(q) => self.route_batch(PooledBatch::from_owned_q(q), sink),
            Message::SubscribeV3(s) => (
                self.placement.room_shard(s.room_id),
                ShardMsg::Subscribe(s, sink.clone()),
            ),
            Message::Unsubscribe(u) => (
                self.placement.room_shard(u.room_id),
                ShardMsg::Unsubscribe(u, sink.clone()),
            ),
            Message::StatsQuery(_) => {
                let samples = self.stats_samples();
                let mut buf = self.frame_pool.get(64 * samples.len().max(1));
                wire::encode_stats_report_into(&samples, &mut buf);
                push_frame(sink, buf, &self.metrics, &self.recorder);
                return Ok(None);
            }
            Message::UpdateBatch(_)
            | Message::Reject(_)
            | Message::WorldUpdate(_)
            | Message::Event(_)
            | Message::StatsReport(_)
            | Message::SubscribeAck(_)
            | Message::SubscriptionStats(_) => return Err(SubmitError::ServerOnlyMessage),
        };
        Ok(Some((idx, msg)))
    }

    fn route_batch(&self, batch: PooledBatch, sink: &ConnSink) -> (usize, ShardMsg) {
        (
            self.placement.sensor_shard(batch.shape.sensor_id),
            ShardMsg::Batch(batch, sink.clone(), None),
        )
    }

    /// Encodes a `Reject` into the connection's outbox (shedding like any
    /// other push when it is full).
    pub(crate) fn send_reject(&self, sink: &ConnSink, id: u32, code: RejectCode) {
        let mut buf = self.frame_pool.get(32);
        wire::encode_reject_into(id, code, &mut buf);
        push_frame(sink, buf, &self.metrics, &self.recorder);
    }

    /// A point-in-time snapshot of every metric series visible from this
    /// engine: its own registry (engine, shard, sensor, pipeline, room
    /// series) merged with the process-wide [`witrack_obs::global`]
    /// registry (e.g. `dsp` plan-cache counters), sorted by key.
    pub fn stats_samples(&self) -> Vec<witrack_obs::MetricSample> {
        let mut samples = self.registry.snapshot();
        samples.extend(witrack_obs::global().snapshot());
        samples.sort_by_key(|s| s.key);
        samples
    }

    /// The engine's metric registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The engine's anomaly flight recorder.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Submits one decoded sweep batch whose samples live in a pooled
    /// buffer — the ingest hot path. The buffer travels to the owning
    /// shard and returns to its pool right after the pipeline consumes
    /// it (or immediately, if the batch is dropped or refused).
    pub fn submit_batch_pooled(
        &self,
        batch: PooledBatch,
        sink: &ConnSink,
    ) -> Result<Submitted, SubmitError> {
        let (idx, msg) = self.route_batch(batch, sink);
        self.queue(idx, msg)
    }

    /// Runs `msg` to completion on the calling thread — the shard's
    /// [`ShardState::dispatch`] of one message, with no queue and no
    /// shard-thread wake — when shard `idx` is idle: its state is
    /// unlocked and live, and its `shard/queue_depth` reads 0 under the
    /// lock. Depth only drops when a message has run, under this lock, so
    /// nothing the caller queued for this shard earlier is still ahead of
    /// `msg`. Everything a run does is non-blocking (outbox pushes shed or
    /// hold), so the caller never blocks while it holds the lock. Hands
    /// `msg` back when the shard is busy.
    fn run_if_idle(&self, idx: usize, msg: ShardMsg) -> Option<ShardMsg> {
        let shard = &self.shards[idx];
        let Ok(mut guard) = shard.state.try_lock() else {
            return Some(msg);
        };
        let Some(state) = guard.as_mut().filter(|_| shard.depth.get() == 0) else {
            return Some(msg);
        };
        // Counted like a queued message, so `handle`'s dequeue accounting
        // balances.
        self.metrics.enqueued();
        shard.depth.add(1);
        state.inline_runs.inc();
        state.dispatch(msg, None);
        let holds_replies = state.rooms.holds_replies();
        drop(guard);
        if holds_replies {
            // The shard thread sleeps until its next liveness tick; wake
            // it to retry the replies on its short timer. A full queue
            // wakes it anyway.
            let _ = shard.queue.try_send(ShardMsg::Wake);
        }
        None
    }

    /// Queues `msg` on shard `idx`. Control messages block on a full
    /// queue (dropping a `Hello` or `Teardown` would wedge a session);
    /// sweep batches follow the [`OverloadPolicy`], a dropped one counted
    /// and recorded.
    fn queue(&self, idx: usize, mut msg: ShardMsg) -> Result<Submitted, SubmitError> {
        let batch = match &mut msg {
            ShardMsg::Batch(b, _, queued_at) => {
                *queued_at = Some(Instant::now());
                Some((b.shape.sensor_id, b.shape.seq))
            }
            _ => None,
        };
        let shard = &self.shards[idx];
        // Count before sending: the shard's dequeue must never observe an
        // un-counted message (inflight would underflow).
        self.metrics.enqueued();
        shard.depth.add(1);
        let sent = if batch.is_none() || self.overload == OverloadPolicy::Block {
            match shard.queue.send(msg) {
                Ok(()) => Ok(Submitted::Queued),
                Err(_) => Err(SubmitError::EngineDown),
            }
        } else {
            match shard.queue.try_send(msg) {
                Ok(()) => Ok(Submitted::Queued),
                Err(TrySendError::Full(_)) => Ok(Submitted::Dropped),
                Err(TrySendError::Disconnected(_)) => Err(SubmitError::EngineDown),
            }
        };
        if sent != Ok(Submitted::Queued) {
            self.metrics.enqueue_failed();
            shard.depth.add(-1);
        }
        if let (Ok(Submitted::Dropped), Some((sensor_id, seq))) = (sent, batch) {
            self.metrics.batches_dropped.inc();
            self.recorder
                .record(AnomalyKind::Drop, sensor_id as u64, idx as u64, seq);
        }
        sent
    }

    /// Tells every shard a connection ended. Each closes the sessions the
    /// connection owns — and only those: a sensor some other connection
    /// owns is spared — and releases its room subscriptions and held
    /// replies, and with them the shards' clones of the connection's
    /// outbox sender, which the connection writer's exit waits on. A
    /// shard does this after everything the connection queued before.
    pub fn notify_conn_closed(&self, conn_id: u64) {
        for idx in 0..self.shards.len() {
            let _ = self.queue(idx, ShardMsg::ConnClosed(conn_id));
        }
    }

    /// The engine's shared counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

/// The running engine: shard workers plus their queues.
pub struct ShardedEngine {
    handle: EngineHandle,
    workers: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl ShardedEngine {
    /// A fluent constructor: `ShardedEngine::builder(factory)
    /// .config(cfg).world(world_cfg).start()` — one shape that grows
    /// options without new entry points.
    pub fn builder(factory: Arc<PipelineFactory>) -> EngineBuilder {
        EngineBuilder {
            cfg: EngineConfig::default(),
            factory,
            world: WorldConfig::default(),
        }
    }

    /// A cloneable ingress handle.
    pub fn handle(&self) -> EngineHandle {
        self.handle.clone()
    }
}

/// Fluent construction for [`ShardedEngine`] — see
/// [`ShardedEngine::builder`].
pub struct EngineBuilder {
    cfg: EngineConfig,
    factory: Arc<PipelineFactory>,
    world: WorldConfig,
}

impl EngineBuilder {
    /// Engine shape: shard count, queue depth, overload policy.
    pub fn config(mut self, cfg: EngineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Fuse the configured rooms: each room goes to one shard with its
    /// sensors, every fused session's frame reports feed its room's
    /// [`witrack_fuse::FusionEngine`], and connections may subscribe to
    /// rooms for fused `WorldUpdate`/`Event` streams.
    pub fn world(mut self, world: WorldConfig) -> Self {
        self.world = world;
        self
    }

    /// Starts the shard workers.
    pub fn start(self) -> ShardedEngine {
        let EngineBuilder {
            cfg,
            factory,
            world,
        } = self;
        let num_shards = cfg.num_shards.max(1);
        let registry = Arc::new(Registry::new());
        let metrics = Arc::new(EngineMetrics::new(Arc::clone(&registry)));
        let recorder = Arc::new(FlightRecorder::new(1024));
        let stop = Arc::new(AtomicBool::new(false));
        // Sample buffers live from decode until the owning shard finishes
        // a batch, so the steady-state population is bounded by the total
        // queue depth plus one in-decode and one in-pipeline per thread;
        // cap the free list a little above that. Outbox encode buffers
        // are small and bounded by outbox depth.
        let ingest = SamplePools::new(num_shards * cfg.queue_capacity.max(1) + 2 * num_shards + 8);
        let frame_pool = BufPool::new(256);
        let (placement, shard_rooms) = Placement::new(world, num_shards);
        let mut shards = Vec::with_capacity(num_shards);
        let mut workers = Vec::with_capacity(num_shards);
        let started = Instant::now();
        for (i, rooms) in shard_rooms.into_iter().enumerate() {
            let (queue, rx) = sync_channel(cfg.queue_capacity.max(1));
            let shard_label = Label::Shard(i as u32);
            let depth = registry.gauge("shard", "queue_depth", shard_label);
            let state = Arc::new(Mutex::new(Some(ShardState {
                factory: Arc::clone(&factory),
                metrics: Arc::clone(&metrics),
                sessions: HashMap::new(),
                frame_pool: frame_pool.clone(),
                updates_scratch: Vec::new(),
                rooms: Rooms::new(
                    rooms,
                    frame_pool.clone(),
                    Arc::clone(&metrics),
                    Arc::clone(&recorder),
                ),
                started,
                last_tick: started,
                registry: Arc::clone(&registry),
                recorder: Arc::clone(&recorder),
                queue_depth: depth.clone(),
                queue_wait: registry.histo("shard", "queue_wait_ns", shard_label),
                dequeue_to_report: registry.histo("shard", "dequeue_to_report_ns", shard_label),
                batched_frames: registry.counter("dsp", "batched_frames", shard_label),
                inline_runs: registry.counter("shard", "inline_runs", shard_label),
            })));
            let worker = ShardWorker {
                rx,
                state: Arc::clone(&state),
                stop: Arc::clone(&stop),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("shard-{i}"))
                    .spawn(move || worker.run())
                    .expect("spawn a shard worker"),
            );
            shards.push(ShardPort {
                queue,
                depth,
                state,
            });
        }
        let handle = EngineHandle {
            shards,
            overload: cfg.overload,
            metrics,
            ingest,
            frame_pool,
            placement: Arc::new(placement),
            registry,
            recorder,
            next_conn_id: Arc::new(AtomicU64::new(1)),
        };
        ShardedEngine {
            handle,
            workers,
            stop,
        }
    }
}

impl ShardedEngine {
    /// Current counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.handle.metrics()
    }

    /// The engine's metric registry: every `engine`/`shard`/`sensor`/
    /// `pipeline`/`room` series this engine registers.
    pub fn registry(&self) -> &Arc<Registry> {
        self.handle.registry()
    }

    /// The engine's anomaly flight recorder (drops, rejects, sequence
    /// gaps, shed updates, ghost quarantines, handoffs).
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        self.handle.recorder()
    }

    /// Stops the shards after they drain their queues and joins them.
    /// Each shard drops its rooms as it exits, and with them every
    /// subscriber's outbox sender. Outstanding [`EngineHandle`] clones see
    /// [`SubmitError::EngineDown`] afterwards.
    pub fn shutdown(self) -> MetricsSnapshot {
        self.stop.store(true, Ordering::SeqCst);
        for shard in &self.handle.shards {
            // Best-effort nudge; a full queue will notice the flag on its
            // own at the drain timeout.
            let _ = shard.queue.try_send(ShardMsg::Wake);
        }
        for w in self.workers {
            w.join().expect("shard worker panicked");
        }
        self.handle.metrics()
    }
}

struct Session {
    pipeline: Box<dyn FramePipeline>,
    /// The stream shape this session's `Hello` promised; batches that
    /// disagree are refused before they can reach the pipeline's
    /// stricter (panicking) asserts.
    samples_per_sweep: u32,
    /// The connection that opened the session: its updates and
    /// session-scoped rejects go here.
    sink: ConnSink,
    next_in_seq: u64,
    out_seq: u64,
    /// This sensor's `sensor/frames` registry counter.
    frames: Counter,
}

/// Ingress's view of one shard.
#[derive(Clone)]
struct ShardPort {
    /// The shard's bounded input queue.
    queue: SyncSender<ShardMsg>,
    /// The shard's `shard/queue_depth` gauge: incremented at enqueue,
    /// decremented under the state lock when the message runs.
    depth: Gauge,
    /// The shard's state, run by its thread and by connection readers'
    /// inline runs. `None` once the shard has exited.
    state: Arc<Mutex<Option<ShardState>>>,
}

/// A shard's thread: it runs queued work, the liveness tick and
/// held-reply retries on the shard's state.
struct ShardWorker {
    rx: Receiver<ShardMsg>,
    state: Arc<Mutex<Option<ShardState>>>,
    stop: Arc<AtomicBool>,
}

impl ShardWorker {
    fn run(self) {
        loop {
            // Sleep until the next held-reply retry or liveness sweep.
            let wait = self.with_state(|s| s.next_wait());
            match self.rx.recv_timeout(wait) {
                Ok(msg) => self.with_state(|s| s.dispatch(msg, Some(&self.rx))),
                Err(RecvTimeoutError::Timeout) => {
                    // Queue empty: the only time shutdown may interrupt —
                    // accepted work is never abandoned mid-queue.
                    if self.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    self.with_state(ShardState::housekeep);
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        // Engine handles keep the mutex alive, so take the state out:
        // its sessions, rooms and every outbox sender they hold go now.
        let state = self.state.lock().expect("shard state poisoned").take();
        if let Some(state) = state {
            state.close();
        }
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut ShardState) -> R) -> R {
        let mut guard = self.state.lock().expect("shard state poisoned");
        f(guard.as_mut().expect("a running shard holds its state"))
    }
}

/// Everything one shard owns: its sessions and their pipelines, its
/// rooms, and its telemetry.
struct ShardState {
    factory: Arc<PipelineFactory>,
    metrics: Arc<EngineMetrics>,
    sessions: HashMap<u32, Session>,
    /// Pool the shard encodes outbound frames into.
    frame_pool: BufPool<u8>,
    /// Per-batch report scratch, reused across batches (taken/returned
    /// around each batch so the session borrow stays clean).
    updates_scratch: Vec<FrameReport>,
    /// The fused rooms this shard owns (and the control replies it
    /// holds): the shard fuses every emitted report batch of their
    /// sensors itself.
    rooms: Rooms,
    /// Shard start; liveness silence is measured on this clock.
    started: Instant,
    /// Last liveness sweep (sweeps run every [`LIVENESS_TICK`]).
    last_tick: Instant,
    /// The engine registry (per-sensor series register at session open).
    registry: Arc<Registry>,
    /// The engine's anomaly flight recorder.
    recorder: Arc<FlightRecorder>,
    /// This shard's `shard/queue_depth` gauge (decremented as a message
    /// runs).
    queue_depth: Gauge,
    /// Batch enqueue → dequeue wall time (0 for an inline run).
    queue_wait: Arc<Histo>,
    /// Batch dequeue → reports-delivered wall time.
    dequeue_to_report: Arc<Histo>,
    /// Sweep batches processed in cache-blocked dispatch groups (this
    /// shard's `dsp/batched_frames` counter; incremented by group size).
    batched_frames: Counter,
    /// Messages connection readers ran inline on an idle shard
    /// (`shard/inline_runs`).
    inline_runs: Counter,
}

impl ShardState {
    /// How long the shard thread may sleep: until the next held-reply
    /// retry or liveness sweep.
    fn next_wait(&self) -> Duration {
        if self.rooms.holds_replies() {
            REPLY_RETRY
        } else {
            LIVENESS_TICK.saturating_sub(self.last_tick.elapsed())
        }
    }

    /// Closes the sessions still open as the shard exits — the only exit
    /// their pipelines have — so `sessions_closed` balances
    /// `sessions_opened` even for clients that never sent `Teardown`.
    /// The rooms (and their subscribers' outbox senders) drop with the
    /// state.
    fn close(mut self) {
        for (sensor_id, _) in self.sessions.drain() {
            self.metrics.sessions_closed.inc();
            self.rooms.remove_sensor(sensor_id);
        }
    }

    /// Offers held replies again and, once [`LIVENESS_TICK`] has passed
    /// since the last sweep, sweeps the rooms for silent sensors. Runs on
    /// every wake and after every message, so a steady stream of
    /// messages cannot starve either.
    fn housekeep(&mut self) {
        if self.rooms.holds_replies() {
            self.rooms.retry_held();
        }
        if self.last_tick.elapsed() >= LIVENESS_TICK {
            self.last_tick = Instant::now();
            self.rooms.tick(self.started.elapsed().as_secs_f64());
        }
    }

    /// Counts a refusal and tells `sink`'s connection. Rejects are
    /// advisory, so a full outbox sheds them like updates (blocking would
    /// stall every sensor on the shard).
    fn reject(&self, sink: &ConnSink, sensor_id: u32, code: RejectCode) {
        self.metrics.batches_rejected.inc();
        if code == RejectCode::UnknownSensor {
            self.metrics.unknown_sensor.inc();
        }
        self.recorder.record(
            AnomalyKind::Reject,
            sensor_id as u64,
            code.to_u16() as u64,
            0,
        );
        let mut frame = self.frame_pool.get(32);
        wire::encode_reject_into(sensor_id, code, &mut frame);
        push_frame(sink, frame, &self.metrics, &self.recorder);
    }

    /// Handles one message, then — given the shard's `queue` — greedily
    /// drains everything already queued before blocking again. Sweep
    /// batches processed in one drain run back-to-back while the shard's
    /// range-transform plans, window tables, and pipeline state are
    /// cache-hot — at 100+ co-sharded sensors the per-dispatch warm-up
    /// otherwise dominates — and the group size feeds the
    /// `dsp/batched_frames` counter. An inline run is a drain of one.
    fn dispatch(&mut self, first: ShardMsg, queue: Option<&Receiver<ShardMsg>>) {
        let mut grouped = 0u64;
        let mut msg = first;
        loop {
            if matches!(msg, ShardMsg::Batch(..)) {
                grouped += 1;
            }
            self.handle(msg);
            self.housekeep();
            match queue.map(Receiver::try_recv) {
                Some(Ok(next)) => msg = next,
                _ => break,
            }
        }
        if grouped > 0 {
            self.batched_frames.add(grouped);
        }
    }

    fn handle(&mut self, msg: ShardMsg) {
        if !matches!(msg, ShardMsg::Wake) {
            self.metrics.dequeued();
            self.queue_depth.add(-1);
        }
        match msg {
            ShardMsg::Wake => {}
            ShardMsg::Hello(h, sink) => self.open_session(h, sink),
            ShardMsg::Teardown(teardown, sink) => self.close_session(teardown, &sink),
            ShardMsg::Subscribe(sub, sink) => self.rooms.subscribe(sub, sink),
            ShardMsg::Unsubscribe(unsub, sink) => self.rooms.unsubscribe(unsub, sink),
            ShardMsg::ConnClosed(conn_id) => self.conn_closed(conn_id),
            ShardMsg::Batch(b, sink, queued_at) => {
                let dequeued_at = Instant::now();
                self.queue_wait.record(
                    queued_at.map_or(0, |t| dequeued_at.duration_since(t).as_nanos() as u64),
                );
                self.process_batch(b, &sink);
                // Dequeue → reports delivered (pipeline + encode + sink
                // push): the shard's end-to-end service time per batch.
                self.dequeue_to_report.record_since(dequeued_at);
            }
        }
    }

    fn open_session(&mut self, h: Hello, sink: ConnSink) {
        if self.sessions.contains_key(&h.sensor_id) {
            // The *existing* session's sink must not learn about this —
            // the refusal goes to whoever sent the duplicate.
            self.reject(&sink, h.sensor_id, RejectCode::DuplicateSensor);
            return;
        }
        let mut pipeline = match (self.factory)(&h) {
            Ok(p) => p,
            Err(_) => {
                self.reject(&sink, h.sensor_id, RejectCode::BadConfig);
                return;
            }
        };
        if pipeline.num_rx() != h.n_rx as usize {
            self.reject(&sink, h.sensor_id, RejectCode::BadConfig);
            return;
        }
        self.metrics.sessions_opened.inc();
        // Per-sensor series register here, off the hot path: the session
        // keeps cheap handles, and the backend records its per-stage
        // (profile/detect/associate) wall times straight into registry
        // histograms on every frame-completing push.
        let label = Label::Sensor(h.sensor_id);
        pipeline.attach_stage_stats(StageStats::registered(&self.registry, label));
        self.sessions.insert(
            h.sensor_id,
            Session {
                pipeline,
                samples_per_sweep: h.samples_per_sweep,
                sink,
                next_in_seq: 0,
                out_seq: 0,
                frames: self.registry.counter("sensor", "frames", label),
            },
        );
    }

    fn close_session(&mut self, t: Teardown, carried: &ConnSink) {
        if self.sessions.remove(&t.sensor_id).is_some() {
            self.metrics.sessions_closed.inc();
            // The fusion watermark must stop waiting for this sensor (its
            // world tracks coast until reacquired).
            self.rooms.remove_sensor(t.sensor_id);
        } else {
            self.reject(carried, t.sensor_id, RejectCode::UnknownSensor);
        }
    }

    /// Closes every session a hung-up connection owns, in sensor order,
    /// and drops its subscriptions and held replies.
    fn conn_closed(&mut self, conn_id: u64) {
        let mut owned: Vec<u32> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.sink.conn_id == conn_id)
            .map(|(&id, _)| id)
            .collect();
        owned.sort_unstable();
        for sensor_id in owned {
            self.sessions.remove(&sensor_id);
            self.metrics.sessions_closed.inc();
            self.rooms.remove_sensor(sensor_id);
        }
        self.rooms.conn_closed(conn_id);
    }

    fn process_batch(&mut self, b: PooledBatch, carried: &ConnSink) {
        let shape = b.shape;
        let Some(session) = self.sessions.get_mut(&shape.sensor_id) else {
            // No session to consult for a sink, but the connection that
            // carried the batch can still be told. (Dropping `b` here
            // returns its buffer to the pool.)
            self.reject(carried, shape.sensor_id, RejectCode::UnknownSensor);
            return;
        };
        let n_rx = session.pipeline.num_rx();
        let shape_ok = shape.n_rx as usize == n_rx
            && shape.samples_per_sweep == session.samples_per_sweep
            && b.samples.len() == shape.sample_count();
        if !shape_ok {
            let sink = session.sink.clone();
            self.reject(&sink, shape.sensor_id, RejectCode::BadConfig);
            return;
        }
        // Sequence accounting: replays/reordering are dropped (processing
        // an old batch would corrupt the pipeline's stream state), forward
        // gaps are counted but processed — the stream must go on.
        if shape.seq < session.next_in_seq {
            self.metrics.seq_out_of_order.inc();
            let sink = session.sink.clone();
            self.reject(&sink, shape.sensor_id, RejectCode::StaleSequence);
            return;
        }
        if shape.seq > session.next_in_seq {
            let gap = shape.seq - session.next_in_seq;
            self.metrics.seq_gaps.add(gap);
            self.recorder
                .record(AnomalyKind::SeqGap, shape.sensor_id as u64, gap, shape.seq);
        }
        session.next_in_seq = shape.seq + 1;

        // The hot loop: feed each sweep interval to the pipeline straight
        // off the pooled flat buffer (antennas are contiguous within an
        // interval, so no per-sweep slice table), collecting reports into
        // the shard's reused scratch. The samples stay i16 —
        // `process_sweeps_flat_q` keeps the profile front half in fixed
        // point and dequantizes late.
        let samples = shape.samples_per_sweep as usize;
        let interval = shape.samples_per_interval();
        let mut updates = std::mem::take(&mut self.updates_scratch);
        updates.clear();
        for s in 0..shape.n_sweeps as usize {
            let sweep = &b.samples[s * interval..(s + 1) * interval];
            if let Some(report) = session
                .pipeline
                .process_sweeps_flat_q(sweep, samples, b.scale)
            {
                updates.push(report);
            }
        }
        drop(b); // samples are consumed: recycle the buffer now
        self.metrics.sweeps_processed.add(shape.n_sweeps as u64);
        if !updates.is_empty() {
            self.metrics.frames_emitted.add(updates.len() as u64);
            session.frames.add(updates.len() as u64);
            // Fuse first: the epochs these reports close leave for their
            // subscribers ahead of the reports' own update, so a fused
            // location trails its sensor's by no thread hop.
            self.rooms.fuse_reports(shape.sensor_id, &updates);
            // The frame is encoded straight from the report slice into a
            // pooled buffer: no owned `UpdateBatch`, no per-event
            // allocation.
            let mut frame = self.frame_pool.get(64);
            wire::encode_update_batch_into(shape.sensor_id, session.out_seq, &updates, &mut frame);
            session.out_seq += 1;
            push_frame(&session.sink, frame, &self.metrics, &self.recorder);
        }
        updates.clear();
        self.updates_scratch = updates;
    }
}
