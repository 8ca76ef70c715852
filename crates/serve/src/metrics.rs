//! Engine health counters: drops, lag, sequence anomalies.
//!
//! The counters are [`witrack_obs`] registry handles — every series
//! lives in the engine's [`Registry`] under the `engine` subsystem, so
//! one snapshot (or a wire `StatsReport`, or text exposition) sees them
//! alongside the per-shard, per-sensor, and per-room series registered
//! elsewhere. Handles are relaxed atomics behind `Arc`s: updating one is
//! exactly the `fetch_add` the old bare-`AtomicU64` fields cost, and the
//! registry is only locked once per series at engine construction.
//! [`EngineMetrics::snapshot`] still reads everything into a plain
//! struct for printing and for the bench JSON artifacts.

use std::sync::Arc;
use witrack_obs::{Counter, Gauge, Label, Registry};

/// Shared engine counters (one instance per engine, behind an `Arc`),
/// all registered in the engine's metric [`Registry`].
///
/// `batches_in` and `inflight` are gauges rather than counters because
/// ingress must count *before* the queue send (or a shard's dequeue
/// could observe an un-counted message) and roll back when the send
/// fails — a decrement monotone counters don't allow.
#[derive(Debug)]
pub struct EngineMetrics {
    /// Messages a shard accepted — into its queue, or run inline by a
    /// connection reader: sweep batches plus control messages (hello,
    /// teardown, subscribe, unsubscribe, connection close).
    pub batches_in: Gauge,
    /// Sweep batches discarded at ingress because the target shard's queue
    /// was full (DropNewest policy only).
    pub batches_dropped: Counter,
    /// Sweep batches refused inside a shard (unknown sensor, shape
    /// mismatch, stale sequence).
    pub batches_rejected: Counter,
    /// Individual sweep intervals processed by pipelines.
    pub sweeps_processed: Counter,
    /// Frame reports emitted by pipelines.
    pub frames_emitted: Counter,
    /// Missing batches implied by forward sequence jumps.
    pub seq_gaps: Counter,
    /// Batches that arrived with an already-consumed sequence number.
    pub seq_out_of_order: Counter,
    /// Batches naming a sensor with no live session.
    pub unknown_sensor: Counter,
    /// Sessions opened.
    pub sessions_opened: Counter,
    /// Sessions closed: by teardown, by connection-scoped cleanup, or by
    /// the owning shard at engine shutdown — every opened session is
    /// eventually counted here.
    pub sessions_closed: Counter,
    /// Batches currently queued across all shards (ingress minus dequeues).
    pub inflight: Gauge,
    /// High-water mark of `inflight`: the worst queue backlog observed,
    /// the engine's lag signal.
    pub max_inflight: Gauge,
    /// Server→client messages shed because a session's connection outbox
    /// was full (the client is lagging) or gone.
    pub updates_dropped: Counter,
    /// Fused world frames emitted by the world hub.
    pub world_frames: Counter,
    /// Fleet events emitted by the world hub.
    pub world_events: Counter,
    /// Room subscriptions accepted by the world hub.
    pub subscriptions_opened: Counter,
    /// Room subscriptions released: by explicit `Unsubscribe`, by the
    /// owning connection closing, or by delivery hitting a dead outbox.
    pub subscriptions_closed: Counter,
    /// Filter programs actually executed by the hub (after the per-room
    /// and per-subscription kind-mask pre-screens — the gap between this
    /// and offered events is the coarse index's savings).
    pub events_evaluated: Counter,
    /// Filter evaluations that matched (delivery attempted).
    pub events_matched: Counter,
    /// Would-be matches suppressed by debounce/rate-limit filter ops.
    pub events_rate_limited: Counter,
    /// Bytes of encoded world traffic offered to subscriber outboxes
    /// (pre-shed): the fan-out cost server-side filtering is cutting.
    pub world_bytes: Counter,
    registry: Arc<Registry>,
}

impl EngineMetrics {
    /// Registers every engine-wide series in `registry` and returns the
    /// handle bundle.
    pub fn new(registry: Arc<Registry>) -> EngineMetrics {
        let c = |name| registry.counter("engine", name, Label::Global);
        let g = |name| registry.gauge("engine", name, Label::Global);
        EngineMetrics {
            batches_in: g("batches_in"),
            batches_dropped: c("batches_dropped"),
            batches_rejected: c("batches_rejected"),
            sweeps_processed: c("sweeps_processed"),
            frames_emitted: c("frames_emitted"),
            seq_gaps: c("seq_gaps"),
            seq_out_of_order: c("seq_out_of_order"),
            unknown_sensor: c("unknown_sensor"),
            sessions_opened: c("sessions_opened"),
            sessions_closed: c("sessions_closed"),
            inflight: g("inflight"),
            max_inflight: g("max_inflight"),
            updates_dropped: c("updates_dropped"),
            world_frames: c("world_frames"),
            world_events: c("world_events"),
            subscriptions_opened: c("subscriptions_opened"),
            subscriptions_closed: c("subscriptions_closed"),
            events_evaluated: c("events_evaluated"),
            events_matched: c("events_matched"),
            events_rate_limited: c("events_rate_limited"),
            world_bytes: c("world_bytes"),
            registry,
        }
    }

    /// The registry every series lives in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Records one batch entering a shard queue. MUST be called *before*
    /// the actual send: the shard's matching [`Self::dequeued`] must never
    /// be able to run first, or `inflight` underflows.
    pub(crate) fn enqueued(&self) {
        self.batches_in.add(1);
        self.inflight.add(1);
        self.max_inflight.raise_to(self.inflight.get());
    }

    /// Rolls back an [`Self::enqueued`] whose send then failed (queue
    /// full under DropNewest, or engine down).
    pub(crate) fn enqueue_failed(&self) {
        self.batches_in.add(-1);
        self.inflight.add(-1);
    }

    /// Records one batch leaving a shard queue.
    pub(crate) fn dequeued(&self) {
        self.inflight.add(-1);
    }

    /// Reads every counter at once.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            batches_in: self.batches_in.get().max(0) as u64,
            batches_dropped: self.batches_dropped.get(),
            batches_rejected: self.batches_rejected.get(),
            sweeps_processed: self.sweeps_processed.get(),
            frames_emitted: self.frames_emitted.get(),
            seq_gaps: self.seq_gaps.get(),
            seq_out_of_order: self.seq_out_of_order.get(),
            unknown_sensor: self.unknown_sensor.get(),
            sessions_opened: self.sessions_opened.get(),
            sessions_closed: self.sessions_closed.get(),
            inflight: self.inflight.get().max(0) as u64,
            max_inflight: self.max_inflight.get().max(0) as u64,
            updates_dropped: self.updates_dropped.get(),
            world_frames: self.world_frames.get(),
            world_events: self.world_events.get(),
            subscriptions_opened: self.subscriptions_opened.get(),
            subscriptions_closed: self.subscriptions_closed.get(),
            events_evaluated: self.events_evaluated.get(),
            events_matched: self.events_matched.get(),
            events_rate_limited: self.events_rate_limited.get(),
            world_bytes: self.world_bytes.get(),
        }
    }
}

impl Default for EngineMetrics {
    fn default() -> EngineMetrics {
        EngineMetrics::new(Arc::new(Registry::new()))
    }
}

/// A point-in-time copy of [`EngineMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Messages a shard accepted, queued or run inline (sweep batches
    /// plus control messages).
    pub batches_in: u64,
    /// Batches discarded at ingress (full queue, DropNewest policy).
    pub batches_dropped: u64,
    /// Batches refused inside a shard.
    pub batches_rejected: u64,
    /// Sweep intervals processed.
    pub sweeps_processed: u64,
    /// Frame reports emitted.
    pub frames_emitted: u64,
    /// Missing batches implied by forward sequence jumps.
    pub seq_gaps: u64,
    /// Batches with an already-consumed sequence number.
    pub seq_out_of_order: u64,
    /// Batches naming an unknown sensor.
    pub unknown_sensor: u64,
    /// Sessions opened.
    pub sessions_opened: u64,
    /// Sessions closed (teardown, connection cleanup, or shutdown).
    pub sessions_closed: u64,
    /// Batches queued right now.
    pub inflight: u64,
    /// Worst queue backlog observed.
    pub max_inflight: u64,
    /// Server→client messages shed to lagging (or vanished) client
    /// connections.
    pub updates_dropped: u64,
    /// Fused world frames emitted by the world hub.
    pub world_frames: u64,
    /// Fleet events emitted by the world hub.
    pub world_events: u64,
    /// Room subscriptions accepted by the world hub.
    pub subscriptions_opened: u64,
    /// Room subscriptions released (unsubscribe, connection close, or
    /// dead-outbox pruning).
    pub subscriptions_closed: u64,
    /// Filter programs executed by the hub (post pre-screen).
    pub events_evaluated: u64,
    /// Filter evaluations that matched.
    pub events_matched: u64,
    /// Would-be matches suppressed by debounce/rate-limit ops.
    pub events_rate_limited: u64,
    /// Encoded world-traffic bytes offered to subscriber outboxes.
    pub world_bytes: u64,
}
