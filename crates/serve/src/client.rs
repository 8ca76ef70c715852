//! Sensor-side client: speaks the wire protocol over any [`Transport`].
//!
//! One [`SensorClient`] owns one connection and may multiplex any number
//! of sensors over it. Server→client traffic (update batches, rejects) is
//! drained by a dedicated thread so the sending path can never deadlock
//! against a full return queue; the drain counts everything it sees and
//! optionally hands each message to a caller-supplied handler.

use crate::transport::{Transport, TransportRx, TransportTx};
use crate::wire::{
    Hello, Message, StatsQuery, StatsReport, SubscribeV3, SubscriptionStats, SweepBatchQ, Teardown,
    Unsubscribe,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use witrack_obs::{AnomalyKind, FlightRecorder};

/// Counters of everything the drain thread saw.
#[derive(Debug, Default)]
struct Counters {
    update_batches: AtomicU64,
    frames: AtomicU64,
    targets: AtomicU64,
    rejects: AtomicU64,
    world_updates: AtomicU64,
    world_events: AtomicU64,
    stats_reports: AtomicU64,
    subscribe_acks: AtomicU64,
    subscription_stats: AtomicU64,
}

/// A point-in-time copy of the client's receive counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Update batches received.
    pub update_batches: u64,
    /// Frame reports received.
    pub frames: u64,
    /// Targets across all received reports.
    pub targets: u64,
    /// Reject notices received.
    pub rejects: u64,
    /// Fused `WorldUpdate` frames received.
    pub world_updates: u64,
    /// Fleet `Event` frames received.
    pub world_events: u64,
    /// `StatsReport` snapshots received.
    pub stats_reports: u64,
    /// `SubscribeAck` replies received.
    pub subscribe_acks: u64,
    /// `SubscriptionStats` replies received.
    pub subscription_stats: u64,
}

/// Callback receiving every server→client message, in arrival order.
pub type UpdateHandler = dyn FnMut(&Message) + Send;

/// A wire-protocol client for one connection.
pub struct SensorClient<T: Transport> {
    /// `None` only after [`Self::close`] dropped it to signal EOF.
    tx: Option<T::Tx>,
    counters: Arc<Counters>,
    /// The newest `StatsReport` the drain saw, if any.
    last_stats: Arc<Mutex<Option<StatsReport>>>,
    /// The newest `SubscriptionStats` the drain saw, if any.
    last_sub_stats: Arc<Mutex<Option<SubscriptionStats>>>,
    drain: Option<JoinHandle<()>>,
}

impl<T: Transport> SensorClient<T> {
    /// Connects over `transport`, counting server messages silently.
    pub fn connect(transport: T) -> io::Result<SensorClient<T>> {
        Self::connect_with(transport, None)
    }

    /// Connects over `transport`; `handler`, when given, sees every
    /// server→client message from the drain thread.
    pub fn connect_with(
        transport: T,
        handler: Option<Box<UpdateHandler>>,
    ) -> io::Result<SensorClient<T>> {
        let (tx, rx) = transport.split()?;
        let counters = Arc::new(Counters::default());
        let last_stats = Arc::new(Mutex::new(None));
        let last_sub_stats = Arc::new(Mutex::new(None));
        let drain = {
            let counters = Arc::clone(&counters);
            let last_stats = Arc::clone(&last_stats);
            let last_sub_stats = Arc::clone(&last_sub_stats);
            std::thread::Builder::new()
                .name("client-rx".into())
                .spawn(move || drain_main(rx, counters, last_stats, last_sub_stats, handler))?
        };
        Ok(SensorClient {
            tx: Some(tx),
            counters,
            last_stats,
            last_sub_stats,
            drain: Some(drain),
        })
    }

    /// Opens a sensor session.
    pub fn hello(&mut self, hello: Hello) -> io::Result<()> {
        self.tx().send_msg(&Message::Hello(hello))
    }

    /// Sends one sweep batch.
    pub fn send_batch(&mut self, batch: SweepBatchQ) -> io::Result<()> {
        self.tx().send_msg(&Message::SweepBatchQ(batch))
    }

    /// Quantizes per-sweep, per-antenna slices and sends them as one
    /// batch.
    pub fn send_sweeps(
        &mut self,
        sensor_id: u32,
        seq: u64,
        sweeps: &[Vec<Vec<f64>>],
    ) -> io::Result<()> {
        self.send_batch(SweepBatchQ::from_sweeps(sensor_id, seq, sweeps))
    }

    /// Closes a sensor session.
    pub fn teardown(&mut self, sensor_id: u32) -> io::Result<()> {
        self.tx()
            .send_msg(&Message::Teardown(Teardown { sensor_id }))
    }

    /// Subscribes with a programmable subscription — typically
    /// built by [`SubscriptionBuilder`](crate::program::SubscriptionBuilder).
    /// The server answers with a `SubscribeAck` (watch
    /// [`ClientStats::subscribe_acks`]); a malformed filter program comes
    /// back as a `Reject` with
    /// [`RejectCode::BadProgram`](crate::wire::RejectCode), an unknown
    /// room as `UnknownSubscription`.
    pub fn subscribe_with(&mut self, sub: SubscribeV3) -> io::Result<()> {
        self.tx().send_msg(&Message::SubscribeV3(sub))
    }

    /// Cancels a subscription opened by [`Self::subscribe_with`]. The
    /// server stops evaluating the filter, replies with a final
    /// `SubscriptionStats` (see [`Self::last_subscription_stats`]), and
    /// rejects an unknown `(connection, sub_id)` pair with
    /// `UnknownSubscription`.
    pub fn unsubscribe(&mut self, room_id: u32, sub_id: u64) -> io::Result<()> {
        self.tx()
            .send_msg(&Message::Unsubscribe(Unsubscribe { room_id, sub_id }))
    }

    /// The newest [`SubscriptionStats`] received so far, if any —
    /// the final per-subscription counters sent in reply to
    /// [`Self::unsubscribe`].
    pub fn last_subscription_stats(&self) -> Option<SubscriptionStats> {
        *self.last_sub_stats.lock().expect("sub stats poisoned")
    }

    /// Asks the server for a metrics snapshot (`StatsQuery`).
    /// The answering `StatsReport` arrives asynchronously on the drain
    /// thread: poll [`Self::last_stats`] (or watch
    /// [`ClientStats::stats_reports`], or use a handler) for it.
    pub fn query_stats(&mut self) -> io::Result<()> {
        self.tx()
            .send_msg(&Message::StatsQuery(StatsQuery::default()))
    }

    /// The newest [`StatsReport`] received so far, if any.
    pub fn last_stats(&self) -> Option<StatsReport> {
        self.last_stats.lock().expect("stats poisoned").clone()
    }

    /// Direct access to the send half (e.g. for pre-encoded frames).
    ///
    /// # Panics
    /// Panics after [`Self::close`].
    pub fn tx(&mut self) -> &mut T::Tx {
        self.tx.as_mut().expect("client closed")
    }

    /// Receive counters so far.
    pub fn stats(&self) -> ClientStats {
        ClientStats {
            update_batches: self.counters.update_batches.load(Ordering::Relaxed),
            frames: self.counters.frames.load(Ordering::Relaxed),
            targets: self.counters.targets.load(Ordering::Relaxed),
            rejects: self.counters.rejects.load(Ordering::Relaxed),
            world_updates: self.counters.world_updates.load(Ordering::Relaxed),
            world_events: self.counters.world_events.load(Ordering::Relaxed),
            stats_reports: self.counters.stats_reports.load(Ordering::Relaxed),
            subscribe_acks: self.counters.subscribe_acks.load(Ordering::Relaxed),
            subscription_stats: self.counters.subscription_stats.load(Ordering::Relaxed),
        }
    }

    /// Hangs up (closing every sensor the server attributed to this
    /// connection), waits for the server to finish responding, and
    /// returns the final counters.
    pub fn close(mut self) -> ClientStats {
        // Signal EOF (explicitly for sockets, implicitly by dropping for
        // in-process queues); the drain keeps running until the server
        // hangs up its side, so late updates still count.
        if let Some(tx) = self.tx.as_mut() {
            let _ = tx.finish();
        }
        self.tx = None;
        if let Some(d) = self.drain.take() {
            d.join().expect("client drain panicked");
        }
        self.stats()
    }
}

/// Capped exponential backoff with jitter, for [`ReconnectingClient`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffConfig {
    /// First retry delay (ms).
    pub initial_ms: u64,
    /// Ceiling on any single delay (ms).
    pub max_ms: u64,
    /// Growth factor between consecutive delays.
    pub multiplier: f64,
    /// Symmetric jitter fraction in `0.0..=1.0`: each delay is scaled by
    /// a uniform factor in `[1-jitter, 1+jitter]` so a fleet knocked
    /// offline together does not redial in lockstep.
    pub jitter: f64,
    /// Give up (surfacing the last error) after this many consecutive
    /// failed dials.
    pub max_attempts: u32,
    /// Seed for the jitter RNG (reproducible chaos runs).
    pub seed: u64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            initial_ms: 10,
            max_ms: 2_000,
            multiplier: 2.0,
            jitter: 0.2,
            max_attempts: 8,
            seed: 1,
        }
    }
}

/// A sensor client that survives its transport dying.
///
/// Owns a dial factory instead of one connection: when a send fails, it
/// tears the dead [`SensorClient`] down, redials under the
/// [`BackoffConfig`] (capped exponential, jittered), replays its `Hello`
/// — the server's cleanup of the dead connection frees the sensor id,
/// and the existing handoff machinery preserves track identity — and
/// retries the send. Sequence numbers stay monotone
/// across reconnects, so the server sees an honest forward gap
/// (surfaced as a `SeqGap` anomaly) rather than a replayed stream.
pub struct ReconnectingClient<T: Transport> {
    factory: Box<dyn FnMut() -> io::Result<T> + Send>,
    client: Option<SensorClient<T>>,
    hello: Hello,
    backoff: BackoffConfig,
    rng: StdRng,
    next_seq: u64,
    reconnects: u64,
    recorder: Option<Arc<FlightRecorder>>,
}

impl<T: Transport> ReconnectingClient<T> {
    /// Dials via `factory` (retrying under `backoff`) and opens the
    /// `hello` session. The factory is kept for every later redial.
    pub fn connect(
        factory: impl FnMut() -> io::Result<T> + Send + 'static,
        hello: Hello,
        backoff: BackoffConfig,
    ) -> io::Result<ReconnectingClient<T>> {
        let mut me = ReconnectingClient {
            factory: Box::new(factory),
            client: None,
            hello,
            backoff,
            rng: StdRng::seed_from_u64(backoff.seed),
            next_seq: 0,
            reconnects: 0,
            recorder: None,
        };
        me.redial()?;
        // The first dial is a connect, not a recovery.
        me.reconnects = 0;
        Ok(me)
    }

    /// Records an [`AnomalyKind::Reconnect`] (value = backoff ns spent)
    /// on `recorder` for every successful redial.
    pub fn with_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// How many times the transport died and was re-established.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// The sequence number the next batch will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Receive counters of the *current* connection (reset by redials).
    pub fn stats(&self) -> ClientStats {
        self.client
            .as_ref()
            .map(SensorClient::stats)
            .unwrap_or_default()
    }

    /// Quantizes and sends one sweep batch, stamping and advancing the
    /// monotone sequence number; on transport failure, reconnects and
    /// retries (once per fresh connection, up to the backoff's attempt
    /// budget). Returns the sequence number the batch went out under.
    pub fn send_sweeps(&mut self, sweeps: &[Vec<Vec<f64>>]) -> io::Result<u64> {
        let seq = self.next_seq;
        let batch = SweepBatchQ::from_sweeps(self.hello.sensor_id, seq, sweeps);
        self.send_with_retry(|c| c.send_batch(batch.clone()))?;
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// Closes the session and returns the final connection's counters.
    pub fn close(mut self) -> ClientStats {
        match self.client.take() {
            Some(mut c) => {
                let _ = c.teardown(self.hello.sensor_id);
                c.close()
            }
            None => ClientStats::default(),
        }
    }

    fn send_with_retry(
        &mut self,
        mut send: impl FnMut(&mut SensorClient<T>) -> io::Result<()>,
    ) -> io::Result<()> {
        if let Some(c) = self.client.as_mut() {
            if send(c).is_ok() {
                return Ok(());
            }
        }
        // The connection is dead (or never existed): dial a fresh one
        // and retry the send on it. A send that fails on a *fresh*
        // connection means the far side is refusing us, so each redial
        // gets exactly one retry before dialing again.
        let budget = self.backoff.max_attempts.max(1);
        let mut last = io::Error::new(io::ErrorKind::ConnectionReset, "transport lost");
        for _ in 0..budget {
            self.redial()?;
            let c = self.client.as_mut().expect("redial populated client");
            match send(c) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    last = e;
                    self.client = None;
                }
            }
        }
        Err(last)
    }

    /// Dials until a connection accepts our `Hello`, sleeping the capped
    /// jittered backoff between failures.
    fn redial(&mut self) -> io::Result<()> {
        if let Some(c) = self.client.take() {
            let _ = c.close();
        }
        let mut delay_ms = self.backoff.initial_ms.max(1) as f64;
        let mut waited = Duration::ZERO;
        let mut last: Option<io::Error> = None;
        for attempt in 0..self.backoff.max_attempts.max(1) {
            if attempt > 0 {
                let jitter = self.backoff.jitter.clamp(0.0, 1.0);
                let scale = 1.0 + jitter * (self.rng.random::<f64>() * 2.0 - 1.0);
                let pause = Duration::from_millis((delay_ms * scale) as u64);
                std::thread::sleep(pause);
                waited += pause;
                delay_ms = (delay_ms * self.backoff.multiplier.max(1.0))
                    .min(self.backoff.max_ms.max(1) as f64);
            }
            let transport = match (self.factory)() {
                Ok(t) => t,
                Err(e) => {
                    last = Some(e);
                    continue;
                }
            };
            let mut client = match SensorClient::connect(transport) {
                Ok(c) => c,
                Err(e) => {
                    last = Some(e);
                    continue;
                }
            };
            match client.hello(self.hello) {
                Ok(()) => {
                    // A re-register racing the server's cleanup of our
                    // dead predecessor may draw a transient
                    // `DuplicateSensor` reject; it arrives async on the
                    // drain and the next send's failure re-enters the
                    // retry loop, so no special case is needed here.
                    self.reconnects += 1;
                    if let Some(r) = &self.recorder {
                        r.record(
                            AnomalyKind::Reconnect,
                            self.hello.sensor_id as u64,
                            self.reconnects,
                            waited.as_nanos() as u64,
                        );
                    }
                    self.client = Some(client);
                    return Ok(());
                }
                Err(e) => {
                    last = Some(e);
                    let _ = client.close();
                }
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::TimedOut, "reconnect attempts exhausted")
        }))
    }
}

fn drain_main<Rx: TransportRx>(
    mut rx: Rx,
    counters: Arc<Counters>,
    last_stats: Arc<Mutex<Option<StatsReport>>>,
    last_sub_stats: Arc<Mutex<Option<SubscriptionStats>>>,
    mut handler: Option<Box<UpdateHandler>>,
) {
    while let Ok(Some(msg)) = rx.recv_msg() {
        match &msg {
            Message::StatsReport(r) => {
                counters.stats_reports.fetch_add(1, Ordering::Relaxed);
                *last_stats.lock().expect("stats poisoned") = Some(r.clone());
            }
            Message::SubscribeAck(_) => {
                counters.subscribe_acks.fetch_add(1, Ordering::Relaxed);
            }
            Message::SubscriptionStats(s) => {
                counters.subscription_stats.fetch_add(1, Ordering::Relaxed);
                *last_sub_stats.lock().expect("sub stats poisoned") = Some(*s);
            }
            Message::UpdateBatch(u) => {
                counters.update_batches.fetch_add(1, Ordering::Relaxed);
                counters
                    .frames
                    .fetch_add(u.updates.len() as u64, Ordering::Relaxed);
                let targets: usize = u.updates.iter().map(|r| r.targets.len()).sum();
                counters
                    .targets
                    .fetch_add(targets as u64, Ordering::Relaxed);
            }
            Message::Reject(_) => {
                counters.rejects.fetch_add(1, Ordering::Relaxed);
            }
            Message::WorldUpdate(_) => {
                counters.world_updates.fetch_add(1, Ordering::Relaxed);
            }
            Message::Event(_) => {
                counters.world_events.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        if let Some(h) = handler.as_mut() {
            h(&msg);
        }
    }
}
