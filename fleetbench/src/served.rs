//! The served (untraced) run: one loopback TCP connection into a
//! `witrack_serve::Server`, an open-loop sender, and a reply handler that
//! timestamps every `UpdateBatch` frame report and every `WorldUpdate`.
//!
//! The generator owns two threads: this sender (the caller's thread) and
//! the client's drain thread, which runs the reply handler. Everything
//! else in the process is the server under test.

use crate::plan::{Plan, SensorPlan, PERIOD_NS};
use crate::stats::process_cpu_ns;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use witrack_geom::Vec3;
use witrack_obs::{HistoSnapshot, MetricSample, MetricValue};
use witrack_serve::engine::{EngineConfig, OverloadPolicy};
use witrack_serve::factory::{hello_quantized_for, witrack_factory};
use witrack_serve::transport::{TcpTransport, TransportTx};
use witrack_serve::wire::{Message, HEADER_LEN};
use witrack_serve::{BufPool, MetricsSnapshot, SensorClient, Server};

/// Shards the server runs (the host has two cores).
pub const SHARDS: usize = 2;
/// Subscriptions in flight before the generator waits for their acks.
/// Acks share the connection's 64-deep outbox with everything else, so
/// a larger burst could shed some.
const SUBSCRIBE_CHUNK: usize = 32;
/// Sessions opened per run for the set-up time (median reported).
const SETUPS: usize = 21;
/// How long replies may trail the last send before the rest count failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(3);

/// One frame report as the client received it.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Receive instant, ns after the session epoch.
    pub recv_ns: u64,
    /// The report's frame time (s).
    pub time_s: f64,
    /// `(track id, position)` per target, sensor-local frame.
    pub targets: Vec<(Option<u64>, Vec3)>,
}

/// One fused world epoch as the firehose subscriber received it.
#[derive(Debug, Clone)]
pub struct WorldDelivery {
    pub recv_ns: u64,
    pub tracks: Vec<Vec3>,
}

/// What the drain thread records. Slots are indexed
/// `sensor × frames_per_sensor + frame_index` and
/// `room × epochs_per_room + epoch`.
#[derive(Default)]
pub struct Inbox {
    pub frames_per_sensor: usize,
    pub updates: Vec<Option<Delivery>>,
    pub worlds: Vec<Option<WorldDelivery>>,
    pub updates_received: u64,
    pub worlds_received: u64,
    pub duplicates: u64,
    pub unexpected: u64,
    pub rejects: u64,
    pub events: u64,
}

impl Inbox {
    fn new(sensors: usize, rooms: usize, frames_per_sensor: usize) -> Inbox {
        Inbox {
            frames_per_sensor,
            updates: vec![None; sensors * frames_per_sensor],
            worlds: vec![None; rooms * (frames_per_sensor + 1)],
            ..Inbox::default()
        }
    }

    pub fn update(&self, sensor: u32, k: u64) -> Option<&Delivery> {
        self.updates
            .get(sensor as usize * self.frames_per_sensor + k as usize)?
            .as_ref()
    }

    pub fn world(&self, room: u32, epoch: u64) -> Option<&WorldDelivery> {
        self.worlds
            .get(room as usize * (self.frames_per_sensor + 1) + epoch as usize)?
            .as_ref()
    }

    fn record(&mut self, msg: &Message, recv_ns: u64) {
        match msg {
            Message::UpdateBatch(u) => {
                for r in &u.updates {
                    let slot = (r.frame_index as usize) < self.frames_per_sensor;
                    let at = u.sensor_id as usize * self.frames_per_sensor + r.frame_index as usize;
                    match self.updates.get_mut(at).filter(|_| slot) {
                        Some(Some(_)) => self.duplicates += 1,
                        Some(cell) => {
                            *cell = Some(Delivery {
                                recv_ns,
                                time_s: r.time_s,
                                targets: r.targets.iter().map(|t| (t.id, t.position)).collect(),
                            });
                            self.updates_received += 1;
                        }
                        None => self.unexpected += 1,
                    }
                }
            }
            Message::WorldUpdate(w) => {
                let per_room = self.frames_per_sensor + 1;
                let slot = (w.frame.epoch as usize) < per_room;
                let at = w.room_id as usize * per_room + w.frame.epoch as usize;
                match self.worlds.get_mut(at).filter(|_| slot) {
                    Some(Some(_)) => self.duplicates += 1,
                    Some(cell) => {
                        *cell = Some(WorldDelivery {
                            recv_ns,
                            tracks: w.frame.tracks.iter().map(|t| t.position).collect(),
                        });
                        self.worlds_received += 1;
                    }
                    None => self.unexpected += 1,
                }
            }
            Message::Event(_) => self.events += 1,
            Message::Reject(_) => self.rejects += 1,
            _ => {}
        }
    }
}

/// Server-side counters read through the server's existing accessors.
#[derive(Debug, Clone, Default)]
pub struct ServerCounters {
    pub engine: MetricsSnapshot,
    /// Merged across shards (log₂-bucketed histograms: coarse).
    pub queue_wait: HistoSnapshot,
    pub service: HistoSnapshot,
    /// Ingest (i16) plus outbox buffer pools: gets and misses.
    pub pool_gets: u64,
    pub pool_misses: u64,
    /// Process-wide DSP plan-cache lookups during the kept session.
    pub plan_hits: u64,
    pub plan_misses: u64,
}

fn merged_histo(samples: &[MetricSample], subsystem: &str, name: &str) -> HistoSnapshot {
    let mut merged = HistoSnapshot::default();
    for s in samples {
        if s.key.subsystem == subsystem && s.key.name == name {
            if let MetricValue::Histo(h) = &s.value {
                merged.merge(h);
            }
        }
    }
    merged
}

fn plan_cache_counts() -> (u64, u64) {
    let mut hits_misses = (0, 0);
    for s in witrack_obs::global().snapshot() {
        if let (("dsp", "plan_cache_hits"), MetricValue::Counter(v)) =
            ((s.key.subsystem, s.key.name), &s.value)
        {
            hits_misses.0 = *v;
        }
        if let (("dsp", "plan_cache_misses"), MetricValue::Counter(v)) =
            ((s.key.subsystem, s.key.name), &s.value)
        {
            hits_misses.1 = *v;
        }
    }
    hits_misses
}

/// A live server plus the generator's connection into it.
pub struct Session {
    server: Server,
    reader: JoinHandle<()>,
    client: SensorClient<TcpTransport>,
    inbox: Arc<Mutex<Inbox>>,
    /// All receive and due times are ns after this instant.
    epoch: Instant,
    plan_before: (u64, u64),
    frame_pool: BufPool<u8>,
}

impl Session {
    /// Starts a server, connects over loopback TCP, says `Hello` for
    /// `sensors`, installs every subscription of the plan, and waits for
    /// every session and every subscription ack. Returns the session and
    /// its set-up time (server start → ready for the first frame).
    pub fn open(
        plan: &Plan,
        sensors: &[SensorPlan],
        frames_per_sensor: usize,
    ) -> io::Result<(Session, f64)> {
        let plan_before = plan_cache_counts();
        let epoch = Instant::now();
        let mut builder = Server::builder(witrack_factory(plan.base)).config(EngineConfig {
            num_shards: SHARDS,
            queue_capacity: 32,
            overload: OverloadPolicy::Block,
        });
        if let Some(world) = plan.world() {
            builder = builder.world(world);
        }
        let server = builder.start();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let stream = TcpStream::connect(listener.local_addr()?)?;
        let (accepted, _) = listener.accept()?;
        let reader = server.attach(TcpTransport::new(accepted))?;
        let inbox = Arc::new(Mutex::new(Inbox::new(
            plan.sensors.len(),
            plan.rooms.len(),
            frames_per_sensor,
        )));
        let sink = Arc::clone(&inbox);
        let mut client = SensorClient::connect_with(
            TcpTransport::new(stream),
            Some(Box::new(move |msg: &Message| {
                let recv_ns = epoch.elapsed().as_nanos() as u64;
                sink.lock().expect("inbox poisoned").record(msg, recv_ns);
            })),
        )?;
        for s in sensors {
            client.hello(hello_quantized_for(&plan.base, s.id, plan.kind))?;
        }
        let subs = plan.subscriptions();
        for (i, chunk) in subs.chunks(SUBSCRIBE_CHUNK).enumerate() {
            for sub in chunk {
                client.subscribe_with(sub.clone())?;
            }
            let want = (i * SUBSCRIBE_CHUNK + chunk.len()) as u64;
            wait_for(
                || client.stats().subscribe_acks >= want,
                "subscription acks",
            )?;
        }
        let opened = sensors.len() as u64;
        wait_for(
            || server.metrics().sessions_opened >= opened,
            "sensor sessions",
        )?;
        let setup_s = epoch.elapsed().as_secs_f64();
        Ok((
            Session {
                frame_pool: BufPool::new(4),
                server,
                reader,
                client,
                inbox,
                epoch,
                plan_before,
            },
            setup_s,
        ))
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn inbox(&self) -> MutexGuard<'_, Inbox> {
        self.inbox.lock().expect("inbox poisoned")
    }

    /// Opens one more sensor session mid-run (ramp steps).
    pub fn hello(&mut self, plan: &Plan, s: &SensorPlan) -> io::Result<()> {
        self.client
            .hello(hello_quantized_for(&plan.base, s.id, plan.kind))
    }

    /// Sleeps until `due_ns` (session clock), then sends sensor `s`'s
    /// frame `k`. Returns how late the send started (ns).
    pub fn send_frame(
        &mut self,
        plan: &Plan,
        s: &SensorPlan,
        k: u64,
        due_ns: u64,
    ) -> io::Result<u64> {
        let mut now = self.now_ns();
        while now < due_ns {
            std::thread::sleep(Duration::from_nanos(due_ns - now));
            now = self.now_ns();
        }
        let frame = plan.frame(s, k);
        let mut buf = self.frame_pool.get(frame.len());
        buf.extend_from_slice(frame);
        buf[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&s.id.to_le_bytes());
        buf[HEADER_LEN + 4..HEADER_LEN + 12].copy_from_slice(&k.to_le_bytes());
        self.client.tx().send_pooled(buf)?;
        Ok(now - due_ns)
    }

    /// Waits until `done` holds over the inbox, or the drain timeout.
    pub fn await_replies(&self, done: impl Fn(&Inbox) -> bool) {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while !done(&self.inbox()) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Reads the server counters, closes the connection and the server,
    /// and hands back everything the client received.
    pub fn close(self) -> (ServerCounters, Inbox) {
        let samples = self.server.registry().snapshot();
        let handle = self.server.engine_handle();
        let (ingest, outbox) = (
            handle.ingest_pools().i16s.stats(),
            handle.frame_pool().stats(),
        );
        let plan_after = plan_cache_counts();
        let counters = ServerCounters {
            engine: self.server.metrics(),
            queue_wait: merged_histo(&samples, "shard", "queue_wait_ns"),
            service: merged_histo(&samples, "shard", "dequeue_to_report_ns"),
            pool_gets: ingest.gets + outbox.gets,
            pool_misses: ingest.misses + outbox.misses,
            plan_hits: plan_after.0 - self.plan_before.0,
            plan_misses: plan_after.1 - self.plan_before.1,
        };
        drop(handle);
        self.client.close();
        self.reader.join().expect("connection reader panicked");
        self.server.shutdown();
        let inbox = Arc::try_unwrap(self.inbox)
            .unwrap_or_else(|_| panic!("the drain thread has exited"))
            .into_inner()
            .expect("inbox poisoned");
        (counters, inbox)
    }
}

fn wait_for(mut ready: impl FnMut() -> bool, what: &str) -> io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !ready() {
        if Instant::now() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("timed out waiting for {what}"),
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}

/// The record of one open-loop run.
pub struct Run {
    pub counters: ServerCounters,
    pub inbox: Inbox,
    /// Set-up times of every session opened (the last one served).
    pub setup_s: Vec<f64>,
    /// Session-clock ns of period 0.
    pub t0_ns: u64,
    /// Frames sent per sensor, and each sensor's first period.
    pub sent: Vec<u64>,
    pub start_period: Vec<u64>,
    /// `(due ns after t0, lag ns)` of every send.
    pub lags: Vec<(u64, u64)>,
    /// Process CPU time sampled at the start of the listed periods, and
    /// once more when the last reply arrived (`u64::MAX` period).
    pub cpu: Vec<(u64, u64)>,
}

/// Per-period control returned by a run's hook.
pub enum Flow {
    Continue,
    Stop,
}

/// What a run's hook sees before each period.
pub struct Progress<'a> {
    pub session: &'a Session,
    pub t0_ns: u64,
    pub sent: &'a [u64],
    pub start_period: &'a [u64],
    pub lags: &'a [(u64, u64)],
}

/// Opens [`SETUPS`] sessions in turn (closing all but the last) for the
/// set-up time, then drives the last one open-loop: every active sensor
/// sends one frame per period at its phase. Before each period `g` the
/// `hook` may open sensors (return them) or stop the run; CPU time is
/// sampled at every period listed in `cpu_at`.
pub fn run(
    plan: &Plan,
    initial: usize,
    total_periods: u64,
    cpu_at: &[u64],
    mut hook: impl FnMut(u64, &Progress<'_>) -> (Flow, Vec<usize>),
) -> io::Result<Run> {
    let frames_per_sensor = total_periods as usize + 1;
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut session = None;
    for i in 0..SETUPS {
        let (s, t) = Session::open(plan, &plan.sensors[..initial], frames_per_sensor)?;
        setup_s.push(t);
        if i + 1 < SETUPS {
            s.close();
        } else {
            session = Some(s);
        }
    }
    let mut session = session.expect("at least one set-up");
    let n = plan.sensors.len();
    let mut start_period: Vec<u64> = vec![u64::MAX; n];
    for sp in &mut start_period[..initial] {
        *sp = 0;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| plan.sensors[i].phase_ns);
    let mut sent = vec![0u64; n];
    let mut lags = Vec::new();
    let mut cpu = Vec::new();
    // First frame due shortly after set-up completes.
    let t0_ns = session.now_ns() + 2_000_000;
    for g in 0..total_periods {
        if cpu_at.contains(&g) {
            let now = session.now_ns();
            let start = t0_ns + g * PERIOD_NS;
            if now < start {
                std::thread::sleep(Duration::from_nanos(start - now));
            }
            cpu.push((g, process_cpu_ns()));
        }
        let progress = Progress {
            session: &session,
            t0_ns,
            sent: &sent,
            start_period: &start_period,
            lags: &lags,
        };
        let (flow, joining) = hook(g, &progress);
        if matches!(flow, Flow::Stop) {
            break;
        }
        for i in joining {
            start_period[i] = g;
            session.hello(plan, &plan.sensors[i])?;
        }
        for &i in &order {
            if start_period[i] > g {
                continue;
            }
            let s = &plan.sensors[i];
            let k = g - start_period[i];
            let due = g * PERIOD_NS + s.phase_ns;
            let lag = session.send_frame(plan, s, k, t0_ns + due)?;
            lags.push((due, lag));
            sent[i] = k + 1;
        }
    }
    let expected_updates: u64 = sent.iter().sum();
    let expected_worlds: u64 = plan
        .rooms
        .iter()
        .map(|r| {
            r.sensors
                .iter()
                .map(|&s| sent[s as usize])
                .min()
                .unwrap_or(0)
        })
        .sum();
    session.await_replies(|inbox| {
        inbox.updates_received >= expected_updates && inbox.worlds_received >= expected_worlds
    });
    cpu.push((u64::MAX, process_cpu_ns()));
    let (counters, inbox) = session.close();
    Ok(Run {
        counters,
        inbox,
        setup_s,
        t0_ns,
        sent,
        start_period,
        lags,
        cpu,
    })
}
