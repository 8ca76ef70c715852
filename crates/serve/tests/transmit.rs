//! The transmit path over loopback TCP: a served connection's replies
//! leave on the thread that ran their message, and only what a full
//! socket leaves goes to the connection's writer thread. A client that
//! stops reading must neither corrupt its own stream nor stall the
//! connections that share its shard.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use witrack_core::{FramePipeline, FrameReport, TargetReport};
use witrack_fuse::{FuseConfig, Registration};
use witrack_geom::{RigidTransform, Vec3};
use witrack_obs::Label;
use witrack_serve::conn::STALL_QUIET;
use witrack_serve::engine::{EngineConfig, PipelineFactory};
use witrack_serve::hub::WorldConfig;
use witrack_serve::transport::{in_proc_pair, TcpTransport};
use witrack_serve::wire::{self, Hello, Message, PipelineKind, SweepBatchQ, HEADER_LEN};
use witrack_serve::{FaultPlan, FaultyTransport, SensorClient, Server, SubscriptionBuilder};

/// A pipeline that reports `targets` targets on every sweep: cheap to
/// run, and as many reply bytes per batch as a test wants.
struct Wide {
    targets: usize,
    frame: u64,
}

impl FramePipeline for Wide {
    fn num_rx(&self) -> usize {
        3
    }

    fn process_sweeps_flat_q(&mut self, _: &[i16], _: usize, _: f64) -> Option<FrameReport> {
        self.frame += 1;
        let targets = (0..self.targets)
            .map(|i| TargetReport {
                id: Some(i as u64),
                position: Vec3::new(i as f64, self.frame as f64, 1.0),
                velocity: None,
                held: false,
                pos_var: None,
                innovation: None,
            })
            .collect();
        Some(FrameReport {
            frame_index: self.frame,
            time_s: self.frame as f64 * 0.0125,
            targets,
        })
    }

    fn reset(&mut self) {
        self.frame = 0;
    }
}

const ROOM: u32 = 1;
const SUB: u64 = 7;
/// The stalled client's sensors: 4 sweeps × 256 targets make each of
/// their updates about 64 KB.
const STALLED: [u32; 2] = [1, 2];
/// The healthy client's sensor, on the same (only) shard.
const HEALTHY: u32 = 3;
const SWEEPS: usize = 4;

fn hello(sensor_id: u32) -> Hello {
    Hello {
        sensor_id,
        kind: PipelineKind::SingleTarget,
        n_rx: 3,
        samples_per_sweep: 4,
        sweeps_per_frame: 1,
        quantized: true,
    }
}

fn batch(sensor_id: u32, seq: u64) -> SweepBatchQ {
    SweepBatchQ::from_sweeps(sensor_id, seq, &vec![vec![vec![0.0; 4]; 3]; SWEEPS])
}

fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn tcp_client(
    server: &Server,
    handler: impl FnMut(&Message) + Send + 'static,
) -> SensorClient<TcpTransport> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let stream = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (accepted, _) = listener.accept().unwrap();
    server.attach(TcpTransport::new(accepted)).unwrap();
    SensorClient::connect_with(TcpTransport::new(stream), Some(Box::new(handler))).unwrap()
}

/// A client stops reading until its socket is full and its connection
/// sheds, then drains. Every frame it gets is whole and in per-sensor
/// order, `updates_dropped` counts exactly the updates it misses, and
/// the final `SubscriptionStats` of a subscription released mid-stall
/// still arrives. Meanwhile a healthy connection on the same shard gets
/// every one of its updates, one round trip at a time.
#[test]
fn a_stalled_tcp_client_loses_only_counted_updates_and_stalls_no_one() {
    let factory: Arc<PipelineFactory> = Arc::new(|h: &Hello| {
        let targets = if h.sensor_id == HEALTHY { 1 } else { 256 };
        Ok(Box::new(Wide { targets, frame: 0 }) as Box<dyn FramePipeline>)
    });
    // A room no reporting sensor feeds: the subscription only carries
    // its control replies.
    let world = WorldConfig::single_room(
        ROOM,
        FuseConfig::default(),
        Registration::new().with_sensor(50, RigidTransform::IDENTITY),
    );
    let server = Server::builder(factory)
        .config(EngineConfig {
            num_shards: 1,
            ..EngineConfig::default()
        })
        .world(world)
        .start();

    // The stalled client's reader takes this gate for every message, so
    // holding it stops the reads.
    let gate = Arc::new(Mutex::new(()));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut stalled = tcp_client(&server, {
        let (gate, seen) = (Arc::clone(&gate), Arc::clone(&seen));
        move |msg| {
            drop(gate.lock().unwrap());
            if let Message::UpdateBatch(u) = msg {
                seen.lock().unwrap().push((u.sensor_id, u.seq));
            }
        }
    });
    let healthy_seqs = Arc::new(Mutex::new(Vec::new()));
    let mut healthy = tcp_client(&server, {
        let seqs = Arc::clone(&healthy_seqs);
        move |msg| {
            if let Message::UpdateBatch(u) = msg {
                seqs.lock().unwrap().push(u.seq);
            }
        }
    });

    stalled
        .subscribe_with(SubscriptionBuilder::room(ROOM).id(SUB).build())
        .unwrap();
    wait_until("the subscribe ack", || stalled.stats().subscribe_acks == 1);
    for sensor in STALLED {
        stalled.hello(hello(sensor)).unwrap();
    }
    healthy.hello(hello(HEALTHY)).unwrap();
    wait_until("three sessions", || server.metrics().sessions_opened == 3);

    // Stall, and keep both clients sending until the stalled connection
    // has filled its socket and its pending frames, and sheds; the
    // healthy client waits for each of its updates before it sends on.
    let stall = gate.lock().unwrap();
    let mut sent = [0u64; 2];
    let mut healthy_sent = 0;
    // One batch from each client; the healthy client waits for its
    // update before it sends on.
    let mut round = |stalled: &mut SensorClient<TcpTransport>| {
        let i = (sent[0] + sent[1]) as usize % 2;
        stalled.send_batch(batch(STALLED[i], sent[i])).unwrap();
        sent[i] += 1;
        healthy.send_batch(batch(HEALTHY, healthy_sent)).unwrap();
        healthy_sent += 1;
        wait_until("the healthy client's update", || {
            healthy.stats().update_batches == healthy_sent
        });
    };
    let (mut rounds, mut after_first_shed) = (0, 0);
    while after_first_shed < 16 {
        round(&mut stalled);
        rounds += 1;
        if server.metrics().updates_dropped > 0 {
            after_first_shed += 1;
        }
        assert!(rounds < 4000, "the stalled connection never filled");
    }
    // A subscription released mid-stall: its final stats must wait for
    // room, never be shed.
    stalled.unsubscribe(ROOM, SUB).unwrap();
    wait_until("the released subscription", || {
        server.metrics().subscriptions_closed == 1
    });
    drop(stall);
    // The client reads again while the writer drains its backlog: the
    // updates of later runs must line up behind it, not slip in ahead.
    for _ in 0..16 {
        round(&mut stalled);
    }
    wait_until("the final subscription stats", || {
        stalled.last_subscription_stats().is_some()
    });
    let final_stats = stalled.last_subscription_stats();

    let stalled_stats = stalled.close();
    let healthy_stats = healthy.close();
    let m = server.shutdown();

    assert_eq!(stalled_stats.rejects + healthy_stats.rejects, 0);
    assert_eq!(final_stats.map(|s| s.sub_id), Some(SUB));
    let seen = seen.lock().unwrap();
    let mut missing = 0;
    for (i, sensor) in STALLED.into_iter().enumerate() {
        let seqs: Vec<u64> = seen.iter().filter(|u| u.0 == sensor).map(|u| u.1).collect();
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "sensor {sensor}'s updates arrived out of order"
        );
        assert!(seqs.last() < Some(&sent[i]));
        missing += sent[i] - seqs.len() as u64;
    }
    assert_eq!(seen.len() as u64, stalled_stats.update_batches);
    assert!(missing > 0, "the stall shed nothing");
    assert_eq!(
        m.updates_dropped, missing,
        "every missing update is counted"
    );
    assert_eq!(
        *healthy_seqs.lock().unwrap(),
        (0..healthy_sent).collect::<Vec<_>>(),
        "the healthy client lost or reordered updates"
    );
}

/// A burst of subscribes is one run on the room's shard, so its acks
/// leave together. A burst larger than a connection holds still gets
/// every ack, in order: an ack that meets a full connection is held,
/// and a held reply makes the run send what it collected.
#[test]
fn a_subscribe_burst_beyond_capacity_gets_every_ack_in_order() {
    const SUBS: u64 = 3 * witrack_serve::engine::OUTBOX_CAPACITY as u64;
    let factory: Arc<PipelineFactory> = Arc::new(|_: &Hello| {
        Ok(Box::new(Wide {
            targets: 1,
            frame: 0,
        }) as Box<dyn FramePipeline>)
    });
    let world = WorldConfig::single_room(
        ROOM,
        FuseConfig::default(),
        Registration::new().with_sensor(50, RigidTransform::IDENTITY),
    );
    let server = Server::builder(factory)
        .config(EngineConfig {
            num_shards: 1,
            ..EngineConfig::default()
        })
        .world(world)
        .start();
    let acks = Arc::new(Mutex::new(Vec::new()));
    let mut client = tcp_client(&server, {
        let acks = Arc::clone(&acks);
        move |msg| {
            if let Message::SubscribeAck(a) = msg {
                acks.lock().unwrap().push(a.sub_id);
            }
        }
    });
    for sub_id in 0..SUBS {
        client
            .subscribe_with(SubscriptionBuilder::room(ROOM).id(sub_id).build())
            .unwrap();
    }
    wait_until("every ack", || client.stats().subscribe_acks == SUBS);
    client.close();
    let m = server.shutdown();
    assert_eq!(*acks.lock().unwrap(), (0..SUBS).collect::<Vec<_>>());
    assert_eq!(m.updates_dropped, 0, "an ack was shed");
}

/// Sensor updates a byte stream carries, in arrival order: `(sensor,
/// seq)` of each `UpdateBatch`. Frames must lie back to back.
fn updates_in(bytes: &[u8]) -> Vec<(u32, u64)> {
    let mut updates = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let (msg_type, len) = wire::decode_header(&bytes[at..]).expect("a whole frame header");
        assert!(at + len <= bytes.len(), "a frame cut short");
        if msg_type == 4 {
            let b = &bytes[at + HEADER_LEN..];
            let sensor = u32::from_le_bytes(b[..4].try_into().unwrap());
            let seq = u64::from_le_bytes(b[4..12].try_into().unwrap());
            updates.push((sensor, seq));
        }
        at += len;
    }
    updates
}

/// A client that fills its socket and then reads in trickles — a few KB
/// every quarter ms, a little faster than its sensor's updates arrive, so
/// its connection's backlog keeps draining to nothing while its socket
/// stays full. A direct send that meets that socket full waits out the
/// send timeout; each such send starts a stall episode, in which the
/// connection's runs leave their frames to its writer until no send has
/// met a full socket for `STALL_QUIET`. So the stalls number at most one
/// per `STALL_QUIET` of the test, not one per frame, the stream stays
/// framed and ordered, and a healthy client on the same shard gets every
/// update at the round's pace. (Loopback TCP admits a send while any
/// room is left, so here few direct sends meet a full socket even
/// without the episode rule; the scripted stream in `conn.rs`'s tests
/// pins the rule itself.)
#[test]
fn a_trickling_tcp_client_costs_one_bounded_send_per_stall_episode() {
    const TRICKLER: u32 = 1;
    /// One round: a trickler batch (64.1 KiB of updates) and one healthy
    /// round trip.
    const ROUND: Duration = Duration::from_millis(4);
    /// The trickle: 17 KiB per ms (68 KiB per round), read as it accrues
    /// every quarter ms.
    const TRICKLE_PER_MS: u64 = 17 * 1024;
    const TRICKLE_ROUNDS: u64 = 500;
    let factory: Arc<PipelineFactory> = Arc::new(|h: &Hello| {
        let targets = if h.sensor_id == HEALTHY { 1 } else { 256 };
        Ok(Box::new(Wide { targets, frame: 0 }) as Box<dyn FramePipeline>)
    });
    let server = Server::builder(factory)
        .config(EngineConfig {
            num_shards: 1,
            ..EngineConfig::default()
        })
        .start();
    let stalls = server
        .registry()
        .counter("engine", "direct_stalls", Label::Global);
    let queued = server
        .registry()
        .counter("engine", "queued_writes", Label::Global);

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let mut trickler = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (accepted, _) = listener.accept().unwrap();
    server.attach(TcpTransport::new(accepted)).unwrap();
    let trickling = Arc::new(AtomicBool::new(false));
    let reader = {
        let mut stream = trickler.try_clone().unwrap();
        let trickling = Arc::clone(&trickling);
        std::thread::spawn(move || {
            while !trickling.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let began = Instant::now();
            let mut bytes = Vec::new();
            let mut chunk = vec![0u8; 64 * 1024];
            loop {
                std::thread::sleep(Duration::from_micros(250));
                let accrued = began.elapsed().as_micros() as u64 * TRICKLE_PER_MS / 1000;
                let due = (accrued - bytes.len() as u64).min(chunk.len() as u64) as usize;
                if due == 0 {
                    continue;
                }
                match stream.read(&mut chunk[..due]).unwrap() {
                    0 => return bytes,
                    n => bytes.extend_from_slice(&chunk[..n]),
                }
            }
        })
    };
    let healthy_seqs = Arc::new(Mutex::new(Vec::new()));
    let mut healthy = tcp_client(&server, {
        let seqs = Arc::clone(&healthy_seqs);
        move |msg| {
            if let Message::UpdateBatch(u) = msg {
                seqs.lock().unwrap().push(u.seq);
            }
        }
    });
    trickler
        .write_all(&wire::encode(&Message::Hello(hello(TRICKLER))))
        .unwrap();
    healthy.hello(hello(HEALTHY)).unwrap();
    wait_until("two sessions", || server.metrics().sessions_opened == 2);

    let start = Instant::now();
    let (mut sent, mut healthy_sent) = (0u64, 0u64);
    let mut round_trips = Vec::new();
    let mut round = |trickler: &mut TcpStream| {
        let due = Instant::now() + ROUND;
        let frame = wire::encode(&Message::SweepBatchQ(batch(TRICKLER, sent)));
        trickler.write_all(&frame).unwrap();
        sent += 1;
        let asked = Instant::now();
        healthy.send_batch(batch(HEALTHY, healthy_sent)).unwrap();
        healthy_sent += 1;
        wait_until("the healthy client's update", || {
            healthy.stats().update_batches == healthy_sent
        });
        round_trips.push(asked.elapsed());
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
    };
    // Fill the trickler's socket, until a run leaves frames to its
    // writer.
    let mut filling = 0;
    while queued.get() == 0 {
        round(&mut trickler);
        filling += 1;
        assert!(filling < 4000, "the trickler's connection never filled");
    }
    trickling.store(true, Ordering::SeqCst);
    for _ in 0..TRICKLE_ROUNDS {
        round(&mut trickler);
    }
    let elapsed = start.elapsed();
    let stalls = stalls.get();
    trickler.shutdown(std::net::Shutdown::Write).unwrap();
    let bytes = reader.join().unwrap();
    healthy.close();
    let m = server.shutdown();

    let updates = updates_in(&bytes);
    assert!(
        updates.windows(2).all(|w| w[0].1 < w[1].1),
        "the trickler's updates arrived out of order"
    );
    assert_eq!(
        m.updates_dropped,
        sent - updates.len() as u64,
        "every missing update is counted"
    );
    assert_eq!(
        *healthy_seqs.lock().unwrap(),
        (0..healthy_sent).collect::<Vec<_>>(),
        "the healthy client lost or reordered updates"
    );
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < ROUND,
        "the healthy client's median round trip {median:?} fell behind the round"
    );
    let episodes = 1 + (elapsed.as_nanos() / STALL_QUIET.as_nanos()) as u64;
    assert!(
        stalls <= episodes,
        "{stalls} direct sends met the trickler's full socket in {elapsed:?}: \
         more than one per stall episode"
    );
}

/// A transport with no bounded sender — `TransportTx::bounded` returns
/// `None`, as for a `FaultyTransport` wrapper — is served by its writer
/// alone: every update arrives, in order, and none is sent directly.
#[test]
fn a_transport_without_a_bounded_sender_is_served_by_its_writer() {
    const BATCHES: u64 = 32;
    let factory: Arc<PipelineFactory> = Arc::new(|_: &Hello| {
        Ok(Box::new(Wide {
            targets: 1,
            frame: 0,
        }) as Box<dyn FramePipeline>)
    });
    let server = Server::builder(factory).start();
    let direct = server
        .registry()
        .counter("engine", "direct_writes", Label::Global);
    let (client_end, server_end) = in_proc_pair(4);
    server
        .attach(FaultyTransport::new(server_end, FaultPlan::none(1)))
        .unwrap();
    let seqs = Arc::new(Mutex::new(Vec::new()));
    let mut client = SensorClient::connect_with(client_end, {
        let seqs = Arc::clone(&seqs);
        Some(Box::new(move |msg: &Message| {
            if let Message::UpdateBatch(u) = msg {
                seqs.lock().unwrap().push(u.seq);
            }
        }))
    })
    .unwrap();
    client.hello(hello(HEALTHY)).unwrap();
    for seq in 0..BATCHES {
        client.send_batch(batch(HEALTHY, seq)).unwrap();
    }
    wait_until("every update", || client.stats().update_batches == BATCHES);
    client.close();
    let direct = direct.get();
    server.shutdown();
    assert_eq!(*seqs.lock().unwrap(), (0..BATCHES).collect::<Vec<_>>());
    assert_eq!(direct, 0, "an update was sent directly");
}
