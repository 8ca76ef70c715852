//! Transport-facing server: connections in, per-session updates back out.
//!
//! A [`Server`] owns one [`ShardedEngine`]. Any [`Transport`] attaches —
//! in-process pairs for tests and benches, TCP streams via [`TcpServer`]
//! for the loopback deployment — and one connection may multiplex any
//! number of sensors.
//!
//! Per connection: a reader thread decodes client messages and submits
//! them to the engine (inheriting the engine's backpressure), and a
//! writer thread drains the connection's bounded outbox. Routing is tied
//! to sessions at `Hello` time: the reader hands the engine the outbox as
//! the session's [`ConnSink`], and the owning shard sends that session's
//! updates and rejects straight into it — there is no global registry to
//! race against. A slow client whose outbox fills has messages shed (and
//! counted in [`MetricsSnapshot::updates_dropped`]) rather than stalling
//! a shard; a refused `Hello` gets its reject and leaves no state behind.

use crate::engine::{ConnSink, EngineConfig, EngineHandle, PipelineFactory, ShardedEngine};
use crate::hub::WorldConfig;
use crate::metrics::MetricsSnapshot;
use crate::pool::PooledBuf;
use crate::transport::{recv_error_is_frame_scoped, RxMsg, Transport, TransportRx, TransportTx};
use crate::wire::{Message, RejectCode};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use witrack_obs::AnomalyKind;

/// How many server→client messages one connection may have pending before
/// its shard starts shedding them.
const OUTBOX_CAPACITY: usize = 64;

/// Source of unique connection ids (scopes cleanup teardowns).
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(1);

/// A running multi-sensor server.
pub struct Server {
    handle: EngineHandle,
    engine: ShardedEngine,
    drainer: JoinHandle<()>,
}

impl Server {
    /// Starts the engine. Sessions opened through [`Server::attach`]ed
    /// connections route their traffic straight to their connection, so
    /// the engine-wide event stream only carries bookkeeping — a small
    /// drainer thread keeps it from accumulating.
    pub fn start(cfg: EngineConfig, factory: Arc<PipelineFactory>) -> Server {
        Self::start_inner(cfg, factory, None)
    }

    /// A fluent constructor: `Server::builder(factory).config(cfg)
    /// .world(world_cfg).start()` — or `.bind(addr)` for the TCP front
    /// door. One shape that grows options without new entry points.
    pub fn builder(factory: Arc<PipelineFactory>) -> ServerBuilder {
        ServerBuilder {
            cfg: EngineConfig::default(),
            factory,
            world: None,
        }
    }

    /// Shared startup behind every public constructor: a world hub (when
    /// configured) lets attached connections subscribe to fused
    /// `WorldUpdate`/`Event` streams.
    fn start_inner(
        cfg: EngineConfig,
        factory: Arc<PipelineFactory>,
        world: Option<WorldConfig>,
    ) -> Server {
        let mut builder = ShardedEngine::builder(factory).config(cfg);
        if let Some(world) = world {
            builder = builder.world(world);
        }
        let (engine, events) = builder.start();
        let drainer = std::thread::spawn(move || for _ in events {});
        Server {
            handle: engine.handle(),
            engine,
            drainer,
        }
    }

    /// Attaches one client connection; its reader/writer threads live
    /// until the client closes its sending side. Returns the reader's
    /// join handle.
    pub fn attach<T: Transport + 'static>(&self, transport: T) -> io::Result<JoinHandle<()>> {
        let (tx, rx) = transport.split()?;
        let handle = self.handle.clone();
        Ok(std::thread::spawn(move || connection_main(tx, rx, handle)))
    }

    /// A cloneable ingress handle to the engine (bypasses transports; used
    /// by in-process callers that don't need the wire).
    pub fn engine_handle(&self) -> EngineHandle {
        self.engine.handle()
    }

    /// Engine counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.engine.metrics()
    }

    /// The engine's metric registry.
    pub fn registry(&self) -> &Arc<witrack_obs::Registry> {
        self.engine.registry()
    }

    /// The engine's anomaly flight recorder.
    pub fn recorder(&self) -> &Arc<witrack_obs::FlightRecorder> {
        self.engine.recorder()
    }

    /// Shuts the engine down (draining shard queues). Attached
    /// connections must already be closed.
    pub fn shutdown(self) -> MetricsSnapshot {
        let m = self.engine.shutdown();
        // The shards are gone, so the event stream has closed and the
        // drainer exits on its own.
        self.drainer.join().expect("event drainer panicked");
        m
    }
}

/// Fluent construction for [`Server`] (and its TCP front door) — see
/// [`Server::builder`].
pub struct ServerBuilder {
    cfg: EngineConfig,
    factory: Arc<PipelineFactory>,
    world: Option<WorldConfig>,
}

impl ServerBuilder {
    /// Engine shape: shard count, queue depth, overload policy.
    pub fn config(mut self, cfg: EngineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Attach a world hub fusing the configured rooms, enabling room
    /// subscriptions on attached connections.
    pub fn world(mut self, world: WorldConfig) -> Self {
        self.world = Some(world);
        self
    }

    /// Starts the engine, serving connections via [`Server::attach`].
    pub fn start(self) -> Server {
        Server::start_inner(self.cfg, self.factory, self.world)
    }

    /// Starts the engine behind a loopback TCP listener on `addr`
    /// (e.g. `"127.0.0.1:0"`).
    pub fn bind(self, addr: &str) -> io::Result<TcpServer> {
        TcpServer::bind_inner(addr, self.cfg, self.factory, self.world)
    }
}

fn connection_main<Tx, Rx>(tx: Tx, mut rx: Rx, handle: EngineHandle)
where
    Tx: TransportTx + 'static,
    Rx: TransportRx + 'static,
{
    let conn_id = NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed);
    let (outbox_tx, outbox_rx) = sync_channel::<PooledBuf<u8>>(OUTBOX_CAPACITY);
    let writer = std::thread::spawn(move || writer_main(tx, outbox_rx));
    // Sweep samples decode straight into the engine's recycled buffers
    // (f64 or i16, per wire form): at steady state the reader allocates
    // nothing per message.
    let ingest_pools = handle.ingest_pools().clone();
    // Sensors this connection said Hello for. The engine itself decides
    // ownership (a duplicate Hello is refused and its sink dropped), so
    // the EOF cleanup below is scoped to `conn_id` — it can never tear
    // down a session some other connection owns.
    let mut greeted: Vec<u32> = Vec::new();
    loop {
        match rx.recv_msg_pooled(&ingest_pools) {
            Ok(Some(msg)) => {
                if let RxMsg::Control(Message::Hello(h)) = &msg {
                    if !greeted.contains(&h.sensor_id) {
                        greeted.push(h.sensor_id);
                    }
                }
                // Every message carries this connection's sink, so even
                // refusals with no session behind them (unknown sensor,
                // refused hello) come back over the wire.
                let sink = ConnSink {
                    conn_id,
                    tx: outbox_tx.clone(),
                };
                let submitted = match msg {
                    RxMsg::Batch(b) => handle.submit_batch_pooled(b, Some(sink)),
                    RxMsg::Control(m) => handle.submit_with_sink(m, Some(sink)),
                };
                match submitted {
                    Ok(_) => {}
                    Err(_) => break, // engine down or protocol abuse: hang up
                }
            }
            Ok(None) => break, // clean close
            Err(e) if recv_error_is_frame_scoped(&e) => {
                // A frame arrived intact length-wise but its payload
                // failed to decode: the byte stream is still positioned
                // at the next frame boundary, so record it, tell the
                // client, and keep reading — a burst of corruption must
                // not amputate an otherwise healthy sensor.
                handle
                    .recorder()
                    .record(AnomalyKind::Corrupt, conn_id, 0, 0);
                let mut buf = handle.frame_pool().get(32);
                crate::wire::encode_reject_into(0, RejectCode::CorruptFrame, &mut buf);
                let _ = outbox_tx.try_send(buf);
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                // The peer vanished mid-frame — a crash or cut cable,
                // not a clean shutdown. Distinct from `Ok(None)` so the
                // flight recorder can tell the two apart.
                handle
                    .recorder()
                    .record(AnomalyKind::TruncatedStream, conn_id, 0, 0);
                break;
            }
            Err(_) => break, // desynced stream or dead socket
        }
    }
    // The connection is gone: close the sessions it owns so their
    // pipelines (and their clones of our outbox) free up. The shard
    // processes this after everything already queued, emits the final
    // updates, and drops the session sink — which is what lets the writer
    // below drain out and exit.
    for sensor_id in greeted {
        let _ = handle.submit_teardown_scoped(sensor_id, conn_id);
    }
    // Release this connection's room subscriptions: the hub holds outbox
    // sender clones for them, and the writer below only drains out once
    // every sender is gone.
    handle.notify_conn_closed(conn_id);
    drop(outbox_tx);
    writer.join().expect("connection writer panicked");
}

fn writer_main<Tx: TransportTx>(mut tx: Tx, outbox: Receiver<PooledBuf<u8>>) {
    for frame in outbox {
        // Frames arrive pre-encoded from the shard; the transport
        // recycles the buffer once the bytes are on their way.
        if tx.send_pooled(frame).is_err() {
            // Peer gone; drain silently so shard try_sends keep failing
            // fast instead of filling a dead queue.
            break;
        }
    }
}

/// A loopback TCP front door for a [`Server`].
pub struct TcpServer {
    server: Arc<Server>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl TcpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting
    /// connections, each served by [`Server::attach`].
    pub fn bind(
        addr: &str,
        cfg: EngineConfig,
        factory: Arc<PipelineFactory>,
    ) -> io::Result<TcpServer> {
        Self::bind_inner(addr, cfg, factory, None)
    }

    fn bind_inner(
        addr: &str,
        cfg: EngineConfig,
        factory: Arc<PipelineFactory>,
        world: Option<WorldConfig>,
    ) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let server = Arc::new(Server::start_inner(cfg, factory, world));
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        Ok(s) => {
                            let _ = server.attach(crate::transport::TcpTransport::new(s));
                        }
                        Err(_) => break,
                    }
                }
            })
        };
        Ok(TcpServer {
            server,
            addr: local,
            accept_thread: Some(accept_thread),
            stop,
        })
    }

    /// The bound address (with the OS-assigned port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Engine counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.server.metrics()
    }

    /// The engine's metric registry.
    pub fn registry(&self) -> &Arc<witrack_obs::Registry> {
        self.server.registry()
    }

    /// The engine's anomaly flight recorder.
    pub fn recorder(&self) -> &Arc<witrack_obs::FlightRecorder> {
        self.server.recorder()
    }

    /// Stops accepting, then shuts the engine down. Clients must have
    /// disconnected already (their connection threads hold engine handles).
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            t.join().expect("accept thread panicked");
        }
        let server = Arc::try_unwrap(self.server)
            .unwrap_or_else(|_| panic!("connections still hold the server"));
        server.shutdown()
    }
}
