//! Transport-facing server: connections in, per-session updates back out.
//!
//! A [`Server`] owns one [`ShardedEngine`]. Any [`Transport`] attaches —
//! in-process pairs for tests and benches, TCP streams via [`TcpServer`]
//! for the loopback deployment — and one connection may multiplex any
//! number of sensors.
//!
//! Per connection: a reader thread decodes client messages and submits
//! them to the engine (inheriting the engine's backpressure), and a
//! writer thread drains the connection's bounded outbox. When the
//! message's shard is idle and the reader has read nothing further, the
//! reader runs the message on the shard's state itself rather than
//! waking the shard thread (see [`crate::engine`]). The reader opens
//! the connection with [`EngineHandle::open_connection`] — the same call
//! in-process callers use — and submits every message with its
//! [`ConnSink`](crate::engine::ConnSink); the shard that owns a session
//! sends its updates and rejects straight into that outbox, so there is
//! no global registry to race against. A slow client whose outbox fills
//! has messages shed (and counted in
//! [`MetricsSnapshot::updates_dropped`]) rather than stalling a shard; a
//! refused `Hello` gets its reject and leaves no state behind.

use crate::engine::{EngineBuilder, EngineConfig, EngineHandle, PipelineFactory, ShardedEngine};
use crate::hub::WorldConfig;
use crate::metrics::MetricsSnapshot;
use crate::pool::PooledBuf;
use crate::transport::{recv_error_is_frame_scoped, Transport, TransportRx, TransportTx};
use crate::wire::RejectCode;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use witrack_obs::AnomalyKind;

/// A running multi-sensor server.
pub struct Server {
    engine: ShardedEngine,
}

impl Server {
    /// A fluent constructor: `Server::builder(factory).config(cfg)
    /// .world(world_cfg).start()` — or `.bind(addr)` for the TCP front
    /// door. One shape that grows options without new entry points.
    pub fn builder(factory: Arc<PipelineFactory>) -> ServerBuilder {
        ServerBuilder {
            engine: ShardedEngine::builder(factory),
        }
    }

    /// Attaches one client connection; its reader/writer threads live
    /// until the client closes its sending side. Returns the reader's
    /// join handle.
    pub fn attach<T: Transport + 'static>(&self, transport: T) -> io::Result<JoinHandle<()>> {
        let (tx, rx) = transport.split()?;
        let handle = self.engine.handle();
        std::thread::Builder::new()
            .name("conn-rx".into())
            .spawn(move || connection_main(tx, rx, handle))
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
        self.engine.shutdown()
    }
}

/// Fluent construction for [`Server`] (and its TCP front door) — see
/// [`Server::builder`].
pub struct ServerBuilder {
    engine: EngineBuilder,
}

impl ServerBuilder {
    /// Engine shape: shard count, queue depth, overload policy.
    pub fn config(mut self, cfg: EngineConfig) -> Self {
        self.engine = self.engine.config(cfg);
        self
    }

    /// Fuse the configured rooms, each on the shard of its sensors,
    /// enabling room subscriptions on attached connections.
    pub fn world(mut self, world: WorldConfig) -> Self {
        self.engine = self.engine.world(world);
        self
    }

    /// Starts the engine, serving connections via [`Server::attach`].
    pub fn start(self) -> Server {
        Server {
            engine: self.engine.start(),
        }
    }

    /// Starts the engine behind a loopback TCP listener on `addr`
    /// (e.g. `"127.0.0.1:0"`), serving each accepted connection via
    /// [`Server::attach`].
    pub fn bind(self, addr: &str) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let server = Arc::new(self.start());
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("accept".into())
                .spawn(move || {
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
                })?
        };
        Ok(TcpServer {
            server,
            addr: local,
            accept_thread: Some(accept_thread),
            stop,
        })
    }
}

fn connection_main<Tx, Rx>(tx: Tx, mut rx: Rx, handle: EngineHandle)
where
    Tx: TransportTx + 'static,
    Rx: TransportRx + 'static,
{
    let (sink, outbox_rx) = handle.open_connection();
    let conn_id = sink.conn_id;
    let writer = std::thread::Builder::new()
        .name("conn-tx".into())
        .spawn(move || writer_main(tx, outbox_rx))
        .expect("spawn a connection writer");
    // Sweep samples decode straight into the engine's recycled i16
    // buffers: at steady state the reader allocates nothing per message.
    let ingest_pools = handle.ingest_pools().clone();
    loop {
        match rx.recv_msg_pooled(&ingest_pools) {
            Ok(Some(msg)) => {
                // Every message carries this connection's sink, so even
                // refusals with no session behind them (unknown sensor,
                // refused hello) come back over the wire. With nothing
                // further read, an idle shard's message runs right here.
                let more_input = rx.has_buffered();
                if handle.submit_read(msg, &sink, more_input).is_err() {
                    break; // engine down or protocol abuse: hang up
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
                handle.send_reject(&sink, 0, RejectCode::CorruptFrame);
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
    // The connection is gone: every shard closes the sessions it owns
    // and drops its room subscriptions and held replies, after everything
    // already queued. That releases the shards' clones of our outbox
    // sender, and the writer below only drains out once every sender is
    // gone.
    handle.notify_conn_closed(conn_id);
    drop(sink);
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
