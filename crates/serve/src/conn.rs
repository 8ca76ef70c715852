//! A connection's server→client side: every frame the engine sends a
//! client goes through the connection's [`ConnSink`].
//!
//! A connection [`Server::attach`](crate::server::Server::attach) serves
//! has a bounded send handle on its transport ([`BoundedTx`]). While a
//! message runs — on its connection reader or on its shard thread — the
//! frames it produces for a connection (its update, world updates,
//! events, replies) are collected on that connection, and at the end of
//! the run they leave together in one bounded send: one vectored write
//! on TCP, one `try_send` per frame in process. The connection's writer
//! thread only drains what a full socket or queue left behind. A run is
//! one sweep batch, or the consecutive control messages a shard drains
//! together, so a burst of subscribes is answered in one send.
//!
//! The ordering rule mirrors the reader's rule for inline runs. A run
//! sends directly only when none of the connection's frames is queued or
//! in the writer's hands — a count kept under the connection's lock — and
//! the unsent tail of a partial write goes first in line to the writer.
//! So the byte stream stays framed and each sensor's frames keep their
//! order.
//!
//! A send that meets a full socket or queue starts a stall episode: the
//! connection's runs leave their frames to the writer, without a send
//! attempt, until the writer has drained them all and [`STALL_QUIET`] has
//! passed since any send on the connection — direct or the writer's —
//! last met a full socket. So a client that stops reading, or reads in
//! trickles, costs the threads that run its messages at most one bounded
//! send per episode, not one per frame.
//!
//! Admission is decided when a frame is offered, so shedding and held
//! replies keep their meaning on every transport: a connection holds at
//! most [`OUTBOX_CAPACITY`] frames collected or queued, and a frame
//! offered beyond that is refused as full. A sink from
//! [`EngineHandle::open_connection`](crate::engine::EngineHandle::open_connection)
//! has no transport; its frames go straight into its outbox.

use crate::metrics::EngineMetrics;
use crate::pool::{BufPool, PooledBuf};
use crate::transport::BoundedTx;
use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use witrack_obs::{AnomalyKind, FlightRecorder};

/// How many server→client frames one connection may have pending —
/// collected by runs, queued for its writer or in the writer's hands —
/// before further offers are refused.
pub const OUTBOX_CAPACITY: usize = 64;

/// How long a connection's sends must go without meeting a full socket
/// or queue before its runs send directly again (see the module docs).
pub const STALL_QUIET: Duration = Duration::from_millis(50);

/// Where one connection's server→client traffic goes (see the module
/// docs). Opened by
/// [`EngineHandle::open_connection`](crate::engine::EngineHandle::open_connection),
/// or by [`Server::attach`](crate::server::Server::attach) for a served
/// connection; sessions and subscriptions hold clones.
#[derive(Clone)]
pub struct ConnSink {
    /// Opaque id of the owning connection (connection ids scope the
    /// cleanup at connection close; see
    /// [`EngineHandle::notify_conn_closed`](crate::engine::EngineHandle::notify_conn_closed)).
    pub conn_id: u64,
    /// The writer's queue of already-encoded wire frames.
    outbox: SyncSender<PooledBuf<u8>>,
    /// The direct path, for a connection with a bounded send handle.
    direct: Option<Arc<Mutex<Direct>>>,
}

/// A served connection's direct path, behind the connection's lock.
struct Direct {
    /// Frames offered by runs and not yet sent or queued, oldest first.
    collected: VecDeque<PooledBuf<u8>>,
    /// Frames in the outbox or in the writer's hands.
    queued: usize,
    tx: Box<dyn BoundedTx>,
    /// A send failed: the peer is gone.
    gone: bool,
    /// When a send last met a full socket or queue, during a stall
    /// episode.
    stalled_at: Option<Instant>,
}

impl Direct {
    /// Whether a run may send directly: nothing of the connection is
    /// queued, and no stall episode is on.
    fn may_send(&mut self) -> bool {
        if self.queued > 0 || self.gone {
            return false;
        }
        match self.stalled_at {
            Some(at) if at.elapsed() < STALL_QUIET => false,
            _ => {
                self.stalled_at = None;
                true
            }
        }
    }
}

/// Why an offered frame was not taken.
pub(crate) enum Refused {
    /// The connection already holds [`OUTBOX_CAPACITY`] frames; the
    /// frame comes back.
    Full(PooledBuf<u8>),
    /// The connection is gone.
    Gone,
}

/// The writer thread's hold on its connection: it reports each queued
/// frame it sent, and a failed send.
pub(crate) struct ConnWriter(Option<Arc<Mutex<Direct>>>);

impl ConnSink {
    /// Opens connection `conn_id`: its sink, the receiving end of its
    /// outbox, and the writer's hold. With `direct`, runs send through it
    /// first and the outbox only takes what it leaves.
    pub(crate) fn open(
        conn_id: u64,
        direct: Option<Box<dyn BoundedTx>>,
    ) -> (ConnSink, Receiver<PooledBuf<u8>>, ConnWriter) {
        let (outbox, rx) = sync_channel(OUTBOX_CAPACITY);
        let direct = direct.map(|tx| {
            Arc::new(Mutex::new(Direct {
                collected: VecDeque::with_capacity(OUTBOX_CAPACITY),
                queued: 0,
                tx,
                gone: false,
                stalled_at: None,
            }))
        });
        let writer = ConnWriter(direct.clone());
        let sink = ConnSink {
            conn_id,
            outbox,
            direct,
        };
        (sink, rx, writer)
    }

    /// Offers one encoded frame without blocking. A taken frame is in the
    /// outbox already (a sink with no transport), or collected: it leaves
    /// at the next [`Self::flush`] of this connection. `Ok(true)`: it is
    /// the first frame collected since the last flush, and the caller
    /// owes that flush; whoever collected the frames ahead of it owes it
    /// otherwise.
    pub(crate) fn offer(&self, frame: PooledBuf<u8>) -> Result<bool, Refused> {
        let Some(direct) = &self.direct else {
            return match self.outbox.try_send(frame) {
                Ok(()) => Ok(false),
                Err(TrySendError::Full(frame)) => Err(Refused::Full(frame)),
                Err(TrySendError::Disconnected(_)) => Err(Refused::Gone),
            };
        };
        let mut d = lock(direct);
        if d.gone {
            return Err(Refused::Gone);
        }
        if d.queued + d.collected.len() >= OUTBOX_CAPACITY {
            return Err(Refused::Full(frame));
        }
        d.collected.push_back(frame);
        Ok(d.collected.len() == 1)
    }

    /// Sends what runs have collected for this connection: directly when
    /// none of its frames is queued or with the writer and no stall
    /// episode is on, in one bounded send; whatever that leaves, a
    /// partial frame's tail first, goes to the writer.
    pub(crate) fn flush(&self, metrics: &EngineMetrics) {
        let Some(direct) = &self.direct else {
            return;
        };
        let mut guard = lock(direct);
        let d = &mut *guard;
        if d.collected.is_empty() {
            return;
        }
        if d.may_send() {
            let offered = d.collected.len();
            d.gone = d.tx.send_bounded(&mut d.collected).is_err();
            metrics
                .direct_writes
                .add((offered - d.collected.len()) as u64);
            if !d.collected.is_empty() && !d.gone {
                d.stalled_at = Some(Instant::now());
                metrics.direct_stalls.inc();
            }
        }
        for frame in d.collected.drain(..) {
            // Admission keeps queued + collected within the outbox's
            // capacity, so only a writer that hung up refuses.
            if d.gone || self.outbox.try_send(frame).is_err() {
                continue;
            }
            d.queued += 1;
            metrics.queued_writes.inc();
        }
    }
}

impl ConnWriter {
    /// The writer sent a queued frame.
    pub(crate) fn sent(&self) {
        if let Some(direct) = &self.0 {
            lock(direct).queued -= 1;
        }
    }

    /// The writer's send met a full socket: a stall episode is on.
    pub(crate) fn stalled(&self) {
        if let Some(direct) = &self.0 {
            lock(direct).stalled_at = Some(Instant::now());
        }
    }

    /// The writer's send failed: the peer is gone, and offers are refused
    /// from now on.
    pub(crate) fn gone(&self) {
        if let Some(direct) = &self.0 {
            lock(direct).gone = true;
        }
    }
}

fn lock(direct: &Mutex<Direct>) -> MutexGuard<'_, Direct> {
    direct.lock().expect("connection state poisoned")
}

/// Counts a refused frame as shed: [`crate::MetricsSnapshot::updates_dropped`]
/// and an [`AnomalyKind::Shed`] against the connection.
pub(crate) fn shed(sink: &ConnSink, metrics: &EngineMetrics, recorder: &FlightRecorder) {
    metrics.updates_dropped.inc();
    recorder.record(AnomalyKind::Shed, sink.conn_id, 0, 0);
}

/// Sends one frame outside any run — a reply the connection reader
/// answers itself — shedding it when it is refused.
pub(crate) fn push_frame(
    sink: &ConnSink,
    frame: PooledBuf<u8>,
    metrics: &EngineMetrics,
    recorder: &FlightRecorder,
) {
    match sink.offer(frame) {
        Ok(true) => sink.flush(metrics),
        Ok(false) => {}
        Err(_) => shed(sink, metrics, recorder),
    }
}

/// What a shard's runs write through: the encode pool, the counters a
/// refused frame lands in, and the connections the current run has
/// collected frames for. The shard flushes it at the end of every run.
pub(crate) struct Out {
    /// Pool outbound frames are encoded into.
    pub(crate) frame_pool: BufPool<u8>,
    pub(crate) metrics: Arc<EngineMetrics>,
    pub(crate) recorder: Arc<FlightRecorder>,
    /// Connections whose flush this run owes.
    touched: Vec<ConnSink>,
}

impl Out {
    pub(crate) fn new(
        frame_pool: BufPool<u8>,
        metrics: Arc<EngineMetrics>,
        recorder: Arc<FlightRecorder>,
    ) -> Out {
        Out {
            frame_pool,
            metrics,
            recorder,
            touched: Vec::new(),
        }
    }

    /// Offers a frame to `sink` (see [`ConnSink::offer`]); it leaves at
    /// this run's [`Self::flush`], or with the frames collected ahead of
    /// it by a run on another shard.
    pub(crate) fn offer(&mut self, sink: &ConnSink, frame: PooledBuf<u8>) -> Result<(), Refused> {
        if sink.offer(frame)? {
            self.touched.push(sink.clone());
        }
        Ok(())
    }

    /// Offers a frame, shedding it when it is refused: updates and
    /// rejects are advisory, and a lagging client must not stall a shard.
    pub(crate) fn push(&mut self, sink: &ConnSink, frame: PooledBuf<u8>) {
        if self.offer(sink, frame).is_err() {
            self.shed(sink);
        }
    }

    /// Counts a frame refused or withheld from `sink` as shed.
    pub(crate) fn shed(&self, sink: &ConnSink) {
        shed(sink, &self.metrics, &self.recorder);
    }

    /// The end of a run: sends what it collected, one bounded send per
    /// connection.
    pub(crate) fn flush(&mut self) {
        for sink in self.touched.drain(..) {
            sink.flush(&self.metrics);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    /// A byte stream with `room` bytes of buffer left: each send takes
    /// what fits and then reports its bound expired. It counts the sends.
    #[derive(Default)]
    struct Stream {
        bytes: Vec<u8>,
        room: usize,
        sends: usize,
    }

    struct ScriptedTx(Arc<Mutex<Stream>>);

    impl BoundedTx for ScriptedTx {
        fn send_bounded(&mut self, frames: &mut VecDeque<PooledBuf<u8>>) -> io::Result<()> {
            let mut s = self.0.lock().unwrap();
            s.sends += 1;
            while let Some(front) = frames.front_mut() {
                let n = front.len().min(s.room);
                s.room -= n;
                s.bytes.extend_from_slice(&front[..n]);
                if n < front.len() {
                    front.drain(..n);
                    break;
                }
                frames.pop_front();
            }
            Ok(())
        }
    }

    /// Frame `i`: eight bytes of `i`.
    fn frame(i: u8) -> PooledBuf<u8> {
        PooledBuf::detached(vec![i; 8])
    }

    #[test]
    fn a_stalled_connection_costs_one_send_and_keeps_its_bytes_in_order() {
        let stream = Arc::new(Mutex::new(Stream {
            room: 10,
            ..Stream::default()
        }));
        let metrics = EngineMetrics::default();
        let (sink, outbox, writer) = ConnSink::open(1, Some(Box::new(ScriptedTx(stream.clone()))));
        // The writer: it sends each queued frame whole once the client
        // reads again.
        let drain_writer = |stream: &Mutex<Stream>| {
            while let Ok(f) = outbox.try_recv() {
                stream.lock().unwrap().bytes.extend_from_slice(&f);
                writer.sent();
            }
        };
        let run = |frames: std::ops::Range<u8>| {
            for i in frames {
                assert!(sink.offer(frame(i)).is_ok());
            }
            sink.flush(&metrics);
        };

        // One send takes frame 0 and two bytes of frame 1: the client
        // stopped reading. Frame 1's tail goes to the writer, ahead of
        // frame 2.
        run(0..3);
        // The stall episode: later runs make no send while anything is
        // queued; their frames line up behind.
        run(3..5);
        assert_eq!(
            stream.lock().unwrap().sends,
            1,
            "one send per stall episode"
        );
        assert_eq!(stream.lock().unwrap().bytes.len(), 10);
        // The client reads again and the writer drains, but the stall
        // episode lasts until no send has met a full socket for
        // STALL_QUIET: the next run still leaves its frame to the writer.
        stream.lock().unwrap().room = usize::MAX;
        drain_writer(&stream);
        run(5..6);
        assert_eq!(stream.lock().unwrap().sends, 1, "a send inside the episode");
        drain_writer(&stream);
        // Once it is over, runs send directly again.
        std::thread::sleep(STALL_QUIET);
        run(6..8);
        let s = stream.lock().unwrap();
        assert_eq!(s.sends, 2);
        let expected: Vec<u8> = (0..8).flat_map(|i| [i; 8]).collect();
        assert!(s.bytes == expected, "the byte stream lost its framing");
        assert_eq!(metrics.direct_writes.get(), 3, "frames 0, 6 and 7");
        assert_eq!(metrics.queued_writes.get(), 5, "frame 1's tail and 2-5");
        assert_eq!(metrics.direct_stalls.get(), 1);
    }

    #[test]
    fn a_writer_that_meets_a_full_socket_starts_a_stall_episode() {
        let stream = Arc::new(Mutex::new(Stream {
            room: usize::MAX,
            ..Stream::default()
        }));
        let metrics = EngineMetrics::default();
        let (sink, _outbox, writer) = ConnSink::open(1, Some(Box::new(ScriptedTx(stream.clone()))));
        writer.stalled();
        assert!(sink.offer(frame(0)).is_ok());
        sink.flush(&metrics);
        assert_eq!(stream.lock().unwrap().sends, 0, "a send inside the episode");
        assert_eq!(metrics.queued_writes.get(), 1);
    }

    #[test]
    fn a_connection_takes_capacity_frames_collected_or_queued() {
        let stream = Arc::new(Mutex::new(Stream::default()));
        let metrics = EngineMetrics::default();
        let (sink, _outbox, writer) = ConnSink::open(1, Some(Box::new(ScriptedTx(stream))));
        // A run that finds the client stalled queues what it collected.
        for i in 0..OUTBOX_CAPACITY / 2 {
            assert!(sink.offer(frame(i as u8)).is_ok());
        }
        sink.flush(&metrics);
        // Collected frames count against the same capacity.
        for i in OUTBOX_CAPACITY / 2..OUTBOX_CAPACITY {
            assert!(sink.offer(frame(i as u8)).is_ok());
        }
        assert!(matches!(sink.offer(frame(0)), Err(Refused::Full(_))));
        // A writer that hung up closes the connection to offers.
        writer.gone();
        assert!(matches!(sink.offer(frame(0)), Err(Refused::Gone)));
    }
}
