//! Message transports: how encoded wire frames move between a sensor
//! client and the engine.
//!
//! Two implementations ship:
//!
//! * [`InProcTransport`] — a pair of bounded in-process byte-frame queues.
//!   Tests and benches exercise the full wire path (encode → frame queue →
//!   decode) with no sockets, and the bounded send side gives the same
//!   backpressure shape a kernel socket buffer would.
//! * [`TcpTransport`] — a `TcpStream` carrying the same frames, used by the
//!   loopback [`TcpServer`](crate::server::TcpServer).
//!
//! A transport [`split`](Transport::split)s into an independently-owned
//! send half and receive half so a connection can be serviced by one
//! reader thread and one writer thread without locking.
//!
//! A send half may also hand out a [`BoundedTx`]: a second handle on the
//! same channel that sends without waiting past a short bound, so a
//! served connection's replies can leave on the thread that produced them
//! (see [`crate::conn`]). TCP bounds it with a socket-wide send timeout;
//! the in-process half uses `try_send`.
//!
//! A receive half says whether it already holds further input
//! ([`TransportRx::has_buffered`]): TCP reads whatever the socket holds,
//! up to one largest frame and a header, into one reused buffer and
//! serves frames from it; the in-process half looks one frame ahead.

use crate::pool::{PooledBatch, PooledBuf, SamplePools};
use crate::wire::{self, DecodedMsgQ, Message, WireError, HEADER_LEN};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::time::Duration;

/// The send timeout on a served TCP connection's socket. The kernel
/// rounds it up to one scheduler tick.
const SEND_BOUND: Duration = Duration::from_millis(1);

/// An encoded wire frame in flight on an in-process queue: plain owned
/// bytes, or a pool-backed buffer that recycles once the receiving side
/// has decoded it.
pub enum WireFrame {
    /// A caller-owned frame.
    Owned(Vec<u8>),
    /// A pool-backed frame (e.g. an engine outbox encode buffer).
    Pooled(PooledBuf<u8>),
}

impl std::ops::Deref for WireFrame {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            WireFrame::Owned(v) => v,
            WireFrame::Pooled(p) => p,
        }
    }
}

/// What the pooled receive path yields.
pub enum RxMsg {
    /// A sweep batch, its i16 steps decoded into a pooled buffer — ready
    /// for [`crate::engine::EngineHandle::submit_batch_pooled`].
    Batch(PooledBatch),
    /// Any other message, decoded owned.
    Control(Message),
}

/// The sending half of a transport.
pub trait TransportTx: Send {
    /// Sends one already-encoded wire frame (blocking while the peer's
    /// buffer is full). The hot path for senders that pre-encode.
    fn send_frame(&mut self, frame: Vec<u8>) -> io::Result<()>;

    /// Sends one pool-backed frame. Implementations recycle the buffer as
    /// soon as the bytes are on their way (TCP) or once the peer has
    /// decoded them (in-process); the default detaches the buffer and
    /// falls back to [`Self::send_frame`].
    fn send_pooled(&mut self, frame: PooledBuf<u8>) -> io::Result<()> {
        self.send_frame(frame.into_vec())
    }

    /// Encodes and sends one message.
    fn send_msg(&mut self, msg: &Message) -> io::Result<()> {
        self.send_frame(wire::encode(msg))
    }

    /// Sends the front of `frame`, removing the bytes that went: all of
    /// them, unless a send timeout set by [`Self::bounded`] expired first
    /// — an `Err` of kind `WouldBlock` or `TimedOut`, or `Ok` with part
    /// of the frame left — and the caller may offer the rest again. The
    /// default sends the whole frame with [`Self::send_pooled`].
    fn send_part(&mut self, frame: &mut PooledBuf<u8>) -> io::Result<()> {
        self.send_pooled(std::mem::replace(frame, PooledBuf::detached(Vec::new())))
    }

    /// A second handle on this half for bounded sends from the threads
    /// that produce the frames, or `None` (the default) when every frame
    /// goes through this half. [`Server::attach`](crate::server::Server::attach)
    /// asks once per connection. On TCP the bound is a socket-wide send
    /// timeout, so this half's own sends may time out from then on: send
    /// with [`Self::send_part`], which survives it.
    fn bounded(&self) -> io::Result<Option<Box<dyn BoundedTx>>> {
        Ok(None)
    }

    /// Signals end-of-stream to the peer while leaving the receive
    /// direction open. Dropping the half does this implicitly for
    /// in-process queues, but a duplex socket needs an explicit
    /// write-side shutdown.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A bounded send handle on a transport (see [`TransportTx::bounded`]).
pub trait BoundedTx: Send {
    /// Sends frames from the front of `frames`, removing each one that
    /// went out; a partly sent front frame keeps only its unsent tail.
    /// Returns once the transport has taken every frame or would make the
    /// caller wait past the bound. `Err` means the peer is gone.
    fn send_bounded(&mut self, frames: &mut VecDeque<PooledBuf<u8>>) -> io::Result<()>;
}

/// The receiving half of a transport.
pub trait TransportRx: Send {
    /// Receives the next message, blocking until one arrives. `Ok(None)`
    /// means the peer closed cleanly.
    fn recv_msg(&mut self) -> io::Result<Option<Message>>;

    /// [`Self::recv_msg`], but sweep batches land as [`RxMsg::Batch`]
    /// with their i16 steps decoded into a buffer from `pools.i16s` and
    /// their scale attached — the zero-allocation ingest path feeding the
    /// pipeline's fixed-point front half. The default decodes owned and
    /// repacks; the in-tree transports override it to decode straight
    /// into the pooled buffer.
    fn recv_msg_pooled(&mut self, pools: &SamplePools) -> io::Result<Option<RxMsg>> {
        Ok(self.recv_msg()?.map(|msg| match msg {
            Message::SweepBatchQ(q) => {
                let mut samples = pools.i16s.get(q.data.len());
                samples.extend_from_slice(&q.data);
                RxMsg::Batch(PooledBatch {
                    shape: q.shape(),
                    samples,
                    scale: q.scale,
                })
            }
            other => RxMsg::Control(other),
        }))
    }

    /// Whether this half already holds further input: the next receive
    /// will not wait on the peer. A connection reader runs a message
    /// inline only when this is `false` (see [`crate::server`]). The
    /// default holds nothing.
    fn has_buffered(&mut self) -> bool {
        false
    }
}

/// A bidirectional message channel that splits into its two halves.
pub trait Transport: Send {
    /// The send-half type.
    type Tx: TransportTx + 'static;
    /// The receive-half type.
    type Rx: TransportRx + 'static;

    /// Splits into independently-owned send and receive halves.
    fn split(self) -> io::Result<(Self::Tx, Self::Rx)>;
}

fn wire_to_io(e: WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Decodes one frame with [`wire::decode_into_q`], a sweep batch's steps
/// landing in a buffer from `pools` (recycled at once when the frame is
/// anything else).
fn decode_pooled(frame: &[u8], pools: &SamplePools) -> Result<(RxMsg, usize), WireError> {
    let mut samples = pools.i16s.get(0);
    let (decoded, used) = wire::decode_into_q(frame, &mut Vec::new(), &mut samples)?;
    let msg = match decoded {
        DecodedMsgQ::SweepsQ(shape, scale) => RxMsg::Batch(PooledBatch {
            shape,
            samples,
            scale,
        }),
        DecodedMsgQ::Other(msg) => RxMsg::Control(msg),
    };
    Ok((msg, used))
}

/// A frame-scoped decode failure: the frame's bytes were corrupt, but the
/// surrounding stream is still correctly framed (its length prefix was
/// valid and fully consumed), so the receiver may discard the frame and
/// keep reading. Contrast with a corrupt *header*, which desyncs a byte
/// stream irrecoverably and surfaces as a plain
/// [`io::ErrorKind::InvalidData`] error.
#[derive(Debug)]
pub struct CorruptFrameError(pub WireError);

impl std::fmt::Display for CorruptFrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt frame payload: {}", self.0)
    }
}

impl std::error::Error for CorruptFrameError {}

fn corrupt_frame(e: WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, CorruptFrameError(e))
}

/// Whether a receive error is scoped to one frame (see
/// [`CorruptFrameError`]): the caller may record the corruption, reject
/// the frame, and continue receiving on the same transport.
pub fn recv_error_is_frame_scoped(e: &io::Error) -> bool {
    e.get_ref()
        .is_some_and(|inner| inner.is::<CorruptFrameError>())
}

// ---------------------------------------------------------------------------
// In-process transport.

/// In-process send half: encoded frames into a bounded queue.
pub struct InProcTx {
    tx: SyncSender<WireFrame>,
}

/// In-process receive half, with a one-frame lookahead for
/// [`TransportRx::has_buffered`].
pub struct InProcRx {
    rx: Receiver<WireFrame>,
    next: Option<WireFrame>,
}

/// One endpoint of an in-process duplex channel (see [`in_proc_pair`]).
pub struct InProcTransport {
    tx: InProcTx,
    rx: InProcRx,
}

/// Creates a connected pair of in-process transports. Each direction is a
/// bounded queue of `capacity` frames: a sender whose peer stops draining
/// blocks, exactly like a filled socket buffer.
pub fn in_proc_pair(capacity: usize) -> (InProcTransport, InProcTransport) {
    let (a_tx, b_rx) = sync_channel(capacity);
    let (b_tx, a_rx) = sync_channel(capacity);
    (
        InProcTransport {
            tx: InProcTx { tx: a_tx },
            rx: InProcRx {
                rx: a_rx,
                next: None,
            },
        },
        InProcTransport {
            tx: InProcTx { tx: b_tx },
            rx: InProcRx {
                rx: b_rx,
                next: None,
            },
        },
    )
}

impl TransportTx for InProcTx {
    fn send_frame(&mut self, frame: Vec<u8>) -> io::Result<()> {
        self.tx
            .send(WireFrame::Owned(frame))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer dropped"))
    }

    /// Pool-backed frames cross the queue as-is (no copy); the buffer
    /// recycles when the peer finishes decoding it — even across threads,
    /// since the pool handle is shared.
    fn send_pooled(&mut self, frame: PooledBuf<u8>) -> io::Result<()> {
        self.tx
            .send(WireFrame::Pooled(frame))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer dropped"))
    }

    fn bounded(&self) -> io::Result<Option<Box<dyn BoundedTx>>> {
        Ok(Some(Box::new(InProcTx {
            tx: self.tx.clone(),
        })))
    }
}

/// One `try_send` per frame, until the peer's queue is full.
impl BoundedTx for InProcTx {
    fn send_bounded(&mut self, frames: &mut VecDeque<PooledBuf<u8>>) -> io::Result<()> {
        while let Some(frame) = frames.pop_front() {
            match self.tx.try_send(WireFrame::Pooled(frame)) {
                Ok(()) => {}
                Err(TrySendError::Full(frame)) => {
                    if let WireFrame::Pooled(frame) = frame {
                        frames.push_front(frame);
                    }
                    break;
                }
                Err(TrySendError::Disconnected(_)) => {
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer dropped"))
                }
            }
        }
        Ok(())
    }
}

impl InProcTx {
    /// Non-blocking send: `Ok(false)` when the queue is full (frame not
    /// sent), `Err` when the peer dropped.
    pub fn try_send_msg(&mut self, msg: &Message) -> io::Result<bool> {
        match self.tx.try_send(WireFrame::Owned(wire::encode(msg))) {
            Ok(()) => Ok(true),
            Err(TrySendError::Full(_)) => Ok(false),
            Err(TrySendError::Disconnected(_)) => {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer dropped"))
            }
        }
    }
}

impl InProcRx {
    /// The next frame, the looked-ahead one first; `None` once every
    /// sender is gone.
    fn next_frame(&mut self) -> Option<WireFrame> {
        self.next.take().or_else(|| self.rx.recv().ok())
    }
}

/// A queued frame is exactly one message: trailing bytes corrupt it.
fn whole_frame<M>((msg, used): (M, usize), frame: &[u8]) -> io::Result<M> {
    if used != frame.len() {
        return Err(corrupt_frame(WireError::BadPayload(
            "frame carries extra bytes",
        )));
    }
    Ok(msg)
}

impl TransportRx for InProcRx {
    fn recv_msg(&mut self) -> io::Result<Option<Message>> {
        let Some(frame) = self.next_frame() else {
            return Ok(None); // all senders dropped: clean close
        };
        let decoded = wire::decode(&frame).map_err(corrupt_frame)?;
        whole_frame(decoded, &frame).map(Some)
    }

    fn recv_msg_pooled(&mut self, pools: &SamplePools) -> io::Result<Option<RxMsg>> {
        let Some(frame) = self.next_frame() else {
            return Ok(None);
        };
        let decoded = decode_pooled(&frame, pools).map_err(corrupt_frame)?;
        whole_frame(decoded, &frame).map(Some)
    }

    fn has_buffered(&mut self) -> bool {
        if self.next.is_none() {
            self.next = self.rx.try_recv().ok();
        }
        self.next.is_some()
    }
}

impl Transport for InProcTransport {
    type Tx = InProcTx;
    type Rx = InProcRx;

    fn split(self) -> io::Result<(InProcTx, InProcRx)> {
        Ok((self.tx, self.rx))
    }
}

// ---------------------------------------------------------------------------
// TCP transport.

/// A `TcpStream` carrying wire frames.
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Wraps a connected stream. `TCP_NODELAY` is enabled: frames are
    /// latency-sensitive and already batched at the protocol layer.
    pub fn new(stream: TcpStream) -> TcpTransport {
        let _ = stream.set_nodelay(true);
        TcpTransport { stream }
    }

    /// Connects to `addr` (e.g. a loopback [`TcpServer`]'s address).
    ///
    /// [`TcpServer`]: crate::server::TcpServer
    pub fn connect(addr: std::net::SocketAddr) -> io::Result<TcpTransport> {
        Ok(TcpTransport::new(TcpStream::connect(addr)?))
    }
}

/// TCP send half.
pub struct TcpTx {
    stream: TcpStream,
}

/// TCP receive half with its streaming read buffer.
pub struct TcpRx {
    stream: TcpStream,
    buf: RecvBuf,
}

impl Transport for TcpTransport {
    type Tx = TcpTx;
    type Rx = TcpRx;

    fn split(self) -> io::Result<(TcpTx, TcpRx)> {
        let writer = self.stream.try_clone()?;
        Ok((
            TcpTx { stream: writer },
            TcpRx {
                stream: self.stream,
                buf: RecvBuf::new(),
            },
        ))
    }
}

impl TransportTx for TcpTx {
    fn send_frame(&mut self, frame: Vec<u8>) -> io::Result<()> {
        self.stream.write_all(&frame)
    }

    /// Writes the bytes and drops the guard — the buffer is back in its
    /// pool as soon as the kernel has them.
    fn send_pooled(&mut self, frame: PooledBuf<u8>) -> io::Result<()> {
        self.stream.write_all(&frame)
    }

    fn send_part(&mut self, frame: &mut PooledBuf<u8>) -> io::Result<()> {
        match self.stream.write(frame)? {
            0 => Err(io::ErrorKind::WriteZero.into()),
            n => {
                frame.drain(..n);
                Ok(())
            }
        }
    }

    /// Sets `SEND_BOUND` (1 ms) as the socket's send timeout — on every handle
    /// of the socket, this one included — and hands out a clone.
    fn bounded(&self) -> io::Result<Option<Box<dyn BoundedTx>>> {
        let stream = self.stream.try_clone()?;
        stream.set_write_timeout(Some(SEND_BOUND))?;
        Ok(Some(Box::new(TcpTx { stream })))
    }

    fn finish(&mut self) -> io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)
    }
}

/// Frames one vectored write takes: a connection's whole admitted
/// backlog.
const MAX_SLICES: usize = crate::conn::OUTBOX_CAPACITY;

/// One vectored write per `MAX_SLICES` frames, each bounded by the send
/// timeout [`TransportTx::bounded`] set.
impl BoundedTx for TcpTx {
    fn send_bounded(&mut self, frames: &mut VecDeque<PooledBuf<u8>>) -> io::Result<()> {
        while !frames.is_empty() {
            let mut slices = [IoSlice::new(&[]); MAX_SLICES];
            let mut offered = 0;
            for (slice, frame) in slices.iter_mut().zip(frames.iter()) {
                *slice = IoSlice::new(frame);
                offered += frame.len();
            }
            let n = frames.len().min(MAX_SLICES);
            let mut written = match self.stream.write_vectored(&slices[..n]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(written) => written,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if timed_out(&e) => return Ok(()),
                Err(e) => return Err(e),
            };
            let bound_expired = written < offered;
            while let Some(front) = frames.front_mut() {
                if written < front.len() {
                    front.drain(..written);
                    break;
                }
                written -= front.len();
                frames.pop_front();
            }
            if bound_expired {
                break;
            }
        }
        Ok(())
    }
}

/// Whether a send error is a send timeout expiring (see
/// [`TransportTx::bounded`]): the peer is slow, not gone.
pub(crate) fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// A byte stream's receive buffer. Frames are served out of it in place.
/// The buffer holds the largest frame seen plus one header, and each read
/// takes whatever the source holds, up to the buffer's end, after the
/// bytes not yet served moved to its front. Bytes beyond a frame tell the
/// reader that more input is waiting ([`RecvBuf::has_buffered`]). On a
/// stream of same-sized frames, a read brings at most one frame and the
/// next header, so one read serves a frame and the bytes moved to the
/// front are at most a header. A larger buffer would leave most of a
/// frame to move on a flood, unless it were large enough to slow
/// connection set-up. The buffer only grows, and only once a valid header
/// asks for more room than it has.
struct RecvBuf {
    buf: Vec<u8>,
    /// Start of the bytes not yet served.
    start: usize,
    /// End of the bytes read.
    end: usize,
}

impl RecvBuf {
    fn new() -> RecvBuf {
        RecvBuf {
            buf: vec![0; 2 * HEADER_LEN],
            start: 0,
            end: 0,
        }
    }

    /// Whether bytes beyond the last served frame are buffered.
    fn has_buffered(&self) -> bool {
        self.end > self.start
    }

    /// The next whole frame, reading from `src` only when the buffer
    /// holds less than one. `Ok(None)` on a clean EOF at a frame
    /// boundary; `UnexpectedEof` when the stream ends mid-frame. A
    /// corrupt header is an `InvalidData` error, raised before the buffer
    /// grows for it.
    fn next_frame(&mut self, src: &mut impl Read) -> io::Result<Option<&[u8]>> {
        if !self.fill(src, HEADER_LEN)? {
            return Ok(None);
        }
        let header = &self.buf[self.start..self.start + HEADER_LEN];
        let (_, frame_len) = wire::decode_header(header).map_err(wire_to_io)?;
        self.fill(src, frame_len)?;
        let frame = self.start..self.start + frame_len;
        self.start = frame.end;
        Ok(Some(&self.buf[frame]))
    }

    /// Reads until at least `want` unserved bytes are buffered, growing
    /// the buffer to `want` plus one header if it is smaller. `Ok(false)`
    /// on EOF with nothing buffered.
    fn fill(&mut self, src: &mut impl Read, want: usize) -> io::Result<bool> {
        if self.end - self.start >= want {
            return Ok(true);
        }
        self.buf.copy_within(self.start..self.end, 0);
        (self.start, self.end) = (0, self.end - self.start);
        if self.buf.len() < want + HEADER_LEN {
            self.buf.resize(want + HEADER_LEN, 0);
        }
        while self.end < want {
            match src.read(&mut self.buf[self.end..]) {
                Ok(0) if self.end == 0 => return Ok(false),
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

impl TransportRx for TcpRx {
    // A served frame leaves the buffer positioned exactly at the next
    // frame boundary, so a payload that fails to decode is a
    // frame-scoped loss — the connection may keep reading. Only a corrupt
    // *header* (caught inside next_frame) desyncs the byte stream.
    fn recv_msg(&mut self) -> io::Result<Option<Message>> {
        let Some(frame) = self.buf.next_frame(&mut self.stream)? else {
            return Ok(None);
        };
        let (msg, _) = wire::decode(frame).map_err(corrupt_frame)?;
        Ok(Some(msg))
    }

    fn recv_msg_pooled(&mut self, pools: &SamplePools) -> io::Result<Option<RxMsg>> {
        let Some(frame) = self.buf.next_frame(&mut self.stream)? else {
            return Ok(None);
        };
        let (msg, _) = decode_pooled(frame, pools).map_err(corrupt_frame)?;
        Ok(Some(msg))
    }

    fn has_buffered(&mut self) -> bool {
        self.buf.has_buffered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode, Teardown};

    #[test]
    fn in_proc_pair_round_trips() {
        let (a, b) = in_proc_pair(4);
        let (mut a_tx, _a_rx) = a.split().unwrap();
        let (_b_tx, mut b_rx) = b.split().unwrap();
        a_tx.send_msg(&Message::Teardown(Teardown { sensor_id: 3 }))
            .unwrap();
        let got = b_rx.recv_msg().unwrap().unwrap();
        assert_eq!(got, Message::Teardown(Teardown { sensor_id: 3 }));
        drop(a_tx);
        assert!(b_rx.recv_msg().unwrap().is_none(), "drop closes cleanly");
    }

    #[test]
    fn in_proc_try_send_reports_full() {
        let (a, b) = in_proc_pair(1);
        let (mut a_tx, _a_rx) = a.split().unwrap();
        let (_b_tx, b_rx) = b.split().unwrap();
        let msg = Message::Teardown(Teardown { sensor_id: 0 });
        assert!(a_tx.try_send_msg(&msg).unwrap());
        assert!(!a_tx.try_send_msg(&msg).unwrap(), "bounded queue is full");
        drop(b_rx);
    }

    #[test]
    fn in_proc_lookahead_reports_and_keeps_the_next_frame() {
        let (a, b) = in_proc_pair(4);
        let (mut a_tx, _a_rx) = a.split().unwrap();
        let (_b_tx, mut b_rx) = b.split().unwrap();
        assert!(!b_rx.has_buffered());
        a_tx.send_msg(&teardown(1)).unwrap();
        a_tx.send_msg(&teardown(2)).unwrap();
        assert!(b_rx.has_buffered());
        assert!(b_rx.has_buffered(), "looking again takes nothing more");
        assert_eq!(b_rx.recv_msg().unwrap(), Some(teardown(1)));
        assert!(b_rx.has_buffered());
        assert_eq!(b_rx.recv_msg().unwrap(), Some(teardown(2)));
        assert!(!b_rx.has_buffered());
    }

    fn teardown(sensor_id: u32) -> Message {
        Message::Teardown(Teardown { sensor_id })
    }

    /// A source that hands out its scripted chunks one read at a time,
    /// never more than one chunk per read.
    struct Chunks {
        chunks: std::collections::VecDeque<Vec<u8>>,
        reads: usize,
    }

    impl Chunks {
        fn new(chunks: impl IntoIterator<Item = Vec<u8>>) -> Chunks {
            Chunks {
                chunks: chunks.into_iter().collect(),
                reads: 0,
            }
        }
    }

    impl Read for Chunks {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let Some(chunk) = self.chunks.front_mut() else {
                return Ok(0);
            };
            let n = chunk.len().min(out.len());
            out[..n].copy_from_slice(&chunk[..n]);
            chunk.drain(..n);
            if chunk.is_empty() {
                self.chunks.pop_front();
            }
            Ok(n)
        }
    }

    fn batch_frame(sensor_id: u32, samples_per_sweep: usize) -> Vec<u8> {
        let sweeps = [vec![vec![0.25; samples_per_sweep]; 3]];
        wire::encode(&Message::SweepBatchQ(wire::SweepBatchQ::from_sweeps(
            sensor_id, 0, &sweeps,
        )))
    }

    #[test]
    fn a_frame_split_at_every_byte_boundary_reassembles() {
        let frame = batch_frame(4, 8);
        for split in 1..frame.len() {
            let mut src = Chunks::new([frame[..split].to_vec(), frame[split..].to_vec()]);
            let mut buf = RecvBuf::new();
            let got = buf.next_frame(&mut src).unwrap().expect("one frame");
            assert_eq!(got, &frame[..], "split at {split}");
            assert!(!buf.has_buffered());
            assert!(buf.next_frame(&mut src).unwrap().is_none(), "clean EOF");
        }
    }

    #[test]
    fn a_frame_larger_than_the_buffer_grows_it_once() {
        let frame = batch_frame(4, 4096);
        assert!(frame.len() > RecvBuf::new().buf.len());
        let mid = frame.len() / 2;
        let mut src = Chunks::new([frame[..7].to_vec(), frame[7..mid].to_vec(), {
            let mut rest = frame[mid..].to_vec();
            rest.extend_from_slice(&frame);
            rest
        }]);
        let mut buf = RecvBuf::new();
        assert_eq!(buf.next_frame(&mut src).unwrap().unwrap(), &frame[..]);
        let grown = buf.buf.len();
        assert_eq!(buf.next_frame(&mut src).unwrap().unwrap(), &frame[..]);
        assert_eq!(buf.buf.len(), grown, "a second frame of the same size fits");
    }

    #[test]
    fn several_frames_held_at_once_are_served_in_order() {
        let frames = [batch_frame(1, 8), encode(&teardown(2)), batch_frame(3, 16)];
        let mut src = Chunks::new([frames.concat()]);
        let mut buf = RecvBuf::new();
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!(buf.next_frame(&mut src).unwrap().unwrap(), &frame[..]);
            assert_eq!(buf.has_buffered(), i + 1 < frames.len());
        }
        assert!(buf.next_frame(&mut src).unwrap().is_none());
    }

    #[test]
    fn same_sized_frames_take_one_read_each_and_leave_a_header_behind() {
        let frames: Vec<Vec<u8>> = (0..4).map(|id| batch_frame(id, 64)).collect();
        let mut src = Chunks::new([frames.concat()]);
        let mut buf = RecvBuf::new();
        // The first frame grows the buffer; every later one is one read.
        buf.next_frame(&mut src).unwrap().unwrap();
        for frame in &frames[1..] {
            let reads = src.reads;
            assert!(buf.end - buf.start <= HEADER_LEN, "at most a header moves");
            assert_eq!(buf.next_frame(&mut src).unwrap().unwrap(), &frame[..]);
            assert_eq!(src.reads, reads + 1);
        }
        assert!(!buf.has_buffered());
    }

    /// A loopback socket: the writing end, and the reading end as a
    /// transport's receive half.
    fn tcp_pair() -> (TcpStream, TcpRx) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (reader, _) = listener.accept().unwrap();
        let (_, rx) = TcpTransport::new(reader).split().unwrap();
        (writer, rx)
    }

    #[test]
    fn tcp_serves_back_to_back_frames_and_reports_more_input() {
        let (mut writer, mut rx) = tcp_pair();
        let msgs = [teardown(1), teardown(2), teardown(3)];
        let bytes: Vec<u8> = msgs.iter().flat_map(encode).collect();
        writer.write_all(&bytes).unwrap();
        writer.shutdown(std::net::Shutdown::Write).unwrap();
        for (i, msg) in msgs.iter().enumerate() {
            assert_eq!(rx.recv_msg().unwrap().as_ref(), Some(msg));
            assert_eq!(rx.has_buffered(), i + 1 < msgs.len());
        }
        assert!(rx.recv_msg().unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn tcp_corrupt_payload_between_good_frames_is_frame_scoped() {
        let (mut writer, mut rx) = tcp_pair();
        // A teardown whose header declares a 3-byte payload: the header
        // is valid, the payload is not a teardown.
        let mut corrupt = encode(&teardown(9));
        corrupt[8..12].copy_from_slice(&3u32.to_le_bytes());
        corrupt.pop();
        let mut bytes = encode(&teardown(1));
        bytes.extend_from_slice(&corrupt);
        bytes.extend(encode(&teardown(2)));
        writer.write_all(&bytes).unwrap();
        writer.shutdown(std::net::Shutdown::Write).unwrap();
        assert_eq!(rx.recv_msg().unwrap(), Some(teardown(1)));
        let err = rx.recv_msg().unwrap_err();
        assert!(recv_error_is_frame_scoped(&err), "{err}");
        assert_eq!(rx.recv_msg().unwrap(), Some(teardown(2)));
        assert!(rx.recv_msg().unwrap().is_none());
    }

    #[test]
    fn tcp_stream_cut_mid_frame_is_unexpected_eof() {
        let (mut writer, mut rx) = tcp_pair();
        let frame = batch_frame(1, 8);
        writer.write_all(&frame[..frame.len() - 5]).unwrap();
        writer.shutdown(std::net::Shutdown::Write).unwrap();
        let err = rx.recv_msg().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(!recv_error_is_frame_scoped(&err));
    }

    #[test]
    fn a_client_tcp_sender_waits_out_a_slow_reader() {
        // A client's send half is a plain blocking writer: a reader that
        // pauses longer than a send timeout's tick, with more bytes in
        // flight than the socket buffers hold, must not fail its sends.
        // Only a served connection's sends are bounded (`bounded`).
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let (mut tx, _rx) = TcpTransport::connect(listener.local_addr().unwrap())
            .unwrap()
            .split()
            .unwrap();
        let (mut reader, _) = listener.accept().unwrap();
        const FRAME: usize = 64 * 1024;
        const FRAMES: usize = 512;
        let slow = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(100));
            let mut buf = vec![0u8; FRAME];
            let mut total = 0;
            loop {
                match reader.read(&mut buf).unwrap() {
                    0 => return total,
                    n => total += n,
                }
            }
        });
        let frame = vec![7u8; FRAME];
        for _ in 0..FRAMES {
            tx.send_frame(frame.clone()).expect("a blocking send");
        }
        tx.finish().unwrap();
        assert_eq!(slow.join().unwrap(), FRAME * FRAMES);
    }

    #[test]
    fn tcp_oversized_header_fails_before_the_buffer_grows() {
        let (mut writer, mut rx) = tcp_pair();
        let mut header = encode(&teardown(1));
        header.truncate(HEADER_LEN);
        header[8..12].copy_from_slice(&(wire::MAX_PAYLOAD as u32 + 1).to_le_bytes());
        writer.write_all(&header).unwrap();
        let before = rx.buf.buf.len();
        let err = rx.recv_msg().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!recv_error_is_frame_scoped(&err), "a bad header desyncs");
        assert_eq!(rx.buf.buf.len(), before, "no room was made for it");
    }
}
