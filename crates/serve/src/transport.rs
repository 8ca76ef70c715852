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

use crate::pool::{PooledBatch, PooledBuf, SamplePools};
use crate::wire::{self, DecodedMsgQ, Message, WireError, HEADER_LEN};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};

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

    /// Signals end-of-stream to the peer while leaving the receive
    /// direction open. Dropping the half does this implicitly for
    /// in-process queues, but a duplex socket needs an explicit
    /// write-side shutdown.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
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

/// In-process receive half.
pub struct InProcRx {
    rx: Receiver<WireFrame>,
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
            rx: InProcRx { rx: a_rx },
        },
        InProcTransport {
            tx: InProcTx { tx: b_tx },
            rx: InProcRx { rx: b_rx },
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

impl TransportRx for InProcRx {
    fn recv_msg(&mut self) -> io::Result<Option<Message>> {
        match self.rx.recv() {
            Err(_) => Ok(None), // all senders dropped: clean close
            Ok(frame) => {
                let (msg, used) = wire::decode(&frame).map_err(corrupt_frame)?;
                if used != frame.len() {
                    return Err(corrupt_frame(WireError::BadPayload(
                        "frame carries extra bytes",
                    )));
                }
                Ok(Some(msg))
            }
        }
    }

    fn recv_msg_pooled(&mut self, pools: &SamplePools) -> io::Result<Option<RxMsg>> {
        match self.rx.recv() {
            Err(_) => Ok(None),
            Ok(frame) => {
                let (msg, used) = decode_pooled(&frame, pools).map_err(corrupt_frame)?;
                if used != frame.len() {
                    return Err(corrupt_frame(WireError::BadPayload(
                        "frame carries extra bytes",
                    )));
                }
                Ok(Some(msg))
            }
        }
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
    buf: Vec<u8>,
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
                buf: vec![0; HEADER_LEN],
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

    fn finish(&mut self) -> io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)
    }
}

impl TcpRx {
    /// Reads exactly one frame into the half's reused byte buffer and
    /// returns it: the 12-byte header names the payload length, so
    /// over-reading (and having to buffer spill for the next call) never
    /// happens. The buffer (never shorter than a header) only ever grows,
    /// so a steady stream of same-sized frames never zero-fills it.
    /// `Ok(None)` on clean EOF.
    fn fill_one_frame(&mut self) -> io::Result<Option<&[u8]>> {
        if !read_exact_or_eof(&mut self.stream, &mut self.buf[..HEADER_LEN])? {
            return Ok(None);
        }
        let (_, frame_len) = wire::decode_header(&self.buf[..HEADER_LEN]).map_err(wire_to_io)?;
        if self.buf.len() < frame_len {
            self.buf.resize(frame_len, 0);
        }
        self.stream
            .read_exact(&mut self.buf[HEADER_LEN..frame_len])?;
        Ok(Some(&self.buf[..frame_len]))
    }
}

impl TransportRx for TcpRx {
    // Once fill_one_frame() succeeds the stream is positioned exactly at
    // the next frame boundary, so a payload that fails to decode is a
    // frame-scoped loss — the connection may keep reading. Only a corrupt
    // *header* (caught inside fill_one_frame) desyncs the byte stream.
    fn recv_msg(&mut self) -> io::Result<Option<Message>> {
        let Some(frame) = self.fill_one_frame()? else {
            return Ok(None);
        };
        let (msg, _) = wire::decode(frame).map_err(corrupt_frame)?;
        Ok(Some(msg))
    }

    fn recv_msg_pooled(&mut self, pools: &SamplePools) -> io::Result<Option<RxMsg>> {
        let Some(frame) = self.fill_one_frame()? else {
            return Ok(None);
        };
        let (msg, _) = decode_pooled(frame, pools).map_err(corrupt_frame)?;
        Ok(Some(msg))
    }
}

/// Fills `buf` from `r`; `Ok(false)` on a clean EOF at offset 0,
/// `UnexpectedEof` if the stream dies mid-buffer.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Teardown;

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
}
