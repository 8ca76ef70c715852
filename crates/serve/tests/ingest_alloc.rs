//! Counting-allocator proof that a served connection's steady state
//! performs **zero** heap allocations per message after warmup, both
//! ways:
//! - ingest: wire frame off the transport, the connection reader's
//!   pooled decode (quantized batches staying i16 end to end), its submit
//!   (run on the idle shard by the reader itself, or queued for the shard
//!   thread), pipeline entry, buffer recycle;
//! - replies: the update each frame produces, encoded into a pooled
//!   buffer, collected and sent directly at the end of its run — and,
//!   when the client's queue is full, queued for the connection's writer
//!   thread instead.
//!
//! This file is its own test binary on purpose: a global counting
//! allocator sees every thread in the process, so the measurement must
//! not share a process with concurrently-running tests (its own two tests
//! take turns). The client threads that read replies are exempt from the
//! count: the subject is the server. The pipeline behind the trait is a
//! stub that reports one empty frame per batch — the WiTrack pipelines'
//! internal per-frame report assembly is their own concern; this
//! measures the serving layer's data plane.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use witrack_core::{FramePipeline, FrameReport};
use witrack_obs::{Counter, Label};
use witrack_serve::engine::{EngineConfig, OverloadPolicy};
use witrack_serve::transport::{in_proc_pair, TcpTransport, Transport, TransportRx, TransportTx};
use witrack_serve::wire::{self, Hello, Message, PipelineKind, SweepBatchQ, HEADER_LEN};
use witrack_serve::Server;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Sweeps every pipeline has consumed: the test waits on it without
/// allocating.
static SWEEPS_IN: AtomicU64 = AtomicU64::new(0);
/// Updates the client has read, each in sequence.
static REPLIES: AtomicU64 = AtomicU64::new(0);
/// The two tests take turns: both count into the same globals.
static SERIAL: Mutex<()> = Mutex::new(());

static MEASURING: AtomicBool = AtomicBool::new(false);
static SIZES: [AtomicU64; 8] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

thread_local! {
    /// Set on client threads: their allocations are not the server's.
    static EXEMPT: Cell<bool> = const { Cell::new(false) };
}

fn counted(size: u64) {
    if EXEMPT.try_with(Cell::get).unwrap_or(false) {
        return;
    }
    let n = ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if MEASURING.load(Ordering::Relaxed) {
        SIZES[(n % 8) as usize].store(size, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(layout.size() as u64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted((new_size as u64) | (1 << 63));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A pipeline that consumes sweeps without touching the heap and reports
/// one empty frame per `sweeps_per_frame` sweeps.
struct NullPipeline {
    n_rx: usize,
    sweeps_per_frame: u64,
    sweeps: u64,
}

impl FramePipeline for NullPipeline {
    fn num_rx(&self) -> usize {
        self.n_rx
    }

    fn process_sweeps_flat_q(
        &mut self,
        flat: &[i16],
        samples: usize,
        _scale: f64,
    ) -> Option<FrameReport> {
        assert_eq!(flat.len(), samples * self.n_rx);
        self.sweeps += 1;
        // Stall the first few (warmup) batches so the connection reader
        // blocks on the 1-deep shard queue: the channel's sender-side
        // waker structures are allocated lazily on first block, and that
        // must happen inside warmup, not mid-measurement.
        if self.sweeps <= 15 {
            std::thread::sleep(Duration::from_millis(2));
        }
        SWEEPS_IN.fetch_add(1, Ordering::SeqCst);
        self.sweeps
            .is_multiple_of(self.sweeps_per_frame)
            .then(|| FrameReport {
                frame_index: self.sweeps / self.sweeps_per_frame,
                time_s: 0.0,
                targets: Vec::new(),
            })
    }

    fn reset(&mut self) {
        self.sweeps = 0;
    }
}

const N_RX: u16 = 3;
const SWEEPS: u16 = 5;
const WARMUP: u64 = 50;
const MEASURED: u64 = 200;

/// Waits (without allocating) until `counter` reaches `n`, or a deadline
/// passes; the final assertions catch a frame that never arrived.
fn wait_for(counter: &AtomicU64, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while counter.load(Ordering::SeqCst) < n && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// A one-shard server whose reader blocks on a busy shard from the
/// first frames (queue capacity 1), so the channel's lazily-allocated
/// sender-side waker structures come into existence during warmup, not
/// measurement.
fn server() -> Server {
    SWEEPS_IN.store(0, Ordering::SeqCst);
    REPLIES.store(0, Ordering::SeqCst);
    Server::builder(Arc::new(|h: &Hello| {
        Ok(Box::new(NullPipeline {
            n_rx: h.n_rx as usize,
            sweeps_per_frame: h.sweeps_per_frame as u64,
            sweeps: 0,
        }) as Box<dyn FramePipeline>)
    }))
    .config(EngineConfig {
        num_shards: 1,
        queue_capacity: 1,
        overload: OverloadPolicy::Block,
    })
    .start()
}

fn hello_frame(samples: u32) -> Vec<u8> {
    wire::encode(&Message::Hello(Hello {
        sensor_id: 0,
        kind: PipelineKind::SingleTarget,
        n_rx: N_RX as u8,
        samples_per_sweep: samples,
        sweeps_per_frame: SWEEPS as u32,
        quantized: true,
    }))
}

/// Every frame of a run, pre-encoded (quantized batches of `samples`
/// per sweep), so the sender writes ready bytes instead of allocating.
/// Each frame is distinct data.
fn batch_frames(samples: u32) -> Vec<Vec<u8>> {
    let count = SWEEPS as usize * N_RX as usize * samples as usize;
    (0..WARMUP + MEASURED)
        .map(|f| {
            let data: Vec<i16> = (0..count)
                .map(|i| ((i as u64 * (f + 3)) % 251) as i16)
                .collect();
            wire::encode(&Message::SweepBatchQ(SweepBatchQ {
                sensor_id: 0,
                seq: f,
                n_sweeps: SWEEPS,
                n_rx: N_RX,
                samples_per_sweep: samples,
                scale: 1.0 / 128.0,
                data,
            }))
        })
        .collect()
}

/// Primes the server's pools to their worst-case concurrency: warmup
/// traffic alone only populates the *typical* depth, and a mid-run
/// scheduling blip past it would read as a (one-off, cold) miss.
fn prime_pools(server: &Server, samples: u32) {
    let handle = server.engine_handle();
    let count = SWEEPS as usize * N_RX as usize * samples as usize;
    let prime: Vec<_> = (0..8)
        .map(|_| handle.ingest_pools().i16s.get(count))
        .collect();
    drop(prime);
    let prime: Vec<_> = (0..16).map(|_| handle.frame_pool().get(64)).collect();
    drop(prime);
}

fn engine_counter(server: &Server, name: &'static str) -> Counter {
    server.registry().counter("engine", name, Label::Global)
}

/// What one measured window saw.
struct Window {
    allocs: u64,
    sizes: Vec<u64>,
}

/// Sends every frame with `send`, measuring allocations over the frames
/// after warmup, from the first measured send until `done` holds.
fn measure(frames: Vec<Vec<u8>>, mut send: impl FnMut(u64, Vec<u8>), done: impl Fn()) -> Window {
    let mut start = 0;
    for (f, frame) in frames.into_iter().enumerate() {
        let f = f as u64;
        if f == WARMUP {
            start = ALLOCATIONS.load(Ordering::SeqCst);
            MEASURING.store(true, Ordering::SeqCst);
        }
        send(f, frame);
    }
    done();
    // Every measured message has fully traversed the path by here — but
    // closing the connection and shutting down may free/allocate, so
    // read the counter first, then close.
    let end = ALLOCATIONS.load(Ordering::SeqCst);
    MEASURING.store(false, Ordering::SeqCst);
    Window {
        allocs: end - start,
        sizes: SIZES.iter().map(|s| s.load(Ordering::Relaxed)).collect(),
    }
}

/// Reads a byte stream of reply frames without allocating, checking
/// that each is an `UpdateBatch` of sensor 0 in sequence.
fn read_replies(mut stream: TcpStream) {
    EXEMPT.with(|e| e.set(true));
    let mut buf = vec![0u8; 1 << 16];
    let (mut start, mut end) = (0, 0);
    loop {
        while end - start >= HEADER_LEN {
            let (msg_type, len) = wire::decode_header(&buf[start..end]).expect("a reply header");
            if end - start < len {
                break;
            }
            let frame = &buf[start..start + len];
            assert_eq!(msg_type, 4, "an UpdateBatch");
            let seq =
                u64::from_le_bytes(frame[HEADER_LEN + 4..HEADER_LEN + 12].try_into().unwrap());
            assert_eq!(seq, REPLIES.load(Ordering::SeqCst), "updates in sequence");
            REPLIES.fetch_add(1, Ordering::SeqCst);
            start += len;
        }
        buf.copy_within(start..end, 0);
        (start, end) = (0, end - start);
        match stream.read(&mut buf[end..]) {
            Ok(0) | Err(_) => return,
            Ok(n) => end += n,
        }
    }
}

#[test]
fn steady_state_ingest_makes_zero_allocations_per_frame() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const SAMPLES: u32 = 2500;
    let server = server();
    let inline_runs = server
        .registry()
        .counter("shard", "inline_runs", Label::Shard(0));
    let direct_writes = engine_counter(&server, "direct_writes");
    let frames = batch_frames(SAMPLES);

    // The full served wire path: a loopback socket into a connection
    // reader that decodes into the engine's pools and submits each
    // message exactly as a served connection does; its updates come back
    // over the same socket.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (accepted, _) = listener.accept().unwrap();
    let reader = server.attach(TcpTransport::new(accepted)).unwrap();
    let replies = {
        let stream = client.try_clone().unwrap();
        std::thread::spawn(move || read_replies(stream))
    };
    client.write_all(&hello_frame(SAMPLES)).unwrap();
    prime_pools(&server, SAMPLES);

    // Both halves of warmup and of the measurement send frames two ways:
    // back to back (the reader finds more input or a busy shard, and
    // queues), then one at a time, each after the last one reached the
    // pipeline (the reader finds the shard idle and runs the frame
    // itself).
    let lockstep = |f: u64| {
        if f < WARMUP {
            f >= WARMUP / 2
        } else {
            f >= WARMUP + MEASURED / 2
        }
    };
    let (mut inline_before, mut direct_before) = (0, 0);
    let window = measure(
        frames,
        |f, frame| {
            if f == WARMUP {
                inline_before = inline_runs.get();
                direct_before = direct_writes.get();
            }
            if lockstep(f) {
                wait_for(&SWEEPS_IN, f * SWEEPS as u64);
            }
            client.write_all(&frame).unwrap();
        },
        || wait_for(&REPLIES, WARMUP + MEASURED),
    );
    let inline_measured = inline_runs.get() - inline_before;
    let direct_measured = direct_writes.get() - direct_before;
    let pool = server.engine_handle().ingest_pools().clone();
    client.shutdown(std::net::Shutdown::Write).unwrap();
    reader.join().unwrap();
    replies.join().unwrap();
    let m = server.shutdown();

    assert_eq!(
        m.sweeps_processed,
        (WARMUP + MEASURED) * SWEEPS as u64,
        "every sweep must have reached the pipeline"
    );
    assert_eq!(REPLIES.load(Ordering::SeqCst), WARMUP + MEASURED);
    assert!(
        inline_measured > 0,
        "no measured frame ran on the connection reader"
    );
    assert!(direct_measured > 0, "no measured update was sent directly");
    let pool_stats = pool.i16s.stats();
    assert!(
        pool_stats.misses <= WARMUP,
        "sample pool kept allocating after warmup: {pool_stats:?}"
    );
    assert_eq!(
        window.allocs, 0,
        "steady-state serving made {} allocations over {MEASURED} frames \
         ({inline_measured} run by the reader, the rest queued; \
         {direct_measured} updates sent directly; expected zero: pooled \
         decode + recycled dispatch + pooled encode); sizes {:?}",
        window.allocs, window.sizes
    );
}

#[test]
fn replies_queued_behind_a_full_client_make_zero_allocations_per_frame() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const SAMPLES: u32 = 64;
    let server = server();
    let direct_writes = engine_counter(&server, "direct_writes");
    let queued_writes = engine_counter(&server, "queued_writes");
    let frames = batch_frames(SAMPLES);

    // An in-process client whose reply queue holds one frame and which
    // takes 3 ms over each update: a run whose update finds the queue
    // still full leaves it to the connection's writer thread.
    let (client_end, server_end) = in_proc_pair(1);
    let reader = server.attach(server_end).unwrap();
    let (mut client, mut client_rx) = client_end.split().unwrap();
    let replies = std::thread::spawn(move || {
        EXEMPT.with(|e| e.set(true));
        while let Ok(Some(msg)) = client_rx.recv_msg() {
            let Message::UpdateBatch(u) = msg else {
                panic!("unexpected {msg:?}");
            };
            assert_eq!(u.seq, REPLIES.load(Ordering::SeqCst), "updates in sequence");
            REPLIES.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(3));
        }
    });
    // The sending side is the client too.
    EXEMPT.with(|e| e.set(true));
    client.send_frame(hello_frame(SAMPLES)).unwrap();
    prime_pools(&server, SAMPLES);

    // The first half of warmup goes back to back, so every thread of the
    // path blocks once (the channels allocate their waker lists on first
    // block) and the writer takes a backlog. After that, an even frame
    // goes once every earlier update is in: its update finds the
    // client's queue empty and goes directly. An odd one goes at once:
    // its update finds the even one still queued and goes to the writer.
    // At most two are then in flight, far below shedding.
    let (mut direct_before, mut queued_before) = (0, 0);
    let window = measure(
        frames,
        |f, frame| {
            if f == WARMUP {
                direct_before = direct_writes.get();
                queued_before = queued_writes.get();
            }
            if f >= WARMUP / 2 {
                wait_for(&REPLIES, if f % 2 == 0 { f } else { f - 1 });
            }
            client.send_frame(frame).unwrap();
        },
        || wait_for(&REPLIES, WARMUP + MEASURED),
    );
    EXEMPT.with(|e| e.set(false));
    let direct_measured = direct_writes.get() - direct_before;
    let queued_measured = queued_writes.get() - queued_before;
    drop(client);
    reader.join().unwrap();
    replies.join().unwrap();
    let m = server.shutdown();

    assert_eq!(REPLIES.load(Ordering::SeqCst), WARMUP + MEASURED);
    assert_eq!(m.updates_dropped, 0);
    assert!(direct_measured > 0, "no measured update was sent directly");
    assert!(queued_measured > 0, "no measured update went to the writer");
    assert_eq!(
        window.allocs, 0,
        "replies made {} allocations over {MEASURED} frames ({direct_measured} \
         sent directly, {queued_measured} queued for the writer; expected \
         zero); sizes {:?}",
        window.allocs, window.sizes
    );
}
