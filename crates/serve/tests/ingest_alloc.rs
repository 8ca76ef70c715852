//! Counting-allocator proof that the steady-state ingest path of a
//! served connection — wire frame off a loopback socket, the connection
//! reader's pooled decode (quantized batches staying i16 end to end), its
//! submit (run on the idle shard by the reader itself, or queued for the
//! shard thread), pipeline entry, buffer recycle — performs **zero** heap
//! allocations per message after warmup.
//!
//! This file is its own test binary on purpose: a global counting
//! allocator sees every thread in the process, so the measurement must
//! not share a process with concurrently-running tests. The pipeline
//! behind the trait is a no-op stub — the WiTrack pipelines' internal
//! per-frame report assembly is their own concern; this measures the
//! serving layer's data plane.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use witrack_core::{FramePipeline, FrameReport};
use witrack_serve::engine::{EngineConfig, OverloadPolicy};
use witrack_serve::transport::TcpTransport;
use witrack_serve::wire::{self, Hello, Message, PipelineKind, SweepBatchQ};
use witrack_serve::Server;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Sweeps every pipeline has consumed: the test waits on it without
/// allocating.
static SWEEPS_IN: AtomicU64 = AtomicU64::new(0);

static MEASURING: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
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

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let n = ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if MEASURING.load(Ordering::Relaxed) {
            SIZES[(n % 8) as usize].store(layout.size() as u64, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let n = ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if MEASURING.load(Ordering::Relaxed) {
            SIZES[(n % 8) as usize].store((new_size as u64) | (1 << 63), Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A pipeline that consumes sweeps without touching the heap.
struct NullPipeline {
    n_rx: usize,
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
        None
    }

    fn reset(&mut self) {
        self.sweeps = 0;
    }
}

/// Waits (without allocating) until the pipelines have consumed
/// `sweeps` sweeps, or a deadline passes; the final assertions catch a
/// frame that never arrived.
fn wait_for_sweeps(sweeps: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while SWEEPS_IN.load(Ordering::SeqCst) < sweeps && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(50));
    }
}

#[test]
fn steady_state_ingest_makes_zero_allocations_per_frame() {
    const SAMPLES: u32 = 2500;
    const N_RX: u16 = 3;
    const SWEEPS: u16 = 5;
    const WARMUP: u64 = 50;
    const MEASURED: u64 = 200;

    // queue_capacity 1 makes the connection reader block on a busy shard
    // from the first frames, so the channel's lazily-allocated
    // sender-side waker structures come into existence during warmup,
    // not measurement.
    let server = Server::builder(Arc::new(|h: &Hello| {
        Ok(Box::new(NullPipeline {
            n_rx: h.n_rx as usize,
            sweeps: 0,
        }) as Box<dyn FramePipeline>)
    }))
    .config(EngineConfig {
        num_shards: 1,
        queue_capacity: 1,
        overload: OverloadPolicy::Block,
    })
    .start();
    let handle = server.engine_handle();
    let inline_runs =
        server
            .registry()
            .counter("shard", "inline_runs", witrack_obs::Label::Shard(0));

    // Pre-encode every frame (paper-shaped quantized batches) before the
    // measurement so the sender writes ready bytes instead of allocating.
    // Each frame is distinct data.
    let count = SWEEPS as usize * N_RX as usize * SAMPLES as usize;
    let frames: Vec<Vec<u8>> = (0..WARMUP + MEASURED)
        .map(|f| {
            let data: Vec<i16> = (0..count)
                .map(|i| ((i as u64 * (f + 3)) % 251) as i16)
                .collect();
            wire::encode(&Message::SweepBatchQ(SweepBatchQ {
                sensor_id: 0,
                seq: f,
                n_sweeps: SWEEPS,
                n_rx: N_RX,
                samples_per_sweep: SAMPLES,
                scale: 1.0 / 128.0,
                data,
            }))
        })
        .collect();

    // The full served wire path: a loopback socket into a connection
    // reader that decodes into the engine's pools and submits each
    // message exactly as a served connection does.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (accepted, _) = listener.accept().unwrap();
    let reader = server.attach(TcpTransport::new(accepted)).unwrap();
    let hello = Hello {
        sensor_id: 0,
        kind: PipelineKind::SingleTarget,
        n_rx: N_RX as u8,
        samples_per_sweep: SAMPLES,
        sweeps_per_frame: SWEEPS as u32,
        quantized: true,
    };
    client
        .write_all(&wire::encode(&Message::Hello(hello)))
        .unwrap();
    let pool = handle.ingest_pools().clone();
    // Prime the pool to its worst-case concurrency (one buffer in decode,
    // queue-depth in flight, one in the pipeline, plus slack): warmup
    // traffic alone only populates the *typical* depth, and a mid-run
    // scheduling blip past it would read as a (one-off, cold) miss.
    let prime: Vec<_> = (0..8).map(|_| pool.i16s.get(count)).collect();
    drop(prime);

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
    let mut measured_start = 0u64;
    let mut inline_before = 0u64;
    for (f, frame) in frames.iter().enumerate() {
        let f = f as u64;
        if f == WARMUP {
            inline_before = inline_runs.get();
            measured_start = ALLOCATIONS.load(Ordering::SeqCst);
            MEASURING.store(true, Ordering::SeqCst);
        }
        if lockstep(f) {
            wait_for_sweeps(f * SWEEPS as u64);
        }
        client.write_all(frame).unwrap();
    }
    wait_for_sweeps((WARMUP + MEASURED) * SWEEPS as u64);
    // Every measured message has fully traversed the path by here — but
    // closing the connection and shutting down may free/allocate, so
    // read the counter first, then close.
    let measured_end = ALLOCATIONS.load(Ordering::SeqCst);
    MEASURING.store(false, Ordering::SeqCst);
    let inline_measured = inline_runs.get() - inline_before;
    drop(client);
    reader.join().unwrap();
    let m = server.shutdown();

    assert_eq!(
        m.sweeps_processed,
        (WARMUP + MEASURED) * SWEEPS as u64,
        "every sweep must have reached the pipeline"
    );
    assert!(
        inline_measured > 0,
        "no measured frame ran on the connection reader"
    );
    let allocs = measured_end - measured_start;
    let sizes: Vec<u64> = SIZES.iter().map(|s| s.load(Ordering::Relaxed)).collect();
    assert_eq!(
        allocs, 0,
        "steady-state ingest made {allocs} allocations over {MEASURED} frames \
         ({inline_measured} run by the reader, the rest queued; expected \
         zero: pooled decode + recycled dispatch); sizes {sizes:?}"
    );
    let pool_stats = pool.i16s.stats();
    assert!(
        pool_stats.misses <= WARMUP,
        "sample pool kept allocating after warmup: {pool_stats:?}"
    );
}
