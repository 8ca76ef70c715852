//! Counting-allocator proof that the steady-state ingest path — wire
//! frame off the transport, pooled decode (quantized batches staying
//! i16 end to end), shard dispatch, pipeline entry, buffer recycle —
//! performs **zero** heap allocations per message after warmup.
//!
//! This file is its own test binary on purpose: a global counting
//! allocator sees every thread in the process, so the measurement must
//! not share a process with concurrently-running tests. The pipeline
//! behind the trait is a no-op stub — the WiTrack pipelines' internal
//! per-frame report assembly is their own concern; this measures the
//! serving layer's data plane.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use witrack_core::{FramePipeline, FrameReport};
use witrack_serve::engine::{EngineConfig, OverloadPolicy, ShardedEngine};
use witrack_serve::transport::{in_proc_pair, RxMsg, Transport, TransportRx, TransportTx};
use witrack_serve::wire::{self, Hello, Message, PipelineKind, SweepBatchQ};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

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
        // Stall the first few (warmup) batches so the producer blocks on
        // the 1-deep shard queue: the channel's sender-side waker
        // structures are allocated lazily on first block, and that must
        // happen inside warmup, not mid-measurement.
        if self.sweeps <= 15 {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        None
    }

    fn reset(&mut self) {
        self.sweeps = 0;
    }
}

#[test]
fn steady_state_ingest_makes_zero_allocations_per_frame() {
    const SAMPLES: u32 = 2500;
    const N_RX: u16 = 3;
    const SWEEPS: u16 = 5;
    const WARMUP: u64 = 50;
    const MEASURED: u64 = 200;

    // queue_capacity 1 makes the producer block on a busy shard from the
    // first frames, so the channel's lazily-allocated sender-side waker
    // structures come into existence during warmup, not measurement.
    let (engine, _events) = ShardedEngine::start(
        EngineConfig {
            num_shards: 1,
            queue_capacity: 1,
            overload: OverloadPolicy::Block,
        },
        Arc::new(|h: &Hello| {
            Ok(Box::new(NullPipeline {
                n_rx: h.n_rx as usize,
                sweeps: 0,
            }) as Box<dyn FramePipeline>)
        }),
    );
    let handle = engine.handle();
    handle
        .submit(Message::Hello(Hello {
            sensor_id: 0,
            kind: PipelineKind::SingleTarget,
            n_rx: N_RX as u8,
            samples_per_sweep: SAMPLES,
            sweeps_per_frame: SWEEPS as u32,
            quantized: true,
        }))
        .unwrap();

    // Pre-encode every frame (paper-shaped quantized batches) before the
    // measurement so the producer side moves owned buffers instead of
    // allocating. Each frame is distinct data; seq is patched per send.
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

    // The full wire path, socket-free: client tx → bounded frame queue →
    // pooled decode → shard dispatch. One thread alternates send/recv so
    // the bounded queues never deadlock.
    let (client_end, server_end) = in_proc_pair(4);
    let (mut client_tx, _client_rx) = client_end.split().unwrap();
    let (_server_tx, mut server_rx) = server_end.split().unwrap();
    let pool = handle.ingest_pools().clone();
    // Prime the pool to its worst-case concurrency (one buffer in decode,
    // queue-depth in flight, one in the pipeline, plus slack): warmup
    // traffic alone only populates the *typical* depth, and a mid-run
    // scheduling blip past it would read as a (one-off, cold) miss.
    let prime: Vec<_> = (0..8).map(|_| pool.i16s.get(count)).collect();
    drop(prime);

    let mut measured_start = 0u64;
    for (f, frame) in frames.into_iter().enumerate() {
        if f as u64 == WARMUP {
            measured_start = ALLOCATIONS.load(Ordering::SeqCst);
            MEASURING.store(true, Ordering::SeqCst);
        }
        client_tx.send_frame(frame).unwrap();
        let msg = server_rx.recv_msg_pooled(&pool).unwrap().expect("frame");
        match msg {
            RxMsg::Batch(b) => handle.submit_batch_pooled(b, None).map(|_| ()).unwrap(),
            RxMsg::Control(_) => panic!("only sweep batches were sent"),
        }
    }
    // The shard drains its queue before shutdown returns, so every
    // measured message has fully traversed the path by here — but
    // shutdown itself may free/allocate, so read the counter first,
    // then drain.
    let measured_end = ALLOCATIONS.load(Ordering::SeqCst);
    MEASURING.store(false, Ordering::SeqCst);
    let m = engine.shutdown();

    assert_eq!(
        m.sweeps_processed,
        (WARMUP + MEASURED) * SWEEPS as u64,
        "every sweep must have reached the pipeline"
    );
    let allocs = measured_end - measured_start;
    let sizes: Vec<u64> = SIZES.iter().map(|s| s.load(Ordering::Relaxed)).collect();
    assert_eq!(
        allocs, 0,
        "steady-state ingest made {allocs} allocations over {MEASURED} frames \
         (expected zero: pooled decode + recycled dispatch); sizes {sizes:?}"
    );
    let pool_stats = pool.i16s.stats();
    assert!(
        pool_stats.misses <= WARMUP,
        "sample pool kept allocating after warmup: {pool_stats:?}"
    );
}
