//! Recycled buffers for the ingest and outbox hot paths.
//!
//! Every wire sweep batch used to become a freshly allocated sample
//! vector (75 KB of i16 steps per 5-sweep batch at the paper
//! configuration) that died one shard later; every update batch
//! allocated its encode buffer the same way. A [`BufPool`]
//! breaks that churn: [`BufPool::get`] hands out a [`PooledBuf`] guard
//! wrapping a recycled `Vec<T>`, and dropping the guard — anywhere,
//! including mid-panic unwind — returns the vector (capacity intact) to
//! the pool. After a warmup of one buffer per queue slot, the steady
//! state allocates nothing: socket → decode → shard queue → pipeline →
//! encode → outbox runs entirely on recycled memory.
//!
//! The pool is `Clone` (a shared handle), thread-safe, and **bounded**:
//! at most `max_pooled` free vectors are retained, so a burst never turns
//! into permanently hoarded memory. [`BufPool::stats`] exposes the
//! get/miss/return counters the pool-invariant tests (and capacity
//! monitoring) read.

use crate::wire::SweepShape;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A decoded sweep batch on its way to a shard: the wire header plus the
/// i16 steps in a pooled buffer. The samples ride the whole socket →
/// queue → pipeline path quantized and feed the fixed-point profile front
/// half (`FramePipeline::process_sweeps_flat_q`) without a dequantization
/// pass. Dropping the batch anywhere along that path returns the buffer
/// to its pool.
#[derive(Debug)]
pub struct PooledBatch {
    /// Identity and shape from the wire header.
    pub shape: SweepShape,
    /// The samples, sweep-major (see [`crate::wire::SweepBatch`]):
    /// `sample = q · scale`.
    pub samples: PooledBuf<i16>,
    /// Dequantization scale: one step in physical units.
    pub scale: f64,
}

impl PooledBatch {
    /// Wraps an owned [`crate::wire::SweepBatchQ`] in the pooled shape
    /// (detached buffer: it frees instead of recycling), for
    /// direct-engine callers holding owned batches.
    pub fn from_owned_q(batch: crate::wire::SweepBatchQ) -> PooledBatch {
        PooledBatch {
            shape: batch.shape(),
            samples: PooledBuf::detached(batch.data),
            scale: batch.scale,
        }
    }
}

/// The ingest-side pool readers decode sweep samples into, reached as
/// `EngineHandle::ingest_pools().i16s`.
#[derive(Clone, Debug)]
pub struct SamplePools {
    /// Recycles quantized (i16) sample buffers.
    pub i16s: BufPool<i16>,
}

impl SamplePools {
    /// Creates the pool, retaining at most `max_pooled` free buffers.
    pub fn new(max_pooled: usize) -> SamplePools {
        SamplePools {
            i16s: BufPool::new(max_pooled),
        }
    }
}

struct PoolShared<T> {
    free: Mutex<Vec<Vec<T>>>,
    max_pooled: usize,
    gets: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
    overflow_discards: AtomicU64,
}

/// A shared, bounded pool of reusable `Vec<T>` buffers.
pub struct BufPool<T> {
    shared: Arc<PoolShared<T>>,
}

impl<T> Clone for BufPool<T> {
    fn clone(&self) -> Self {
        BufPool {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> std::fmt::Debug for BufPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufPool")
            .field("stats", &self.stats())
            .finish()
    }
}

/// A point-in-time copy of a pool's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out.
    pub gets: u64,
    /// Gets that found the free list empty and allocated a fresh vector —
    /// the pool's *population*: at steady state this stops growing.
    pub misses: u64,
    /// Guards dropped back into the pool.
    pub returns: u64,
    /// Returns discarded because the free list was already at
    /// `max_pooled` (burst memory released instead of hoarded).
    pub overflow_discards: u64,
    /// Free vectors currently pooled.
    pub free_now: usize,
}

impl<T> BufPool<T> {
    /// Creates a pool retaining at most `max_pooled` free buffers.
    pub fn new(max_pooled: usize) -> BufPool<T> {
        BufPool {
            shared: Arc::new(PoolShared {
                free: Mutex::new(Vec::new()),
                max_pooled: max_pooled.max(1),
                gets: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                returns: AtomicU64::new(0),
                overflow_discards: AtomicU64::new(0),
            }),
        }
    }

    /// Hands out an empty buffer with at least `capacity` reserved,
    /// recycled when the free list has one, freshly allocated otherwise.
    pub fn get(&self, capacity: usize) -> PooledBuf<T> {
        self.shared.gets.fetch_add(1, Ordering::Relaxed);
        let recycled = self.shared.free.lock().expect("buffer pool poisoned").pop();
        let mut vec = match recycled {
            Some(v) => v,
            None => {
                self.shared.misses.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        };
        // `reserve` is a no-op once the recycled capacity covers the ask,
        // so per-message steady state never reallocates.
        vec.reserve(capacity);
        PooledBuf {
            vec,
            pool: Some(Arc::clone(&self.shared)),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            gets: self.shared.gets.load(Ordering::Relaxed),
            misses: self.shared.misses.load(Ordering::Relaxed),
            returns: self.shared.returns.load(Ordering::Relaxed),
            overflow_discards: self.shared.overflow_discards.load(Ordering::Relaxed),
            free_now: self.shared.free.lock().expect("buffer pool poisoned").len(),
        }
    }
}

impl<T> PoolShared<T> {
    fn put_back(&self, mut vec: Vec<T>) {
        self.returns.fetch_add(1, Ordering::Relaxed);
        vec.clear();
        let mut free = self.free.lock().expect("buffer pool poisoned");
        if free.len() < self.max_pooled {
            free.push(vec);
        } else {
            self.overflow_discards.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// An owned `Vec<T>` that returns to its [`BufPool`] on drop (including
/// drops during panic unwinding). Detached guards — made with
/// [`PooledBuf::detached`] or left behind by [`PooledBuf::into_vec`] —
/// behave like plain vectors.
pub struct PooledBuf<T> {
    vec: Vec<T>,
    pool: Option<Arc<PoolShared<T>>>,
}

impl<T> PooledBuf<T> {
    /// Wraps an already-owned vector with no pool behind it: dropping it
    /// just frees. This lets owned-`Vec` compatibility paths flow through
    /// the same pooled plumbing as recycled buffers.
    pub fn detached(vec: Vec<T>) -> PooledBuf<T> {
        PooledBuf { vec, pool: None }
    }

    /// Takes the vector out, detaching it from the pool (the pool sees
    /// neither a return nor a discard; the buffer is simply gone).
    pub fn into_vec(mut self) -> Vec<T> {
        self.pool = None;
        std::mem::take(&mut self.vec)
    }
}

impl<T> Deref for PooledBuf<T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        &self.vec
    }
}

impl<T> DerefMut for PooledBuf<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.vec
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for PooledBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledBuf")
            .field("len", &self.vec.len())
            .field("pooled", &self.pool.is_some())
            .finish()
    }
}

impl<T> Drop for PooledBuf<T> {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.put_back(std::mem::take(&mut self.vec));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_recycle_and_misses_stay_bounded() {
        let pool: BufPool<f64> = BufPool::new(8);
        // 10k sequential messages through a pool: after the first, every
        // get must hit the free list — the population never exceeds the
        // concurrency (here 1).
        for i in 0..10_000u64 {
            let mut buf = pool.get(512);
            buf.extend(std::iter::repeat_n(i as f64, 512));
            assert_eq!(buf.len(), 512);
        }
        let s = pool.stats();
        assert_eq!(s.gets, 10_000);
        assert_eq!(s.misses, 1, "exactly one allocation, then recycling");
        assert_eq!(s.returns, 10_000);
        assert_eq!(s.free_now, 1);
    }

    #[test]
    fn capacity_survives_the_round_trip() {
        let pool: BufPool<u8> = BufPool::new(4);
        let first = pool.get(4096);
        let ptr = first.as_ptr();
        let cap = first.capacity();
        assert!(cap >= 4096);
        drop(first);
        let again = pool.get(4096);
        assert_eq!(again.as_ptr(), ptr, "same backing allocation came back");
        assert_eq!(again.capacity(), cap);
        assert!(again.is_empty(), "recycled buffers come back cleared");
    }

    #[test]
    fn bounded_free_list_sheds_bursts() {
        let pool: BufPool<u8> = BufPool::new(2);
        let burst: Vec<_> = (0..5).map(|_| pool.get(16)).collect();
        drop(burst);
        let s = pool.stats();
        assert_eq!(s.free_now, 2, "free list capped at max_pooled");
        assert_eq!(s.overflow_discards, 3);
    }

    #[test]
    fn drop_during_panic_returns_the_buffer() {
        let pool: BufPool<f64> = BufPool::new(4);
        let pool2 = pool.clone();
        let result = std::thread::spawn(move || {
            let _held = pool2.get(64);
            panic!("worker died mid-message");
        })
        .join();
        assert!(result.is_err(), "the worker must actually have panicked");
        let s = pool.stats();
        assert_eq!(s.returns, 1, "unwind returned the in-flight buffer");
        assert_eq!(s.free_now, 1);
    }

    #[test]
    fn detached_and_into_vec_skip_the_pool() {
        let pool: BufPool<u8> = BufPool::new(4);
        drop(PooledBuf::detached(vec![1, 2, 3]));
        let taken = pool.get(8).into_vec();
        assert!(taken.is_empty());
        let s = pool.stats();
        assert_eq!(s.returns, 0);
        assert_eq!(s.free_now, 0);
    }

    #[test]
    fn pool_is_shared_across_threads() {
        let pool: BufPool<u8> = BufPool::new(64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = pool.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        let mut b = pool.get(128);
                        b.push(1);
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.gets, 4000);
        assert_eq!(s.returns, 4000);
        assert!(s.misses <= 4, "at most one live buffer per thread: {s:?}");
    }
}
