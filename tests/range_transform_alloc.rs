//! Counting-allocator pin on the range transform: once a thread has run
//! a transform, further transforms of either input form never allocate.
//! The working memory is the thread's own buffer and the output buffer
//! is the caller's.
//!
//! This file is its own test binary on purpose: a global counting
//! allocator sees every thread in the process, so the measurement must
//! not share a process with concurrently-running tests.

// Only the counter is used here, not the shared sweep generator.
#[allow(dead_code)]
mod counting_alloc;

use counting_alloc::allocations;
use proptest::prelude::*;
use witrack_repro::dsp::{Complex, RangeTransform};

proptest! {
    #[test]
    fn range_transform_never_allocates(n in 2usize..80, seed in 0u64..500) {
        let keep = 1 + (seed as usize) % n;
        let transform = RangeTransform::new(n, keep);
        let signals: Vec<Vec<f64>> = (0..6u64)
            .map(|round| {
                (0..n)
                    .map(|i| (((i as u64 + 1) * (seed + round + 3)) as f64 * 0.021).cos())
                    .collect()
            })
            .collect();
        let frame_q: Vec<i32> = (0..n).map(|i| (i as i32 * 977) % 4001 - 2000).collect();
        let mut out = vec![Complex::ZERO; keep];
        let (op, oc) = (out.as_ptr(), out.capacity());
        transform.transform_into(&signals[0], &mut out);
        let before = allocations();
        for signal in &signals {
            transform.transform_into(signal, &mut out);
            transform.transform_q_into(&frame_q, 1.0 / 4096.0, &mut out);
        }
        prop_assert_eq!(allocations(), before, "a transform allocated");
        prop_assert_eq!(out.as_ptr(), op, "output buffer reallocated");
        prop_assert_eq!(out.capacity(), oc);
        prop_assert_eq!(out.len(), keep);
    }
}
