//! Counting-allocator pin on the multi-target pipeline's heap traffic:
//! paper-shaped i16 frames (2500 samples × 5 sweeps × 3 rx) of two
//! walkers through [`FramePipeline::process_sweeps_flat_q`] on
//! [`MultiWiTrack`], the call a serving shard makes.
//!
//! The profile → background → contour front end reuses its buffers, so
//! a frame's allocations come from the back end: association, initiation
//! and the track snapshots. The pin
//! is the count the tracker made before its front end was shared with
//! the single-target pipeline; a change that adds per-frame heap traffic
//! fails it. Accumulate-only sweeps allocate nothing.
//!
//! This file is its own test binary on purpose: a global counting
//! allocator sees every thread in the process, so the measurement must
//! not share a process with concurrently-running tests.

mod counting_alloc;

use counting_alloc::{allocations, quantized_sweeps};
use witrack_core::{FramePipeline, WiTrackConfig};
use witrack_geom::Vec3;
use witrack_mtt::{MttConfig, MultiWiTrack};

/// Allocations over the measured frames, as counted before the front end
/// was shared.
const ALLOCATIONS_OVER_MEASURED: u64 = 729;

#[test]
fn multi_target_frame_allocations_are_pinned() {
    const WARMUP: usize = 60;
    const MEASURED: usize = 40;

    let cfg = WiTrackConfig::witrack_default();
    let n = cfg.sweep.samples_per_sweep();
    let mut wt = MultiWiTrack::new(MttConfig::with_base(cfg)).unwrap();
    let array = wt.array().clone();
    // Two walkers at 1 m/s, one nearing and one leaving the array, one
    // position each per 12.5-ms frame, prepared before anything is
    // counted.
    let frames: Vec<(Vec<i16>, f64)> = (0..WARMUP + MEASURED)
        .map(|f| {
            let s = f as f64 * 0.0125;
            let a = Vec3::new(-1.0, 3.0 + 1.0 * s, 1.0);
            let b = Vec3::new(1.2, 6.5 - 1.0 * s, 1.1);
            quantized_sweeps(&cfg, &array, &[a, b])
        })
        .collect();

    let pipeline: &mut dyn FramePipeline = &mut wt;
    let mut frame_allocs = 0;
    let mut accumulate_allocs = 0;
    let mut reports = 0;
    let mut targets = 0;
    for (f, (flat, scale)) in frames.iter().enumerate() {
        for _ in 0..cfg.sweep.sweeps_per_frame {
            let before = allocations();
            let report = pipeline.process_sweeps_flat_q(flat, n, *scale);
            let made = allocations() - before;
            if f < WARMUP {
                continue;
            }
            match report {
                Some(report) => {
                    frame_allocs += made;
                    reports += 1;
                    targets += report.targets.len();
                }
                None => accumulate_allocs += made,
            }
        }
    }

    assert_eq!(reports, MEASURED, "one report per frame");
    assert!(
        targets >= 2 * MEASURED * 3 / 4,
        "only {targets} targets over {MEASURED} frames, so the count would \
         barely cover association"
    );
    assert_eq!(accumulate_allocs, 0, "accumulate-only sweeps allocated");
    assert!(
        frame_allocs <= ALLOCATIONS_OVER_MEASURED,
        "{frame_allocs} allocations over {MEASURED} frames, expected at most \
         {ALLOCATIONS_OVER_MEASURED}"
    );
}
