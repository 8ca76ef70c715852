//! Counting-allocator pin on the single-target pipeline's per-frame heap
//! traffic: paper-shaped i16 frames (2500 samples × 5 sweeps × 3 rx) of a
//! walking target through [`FramePipeline::process_sweeps_flat_q`], the
//! call a serving shard makes.
//!
//! After warm-up, one frame makes exactly these allocations:
//!
//! - `TrackUpdate::frames`, the per-antenna `TofFrame`s (1);
//! - each `TofFrame::magnitudes`, the background-subtracted spectrum
//!   handed to the §6 applications (3, one per antenna);
//! - `TrackUpdate::round_trips` (1);
//! - the round-trip vector inside [`WiTrack::solve`] (1);
//! - `FrameReport::targets`, holding the solved position (1).
//!
//! A held frame (§4.4 interpolation) skips the solve and reports the
//! median of recent solves, computed on the stack, so it makes one fewer.
//! Accumulate-only sweeps allocate nothing. Running the antenna stages on
//! other threads would add at least a thread handle and a result packet
//! per spawned antenna, so a per-frame fan-out fails this test.
//!
//! This file is its own test binary on purpose: a global counting
//! allocator sees every thread in the process, so the measurement must
//! not share a process with concurrently-running tests.

mod counting_alloc;

use counting_alloc::{allocations, quantized_sweeps};
use witrack_core::{FramePipeline, WiTrack, WiTrackConfig};
use witrack_geom::Vec3;

/// The allocations listed in the module docs.
const ALLOCATIONS_PER_FRAME: u64 = 7;

#[test]
fn single_target_frame_allocations_are_pinned() {
    const WARMUP: usize = 40;
    const MEASURED: usize = 40;

    let cfg = WiTrackConfig::witrack_default();
    let n = cfg.sweep.samples_per_sweep();
    let mut wt = WiTrack::new(cfg).unwrap();
    let array = wt.array().clone();
    // Walk away from the array at 1 m/s, one position per 12.5-ms frame,
    // prepared before anything is counted.
    let frames: Vec<(Vec<i16>, f64)> = (0..WARMUP + MEASURED)
        .map(|f| {
            let s = f as f64 * 0.0125;
            quantized_sweeps(&cfg, &array, &[Vec3::new(0.3, 3.0 + 1.0 * s, 1.0)])
        })
        .collect();

    let pipeline: &mut dyn FramePipeline = &mut wt;
    let mut measured_start = 0;
    let mut reports = 0;
    let mut targets = 0;
    let mut fresh = 0;
    for (f, (flat, scale)) in frames.iter().enumerate() {
        if f == WARMUP {
            measured_start = allocations();
        }
        for _ in 0..cfg.sweep.sweeps_per_frame {
            if let Some(report) = pipeline.process_sweeps_flat_q(flat, n, *scale) {
                if f >= WARMUP {
                    reports += 1;
                    targets += report.targets.len();
                    fresh += report.targets.iter().filter(|t| !t.held).count();
                }
            }
        }
    }
    let allocs = allocations() - measured_start;

    assert_eq!(reports, MEASURED, "one report per frame");
    assert_eq!(targets, MEASURED, "every measured frame reports the walker");
    assert!(
        fresh >= MEASURED * 3 / 4,
        "only {fresh} of {MEASURED} frames solved a fresh position, so the \
         count would barely cover the solve path"
    );
    assert!(
        allocs <= ALLOCATIONS_PER_FRAME * MEASURED as u64,
        "{allocs} allocations over {MEASURED} frames, expected at most \
         {ALLOCATIONS_PER_FRAME} per frame"
    );
}
