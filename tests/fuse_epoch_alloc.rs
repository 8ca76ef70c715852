//! Counting-allocator pin on a fusion epoch's heap traffic: two sensors
//! facing each other across a 10 m room, two walkers both of them see,
//! every report through [`FusionEngine::push_report`] — the call a
//! serving shard makes for each frame report of a fused sensor.
//!
//! Closing an epoch (association, initiation, lifecycle, the fall rule,
//! zones and the snapshot) works in engine-owned scratch, so the only
//! allocations left are what the caller gets back: the returned frame
//! list and each frame's track and event lists. A change that adds
//! per-epoch heap traffic fails the pin.
//!
//! This file is its own test binary on purpose: a global counting
//! allocator sees every thread in the process, so the measurement must
//! not share a process with concurrently-running tests.

// Only the allocation counter is used here, not the shared sweep generator.
#[allow(dead_code)]
mod counting_alloc;

use counting_alloc::allocations;
use std::f64::consts::PI;
use witrack_core::{FrameReport, TargetReport};
use witrack_fuse::{FuseConfig, FusionEngine, Registration, Zone};
use witrack_geom::{RigidTransform, Vec3};

/// Past the fall rule's warmup and its 6-s window filling up, so the
/// detector windows have stopped growing.
const WARMUP: u64 = 560;
const MEASURED: u64 = 400;
const PERIOD: f64 = 0.0125;

fn target(id: u64, position: Vec3, std: f64) -> TargetReport {
    TargetReport {
        id: Some(id),
        position,
        velocity: None,
        held: false,
        pos_var: Some(Vec3::new(std * std, std * std, std * std)),
        innovation: None,
    }
}

#[test]
fn closed_epoch_allocations_are_pinned() {
    let world_from_s1 = RigidTransform::from_yaw(PI, Vec3::new(0.0, 10.0, 0.0));
    let s1_from_world = world_from_s1.inverse();
    let registration = Registration::new()
        .with_sensor(0, RigidTransform::IDENTITY)
        .with_sensor(1, world_from_s1);
    // One zone around walker A's lane keeps the zone and occupancy pass
    // in the measured work.
    let cfg = FuseConfig {
        frame_period_s: PERIOD,
        zones: vec![Zone {
            id: 7,
            name: "west lane".into(),
            x: (-3.0, 0.0),
            y: (0.0, 10.0),
        }],
        ..FuseConfig::default()
    };
    let mut engine = FusionEngine::new(cfg, registration);

    // Two walkers on parallel lanes, bobbing a little in z the way a
    // tracked elevation does, one report per sensor per epoch, prepared
    // before anything is counted.
    let a = |e: u64| {
        Vec3::new(
            -1.5,
            3.0 + 0.005 * e as f64,
            1.0 + 0.03 * (0.4 * e as f64).sin(),
        )
    };
    let b = |e: u64| {
        Vec3::new(
            1.5,
            7.0 - 0.005 * e as f64,
            1.0 + 0.03 * (0.3 * e as f64).cos(),
        )
    };
    let reports: Vec<(FrameReport, FrameReport)> = (1..=WARMUP + MEASURED)
        .map(|e| {
            let report = |targets| FrameReport {
                frame_index: e,
                time_s: e as f64 * PERIOD,
                targets,
            };
            (
                report(vec![target(1, a(e), 0.15), target(2, b(e), 0.15)]),
                report(vec![
                    target(8, s1_from_world.apply(a(e)), 0.2),
                    target(9, s1_from_world.apply(b(e)), 0.2),
                ]),
            )
        })
        .collect();

    let mut made = 0;
    let mut returned = 0;
    let mut closed = 0;
    let mut two_track_epochs = 0;
    for (i, (r0, r1)) in reports.iter().enumerate() {
        let before = allocations();
        let first = engine.push_report(0, r0);
        let second = engine.push_report(1, r1);
        let after = allocations();
        if (i as u64) < WARMUP {
            continue;
        }
        made += after - before;
        returned += [&first, &second]
            .iter()
            .filter(|list| list.capacity() > 0)
            .count() as u64;
        for frame in first.iter().chain(&second) {
            // Up to four tracks or events fit the first allocation.
            assert!(frame.tracks.len() <= 4 && frame.events.len() <= 4);
            returned += u64::from(frame.tracks.capacity() > 0);
            returned += u64::from(frame.events.capacity() > 0);
            closed += 1;
            two_track_epochs += u64::from(frame.tracks.len() == 2);
        }
    }

    assert_eq!(closed, MEASURED, "one closed epoch per pair of reports");
    assert_eq!(
        two_track_epochs, MEASURED,
        "both walkers must stay visible, or the count would skip the per-track work"
    );
    assert!(
        made <= returned,
        "{made} allocations over {MEASURED} closed epochs, but the returned frames \
         account for only {returned}"
    );
}
