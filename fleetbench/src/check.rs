//! Correctness checks on a served run. Each returns the list of
//! violations it found; the run is correct only when all lists are empty.

use crate::plan::{Plan, SensorPlan, PERIOD_NS};
use crate::served::{Delivery, Inbox};
use witrack_core::FrameReport;
use witrack_serve::factory::{hello_quantized_for, witrack_factory};
use witrack_serve::wire::{self, DecodedMsgQ};

/// `t_chaos`'s clean-phase bound on the hallway's median fused error.
pub const WORLD_ERR_BOUND_M: f64 = 0.6;
/// The generator may fall this far behind its schedule (p99) before the
/// offered load stops being the load the run claims: one frame period.
pub const SEND_LAG_LIMIT_MS: f64 = 12.5;

/// Whether a served frame report is bit-for-bit the replayed one.
pub fn reports_match(served: &Delivery, replayed: &FrameReport) -> bool {
    served.time_s.to_bits() == replayed.time_s.to_bits()
        && served.targets.len() == replayed.targets.len()
        && served
            .targets
            .iter()
            .zip(&replayed.targets)
            .all(|((id, p), t)| {
                *id == t.id
                    && p.x.to_bits() == t.position.x.to_bits()
                    && p.y.to_bits() == t.position.y.to_bits()
                    && p.z.to_bits() == t.position.z.to_bits()
            })
}

/// Replays every frame sensor `s` was sent, in order, through a pipeline
/// built by the server's own factory, feeding each sweep interval the way
/// a shard does, and compares every delivered report with the replay.
pub fn replay_matches(plan: &Plan, s: &SensorPlan, sent: u64, inbox: &Inbox) -> Vec<String> {
    let factory = witrack_factory(plan.base);
    let mut pipeline = factory(&hello_quantized_for(&plan.base, s.id, plan.kind))
        .expect("the served configuration builds");
    let samples = plan.base.sweep.samples_per_sweep();
    let (mut buf_f, mut buf_q) = (Vec::new(), Vec::new());
    let mut problems = Vec::new();
    for k in 0..sent {
        let (shape, scale) = match wire::decode_into_q(plan.frame(s, k), &mut buf_f, &mut buf_q) {
            Ok((DecodedMsgQ::SweepsQ(shape, scale), _)) => (shape, scale),
            other => panic!("tapes hold quantized sweep batches, got {other:?}"),
        };
        let interval = shape.samples_per_interval();
        let mut report = None;
        for sweep in buf_q.chunks_exact(interval) {
            report = report.or(pipeline.process_sweeps_flat_q(sweep, samples, scale));
        }
        let Some(report) = report else {
            problems.push(format!(
                "sensor {} frame {k}: replay emitted no report",
                s.id
            ));
            continue;
        };
        if let Some(served) = inbox.update(s.id, k) {
            if !reports_match(served, &report) {
                problems.push(format!(
                    "sensor {} frame {k}: served {:?} != replayed {:?}",
                    s.id, served.targets, report.targets
                ));
            }
        }
    }
    problems
}

/// Every offered frame is delivered exactly once or counted failed, no
/// report arrives for a frame never offered, every report carries the
/// frame time of its index, and the server refused nothing.
pub fn accounting(sent: &[u64], inbox: &Inbox) -> Vec<String> {
    let mut problems = Vec::new();
    let period_s = PERIOD_NS as f64 / 1e9;
    for (s, &n) in sent.iter().enumerate() {
        for k in 0..inbox.frames_per_sensor as u64 {
            let Some(d) = inbox.update(s as u32, k) else {
                continue;
            };
            if k >= n {
                problems.push(format!("sensor {s} frame {k}: delivered but never offered"));
            }
            let epoch = (d.time_s / period_s).round() as u64;
            if epoch != k + 1 {
                problems.push(format!("sensor {s} frame {k}: report time {} s", d.time_s));
            }
        }
    }
    for (what, n) in [
        ("duplicate deliveries", inbox.duplicates),
        ("deliveries outside any offered slot", inbox.unexpected),
        ("rejects", inbox.rejects),
    ] {
        if n > 0 {
            problems.push(format!("{n} {what}"));
        }
    }
    problems
}

/// Fused tracks are finite and the median fused error stays within the
/// clean hallway bound.
pub fn world(tracks_finite: bool, world_err_p50_m: f64) -> Vec<String> {
    let mut problems = Vec::new();
    if !tracks_finite {
        problems.push("a fused world track is not finite".to_string());
    }
    if world_err_p50_m.is_nan() || world_err_p50_m > WORLD_ERR_BOUND_M {
        problems.push(format!(
            "median fused error {world_err_p50_m:.3} m exceeds {WORLD_ERR_BOUND_M} m"
        ));
    }
    problems
}

/// The generator kept to its schedule.
pub fn generator(send_lag_p99_ms: f64) -> Vec<String> {
    if send_lag_p99_ms <= SEND_LAG_LIMIT_MS {
        Vec::new()
    } else {
        vec![format!(
            "generator ran {send_lag_p99_ms:.2} ms late at p99 (limit {SEND_LAG_LIMIT_MS} ms): \
             the offered load was not the scheduled one"
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use witrack_core::TargetReport;
    use witrack_geom::Vec3;

    fn report(p: Vec3) -> FrameReport {
        FrameReport {
            frame_index: 3,
            time_s: 0.05,
            targets: vec![TargetReport {
                id: None,
                position: p,
                velocity: None,
                held: false,
                pos_var: None,
                innovation: None,
            }],
        }
    }

    fn delivery(r: &FrameReport) -> Delivery {
        Delivery {
            recv_ns: 1,
            time_s: r.time_s,
            targets: r.targets.iter().map(|t| (t.id, t.position)).collect(),
        }
    }

    fn inbox_with(frames: &[(u32, u64)]) -> Inbox {
        let mut inbox = Inbox {
            frames_per_sensor: 8,
            updates: vec![None; 2 * 8],
            ..Inbox::default()
        };
        for &(s, k) in frames {
            inbox.updates[s as usize * 8 + k as usize] = Some(Delivery {
                recv_ns: 1,
                time_s: (k + 1) as f64 * PERIOD_NS as f64 / 1e9,
                targets: Vec::new(),
            });
        }
        inbox
    }

    #[test]
    fn identical_reports_match() {
        let r = report(Vec3::new(0.5, 4.0, 1.1));
        assert!(reports_match(&delivery(&r), &r));
    }

    #[test]
    fn perturbed_reports_are_rejected() {
        let r = report(Vec3::new(0.5, 4.0, 1.1));
        let mut moved = delivery(&r);
        moved.targets[0].1.y = f64::from_bits(moved.targets[0].1.y.to_bits() + 1);
        assert!(!reports_match(&moved, &r), "a one-ulp shift must be caught");
        let mut lost = delivery(&r);
        lost.targets.clear();
        assert!(!reports_match(&lost, &r), "a dropped target must be caught");
        let mut relabeled = delivery(&r);
        relabeled.targets[0].0 = Some(7);
        assert!(
            !reports_match(&relabeled, &r),
            "a changed track id must be caught"
        );
        let mut late = delivery(&r);
        late.time_s += 0.0125;
        assert!(
            !reports_match(&late, &r),
            "a shifted frame time must be caught"
        );
    }

    #[test]
    fn clean_accounting_passes() {
        let inbox = inbox_with(&[(0, 0), (0, 1), (1, 0)]);
        assert!(accounting(&[2, 2], &inbox).is_empty());
    }

    #[test]
    fn perturbed_accounting_is_rejected() {
        // A report for a frame that was never offered.
        let inbox = inbox_with(&[(0, 0), (0, 5)]);
        assert!(!accounting(&[2, 2], &inbox).is_empty());
        // A duplicate delivery.
        let mut inbox = inbox_with(&[(0, 0)]);
        inbox.duplicates = 1;
        assert!(!accounting(&[1, 0], &inbox).is_empty());
        // A report whose time does not belong to its frame index.
        let mut inbox = inbox_with(&[(1, 2)]);
        if let Some(d) = inbox.updates[8 + 2].as_mut() {
            d.time_s += 0.0125;
        }
        assert!(!accounting(&[0, 3], &inbox).is_empty());
    }

    #[test]
    fn world_and_generator_bounds_reject_perturbed_results() {
        assert!(world(true, 0.2).is_empty());
        assert!(!world(true, 0.61).is_empty());
        assert!(!world(true, f64::NAN).is_empty());
        assert!(!world(false, 0.2).is_empty());
        assert!(generator(1.0).is_empty());
        assert!(!generator(13.0).is_empty());
    }
}
