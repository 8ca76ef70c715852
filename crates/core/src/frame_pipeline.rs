//! Backend-agnostic streaming interface over the frame pipelines.
//!
//! [`WiTrack`] and `witrack_mtt::MultiWiTrack` share the
//! same streaming shape — one baseband sweep per receive antenna per sweep
//! interval in, one output per frame out — but emit different update types
//! (one optional position vs N track snapshots). The serving layer
//! (`witrack-serve`) multiplexes many sensors over worker shards and must
//! not care which backend a sensor runs, so this module extracts the shared
//! shape as the [`FramePipeline`] trait and a lowest-common-denominator
//! per-frame [`FrameReport`].
//!
//! The trait deliberately returns owned reports rather than borrowed
//! frames: a shard forwards reports across threads and batches them into
//! wire messages, so the borrow-heavy single-pipeline API
//! ([`WiTrack::push_sweeps`] keeps its richer
//! [`TrackUpdate`]) is not usable there.

use crate::pipeline::{TrackUpdate, WiTrack};
use witrack_fmcw::Sweeps;
use witrack_geom::Vec3;

/// One tracked target inside a [`FrameReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetReport {
    /// Stable track identifier, when the backend tracks identity
    /// (`MultiWiTrack`); `None` for the single-target pipeline.
    pub id: Option<u64>,
    /// Estimated 3D position.
    pub position: Vec3,
    /// Velocity estimate, when the backend smooths one.
    pub velocity: Option<Vec3>,
    /// `true` when this target is interpolated/coasting rather than
    /// freshly measured this frame.
    pub held: bool,
    /// Per-axis position variance (m²) of the estimate, when the backend
    /// carries a state covariance (`MultiWiTrack`'s per-track Kalman).
    /// Cross-sensor fusion (`witrack-fuse`) gates and merges on it;
    /// backends without one report `None` and fusion falls back to a
    /// configured default. Not carried by the `UpdateBatch` wire
    /// message (world-level uncertainty travels in `WorldUpdate` instead).
    pub pos_var: Option<Vec3>,
    /// The last accepted measurement's per-axis innovation (m): how far
    /// the measurement landed from the track's prediction. `None` until a
    /// track's second accepted measurement, and for backends without a
    /// per-track filter.
    pub innovation: Option<Vec3>,
}

/// One frame's backend-agnostic output: everything the serving layer
/// forwards to clients.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameReport {
    /// Frame counter since the stream began.
    pub frame_index: u64,
    /// Time (s) at the end of the frame.
    pub time_s: f64,
    /// All reportable targets this frame (possibly empty).
    pub targets: Vec<TargetReport>,
}

/// A streaming tracker: sweeps in, one [`FrameReport`] per frame out.
///
/// `Send` is a supertrait because implementations are owned by worker
/// shards and moved across threads at session setup.
pub trait FramePipeline: Send {
    /// Number of receive antennas (one sweep slice expected per antenna).
    fn num_rx(&self) -> usize;

    /// Pushes one sweep interval of **wire-quantized** baseband
    /// (`sample = q · scale`), the form `SweepBatchQ` batches arrive in;
    /// returns a report on frame boundaries. `flat` is antenna-contiguous:
    /// antenna `k`'s sweep occupies
    /// `flat[k * samples_per_sweep ..][.. samples_per_sweep]`, the exact
    /// wire layout, so the serving hot path feeds pipelines without
    /// building per-sweep slice tables. The in-tree backends keep the
    /// profile front half in fixed point (i16 windowing, i32
    /// accumulation — see `witrack_fmcw::RangeProfiler::push_sweep_q`).
    /// For f64 input, the backends' inherent `push` is the in-process
    /// reference.
    ///
    /// # Panics
    /// Panics if `flat.len() != samples_per_sweep * num_rx()` or
    /// `samples_per_sweep` is zero.
    fn process_sweeps_flat_q(
        &mut self,
        flat: &[i16],
        samples_per_sweep: usize,
        scale: f64,
    ) -> Option<FrameReport>;

    /// Clears all stream state (frame counter restarts at zero).
    fn reset(&mut self);

    /// Attaches per-stage latency histograms
    /// ([`witrack_obs::StageStats`]): the backend records its
    /// profile/detect/associate stage wall times into them on every
    /// frame-completing push. The default ignores the attachment
    /// (backends without stage instrumentation stay valid); the in-tree
    /// backends override it.
    fn attach_stage_stats(&mut self, stats: witrack_obs::StageStats) {
        let _ = stats;
    }
}

impl From<TrackUpdate> for FrameReport {
    fn from(u: TrackUpdate) -> FrameReport {
        FrameReport {
            frame_index: u.frame_index,
            time_s: u.time_s,
            targets: u
                .position
                .map(|p| TargetReport {
                    id: None,
                    position: p,
                    velocity: None,
                    held: u.held,
                    pos_var: None,
                    innovation: None,
                })
                .into_iter()
                .collect(),
        }
    }
}

impl FramePipeline for WiTrack {
    fn num_rx(&self) -> usize {
        self.array().num_rx()
    }

    fn process_sweeps_flat_q(
        &mut self,
        flat: &[i16],
        samples_per_sweep: usize,
        scale: f64,
    ) -> Option<FrameReport> {
        self.push(Sweeps::FlatQ(flat, samples_per_sweep, scale))
            .map(FrameReport::from)
    }

    fn reset(&mut self) {
        WiTrack::reset(self);
    }

    fn attach_stage_stats(&mut self, stats: witrack_obs::StageStats) {
        WiTrack::attach_stage_stats(self, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WiTrackConfig;
    use witrack_fmcw::SweepConfig;

    fn quick_cfg() -> WiTrackConfig {
        WiTrackConfig {
            sweep: SweepConfig {
                start_freq_hz: 5.56e8,
                bandwidth_hz: 1.69e8,
                sweep_duration_s: 1e-3,
                sample_rate_hz: 100e3,
                sweeps_per_frame: 5,
                transmit_power_w: 1e-3,
            },
            max_round_trip_m: 40.0,
            ..WiTrackConfig::witrack_default()
        }
    }

    #[test]
    fn witrack_reports_through_the_trait() {
        let cfg = quick_cfg();
        let mut wt = WiTrack::new(cfg).unwrap();
        let pipeline: &mut dyn FramePipeline = &mut wt;
        assert_eq!(pipeline.num_rx(), 3);
        let n = cfg.sweep.samples_per_sweep();
        let silent = vec![0i16; 3 * n];
        let mut reports = 0;
        for _ in 0..cfg.sweep.sweeps_per_frame * 3 {
            if let Some(r) = pipeline.process_sweeps_flat_q(&silent, n, 1.0) {
                // Nothing moving: a report with no targets, not no report.
                assert!(r.targets.is_empty());
                reports += 1;
            }
        }
        assert_eq!(reports, 3);
        pipeline.reset();
        let mut first = None;
        for _ in 0..cfg.sweep.sweeps_per_frame {
            first = pipeline.process_sweeps_flat_q(&silent, n, 1.0);
        }
        assert_eq!(first.unwrap().frame_index, 0);
    }

    #[test]
    fn track_update_with_position_becomes_one_target() {
        let u = TrackUpdate {
            frame_index: 7,
            time_s: 0.5,
            round_trips: vec![Some(8.0); 3],
            position: Some(Vec3::new(1.0, 4.0, 1.2)),
            held: true,
            frames: Vec::new(),
        };
        let r = FrameReport::from(u);
        assert_eq!(r.frame_index, 7);
        assert_eq!(r.targets.len(), 1);
        assert_eq!(r.targets[0].id, None);
        assert!(r.targets[0].held);
    }
}
