//! The multi-target pipeline: sweeps in, N concurrent tracks out.
//!
//! [`MultiWiTrack`] mirrors [`witrack_core::WiTrack`]'s streaming interface
//! (one baseband sweep per receive antenna per sweep interval, one output
//! per frame) but lifts the §10 single-person assumption:
//!
//! 1. **Top-K contours** — the shared §4 [`witrack_fmcw::FrontEnd`]
//!    profiles and background-subtracts each antenna, and each antenna's
//!    frame yields up to `max_targets` contour detections
//!    ([`witrack_fmcw::ContourTracker::detect_top_k`]) instead of one.
//!    This per-antenna stage runs serially on the calling thread, and its
//!    buffers — the front end's, the detections, the association cost
//!    matrix and the solver scratch — are reused across frames: the
//!    profile→background path performs no steady-state heap allocation
//!    (the track bookkeeping still makes small per-frame allocations).
//! 2. **Gated per-antenna association** — live tracks predict their
//!    per-antenna round trips; a Hungarian assignment
//!    ([`crate::assignment`]) matches detections to tracks within
//!    `gate_round_trip_m`.
//! 3. **Per-track 3D solve + Kalman** — a track whose every antenna found a
//!    detection gets a least-squares 3D fix, smoothed by the per-axis
//!    constant-velocity filters in [`crate::track`].
//! 4. **Rank-consistent initiation** — detections no track claimed are
//!    matched across antennas by round-trip rank (the direct echo is the
//!    *shortest* path, so the k-th nearest contour on each antenna belongs
//!    to the k-th nearest person except during radial crossings — exactly
//!    when tracks already exist and initiation is not needed). Candidate
//!    tuples must solve inside the position gate, away from live tracks.
//! 5. **Lifecycle** — tentative → confirmed → coasting → dead, so one-frame
//!    noise peaks never become reported targets and brief occlusions (or a
//!    radial crossing, where two bodies share one contour) don't kill a
//!    track.
//!
//! Remaining §10 limitations this subsystem inherits: a person who stops
//! moving vanishes from the background-subtracted stream (their track
//! coasts, then drops), and targets closer than about a range bin in round
//! trip on every antenna are one detection until they separate.

use crate::assignment::{AssignmentSolver, CostMatrix};
use crate::config::MttConfig;
use crate::track::{MttTrack, TrackId, TrackPhase};
use witrack_core::frame_pipeline::{FramePipeline, FrameReport, TargetReport};
use witrack_core::pipeline::BuildError;
use witrack_fmcw::contour::Detection;
use witrack_fmcw::{FrontEnd, Sweeps};
use witrack_geom::multilateration::{solve_least_squares, GaussNewtonConfig};
use witrack_geom::{AntennaArray, TArray, Vec3};

/// Snapshot of one track at a frame boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackSnapshot {
    /// Stable track identifier.
    pub id: TrackId,
    /// Lifecycle phase (never `Dead`; dead tracks are dropped, not
    /// reported).
    pub phase: TrackPhase,
    /// Smoothed (confirmed) or predicted (coasting) 3D position.
    pub position: Vec3,
    /// Velocity estimate (m/s).
    pub velocity: Vec3,
    /// Per-axis position variance (m²) from the track's Kalman state
    /// covariance (grows while coasting, shrinks under measurements).
    pub pos_var: Vec3,
    /// Last accepted measurement's per-axis innovation (m); `None` until
    /// the second accepted measurement.
    pub innovation: Option<Vec3>,
    /// Total measurements accepted.
    pub hits: usize,
    /// Consecutive frames without a measurement.
    pub consecutive_misses: usize,
}

impl TrackSnapshot {
    /// Whether this track is reportable (confirmed or coasting).
    pub fn is_established(&self) -> bool {
        matches!(self.phase, TrackPhase::Confirmed | TrackPhase::Coasting)
    }

    /// The tracked elevation (z).
    pub fn elevation(&self) -> f64 {
        self.position.z
    }
}

/// One frame's multi-target output.
#[derive(Debug, Clone)]
pub struct MttUpdate {
    /// Frame counter since the stream began.
    pub frame_index: u64,
    /// Time (s) at the end of the frame.
    pub time_s: f64,
    /// Number of contour detections per receive antenna this frame.
    pub detections_per_antenna: Vec<usize>,
    /// All live tracks (tentative included — filter with
    /// [`TrackSnapshot::is_established`] for reportable targets).
    pub tracks: Vec<TrackSnapshot>,
}

impl MttUpdate {
    /// Established (confirmed or coasting) tracks only.
    pub fn established(&self) -> impl Iterator<Item = &TrackSnapshot> {
        self.tracks.iter().filter(|t| t.is_established())
    }
}

/// The multi-target WiTrack system.
pub struct MultiWiTrack {
    cfg: MttConfig,
    array: AntennaArray,
    front: FrontEnd,
    /// Per-antenna detection buffers, reused across frames.
    detections: Vec<Vec<Detection>>,
    gn: GaussNewtonConfig,
    /// Association cost matrix, reused across frames.
    cost: CostMatrix,
    /// Association solver scratch, reused across frames.
    solver: AssignmentSolver,
    tracks: Vec<MttTrack>,
    next_id: u64,
    /// Per-stage latency histograms, when the owner attached them.
    stats: Option<witrack_obs::StageStats>,
}

impl MultiWiTrack {
    /// Builds the tracker with the paper's T-array geometry from the base
    /// config's origin and separation.
    pub fn new(cfg: MttConfig) -> Result<MultiWiTrack, BuildError> {
        let array =
            TArray::symmetric(cfg.base.array_origin, cfg.base.antenna_separation).antenna_array();
        Self::with_array(cfg, array)
    }

    /// Builds the tracker around an arbitrary array (≥ 3 receivers); always
    /// uses the least-squares solver, which over-constrained arrays need
    /// and which also hardens initiation (nonzero residuals reject
    /// rank-mismatched tuples).
    pub fn with_array(cfg: MttConfig, array: AntennaArray) -> Result<MultiWiTrack, BuildError> {
        cfg.base.sweep.validate().map_err(BuildError::BadSweep)?;
        let n_rx = array.num_rx();
        let base = &cfg.base;
        Ok(MultiWiTrack {
            front: FrontEnd::new(base.sweep, base.max_round_trip_m, base.contour, n_rx),
            detections: vec![Vec::new(); n_rx],
            gn: GaussNewtonConfig::default(),
            cost: CostMatrix::new(0, 0),
            solver: AssignmentSolver::new(),
            tracks: Vec::new(),
            next_id: 0,
            stats: None,
            array,
            cfg,
        })
    }

    /// The antenna array in use.
    pub fn array(&self) -> &AntennaArray {
        &self.array
    }

    /// The configuration in use.
    pub fn config(&self) -> &MttConfig {
        &self.cfg
    }

    /// Number of live (non-dead) tracks, tentative included.
    pub fn live_tracks(&self) -> usize {
        self.tracks.len()
    }

    /// Attaches per-stage latency histograms: on every frame-completing
    /// push, per-antenna range-profiling time is recorded into
    /// `stats.profile`, background + top-K contour time into
    /// `stats.detect`, and association + solve + initiation into
    /// `stats.associate`.
    pub fn attach_stage_stats(&mut self, stats: witrack_obs::StageStats) {
        self.stats = Some(stats);
    }

    /// Pushes one sweep interval's baseband, one slice per receive antenna.
    /// Returns an [`MttUpdate`] on frame boundaries.
    ///
    /// # Panics
    /// Panics if `per_rx.len()` differs from the number of receive antennas
    /// or any sweep has the wrong length.
    pub fn push_sweeps(&mut self, per_rx: &[&[f64]]) -> Option<MttUpdate> {
        self.push(Sweeps::PerRx(per_rx))
    }

    /// Pushes one sweep interval's baseband in any [`Sweeps`] form.
    /// Returns a [`MttUpdate`] on frame boundaries.
    ///
    /// # Panics
    /// Panics unless `sweeps` holds exactly one sweep per receive antenna.
    pub fn push(&mut self, sweeps: Sweeps<'_>) -> Option<MttUpdate> {
        // The back end's per-antenna step: top-K contours into the reused
        // detection buffers.
        let budget = self.cfg.detection_budget();
        let min_sep = self.cfg.min_peak_separation_bins;
        let detections = &mut self.detections;
        let (clock, times) =
            self.front
                .push(sweeps, self.stats.is_some(), |_, rx, mags, contour| {
                    let dets = &mut detections[rx];
                    match mags {
                        None => dets.clear(),
                        Some(mags) => contour.detect_top_k_into(mags, budget, min_sep, dets),
                    }
                })?;
        if let Some(st) = &self.stats {
            for t in times {
                st.profile.record(t.profile_ns);
                st.detect.record(t.detect_ns);
            }
        }
        let dt = clock.duration_s;

        // Take the detection buffers so &mut self methods can run; the
        // buffers (and their capacity) are returned afterwards.
        let detections = std::mem::take(&mut self.detections);
        let associate_start = self.stats.as_ref().map(|_| std::time::Instant::now());
        let claimed = self.associate_and_update(&detections, dt);
        self.initiate_tracks(&detections, &claimed);
        self.tracks.retain(|t| !t.is_dead());
        if let (Some(st), Some(start)) = (self.stats.as_ref(), associate_start) {
            st.associate.record_since(start);
        }

        let update = MttUpdate {
            frame_index: clock.index,
            time_s: clock.time_s,
            detections_per_antenna: detections.iter().map(|d| d.len()).collect(),
            tracks: self
                .tracks
                .iter()
                .map(|t| TrackSnapshot {
                    id: t.id,
                    phase: t.phase,
                    position: t.position(),
                    velocity: t.velocity(),
                    pos_var: t.position_variance(),
                    innovation: t.innovation(),
                    hits: t.hits,
                    consecutive_misses: t.consecutive_misses,
                })
                .collect(),
        };
        self.detections = detections;
        Some(update)
    }

    /// Stage 2 + 3: per-antenna gated Hungarian association, then a 3D
    /// solve + Kalman update for every fully-matched track. Returns the
    /// per-antenna claimed-detection masks.
    ///
    /// Runs in two passes — established tracks first, tentative tracks on
    /// the leftovers — so a freshly-spawned ghost can never outbid a
    /// confirmed track for its own detections.
    fn associate_and_update(&mut self, detections: &[Vec<Detection>], dt: f64) -> Vec<Vec<bool>> {
        let mut claimed: Vec<Vec<bool>> = detections.iter().map(|d| vec![false; d.len()]).collect();
        let established: Vec<usize> = (0..self.tracks.len())
            .filter(|&i| self.tracks[i].is_established())
            .collect();
        let tentative: Vec<usize> = (0..self.tracks.len())
            .filter(|&i| !self.tracks[i].is_established())
            .collect();
        for pass in [established, tentative] {
            self.associate_pass(&pass, detections, dt, &mut claimed);
        }
        claimed
    }

    /// Associates the detections not yet claimed to the tracks in `pass`,
    /// then updates each of those tracks (measurement or miss).
    fn associate_pass(
        &mut self,
        pass: &[usize],
        detections: &[Vec<Detection>],
        dt: f64,
        claimed: &mut [Vec<bool>],
    ) {
        if pass.is_empty() {
            return;
        }
        let n_rx = detections.len();
        let predicted: Vec<Vec3> = pass
            .iter()
            .map(|&t| self.tracks[t].predicted_position(dt))
            .collect();

        // assigned[p][k] = round trip matched to pass-track p on antenna k.
        let mut assigned: Vec<Vec<Option<f64>>> = vec![vec![None; n_rx]; pass.len()];
        for k in 0..n_rx {
            let available: Vec<usize> = (0..detections[k].len())
                .filter(|&d| !claimed[k][d])
                .collect();
            self.cost.reset(pass.len(), available.len());
            for (pi, pred) in predicted.iter().enumerate() {
                let pred_rt = self.array.round_trip(*pred, k);
                for (ci, &di) in available.iter().enumerate() {
                    let err = (detections[k][di].round_trip_m - pred_rt).abs();
                    if err < self.cfg.gate_round_trip_m {
                        self.cost.set(pi, ci, err);
                    }
                }
            }
            let assignment = self.solver.solve(&self.cost);
            for (pi, ci) in assignment.row_to_col.iter().enumerate() {
                if let Some(ci) = *ci {
                    let di = available[ci];
                    assigned[pi][k] = Some(detections[k][di].round_trip_m);
                    claimed[k][di] = true;
                }
            }
        }

        for (pi, rts) in assigned.iter().enumerate() {
            let ti = pass[pi];
            let full: Option<Vec<f64>> = rts.iter().copied().collect();
            let measured = full
                .and_then(|rts| {
                    solve_least_squares(&self.array, &rts, &self.gn)
                        .ok()
                        .map(|s| s.position)
                })
                // A "measurement" outside the deployment envelope is a
                // multipath artifact, not a person — coast instead of
                // letting it drag the track out of the room.
                .filter(|p| self.cfg.position_gate.contains(*p));
            match measured {
                Some(p) => self.tracks[ti].update(p, dt, &self.cfg),
                None => self.tracks[ti].miss(dt, &self.cfg),
            }
        }
    }

    /// Stage 4: initiate tentative tracks from cross-antenna tuples of
    /// unclaimed detections. Each unclaimed detection on antenna 0 anchors
    /// a tuple completed by the *nearest-in-round-trip* unclaimed detection
    /// on every other antenna (a single reflector's round trips differ
    /// across antennas by at most the antenna-separation geometry allows,
    /// so nearest-rt matching recovers the per-person tuple even when the
    /// antennas saw different subsets of bounces).
    fn initiate_tracks(&mut self, detections: &[Vec<Detection>], claimed: &[Vec<bool>]) {
        // Unclaimed detections per antenna, already nearest-first.
        let unclaimed: Vec<Vec<&Detection>> = detections
            .iter()
            .zip(claimed)
            .map(|(dets, mask)| {
                dets.iter()
                    .zip(mask)
                    .filter(|(_, &c)| !c)
                    .map(|(d, _)| d)
                    .collect()
            })
            .collect();
        if unclaimed.iter().any(|u| u.is_empty()) {
            return;
        }
        let max_spread = 2.0 * self.cfg.base.antenna_separation + 0.5;
        let mut born: Vec<Vec3> = Vec::new();
        for anchor in &unclaimed[0] {
            let mut rts = vec![anchor.round_trip_m];
            for other in &unclaimed[1..] {
                let nearest = other
                    .iter()
                    .map(|d| d.round_trip_m)
                    .min_by(|a, b| {
                        let da = (a - anchor.round_trip_m).abs();
                        let db = (b - anchor.round_trip_m).abs();
                        da.total_cmp(&db) // NaN sorts last: never picked over a real range
                    })
                    .expect("non-empty checked above");
                rts.push(nearest);
            }
            let spread = rts.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - rts.iter().cloned().fold(f64::INFINITY, f64::min);
            if spread > max_spread {
                continue;
            }
            let Ok(solved) = solve_least_squares(&self.array, &rts, &self.gn) else {
                continue;
            };
            // For over-constrained arrays the residual exposes mismatched
            // tuples; with 3 receivers it is ~0 and the gates do the work.
            if solved.residual_rms > 0.25 {
                continue;
            }
            let p = solved.position;
            if !self.cfg.position_gate.contains(p) {
                continue;
            }
            let too_close = self
                .tracks
                .iter()
                .map(|t| t.position())
                .chain(born.iter().copied())
                .any(|q| q.distance(p) < self.cfg.min_new_track_separation_m);
            if too_close {
                continue;
            }
            let id = TrackId(self.next_id);
            self.next_id += 1;
            self.tracks.push(MttTrack::new(id, p, &self.cfg));
            born.push(p);
        }
    }

    /// Clears all stream and track state.
    pub fn reset(&mut self) {
        self.front.reset();
        for d in &mut self.detections {
            d.clear();
        }
        self.tracks.clear();
        // Track ids keep counting up: a reset mid-run must not recycle ids.
    }
}

impl From<MttUpdate> for FrameReport {
    fn from(u: MttUpdate) -> FrameReport {
        FrameReport {
            frame_index: u.frame_index,
            time_s: u.time_s,
            // Established tracks only: tentative tracks are the tracker's
            // internal hypothesis set, not reportable targets.
            targets: u
                .established()
                .map(|t| TargetReport {
                    id: Some(t.id.0),
                    position: t.position,
                    velocity: Some(t.velocity),
                    held: t.phase == TrackPhase::Coasting,
                    pos_var: Some(t.pos_var),
                    innovation: t.innovation,
                })
                .collect(),
        }
    }
}

impl FramePipeline for MultiWiTrack {
    fn num_rx(&self) -> usize {
        self.array.num_rx()
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
        MultiWiTrack::reset(self);
    }

    fn attach_stage_stats(&mut self, stats: witrack_obs::StageStats) {
        MultiWiTrack::attach_stage_stats(self, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;
    use witrack_fmcw::SweepConfig;

    /// A sweep fine enough to separate two people (0.44 m bins) but cheap
    /// enough for debug-mode tests.
    fn mtt_sweep() -> SweepConfig {
        SweepConfig::witrack_mid()
    }

    fn mtt_cfg() -> MttConfig {
        let base = witrack_core::WiTrackConfig {
            sweep: mtt_sweep(),
            max_round_trip_m: 40.0,
            ..witrack_core::WiTrackConfig::witrack_default()
        };
        MttConfig::with_base(base)
    }

    /// Dechirped sweeps for point reflectors at `points`, one per antenna.
    fn sweeps_for(cfg: &MttConfig, array: &AntennaArray, points: &[Vec3]) -> Vec<Vec<f64>> {
        let sw = &cfg.base.sweep;
        let n = sw.samples_per_sweep();
        (0..array.num_rx())
            .map(|k| {
                let mut out = vec![0.0; n];
                for &p in points {
                    let rt = array.round_trip(p, k);
                    let tau = rt / 299_792_458.0;
                    let beat = sw.beat_for_tof(tau);
                    let phase = 2.0 * PI * sw.start_freq_hz * tau;
                    for (i, o) in out.iter_mut().enumerate() {
                        let t = i as f64 / sw.sample_rate_hz;
                        *o += (2.0 * PI * beat * t + phase).cos();
                    }
                }
                out
            })
            .collect()
    }

    fn push_frame(wt: &mut MultiWiTrack, sweeps: &[Vec<f64>]) -> Option<MttUpdate> {
        let refs: Vec<&[f64]> = sweeps.iter().map(|v| v.as_slice()).collect();
        let mut out = None;
        for _ in 0..wt.config().base.sweep.sweeps_per_frame {
            if let Some(u) = wt.push_sweeps(&refs) {
                out = Some(u);
            }
        }
        out
    }

    #[test]
    fn empty_scene_produces_no_tracks() {
        let cfg = mtt_cfg();
        let mut wt = MultiWiTrack::new(cfg).unwrap();
        let n = cfg.base.sweep.samples_per_sweep();
        let silent = vec![vec![0.0; n]; 3];
        for _ in 0..20 {
            if let Some(u) = push_frame(&mut wt, &silent) {
                assert!(u.tracks.is_empty());
            }
        }
    }

    #[test]
    fn two_separated_walkers_become_two_confirmed_tracks() {
        let cfg = mtt_cfg();
        let mut wt = MultiWiTrack::new(cfg).unwrap();
        let array = wt.array().clone();
        let mut last = None;
        for f in 0..120 {
            let s = f as f64 / 120.0;
            let a = Vec3::new(-1.5 + 1.0 * s, 4.0 + 0.5 * s, 1.1);
            let b = Vec3::new(1.5 - 1.0 * s, 7.0 - 0.5 * s, 0.9);
            let sweeps = sweeps_for(&cfg, &array, &[a, b]);
            if let Some(u) = push_frame(&mut wt, &sweeps) {
                last = Some((u, a, b));
            }
        }
        let (u, a, b) = last.expect("frames emitted");
        let confirmed: Vec<&TrackSnapshot> = u
            .tracks
            .iter()
            .filter(|t| t.phase == TrackPhase::Confirmed)
            .collect();
        assert_eq!(confirmed.len(), 2, "tracks: {:?}", u.tracks);
        // Each true position is matched by exactly one confirmed track.
        for truth in [a, b] {
            let nearest = confirmed
                .iter()
                .map(|t| t.position.distance(truth))
                .fold(f64::INFINITY, f64::min);
            assert!(nearest < 0.6, "no track near {truth}: {:?}", u.tracks);
        }
    }

    #[test]
    fn single_walker_matches_single_target_semantics() {
        let cfg = mtt_cfg();
        let mut wt = MultiWiTrack::new(cfg).unwrap();
        let array = wt.array().clone();
        let mut errs = Vec::new();
        for f in 0..120 {
            let s = f as f64 / 120.0;
            let p = Vec3::new(-1.0 + 2.0 * s, 4.0 + 2.0 * s, 1.2);
            let sweeps = sweeps_for(&cfg, &array, &[p]);
            if let Some(u) = push_frame(&mut wt, &sweeps) {
                if f > 20 {
                    let est: Vec<&TrackSnapshot> = u.established().collect();
                    assert_eq!(est.len(), 1, "frame {f}: {:?}", u.tracks);
                    errs.push(est[0].position.distance(p));
                }
            }
        }
        assert!(errs.len() > 80);
        let med = witrack_dsp::stats::median(&errs);
        assert!(med < 0.4, "median 3D error {med}");
    }

    #[test]
    fn vanished_target_coasts_then_dies() {
        let cfg = mtt_cfg();
        let mut wt = MultiWiTrack::new(cfg).unwrap();
        let array = wt.array().clone();
        for f in 0..40 {
            let p = Vec3::new(0.0, 4.0 + 0.02 * f as f64, 1.0);
            let sweeps = sweeps_for(&cfg, &array, &[p]);
            push_frame(&mut wt, &sweeps);
        }
        assert_eq!(wt.live_tracks(), 1);
        // Target vanishes (static scene): the track coasts...
        let n = cfg.base.sweep.samples_per_sweep();
        let silent = vec![vec![0.0; n]; 3];
        let mut phases = Vec::new();
        for _ in 0..(cfg.max_coast_frames + 10) {
            if let Some(u) = push_frame(&mut wt, &silent) {
                phases.extend(u.tracks.iter().map(|t| t.phase));
            }
        }
        assert!(phases.contains(&TrackPhase::Coasting), "never coasted");
        // ...and is eventually dropped.
        assert_eq!(wt.live_tracks(), 0);
    }

    #[test]
    fn reset_clears_tracks_but_not_ids() {
        let cfg = mtt_cfg();
        let mut wt = MultiWiTrack::new(cfg).unwrap();
        let array = wt.array().clone();
        for f in 0..20 {
            let p = Vec3::new(0.0, 4.0 + 0.05 * f as f64, 1.0);
            let sweeps = sweeps_for(&cfg, &array, &[p]);
            push_frame(&mut wt, &sweeps);
        }
        let first_ids: Vec<TrackId> = wt.tracks.iter().map(|t| t.id).collect();
        assert!(!first_ids.is_empty());
        wt.reset();
        assert_eq!(wt.live_tracks(), 0);
        for f in 0..20 {
            let p = Vec3::new(0.0, 4.0 + 0.05 * f as f64, 1.0);
            let sweeps = sweeps_for(&cfg, &array, &[p]);
            push_frame(&mut wt, &sweeps);
        }
        assert!(
            wt.tracks.iter().all(|t| !first_ids.contains(&t.id)),
            "ids recycled"
        );
    }

    #[test]
    #[should_panic]
    fn wrong_antenna_count_panics() {
        let cfg = mtt_cfg();
        let mut wt = MultiWiTrack::new(cfg).unwrap();
        let sweep = vec![0.0; cfg.base.sweep.samples_per_sweep()];
        let _ = wt.push_sweeps(&[&sweep, &sweep]);
    }
}
