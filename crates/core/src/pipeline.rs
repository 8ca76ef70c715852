//! The end-to-end WiTrack pipeline: sweeps in, 3D positions out.
//!
//! One [`WiTrack`] is the single-target back end of a §4
//! [`FrontEnd`]: a denoiser per receive antenna (the shared
//! [`TofFrame::detect`] step) and the §5 geometric solver. Feed it one
//! sweep per antenna per sweep interval; every `sweeps_per_frame` sweeps
//! it emits a [`TrackUpdate`] carrying the per-antenna round trips, the
//! solved 3D position, and the per-antenna spectral features the §6
//! applications consume.
//!
//! The per-antenna stages run serially on the calling thread. A server
//! already spreads its sensors over one shard thread per core, so a
//! per-frame antenna fan-out would add thread start, join and wake-up
//! cost without adding a core.

use crate::config::{SolverChoice, WiTrackConfig};
use witrack_fmcw::{DistanceDenoiser, FrontEnd, Sweeps, TofFrame};
use witrack_geom::multilateration::{solve_least_squares, GaussNewtonConfig};
use witrack_geom::{AntennaArray, TArray, Vec3};

/// One processing frame's output.
#[derive(Debug, Clone)]
pub struct TrackUpdate {
    /// Frame counter since the stream began.
    pub frame_index: u64,
    /// Time (s) at the end of the frame.
    pub time_s: f64,
    /// Denoised round-trip distance per receive antenna (None until each
    /// stream seeds).
    pub round_trips: Vec<Option<f64>>,
    /// Solved 3D position, when all round trips are available and the
    /// ellipsoids intersect in front of the array.
    pub position: Option<Vec3>,
    /// `true` when the position is interpolated rather than freshly
    /// measured (§4.4): at least one antenna's contour stream is holding,
    /// so the last fully-measured position is reported. Solving a *mixture*
    /// of live and frozen round trips would be geometrically inconsistent —
    /// the antennas freeze at different instants — and the §5 geometry
    /// amplifies that inconsistency severely along x and z.
    pub held: bool,
    /// Per-antenna §4 frames (background-subtracted magnitudes, raw
    /// detections) for the §6 applications and the figure harnesses.
    pub frames: Vec<TofFrame>,
}

impl TrackUpdate {
    /// The tracked elevation (z), if a position was solved.
    pub fn elevation(&self) -> Option<f64> {
        self.position.map(|p| p.z)
    }
}

/// How many recent live solves a held position is the median of.
const RECENT_LIVE: usize = 5;

/// The WiTrack system: the §4 front end, per-antenna denoisers and the
/// 3D solver.
pub struct WiTrack {
    cfg: WiTrackConfig,
    array: AntennaArray,
    tarray: Option<TArray>,
    front: FrontEnd,
    /// One §4.4 denoiser per receive antenna.
    denoisers: Vec<DistanceDenoiser>,
    gn: GaussNewtonConfig,
    /// Recent positions solved from all-live (non-held) round trips. While
    /// any antenna interpolates, the component-wise median of these is
    /// reported — a single last solve would freeze one frame's noise into
    /// the whole still period.
    recent_live: std::collections::VecDeque<Vec3>,
    /// Per-stage latency histograms, when the owner attached them.
    stats: Option<witrack_obs::StageStats>,
}

/// Construction errors.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The sweep configuration failed validation.
    BadSweep(witrack_fmcw::config::ConfigError),
    /// The closed-form solver requires the exact 3-receiver T geometry.
    ClosedFormNeedsTArray,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::BadSweep(e) => write!(f, "invalid sweep config: {e}"),
            BuildError::ClosedFormNeedsTArray => {
                write!(f, "closed-form solver requires the 3-receiver T geometry")
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl WiTrack {
    /// Builds the pipeline with the paper's T-array geometry derived from
    /// the config's origin and separation.
    pub fn new(cfg: WiTrackConfig) -> Result<WiTrack, BuildError> {
        cfg.sweep.validate().map_err(BuildError::BadSweep)?;
        let tarray = TArray::symmetric(cfg.array_origin, cfg.antenna_separation);
        Ok(Self::build(cfg, tarray.antenna_array(), Some(tarray)))
    }

    /// Builds the pipeline around an arbitrary antenna array (e.g. the §5
    /// over-constrained arrays with > 3 receivers). Forces the least-squares
    /// solver.
    pub fn with_array(cfg: WiTrackConfig, array: AntennaArray) -> Result<WiTrack, BuildError> {
        cfg.sweep.validate().map_err(BuildError::BadSweep)?;
        if cfg.solver == SolverChoice::ClosedForm {
            return Err(BuildError::ClosedFormNeedsTArray);
        }
        Ok(Self::build(cfg, array, None))
    }

    fn build(cfg: WiTrackConfig, array: AntennaArray, tarray: Option<TArray>) -> WiTrack {
        let n_rx = array.num_rx();
        WiTrack {
            front: FrontEnd::new(cfg.sweep, cfg.max_round_trip_m, cfg.contour, n_rx),
            denoisers: vec![DistanceDenoiser::new(cfg.denoise); n_rx],
            tarray,
            array,
            gn: GaussNewtonConfig::default(),
            cfg,
            recent_live: std::collections::VecDeque::new(),
            stats: None,
        }
    }

    /// The antenna array in use.
    pub fn array(&self) -> &AntennaArray {
        &self.array
    }

    /// The configuration in use.
    pub fn config(&self) -> &WiTrackConfig {
        &self.cfg
    }

    /// Attaches per-stage latency histograms: on every frame-completing
    /// push, per-antenna range-profiling time is recorded into
    /// `stats.profile`, background + contour + denoise time into
    /// `stats.detect`, and the §5 solve into `stats.associate`.
    pub fn attach_stage_stats(&mut self, stats: witrack_obs::StageStats) {
        self.stats = Some(stats);
    }

    /// Pushes one sweep interval's baseband, one slice per receive antenna.
    /// Returns a [`TrackUpdate`] on frame boundaries.
    ///
    /// # Panics
    /// Panics if `per_rx.len()` differs from the number of receive antennas
    /// or any sweep has the wrong length.
    pub fn push_sweeps(&mut self, per_rx: &[&[f64]]) -> Option<TrackUpdate> {
        self.push(Sweeps::PerRx(per_rx))
    }

    /// Pushes one sweep interval's baseband in any [`Sweeps`] form.
    /// Returns a [`TrackUpdate`] on frame boundaries.
    ///
    /// # Panics
    /// Panics unless `sweeps` holds exactly one sweep per receive antenna.
    pub fn push(&mut self, sweeps: Sweeps<'_>) -> Option<TrackUpdate> {
        // Filled only on frame-completing sweeps, so accumulate-only
        // sweeps never touch the heap.
        let mut frames = Vec::new();
        let denoisers = &mut self.denoisers;
        let (clock, times) =
            self.front
                .push(sweeps, self.stats.is_some(), |clock, rx, mags, contour| {
                    frames.push(TofFrame::detect(clock, mags, contour, &mut denoisers[rx]));
                })?;
        if let Some(st) = &self.stats {
            for t in times {
                st.profile.record(t.profile_ns);
                st.detect.record(t.detect_ns);
            }
        }
        let associate_start = self.stats.as_ref().map(|_| std::time::Instant::now());
        let round_trips: Vec<Option<f64>> = frames.iter().map(|f| f.round_trip_m()).collect();
        // "Held" as soon as ANY antenna interpolates: a mixed live/frozen
        // solve is inconsistent (see the `held` field docs).
        let held = frames
            .iter()
            .any(|f| f.denoised.map(|d| d.held).unwrap_or(true));

        let position = if held {
            self.held_position()
        } else {
            let p = self.solve(&round_trips);
            if let Some(p) = p {
                self.recent_live.push_back(p);
                if self.recent_live.len() > RECENT_LIVE {
                    self.recent_live.pop_front();
                }
            }
            p
        };
        if let (Some(st), Some(start)) = (self.stats.as_ref(), associate_start) {
            st.associate.record_since(start);
        }
        Some(TrackUpdate {
            frame_index: clock.index,
            time_s: clock.time_s,
            round_trips,
            position,
            held,
            frames,
        })
    }

    /// Solves the 3D position from per-antenna round trips (all required).
    pub fn solve(&self, round_trips: &[Option<f64>]) -> Option<Vec3> {
        if round_trips.iter().any(|r| r.is_none()) {
            return None;
        }
        let rts: Vec<f64> = round_trips.iter().map(|r| r.expect("checked")).collect();
        match (self.cfg.solver, &self.tarray) {
            (SolverChoice::ClosedForm, Some(t)) => t.solve([rts[0], rts[1], rts[2]]).ok(),
            _ => solve_least_squares(&self.array, &rts, &self.gn)
                .ok()
                .map(|s| s.position),
        }
    }

    /// The position reported while interpolating: the component-wise median
    /// of the recent live solves.
    fn held_position(&self) -> Option<Vec3> {
        let n = self.recent_live.len();
        if n == 0 {
            return None;
        }
        let [mut xs, mut ys, mut zs] = [[0.0; RECENT_LIVE]; 3];
        for (i, p) in self.recent_live.iter().enumerate() {
            (xs[i], ys[i], zs[i]) = (p.x, p.y, p.z);
        }
        Some(Vec3::new(
            witrack_dsp::stats::median_in_place(&mut xs[..n]),
            witrack_dsp::stats::median_in_place(&mut ys[..n]),
            witrack_dsp::stats::median_in_place(&mut zs[..n]),
        ))
    }

    /// Resets all stream state.
    pub fn reset(&mut self) {
        self.front.reset();
        for d in &mut self.denoisers {
            d.reset();
        }
        self.recent_live.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use witrack_fmcw::{SweepConfig, TofEstimator};

    fn small_cfg() -> WiTrackConfig {
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

    /// Dechirped sweep for reflectors at given round trips, one per antenna.
    fn sweeps_for(
        cfg: &WiTrackConfig,
        array: &AntennaArray,
        point: Vec3,
        amp: f64,
    ) -> Vec<Vec<f64>> {
        use std::f64::consts::PI;
        let sw = &cfg.sweep;
        let n = sw.samples_per_sweep();
        (0..array.num_rx())
            .map(|k| {
                let rt = array.round_trip(point, k);
                let tau = rt / 299_792_458.0;
                let beat = sw.beat_for_tof(tau);
                let phase = 2.0 * PI * sw.start_freq_hz * tau;
                (0..n)
                    .map(|i| {
                        let t = i as f64 / sw.sample_rate_hz;
                        amp * (2.0 * PI * beat * t + phase).cos()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn tracks_a_synthetic_walker_in_3d() {
        let cfg = small_cfg();
        let mut wt = WiTrack::new(cfg).unwrap();
        let stats = witrack_obs::StageStats::detached();
        wt.attach_stage_stats(stats.clone());
        let array = wt.array().clone();
        let mut errs = Vec::new();
        for f in 0..150 {
            // Walk diagonally: x −1 → 1, y 4 → 6, z fixed.
            let s = f as f64 / 150.0;
            let p = Vec3::new(-1.0 + 2.0 * s, 4.0 + 2.0 * s, 1.2);
            let sweeps = sweeps_for(&cfg, &array, p, 1.0);
            let refs: Vec<&[f64]> = sweeps.iter().map(|v| v.as_slice()).collect();
            for _ in 0..cfg.sweep.sweeps_per_frame {
                if let Some(u) = wt.push_sweeps(&refs) {
                    if f > 15 {
                        if let Some(est) = u.position {
                            errs.push(est.distance(p));
                        }
                    }
                }
            }
        }
        assert!(
            errs.len() > 100,
            "expected steady tracking, got {}",
            errs.len()
        );
        let med = witrack_dsp::stats::median(&errs);
        // Reduced config has 1.77 m bins; the solver + subbin refinement
        // should still land well under a bin.
        assert!(med < 0.6, "median 3D error {med}");
        // Timing records each antenna's stages once per frame.
        assert_eq!(stats.profile.count(), 3 * 150);
        assert_eq!(stats.detect.count(), 3 * 150);
        assert_eq!(stats.associate.count(), 150);
    }

    /// The fixed-point front half (i16 wire samples, Q15 windowing, i32
    /// accumulation — [`WiTrack::push`]) must track as well
    /// as the float pipeline: the median 3D error of the quantized run may
    /// exceed the float run's by at most 1 mm. This is the accuracy gate
    /// for serving i16 wire batches without dequantization.
    #[test]
    fn quantized_front_half_tracks_within_a_millimeter_of_float() {
        let cfg = small_cfg();
        let mut wt_f = WiTrack::new(cfg).unwrap();
        let mut wt_q = WiTrack::new(cfg).unwrap();
        let array = wt_f.array().clone();
        let n = cfg.sweep.samples_per_sweep();
        let mut errs_f = Vec::new();
        let mut errs_q = Vec::new();
        for f in 0..150 {
            let s = f as f64 / 150.0;
            let p = Vec3::new(-1.0 + 2.0 * s, 4.0 + 2.0 * s, 1.2);
            let sweeps = sweeps_for(&cfg, &array, p, 1.0);
            // Quantize per frame batch the way wire encoders do: one scale
            // covering the batch peak, samples rounded to i16.
            let flat: Vec<f64> = sweeps.iter().flatten().copied().collect();
            let peak = flat.iter().fold(0.0_f64, |m, &x| m.max(x.abs()));
            let scale = if peak > 0.0 { peak / 32767.0 } else { 1.0 };
            let flat_q: Vec<i16> = flat.iter().map(|&x| (x / scale).round() as i16).collect();
            let refs: Vec<&[f64]> = sweeps.iter().map(|v| v.as_slice()).collect();
            for _ in 0..cfg.sweep.sweeps_per_frame {
                if let Some(u) = wt_f.push_sweeps(&refs) {
                    if f > 15 {
                        if let Some(est) = u.position {
                            errs_f.push(est.distance(p));
                        }
                    }
                }
                if let Some(u) = wt_q.push(Sweeps::FlatQ(&flat_q, n, scale)) {
                    if f > 15 {
                        if let Some(est) = u.position {
                            errs_q.push(est.distance(p));
                        }
                    }
                }
            }
        }
        assert!(errs_q.len() > 100, "quantized run lost tracking");
        let med_f = witrack_dsp::stats::median(&errs_f);
        let med_q = witrack_dsp::stats::median(&errs_q);
        assert!(
            med_q <= med_f + 1e-3,
            "quantized median error {med_q} vs float {med_f}"
        );
    }

    /// `WiTrack` and N one-antenna `TofEstimator`s run the same §4 stages
    /// on the same sweeps, in both sample forms, so every per-antenna frame
    /// must agree exactly, the baseline frame included.
    #[test]
    fn per_antenna_frames_match_separate_estimators() {
        let cfg = small_cfg();
        let mut wt_f = WiTrack::new(cfg).unwrap();
        let mut wt_q = WiTrack::new(cfg).unwrap();
        let array = wt_f.array().clone();
        let n = cfg.sweep.samples_per_sweep();
        let (sweep, max_rt) = (cfg.sweep, cfg.max_round_trip_m);
        let est = TofEstimator::with_tuning(sweep, max_rt, cfg.contour, cfg.denoise);
        let (mut ests_f, mut ests_q) = (vec![est.clone(); 3], vec![est; 3]);
        let mut frames = 0;
        let mut denoised = 0;
        let mut check = |update: Option<TrackUpdate>, solo: Vec<Option<TofFrame>>| {
            let Some(update) = update else {
                assert!(solo.iter().all(Option::is_none), "estimator ran ahead");
                return;
            };
            assert_eq!(update.frames.len(), solo.len());
            for (got, want) in update.frames.iter().zip(solo) {
                let want = want.expect("estimators emit on the same sweep");
                assert_eq!(got.frame_index, want.frame_index);
                assert_eq!(got.time_s.to_bits(), want.time_s.to_bits());
                assert_eq!(got.magnitudes, want.magnitudes);
                assert_eq!(got.detection, want.detection);
                assert_eq!(got.denoised, want.denoised);
                frames += 1;
                denoised += usize::from(got.denoised.is_some());
            }
        };
        for f in 0..60 {
            let p = Vec3::new(-0.5 + 0.02 * f as f64, 4.0 + 0.03 * f as f64, 1.1);
            let sweeps = sweeps_for(&cfg, &array, p, 1.0);
            let refs: Vec<&[f64]> = sweeps.iter().map(|v| v.as_slice()).collect();
            let scale = 1.0 / 32767.0;
            let flat_q: Vec<i16> = sweeps
                .iter()
                .flatten()
                .map(|&x| (x / scale).round() as i16)
                .collect();
            for _ in 0..cfg.sweep.sweeps_per_frame {
                let solo = ests_f.iter_mut().zip(&refs);
                let solo = solo.map(|(e, s)| e.push_sweep(s)).collect();
                check(wt_f.push_sweeps(&refs), solo);
                let solo = ests_q.iter_mut().zip(flat_q.chunks_exact(n));
                let solo = solo.map(|(e, s)| e.push_sweep_q(s, scale)).collect();
                check(wt_q.push(Sweeps::FlatQ(&flat_q, n, scale)), solo);
            }
        }
        assert_eq!(frames, 2 * 60 * 3);
        assert!(
            denoised > frames / 2,
            "only {denoised} of {frames} denoised"
        );
    }

    #[test]
    fn no_position_until_all_antennas_seed() {
        let cfg = small_cfg();
        let mut wt = WiTrack::new(cfg).unwrap();
        let n = cfg.sweep.samples_per_sweep();
        let silent = vec![vec![0.0; n]; 3];
        let refs: Vec<&[f64]> = silent.iter().map(|v| v.as_slice()).collect();
        for _ in 0..cfg.sweep.sweeps_per_frame * 4 {
            if let Some(u) = wt.push_sweeps(&refs) {
                assert!(u.position.is_none());
                assert!(u.round_trips.iter().all(|r| r.is_none()));
            }
        }
    }

    #[test]
    fn held_flag_reflects_static_person() {
        let cfg = small_cfg();
        let mut wt = WiTrack::new(cfg).unwrap();
        let array = wt.array().clone();
        let p = Vec3::new(0.5, 5.0, 1.0);
        let mut updates = Vec::new();
        // Move for 40 frames (alternate two positions to keep motion), then
        // freeze (static scene → nothing after background subtraction).
        for f in 0..40 {
            let q = p + Vec3::new(0.0, 0.002 * f as f64, 0.0);
            let sweeps = sweeps_for(&cfg, &array, q, 1.0);
            let refs: Vec<&[f64]> = sweeps.iter().map(|v| v.as_slice()).collect();
            for _ in 0..cfg.sweep.sweeps_per_frame {
                if let Some(u) = wt.push_sweeps(&refs) {
                    updates.push(u);
                }
            }
        }
        let frozen = sweeps_for(&cfg, &array, p + Vec3::new(0.0, 0.08, 0.0), 1.0);
        let refs: Vec<&[f64]> = frozen.iter().map(|v| v.as_slice()).collect();
        for _ in 0..cfg.sweep.sweeps_per_frame * 20 {
            if let Some(u) = wt.push_sweeps(&refs) {
                updates.push(u);
            }
        }
        let last = updates.last().unwrap();
        assert!(last.held, "static person should be held");
        // Held positions persist (interpolation, §4.4).
        assert!(last.position.is_some());
    }

    #[test]
    fn closed_form_requires_t_geometry() {
        let mut cfg = small_cfg();
        cfg.solver = SolverChoice::ClosedForm;
        let arr = AntennaArray::t_shape_extended(Vec3::new(0.0, 0.0, 1.0), 1.0, 2);
        assert_eq!(
            WiTrack::with_array(cfg, arr).err(),
            Some(BuildError::ClosedFormNeedsTArray)
        );
    }

    #[test]
    fn least_squares_handles_five_antennas() {
        let mut cfg = small_cfg();
        cfg.solver = SolverChoice::LeastSquares;
        let arr = AntennaArray::t_shape_extended(Vec3::new(0.0, 0.0, 1.0), 1.0, 2);
        let mut wt = WiTrack::with_array(cfg, arr).unwrap();
        let array = wt.array().clone();
        assert_eq!(array.num_rx(), 5);
        let mut got_position = false;
        for f in 0..40 {
            let p = Vec3::new(0.0, 4.0 + 0.02 * f as f64, 1.0);
            let sweeps = sweeps_for(&cfg, &array, p, 1.0);
            let refs: Vec<&[f64]> = sweeps.iter().map(|v| v.as_slice()).collect();
            for _ in 0..cfg.sweep.sweeps_per_frame {
                if let Some(u) = wt.push_sweeps(&refs) {
                    if let Some(est) = u.position {
                        got_position = true;
                        assert!(est.distance(p) < 1.0, "err {}", est.distance(p));
                    }
                }
            }
        }
        assert!(got_position);
    }

    #[test]
    fn invalid_sweep_rejected_at_build() {
        let mut cfg = small_cfg();
        cfg.sweep.bandwidth_hz = -1.0;
        assert!(matches!(WiTrack::new(cfg), Err(BuildError::BadSweep(_))));
    }

    #[test]
    #[should_panic]
    fn wrong_antenna_count_panics() {
        let cfg = small_cfg();
        let mut wt = WiTrack::new(cfg).unwrap();
        let sweep = vec![0.0; cfg.sweep.samples_per_sweep()];
        let _ = wt.push_sweeps(&[&sweep, &sweep]);
    }

    #[test]
    fn reset_allows_reuse() {
        let cfg = small_cfg();
        let mut wt = WiTrack::new(cfg).unwrap();
        let array = wt.array().clone();
        let sweeps = sweeps_for(&cfg, &array, Vec3::new(0.0, 4.0, 1.0), 1.0);
        let refs: Vec<&[f64]> = sweeps.iter().map(|v| v.as_slice()).collect();
        for _ in 0..cfg.sweep.sweeps_per_frame * 3 {
            wt.push_sweeps(&refs);
        }
        wt.reset();
        let mut first = None;
        for _ in 0..cfg.sweep.sweeps_per_frame {
            first = wt.push_sweeps(&refs);
        }
        assert_eq!(first.unwrap().frame_index, 0);
    }
}
