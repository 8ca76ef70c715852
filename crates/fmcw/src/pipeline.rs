//! The §4 pipeline: one front end shared by every tracker, and the
//! single-antenna tracker built on it.
//!
//! [`FrontEnd`] owns the stages every tracker runs on every receive
//! antenna, behind one sweep clock: sweep accumulation and FFT (§4.1),
//! background subtraction (§4.2) and the bottom-contour tracker (§4.3).
//! What a tracker does with each antenna's background-subtracted frame is
//! its back end. The single-target trackers ([`TofEstimator`] here, on
//! one antenna, and `witrack_core::WiTrack`, on N) take the bottom
//! contour and denoise it (§4.4) with [`TofFrame::detect`]; the
//! multi-target `witrack_mtt::MultiWiTrack` takes the top-K contours.

use crate::background::BackgroundSubtractor;
use crate::config::SweepConfig;
use crate::contour::{ContourConfig, ContourTracker, Detection};
use crate::denoise::{DenoiseConfig, DenoisedDistance, DistanceDenoiser};
use crate::profile::{RangeProfiler, Sweep};
use std::time::Instant;
use witrack_dsp::window::WindowKind;

/// One sweep interval's baseband: one sweep per receive antenna, in any
/// of the forms the trackers accept.
#[derive(Debug, Clone, Copy)]
pub enum Sweeps<'a> {
    /// One float slice per antenna.
    PerRx(&'a [&'a [f64]]),
    /// One flat, antenna-contiguous float buffer and the sweep length:
    /// antenna `k`'s sweep occupies
    /// `flat[k * samples_per_sweep ..][.. samples_per_sweep]`, the layout
    /// wire batches arrive in.
    Flat(&'a [f64], usize),
    /// [`Sweeps::Flat`] over wire-quantized samples (`sample = q · scale`)
    /// and their scale. The profile front half stays in fixed point (see
    /// [`RangeProfiler::push_sweep_q`]).
    FlatQ(&'a [i16], usize, f64),
}

impl<'a> Sweeps<'a> {
    /// Panics unless the interval holds one non-empty sweep per antenna.
    fn check(self, num_rx: usize) {
        let (len, n) = match self {
            Sweeps::PerRx(per_rx) => (per_rx.len(), 1),
            Sweeps::Flat(flat, n) => (flat.len(), n),
            Sweeps::FlatQ(flat, n, _) => (flat.len(), n),
        };
        assert!(n > 0, "sweeps cannot be empty");
        assert_eq!(len, n * num_rx, "one sweep per receive antenna");
    }

    /// Antenna `rx`'s sweep.
    fn rx(self, rx: usize) -> Sweep<'a> {
        match self {
            Sweeps::PerRx(per_rx) => Sweep::F64(per_rx[rx]),
            Sweeps::Flat(flat, n) => Sweep::F64(&flat[rx * n..][..n]),
            Sweeps::FlatQ(flat, n, scale) => Sweep::Q(&flat[rx * n..][..n], scale),
        }
    }
}

/// Where a completed frame sits on its stream's sweep clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameClock {
    /// Index of the frame since the stream started.
    pub index: u64,
    /// Time (s) at the *end* of the frame's last sweep.
    pub time_s: f64,
    /// Frame duration (s), the step the back ends' filters advance by.
    pub duration_s: f64,
}

/// Wall times of one antenna's two heavy stages on a frame-completing
/// sweep (see [`FrontEnd::push`]). Nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Sweep accumulation + range profiling (the range-transform work).
    pub profile_ns: u64,
    /// Background subtraction + the back end's detect step (contour
    /// detection, and denoising in the single-target trackers).
    pub detect_ns: u64,
}

/// The §4.1–§4.3 stages of one receive antenna.
#[derive(Debug, Clone)]
struct Antenna {
    profiler: RangeProfiler,
    background: BackgroundSubtractor,
    contour: ContourTracker,
}

/// The §4 front end of one sensor: a range profiler, a background
/// subtractor and a contour tracker per receive antenna, on one sweep
/// clock. Every buffer is reused, so steady-state pushes never allocate.
#[derive(Debug, Clone)]
pub struct FrontEnd {
    cfg: SweepConfig,
    antennas: Vec<Antenna>,
    /// Per-antenna stage times of the last timed frame, reused.
    times: Vec<StageTimes>,
    sweeps_seen: u64,
    frame_index: u64,
}

impl FrontEnd {
    /// A front end for `num_rx` receive antennas, keeping range bins up
    /// to `max_round_trip_m` of round-trip distance.
    ///
    /// # Panics
    /// Panics if `num_rx` is zero.
    pub fn new(
        cfg: SweepConfig,
        max_round_trip_m: f64,
        contour: ContourConfig,
        num_rx: usize,
    ) -> FrontEnd {
        assert!(num_rx > 0, "a front end needs a receive antenna");
        FrontEnd {
            antennas: (0..num_rx)
                .map(|_| Antenna {
                    profiler: RangeProfiler::new(&cfg, WindowKind::Hann, max_round_trip_m),
                    background: BackgroundSubtractor::new(),
                    contour: ContourTracker::new(cfg, contour),
                })
                .collect(),
            times: vec![StageTimes::default(); num_rx],
            cfg,
            sweeps_seen: 0,
            frame_index: 0,
        }
    }

    /// Pushes one sweep interval. On a frame-completing interval it runs
    /// profile → background on each antenna in turn and hands `detect`
    /// the frame's clock, the antenna's index, its background-subtracted
    /// magnitudes (`None` on the baseline frame) and its contour tracker.
    /// It then returns the clock and, when `timed`, each antenna's
    /// [`StageTimes`] (empty otherwise). Accumulate-only intervals return
    /// `None` without calling `detect`.
    ///
    /// # Panics
    /// Panics unless `sweeps` holds exactly one sweep of
    /// `samples_per_sweep` samples per antenna.
    pub fn push<F>(
        &mut self,
        sweeps: Sweeps<'_>,
        timed: bool,
        mut detect: F,
    ) -> Option<(FrameClock, &[StageTimes])>
    where
        F: FnMut(FrameClock, usize, Option<&[f64]>, &mut ContourTracker),
    {
        sweeps.check(self.antennas.len());
        self.sweeps_seen += 1;
        // All profilers share the sweep clock.
        if !self.antennas[0].profiler.next_sweep_completes_frame() {
            for (rx, ant) in self.antennas.iter_mut().enumerate() {
                let emitted = ant.profiler.push(sweeps.rx(rx));
                debug_assert!(emitted.is_none(), "profilers desynchronized");
            }
            return None;
        }
        let clock = FrameClock {
            index: self.frame_index,
            time_s: self.sweeps_seen as f64 * self.cfg.sweep_duration_s,
            duration_s: self.cfg.frame_duration_s(),
        };
        let nanos =
            |start: Instant, end: Instant| (end - start).as_nanos().min(u64::MAX as u128) as u64;
        for (rx, (ant, times)) in self.antennas.iter_mut().zip(&mut self.times).enumerate() {
            let profile_start = timed.then(Instant::now);
            let profile = ant
                .profiler
                .push(sweeps.rx(rx))
                .expect("frame-completing sweep");
            let detect_start = profile_start.map(|start| {
                let now = Instant::now();
                times.profile_ns = nanos(start, now);
                now
            });
            detect(clock, rx, ant.background.push(profile), &mut ant.contour);
            if let Some(start) = detect_start {
                times.detect_ns = nanos(start, Instant::now());
            }
        }
        self.frame_index += 1;
        Some((clock, if timed { &self.times } else { &[] }))
    }

    /// Clears all stream state: partial frames, baselines and the sweep
    /// clock.
    pub fn reset(&mut self) {
        for ant in &mut self.antennas {
            ant.profiler.reset();
            ant.background.reset();
        }
        self.sweeps_seen = 0;
        self.frame_index = 0;
    }
}

/// Output of the single-target pipeline for one antenna and frame.
#[derive(Debug, Clone)]
pub struct TofFrame {
    /// Index of this frame since the stream started.
    pub frame_index: u64,
    /// Time (s) at the *end* of the frame's last sweep.
    pub time_s: f64,
    /// Background-subtracted magnitude spectrum (truncated range axis).
    /// Empty for the first frame (no baseline yet).
    pub magnitudes: Vec<f64>,
    /// Raw contour detection before denoising, if any.
    pub detection: Option<Detection>,
    /// Denoised round-trip distance, once the stream has been seeded.
    pub denoised: Option<DenoisedDistance>,
}

impl TofFrame {
    /// The single-target back end's detect step for one antenna
    /// (§4.3–§4.4): the bottom contour of `magnitudes`, denoised. The
    /// baseline frame (`magnitudes` is `None`) yields an empty frame and
    /// leaves the denoiser untouched.
    pub fn detect(
        clock: FrameClock,
        magnitudes: Option<&[f64]>,
        contour: &mut ContourTracker,
        denoiser: &mut DistanceDenoiser,
    ) -> TofFrame {
        let mut frame = TofFrame {
            frame_index: clock.index,
            time_s: clock.time_s,
            magnitudes: Vec::new(),
            detection: None,
            denoised: None,
        };
        if let Some(mags) = magnitudes {
            frame.detection = contour.detect(mags);
            frame.denoised =
                denoiser.push(frame.detection.map(|d| d.round_trip_m), clock.duration_s);
            frame.magnitudes = mags.to_vec();
        }
        frame
    }

    /// The clean round-trip estimate, if available.
    pub fn round_trip_m(&self) -> Option<f64> {
        self.denoised.map(|d| d.round_trip_m)
    }
}

/// End-to-end §4 processing for one receive antenna: a one-antenna
/// [`FrontEnd`] and a [`DistanceDenoiser`]. Push raw sweeps in; get a
/// [`TofFrame`] out every `sweeps_per_frame` sweeps.
#[derive(Debug, Clone)]
pub struct TofEstimator {
    front: FrontEnd,
    denoiser: DistanceDenoiser,
}

impl TofEstimator {
    /// Creates an estimator with default contour/denoise tuning, keeping
    /// range bins up to `max_round_trip_m`.
    pub fn new(cfg: SweepConfig, max_round_trip_m: f64) -> TofEstimator {
        TofEstimator::with_tuning(
            cfg,
            max_round_trip_m,
            ContourConfig::default(),
            DenoiseConfig::default(),
        )
    }

    /// Creates an estimator with explicit tuning.
    pub fn with_tuning(
        cfg: SweepConfig,
        max_round_trip_m: f64,
        contour: ContourConfig,
        denoise: DenoiseConfig,
    ) -> TofEstimator {
        TofEstimator {
            front: FrontEnd::new(cfg, max_round_trip_m, contour, 1),
            denoiser: DistanceDenoiser::new(denoise),
        }
    }

    /// Pushes one sweep of baseband samples; returns a frame every
    /// `sweeps_per_frame` sweeps.
    ///
    /// # Panics
    /// Panics if `samples` is not exactly one sweep long.
    pub fn push_sweep(&mut self, samples: &[f64]) -> Option<TofFrame> {
        self.push(Sweeps::Flat(samples, samples.len()))
    }

    /// Pushes one wire-quantized sweep (`sample = q · scale`), keeping
    /// the profile front half in fixed point (see
    /// [`RangeProfiler::push_sweep_q`]).
    ///
    /// # Panics
    /// Panics if `samples` is not exactly one sweep long.
    pub fn push_sweep_q(&mut self, samples: &[i16], scale: f64) -> Option<TofFrame> {
        self.push(Sweeps::FlatQ(samples, samples.len(), scale))
    }

    fn push(&mut self, sweep: Sweeps<'_>) -> Option<TofFrame> {
        let denoiser = &mut self.denoiser;
        let mut frame = None;
        self.front.push(sweep, false, |clock, _, mags, contour| {
            frame = Some(TofFrame::detect(clock, mags, contour, denoiser));
        });
        frame
    }

    /// Clears all stream state (baseline, denoiser history, counters).
    pub fn reset(&mut self) {
        self.front.reset();
        self.denoiser.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// Reduced config so tests run in milliseconds.
    fn small_cfg() -> SweepConfig {
        SweepConfig {
            start_freq_hz: 5.56e8,
            bandwidth_hz: 1.69e8, // bin = 1.77 m round trip
            sweep_duration_s: 1e-3,
            sample_rate_hz: 250e3,
            sweeps_per_frame: 5,
            transmit_power_w: 1e-3,
        }
    }

    /// Synthesizes one dechirped sweep: a tone per reflector with the
    /// carrier phase term that makes moving targets survive background
    /// subtraction.
    fn sweep(cfg: &SweepConfig, reflectors: &[(f64, f64)]) -> Vec<f64> {
        let n = cfg.samples_per_sweep();
        let mut out = vec![0.0; n];
        for &(round_trip, amp) in reflectors {
            let tau = round_trip / crate::config::SPEED_OF_LIGHT;
            let beat = cfg.beat_for_tof(tau);
            let phase = 2.0 * PI * cfg.start_freq_hz * tau;
            for (i, o) in out.iter_mut().enumerate() {
                let t = i as f64 / cfg.sample_rate_hz;
                *o += amp * (2.0 * PI * beat * t + phase).cos();
            }
        }
        out
    }

    #[test]
    fn static_scene_never_detects() {
        let cfg = small_cfg();
        let mut est = TofEstimator::new(cfg, 60.0);
        let s = sweep(&cfg, &[(10.0, 50.0), (24.0, 80.0)]);
        let mut frames = 0;
        for _ in 0..cfg.sweeps_per_frame * 20 {
            if let Some(f) = est.push_sweep(&s) {
                frames += 1;
                assert!(
                    f.detection.is_none(),
                    "static reflectors must be subtracted away"
                );
            }
        }
        assert_eq!(frames, 20);
    }

    #[test]
    fn moving_target_is_tracked_through_clutter() {
        let cfg = small_cfg();
        let mut est = TofEstimator::new(cfg, 80.0);
        let mut errors = Vec::new();
        let frame_count = 120;
        for f in 0..frame_count {
            // Body walks outward 10 → 12 m round trip behind huge clutter.
            // Frames are 5 ms in this reduced config, so 2 m over 120 frames
            // is a 3.3 m/s round-trip speed — brisk but physical.
            let rt = 10.0 + 2.0 * f as f64 / frame_count as f64;
            for _ in 0..cfg.sweeps_per_frame {
                let s = sweep(&cfg, &[(6.0, 100.0), (30.0, 120.0), (rt, 1.0)]);
                if let Some(out) = est.push_sweep(&s) {
                    if f > 10 {
                        if let Some(d) = out.round_trip_m() {
                            errors.push((d - rt).abs());
                        }
                    }
                }
            }
        }
        assert!(!errors.is_empty(), "tracker produced no estimates");
        let median = witrack_dsp::stats::median(&errors);
        // Bin size is 1.77 m in this reduced config; sub-bin refinement and
        // the Kalman filter should land well under one bin.
        assert!(median < 0.3, "median error {median}");
    }

    #[test]
    fn frame_cadence_and_indices() {
        let cfg = small_cfg();
        let mut est = TofEstimator::new(cfg, 60.0);
        let s = sweep(&cfg, &[(12.0, 10.0)]);
        let mut seen = Vec::new();
        for _ in 0..23 {
            if let Some(f) = est.push_sweep(&s) {
                seen.push(f.frame_index);
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn first_frame_has_no_baseline() {
        let cfg = small_cfg();
        let mut est = TofEstimator::new(cfg, 60.0);
        let s = sweep(&cfg, &[(12.0, 10.0)]);
        let mut first = None;
        for _ in 0..cfg.sweeps_per_frame {
            first = est.push_sweep(&s);
        }
        let f = first.unwrap();
        assert!(f.magnitudes.is_empty());
        assert!(f.detection.is_none());
    }

    #[test]
    fn reset_restarts_stream() {
        let cfg = small_cfg();
        let mut est = TofEstimator::new(cfg, 60.0);
        let s = sweep(&cfg, &[(12.0, 10.0)]);
        for _ in 0..cfg.sweeps_per_frame * 3 {
            est.push_sweep(&s);
        }
        est.reset();
        let mut first = None;
        for _ in 0..cfg.sweeps_per_frame {
            first = est.push_sweep(&s);
        }
        let f = first.unwrap();
        assert_eq!(f.frame_index, 0);
        assert!(f.magnitudes.is_empty());
    }

    #[test]
    fn paper_config_tracks_at_fine_resolution() {
        // Full 2500-sample sweeps at the real bandwidth: one frame's worth,
        // verifying the exact-length Bluestein path in context.
        let cfg = SweepConfig::witrack();
        let mut est = TofEstimator::new(cfg, 30.0);
        // Two frames static scene, then the body moves by 5 cm per frame.
        let clutter = [(4.0, 50.0), (9.0, 70.0)];
        let mut detections = Vec::new();
        for f in 0..8 {
            let rt = 12.0 + 0.05 * f as f64;
            for _ in 0..cfg.sweeps_per_frame {
                let mut refl = clutter.to_vec();
                refl.push((rt, 1.0));
                let s = sweep(&cfg, &refl);
                if let Some(out) = est.push_sweep(&s) {
                    if let Some(d) = out.detection {
                        detections.push((d.round_trip_m - rt).abs());
                    }
                }
            }
        }
        assert!(!detections.is_empty());
        let worst = detections.iter().cloned().fold(0.0_f64, f64::max);
        // Within one range bin (0.177 m round trip) of the truth.
        assert!(worst < 0.2, "worst raw detection error {worst}");
    }
}
