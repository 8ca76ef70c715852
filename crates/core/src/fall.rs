//! Fall detection (paper §6.2, evaluated in §9.5).
//!
//! The paper's rule, verbatim: *"To detect a fall, WiTrack requires two
//! conditions to be met: First, the person's elevation along the z axis must
//! change significantly (by more than one third of its value), and the final
//! value for her elevation must be close to the ground level. The second
//! condition is the change in elevation has to occur within a very short
//! period to reflect that people fall quicker than they sit."*
//!
//! [`classify_elevation_track`] applies the rule offline to a full `(t, z)`
//! track (how the paper processed its 132 logged trials); [`FallDetector`]
//! applies it online over a sliding window and edge-triggers a
//! [`FallEvent`].

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Tuning for the §6.2 rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FallConfig {
    /// Elevation below which the person is considered "close to the ground
    /// level" (m). Body centers settle around 0.1–0.3 m when on the floor.
    pub ground_z: f64,
    /// Required drop as a fraction of the prior elevation ("more than one
    /// third of its value").
    pub drop_fraction: f64,
    /// Maximum 10–90 % transition time for the drop to count as a fall
    /// rather than a (slow) sit (s).
    pub max_transition_s: f64,
    /// Elevation samples are analyzed over this trailing window (s).
    pub window_s: f64,
    /// Centered moving-average window applied to the elevation track before
    /// measuring crossing times (s). Raw tracked z jitters by ±0.1–0.2 m,
    /// and a single noisy sample crossing a threshold would collapse the
    /// measured transition time to ~0.
    pub smoothing_s: f64,
}

impl Default for FallConfig {
    fn default() -> Self {
        FallConfig {
            ground_z: 0.35,
            drop_fraction: 1.0 / 3.0,
            max_transition_s: 0.9,
            window_s: 6.0,
            smoothing_s: 0.3,
        }
    }
}

/// Half-width, in samples, of the centered moving average over `n`
/// samples spanning `span` seconds; `None` when the track is too short or
/// too degenerate to smooth (it is then used raw).
#[inline]
fn smoothing_half(n: usize, span: f64, window_s: f64) -> Option<usize> {
    if n < 3 || window_s <= 0.0 || span <= 0.0 {
        return None;
    }
    let dt = span / (n - 1) as f64;
    Some(((window_s / dt / 2.0).round() as usize).max(1))
}

/// Centered moving average over a time window (prefix-sum based).
fn smoothed(track: &[(f64, f64)], window_s: f64) -> Vec<(f64, f64)> {
    let n = track.len();
    let half = match track {
        [first, .., last] => smoothing_half(n, last.0 - first.0, window_s),
        _ => None,
    };
    let Some(half) = half else {
        return track.to_vec();
    };
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0.0);
    for &(_, z) in track {
        prefix.push(prefix.last().expect("non-empty") + z);
    }
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            (track[i].0, (prefix[hi] - prefix[lo]) / (hi - lo) as f64)
        })
        .collect()
}

/// A detected fall.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FallEvent {
    /// Time of detection (s).
    pub time_s: f64,
    /// Elevation before the drop (m).
    pub from_z: f64,
    /// Elevation after the drop (m).
    pub to_z: f64,
    /// Estimated 10–90 % transition duration (s).
    pub transition_s: f64,
}

/// Offline verdict for one activity trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// The track satisfies all fall conditions.
    Fall(FallEvent),
    /// The elevation never dropped significantly (walking, standing).
    NoSignificantDrop,
    /// Dropped, but settled above ground level (sat on a chair).
    NotNearGround,
    /// Dropped to the ground, but too slowly (sat on the floor).
    TooSlow(FallEvent),
}

impl Verdict {
    /// Whether the verdict classifies the trial as a fall.
    pub fn is_fall(&self) -> bool {
        matches!(self, Verdict::Fall(_))
    }
}

/// Estimates the 10–90 % crossing duration of a monotone-ish drop from
/// `hi` to `lo` inside `samples`.
fn transition_duration(samples: &[(f64, f64)], hi: f64, lo: f64) -> f64 {
    let drop = hi - lo;
    if drop <= 0.0 || samples.len() < 2 {
        return 0.0;
    }
    let z10 = hi - 0.1 * drop;
    let z90 = hi - 0.9 * drop;
    // Last time the track is still above z10 before it first dips under z90.
    let first_under_90 = samples.iter().position(|&(_, z)| z <= z90);
    let Some(i90) = first_under_90 else {
        return f64::INFINITY;
    };
    let t90 = samples[i90].0;
    let t10 = samples[..i90]
        .iter()
        .rev()
        .find(|&&(_, z)| z >= z10)
        .map(|&(t, _)| t)
        .unwrap_or(samples[0].0);
    // Scale the 10–90 span to a full-transition estimate.
    (t90 - t10) / 0.8
}

/// Applies the §6.2 rule to a complete elevation track.
///
/// The "prior elevation" is the median of the first quarter of the track
/// (the person is up and moving); the "final elevation" is the median of the
/// last second.
pub fn classify_elevation_track(raw_track: &[(f64, f64)], cfg: &FallConfig) -> Verdict {
    if raw_track.len() < 8 {
        return Verdict::NoSignificantDrop;
    }
    let track: &[(f64, f64)] = &smoothed(raw_track, cfg.smoothing_s);
    let quarter = (track.len() / 4).max(2);
    let mut head: Vec<f64> = track[..quarter].iter().map(|&(_, z)| z).collect();
    let from_z = witrack_dsp::stats::median_in_place(&mut head);
    let t_end = track.last().expect("non-empty").0;
    let mut tail: Vec<f64> = track
        .iter()
        .rev()
        .take_while(|&&(t, _)| t_end - t <= 1.0)
        .map(|&(_, z)| z)
        .collect();
    if tail.is_empty() {
        tail.push(track.last().expect("non-empty").1);
    }
    let to_z = witrack_dsp::stats::median_in_place(&mut tail);

    let drop = from_z - to_z;
    if drop < cfg.drop_fraction * from_z {
        return Verdict::NoSignificantDrop;
    }
    if to_z > cfg.ground_z {
        return Verdict::NotNearGround;
    }
    let transition_s = transition_duration(track, from_z, to_z);
    let event = FallEvent {
        time_s: t_end,
        from_z,
        to_z,
        transition_s,
    };
    if transition_s <= cfg.max_transition_s {
        Verdict::Fall(event)
    } else {
        Verdict::TooSlow(event)
    }
}

/// How far the newest smoothed elevation must clear a decision threshold
/// before [`FallDetector::push`] trusts its direct sum over the full
/// prefix-sum pass (m). Widened for windows whose magnitudes make the
/// two sums' rounding differ by more.
const EARLY_OUT_MARGIN_M: f64 = 1e-9;

/// Online fall detector over a sliding elevation window.
#[derive(Debug, Clone)]
pub struct FallDetector {
    cfg: FallConfig,
    window: VecDeque<(f64, f64)>,
    /// Suppresses duplicate events for the same drop.
    latched: bool,
    /// Largest `|z|` pushed since the last reset (infinite once a
    /// non-finite sample arrived): bounds the rounding gap between the
    /// early-out's direct sum and the full pass's prefix sums.
    max_abs_z: f64,
}

impl FallDetector {
    /// Creates an online detector.
    pub fn new(cfg: FallConfig) -> FallDetector {
        FallDetector {
            cfg,
            window: VecDeque::new(),
            latched: false,
            max_abs_z: 0.0,
        }
    }

    /// Pushes one elevation sample; returns a [`FallEvent`] at the moment a
    /// fall is first confirmed.
    ///
    /// All decisions run on the *smoothed* window: raw tracked elevation
    /// jitters by ±0.1–0.2 m, which would inflate the window maximum, fake
    /// near-ground dips, and collapse measured transition times.
    ///
    /// Most pushes are decided by the newest smoothed sample alone — a
    /// person standing well above the ground, or a latched one not yet
    /// back up — so that sample is computed first, over its few raw
    /// neighbours. Only when it sits within a rounding margin of the
    /// threshold, or past it, does the full window pass run; every
    /// decision is the one the full pass would make.
    pub fn push(&mut self, time_s: f64, z_raw: f64) -> Option<FallEvent> {
        self.admit(time_s, z_raw);
        if self.decided_by_newest_sample() {
            return None;
        }
        self.full_pass(time_s)
    }

    /// Appends one sample and evicts those older than the window.
    #[inline]
    fn admit(&mut self, time_s: f64, z_raw: f64) {
        self.window.push_back((time_s, z_raw));
        while let Some(&(t0, _)) = self.window.front() {
            if time_s - t0 > self.cfg.window_s {
                self.window.pop_front();
            } else {
                break;
            }
        }
        self.max_abs_z = if z_raw.is_finite() {
            self.max_abs_z.max(z_raw.abs())
        } else {
            f64::INFINITY
        };
    }

    /// The early-out: settles the push (and re-arms a latched detector)
    /// when the newest smoothed sample clears the deciding threshold —
    /// `ground_z` while armed, `ground_z + 0.2` while latched — by more
    /// than the rounding margin. `false` leaves the push to the full pass.
    #[inline]
    fn decided_by_newest_sample(&mut self) -> bool {
        let n = self.window.len();
        let (Some(&(t0, _)), Some(&(t1, z1))) = (self.window.front(), self.window.back()) else {
            return false;
        };
        // The smoothed window's last sample: the mean of raw samples
        // `lo..n`, exactly as `smoothed` bounds it.
        let z = match smoothing_half(n, t1 - t0, self.cfg.smoothing_s) {
            None => z1,
            Some(half) => {
                let lo = (n - 1).saturating_sub(half);
                self.window.range(lo..).map(|&(_, z)| z).sum::<f64>() / (n - lo) as f64
            }
        };
        // Both sums round; their gap is below 2·n²·ε·max|z|.
        let margin = EARLY_OUT_MARGIN_M.max(2.0 * (n * n) as f64 * f64::EPSILON * self.max_abs_z);
        if self.latched {
            let rearm = self.cfg.ground_z + 0.2;
            if z > rearm + margin {
                self.latched = false;
                return true;
            }
            z < rearm - margin
        } else {
            z > self.cfg.ground_z + margin
        }
    }

    /// The §6.2 decision over the whole smoothed window.
    fn full_pass(&mut self, time_s: f64) -> Option<FallEvent> {
        let raw: Vec<(f64, f64)> = self.window.iter().copied().collect();
        let samples = smoothed(&raw, self.cfg.smoothing_s);
        let z = samples.last().expect("window non-empty").1;
        let hi = samples.iter().map(|&(_, z)| z).fold(f64::MIN, f64::max);

        // Re-arm once the person is clearly up again.
        if self.latched {
            if z > self.cfg.ground_z + 0.2 {
                self.latched = false;
            }
            return None;
        }
        // Trigger condition: currently near the ground, recently up high.
        if z > self.cfg.ground_z || hi < 2.0 * self.cfg.ground_z {
            return None;
        }
        // Settle check: require ~0.3 s of near-ground samples at the tail so
        // we evaluate the completed transition, not its middle.
        let settled = samples
            .iter()
            .rev()
            .take_while(|&&(t, _)| time_s - t <= 0.3)
            .all(|&(_, z)| z <= self.cfg.ground_z + 0.05);
        if !settled {
            return None;
        }
        let drop = hi - z;
        if drop < self.cfg.drop_fraction * hi {
            return None;
        }
        let transition_s = transition_duration(&samples, hi, z);
        if transition_s <= self.cfg.max_transition_s {
            self.latched = true;
            Some(FallEvent {
                time_s,
                from_z: hi,
                to_z: z,
                transition_s,
            })
        } else {
            // A slow descent to the ground: latch anyway so we do not keep
            // re-evaluating the same sit as the window slides.
            self.latched = true;
            None
        }
    }

    /// Clears all state.
    pub fn reset(&mut self) {
        self.window.clear();
        self.latched = false;
        self.max_abs_z = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds an elevation track: up at `hi` until `t0`, smoothstep down to
    /// `lo` over `dur`, then settled until `t_end`.
    fn drop_track(hi: f64, lo: f64, t0: f64, dur: f64, t_end: f64) -> Vec<(f64, f64)> {
        let dt = 0.0125;
        let mut out = Vec::new();
        let mut t = 0.0;
        while t < t_end {
            let z = if t < t0 {
                hi
            } else if t < t0 + dur {
                let s = (t - t0) / dur;
                let s = s * s * (3.0 - 2.0 * s);
                hi + (lo - hi) * s
            } else {
                lo
            };
            out.push((t, z));
            t += dt;
        }
        out
    }

    #[test]
    fn fast_drop_to_ground_is_a_fall() {
        let track = drop_track(1.0, 0.1, 8.0, 0.4, 20.0);
        let v = classify_elevation_track(&track, &FallConfig::default());
        assert!(v.is_fall(), "{v:?}");
        if let Verdict::Fall(e) = v {
            assert!((e.from_z - 1.0).abs() < 0.05);
            assert!((e.to_z - 0.1).abs() < 0.05);
            assert!(e.transition_s < 0.7);
        }
    }

    #[test]
    fn slow_drop_to_ground_is_sitting() {
        let track = drop_track(1.0, 0.25, 8.0, 1.6, 20.0);
        let v = classify_elevation_track(&track, &FallConfig::default());
        assert!(matches!(v, Verdict::TooSlow(_)), "{v:?}");
    }

    #[test]
    fn chair_height_is_not_near_ground() {
        let track = drop_track(1.0, 0.62, 8.0, 0.9, 20.0);
        let v = classify_elevation_track(&track, &FallConfig::default());
        assert_eq!(v, Verdict::NotNearGround);
    }

    #[test]
    fn walking_never_triggers() {
        let dt = 0.0125;
        let track: Vec<(f64, f64)> = (0..1600)
            .map(|i| {
                let t = i as f64 * dt;
                (t, 1.0 + 0.03 * (2.0 * std::f64::consts::PI * 1.8 * t).sin())
            })
            .collect();
        assert_eq!(
            classify_elevation_track(&track, &FallConfig::default()),
            Verdict::NoSignificantDrop
        );
    }

    #[test]
    fn boundary_speed_respects_threshold() {
        let cfg = FallConfig::default();
        // Just inside the window.
        let fast = drop_track(1.0, 0.1, 8.0, cfg.max_transition_s * 0.9, 20.0);
        assert!(classify_elevation_track(&fast, &cfg).is_fall());
        // Clearly outside.
        let slow = drop_track(1.0, 0.1, 8.0, cfg.max_transition_s * 2.5, 20.0);
        assert!(!classify_elevation_track(&slow, &cfg).is_fall());
    }

    #[test]
    fn online_detector_fires_once_per_fall() {
        let mut det = FallDetector::new(FallConfig::default());
        let track = drop_track(1.0, 0.1, 8.0, 0.4, 20.0);
        let events: Vec<FallEvent> = track.iter().filter_map(|&(t, z)| det.push(t, z)).collect();
        assert_eq!(events.len(), 1, "events: {events:?}");
        let e = events[0];
        assert!(
            e.time_s > 8.0 && e.time_s < 10.0,
            "detected at {}",
            e.time_s
        );
        assert!(e.transition_s < 0.7);
    }

    #[test]
    fn online_detector_ignores_slow_sit_then_catches_later_fall() {
        let mut det = FallDetector::new(FallConfig::default());
        // Sit on floor slowly at t=5, stand back up at t=12, fall at t=20.
        let dt = 0.0125;
        let mut events = Vec::new();
        let mut t = 0.0;
        while t < 30.0 {
            let z = if t < 5.0 {
                1.0
            } else if t < 7.0 {
                1.0 - 0.75 * ((t - 5.0) / 2.0)
            } else if t < 12.0 {
                0.25
            } else if t < 13.0 {
                0.25 + 0.75 * (t - 12.0)
            } else if t < 20.0 {
                1.0
            } else if t < 20.4 {
                1.0 - 0.9 * ((t - 20.0) / 0.4)
            } else {
                0.1
            };
            if let Some(e) = det.push(t, z) {
                events.push(e);
            }
            t += dt;
        }
        assert_eq!(events.len(), 1, "events: {events:?}");
        assert!(events[0].time_s > 20.0);
    }

    /// The reference: every push through the full window pass, never
    /// the early-out.
    fn push_full(det: &mut FallDetector, time_s: f64, z_raw: f64) -> Option<FallEvent> {
        det.admit(time_s, z_raw);
        det.full_pass(time_s)
    }

    /// xorshift64*: a tiny seeded source for the randomized tracks.
    struct Rng(u64);

    impl Rng {
        fn next_f64(&mut self) -> f64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
        }

        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.next_f64()
        }
    }

    /// Feeds `track` to an early-out detector and a full-pass reference,
    /// asserting the same event and latch state after every push.
    fn assert_early_out_matches_full_pass(cfg: FallConfig, track: &[(f64, f64)], what: &str) {
        let mut fast = FallDetector::new(cfg);
        let mut reference = FallDetector::new(cfg);
        for (i, &(t, z)) in track.iter().enumerate() {
            let got = fast.push(t, z);
            let want = push_full(&mut reference, t, z);
            assert_eq!(got, want, "{what}: push {i} at t={t} z={z}");
            assert_eq!(
                fast.latched, reference.latched,
                "{what}: latch after push {i}"
            );
        }
    }

    #[test]
    fn early_out_matches_the_full_pass_push_by_push() {
        let cfg = FallConfig::default();
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for case in 0..16 {
            // Random walks, some wandering down to the floor.
            let mut z = rng.range(0.3, 1.4);
            let walk: Vec<(f64, f64)> = (0..900)
                .map(|i| {
                    z = (z + rng.range(-0.06, 0.06)).clamp(-0.1, 1.8);
                    (i as f64 * 0.0125, z)
                })
                .collect();
            assert_early_out_matches_full_pass(cfg, &walk, &format!("walk {case}"));

            // Real falls and slow sits, each followed by standing up and
            // another drop, so the latch arms, fires and re-arms.
            let fast_drop = rng.range(0.2, 0.8);
            let slow_drop = rng.range(1.2, 3.0);
            let hi = rng.range(0.8, 1.4);
            let lo = rng.range(0.0, 0.3);
            for (dur, kind) in [(fast_drop, "fall"), (slow_drop, "sit")] {
                let mut track = drop_track(hi, lo, 3.0, dur, 9.0);
                let up = drop_track(lo, hi, 0.0, 1.0, 6.0);
                track.extend(up.iter().map(|&(t, z)| (t + 9.0, z)));
                let again = drop_track(hi, lo, 2.0, dur, 8.0);
                track.extend(again.iter().map(|&(t, z)| (t + 15.0, z)));
                let noisy: Vec<(f64, f64)> = track
                    .iter()
                    .map(|&(t, z)| (t, z + rng.range(-0.05, 0.05)))
                    .collect();
                assert_early_out_matches_full_pass(cfg, &noisy, &format!("{kind} {case}"));
            }

            // Irregular frame times: jittered, repeated and gapped.
            let mut t = 0.0;
            let irregular: Vec<(f64, f64)> = (0..700)
                .map(|i| {
                    t += match i % 50 {
                        0 => 0.0,
                        25 => rng.range(0.2, 0.5),
                        _ => rng.range(0.002, 0.04),
                    };
                    let z = if (200..260).contains(&i) {
                        hi - (hi - lo) * (i - 200) as f64 / 60.0
                    } else if i >= 260 {
                        lo
                    } else {
                        hi
                    };
                    (t, z + rng.range(-0.03, 0.03))
                })
                .collect();
            assert_early_out_matches_full_pass(cfg, &irregular, &format!("irregular {case}"));
        }

        // Elevations parked within 1e-9 m of both thresholds: the armed
        // one (`ground_z`) and, after a fall latches, the re-arm one.
        for k in -25..=25 {
            let offset = k as f64 * 1e-10;
            let armed: Vec<(f64, f64)> = drop_track(1.0, cfg.ground_z + offset, 2.0, 0.4, 6.0);
            assert_early_out_matches_full_pass(cfg, &armed, &format!("armed park {k}"));
            let mut latched = drop_track(1.0, 0.1, 2.0, 0.4, 6.0);
            let rearm = cfg.ground_z + 0.2 + offset;
            latched.extend((0..400).map(|i| (6.0 + i as f64 * 0.0125, rearm)));
            assert_early_out_matches_full_pass(cfg, &latched, &format!("latched park {k}"));
        }
    }

    #[test]
    fn short_tracks_are_no_falls() {
        let v = classify_elevation_track(&[(0.0, 1.0), (0.1, 0.1)], &FallConfig::default());
        assert_eq!(v, Verdict::NoSignificantDrop);
    }
}
