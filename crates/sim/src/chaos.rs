//! Declarative chaos scenarios: crowded rooms, non-human movers, RF
//! interference, clock drift, and transport fault schedules — as data.
//!
//! The robustness harness (`t_chaos`, degradation tests) needs many
//! *variations* of one underlying experiment: a hallway watched by a
//! facing sensor pair, stressed along one axis at a time. Encoding each
//! variation imperatively in the harness buries what is actually being
//! tested; a [`ScenarioSpec`] instead names the stressors declaratively
//! and [`ScenarioSpec::build`] assembles the simulator:
//!
//! * **Crowds** — 8–12 independent random walkers break the paper's 1–4
//!   user assumption (§9.4: "up to four users" per device).
//! * **Non-human movers** ([`MoverKind`]) — a pet at knee height, an
//!   oscillating fan, a swinging door: moving reflectors that survive
//!   background subtraction yet are not people (the §10 limitation).
//! * **Inter-sensor interference** — a second WiTrack transmitting in
//!   band raises every receiver's noise floor (the paper's FMCW slopes
//!   are uncoordinated, so cross-chirp energy smears across range bins;
//!   modeled as added white noise of configurable σ).
//! * **Clock drift** — each sensor's reported timestamps run fast or
//!   slow by a rate; fusion must keep pairing epochs anyway.
//! * **Transport faults** ([`FaultScheduleSpec`]) — a plain-data mirror
//!   of the serving layer's fault plan (drop/duplicate/reorder/corrupt/
//!   stall/burst), carried alongside the scenario so one spec describes
//!   the *whole* chaos run. The sim crate deliberately does not depend
//!   on `witrack-serve`; the harness maps this onto its `FaultPlan`.
//!
//! Everything derives deterministically from [`ScenarioSpec::seed`].

use crate::body::BodyModel;
use crate::fleet::RoomSweeps;
use crate::motion::{BodyState, MotionModel, RandomWalk, Rect};
use crate::multi::PersonSpec;
use crate::simulator::SimConfig;
use crate::vantage::{scenario, MultiVantageSimulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use witrack_fmcw::SweepConfig;
use witrack_geom::{AntennaArray, Vec3};

/// A moving reflector that is not a person.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoverKind {
    /// A cat-sized body wandering at ~0.3 m height: small RCS, real
    /// motion, plausible track bait.
    Pet,
    /// An oscillating fan: a small reflector sweeping side to side at a
    /// fixed station, moving every single frame.
    Fan,
    /// A door swinging open and closed on a hinge every few seconds: a
    /// large flat reflector with intermittent motion.
    Door,
}

impl MoverKind {
    /// Harness-facing label.
    pub fn name(&self) -> &'static str {
        match self {
            MoverKind::Pet => "pet",
            MoverKind::Fan => "fan",
            MoverKind::Door => "door",
        }
    }
}

/// Transport fault probabilities, as data (per frame, `0.0..=1.0`).
///
/// Mirrors the serving layer's fault plan field-for-field without
/// depending on it; `Default` injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultScheduleSpec {
    /// Fault-sequence seed.
    pub seed: u64,
    /// Frame drop probability.
    pub drop: f64,
    /// Frame duplication probability.
    pub duplicate: f64,
    /// Hold-and-overtake probability.
    pub reorder: f64,
    /// Max frames that may overtake a held frame.
    pub reorder_window: usize,
    /// Payload corruption probability.
    pub corrupt: f64,
    /// Sender stall probability.
    pub stall: f64,
    /// Stall length (ms).
    pub stall_ms: u64,
    /// Withhold-then-flush cycle probability.
    pub burst: f64,
    /// Frames per burst cycle.
    pub burst_len: usize,
}

impl Default for FaultScheduleSpec {
    fn default() -> Self {
        FaultScheduleSpec {
            seed: 1,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_window: 3,
            corrupt: 0.0,
            stall: 0.0,
            stall_ms: 20,
            burst: 0.0,
            burst_len: 8,
        }
    }
}

/// One named chaos experiment, declaratively.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (benchmark row / report key).
    pub name: String,
    /// Hallway length (m); the facing sensor pair sits at its ends.
    pub hallway_m: f64,
    /// Per-sensor coverage reach (m); `2 × coverage > hallway` overlaps.
    pub coverage_m: f64,
    /// Human walkers (independent seeded random walks).
    pub walkers: usize,
    /// Non-human movers sharing the room.
    pub movers: Vec<MoverKind>,
    /// Added receiver noise σ from a co-channel WiTrack (0 = clean RF).
    pub interference_std: f64,
    /// Per-sensor clock-rate error, seconds of drift per second of true
    /// time (e.g. `50e-6` = 50 ppm fast). Sensors absent here are exact.
    pub clock_drift: Vec<(u32, f64)>,
    /// Scenario length (s).
    pub duration_s: f64,
    /// Master seed: walker paths, mover paths, interference noise.
    pub seed: u64,
    /// Transport fault schedule riding along for the harness.
    pub faults: FaultScheduleSpec,
}

impl ScenarioSpec {
    /// A clean baseline: one walker, 12 m hallway, 8 m coverage, no
    /// stressors.
    pub fn new(name: impl Into<String>) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            hallway_m: 12.0,
            coverage_m: 8.0,
            walkers: 1,
            movers: Vec::new(),
            interference_std: 0.0,
            clock_drift: Vec::new(),
            duration_s: 4.0,
            seed: 1,
            faults: FaultScheduleSpec::default(),
        }
    }

    /// Sets the walker count (8–12 for the dense-crowd scenarios).
    pub fn with_walkers(mut self, n: usize) -> ScenarioSpec {
        self.walkers = n;
        self
    }

    /// Adds one non-human mover.
    pub fn with_mover(mut self, kind: MoverKind) -> ScenarioSpec {
        self.movers.push(kind);
        self
    }

    /// Sets co-channel interference noise σ.
    pub fn with_interference(mut self, std: f64) -> ScenarioSpec {
        self.interference_std = std;
        self
    }

    /// Gives `sensor`'s clock a rate error (s of drift per true s).
    pub fn with_clock_drift(mut self, sensor: u32, rate: f64) -> ScenarioSpec {
        self.clock_drift.push((sensor, rate));
        self
    }

    /// Sets the room geometry.
    pub fn with_room(mut self, hallway_m: f64, coverage_m: f64) -> ScenarioSpec {
        self.hallway_m = hallway_m;
        self.coverage_m = coverage_m;
        self
    }

    /// Sets the scenario duration.
    pub fn with_duration(mut self, seconds: f64) -> ScenarioSpec {
        self.duration_s = seconds;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> ScenarioSpec {
        self.seed = seed;
        self
    }

    /// Attaches a transport fault schedule.
    pub fn with_faults(mut self, faults: FaultScheduleSpec) -> ScenarioSpec {
        self.faults = faults;
        self
    }

    /// Assembles the simulator: a facing sensor pair on this hallway,
    /// `walkers` seeded random walks, the movers, and wrappers applying
    /// interference and clock drift to the emitted rounds.
    ///
    /// # Panics
    /// Panics when the spec has no walkers and no movers (an empty room
    /// has nothing to simulate).
    pub fn build(&self, sweep: SweepConfig, noise_std: f64) -> ChaosScenario {
        assert!(
            self.walkers > 0 || !self.movers.is_empty(),
            "scenario {:?} is an empty room",
            self.name
        );
        let mut people = Vec::with_capacity(self.walkers + self.movers.len());
        // Walkers keep a margin off the end walls so every one of them
        // spends time inside at least one sensor's coverage.
        let region = Rect {
            x_min: -1.8,
            x_max: 1.8,
            y_min: 1.5,
            y_max: self.hallway_m - 1.5,
        };
        for w in 0..self.walkers {
            people.push(PersonSpec::adult(RandomWalk::new(
                region,
                1.0,
                1.0,
                self.duration_s,
                0.2,
                self.seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(w as u64 + 1),
            )));
        }
        let mid = self.hallway_m / 2.0;
        for (mi, mover) in self.movers.iter().enumerate() {
            let mover_seed = self
                .seed
                .wrapping_mul(0xD134_2543_DE82_EF95)
                .wrapping_add(mi as u64 + 1);
            people.push(match mover {
                MoverKind::Pet => PersonSpec {
                    body: BodyModel::scaled(0.35),
                    motion: Box::new(RandomWalk::new(
                        region,
                        0.3,
                        1.3,
                        self.duration_s,
                        0.4,
                        mover_seed,
                    )),
                },
                MoverKind::Fan => PersonSpec {
                    body: BodyModel::scaled(0.25),
                    motion: Box::new(Oscillate {
                        anchor: Vec3::new(1.6, mid - 1.0, 0.8),
                        amplitude: Vec3::new(0.25, 0.0, 0.0),
                        freq_hz: 0.4,
                        duration: self.duration_s,
                    }),
                },
                MoverKind::Door => PersonSpec {
                    body: BodyModel::scaled(0.8),
                    motion: Box::new(DoorSwing {
                        hinge: Vec3::new(-1.9, mid + 1.5, 1.0),
                        radius: 0.8,
                        swing_s: 1.5,
                        rest_s: 3.0,
                        duration: self.duration_s,
                    }),
                },
            });
        }
        let sim = MultiVantageSimulator::new(
            SimConfig {
                sweep,
                noise_std,
                seed: self.seed,
            },
            AntennaArray::t_shape(Vec3::new(0.0, 0.0, 1.0), 1.0),
            scenario::facing_pair(self.hallway_m, self.coverage_m),
            people,
        );
        ChaosScenario {
            sim,
            humans: self.walkers,
            interference_std: self.interference_std,
            drift: self.clock_drift.iter().copied().collect(),
            rng: StdRng::seed_from_u64(self.seed.wrapping_mul(0xA076_1D64_78BD_642F)),
        }
    }
}

/// A built scenario: the simulator plus the round-level stressors.
pub struct ChaosScenario {
    sim: MultiVantageSimulator,
    humans: usize,
    interference_std: f64,
    drift: HashMap<u32, f64>,
    rng: StdRng,
}

impl ChaosScenario {
    /// The underlying simulator (truth access, coverage queries).
    pub fn sim(&self) -> &MultiVantageSimulator {
        &self.sim
    }

    /// How many of the simulated bodies are humans. Bodies `0..humans()`
    /// are the walkers; anything above is a non-human mover the tracker
    /// is allowed (encouraged) to ignore.
    pub fn humans(&self) -> usize {
        self.humans
    }

    /// Next lockstep round across both sensors, with interference noise
    /// added and per-sensor clock drift applied to the timestamps.
    pub fn next_round(&mut self) -> Option<Vec<RoomSweeps>> {
        let mut round = self.sim.next_round()?;
        for rs in &mut round {
            if self.interference_std > 0.0 {
                for sweep in &mut rs.set.per_rx {
                    for s in sweep.iter_mut() {
                        *s += self.interference_std * crate::gaussian(&mut self.rng);
                    }
                }
            }
            if let Some(rate) = self.drift.get(&rs.sensor_id) {
                // A rate error compounds: the sensor's clock reads
                // (1 + rate) × true time.
                rs.set.time_s *= 1.0 + rate;
            }
        }
        Some(round)
    }
}

/// Sinusoidal station-keeping (the fan): always moving, never travels.
struct Oscillate {
    anchor: Vec3,
    amplitude: Vec3,
    freq_hz: f64,
    duration: f64,
}

impl MotionModel for Oscillate {
    fn state(&self, t: f64) -> BodyState {
        let phase = (2.0 * std::f64::consts::PI * self.freq_hz * t).sin();
        BodyState {
            center: self.anchor + self.amplitude * phase,
            hand: None,
            moving: true,
        }
    }

    fn duration(&self) -> f64 {
        self.duration
    }
}

/// A door on a hinge: swings 90° open over `swing_s`, rests, swings
/// shut, rests — the reflector is the door's mid-plane point.
struct DoorSwing {
    hinge: Vec3,
    radius: f64,
    swing_s: f64,
    rest_s: f64,
    duration: f64,
}

impl MotionModel for DoorSwing {
    fn state(&self, t: f64) -> BodyState {
        let cycle = 2.0 * (self.swing_s + self.rest_s);
        let phase = t.rem_euclid(cycle);
        // Angle 0 = shut (flush along +y from the hinge), π/2 = open.
        let (angle, moving) = if phase < self.swing_s {
            ((phase / self.swing_s) * std::f64::consts::FRAC_PI_2, true)
        } else if phase < self.swing_s + self.rest_s {
            (std::f64::consts::FRAC_PI_2, false)
        } else if phase < 2.0 * self.swing_s + self.rest_s {
            let back = (phase - self.swing_s - self.rest_s) / self.swing_s;
            ((1.0 - back) * std::f64::consts::FRAC_PI_2, true)
        } else {
            (0.0, false)
        };
        let center =
            self.hinge + Vec3::new(self.radius * angle.sin(), self.radius * angle.cos(), 0.0);
        BodyState {
            center,
            hand: None,
            moving,
        }
    }

    fn duration(&self) -> f64 {
        self.duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quick_cfg;

    #[test]
    fn a_dense_crowd_builds_and_emits() {
        let spec = ScenarioSpec::new("crowd")
            .with_walkers(10)
            .with_mover(MoverKind::Pet)
            .with_mover(MoverKind::Fan)
            .with_mover(MoverKind::Door)
            .with_duration(0.05);
        let mut built = spec.build(quick_cfg(0).sweep, 0.02);
        assert_eq!(built.humans(), 10);
        assert_eq!(built.sim().num_people(), 13);
        let round = built.next_round().expect("emits");
        assert_eq!(round.len(), 2, "facing pair");
        assert_eq!(round[0].set.per_rx.len(), 3);
    }

    #[test]
    fn scenarios_are_deterministic_per_seed() {
        let spec = ScenarioSpec::new("det")
            .with_walkers(3)
            .with_interference(0.05)
            .with_duration(0.02)
            .with_seed(77);
        let mut a = spec.build(quick_cfg(0).sweep, 0.02);
        let mut b = spec.clone().build(quick_cfg(0).sweep, 0.02);
        while let (Some(ra), Some(rb)) = (a.next_round(), b.next_round()) {
            for (x, y) in ra.iter().zip(&rb) {
                assert_eq!(x.set.per_rx, y.set.per_rx);
            }
        }
        let mut c = spec.with_seed(78).build(quick_cfg(0).sweep, 0.02);
        let (ra, rc) = (
            ScenarioSpec::new("det")
                .with_walkers(3)
                .with_interference(0.05)
                .with_duration(0.02)
                .with_seed(77)
                .build(quick_cfg(0).sweep, 0.02)
                .next_round()
                .unwrap(),
            c.next_round().unwrap(),
        );
        assert_ne!(ra[0].set.per_rx, rc[0].set.per_rx, "seed changes the RF");
    }

    #[test]
    fn interference_raises_the_noise_floor() {
        let clean = ScenarioSpec::new("clean").with_duration(0.01);
        let noisy = clean.clone().with_interference(0.5);
        let ra = clean
            .build(quick_cfg(0).sweep, 0.02)
            .next_round()
            .expect("clean round");
        let rb = noisy
            .build(quick_cfg(0).sweep, 0.02)
            .next_round()
            .expect("noisy round");
        // Same seed → identical underlying samples, so the difference is
        // exactly the injected co-channel noise; its mean square should
        // sit near σ² = 0.25.
        let (a, b) = (&ra[0].set.per_rx[0], &rb[0].set.per_rx[0]);
        let n = a.len() as f64;
        let msd = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / n;
        assert!(
            (0.1..0.5).contains(&msd),
            "injected noise power {msd} should be near 0.25"
        );
    }

    #[test]
    fn clock_drift_skews_exactly_the_drifting_sensor() {
        let spec = ScenarioSpec::new("drift")
            .with_duration(0.01)
            .with_clock_drift(1, 0.01); // 1% fast: visible at t > 0
        let mut built = spec.build(quick_cfg(0).sweep, 0.02);
        built.next_round().expect("round 0"); // t = 0: drift invisible
        let round = built.next_round().expect("round 1");
        let (s0, s1) = (&round[0], &round[1]);
        assert_eq!(s0.sensor_id, 0);
        assert_eq!(s1.sensor_id, 1);
        assert!(
            (s1.set.time_s - s0.set.time_s * 1.01).abs() < 1e-12,
            "sensor 1 runs 1% fast: {} vs {}",
            s1.set.time_s,
            s0.set.time_s
        );
    }

    #[test]
    fn movers_move_like_they_should() {
        let fan = Oscillate {
            anchor: Vec3::new(1.0, 5.0, 0.8),
            amplitude: Vec3::new(0.25, 0.0, 0.0),
            freq_hz: 0.5,
            duration: 10.0,
        };
        let s0 = fan.state(0.0);
        let s1 = fan.state(0.5); // quarter period: max deflection
        assert!(s0.moving && s1.moving, "a fan never stops");
        assert!((s1.center.x - 1.25).abs() < 1e-9);
        assert!((s0.center - fan.anchor).norm() < 1e-9);

        let door = DoorSwing {
            hinge: Vec3::new(0.0, 0.0, 1.0),
            radius: 1.0,
            swing_s: 1.0,
            rest_s: 2.0,
            duration: 20.0,
        };
        let shut = door.state(5.5); // tail of the cycle: shut, resting
        assert!(!shut.moving);
        assert!((shut.center - Vec3::new(0.0, 1.0, 1.0)).norm() < 1e-9);
        let open = door.state(1.5); // mid-rest, fully open
        assert!(!open.moving);
        assert!((open.center - Vec3::new(1.0, 0.0, 1.0)).norm() < 1e-9);
        let swinging = door.state(0.5);
        assert!(swinging.moving, "mid-swing is motion");
        // The door tip stays on the hinge circle throughout.
        assert!(((swinging.center - door.hinge).norm() - 1.0).abs() < 1e-9);
    }
}
