//! RF propagation and FMCW front-end simulator for the WiTrack reproduction.
//!
//! The paper's testbed is hardware we cannot run: an analog FMCW front end
//! (VCO + PLL + mixer) feeding a USRP, a real through-wall environment, and
//! a VICON motion-capture rig for ground truth. This crate substitutes all
//! three (see DESIGN.md §2) while preserving the phenomena the WiTrack
//! pipeline exists to handle:
//!
//! * the **Flash Effect** — static walls/furniture reflect far more power
//!   than the body (§4.2),
//! * **dynamic multipath** — body echoes that bounce off side walls arrive
//!   later but can be *stronger* than an occluded direct path (§4.3),
//! * **through-wall attenuation** and SNR loss with distance (§9.1–9.2),
//! * **specular-point wander** over the torso, which is why the paper's
//!   z-accuracy is ~2× worse than x/y (§9.1),
//! * quasi-static motion over one 12.5 ms frame, sub-bin carrier-phase
//!   rotation between frames (what makes background subtraction work).
//!
//! Layers, bottom-up: [`material`]/[`scene`] (geometry + losses), [`body`]
//! (reflector model), [`motion`] (trajectories, activities, gestures),
//! [`channel`] (echo paths per antenna), [`frontend`] (baseband synthesis,
//! including a full chirp-mixing validation path), and one room engine,
//! [`vantage`]'s [`MultiVantageSimulator`]: N people observed by V posed
//! sensors, emitting per-sensor sweeps and recording VICON-style ground
//! truth. Three constructors sit on that engine:
//!
//! * [`simulator`]'s [`Simulator`] — one person, one sensor at the
//!   identity pose: the paper's §8 protocol;
//! * [`multi`]'s [`MultiSimulator`] — N people, one sensor: the §10
//!   multi-person case;
//! * [`MultiVantageSimulator::new`] — N people, V posed sensors with
//!   overlapping coverage: the workload of cross-sensor fusion
//!   (`witrack-fuse`).
//!
//! [`fleet`] scales the stack out: K independent rooms emitting
//! per-sensor sweep streams in lockstep, the workload of the
//! `witrack-serve` engine. [`chaos`] builds adversarial variants of the
//! fused rooms declaratively: dense crowds, non-human movers, co-channel
//! interference, clock drift, and transport fault schedules, for the
//! degradation harness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod body;
pub mod channel;
pub mod chaos;
pub mod fleet;
pub mod frontend;
pub mod material;
pub mod motion;
pub mod multi;
pub mod scene;
pub mod simulator;
pub mod vantage;

pub use body::BodyModel;
pub use channel::{Channel, PathEcho};
pub use chaos::{ChaosScenario, FaultScheduleSpec, MoverKind, ScenarioSpec};
pub use fleet::{FleetConfig, FleetSimulator, RoomSweeps};
pub use frontend::FrontEnd;
pub use material::Material;
pub use motion::{BodyState, MotionModel};
pub use multi::{scenario, MultiSimulator, PersonSpec};
pub use scene::{Scene, StaticReflector, Wall};
pub use simulator::{SimConfig, Simulator, SweepSet};
pub use vantage::{MultiVantageSimulator, VantageSpec};

use rand::Rng;

/// Standard normal sample via Box–Muller (the approved crate list has `rand`
/// but not `rand_distr`).
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.random();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.random();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

/// The reduced 100-sample sweep every unit test in this crate runs, at
/// receiver noise σ 0.02 and the given master seed.
#[cfg(test)]
pub(crate) fn quick_cfg(seed: u64) -> SimConfig {
    SimConfig {
        sweep: witrack_fmcw::SweepConfig {
            start_freq_hz: 5.56e8,
            bandwidth_hz: 1.69e8,
            sweep_duration_s: 1e-3,
            sample_rate_hz: 100e3,
            sweeps_per_frame: 5,
            transmit_power_w: 1e-3,
        },
        noise_std: 0.02,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_moments_are_standard() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn gaussian_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        for _ in 0..100 {
            assert_eq!(gaussian(&mut a), gaussian(&mut b));
        }
    }
}
