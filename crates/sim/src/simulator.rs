//! The single-subject experiment driver: motion + channel + front end +
//! ground truth.
//!
//! A [`Simulator`] plays one [`MotionModel`] through the [`Channel`] and
//! [`FrontEnd`](crate::FrontEnd), producing the per-antenna baseband
//! sweeps the real prototype's USRP would deliver — and, like the paper's
//! VICON rig (§8(a)), it knows the exact body trajectory, including the
//! mean body-surface point that the paper's depth compensation reduces
//! evaluation to. It is a constructor of the room engine
//! ([`MultiVantageSimulator`]): one person, one vantage at the identity
//! pose, no coverage edge.

use crate::channel::Channel;
use crate::motion::{BodyState, MotionModel};
use crate::multi::PersonSpec;
use crate::vantage::MultiVantageSimulator;
use witrack_fmcw::SweepConfig;
use witrack_geom::Vec3;

/// Top-level simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// FMCW sweep parameters (defaults to the paper's prototype).
    pub sweep: SweepConfig,
    /// Per-sample AWGN std-dev at the receiver.
    pub noise_std: f64,
    /// Master seed: derives the front-end noise and specular-wander streams.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            sweep: SweepConfig::witrack(),
            noise_std: 0.05,
            seed: 0,
        }
    }
}

/// One sweep interval's worth of baseband, for all receive antennas.
#[derive(Debug, Clone)]
pub struct SweepSet {
    /// Index of this sweep since the experiment started.
    pub sweep_index: u64,
    /// Time (s) at the *start* of this sweep.
    pub time_s: f64,
    /// Baseband samples per receive antenna, `per_rx[k][sample]`.
    pub per_rx: Vec<Vec<f64>>,
}

/// Plays a motion script through the RF channel, emitting baseband sweeps.
pub struct Simulator {
    room: MultiVantageSimulator,
}

impl Simulator {
    /// Creates a simulator for one person with `channel.body`. Each
    /// receive antenna gets an independent noise stream; the
    /// specular-wander stream is shared (the body is one object seen by
    /// all antennas).
    pub fn new(cfg: SimConfig, channel: Channel, motion: Box<dyn MotionModel>) -> Simulator {
        let person = PersonSpec {
            body: channel.body,
            motion,
        };
        Simulator {
            room: MultiVantageSimulator::unposed(cfg, channel, vec![person]),
        }
    }

    /// The channel (scene/array/body) being simulated.
    pub fn channel(&self) -> &Channel {
        self.room.channel(0)
    }

    /// Total sweeps this experiment will emit.
    pub fn total_sweeps(&self) -> u64 {
        self.room.total_sweeps()
    }

    /// True body state at time `t` (the "VICON" feed).
    pub fn true_state(&self, t: f64) -> BodyState {
        self.room.true_state(0, t)
    }

    /// The §8(a)-compensated ground truth at time `t`: the *mean body
    /// surface point facing the array*, which is what an unbiased WiTrack
    /// estimate converges to after the paper subtracts each subject's
    /// average center-to-surface depth.
    pub fn surface_truth(&self, t: f64) -> Vec3 {
        self.room.surface_truth(0, 0, t)
    }

    /// Generates the next sweep for every antenna, or `None` when the
    /// scripted motion has ended.
    pub fn next_sweeps(&mut self) -> Option<SweepSet> {
        let round = self.room.next_round()?;
        round.into_iter().next().map(|rs| rs.set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::BodyModel;
    use crate::motion::{RandomWalk, Rect, Stand};
    use crate::quick_cfg;
    use crate::scene::Scene;
    use witrack_geom::AntennaArray;

    fn quick_sim(duration: f64) -> Simulator {
        let cfg = quick_cfg(3);
        let channel = Channel::new(
            Scene::witrack_lab(true),
            AntennaArray::t_shape(Vec3::new(0.0, 0.0, 1.0), 1.0),
            BodyModel::adult(),
        );
        let motion = RandomWalk::new(Rect::vicon_area(), 1.0, 1.0, duration, 0.2, 5);
        Simulator::new(cfg, channel, Box::new(motion))
    }

    #[test]
    fn emits_expected_sweep_count_and_shapes() {
        let mut sim = quick_sim(0.5);
        assert_eq!(sim.total_sweeps(), 500);
        let mut count = 0;
        while let Some(set) = sim.next_sweeps() {
            assert_eq!(set.per_rx.len(), 3);
            for s in &set.per_rx {
                assert_eq!(s.len(), 100);
            }
            assert_eq!(set.sweep_index, count);
            count += 1;
        }
        assert_eq!(count, 500);
        assert!(sim.next_sweeps().is_none());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = quick_sim(0.1);
        let mut b = quick_sim(0.1);
        while let (Some(sa), Some(sb)) = (a.next_sweeps(), b.next_sweeps()) {
            assert_eq!(sa.per_rx, sb.per_rx);
        }
    }

    #[test]
    fn antennas_get_independent_noise() {
        let mut sim = quick_sim(0.1);
        let set = sim.next_sweeps().unwrap();
        // Same scene, different noise: antenna streams must differ.
        assert_ne!(set.per_rx[0], set.per_rx[1]);
    }

    #[test]
    fn surface_truth_sits_between_center_and_array() {
        let sim = quick_sim(1.0);
        let t = 0.4;
        let center = sim.true_state(t).center;
        let surface = sim.surface_truth(t);
        let tx = Vec3::new(0.0, 0.0, 1.0);
        assert!(surface.distance(tx) < center.distance(tx));
        assert!((surface.distance_xy(center) - sim.channel().body.torso_radius).abs() < 1e-9);
    }

    #[test]
    fn static_person_produces_frame_identical_signals() {
        // A perfectly still person + static scene ⇒ consecutive *frames*
        // carry identical deterministic content (only noise differs); with
        // noise disabled the sweeps repeat exactly.
        let mut cfg = quick_cfg(3);
        cfg.noise_std = 0.0;
        let channel = Channel::new(
            Scene::witrack_lab(true),
            AntennaArray::t_shape(Vec3::new(0.0, 0.0, 1.0), 1.0),
            BodyModel {
                // Disable specular wander so the body is truly frozen.
                z_wander_std: 0.0,
                xy_wander_std: 0.0,
                differential_wander_std: 0.0,
                ..BodyModel::adult()
            },
        );
        let motion = Stand {
            position: Vec3::new(0.5, 5.0, 1.0),
            time: 0.05,
        };
        let mut sim = Simulator::new(cfg, channel, Box::new(motion));
        let first = sim.next_sweeps().unwrap();
        let mut last = None;
        while let Some(s) = sim.next_sweeps() {
            last = Some(s);
        }
        assert_eq!(first.per_rx, last.unwrap().per_rx);
    }

    #[test]
    fn wander_held_constant_within_a_frame() {
        // With a noiseless front end and a static person, sweeps *within*
        // one frame are identical even with wander enabled (it redraws only
        // at frame boundaries).
        let mut cfg = quick_cfg(3);
        cfg.noise_std = 0.0;
        let channel = Channel::new(
            Scene::witrack_lab(false),
            AntennaArray::t_shape(Vec3::new(0.0, 0.0, 1.0), 1.0),
            BodyModel::adult(),
        );
        let motion = Stand {
            position: Vec3::new(0.0, 4.0, 1.0),
            time: 0.02,
        };
        let mut sim = Simulator::new(cfg, channel, Box::new(motion));
        let s0 = sim.next_sweeps().unwrap();
        let s1 = sim.next_sweeps().unwrap();
        assert_eq!(s0.per_rx, s1.per_rx, "sweeps 0 and 1 share a frame");
    }
}
