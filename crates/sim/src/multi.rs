//! Multi-person simulation: N moving bodies in one scene.
//!
//! The single-person [`Simulator`](crate::Simulator) mirrors the paper's
//! evaluation protocol (one subject, §8). A [`MultiSimulator`] drives the
//! same channel and front end with **several** bodies at once — the §10
//! scenario the paper leaves open and the `witrack-mtt` subsystem exists
//! to solve. Every body contributes its direct echo and its
//! dynamic-multipath bounces to every receive antenna; static paths are
//! shared. Like `Simulator`, it is a constructor of the room engine
//! ([`MultiVantageSimulator`]) with one vantage at the identity pose and
//! no coverage edge, and it seeds the same way, so one person run through
//! either draws the same streams.
//!
//! [`scenario`] holds the scripted walker layouts (two crossing walkers,
//! a radial pass, three walkers) used by the examples, benches, and
//! integration tests.

use crate::body::BodyModel;
use crate::channel::Channel;
use crate::motion::{BodyState, MotionModel};
use crate::scene::Scene;
use crate::simulator::{SimConfig, SweepSet};
use crate::vantage::MultiVantageSimulator;
use witrack_geom::{AntennaArray, Vec3};

/// One simulated person: a reflector model plus a motion script.
pub struct PersonSpec {
    /// Reflector geometry/RCS of this person.
    pub body: BodyModel,
    /// Their trajectory.
    pub motion: Box<dyn MotionModel>,
}

impl PersonSpec {
    /// An adult following `motion`.
    pub fn adult(motion: impl MotionModel + 'static) -> PersonSpec {
        PersonSpec {
            body: BodyModel::adult(),
            motion: Box::new(motion),
        }
    }
}

/// Plays several motion scripts through one RF channel, emitting the
/// combined baseband sweeps.
pub struct MultiSimulator {
    room: MultiVantageSimulator,
}

impl MultiSimulator {
    /// Creates a multi-person simulator. The experiment runs for the
    /// longest of the people's scripted durations; people whose script has
    /// ended stand still (and, being static, fade from the
    /// background-subtracted stream — the §10 behavior).
    ///
    /// # Panics
    /// Panics when `people` is empty.
    pub fn new(
        cfg: SimConfig,
        scene: Scene,
        array: AntennaArray,
        people: Vec<PersonSpec>,
    ) -> MultiSimulator {
        // The channel's own body model is only consulted via explicit
        // per-person calls; hand it the first person's.
        let body = people.first().expect("need at least one person").body;
        let channel = Channel::new(scene, array, body);
        MultiSimulator {
            room: MultiVantageSimulator::unposed(cfg, channel, people),
        }
    }

    /// Number of simulated people.
    pub fn num_people(&self) -> usize {
        self.room.num_people()
    }

    /// Total sweeps this experiment will emit.
    pub fn total_sweeps(&self) -> u64 {
        self.room.total_sweeps()
    }

    /// True body state of person `i` at time `t`.
    pub fn true_state(&self, i: usize, t: f64) -> BodyState {
        self.room.true_state(i, t)
    }

    /// §8(a)-compensated ground truth for person `i`: the mean torso
    /// surface point facing the array.
    pub fn surface_truth(&self, i: usize, t: f64) -> Vec3 {
        self.room.surface_truth(0, i, t)
    }

    /// Generates the next sweep for every antenna, or `None` when the
    /// longest script has ended.
    pub fn next_sweeps(&mut self) -> Option<SweepSet> {
        let round = self.room.next_round()?;
        round.into_iter().next().map(|rs| rs.set)
    }
}

/// Scripted multi-walker layouts shared by examples, benches, and tests.
pub mod scenario {
    use super::PersonSpec;
    use crate::body::BodyModel;
    use crate::motion::LinePath;
    use witrack_geom::Vec3;

    /// Two walkers whose floor paths cross mid-room while staying radially
    /// separated (their round trips never merge): the "identity must not
    /// swap" scenario. Both walk for `duration` seconds.
    pub fn two_walker_crossing(duration: f64) -> Vec<PersonSpec> {
        // Speeds chosen so each path takes `duration`: ~4.5 m of travel.
        let a_from = Vec3::new(-2.0, 4.2, 1.05);
        let a_to = Vec3::new(2.0, 6.2, 1.05);
        let b_from = Vec3::new(2.0, 5.4, 0.95);
        let b_to = Vec3::new(-2.0, 7.4, 0.95);
        vec![
            PersonSpec::adult(LinePath::new(
                a_from,
                a_to,
                a_from.distance(a_to) / duration,
            )),
            PersonSpec {
                body: BodyModel::small_adult(),
                motion: Box::new(LinePath::new(
                    b_from,
                    b_to,
                    b_from.distance(b_to) / duration,
                )),
            },
        ]
    }

    /// Two walkers that pass each other *radially*: their round trips cross
    /// mid-experiment, so the per-antenna contours briefly merge and the
    /// tracker must coast one target through the merge.
    pub fn two_walker_radial_pass(duration: f64) -> Vec<PersonSpec> {
        let a_from = Vec3::new(-1.5, 4.0, 1.05);
        let a_to = Vec3::new(-1.5, 8.0, 1.05);
        let b_from = Vec3::new(1.5, 8.0, 0.95);
        let b_to = Vec3::new(1.5, 4.0, 0.95);
        vec![
            PersonSpec::adult(LinePath::new(
                a_from,
                a_to,
                a_from.distance(a_to) / duration,
            )),
            PersonSpec::adult(LinePath::new(
                b_from,
                b_to,
                b_from.distance(b_to) / duration,
            )),
        ]
    }

    /// Three walkers at staggered depths, all moving for `duration`
    /// seconds — the capacity scenario for `max_targets = 3`.
    pub fn three_walkers(duration: f64) -> Vec<PersonSpec> {
        let paths = [
            (Vec3::new(-2.0, 3.5, 1.05), Vec3::new(1.5, 4.5, 1.05)),
            (Vec3::new(2.0, 6.0, 1.0), Vec3::new(-1.5, 6.8, 1.0)),
            (Vec3::new(0.0, 8.5, 0.95), Vec3::new(0.5, 9.5, 0.95)),
        ];
        paths
            .into_iter()
            .map(|(from, to)| {
                PersonSpec::adult(LinePath::new(from, to, from.distance(to) / duration))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::scenario;
    use super::*;
    use crate::motion::{LinePath, Stand};
    use crate::quick_cfg;

    fn quick_sim(people: Vec<PersonSpec>) -> MultiSimulator {
        MultiSimulator::new(
            quick_cfg(3),
            Scene::witrack_lab(false),
            AntennaArray::t_shape(Vec3::new(0.0, 0.0, 1.0), 1.0),
            people,
        )
    }

    #[test]
    fn emits_combined_sweeps_with_correct_shapes() {
        let mut sim = quick_sim(scenario::two_walker_crossing(0.5));
        assert_eq!(sim.num_people(), 2);
        assert_eq!(sim.total_sweeps(), 500);
        let mut count = 0;
        while let Some(set) = sim.next_sweeps() {
            assert_eq!(set.per_rx.len(), 3);
            assert_eq!(set.per_rx[0].len(), 100);
            count += 1;
        }
        assert_eq!(count, 500);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = quick_sim(scenario::two_walker_radial_pass(0.2));
        let mut b = quick_sim(scenario::two_walker_radial_pass(0.2));
        while let (Some(sa), Some(sb)) = (a.next_sweeps(), b.next_sweeps()) {
            assert_eq!(sa.per_rx, sb.per_rx);
        }
    }

    #[test]
    fn two_people_add_energy_over_one() {
        // Same scene/noise seed, one vs two moving bodies: the two-person
        // baseband must carry more echo energy.
        let walker = |x: f64| {
            PersonSpec::adult(LinePath::new(
                Vec3::new(x, 4.0, 1.0),
                Vec3::new(x, 6.0, 1.0),
                1.0,
            ))
        };
        let mut one = quick_sim(vec![walker(-1.0)]);
        let mut two = quick_sim(vec![walker(-1.0), walker(1.5)]);
        let e1: f64 = {
            let s = one.next_sweeps().unwrap();
            s.per_rx[0].iter().map(|x| x * x).sum()
        };
        let e2: f64 = {
            let s = two.next_sweeps().unwrap();
            s.per_rx[0].iter().map(|x| x * x).sum()
        };
        assert!(e2 > e1, "two-person energy {e2} vs one-person {e1}");
    }

    #[test]
    fn ground_truth_is_per_person() {
        let sim = quick_sim(scenario::two_walker_crossing(4.0));
        let a0 = sim.true_state(0, 0.0).center;
        let b0 = sim.true_state(1, 0.0).center;
        assert!(a0.distance(b0) > 1.0);
        // Surface truth sits one torso radius toward the array.
        let s = sim.surface_truth(0, 0.0);
        assert!(s.distance(Vec3::new(0.0, 0.0, 1.0)) < a0.distance(Vec3::new(0.0, 0.0, 1.0)));
    }

    #[test]
    fn duration_is_longest_script() {
        let people = vec![
            PersonSpec::adult(Stand {
                position: Vec3::new(0.0, 4.0, 1.0),
                time: 0.1,
            }),
            PersonSpec::adult(Stand {
                position: Vec3::new(1.0, 5.0, 1.0),
                time: 0.3,
            }),
        ];
        let sim = quick_sim(people);
        assert_eq!(sim.total_sweeps(), 300);
    }

    #[test]
    fn scenarios_have_expected_shapes() {
        assert_eq!(scenario::two_walker_crossing(8.0).len(), 2);
        assert_eq!(scenario::two_walker_radial_pass(8.0).len(), 2);
        assert_eq!(scenario::three_walkers(8.0).len(), 3);
        // Crossing paths actually cross in the horizontal plane: the x
        // orderings at start and end flip.
        let c = scenario::two_walker_crossing(8.0);
        let (a0, a1) = (c[0].motion.state(0.0).center, c[0].motion.state(8.0).center);
        let (b0, b1) = (c[1].motion.state(0.0).center, c[1].motion.state(8.0).center);
        assert!(a0.x < b0.x && a1.x > b1.x, "paths must cross in x");
        // Radial pass: round-trip order flips (y order flips at equal |x|).
        let r = scenario::two_walker_radial_pass(8.0);
        assert!(r[0].motion.state(0.0).center.y < r[1].motion.state(0.0).center.y);
        assert!(r[0].motion.state(8.0).center.y > r[1].motion.state(8.0).center.y);
    }

    #[test]
    #[should_panic]
    fn empty_people_rejected() {
        let _ = quick_sim(Vec::new());
    }
}
