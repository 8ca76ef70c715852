//! The room engine: N people observed by V posed sensors, and the
//! multi-vantage simulator built on it.
//!
//! [`MultiVantageSimulator`] is the one per-sweep echo-synthesis loop in
//! this crate. Every other scene simulator is a thin constructor of it:
//! [`Simulator`](crate::Simulator) (one person) and
//! [`MultiSimulator`](crate::MultiSimulator) (N people) are one vantage
//! at the identity pose with no coverage edge, and
//! [`FleetSimulator`](crate::FleetSimulator) runs one `MultiSimulator`
//! per room. The constructors differ only in how they derive their noise
//! and wander streams from the master seed (`Seeds`), which keeps each
//! one's streams stable.
//!
//! [`crate::fleet`] scales out to many *independent* rooms; posed
//! vantages are the opposite experiment — the workload of cross-sensor
//! fusion (`witrack-fuse`): N sensors with **overlapping coverage**
//! watch the *same* bodies, each from its own mounting pose. Every
//! vantage owns a full RF stack (channel, per-antenna front ends, its
//! own specular wander — the specular point is viewpoint-dependent, so
//! two sensors genuinely disagree about where on the torso they see),
//! and each synthesizes baseband in its **local** frame: the walker's
//! world position is carried through the vantage's `sensor ← world`
//! transform before echo generation, exactly inverse to the registration
//! the fusion layer applies on the way back out.
//!
//! Coverage edges are first-class: a vantage with `coverage_m` set stops
//! receiving body echoes beyond that slant range (a wall, a doorway —
//! the §10 occlusion cases), which is what makes handoff scenarios
//! reproducible: the walker *must* leave sensor A's coverage and be
//! reacquired by sensor B.

use crate::channel::{Channel, PathEcho};
use crate::fleet::RoomSweeps;
use crate::frontend::FrontEnd;
use crate::motion::BodyState;
use crate::multi::PersonSpec;
use crate::scene::Scene;
use crate::simulator::{SimConfig, SweepSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use witrack_geom::{AntennaArray, RigidTransform, Vec3};

/// One sensor's mounting in the shared room.
pub struct VantageSpec {
    /// Wire-level sensor id this vantage emits as.
    pub sensor_id: u32,
    /// The vantage's extrinsic: local sensor frame → world frame. This
    /// is the ground-truth value auto-calibration should recover.
    pub world_from_sensor: RigidTransform,
    /// The static environment *as this sensor sees it*, in its local
    /// frame (walls behind/off-axis differ per mounting).
    pub scene: Scene,
    /// Hard coverage limit (m of slant range from the local origin):
    /// bodies beyond it contribute no echo to this vantage. `None` =
    /// limited only by SNR.
    pub coverage_m: Option<f64>,
}

/// How a room engine derives its random streams from [`SimConfig::seed`].
///
/// Front end `k` of vantage `v` seeds from `frontend_base + v·n_rx + k + 1`;
/// all vantages draw specular wander from one stream seeded `wander`.
struct Seeds {
    frontend_base: u64,
    wander: u64,
}

impl Seeds {
    /// [`Simulator`](crate::Simulator) and
    /// [`MultiSimulator`](crate::MultiSimulator): front ends from `seed`,
    /// wander from `seed·0x9E37_79B9 + 17`.
    fn unposed(seed: u64) -> Seeds {
        Seeds {
            frontend_base: seed,
            wander: seed.wrapping_mul(0x9E37_79B9).wrapping_add(17),
        }
    }

    /// [`MultiVantageSimulator::new`]: front ends from `seed·0x9E37_79B9`,
    /// wander from `seed·0x517C_C1B7 + 3`.
    fn posed(seed: u64) -> Seeds {
        Seeds {
            frontend_base: seed.wrapping_mul(0x9E37_79B9),
            wander: seed.wrapping_mul(0x517C_C1B7).wrapping_add(3),
        }
    }
}

struct Vantage {
    sensor_id: u32,
    world_from_sensor: RigidTransform,
    sensor_from_world: RigidTransform,
    coverage_m: Option<f64>,
    channel: Channel,
    frontends: Vec<FrontEnd>,
    static_paths: Vec<Vec<PathEcho>>,
    /// Per-person frame wander (redrawn per frame while moving).
    wander: Vec<Vec3>,
    /// Per-person, per-antenna differential wander.
    diff_wander: Vec<Vec<Vec3>>,
}

/// N posed sensors observing one shared set of motion scripts.
pub struct MultiVantageSimulator {
    cfg: SimConfig,
    people: Vec<PersonSpec>,
    vantages: Vec<Vantage>,
    wander_rng: StdRng,
    sweep_index: u64,
    total_sweeps: u64,
    scratch: Vec<PathEcho>,
}

impl MultiVantageSimulator {
    /// Builds the room. Every vantage runs `array` (in its local frame)
    /// and shares the sweep clock; noise and wander derive per vantage
    /// from `cfg.seed`.
    ///
    /// # Panics
    /// Panics when `people` or `vantages` is empty.
    pub fn new(
        cfg: SimConfig,
        array: AntennaArray,
        vantages: Vec<VantageSpec>,
        people: Vec<PersonSpec>,
    ) -> MultiVantageSimulator {
        // A channel's own body model is only consulted via explicit
        // per-person calls here; hand it the first person's.
        let body = people.first().expect("need at least one person").body;
        assert!(!vantages.is_empty(), "need at least one vantage");
        let vantages = vantages
            .into_iter()
            .map(|spec| {
                let channel = Channel::new(spec.scene, array.clone(), body);
                (
                    spec.sensor_id,
                    spec.world_from_sensor,
                    spec.coverage_m,
                    channel,
                )
            })
            .collect();
        Self::with_channels(cfg, Seeds::posed(cfg.seed), vantages, people)
    }

    /// One vantage at the identity pose, with no coverage edge, hearing
    /// `people` through `channel` as sensor 0: the room of
    /// [`Simulator`](crate::Simulator) and
    /// [`MultiSimulator`](crate::MultiSimulator).
    pub(crate) fn unposed(
        cfg: SimConfig,
        channel: Channel,
        people: Vec<PersonSpec>,
    ) -> MultiVantageSimulator {
        let vantage = (0, RigidTransform::IDENTITY, None, channel);
        Self::with_channels(cfg, Seeds::unposed(cfg.seed), vec![vantage], people)
    }

    /// The engine proper. Each vantage is `(sensor id, world ← sensor,
    /// coverage, channel)`, its channel taken as given.
    fn with_channels(
        cfg: SimConfig,
        seeds: Seeds,
        vantages: Vec<(u32, RigidTransform, Option<f64>, Channel)>,
        people: Vec<PersonSpec>,
    ) -> MultiVantageSimulator {
        let n_people = people.len();
        let duration = people
            .iter()
            .map(|p| p.motion.duration())
            .fold(0.0_f64, f64::max);
        let total_sweeps = (duration / cfg.sweep.sweep_duration_s).floor() as u64;
        let vantages = vantages
            .into_iter()
            .enumerate()
            .map(|(v, (sensor_id, world_from_sensor, coverage_m, channel))| {
                let n_rx = channel.array.num_rx();
                let frontends = (0..n_rx)
                    .map(|k| {
                        let seed = seeds.frontend_base.wrapping_add((v * n_rx + k) as u64 + 1);
                        FrontEnd::new(cfg.sweep, cfg.noise_std, seed)
                    })
                    .collect();
                Vantage {
                    sensor_id,
                    sensor_from_world: world_from_sensor.inverse(),
                    world_from_sensor,
                    coverage_m,
                    static_paths: (0..n_rx).map(|k| channel.static_paths(k)).collect(),
                    channel,
                    frontends,
                    wander: vec![Vec3::ZERO; n_people],
                    diff_wander: vec![vec![Vec3::ZERO; n_rx]; n_people],
                }
            })
            .collect();
        MultiVantageSimulator {
            wander_rng: StdRng::seed_from_u64(seeds.wander),
            cfg,
            people,
            vantages,
            sweep_index: 0,
            total_sweeps,
            scratch: Vec::new(),
        }
    }

    /// Number of vantages (sensors).
    pub fn num_vantages(&self) -> usize {
        self.vantages.len()
    }

    /// Number of people.
    pub fn num_people(&self) -> usize {
        self.people.len()
    }

    /// Total sweeps the experiment will emit per vantage.
    pub fn total_sweeps(&self) -> u64 {
        self.total_sweeps
    }

    /// The ground-truth extrinsic of vantage `v`.
    pub fn world_from_sensor(&self, v: usize) -> &RigidTransform {
        &self.vantages[v].world_from_sensor
    }

    /// The channel (scene/array/body) of vantage `v`, in its local frame.
    pub(crate) fn channel(&self, v: usize) -> &Channel {
        &self.vantages[v].channel
    }

    /// True body state of person `i` at time `t`, **world frame**.
    pub fn true_state(&self, i: usize, t: f64) -> BodyState {
        self.people[i].motion.state(t)
    }

    /// Whether person `i` is inside vantage `v`'s coverage at time `t`.
    pub fn in_coverage(&self, v: usize, i: usize, t: f64) -> bool {
        let vantage = &self.vantages[v];
        let local = vantage
            .sensor_from_world
            .apply(self.people[i].motion.state(t).center);
        vantage.coverage_m.is_none_or(|r| local.norm() <= r)
    }

    /// §8(a)-style ground truth for person `i` as vantage `v` sees them:
    /// the mean torso surface point facing that vantage's transmitter,
    /// **world frame** (two vantages legitimately disagree by up to a
    /// torso diameter).
    pub fn surface_truth(&self, v: usize, i: usize, t: f64) -> Vec3 {
        let vantage = &self.vantages[v];
        let state = self.people[i].motion.state(t);
        let local_center = vantage.sensor_from_world.apply(state.center);
        let local_surface = self.people[i]
            .body
            .mean_reflection_point(local_center, vantage.channel.array.tx.position);
        vantage.world_from_sensor.apply(local_surface)
    }

    /// Generates the next sweep for every vantage (same instant, same
    /// bodies, N viewpoints), or `None` when the longest script ended.
    pub fn next_round(&mut self) -> Option<Vec<RoomSweeps>> {
        if self.sweep_index >= self.total_sweeps {
            return None;
        }
        let sweeps_per_frame = self.cfg.sweep.sweeps_per_frame as u64;
        let t = self.sweep_index as f64 * self.cfg.sweep.sweep_duration_s;
        let states: Vec<BodyState> = self.people.iter().map(|p| p.motion.state(t)).collect();

        // Redraw the specular wander once per processing frame: the wander
        // is the slowly-varying "which patch of torso reflects" state, not
        // per-sweep noise (per-sweep redraws would be averaged away). A
        // motionless body keeps its wander frozen — its reflections must be
        // *identical* across frames so background subtraction cancels them,
        // the behavior the paper's interpolation stage exists for (§4.4,
        // §10's static-user limitation). The wander is a property of the
        // viewpoint, so each vantage draws its own: vantage-major, then
        // person-minor.
        if self.sweep_index.is_multiple_of(sweeps_per_frame) {
            for vantage in &mut self.vantages {
                for (pi, (person, state)) in self.people.iter().zip(&states).enumerate() {
                    if !state.moving {
                        continue;
                    }
                    let b = &person.body;
                    vantage.wander[pi] = Vec3::new(
                        b.xy_wander_std * crate::gaussian(&mut self.wander_rng),
                        b.xy_wander_std * crate::gaussian(&mut self.wander_rng),
                        b.z_wander_std * crate::gaussian(&mut self.wander_rng),
                    );
                    let d = b.differential_wander_std;
                    for w in &mut vantage.diff_wander[pi] {
                        *w = Vec3::new(
                            d * crate::gaussian(&mut self.wander_rng),
                            d * crate::gaussian(&mut self.wander_rng),
                            d * crate::gaussian(&mut self.wander_rng),
                        );
                    }
                }
            }
        }

        let mut round = Vec::with_capacity(self.vantages.len());
        for vantage in &mut self.vantages {
            let array = &vantage.channel.array;
            let mut per_rx = Vec::with_capacity(vantage.frontends.len());
            for (k, frontend) in vantage.frontends.iter_mut().enumerate() {
                // The bistatic specular point for antenna k faces the
                // midpoint of the Tx/Rx_k pair and carries its own wander
                // component.
                let observer = (array.tx.position + array.rx[k].position) * 0.5;
                self.scratch.clear();
                self.scratch.extend_from_slice(&vantage.static_paths[k]);
                for (pi, (person, state)) in self.people.iter().zip(&states).enumerate() {
                    // World → this vantage's local frame, then the usual
                    // per-person echo synthesis.
                    let local_center = vantage.sensor_from_world.apply(state.center);
                    if vantage.coverage_m.is_some_and(|r| local_center.norm() > r) {
                        continue; // outside this sensor's coverage
                    }
                    let body = &person.body;
                    let torso_point = body.reflection_point(
                        local_center,
                        observer,
                        vantage.wander[pi] + vantage.diff_wander[pi][k],
                    );
                    self.scratch.extend(vantage.channel.moving_paths(
                        torso_point,
                        body.torso_rcs,
                        k,
                    ));
                    if let Some(hand) = state.hand {
                        // The hand is small: direct echo only (its wall
                        // bounces are below the noise floor).
                        let local_hand = vantage.sensor_from_world.apply(hand);
                        self.scratch.extend(
                            vantage
                                .channel
                                .moving_paths(local_hand, body.arm_rcs, k)
                                .into_iter()
                                .take(1),
                        );
                    }
                }
                let mut sweep = Vec::new();
                frontend.synthesize_sweep(&self.scratch, &mut sweep);
                per_rx.push(sweep);
            }
            round.push(RoomSweeps {
                sensor_id: vantage.sensor_id,
                set: SweepSet {
                    sweep_index: self.sweep_index,
                    time_s: t,
                    per_rx,
                },
            });
        }
        self.sweep_index += 1;
        Some(round)
    }
}

/// Scenario builders for the fusion tests, benches, and examples.
pub mod scenario {
    use super::*;
    use crate::body::BodyModel;
    use crate::motion::LinePath;
    use std::f64::consts::PI;

    /// Two sensors at opposite ends of a `length`-meter hallway, facing
    /// each other, with `coverage` meters of reach each — overlapping in
    /// the middle when `2 × coverage > length`. Sensor 0's frame is the
    /// world frame; sensor 1 hangs at `y = length` yawed 180°.
    pub fn facing_pair(length: f64, coverage: f64) -> Vec<VantageSpec> {
        vec![
            VantageSpec {
                sensor_id: 0,
                world_from_sensor: RigidTransform::IDENTITY,
                scene: Scene::witrack_lab(false),
                coverage_m: Some(coverage),
            },
            VantageSpec {
                sensor_id: 1,
                world_from_sensor: RigidTransform::from_yaw(PI, Vec3::new(0.0, length, 0.0)),
                scene: Scene::witrack_lab(false),
                coverage_m: Some(coverage),
            },
        ]
    }

    /// One walker crossing the whole hallway — through sensor 0's
    /// exclusive region, the shared overlap, and out into sensor 1's —
    /// in `duration` seconds. The identity-across-handoff scenario.
    pub fn hallway_crossing(length: f64, duration: f64) -> Vec<PersonSpec> {
        let from = Vec3::new(0.3, 2.0, 1.05);
        let to = Vec3::new(-0.3, length - 2.0, 1.05);
        vec![PersonSpec::adult(LinePath::new(
            from,
            to,
            from.distance(to) / duration,
        ))]
    }

    /// Two walkers holding station in the overlap region while moving
    /// enough to stay visible (small orbits): both sensors see both
    /// walkers for the whole run — the duplicate-suppression scenario.
    pub fn overlap_pair(length: f64, duration: f64) -> Vec<PersonSpec> {
        let mid = length / 2.0;
        let a_from = Vec3::new(-1.5, mid - 1.2, 1.05);
        let a_to = Vec3::new(1.2, mid - 0.4, 1.05);
        let b_from = Vec3::new(1.5, mid + 1.2, 0.95);
        let b_to = Vec3::new(-1.2, mid + 0.4, 0.95);
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
}

#[cfg(test)]
mod tests {
    use super::scenario::*;
    use super::*;
    use crate::quick_cfg;

    fn quick_sim(length: f64, coverage: f64, people: Vec<PersonSpec>) -> MultiVantageSimulator {
        MultiVantageSimulator::new(
            quick_cfg(5),
            AntennaArray::t_shape(Vec3::new(0.0, 0.0, 1.0), 1.0),
            facing_pair(length, coverage),
            people,
        )
    }

    #[test]
    fn both_vantages_emit_in_lockstep() {
        let mut sim = quick_sim(12.0, 8.0, hallway_crossing(12.0, 0.2));
        assert_eq!(sim.num_vantages(), 2);
        let mut rounds = 0;
        while let Some(round) = sim.next_round() {
            assert_eq!(round.len(), 2);
            assert_eq!(round[0].sensor_id, 0);
            assert_eq!(round[1].sensor_id, 1);
            assert_eq!(round[0].set.per_rx.len(), 3);
            assert_eq!(round[0].set.per_rx[0].len(), 100);
            rounds += 1;
        }
        assert_eq!(rounds, 200);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = quick_sim(12.0, 8.0, overlap_pair(12.0, 0.2));
        let mut b = quick_sim(12.0, 8.0, overlap_pair(12.0, 0.2));
        while let (Some(ra), Some(rb)) = (a.next_round(), b.next_round()) {
            for (x, y) in ra.iter().zip(&rb) {
                assert_eq!(x.set.per_rx, y.set.per_rx);
            }
        }
    }

    #[test]
    fn coverage_gates_who_hears_the_walker() {
        // 12 m hallway, 7 m coverage: at t=0 the walker stands 2 m from
        // sensor 0 and 10 m from sensor 1.
        let sim = quick_sim(12.0, 7.0, hallway_crossing(12.0, 10.0));
        assert!(sim.in_coverage(0, 0, 0.0));
        assert!(!sim.in_coverage(1, 0, 0.0));
        // At the end the roles flip.
        assert!(!sim.in_coverage(0, 0, 10.0));
        assert!(sim.in_coverage(1, 0, 10.0));
        // And mid-hallway both hear them (the overlap).
        assert!(sim.in_coverage(0, 0, 5.0));
        assert!(sim.in_coverage(1, 0, 5.0));
    }

    #[test]
    fn out_of_coverage_bodies_add_no_energy() {
        // Same seeds; walker near sensor 0. Vantage 1 (out of coverage)
        // must emit pure static background — identical to an empty room.
        let cfg = quick_cfg(5);
        let array = AntennaArray::t_shape(Vec3::new(0.0, 0.0, 1.0), 1.0);
        let person = || hallway_crossing(12.0, 0.05);
        let mut with_walker =
            MultiVantageSimulator::new(cfg, array.clone(), facing_pair(12.0, 5.0), person());
        let round = with_walker.next_round().unwrap();
        // Re-run with coverage so small NO vantage hears the walker.
        let mut without = MultiVantageSimulator::new(cfg, array, facing_pair(12.0, 0.5), person());
        let round_empty = without.next_round().unwrap();
        // Vantage 1 heard nothing either way (walker 10 m away).
        assert_eq!(round[1].set.per_rx, round_empty[1].set.per_rx);
        // Vantage 0 did hear them (coverage 5 m ≥ 2 m walker distance).
        assert_ne!(round[0].set.per_rx, round_empty[0].set.per_rx);
    }

    #[test]
    fn surface_truths_disagree_by_viewpoint() {
        let sim = quick_sim(12.0, 8.0, overlap_pair(12.0, 1.0));
        let s0 = sim.surface_truth(0, 0, 0.5);
        let s1 = sim.surface_truth(1, 0, 0.5);
        let center = sim.true_state(0, 0.5).center;
        // Each surface point sits within a torso radius of the center,
        // pulled toward its own sensor — so they differ.
        assert!(s0.distance(center) < 0.25);
        assert!(s1.distance(center) < 0.25);
        assert!(s0.distance(s1) > 0.1, "{s0} vs {s1}");
        // Sensor 0 sits at low y, sensor 1 at high y.
        assert!(s0.y < center.y && s1.y > center.y);
    }
}
