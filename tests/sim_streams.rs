//! Stream oracle for the scene simulators.
//!
//! Every simulator in `witrack-sim` is a deterministic function of its
//! seed. These tests fold FNV-1a over the exact bits of everything each
//! one emits — every baseband sample, `time_s`, `sweep_index`,
//! `sensor_id` — plus the ground truth it reports at each sweep
//! (`surface_truth`, `true_state`, `in_coverage`), and compare against a
//! recorded digest. A refactor of the simulators must leave every digest
//! unchanged: the accuracy harnesses and the fleet benchmark's recorded
//! tapes are only comparable across versions if the streams are
//! bit-identical.
//!
//! All cases run the reduced 100-sample sweep so the suite stays fast in
//! debug builds. The digests were recorded on x86_64 Linux (glibc libm).

use witrack_repro::demo::reduced_sweep;
use witrack_repro::geom::{AntennaArray, Vec3};
use witrack_repro::sim::motion::{BodyState, PointingScript, RandomWalk, Rect, Stand};
use witrack_repro::sim::vantage::scenario::{facing_pair, hallway_crossing, overlap_pair};
use witrack_repro::sim::{
    scenario, BodyModel, Channel, FleetConfig, FleetSimulator, MoverKind, MultiSimulator,
    MultiVantageSimulator, PersonSpec, RoomSweeps, ScenarioSpec, Scene, SimConfig, Simulator,
    SweepSet,
};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn vec3(&mut self, v: Vec3) {
        self.f64(v.x);
        self.f64(v.y);
        self.f64(v.z);
    }

    fn state(&mut self, s: BodyState) {
        self.vec3(s.center);
        match s.hand {
            Some(h) => {
                self.u64(1);
                self.vec3(h);
            }
            None => self.u64(0),
        }
        self.u64(u64::from(s.moving));
    }

    fn set(&mut self, set: &SweepSet) {
        self.u64(set.sweep_index);
        self.f64(set.time_s);
        self.u64(set.per_rx.len() as u64);
        for rx in &set.per_rx {
            self.u64(rx.len() as u64);
            for &s in rx {
                self.f64(s);
            }
        }
    }

    fn room(&mut self, rs: &RoomSweeps) {
        self.u64(u64::from(rs.sensor_id));
        self.set(&rs.set);
    }
}

fn cfg(seed: u64) -> SimConfig {
    SimConfig {
        sweep: reduced_sweep(),
        noise_std: 0.02,
        seed,
    }
}

fn array() -> AntennaArray {
    AntennaArray::t_shape(Vec3::new(0.0, 0.0, 1.0), 1.0)
}

/// A gesture from a short walk-in: moving with a hand, standing still
/// with a hand, then the arm stroke.
fn pointing(stance: Vec3) -> PointingScript {
    PointingScript::new(stance, Vec3::new(1.0, -1.0, 0.3), 21)
        .with_approach(stance + Vec3::new(-0.6, 0.4, 0.0), 1.2)
}

fn single_digest(mut sim: Simulator) -> u64 {
    let mut h = Fnv::new();
    h.u64(sim.total_sweeps());
    while let Some(set) = sim.next_sweeps() {
        h.set(&set);
        h.vec3(sim.surface_truth(set.time_s));
        h.state(sim.true_state(set.time_s));
    }
    h.0
}

fn multi_digest(mut sim: MultiSimulator) -> u64 {
    let mut h = Fnv::new();
    h.u64(sim.total_sweeps());
    while let Some(set) = sim.next_sweeps() {
        h.set(&set);
        for i in 0..sim.num_people() {
            h.vec3(sim.surface_truth(i, set.time_s));
            h.state(sim.true_state(i, set.time_s));
        }
    }
    h.0
}

fn vantage_truth(h: &mut Fnv, sim: &MultiVantageSimulator, t: f64) {
    for v in 0..sim.num_vantages() {
        for i in 0..sim.num_people() {
            h.vec3(sim.surface_truth(v, i, t));
            h.u64(u64::from(sim.in_coverage(v, i, t)));
        }
    }
    for i in 0..sim.num_people() {
        h.state(sim.true_state(i, t));
    }
}

fn vantage_digest(mut sim: MultiVantageSimulator) -> u64 {
    let mut h = Fnv::new();
    h.u64(sim.total_sweeps());
    for v in 0..sim.num_vantages() {
        h.vec3(sim.world_from_sensor(v).apply(Vec3::new(1.0, 2.0, 3.0)));
    }
    while let Some(round) = sim.next_round() {
        for rs in &round {
            h.room(rs);
        }
        vantage_truth(&mut h, &sim, round[0].set.time_s);
    }
    h.0
}

fn assert_digest(name: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{name}: stream digest {got:#018x}");
}

#[test]
fn simulator_line_of_sight_random_walk() {
    let channel = Channel::new(Scene::witrack_lab(false), array(), BodyModel::adult());
    let motion = RandomWalk::new(Rect::vicon_area(), 1.0, 1.0, 0.6, 0.2, 5);
    let sim = Simulator::new(cfg(3), channel, Box::new(motion));
    assert_digest("los_walk", single_digest(sim), 0xb569_4dbe_6b46_dc08);
}

#[test]
fn simulator_through_wall_pointing() {
    let mut channel = Channel::new(Scene::witrack_lab(true), array(), BodyModel::adult());
    channel.reference_amplitude = 140.0;
    let motion = pointing(Vec3::new(0.4, 4.5, 1.0));
    let sim = Simulator::new(cfg(8), channel, Box::new(motion));
    assert_digest("wall_pointing", single_digest(sim), 0xfe49_4190_a7e7_a317);
}

#[test]
fn simulator_standing_keeps_wander_frozen() {
    let channel = Channel::new(Scene::witrack_lab(true), array(), BodyModel::adult());
    let motion = Stand {
        position: Vec3::new(-0.5, 5.0, 1.0),
        time: 0.3,
    };
    let sim = Simulator::new(cfg(4), channel, Box::new(motion));
    assert_digest("stand", single_digest(sim), 0x7666_0e50_b0e7_7c3c);
}

#[test]
fn multi_simulator_crossing_standing_and_pointing() {
    let mut people = scenario::two_walker_crossing(0.6);
    people.push(PersonSpec::adult(Stand {
        position: Vec3::new(1.5, 3.5, 1.0),
        time: 0.4,
    }));
    people.push(PersonSpec {
        body: BodyModel::small_adult(),
        motion: Box::new(pointing(Vec3::new(-1.0, 6.0, 0.95))),
    });
    let sim = MultiSimulator::new(cfg(6), Scene::witrack_lab(false), array(), people);
    assert_digest("multi", multi_digest(sim), 0xd5fa_dd1a_9d08_da01);
}

#[test]
fn multi_vantage_overlap_pair_with_pointing() {
    let mut people = overlap_pair(12.0, 0.6);
    people.push(PersonSpec::adult(pointing(Vec3::new(0.5, 5.5, 1.0))));
    let sim = MultiVantageSimulator::new(cfg(5), array(), facing_pair(12.0, 8.0), people);
    assert_digest(
        "vantage_overlap",
        vantage_digest(sim),
        0x03ee_eb82_edcf_03ac,
    );
}

#[test]
fn multi_vantage_hallway_across_the_coverage_edge() {
    // 5 m reach on a 12 m hallway: the walker leaves sensor 0's coverage
    // and enters sensor 1's mid-run.
    let mut people = hallway_crossing(12.0, 1.5);
    people.push(PersonSpec::adult(pointing(Vec3::new(-0.5, 3.0, 1.0))));
    let sim = MultiVantageSimulator::new(cfg(9), array(), facing_pair(12.0, 5.0), people);
    assert_digest(
        "vantage_hallway",
        vantage_digest(sim),
        0xd6e5_9c78_cc80_63ad,
    );
}

#[test]
fn fleet_of_four_rooms() {
    let mut fleet = FleetSimulator::new(FleetConfig {
        rooms: 4,
        max_walkers_per_room: 3,
        duration_s: 0.4,
        sim: cfg(11),
    });
    let mut h = Fnv::new();
    while let Some(round) = fleet.next_round() {
        for rs in &round {
            h.room(rs);
            let room = fleet.room(rs.sensor_id as usize);
            for i in 0..room.num_people() {
                h.vec3(room.surface_truth(i, rs.set.time_s));
                h.state(room.true_state(i, rs.set.time_s));
            }
        }
    }
    assert_digest("fleet", h.0, 0xdaca_1e21_8129_8286);
}

#[test]
fn chaos_fan_door_interference_and_drift() {
    let spec = ScenarioSpec::new("oracle")
        .with_walkers(2)
        .with_mover(MoverKind::Fan)
        .with_mover(MoverKind::Door)
        .with_interference(0.03)
        .with_clock_drift(1, 80e-6)
        .with_duration(1.8)
        .with_seed(13);
    let mut built = spec.build(reduced_sweep(), 0.02);
    let mut h = Fnv::new();
    while let Some(round) = built.next_round() {
        for rs in &round {
            h.room(rs);
        }
        // Truth on the undrifted clock: sweep k starts at k · sweep time.
        let t = round[0].set.sweep_index as f64 * reduced_sweep().sweep_duration_s;
        vantage_truth(&mut h, built.sim(), t);
    }
    assert_digest("chaos", h.0, 0xe21b_da77_ee57_7345);
}
