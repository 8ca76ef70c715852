//! Recorded inputs: simulator frames captured once per run, encoded once
//! as wire-v2 `SweepBatchQ` frames, and replayed in closed loops.
//!
//! Every walker follows a *closed* path whose lap lasts exactly one loop,
//! so replaying a tape end-to-start is seamless: the body is back where it
//! started, and the served pipeline sees one continuous stream with
//! continuous `seq`/`frame_index`. An i16 frame at the paper sweep is
//! 75 KB, so looping is what bounds memory. Recording time belongs to the
//! generator and is never part of a measured window.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;
use witrack_core::WiTrackConfig;
use witrack_geom::{AntennaArray, RigidTransform, Vec3};
use witrack_serve::wire::{self, Message, SweepBatch, SweepBatchQ};
use witrack_sim::motion::{BodyState, MotionModel};
use witrack_sim::vantage::scenario;
use witrack_sim::{
    BodyModel, Channel, MultiVantageSimulator, PersonSpec, Scene, SimConfig, Simulator,
};

/// Per-sample receiver noise used for every recording (as in `t_serve`).
const NOISE_STD: f64 = 0.05;

/// Hallway geometry of a fused room: two sensors facing each other.
pub const HALLWAY_M: f64 = 12.0;
/// Coverage radius of each hallway sensor.
pub const COVERAGE_M: f64 = 8.0;

/// A walker tracing an ellipse once per `period_s`, with the gait bob of
/// the simulator's own scripts. The bob frequency is rounded to a whole
/// number of steps per lap so the path closes exactly.
#[derive(Debug, Clone, Copy)]
struct EllipseLap {
    center: Vec3,
    semi_x: f64,
    semi_y: f64,
    period_s: f64,
    start_angle: f64,
    /// +1 counter-clockwise, -1 clockwise.
    direction: f64,
    bob_hz: f64,
}

impl EllipseLap {
    fn new(
        center: Vec3,
        semi: (f64, f64),
        period_s: f64,
        start_angle: f64,
        direction: f64,
    ) -> Self {
        EllipseLap {
            center,
            semi_x: semi.0,
            semi_y: semi.1,
            period_s,
            start_angle,
            direction,
            bob_hz: (1.8 * period_s).round().max(1.0) / period_s,
        }
    }
}

impl MotionModel for EllipseLap {
    fn state(&self, t: f64) -> BodyState {
        let t = t.clamp(0.0, self.period_s);
        let angle = self.start_angle + self.direction * 2.0 * PI * t / self.period_s;
        let mut center =
            self.center + Vec3::new(self.semi_x * angle.cos(), self.semi_y * angle.sin(), 0.0);
        center.z += 0.03 * (2.0 * PI * self.bob_hz * t).sin();
        BodyState {
            center,
            hand: None,
            moving: true,
        }
    }

    fn duration(&self) -> f64 {
        self.period_s
    }
}

/// One sensor's recorded loop.
pub struct Tape {
    /// Encoded `SweepBatchQ` frames (sensor id 0, seq 0; patched per send).
    pub frames: Vec<Vec<u8>>,
    /// Ground truth per frame, in this sensor's local frame: one point per
    /// walker inside the sensor's coverage at the frame's report time.
    pub truth_local: Vec<Vec<Vec3>>,
}

/// A recorded room: its sensors' tapes plus world-frame truth.
pub struct RoomTape {
    /// One tape per sensor of the room, in sensor order.
    pub sensors: Vec<Tape>,
    /// Each sensor's world-from-sensor pose.
    pub poses: Vec<RigidTransform>,
    /// Walker body centers (world frame) per frame, covered by at least
    /// one sensor — the truth fused world tracks are scored against.
    pub truth_world: Vec<Vec<Vec3>>,
    /// World-frame walking area `(x_min, x_max, y_min, y_max)`, for zones.
    pub area: (f64, f64, f64, f64),
}

/// `(0..n).map(f)`, computed on two threads (recording is generator
/// set-up, done before any server exists).
fn on_two_threads<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let (even, odd): (Vec<_>, Vec<_>) = out.iter_mut().enumerate().partition(|(i, _)| i % 2 == 0);
    std::thread::scope(|scope| {
        for half in [even, odd] {
            let f = &f;
            scope.spawn(move || {
                for (i, slot) in half {
                    *slot = Some(f(i));
                }
            });
        }
    });
    out.into_iter()
        .map(|t| t.expect("every index recorded"))
        .collect()
}

/// Encodes one frame's flat sweep-major samples as a `SweepBatchQ` frame.
fn encode_frame(base: &WiTrackConfig, flat: Vec<f64>) -> Vec<u8> {
    let batch = SweepBatch {
        sensor_id: 0,
        seq: 0,
        n_sweeps: base.sweep.sweeps_per_frame as u16,
        n_rx: 3,
        samples_per_sweep: base.sweep.samples_per_sweep() as u32,
        data: flat,
    };
    wire::encode(&Message::SweepBatchQ(SweepBatchQ::quantize(&batch)))
}

/// Report time of recorded frame `j`: the end of its last sweep.
fn report_time(base: &WiTrackConfig, j: usize) -> f64 {
    (j + 1) as f64 * base.sweep.frame_duration_s()
}

/// Loop length in frames for a lap of `period_s`.
pub fn loop_frames(base: &WiTrackConfig, period_s: f64) -> usize {
    (period_s / base.sweep.frame_duration_s()).round() as usize
}

/// Records `rooms` single-target rooms, one sensor each, every walker on
/// a closed ellipse of `period_s`. Room centres follow a fixed layout
/// jittered by the seed; odd rooms are through-wall.
pub fn record_single(
    base: &WiTrackConfig,
    rooms: usize,
    period_s: f64,
    seed: u64,
) -> Vec<RoomTape> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5157_4e47_4c45);
    let frames = loop_frames(base, period_s);
    let period_s = frames as f64 * base.sweep.frame_duration_s();
    let laps: Vec<EllipseLap> = (0..rooms)
        .map(|r| {
            let layout = [(-0.9, 4.6), (0.9, 6.4), (0.9, 4.6), (-0.9, 6.4)][r % 4];
            let jitter = |rng: &mut StdRng| (rng.random::<f64>() - 0.5) * 0.5;
            let center = Vec3::new(
                layout.0 + jitter(&mut rng),
                layout.1 + jitter(&mut rng),
                1.0,
            );
            let start = rng.random::<f64>() * 2.0 * PI;
            let direction = if rng.random::<f64>() < 0.5 { 1.0 } else { -1.0 };
            EllipseLap::new(center, (0.8, 0.6), period_s, start, direction)
        })
        .collect();
    on_two_threads(rooms, |r| {
        let lap = laps[r];
        let array = AntennaArray::t_shape(base.array_origin, base.antenna_separation);
        let channel = Channel::new(Scene::witrack_lab(r % 2 == 1), array, BodyModel::adult());
        let sim_cfg = SimConfig {
            sweep: base.sweep,
            noise_std: NOISE_STD,
            seed: seed.wrapping_mul(0x9E37_79B9).wrapping_add(r as u64 + 1),
        };
        let mut sim = Simulator::new(sim_cfg, channel, Box::new(lap));
        let per_frame = base.sweep.sweeps_per_frame;
        let mut tape = Tape {
            frames: Vec::with_capacity(frames),
            truth_local: Vec::with_capacity(frames),
        };
        let mut truth_world = Vec::with_capacity(frames);
        let mut flat = Vec::new();
        let mut sweeps = 0;
        while let Some(set) = sim.next_sweeps() {
            for rx in &set.per_rx {
                flat.extend_from_slice(rx);
            }
            sweeps += 1;
            if sweeps == per_frame {
                let j = tape.frames.len();
                let t = report_time(base, j);
                tape.frames
                    .push(encode_frame(base, std::mem::take(&mut flat)));
                tape.truth_local.push(vec![sim.surface_truth(t)]);
                truth_world.push(vec![sim.true_state(t).center]);
                sweeps = 0;
            }
        }
        assert_eq!(tape.frames.len(), frames, "a lap records whole frames");
        RoomTape {
            sensors: vec![tape],
            poses: vec![RigidTransform::IDENTITY],
            truth_world,
            area: (-2.5, 2.5, 3.0, 9.0),
        }
    })
}

/// Records `rooms` fused hallways (`scenario::facing_pair`), each with
/// two walkers on closed crossing laps in opposite lanes and directions.
pub fn record_fused(base: &WiTrackConfig, rooms: usize, period_s: f64, seed: u64) -> Vec<RoomTape> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0046_5553_4544);
    let frames = loop_frames(base, period_s);
    let period_s = frames as f64 * base.sweep.frame_duration_s();
    let mid = HALLWAY_M / 2.0;
    let draws: Vec<(f64, f64)> = (0..rooms)
        .map(|_| {
            let lane = 1.3 + (rng.random::<f64>() - 0.5) * 0.2;
            (lane, rng.random::<f64>() * 2.0 * PI)
        })
        .collect();
    on_two_threads(rooms, |r| {
        let (lane, start) = draws[r];
        // Laps in opposite lanes, turning opposite ways (B's angle is
        // always minus A's): while one walker heads down the hallway
        // the other heads up it, and they pass each other twice per
        // lap, never closer than the 2.6 m between the lanes' inner
        // edges.
        let a = EllipseLap::new(
            Vec3::new(-lane, mid, 1.05),
            (0.8, 0.8),
            period_s,
            start,
            1.0,
        );
        let b = EllipseLap::new(
            Vec3::new(lane, mid, 0.95),
            (0.8, 0.8),
            period_s,
            -start,
            -1.0,
        );
        let people = vec![PersonSpec::adult(a), PersonSpec::adult(b)];
        let sim_cfg = SimConfig {
            sweep: base.sweep,
            noise_std: NOISE_STD,
            seed: seed.wrapping_mul(0x9E37_79B9).wrapping_add(1000 + r as u64),
        };
        let mut sim = MultiVantageSimulator::new(
            sim_cfg,
            AntennaArray::t_shape(base.array_origin, base.antenna_separation),
            scenario::facing_pair(HALLWAY_M, COVERAGE_M),
            people,
        );
        let n_sensors = sim.num_vantages();
        let poses: Vec<RigidTransform> =
            (0..n_sensors).map(|v| *sim.world_from_sensor(v)).collect();
        let per_frame = base.sweep.sweeps_per_frame;
        let mut tapes: Vec<Tape> = (0..n_sensors)
            .map(|_| Tape {
                frames: Vec::with_capacity(frames),
                truth_local: Vec::with_capacity(frames),
            })
            .collect();
        let mut truth_world = Vec::with_capacity(frames);
        let mut flats: Vec<Vec<f64>> = vec![Vec::new(); n_sensors];
        let mut sweeps = 0;
        while let Some(round) = sim.next_round() {
            for (v, rs) in round.iter().enumerate() {
                for rx in &rs.set.per_rx {
                    flats[v].extend_from_slice(rx);
                }
            }
            sweeps += 1;
            if sweeps < per_frame {
                continue;
            }
            sweeps = 0;
            let t = report_time(base, tapes[0].frames.len());
            let mut world = Vec::new();
            for (v, tape) in tapes.iter_mut().enumerate() {
                tape.frames
                    .push(encode_frame(base, std::mem::take(&mut flats[v])));
                let local_from_world = poses[v].inverse();
                tape.truth_local.push(
                    (0..sim.num_people())
                        .filter(|&i| sim.in_coverage(v, i, t))
                        .map(|i| local_from_world.apply(sim.surface_truth(v, i, t)))
                        .collect(),
                );
            }
            for i in 0..sim.num_people() {
                if (0..n_sensors).any(|v| sim.in_coverage(v, i, t)) {
                    world.push(sim.true_state(i, t).center);
                }
            }
            truth_world.push(world);
        }
        assert_eq!(tapes[0].frames.len(), frames, "a lap records whole frames");
        RoomTape {
            sensors: tapes,
            poses,
            truth_world,
            area: (-2.0, 2.0, 1.0, HALLWAY_M - 1.0),
        }
    })
}
