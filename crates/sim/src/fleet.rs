//! Fleet simulation: K independent rooms, each with its own sensor.
//!
//! The serving layer (`witrack-serve`) multiplexes many sensor deployments
//! on one host; this module generates its workload. A [`FleetSimulator`]
//! runs K rooms, each its own [`MultiSimulator`] — own walls, own
//! walkers — and emits every room's sweeps in lockstep (all rooms share
//! the sweep clock, like sensors free-running at the same configured
//! rate). Room `i` is sensor id `i`.
//!
//! Rooms vary deterministically with the fleet seed: walker count cycles
//! 1/2/3 per room by default, and every other room is through-wall.
//!
//! The per-room seeds overlap. Room `i` seeds from
//! `s_i = seed·0x9E37_79B9 + i`; its front end `k` draws noise from
//! `s_i + k + 1` and its walker `w` walks from `s_i + w + 1`. So room
//! `i`'s antenna `k + 1` carries exactly the receiver noise of room
//! `i + 1`'s antenna `k`, and room `i`'s walker `w + 1` walks room
//! `i + 1`'s walker `w`'s floor path. This is a known flaw, kept so
//! that fleet streams stay comparable across versions; fleetbench's
//! single-sensor recorder repeats the same seed pattern.

use crate::motion::{RandomWalk, Rect};
use crate::multi::{MultiSimulator, PersonSpec};
use crate::scene::Scene;
use crate::simulator::{SimConfig, SweepSet};
use witrack_geom::{AntennaArray, Vec3};

/// Fleet-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of rooms (= sensors). Sensor ids are `0..rooms`.
    pub rooms: usize,
    /// Walkers in room `i`: `1 + (i % max_walkers_per_room)` cycles the
    /// fleet through every population up to this cap.
    pub max_walkers_per_room: usize,
    /// Experiment duration per room (s).
    pub duration_s: f64,
    /// Base simulation parameters (sweep, noise, master seed). Each room
    /// derives its own seed from this one.
    pub sim: SimConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            rooms: 4,
            max_walkers_per_room: 3,
            duration_s: 2.0,
            sim: SimConfig::default(),
        }
    }
}

/// One room's sweeps for the current sweep interval.
#[derive(Debug, Clone)]
pub struct RoomSweeps {
    /// The room's sensor id (its index in the fleet).
    pub sensor_id: u32,
    /// The sweep set (per-antenna baseband + timing).
    pub set: SweepSet,
}

/// K rooms of walkers, emitting per-sensor sweep streams in lockstep.
pub struct FleetSimulator {
    rooms: Vec<MultiSimulator>,
}

impl FleetSimulator {
    /// Builds the fleet. Room `i` gets `1 + (i mod max_walkers_per_room)`
    /// random-walking adults, a seed derived from `cfg.sim.seed` and `i`,
    /// and a through-wall scene on odd `i`.
    ///
    /// # Panics
    /// Panics when `cfg.rooms` is 0.
    pub fn new(cfg: FleetConfig) -> FleetSimulator {
        assert!(cfg.rooms > 0, "a fleet needs at least one room");
        let rooms = (0..cfg.rooms)
            .map(|i| {
                let seed = cfg
                    .sim
                    .seed
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(i as u64);
                let walkers = 1 + i % cfg.max_walkers_per_room.max(1);
                let people: Vec<PersonSpec> = (0..walkers)
                    .map(|w| {
                        // Stagger heights a little so same-room walkers are
                        // distinguishable bodies, and give each walker its
                        // own path seed.
                        let z = 1.0 + 0.05 * (w as f64 - 1.0);
                        PersonSpec::adult(RandomWalk::new(
                            Rect::vicon_area(),
                            z,
                            1.0,
                            cfg.duration_s,
                            0.1,
                            seed.wrapping_add(1 + w as u64),
                        ))
                    })
                    .collect();
                MultiSimulator::new(
                    SimConfig { seed, ..cfg.sim },
                    Scene::witrack_lab(i % 2 == 1),
                    AntennaArray::t_shape(Vec3::new(0.0, 0.0, 1.0), 1.0),
                    people,
                )
            })
            .collect();
        FleetSimulator { rooms }
    }

    /// Number of rooms in the fleet.
    pub fn num_rooms(&self) -> usize {
        self.rooms.len()
    }

    /// The underlying simulator of room `i` (ground truth, channel).
    pub fn room(&self, i: usize) -> &MultiSimulator {
        &self.rooms[i]
    }

    /// Advances every room by one sweep interval. Returns `None` once all
    /// rooms' scripts have ended; rooms that end earlier than the longest
    /// one simply stop appearing (their sensor went quiet).
    pub fn next_round(&mut self) -> Option<Vec<RoomSweeps>> {
        let round: Vec<RoomSweeps> = self
            .rooms
            .iter_mut()
            .enumerate()
            .filter_map(|(i, room)| {
                room.next_sweeps().map(|set| RoomSweeps {
                    sensor_id: i as u32,
                    set,
                })
            })
            .collect();
        if round.is_empty() {
            None
        } else {
            Some(round)
        }
    }

    /// Records each room's full stream up front: `result[room][sweep]` is
    /// that room's per-antenna baseband. Useful for benches that must
    /// exclude synthesis cost from what they time.
    pub fn record_all(mut self) -> Vec<Vec<Vec<Vec<f64>>>> {
        let mut out: Vec<Vec<Vec<Vec<f64>>>> = (0..self.rooms.len()).map(|_| Vec::new()).collect();
        while let Some(round) = self.next_round() {
            for rs in round {
                out[rs.sensor_id as usize].push(rs.set.per_rx);
            }
        }
        out
    }

    /// [`Self::record_all`], but packed the way the serving wire carries
    /// it: `result[room][frame]` is one flat sweep-major buffer of
    /// `sweeps_per_frame × n_rx × samples_per_sweep` f64s (sweep `s`,
    /// antenna `k` at `[(s·n_rx + k)·samples ..][..samples]`). Benches
    /// and clients batch-encode these directly — one buffer per wire
    /// frame, no nested-`Vec` assembly. Trailing sweeps that do not fill
    /// a whole frame are dropped.
    pub fn record_frames_flat(mut self, sweeps_per_frame: usize) -> Vec<Vec<Vec<f64>>> {
        assert!(sweeps_per_frame > 0, "frames need at least one sweep");
        let mut out: Vec<Vec<Vec<f64>>> = (0..self.rooms.len()).map(|_| Vec::new()).collect();
        let mut pending: Vec<(Vec<f64>, usize)> = (0..self.rooms.len())
            .map(|_| (Vec::new(), 0usize))
            .collect();
        while let Some(round) = self.next_round() {
            for rs in round {
                let (buf, sweeps) = &mut pending[rs.sensor_id as usize];
                for rx in &rs.set.per_rx {
                    buf.extend_from_slice(rx);
                }
                *sweeps += 1;
                if *sweeps == sweeps_per_frame {
                    out[rs.sensor_id as usize].push(std::mem::take(buf));
                    *sweeps = 0;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_fleet(rooms: usize) -> FleetConfig {
        FleetConfig {
            rooms,
            max_walkers_per_room: 3,
            duration_s: 0.1,
            sim: crate::quick_cfg(11),
        }
    }

    #[test]
    fn every_room_emits_in_lockstep() {
        let mut fleet = FleetSimulator::new(quick_fleet(4));
        assert_eq!(fleet.num_rooms(), 4);
        assert_eq!(fleet.room(0).num_people(), 1);
        assert_eq!(fleet.room(2).num_people(), 3);
        let mut rounds = 0;
        while let Some(round) = fleet.next_round() {
            assert_eq!(round.len(), 4, "equal-duration rooms stay in lockstep");
            for rs in &round {
                assert_eq!(rs.set.per_rx.len(), 3);
                assert_eq!(rs.set.per_rx[0].len(), 100);
            }
            rounds += 1;
        }
        assert_eq!(rounds, 100, "0.1 s at 1 ms sweeps");
    }

    #[test]
    fn flat_frames_match_the_nested_recording() {
        let sweeps = FleetSimulator::new(quick_fleet(2)).record_all();
        let frames = FleetSimulator::new(quick_fleet(2)).record_frames_flat(5);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].len(), 20, "100 sweeps = 20 five-sweep frames");
        // Frame 3 of room 1, sweep 2, antenna 1 lines up with the nested
        // recording at sweep 17.
        let samples = sweeps[1][0][0].len();
        let flat = &frames[1][3];
        assert_eq!(flat.len(), 5 * 3 * samples);
        let at = (2 * 3 + 1) * samples;
        assert_eq!(&flat[at..at + samples], &sweeps[1][17][1][..]);
    }

    #[test]
    fn rooms_differ_but_are_deterministic() {
        let a = FleetSimulator::new(quick_fleet(2)).record_all();
        let b = FleetSimulator::new(quick_fleet(2)).record_all();
        assert_eq!(a, b, "same seed, same fleet");
        assert_ne!(a[0], a[1], "different rooms see different signals");
    }
}
