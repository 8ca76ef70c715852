//! Workload plans: which sensors replay which tapes, when each sensor's
//! frames are due, how fused rooms are laid out and subscribed.

use crate::record::{self, RoomTape, COVERAGE_M};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use witrack_core::{FallConfig, WiTrackConfig};
use witrack_fuse::{FuseConfig, Registration, Zone};
use witrack_serve::hub::{RoomSpec, WorldConfig};
use witrack_serve::wire::{PipelineKind, SubscribeV3};
use witrack_serve::{EventKind, EventKinds, SubscriptionBuilder};

/// Frame period at the paper configuration (5 sweeps × 2.5 ms).
pub const PERIOD_NS: u64 = 12_500_000;
/// Frames a sensor sends per second.
pub const FRAMES_PER_S: u64 = 80;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetSteady,
    FleetRamp,
    RoomsFused,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fleet_steady" => Some(Workload::FleetSteady),
            "fleet_ramp" => Some(Workload::FleetRamp),
            "rooms_fused" => Some(Workload::RoomsFused),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetSteady => "fleet_steady",
            Workload::FleetRamp => "fleet_ramp",
            Workload::RoomsFused => "rooms_fused",
        }
    }
}

/// Sensors in `fleet_steady`: about a third of a 2-vCPU host's capacity.
/// Nearer half, a busy shared host sometimes leaves the server short of
/// CPU for long enough that the connection's 64-deep outbox overflows and
/// an update is shed; at this load no frame fails.
pub const STEADY_SENSORS: usize = 24;
/// First step and step size of `fleet_ramp`.
pub const RAMP_START: usize = 32;
pub const RAMP_STEP: usize = 4;
/// Fused rooms in `rooms_fused` (two sensors each).
pub const FUSED_ROOMS: usize = 6;
/// Zones per fused room (a 4 × 5 grid over the walking area).
pub const ZONES_PER_ROOM: u32 = 20;
/// Selective event subscriptions per fused room (plus one firehose).
pub const SELECTIVE_SUBS: usize = 300;
/// Distinct recorded tapes: single-target rooms, fused hallways.
const SINGLE_TAPES: usize = 4;
const FUSED_TAPES: usize = 2;
/// Lap (= loop) length of every walker.
const LAP_S: f64 = 4.0;

/// One offered sensor stream.
#[derive(Debug, Clone, Copy)]
pub struct SensorPlan {
    /// Wire sensor id (also the index into `Plan::sensors`).
    pub id: u32,
    /// Recorded room tape and sensor within it.
    pub tape: usize,
    pub tape_sensor: usize,
    /// Loop offset (frames) into the tape.
    pub offset: usize,
    /// Phase of this sensor's frames within the frame period.
    pub phase_ns: u64,
}

/// One fused room on the server.
#[derive(Debug, Clone)]
pub struct ServedRoom {
    pub room_id: u32,
    pub tape: usize,
    pub sensors: Vec<u32>,
}

/// Everything the generator and the checks need for one run.
pub struct Plan {
    pub base: WiTrackConfig,
    pub kind: PipelineKind,
    pub tapes: Vec<RoomTape>,
    pub sensors: Vec<SensorPlan>,
    pub rooms: Vec<ServedRoom>,
    pub seed: u64,
}

impl Plan {
    /// Records the workload's tapes and lays out its sensors. Sensors of
    /// `fleet_ramp` beyond the first step are laid out up front; the ramp
    /// starts them as it advances.
    pub fn build(workload: Workload, seed: u64, max_ramp_sensors: usize) -> Plan {
        let base = WiTrackConfig::witrack_default();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0050_4841_5345);
        match workload {
            Workload::FleetSteady | Workload::FleetRamp => {
                let tapes = record::record_single(&base, SINGLE_TAPES, LAP_S, seed);
                let loop_len = tapes[0].sensors[0].frames.len();
                let n = if workload == Workload::FleetSteady {
                    STEADY_SENSORS
                } else {
                    max_ramp_sensors
                };
                // Sensors sharing a tape start at spread-out loop offsets,
                // so no two streams are ever the same frames in lockstep.
                let sharing = n.div_ceil(SINGLE_TAPES);
                // The first group (every steady sensor, or the ramp's first
                // step) and each later ramp step spread over the period.
                let first = if workload == Workload::FleetSteady {
                    n
                } else {
                    RAMP_START
                };
                let mut phases = stratified_phases(first, &mut rng);
                while phases.len() < n {
                    phases.extend(stratified_phases(RAMP_STEP.min(n - phases.len()), &mut rng));
                }
                let sensors = (0..n)
                    .map(|i| SensorPlan {
                        id: i as u32,
                        tape: i % SINGLE_TAPES,
                        tape_sensor: 0,
                        offset: (i / SINGLE_TAPES) * loop_len / sharing,
                        phase_ns: phases[i],
                    })
                    .collect();
                Plan {
                    base,
                    kind: PipelineKind::SingleTarget,
                    tapes,
                    sensors,
                    rooms: Vec::new(),
                    seed,
                }
            }
            Workload::RoomsFused => {
                let tapes = record::record_fused(&base, FUSED_TAPES, LAP_S, seed);
                let loop_len = tapes[0].sensors[0].frames.len();
                let phases = stratified_phases(FUSED_ROOMS * tapes[0].sensors.len(), &mut rng);
                let mut sensors = Vec::new();
                let mut rooms = Vec::new();
                for r in 0..FUSED_ROOMS {
                    let tape = r % FUSED_TAPES;
                    // Both sensors of a room observe the same instants: one
                    // offset per room, one phase per sensor.
                    let offset = (r / FUSED_TAPES) * loop_len / FUSED_ROOMS.div_ceil(FUSED_TAPES);
                    let ids: Vec<u32> = (0..tapes[tape].sensors.len())
                        .map(|v| {
                            let id = sensors.len() as u32;
                            sensors.push(SensorPlan {
                                id,
                                tape,
                                tape_sensor: v,
                                offset,
                                phase_ns: phases[id as usize],
                            });
                            id
                        })
                        .collect();
                    rooms.push(ServedRoom {
                        room_id: r as u32,
                        tape,
                        sensors: ids,
                    });
                }
                Plan {
                    base,
                    kind: PipelineKind::MultiTarget,
                    tapes,
                    sensors,
                    rooms,
                    seed,
                }
            }
        }
    }

    /// The encoded frame sensor `s` sends as its `k`-th frame.
    pub fn frame(&self, s: &SensorPlan, k: u64) -> &[u8] {
        let tape = &self.tapes[s.tape].sensors[s.tape_sensor];
        &tape.frames[(s.offset + k as usize) % tape.frames.len()]
    }

    /// Recorded-frame index behind sensor `s`'s `k`-th frame.
    pub fn tape_index(&self, s: &SensorPlan, k: u64) -> usize {
        (s.offset + k as usize) % self.tapes[s.tape].sensors[s.tape_sensor].frames.len()
    }

    /// The fused-room world for the server (empty for fleet workloads).
    pub fn world(&self) -> Option<WorldConfig> {
        if self.rooms.is_empty() {
            return None;
        }
        let rooms = self
            .rooms
            .iter()
            .map(|room| RoomSpec {
                room_id: room.room_id,
                fuse: fuse_config(&self.base, self.tapes[room.tape].area),
                registration: registration(&self.tapes[room.tape], &room.sensors),
            })
            .collect();
        Some(WorldConfig { rooms })
    }

    /// Every subscription the generator opens: per room one firehose
    /// (world updates + all events) and [`SELECTIVE_SUBS`] seeded event
    /// filters over zone and kind masks with debounce and rate limits.
    pub fn subscriptions(&self) -> Vec<SubscribeV3> {
        self.rooms
            .iter()
            .flat_map(|room| room_subscriptions(room.room_id, self.seed))
            .collect()
    }
}

/// One room's subscriptions: the firehose first, then the selective
/// filters, drawn from `seed` and the room id.
pub fn room_subscriptions(room_id: u32, seed: u64) -> Vec<SubscribeV3> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5355_4253 ^ ((room_id as u64) << 32));
    let kinds: [EventKinds; 7] = [
        EventKind::ZoneEntered.into(),
        EventKind::ZoneExited.into(),
        EventKind::ZoneEntered | EventKind::ZoneExited,
        EventKind::OccupancyChanged.into(),
        EventKind::TrackBorn | EventKind::TrackLost,
        EventKind::Fall.into(),
        EventKind::Handoff.into(),
    ];
    let base_id = (room_id as u64 + 1) * 10_000;
    let mut subs = vec![SubscriptionBuilder::room(room_id).id(base_id).build()];
    for i in 0..SELECTIVE_SUBS {
        let pick = (rng.random::<f64>() * kinds.len() as f64) as usize;
        let zone = (rng.random::<f64>() * ZONES_PER_ROOM as f64) as u32;
        let mut b = SubscriptionBuilder::room(room_id)
            .events(kinds[pick.min(kinds.len() - 1)])
            .zone(zone.min(ZONES_PER_ROOM - 1))
            .world_updates(false)
            .id(base_id + 1 + i as u64);
        if i % 3 == 0 {
            b = b.debounce(0.25);
        }
        if i % 4 == 0 {
            b = b.rate_limit(2.0, 2);
        }
        subs.push(b.build());
    }
    subs
}

/// Phases for `n` free-running sensors: one per slot of an even split of
/// the frame period, jittered within its slot, slots shuffled. Seeded
/// like every input, but never clustered by chance, so a seed cannot
/// change the offered burstiness.
fn stratified_phases(n: usize, rng: &mut StdRng) -> Vec<u64> {
    let slot = PERIOD_NS as f64 / n.max(1) as f64;
    let mut phases: Vec<u64> = (0..n)
        .map(|j| ((j as f64 + rng.random::<f64>()) * slot) as u64)
        .collect();
    for i in (1..n).rev() {
        let k = (rng.random::<f64>() * (i + 1) as f64) as usize;
        phases.swap(i, k.min(i));
    }
    phases
}

/// A `ZONES_PER_ROOM` grid (4 across × 5 along) over a room's walking area.
pub fn zones(area: (f64, f64, f64, f64)) -> Vec<Zone> {
    let (x0, x1, y0, y1) = area;
    let (nx, ny) = (4u32, ZONES_PER_ROOM / 4);
    (0..ZONES_PER_ROOM)
        .map(|id| {
            let (ix, iy) = ((id % nx) as f64, (id / nx) as f64);
            let (w, h) = ((x1 - x0) / nx as f64, (y1 - y0) / ny as f64);
            Zone {
                id,
                name: format!("zone {id}"),
                x: (x0 + ix * w, x0 + (ix + 1.0) * w),
                y: (y0 + iy * h, y0 + (iy + 1.0) * h),
            }
        })
        .collect()
}

/// Fusion tuning of `t_chaos`'s hallway (the acceptance tuning of the
/// world model) with the default liveness timeouts and the room's zones.
pub fn fuse_config(base: &WiTrackConfig, area: (f64, f64, f64, f64)) -> FuseConfig {
    FuseConfig {
        frame_period_s: base.sweep.frame_duration_s(),
        obs_std_floor_m: 0.25,
        gate_mahalanobis_sq: 25.0,
        max_uncorroborated_epochs: 150,
        coverage_margin_m: 0.25,
        min_new_track_separation_m: 2.5,
        fall: FallConfig::default(),
        zones: zones(area),
        ..FuseConfig::default()
    }
}

/// A room's registration: each sensor's surveyed pose and coverage.
pub fn registration(tape: &RoomTape, sensor_ids: &[u32]) -> Registration {
    let mut reg = Registration::new();
    for (v, &id) in sensor_ids.iter().enumerate() {
        reg.insert(id, tape.poses[v]);
        if tape.sensors.len() > 1 {
            reg.set_coverage(id, COVERAGE_M);
        }
    }
    reg
}
