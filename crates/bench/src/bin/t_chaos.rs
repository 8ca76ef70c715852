//! t_chaos — graceful-degradation acceptance matrix, with a
//! machine-readable `BENCH_chaos.json` artifact.
//!
//! Every cell runs the full deployment path — RF simulation → wire →
//! sharded pipelines → fusion hub → wire subscriber — through three
//! phases on one connection: a clean warmup, a fault window, and a clean
//! recovery. The fault window injects one fault class (seeded, via
//! [`FaultyTransport`]) or silences a sensor outright; the cell then
//! checks the degradation contract:
//!
//! * **zero panics** — the run completes and world frames never stop;
//! * **bounded fused error** — per-phase median 3D error against the
//!   simulator's ground truth stays under the room's bound while a
//!   walker is inside live coverage;
//! * **no identity swaps** — two crossing walkers never exchange world
//!   track ids, fault window included;
//! * **graceful shed** — faults shed frames (counted), never the
//!   session or the subscriber stream;
//! * **recovery** — time from the end of the fault window to the first
//!   epoch where every covered walker is tracked well again, reported
//!   as `recovery_to_good_ns` (floored at one frame period) and gated
//!   lower-is-better by `ci/perf_gate.py`.
//!
//! Rooms: `hallway` (12 m, two crossing walkers, multi-target
//! pipelines) and `studio` (a [`ScenarioSpec`]-built 9 m room: one
//! random walker, mild co-channel interference, 50 ppm clock drift on
//! sensor 1). Fault classes: drop, corrupt, reorder, dup_burst, stall,
//! outage.
//!
//! Flags: `--rooms a,b`, `--faults a,b,..`, `--quick` (hallway-only
//! subset, same windows — values stay gate-comparable), `--out PATH`
//! (default `BENCH_chaos.json`; `-` skips writing).

use std::f64::consts::PI;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use witrack_bench::printing::banner;
use witrack_core::fall::FallConfig;
use witrack_core::WiTrackConfig;
use witrack_fuse::{FuseConfig, Registration};
use witrack_geom::{AntennaArray, RigidTransform, Vec3};
use witrack_obs::AnomalyKind;
use witrack_serve::engine::{EngineConfig, OverloadPolicy};
use witrack_serve::factory::{hello_for, witrack_factory};
use witrack_serve::hub::WorldConfig;
use witrack_serve::transport::in_proc_pair;
use witrack_serve::wire::{Message, PipelineKind, SubscriptionStats, WorldUpdateMsg};
use witrack_serve::{
    EventKind, FaultPlan, FaultStats, FaultyTransport, SensorClient, Server, SubscriptionBuilder,
};
use witrack_sim::chaos::ScenarioSpec;
use witrack_sim::motion::LinePath;
use witrack_sim::multi::PersonSpec;
use witrack_sim::vantage::{scenario, MultiVantageSimulator};
use witrack_sim::{chaos::ChaosScenario, SimConfig};

const ROOM_ID: u32 = 1;
/// Phase windows (seconds of simulated walking, same in `--quick` so the
/// recovery values stay comparable to the checked-in baseline).
const WARMUP_S: f64 = 2.0;
const FAULT_S: f64 = 2.0;
const RECOVERY_S: f64 = 2.0;
/// Tracking settle time excluded from the clean-phase statistics.
const SETTLE_S: f64 = 0.75;
/// "Tracked" for the phase statistics: a world track this close to truth.
const TRACKED_M: f64 = 1.0;
/// A "good" recovery epoch: every covered walker within this, un-coasted.
const GOOD_M: f64 = 0.8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultClass {
    Drop,
    Corrupt,
    Reorder,
    DupBurst,
    Stall,
    Outage,
}

impl FaultClass {
    const ALL: [FaultClass; 6] = [
        FaultClass::Drop,
        FaultClass::Corrupt,
        FaultClass::Reorder,
        FaultClass::DupBurst,
        FaultClass::Stall,
        FaultClass::Outage,
    ];

    fn name(&self) -> &'static str {
        match self {
            FaultClass::Drop => "drop",
            FaultClass::Corrupt => "corrupt",
            FaultClass::Reorder => "reorder",
            FaultClass::DupBurst => "dup_burst",
            FaultClass::Stall => "stall",
            FaultClass::Outage => "outage",
        }
    }

    fn parse(s: &str) -> Option<FaultClass> {
        FaultClass::ALL.into_iter().find(|f| f.name() == s)
    }

    /// The transport plan active during the fault window. `Outage` is a
    /// sensor failure, not a transport fault: the driver silences the
    /// sensor instead.
    fn plan(&self, seed: u64) -> FaultPlan {
        let base = FaultPlan::builder(seed);
        match self {
            FaultClass::Drop => base.drop(0.15),
            FaultClass::Corrupt => base.corrupt(0.15),
            FaultClass::Reorder => base.reorder(0.25, 4),
            FaultClass::DupBurst => base.duplicate(0.1).burst(0.05, 6),
            FaultClass::Stall => base.stall(0.02, 25),
            FaultClass::Outage => base,
        }
        .build()
    }
}

struct Options {
    rooms: Vec<String>,
    faults: Vec<FaultClass>,
    out: Option<String>,
}

fn parse_options() -> Options {
    let mut rooms = vec!["hallway".to_string(), "studio".to_string()];
    let mut faults = FaultClass::ALL.to_vec();
    let mut out = Some("BENCH_chaos.json".to_string());
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => rooms = vec!["hallway".to_string()],
            "--rooms" => {
                if let Some(v) = it.next() {
                    rooms = v.split(',').map(|s| s.trim().to_string()).collect();
                }
            }
            "--faults" => {
                if let Some(v) = it.next() {
                    faults = v
                        .split(',')
                        .filter_map(|s| FaultClass::parse(s.trim()))
                        .collect();
                }
            }
            "--out" => {
                out = it.next().filter(|s| s != "-");
            }
            _ => {}
        }
    }
    Options { rooms, faults, out }
}

fn mid_base() -> WiTrackConfig {
    WiTrackConfig {
        sweep: witrack_fmcw::SweepConfig::witrack_mid(),
        max_round_trip_m: 40.0,
        ..WiTrackConfig::witrack_default()
    }
}

/// The world.rs acceptance fuse tuning, plus liveness timeouts short
/// enough that an in-process outage (wall-paced ~1 ms/frame) is
/// detected and survived inside one fault window.
fn fuse_cfg(base: &WiTrackConfig) -> FuseConfig {
    FuseConfig {
        frame_period_s: base.sweep.frame_duration_s(),
        obs_std_floor_m: 0.25,
        gate_mahalanobis_sq: 25.0,
        max_uncorroborated_epochs: 150,
        coverage_margin_m: 0.25,
        min_new_track_separation_m: 2.5,
        suspect_timeout_s: 0.05,
        dead_timeout_s: 0.15,
        fall: FallConfig::default(),
        ..FuseConfig::default()
    }
}

fn registration(hallway_m: f64, coverage_m: f64) -> Registration {
    Registration::new()
        .with_sensor(0, RigidTransform::IDENTITY)
        .with_sensor(
            1,
            RigidTransform::from_yaw(PI, Vec3::new(0.0, hallway_m, 0.0)),
        )
        .with_coverage(0, coverage_m)
        .with_coverage(1, coverage_m)
}

/// One room of the matrix: a simulator (plain or [`ScenarioSpec`]-built),
/// its geometry, and its acceptance bounds.
struct Room {
    name: &'static str,
    hallway_m: f64,
    coverage_m: f64,
    kind: PipelineKind,
    humans: usize,
    /// Clean/recovery-phase median error bound (m).
    clean_bound_m: f64,
    sim: RoomSim,
}

enum RoomSim {
    Plain(MultiVantageSimulator),
    Built(ChaosScenario),
}

impl RoomSim {
    fn next_round(&mut self) -> Option<Vec<witrack_sim::RoomSweeps>> {
        match self {
            RoomSim::Plain(s) => s.next_round(),
            RoomSim::Built(s) => s.next_round(),
        }
    }

    fn sim(&self) -> &MultiVantageSimulator {
        match self {
            RoomSim::Plain(s) => s,
            RoomSim::Built(s) => s.sim(),
        }
    }
}

fn make_room(name: &str, base: &WiTrackConfig, duration_s: f64) -> Room {
    match name {
        // Two walkers crossing a 12 m hallway in opposite x-offset
        // lanes: the identity-swap bait, on multi-target pipelines.
        "hallway" => {
            let (hallway_m, coverage_m) = (12.0, 8.0);
            let a = (Vec3::new(-1.2, 2.2, 1.05), Vec3::new(-1.2, 9.8, 1.05));
            let b = (Vec3::new(1.2, 9.8, 0.95), Vec3::new(1.2, 2.2, 0.95));
            let people = vec![
                PersonSpec::adult(LinePath::new(a.0, a.1, a.0.distance(a.1) / duration_s)),
                PersonSpec::adult(LinePath::new(b.0, b.1, b.0.distance(b.1) / duration_s)),
            ];
            let sim = MultiVantageSimulator::new(
                SimConfig {
                    sweep: base.sweep,
                    noise_std: 0.05,
                    seed: 9,
                },
                AntennaArray::t_shape(Vec3::new(0.0, 0.0, 1.0), 1.0),
                scenario::facing_pair(hallway_m, coverage_m),
                people,
            );
            Room {
                name: "hallway",
                hallway_m,
                coverage_m,
                kind: PipelineKind::MultiTarget,
                humans: 2,
                clean_bound_m: 0.6,
                sim: RoomSim::Plain(sim),
            }
        }
        // A declaratively-specified 9 m room: one random walker, mild
        // co-channel interference, sensor 1's clock 50 ppm fast.
        "studio" => {
            let spec = ScenarioSpec::new("studio")
                .with_room(9.0, 6.0)
                .with_walkers(1)
                .with_interference(0.01)
                .with_clock_drift(1, 50e-6)
                .with_duration(duration_s)
                .with_seed(5);
            let built = spec.build(base.sweep, 0.05);
            Room {
                name: "studio",
                hallway_m: 9.0,
                coverage_m: 6.0,
                kind: PipelineKind::SingleTarget,
                humans: 1,
                clean_bound_m: 0.9,
                sim: RoomSim::Built(built),
            }
        }
        other => panic!("unknown room {other:?} (rooms: hallway, studio)"),
    }
}

struct CellResult {
    room: String,
    fault: FaultClass,
    frames_sent: u64,
    world_updates: usize,
    rejects: u64,
    injected: FaultStats,
    shed_frames: i64,
    clean_median_m: f64,
    fault_median_m: f64,
    recovery_median_m: f64,
    clean_tracked: f64,
    fault_updates: usize,
    identity_swaps: u64,
    nonfinite_shed: u64,
    anomalies: Vec<(AnomalyKind, u64)>,
    recovery_to_good_ns: u64,
    /// Final counters of the rate-limited fall subscription on the clean
    /// side connection (None = the unsubscribe reply never arrived).
    filter: Option<SubscriptionStats>,
    violations: Vec<String>,
}

fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

#[allow(clippy::too_many_lines)]
fn run_cell(room_name: &str, fault: FaultClass) -> CellResult {
    let base = mid_base();
    let period = base.sweep.frame_duration_s();
    let duration_s = WARMUP_S + FAULT_S + RECOVERY_S;
    let mut room = make_room(room_name, &base, duration_s);
    let warmup_frames = (WARMUP_S / period).round() as u64;
    let fault_frames = (FAULT_S / period).round() as u64;
    let fault_start_s = warmup_frames as f64 * period;
    let fault_end_s = fault_start_s + fault_frames as f64 * period;

    let server = Server::builder(witrack_factory(base))
        .config(EngineConfig {
            queue_capacity: 8,
            overload: OverloadPolicy::Block,
            ..Default::default()
        })
        .world(WorldConfig::single_room(
            ROOM_ID,
            fuse_cfg(&base),
            registration(room.hallway_m, room.coverage_m),
        ))
        .start();
    let (client_end, server_end) = in_proc_pair(64);
    let seed = 0xC0FFEE ^ fault as u64;
    let faulty = FaultyTransport::new(client_end, FaultPlan::none(seed));
    let plan = faulty.plan_handle();
    let counters = faulty.counters();
    server.attach(server_end).expect("attach");

    let updates: Arc<Mutex<Vec<WorldUpdateMsg>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&updates);
    let mut client = SensorClient::connect_with(
        faulty,
        Some(Box::new(move |msg: &Message| {
            if let Message::WorldUpdate(w) = msg {
                sink.lock().expect("sink poisoned").push(w.clone());
            }
        })),
    )
    .expect("connect");
    client
        .subscribe_with(SubscriptionBuilder::room(ROOM_ID).build())
        .expect("subscribe");
    // A second subscriber on its own *clean* connection, narrowed to a
    // rate-limited fall alert: the hub must keep evaluating (and
    // accounting) its filter through the fault window, and the explicit
    // unsubscribe at the end must come back with final counters — a
    // faulted fleet must never wedge an alerting subscription.
    let (alert_end, alert_server_end) = in_proc_pair(64);
    server.attach(alert_server_end).expect("attach alert");
    let mut alert_client = SensorClient::connect(alert_end).expect("connect alert");
    const ALERT_SUB: u64 = 77;
    alert_client
        .subscribe_with(
            SubscriptionBuilder::room(ROOM_ID)
                .events(EventKind::Fall)
                .rate_limit(2.0, 2)
                .world_updates(false)
                .id(ALERT_SUB)
                .build(),
        )
        .expect("subscribe alert");
    for sensor in 0..2u32 {
        client
            .hello(hello_for(&base, sensor, room.kind))
            .expect("hello");
    }

    // Drive the three phases. Frames are sent as fast as the pipelines
    // absorb them except during an outage window, where the driver paces
    // ~1 ms/frame so the room shard's wall-clock liveness tick can observe the
    // silence (and the revival) inside the window.
    let sweeps_per_frame = base.sweep.sweeps_per_frame;
    let mut pending: Vec<Vec<Vec<Vec<f64>>>> = vec![Vec::new(); 2];
    let mut seq = [0u64; 2];
    let mut frame_of = [0u64; 2];
    let mut frames_sent = 0u64;
    while let Some(round) = room.sim.next_round() {
        for rs in round {
            let v = rs.sensor_id as usize;
            pending[v].push(rs.set.per_rx);
            if pending[v].len() < sweeps_per_frame {
                continue;
            }
            let f = frame_of[v];
            if v == 0 {
                if f == warmup_frames {
                    plan.set(fault.plan(seed));
                }
                if f == warmup_frames + fault_frames {
                    plan.set(FaultPlan::none(seed));
                }
            }
            let in_fault = f >= warmup_frames && f < warmup_frames + fault_frames;
            let silenced = fault == FaultClass::Outage && in_fault && v == 1;
            if !silenced {
                client
                    .send_sweeps(rs.sensor_id, seq[v], &pending[v])
                    .expect("send");
                seq[v] += 1;
                frames_sent += 1;
            }
            if fault == FaultClass::Outage && in_fault && v == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            frame_of[v] += 1;
            pending[v].clear();
        }
    }
    for sensor in 0..2u32 {
        client.teardown(sensor).expect("teardown");
    }
    let stats = client.close();
    // Release the alert subscription explicitly; the final counters must
    // come back promptly or the subscription is wedged.
    alert_client
        .unsubscribe(ROOM_ID, ALERT_SUB)
        .expect("unsubscribe alert");
    let filter_stats = {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match alert_client.last_subscription_stats() {
                Some(s) => break Some(s),
                None if std::time::Instant::now() >= deadline => break None,
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    };
    let alert_stats = alert_client.close();
    let anomalies = {
        let mut counts: Vec<(AnomalyKind, u64)> = Vec::new();
        for a in server.recorder().dump() {
            match counts.iter_mut().find(|(k, _)| *k == a.kind) {
                Some((_, n)) => *n += 1,
                None => counts.push((a.kind, 1)),
            }
        }
        counts
    };
    let fuse_stats = server
        .registry()
        .render_text()
        .lines()
        .find_map(|l| {
            l.strip_prefix("witrack_fuse_nonfinite_observations")
                .and_then(|rest| rest.split_whitespace().next_back()?.parse().ok())
        })
        .unwrap_or(0u64);
    let metrics = server.shutdown();
    let updates = Arc::try_unwrap(updates)
        .unwrap_or_else(|_| panic!("collector still shared"))
        .into_inner()
        .expect("collector poisoned");

    // --- Evaluate the degradation contract against ground truth.
    let sim = room.sim.sim();
    let covered = |i: usize, t: f64, phase_fault: bool| {
        let s1_live = !(fault == FaultClass::Outage && phase_fault);
        sim.in_coverage(0, i, t) || (s1_live && sim.in_coverage(1, i, t))
    };
    let mut phase_errs: [Vec<f64>; 3] = Default::default();
    let mut phase_covered = [0usize; 3];
    let mut phase_tracked = [0usize; 3];
    let mut fault_updates = 0usize;
    let mut identity_swaps = 0u64;
    let mut prev_assign: Option<Vec<witrack_fuse::WorldTrackId>> = None;
    let mut recovery_to_good_s: Option<f64> = None;
    for u in &updates {
        let t = u.frame.time_s;
        if t < SETTLE_S {
            continue;
        }
        let phase = if t < fault_start_s {
            0
        } else if t < fault_end_s {
            1
        } else {
            2
        };
        if phase == 1 {
            fault_updates += 1;
        }
        let mut assign = Vec::with_capacity(room.humans);
        let mut all_good = true;
        for i in 0..room.humans {
            let truth = sim.true_state(i, t).center;
            if !covered(i, t, phase == 1) {
                continue;
            }
            phase_covered[phase] += 1;
            let nearest = u.frame.tracks.iter().min_by(|x, y| {
                x.position
                    .distance(truth)
                    .partial_cmp(&y.position.distance(truth))
                    .expect("finite")
            });
            match nearest {
                Some(track) if track.position.distance(truth) < TRACKED_M => {
                    phase_tracked[phase] += 1;
                    phase_errs[phase].push(track.position.distance(truth));
                    if track.position.distance(truth) >= GOOD_M || track.coasting {
                        all_good = false;
                    }
                    assign.push(track.id);
                }
                _ => {
                    all_good = false;
                }
            }
        }
        // An identity swap: the per-walker nearest-track assignment
        // inverts between consecutive fully-assigned epochs. (Distinct
        // x lanes keep nearest-truth assignment unambiguous.)
        if assign.len() == room.humans && room.humans == 2 {
            if let Some(prev) = &prev_assign {
                if assign[0] == prev[1] && assign[1] == prev[0] && assign[0] != assign[1] {
                    identity_swaps += 1;
                }
            }
            prev_assign = Some(assign);
        }
        if phase == 2 && recovery_to_good_s.is_none() && all_good && phase_covered[2] > 0 {
            recovery_to_good_s = Some(t - fault_end_s);
        }
    }
    let clean_median_m = median(&mut phase_errs[0]);
    let fault_median_m = median(&mut phase_errs[1]);
    let recovery_median_m = median(&mut phase_errs[2]);
    let clean_tracked = phase_tracked[0] as f64 / phase_covered[0].max(1) as f64;
    let recovery_tracked = phase_tracked[2] as f64 / phase_covered[2].max(1) as f64;
    let recovery_to_good_ns =
        ((recovery_to_good_s.unwrap_or(f64::NAN) * 1e9).max(period * 1e9)) as u64;
    let injected = counters.snapshot();
    let shed_frames = frames_sent as i64 - metrics.frames_emitted as i64;

    // --- Acceptance.
    let mut violations = Vec::new();
    let mut check = |ok: bool, msg: String| {
        if !ok {
            violations.push(msg);
        }
    };
    check(
        recovery_to_good_s.is_some(),
        format!("never recovered within {RECOVERY_S} s of the fault window closing"),
    );
    check(
        clean_median_m < room.clean_bound_m,
        format!(
            "clean median {clean_median_m:.2} m ≥ bound {:.2} m",
            room.clean_bound_m
        ),
    );
    check(
        recovery_median_m < room.clean_bound_m * 1.5,
        format!(
            "recovery median {recovery_median_m:.2} m ≥ {:.2} m",
            room.clean_bound_m * 1.5
        ),
    );
    check(
        fault_median_m.is_nan() || fault_median_m < 3.0,
        format!("fault-window median {fault_median_m:.2} m ≥ 3.0 m"),
    );
    check(
        clean_tracked > 0.7,
        format!(
            "clean phase tracked only {:.0}% of covered epochs",
            clean_tracked * 100.0
        ),
    );
    check(
        recovery_tracked > 0.5,
        format!(
            "recovery phase tracked only {:.0}% of covered epochs",
            recovery_tracked * 100.0
        ),
    );
    check(
        identity_swaps == 0,
        format!("{identity_swaps} identity swaps"),
    );
    check(
        fault_updates > 0,
        "world stream collapsed during the fault window".to_string(),
    );
    check(
        filter_stats.is_some(),
        "fall-alert subscription wedged: no final stats within 5 s of unsubscribe".to_string(),
    );
    if let Some(f) = filter_stats {
        check(
            f.matched <= f.evaluated && f.shed <= f.matched && f.sub_id == ALERT_SUB,
            format!("fall-alert counters inconsistent: {f:?}"),
        );
    }
    check(
        alert_stats.rejects == 0,
        format!("fall-alert connection drew {} rejects", alert_stats.rejects),
    );
    match fault {
        FaultClass::Drop => check(injected.dropped > 0, "no drops injected".into()),
        FaultClass::Corrupt => check(injected.corrupted > 0, "no corruption injected".into()),
        FaultClass::Reorder => check(injected.reordered > 0, "no reorders injected".into()),
        FaultClass::DupBurst => check(
            injected.duplicated > 0 && injected.bursts > 0,
            "no duplicates/bursts injected".into(),
        ),
        FaultClass::Stall => check(injected.stalls > 0, "no stalls injected".into()),
        FaultClass::Outage => {
            let has = |k: AnomalyKind| anomalies.iter().any(|(kind, _)| *kind == k);
            check(
                has(AnomalyKind::SensorDead) && has(AnomalyKind::SensorRecovered),
                "outage not observed by the liveness model".into(),
            );
        }
    }

    CellResult {
        room: room.name.to_string(),
        fault,
        frames_sent,
        world_updates: updates.len(),
        rejects: stats.rejects,
        injected,
        shed_frames,
        clean_median_m,
        fault_median_m,
        recovery_median_m,
        clean_tracked,
        fault_updates,
        identity_swaps,
        nonfinite_shed: fuse_stats,
        anomalies,
        recovery_to_good_ns,
        filter: filter_stats,
        violations,
    }
}

fn main() {
    let opts = parse_options();
    banner(
        "t_chaos",
        "transport fault + sensor failure degradation matrix",
        "beyond the paper: the §7 streaming pipeline under loss, corruption, and dead sensors",
    );
    println!(
        "{:>8} {:>9} {:>7} {:>8} {:>8} {:>7} {:>7} {:>7} {:>6} {:>6} {:>12}",
        "room",
        "fault",
        "frames",
        "updates",
        "rejects",
        "clean m",
        "fault m",
        "recov m",
        "swaps",
        "shed",
        "recovery ms"
    );
    let mut cells = Vec::new();
    let mut failed = false;
    for room in &opts.rooms {
        for &fault in &opts.faults {
            let cell = run_cell(room, fault);
            println!(
                "{:>8} {:>9} {:>7} {:>8} {:>8} {:>7.2} {:>7.2} {:>7.2} {:>6} {:>6} {:>12.1}",
                cell.room,
                cell.fault.name(),
                cell.frames_sent,
                cell.world_updates,
                cell.rejects,
                cell.clean_median_m,
                cell.fault_median_m,
                cell.recovery_median_m,
                cell.identity_swaps,
                cell.shed_frames,
                cell.recovery_to_good_ns as f64 / 1e6,
            );
            for v in &cell.violations {
                failed = true;
                println!("          FAIL: {v}");
            }
            cells.push(cell);
        }
    }
    println!(
        "\n(fault window: {FAULT_S} s of {} fps walking; chaos injected: {})",
        (1.0 / mid_base().sweep.frame_duration_s()).round(),
        cells
            .iter()
            .map(|c| {
                let i = c.injected;
                i.dropped + i.duplicated + i.reordered + i.corrupted + i.stalls + i.bursts
            })
            .sum::<u64>()
    );

    if let Some(path) = opts.out {
        let mut rows = Vec::new();
        for c in &cells {
            let anomalies = c
                .anomalies
                .iter()
                .map(|(k, n)| format!("\"{k:?}\": {n}"))
                .collect::<Vec<_>>()
                .join(", ");
            rows.push(format!(
                concat!(
                    "    {{\"room\": \"{}\", \"fault\": \"{}\", \"frames_sent\": {}, ",
                    "\"world_updates\": {}, \"rejects\": {}, \"shed_frames\": {}, ",
                    "\"injected_dropped\": {}, \"injected_duplicated\": {}, ",
                    "\"injected_reordered\": {}, \"injected_corrupted\": {}, ",
                    "\"injected_stalls\": {}, \"injected_bursts\": {}, ",
                    "\"clean_median_m\": {:.3}, \"fault_median_m\": {:.3}, ",
                    "\"recovery_median_m\": {:.3}, \"clean_tracked_frac\": {:.3}, ",
                    "\"fault_window_updates\": {}, \"identity_swaps\": {}, ",
                    "\"nonfinite_observations_shed\": {}, ",
                    "\"anomalies\": {{{}}}, ",
                    "\"filter_evaluated\": {}, \"filter_matched\": {}, ",
                    "\"filter_shed\": {}, \"filter_rate_limited\": {}, ",
                    "\"passed\": {}, \"recovery_to_good_ns\": {}}}"
                ),
                c.room,
                c.fault.name(),
                c.frames_sent,
                c.world_updates,
                c.rejects,
                c.shed_frames,
                c.injected.dropped,
                c.injected.duplicated,
                c.injected.reordered,
                c.injected.corrupted,
                c.injected.stalls,
                c.injected.bursts,
                c.clean_median_m,
                c.fault_median_m,
                c.recovery_median_m,
                c.clean_tracked,
                c.fault_updates,
                c.identity_swaps,
                c.nonfinite_shed,
                anomalies,
                c.filter.unwrap_or_default().evaluated,
                c.filter.unwrap_or_default().matched,
                c.filter.unwrap_or_default().shed,
                c.filter.unwrap_or_default().rate_limited,
                c.violations.is_empty(),
                c.recovery_to_good_ns
            ));
        }
        let json = format!(
            "{{\n  \"bench\": \"t_chaos\",\n  \"frame_period_s\": {},\n  \
             \"windows_s\": [{WARMUP_S}, {FAULT_S}, {RECOVERY_S}],\n  \
             \"results\": [\n{}\n  ]\n}}\n",
            mid_base().sweep.frame_duration_s(),
            rows.join(",\n")
        );
        std::fs::write(&path, json).expect("write artifact");
        println!("wrote {path}");
    }

    if failed {
        eprintln!("t_chaos: FAIL — degradation contract violated (see FAIL lines)");
        std::process::exit(1);
    }
    println!("t_chaos: all cells passed the degradation contract");
}
