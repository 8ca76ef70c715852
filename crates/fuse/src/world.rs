//! The world-model fusion engine: per-sensor track reports in, one
//! coherent set of world tracks (plus fleet events) out.
//!
//! Every sensor runs its own pipeline and reports [`FrameReport`]s in its
//! own local frame. [`FusionEngine`] registers those observations into
//! the world frame (via [`Registration`]), groups them into fusion
//! *epochs* (one per sensor frame period), associates them to world
//! tracks with a Mahalanobis-gated assignment (reusing the exact
//! Hungarian solver of `witrack-mtt`), and merges matched observations
//! into each track's per-axis constant-velocity Kalman state with the
//! observation's *own* reported covariance — a covariance-weighted merge,
//! so a sensor seeing a person broadside (small variance) outweighs one
//! seeing them at the edge of coverage.
//!
//! Epoch close-out is **watermarked**: an epoch fuses once every sensor
//! not [`SensorLiveness::Dead`] has reported at or past it, so fused
//! output never depends on how shard threads interleave reports. A quiet
//! sensor holds its room until [`FusionEngine::tick`] declares it dead;
//! then epochs close on the survivors and its world tracks coast until
//! another sensor reacquires them (the handoff path).

use crate::config::FuseConfig;
use crate::events::WorldEvent;
use crate::registration::Registration;
use std::collections::BTreeMap;
use witrack_core::fall::FallDetector;
use witrack_core::FrameReport;
use witrack_dsp::kalman::Kalman1D;
use witrack_geom::Vec3;
use witrack_mtt::{AssignmentSolver, CostMatrix};

/// Stable identifier of a world track, unique within one engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorldTrackId(pub u64);

impl std::fmt::Display for WorldTrackId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "W{}", self.0)
    }
}

/// Lifecycle phase of a world track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Tentative,
    Confirmed,
    Coasting,
    Dead,
}

/// One observation, already registered into the world frame.
#[derive(Debug, Clone, Copy)]
struct Obs {
    sensor: u32,
    position: Vec3,
    /// Per-axis variance, world frame, floored (m²).
    var: Vec3,
    /// The reporting tracker was coasting (prediction, not measurement).
    held: bool,
}

/// One track's association results within the epoch being fused.
#[derive(Debug, Clone, Copy, Default)]
struct TrackEpoch {
    /// Some observation was merged (the state already advanced to now).
    updated: bool,
    /// Some merged observation was a measurement, not a held prediction.
    fresh: bool,
    /// Sensors whose observations were merged.
    contributors: u8,
    /// Best contributor: fresh beats held, then lower total variance
    /// (`(held, variance, sensor)` — lexicographic).
    best: Option<(bool, f64, u32)>,
    /// The incumbent anchor's contribution (`(variance, held)`), when it
    /// contributed — drives handoff hysteresis.
    incumbent: Option<(f64, bool)>,
}

/// Working storage for closing an epoch, owned by the engine and reused,
/// so an epoch allocates nothing beyond the frame it returns.
#[derive(Default)]
struct EpochScratch {
    /// `(sensor, observation index)` pairs, sorted: the epoch's
    /// observations grouped per sensor in sensor order.
    by_sensor: Vec<(u32, usize)>,
    /// Per observation: merged into a track or a new cluster.
    claimed: Vec<bool>,
    /// Per pre-existing track, indexed like `FusionEngine::tracks`.
    per_track: Vec<TrackEpoch>,
    established: Vec<usize>,
    tentative: Vec<usize>,
    /// One sensor's still-unclaimed observations in one association pass.
    available: Vec<usize>,
    /// Positions of the tracks seeded this epoch.
    born: Vec<Vec3>,
    /// Sensors already in the initiation cluster being grown.
    cluster_sensors: Vec<u32>,
    /// Emptied observation buckets, recycled into `pending`.
    spare_buckets: Vec<Vec<Obs>>,
}

/// Spare observation buckets kept for reuse (a room rarely has more than
/// a couple of epochs pending).
const SPARE_BUCKETS: usize = 8;

struct WorldTrack {
    id: WorldTrackId,
    phase: Phase,
    kx: Kalman1D,
    ky: Kalman1D,
    kz: Kalman1D,
    hits: usize,
    consecutive_miss_epochs: u64,
    /// Consecutive epochs spent where ≥ 2 sensors declare coverage while
    /// at most one contributed an observation (the ghost signature).
    uncorroborated_epochs: u64,
    /// Whether ≥ 2 sensors ever agreed on this track in one epoch. An
    /// established-but-never-corroborated track is *quarantined* from
    /// reports (and events) while it sits where ≥ 2 live sensors declare
    /// coverage: real bodies corroborate there almost immediately, so
    /// the quarantine only ever hides per-sensor ghosts drifting in from
    /// a coverage boundary.
    corroborated_ever: bool,
    /// Fused epochs lived (drives the fall-rule warmup).
    age_epochs: u64,
    /// A sensor challenging for the anchor, with its consecutive-epoch
    /// advantage streak (handoff patience).
    challenger: Option<(u32, u64)>,
    falls: FallDetector,
    zone: Option<u32>,
    primary: Option<u32>,
    /// Sensors merged into the track in the newest fused epoch (0 in the
    /// epoch it was born).
    contributors: u8,
}

impl WorldTrack {
    fn new(id: WorldTrackId, seed: &Obs, corroborated: bool, cfg: &FuseConfig) -> WorldTrack {
        let mut t = WorldTrack {
            id,
            phase: Phase::Tentative,
            kx: Kalman1D::new(cfg.kalman),
            ky: Kalman1D::new(cfg.kalman),
            kz: Kalman1D::new(cfg.kalman),
            hits: 1,
            consecutive_miss_epochs: 0,
            uncorroborated_epochs: 0,
            corroborated_ever: corroborated,
            age_epochs: 0,
            challenger: None,
            falls: FallDetector::new(cfg.fall),
            zone: None,
            primary: Some(seed.sensor),
            contributors: 0,
        };
        t.absorb(seed, 0.0);
        t
    }

    fn position(&self) -> Vec3 {
        Vec3::new(
            self.kx.position().expect("seeded at construction"),
            self.ky.position().expect("seeded at construction"),
            self.kz.position().expect("seeded at construction"),
        )
    }

    fn velocity(&self) -> Vec3 {
        Vec3::new(
            self.kx.velocity().expect("seeded at construction"),
            self.ky.velocity().expect("seeded at construction"),
            self.kz.velocity().expect("seeded at construction"),
        )
    }

    fn position_variance(&self) -> Vec3 {
        Vec3::new(
            self.kx.position_variance(),
            self.ky.position_variance(),
            self.kz.position_variance(),
        )
    }

    /// Folds one observation into the fused state (`dt = 0` for the
    /// second and later sensors of the same epoch).
    fn absorb(&mut self, obs: &Obs, dt: f64) {
        self.kx.update_with_noise(obs.position.x, dt, obs.var.x);
        self.ky.update_with_noise(obs.position.y, dt, obs.var.y);
        self.kz.update_with_noise(obs.position.z, dt, obs.var.z);
    }

    /// Time-advances the state through an empty epoch span.
    fn coast(&mut self, dt: f64) {
        self.kx.predict(dt);
        self.ky.predict(dt);
        self.kz.predict(dt);
    }

    fn is_established(&self) -> bool {
        matches!(self.phase, Phase::Confirmed | Phase::Coasting)
    }
}

/// A fused world track at one epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldTrackSnapshot {
    /// Stable world-track identifier.
    pub id: WorldTrackId,
    /// Fused position, world frame (m).
    pub position: Vec3,
    /// Fused velocity, world frame (m/s).
    pub velocity: Vec3,
    /// Per-axis fused position variance (m²); grows while coasting.
    pub pos_var: Vec3,
    /// `true` while no sensor is observing the track (prediction only).
    pub coasting: bool,
    /// Sensors whose observations were merged this epoch.
    pub contributors: u8,
    /// The sensor currently anchoring the track (most recent
    /// lowest-variance contributor), if any ever has.
    pub primary_sensor: Option<u32>,
}

/// One fused epoch: the world-track set plus the events the epoch fired.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldFrame {
    /// Epoch counter (`time_s / frame_period`, rounded).
    pub epoch: u64,
    /// Epoch time (s).
    pub time_s: f64,
    /// All established world tracks.
    pub tracks: Vec<WorldTrackSnapshot>,
    /// Events fired during this epoch, in a deterministic order.
    pub events: Vec<WorldEvent>,
}

/// Liveness phase of a registered sensor, driven by
/// [`FusionEngine::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorLiveness {
    /// Reporting within the suspect timeout.
    Live,
    /// Silent past [`crate::FuseConfig::suspect_timeout_s`]; it still
    /// holds the watermark, so the room's fusion waits for it until it
    /// is declared `Dead`.
    Suspect,
    /// Silent past [`crate::FuseConfig::dead_timeout_s`]; removed from
    /// the watermark so epochs close on the surviving set. Its tracks
    /// coast; a later report revives it in place.
    Dead,
}

impl SensorLiveness {
    /// Stable lowercase name (gauges, dumps).
    pub fn name(&self) -> &'static str {
        match self {
            SensorLiveness::Live => "live",
            SensorLiveness::Suspect => "suspect",
            SensorLiveness::Dead => "dead",
        }
    }

    /// Numeric encoding for gauges: 0 live, 1 suspect, 2 dead.
    pub fn as_gauge(&self) -> i64 {
        match self {
            SensorLiveness::Live => 0,
            SensorLiveness::Suspect => 1,
            SensorLiveness::Dead => 2,
        }
    }
}

/// One liveness state change, drained via
/// [`FusionEngine::take_liveness_transitions`] (anomaly recording,
/// gauges).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LivenessTransition {
    /// The sensor that changed state.
    pub sensor_id: u32,
    /// State before the change.
    pub from: SensorLiveness,
    /// State after the change.
    pub to: SensorLiveness,
    /// Tick-clock seconds of silence that triggered a demotion; 0 for a
    /// recovery.
    pub silence_s: f64,
}

/// Per-sensor health bookkeeping (liveness, watermark, clock drift).
#[derive(Debug, Clone, Copy)]
struct SensorHealth {
    liveness: SensorLiveness,
    /// Newest epoch reported since the sensor (re)joined the watermark.
    latest_epoch: u64,
    /// Reports ever ingested from this sensor.
    reports: u64,
    /// `reports` as of the last tick that saw progress.
    seen_reports: u64,
    /// Tick-clock time the current silence began (None until observed).
    silent_since_s: Option<f64>,
    /// EWMA estimate of the sensor's clock offset from the epoch grid.
    drift_offset_s: f64,
}

impl SensorHealth {
    fn new() -> SensorHealth {
        SensorHealth {
            liveness: SensorLiveness::Live,
            latest_epoch: 0,
            reports: 0,
            seen_reports: 0,
            silent_since_s: None,
            drift_offset_s: 0.0,
        }
    }

    /// The one liveness rule of fusion: every sensor not `Dead` holds
    /// the watermark and counts toward coverage expectations.
    fn holds_watermark(&self) -> bool {
        self.liveness != SensorLiveness::Dead
    }
}

/// Engine health counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Reports from sensors absent from the registration table (dropped).
    pub unregistered_reports: u64,
    /// Targets carrying a NaN/Inf coordinate (shed at the door — one
    /// non-finite measurement would poison a Kalman state forever).
    pub nonfinite_observations: u64,
    /// Epochs fused so far.
    pub epochs_fused: u64,
    /// Observations that failed every association gate and no initiation
    /// cluster wanted (typically per-sensor ghosts).
    pub orphan_observations: u64,
    /// Single-sensor initiation clusters refused because ≥ 2 sensors
    /// declared coverage there (see
    /// [`FuseConfig::max_uncorroborated_epochs`]).
    pub suppressed_initiations: u64,
    /// Tracks dropped by the corroboration rule.
    pub ghosts_suppressed: u64,
    /// Sensors demoted to [`SensorLiveness::Dead`] by the liveness tick.
    pub sensors_died: u64,
    /// Dead sensors that reported again and rejoined the watermark.
    pub sensors_recovered: u64,
}

/// The cross-sensor fusion engine for one room (one shared world frame).
pub struct FusionEngine {
    cfg: FuseConfig,
    registration: Registration,
    tracks: Vec<WorldTrack>,
    /// Observations buffered per epoch until the watermark passes them.
    pending: BTreeMap<u64, Vec<Obs>>,
    /// Per-sensor health, keyed like the registration.
    health: BTreeMap<u32, SensorHealth>,
    /// Liveness changes not yet drained by the owner.
    liveness_log: Vec<LivenessTransition>,
    last_fused_epoch: Option<u64>,
    next_id: u64,
    occupancy: BTreeMap<u32, u32>,
    cost: CostMatrix,
    solver: AssignmentSolver,
    stats: FusionStats,
    /// Handoff latency histogram (ns a challenger waited before taking
    /// the anchor), when the owner attached one.
    handoff_latency: Option<std::sync::Arc<witrack_obs::Histo>>,
    scratch: EpochScratch,
}

/// EWMA coefficient of each sensor's clock offset from the epoch grid.
const CLOCK_DRIFT_ALPHA: f64 = 0.05;

impl FusionEngine {
    /// Creates an engine over the given registration table. Every
    /// registered sensor starts `Live` at epoch 0, so fusion waits for
    /// the whole roster to report (or die) before closing an epoch.
    pub fn new(cfg: FuseConfig, registration: Registration) -> FusionEngine {
        let health = registration
            .sensor_ids()
            .map(|id| (id, SensorHealth::new()))
            .collect();
        FusionEngine {
            cfg,
            registration,
            tracks: Vec::new(),
            pending: BTreeMap::new(),
            health,
            liveness_log: Vec::new(),
            last_fused_epoch: None,
            next_id: 0,
            occupancy: BTreeMap::new(),
            cost: CostMatrix::new(0, 0),
            solver: AssignmentSolver::new(),
            stats: FusionStats::default(),
            handoff_latency: None,
            scratch: EpochScratch::default(),
        }
    }

    /// Attaches a histogram recording handoff latency: the time (ns of
    /// world time) between a challenger first out-measuring the
    /// incumbent anchor and the anchor actually switching.
    pub fn attach_handoff_histo(&mut self, histo: std::sync::Arc<witrack_obs::Histo>) {
        self.handoff_latency = Some(histo);
    }

    /// The registration table in use.
    pub fn registration(&self) -> &Registration {
        &self.registration
    }

    /// The configuration in use.
    pub fn config(&self) -> &FuseConfig {
        &self.cfg
    }

    /// Health counters.
    pub fn stats(&self) -> FusionStats {
        self.stats
    }

    /// Live world tracks (tentative included).
    pub fn live_tracks(&self) -> usize {
        self.tracks.len()
    }

    /// Fusion epoch lag: how far the newest report has run ahead of the
    /// watermark (the oldest epoch a sensor not `Dead` is still at). 0
    /// when idle or perfectly in step; a large lag means one sensor is
    /// stalling the room's fusion (for at most `dead_timeout_s`).
    pub fn watermark_lag_epochs(&self) -> u64 {
        let (oldest, newest) = self
            .holding_epochs()
            .fold((u64::MAX, 0), |(lo, hi), e| (lo.min(e), hi.max(e)));
        newest.saturating_sub(oldest)
    }

    /// The newest reported epoch of every sensor holding the watermark.
    fn holding_epochs(&self) -> impl Iterator<Item = u64> + '_ {
        self.health
            .values()
            .filter(|h| h.holds_watermark())
            .map(|h| h.latest_epoch)
    }

    /// Ingests one sensor's frame report. Returns the world frames of
    /// every epoch this report's arrival allowed to close (usually zero
    /// or one).
    pub fn push_report(&mut self, sensor_id: u32, report: &FrameReport) -> Vec<WorldFrame> {
        let Some(pose) = self.registration.get(sensor_id) else {
            self.stats.unregistered_reports += 1;
            return Vec::new();
        };
        let period = self.cfg.frame_period_s;
        // A pipeline clock starts at its session's hello, so a sensor
        // joining a running room reports from epoch ~0. Its first report
        // shifts its clock onto the newest epoch its peers have reached;
        // from then on data time alone pairs it with them.
        let first = self.health.get(&sensor_id).is_none_or(|h| h.reports == 0);
        let join_epoch = first.then(|| self.holding_epochs().max().unwrap_or(0));
        let health = self
            .health
            .entry(sensor_id)
            .or_insert_with(SensorHealth::new);
        if let Some(newest) = join_epoch {
            health.drift_offset_s = (report.time_s - newest as f64 * period).min(0.0);
        }
        health.reports += 1;
        health.silent_since_s = None;
        if health.liveness != SensorLiveness::Live {
            let from = health.liveness;
            health.liveness = SensorLiveness::Live;
            if from == SensorLiveness::Dead {
                self.stats.sensors_recovered += 1;
                health.latest_epoch = 0;
            }
            self.liveness_log.push(LivenessTransition {
                sensor_id,
                from,
                to: SensorLiveness::Live,
                silence_s: 0.0,
            });
        }
        // Clock-drift correction: subtract the sensor's tracked offset
        // from the epoch grid before rounding, then fold the residual
        // into the offset estimate. Slow drift (≪ period/2 between
        // consecutive reports) never splits one instant across epochs,
        // even once the accumulated offset spans several periods.
        let corrected_s = report.time_s - health.drift_offset_s;
        let epoch = (corrected_s / period).round().max(0.0) as u64;
        health.drift_offset_s += CLOCK_DRIFT_ALPHA * (corrected_s - epoch as f64 * period);
        // A report older than anything still pending folds into the
        // oldest open epoch (a 12.5 ms attribution slip, ~1 cm of walker
        // motion) rather than being lost.
        let epoch = match self.last_fused_epoch {
            Some(last) if epoch <= last => last + 1,
            _ => epoch,
        };
        let spare = &mut self.scratch.spare_buckets;
        let bucket = self
            .pending
            .entry(epoch)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        for t in &report.targets {
            let p = t.position;
            let var_ok = t
                .pos_var
                .is_none_or(|v| v.x.is_finite() && v.y.is_finite() && v.z.is_finite());
            if !(p.x.is_finite() && p.y.is_finite() && p.z.is_finite() && var_ok) {
                self.stats.nonfinite_observations += 1;
                continue;
            }
            bucket.push(Obs {
                sensor: sensor_id,
                position: pose.apply(t.position),
                var: pose.rotate_variances(self.cfg.effective_var(t.pos_var, t.held)),
                held: t.held,
            });
        }
        health.latest_epoch = health.latest_epoch.max(epoch);
        self.drain_watermarked()
    }

    /// Forgets a sensor (session teardown): it stops holding the
    /// watermark back immediately. Its tracks coast like any other loss
    /// of coverage. A clean teardown marks the sensor `Dead` without
    /// logging a transition (it is not an anomaly); a later report
    /// revives it.
    pub fn remove_sensor(&mut self, sensor_id: u32) -> Vec<WorldFrame> {
        if let Some(h) = self.health.get_mut(&sensor_id) {
            h.liveness = SensorLiveness::Dead;
            h.silent_since_s = None;
        }
        self.drain_watermarked()
    }

    /// Current liveness of a registered sensor.
    pub fn sensor_liveness(&self, sensor_id: u32) -> Option<SensorLiveness> {
        self.health.get(&sensor_id).map(|h| h.liveness)
    }

    /// Drains the liveness transitions accumulated since the last call
    /// (demotions from [`Self::tick`], recoveries from
    /// [`Self::push_report`]).
    pub fn take_liveness_transitions(&mut self) -> Vec<LivenessTransition> {
        std::mem::take(&mut self.liveness_log)
    }

    /// Advances the liveness clock. `now_s` is any monotone seconds
    /// source (the owner's wall clock); reports themselves carry sensor
    /// time, so silence is measured purely between ticks: a sensor whose
    /// report count has not moved since the previous tick is silent.
    ///
    /// Demotes silent sensors `Live → Suspect → Dead` per the configured
    /// timeouts. A death removes the sensor from the watermark and
    /// drains whatever epochs that unblocks; when *no* sensor remains in
    /// the watermark, everything still pending is force-closed so the
    /// room's consumers see the outage (coasting tracks) rather than a
    /// frozen stream. Returns the world frames those closures produced.
    pub fn tick(&mut self, now_s: f64) -> Vec<WorldFrame> {
        let suspect_after = self.cfg.suspect_timeout_s;
        let dead_after = self.cfg.dead_timeout_s;
        let mut any_died = false;
        for (&id, h) in self.health.iter_mut() {
            if h.reports > h.seen_reports {
                h.seen_reports = h.reports;
                h.silent_since_s = Some(now_s);
                continue;
            }
            let since = *h.silent_since_s.get_or_insert(now_s);
            let silence_s = now_s - since;
            let next = match h.liveness {
                SensorLiveness::Live if silence_s >= suspect_after => SensorLiveness::Suspect,
                SensorLiveness::Suspect if silence_s >= dead_after.max(suspect_after) => {
                    SensorLiveness::Dead
                }
                _ => continue,
            };
            self.liveness_log.push(LivenessTransition {
                sensor_id: id,
                from: h.liveness,
                to: next,
                silence_s,
            });
            h.liveness = next;
            if next == SensorLiveness::Dead {
                self.stats.sensors_died += 1;
                any_died = true;
            }
        }
        if !any_died {
            return Vec::new();
        }
        let mut out = self.drain_watermarked();
        if self.holding_epochs().next().is_none() && !self.pending.is_empty() {
            out.extend(self.flush());
        }
        out
    }

    /// Fuses everything still pending regardless of the watermark (end
    /// of stream).
    pub fn flush(&mut self) -> Vec<WorldFrame> {
        let epochs: Vec<u64> = self.pending.keys().copied().collect();
        epochs.into_iter().map(|e| self.fuse_epoch(e)).collect()
    }

    /// Fuses every pending epoch at or below the watermark.
    fn drain_watermarked(&mut self) -> Vec<WorldFrame> {
        let Some(watermark) = self.holding_epochs().min() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        while let Some(&epoch) = self.pending.keys().next() {
            if epoch > watermark {
                break;
            }
            out.push(self.fuse_epoch(epoch));
        }
        out
    }

    /// Normalized squared distance between a predicted track position and
    /// an observation, per-axis variances summed.
    fn mahalanobis_sq(pred: Vec3, track_var: Vec3, obs: &Obs) -> f64 {
        let d = pred - obs.position;
        d.x * d.x / (track_var.x + obs.var.x)
            + d.y * d.y / (track_var.y + obs.var.y)
            + d.z * d.z / (track_var.z + obs.var.z)
    }

    /// Closes one epoch: associate → merge → initiate → lifecycle →
    /// events → snapshot.
    fn fuse_epoch(&mut self, epoch: u64) -> WorldFrame {
        let mut observations = self.pending.remove(&epoch).unwrap_or_default();
        // Taken for the epoch so its buffers borrow apart from `self`.
        let mut scratch = std::mem::take(&mut self.scratch);
        let EpochScratch {
            by_sensor,
            claimed,
            per_track,
            established,
            tentative,
            available,
            born,
            cluster_sensors,
            spare_buckets,
        } = &mut scratch;
        let period = self.cfg.frame_period_s;
        let epochs_since = self
            .last_fused_epoch
            .map(|last| epoch.saturating_sub(last).max(1))
            .unwrap_or(1);
        let dt = period * epochs_since as f64;
        let time_s = epoch as f64 * period;
        self.last_fused_epoch = Some(epoch);
        self.stats.epochs_fused += 1;

        // --- Association: per sensor, established tracks before
        // tentative ones (a tentative ghost must never outbid a confirmed
        // track for its own observations).
        by_sensor.clear();
        by_sensor.extend(observations.iter().enumerate().map(|(i, o)| (o.sensor, i)));
        by_sensor.sort_unstable();
        let n_tracks = self.tracks.len();
        claimed.clear();
        claimed.resize(observations.len(), false);
        per_track.clear();
        per_track.resize(n_tracks, TrackEpoch::default());

        established.clear();
        established.extend((0..n_tracks).filter(|&i| self.tracks[i].is_established()));
        tentative.clear();
        tentative.extend((0..n_tracks).filter(|&i| !self.tracks[i].is_established()));
        for pass in [&*established, &*tentative] {
            if pass.is_empty() {
                continue;
            }
            for obs_of_sensor in by_sensor.chunk_by(|a, b| a.0 == b.0) {
                available.clear();
                available.extend(
                    obs_of_sensor
                        .iter()
                        .map(|&(_, i)| i)
                        .filter(|&i| !claimed[i]),
                );
                if available.is_empty() {
                    continue;
                }
                self.cost.reset(pass.len(), available.len());
                for (pi, &ti) in pass.iter().enumerate() {
                    let track = &self.tracks[ti];
                    // Tracks already advanced this epoch predict from now.
                    let pred_dt = if per_track[ti].updated { 0.0 } else { dt };
                    let pred = track.position() + track.velocity() * pred_dt;
                    let var = track.position_variance();
                    for (ci, &oi) in available.iter().enumerate() {
                        let d2 = Self::mahalanobis_sq(pred, var, &observations[oi]);
                        if d2 < self.cfg.gate_mahalanobis_sq {
                            self.cost.set(pi, ci, d2);
                        }
                    }
                }
                let assignment = self.solver.solve(&self.cost);
                for (pi, ci) in assignment.row_to_col.iter().enumerate() {
                    let Some(ci) = *ci else { continue };
                    let (ti, oi) = (pass[pi], available[ci]);
                    let obs = &observations[oi];
                    let te = &mut per_track[ti];
                    let step = if te.updated { 0.0 } else { dt };
                    self.tracks[ti].absorb(obs, step);
                    claimed[oi] = true;
                    te.updated = true;
                    te.fresh |= !obs.held;
                    te.contributors = te.contributors.saturating_add(1);
                    let total_var = obs.var.x + obs.var.y + obs.var.z;
                    if te
                        .best
                        .is_none_or(|(held, v, _)| (obs.held, total_var) < (held, v))
                    {
                        te.best = Some((obs.held, total_var, obs.sensor));
                    }
                    if self.tracks[ti].primary == Some(obs.sensor) {
                        te.incumbent = Some((total_var, obs.held));
                    }
                }
            }
        }

        // Live-aware expectation: how many sensors not `Dead` declare
        // coverage of a world point. Drives every corroboration decision
        // below; always 0 when the rule is disabled. A sensor that never
        // connects (or wedges) stops counting once declared dead, or it
        // would permanently suppress real tracks in its declared overlap.
        let corroboration_on = self.cfg.max_uncorroborated_epochs > 0;
        let registration = &self.registration;
        let health = &self.health;
        let margin = self.cfg.coverage_margin_m;
        let expected_of = |p: Vec3| {
            if corroboration_on {
                registration.expected_observers_where(p, margin, |id| {
                    health.get(&id).is_some_and(SensorHealth::holds_watermark)
                })
            } else {
                0
            }
        };

        // --- Initiation: cluster unclaimed *fresh* observations across
        // sensors (two sensors discovering the same person must become
        // ONE world track), then seed tentative tracks away from live
        // ones.
        born.clear();
        for i in 0..observations.len() {
            if claimed[i] || observations[i].held {
                if !claimed[i] {
                    self.stats.orphan_observations += 1;
                }
                continue;
            }
            claimed[i] = true;
            let anchor = observations[i];
            // Inverse-variance-weighted cluster mean, one obs per sensor.
            let mut weight = Vec3::new(1.0 / anchor.var.x, 1.0 / anchor.var.y, 1.0 / anchor.var.z);
            let mut acc = Vec3::new(
                anchor.position.x * weight.x,
                anchor.position.y * weight.y,
                anchor.position.z * weight.z,
            );
            cluster_sensors.clear();
            cluster_sensors.push(anchor.sensor);
            let mut min_var = anchor.var;
            for (j, other) in observations.iter().enumerate() {
                if claimed[j]
                    || other.held
                    || cluster_sensors.contains(&other.sensor)
                    || other.position.distance(anchor.position) > self.cfg.init_cluster_radius_m
                {
                    continue;
                }
                claimed[j] = true;
                cluster_sensors.push(other.sensor);
                let w = Vec3::new(1.0 / other.var.x, 1.0 / other.var.y, 1.0 / other.var.z);
                acc += Vec3::new(
                    other.position.x * w.x,
                    other.position.y * w.y,
                    other.position.z * w.z,
                );
                weight += w;
                min_var = min_var.min(other.var);
            }
            let center = Vec3::new(acc.x / weight.x, acc.y / weight.y, acc.z / weight.z);
            let too_close = self
                .tracks
                .iter()
                .map(|t| t.position())
                .chain(born.iter().copied())
                .any(|q| q.distance(center) < self.cfg.min_new_track_separation_m);
            if too_close {
                continue;
            }
            // Corroboration at birth: where ≥ 2 live sensors declare
            // coverage, a single sensor's say-so is not enough to seed a
            // track — a real body there shows up in both sensors'
            // streams (and clusters across them above), a multipath
            // ghost only in one.
            if cluster_sensors.len() < 2 && expected_of(center) >= 2 {
                self.stats.suppressed_initiations += 1;
                continue;
            }
            let id = WorldTrackId(self.next_id);
            self.next_id += 1;
            let seed = Obs {
                sensor: anchor.sensor,
                position: center,
                var: min_var,
                held: false,
            };
            self.tracks.push(WorldTrack::new(
                id,
                &seed,
                cluster_sensors.len() >= 2,
                &self.cfg,
            ));
            born.push(center);
        }

        // --- Lifecycle, merges-into-events, zones, occupancy.
        let mut events: Vec<WorldEvent> = Vec::new();
        for (ti, track) in self.tracks.iter_mut().enumerate() {
            let Some(&te) = per_track.get(ti) else {
                continue; // seeded this epoch; lifecycle starts next one
            };
            track.contributors = te.contributors;
            track.age_epochs += epochs_since;
            let expected = expected_of(track.position());
            if te.contributors >= 2 {
                track.corroborated_ever = true;
            }
            if te.updated {
                if te.fresh {
                    track.hits += 1;
                    track.consecutive_miss_epochs = 0;
                    // Confirmation requires corroboration where ≥ 2 live
                    // sensors declare coverage: a tentative track fed by
                    // one sensor alone there stays tentative (unreported)
                    // until a second sensor agrees — or the rule below
                    // expires it as a ghost.
                    let corroboration_ok =
                        !corroboration_on || te.contributors >= 2 || expected < 2;
                    match track.phase {
                        Phase::Tentative
                            if track.hits >= self.cfg.confirm_hits && corroboration_ok =>
                        {
                            track.phase = Phase::Confirmed;
                            events.push(WorldEvent::TrackBorn {
                                track: track.id,
                                time_s,
                                position: track.position(),
                            });
                        }
                        Phase::Coasting => track.phase = Phase::Confirmed,
                        _ => {}
                    }
                }
                // Held-only epochs freeze the lifecycle: the upstream
                // tracker is predicting, which localizes but is not
                // evidence of presence.
            } else {
                track.coast(dt);
                track.consecutive_miss_epochs += epochs_since;
                match track.phase {
                    Phase::Tentative => {
                        if track.consecutive_miss_epochs > self.cfg.tentative_max_misses as u64 {
                            track.phase = Phase::Dead;
                        }
                    }
                    Phase::Confirmed | Phase::Coasting => {
                        track.phase =
                            if track.consecutive_miss_epochs > self.cfg.max_coast_frames as u64 {
                                if track.corroborated_ever || expected < 2 {
                                    events.push(WorldEvent::TrackLost {
                                        track: track.id,
                                        time_s,
                                        position: track.position(),
                                    });
                                }
                                Phase::Dead
                            } else {
                                Phase::Coasting
                            };
                    }
                    Phase::Dead => {}
                }
            }
            // Ghost pruning: superhuman fused speed.
            if track.phase != Phase::Dead && track.velocity().norm() > self.cfg.max_speed_mps {
                if track.is_established() && (track.corroborated_ever || expected < 2) {
                    events.push(WorldEvent::TrackLost {
                        track: track.id,
                        time_s,
                        position: track.position(),
                    });
                }
                track.phase = Phase::Dead;
            }
            // Ghost pruning: persistent lack of corroboration. A track
            // parked where ≥ 2 live sensors declare coverage but fed by
            // at most one of them is a per-sensor artifact — real bodies
            // corroborate; registered ghosts land in different world
            // positions per sensor and never do.
            if corroboration_on && track.phase != Phase::Dead {
                if expected >= 2 && te.contributors < 2 {
                    track.uncorroborated_epochs += epochs_since;
                    if track.uncorroborated_epochs > self.cfg.max_uncorroborated_epochs as u64 {
                        if track.is_established() && track.corroborated_ever {
                            events.push(WorldEvent::TrackLost {
                                track: track.id,
                                time_s,
                                position: track.position(),
                            });
                        }
                        self.stats.ghosts_suppressed += 1;
                        track.phase = Phase::Dead;
                    }
                } else {
                    track.uncorroborated_epochs = 0;
                }
            }
            // Quarantine: an established track that has *never* been
            // corroborated emits no events and appears in no snapshot
            // while it sits where ≥ 2 live sensors should see it.
            let visible = track.is_established() && (track.corroborated_ever || expected < 2);
            if track.phase == Phase::Dead || !visible {
                continue;
            }

            // Handoff: the anchoring sensor changed. With hysteresis —
            // the anchor only moves when the incumbent went silent,
            // degraded to held predictions while the challenger measures
            // fresh, or is clearly outclassed on variance; two sensors
            // seeing a track about equally well must not flap the anchor
            // every epoch.
            if let Some((best_held, best_var, sensor)) = te.best {
                match track.primary {
                    Some(prev) if prev != sensor => {
                        let mut switch = false;
                        // Epochs the challenger waited for the anchor
                        // (this epoch included) — the handoff latency.
                        let mut waited_epochs = epochs_since;
                        match te.incumbent {
                            // The incumbent contributed nothing at all:
                            // it is gone; replace it immediately.
                            None => switch = true,
                            Some((iv, inc_held)) => {
                                let advantage = (inc_held && !best_held) || best_var < 0.5 * iv;
                                if advantage {
                                    let streak = match track.challenger {
                                        Some((s, n)) if s == sensor => n + epochs_since,
                                        _ => epochs_since,
                                    };
                                    if streak as f64 * period >= self.cfg.handoff_patience_s {
                                        switch = true;
                                        waited_epochs = streak;
                                    } else {
                                        track.challenger = Some((sensor, streak));
                                    }
                                } else {
                                    track.challenger = None;
                                }
                            }
                        }
                        if switch {
                            if let Some(h) = &self.handoff_latency {
                                h.record((waited_epochs as f64 * period * 1e9) as u64);
                            }
                            events.push(WorldEvent::Handoff {
                                track: track.id,
                                from_sensor: prev,
                                to_sensor: sensor,
                                time_s,
                            });
                            track.primary = Some(sensor);
                            track.challenger = None;
                        }
                    }
                    None => track.primary = Some(sensor),
                    _ => track.challenger = None,
                }
            }

            // Fall rule on the fused world elevation — once the track is
            // past its birth transient (the filter's earliest elevation
            // estimates would poison the detector's window maximum).
            let p = track.position();
            if track.age_epochs as f64 * period >= self.cfg.fall_warmup_s {
                if let Some(fall) = track.falls.push(time_s, p.z) {
                    events.push(WorldEvent::Fall {
                        track: track.id,
                        time_s,
                        from_z: fall.from_z,
                        to_z: fall.to_z,
                    });
                }
            }

            // Zone transitions.
            let now_zone = self.cfg.zones.iter().find(|z| z.contains(p)).map(|z| z.id);
            if now_zone != track.zone {
                if let Some(old) = track.zone {
                    events.push(WorldEvent::ZoneExited {
                        track: track.id,
                        zone: old,
                        time_s,
                    });
                }
                if let Some(new) = now_zone {
                    events.push(WorldEvent::ZoneEntered {
                        track: track.id,
                        zone: new,
                        time_s,
                    });
                }
                track.zone = now_zone;
            }
        }
        self.tracks.retain(|t| t.phase != Phase::Dead);

        // Occupancy per zone (visible established tracks), change-triggered.
        for zone in &self.cfg.zones {
            let count = self
                .tracks
                .iter()
                .filter(|t| {
                    t.is_established()
                        && (t.corroborated_ever || expected_of(t.position()) < 2)
                        && zone.contains(t.position())
                })
                .count() as u32;
            let prev = self.occupancy.get(&zone.id).copied().unwrap_or(0);
            if count != prev {
                self.occupancy.insert(zone.id, count);
                events.push(WorldEvent::OccupancyChanged {
                    zone: zone.id,
                    count,
                    time_s,
                });
            }
        }

        // --- Snapshot (visible established tracks only).
        let tracks = self
            .tracks
            .iter()
            .filter(|t| {
                t.is_established() && (t.corroborated_ever || expected_of(t.position()) < 2)
            })
            .map(|t| WorldTrackSnapshot {
                id: t.id,
                position: t.position(),
                velocity: t.velocity(),
                pos_var: t.position_variance(),
                coasting: t.phase == Phase::Coasting,
                contributors: t.contributors,
                primary_sensor: t.primary,
            })
            .collect();

        if spare_buckets.len() < SPARE_BUCKETS {
            observations.clear();
            spare_buckets.push(observations);
        }
        self.scratch = scratch;
        WorldFrame {
            epoch,
            time_s,
            tracks,
            events,
        }
    }

    /// Lifts a per-sensor pointing gesture (§6.1) into the world frame:
    /// the direction is rotated by the sensor's extrinsic and the gesture
    /// is attributed to the nearest established world track within
    /// `max_attr_dist_m` of the (registered) gesture origin.
    ///
    /// Returns `None` when the sensor is unregistered.
    pub fn lift_pointing(
        &self,
        sensor_id: u32,
        time_s: f64,
        origin_local: Vec3,
        direction_local: Vec3,
        max_attr_dist_m: f64,
    ) -> Option<WorldEvent> {
        let pose = self.registration.get(sensor_id)?;
        let origin = pose.apply(origin_local);
        let direction = pose.rotate(direction_local).normalized_or_zero();
        let track = self
            .tracks
            .iter()
            .filter(|t| t.is_established())
            .map(|t| (t.id, t.position().distance(origin)))
            .filter(|&(_, d)| d <= max_attr_dist_m)
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
            .map(|(id, _)| id);
        Some(WorldEvent::Pointing {
            track,
            sensor: sensor_id,
            time_s,
            direction,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Zone;
    use std::f64::consts::PI;
    use witrack_core::TargetReport;
    use witrack_geom::RigidTransform;

    const PERIOD: f64 = 0.0125;

    /// Two sensors facing each other across a 10 m room: sensor 0 at the
    /// world origin (identity), sensor 1 on the far wall looking back.
    fn two_sensor_registration() -> (Registration, RigidTransform) {
        let world_from_s1 = RigidTransform::from_yaw(PI, Vec3::new(0.0, 10.0, 0.0));
        (
            Registration::new()
                .with_sensor(0, RigidTransform::IDENTITY)
                .with_sensor(1, world_from_s1),
            world_from_s1,
        )
    }

    fn report(epoch: u64, targets: Vec<TargetReport>) -> FrameReport {
        FrameReport {
            frame_index: epoch,
            time_s: epoch as f64 * PERIOD,
            targets,
        }
    }

    fn target(id: u64, position: Vec3, std: f64) -> TargetReport {
        TargetReport {
            id: Some(id),
            position,
            velocity: None,
            held: false,
            pos_var: Some(Vec3::new(std * std, std * std, std * std)),
            innovation: None,
        }
    }

    /// Feeds both sensors one walker's world position for `epochs`
    /// frames, sensor `k` seeing it through its own extrinsic.
    fn run_two_sensor_walk(
        engine: &mut FusionEngine,
        world_from_s1: &RigidTransform,
        epochs: std::ops::Range<u64>,
        world_pos: impl Fn(u64) -> Vec3,
    ) -> Vec<WorldFrame> {
        let s1_from_world = world_from_s1.inverse();
        let mut frames = Vec::new();
        for e in epochs {
            let p = world_pos(e);
            frames.extend(engine.push_report(0, &report(e, vec![target(1, p, 0.15)])));
            frames.extend(
                engine.push_report(1, &report(e, vec![target(9, s1_from_world.apply(p), 0.2)])),
            );
        }
        frames
    }

    #[test]
    fn non_finite_observations_are_shed_at_the_door() {
        let reg = Registration::new().with_sensor(0, RigidTransform::IDENTITY);
        let mut engine = FusionEngine::new(FuseConfig::default(), reg);
        let mut frames = Vec::new();
        for e in 1..30u64 {
            let good = target(1, Vec3::new(0.0, 3.0, 1.0), 0.15);
            let poisoned = target(2, Vec3::new(f64::NAN, 5.0, 1.0), 0.15);
            let mut bad_var = target(3, Vec3::new(2.0, 5.0, 1.0), 0.15);
            bad_var.pos_var = Some(Vec3::new(f64::INFINITY, 0.01, 0.01));
            frames.extend(engine.push_report(0, &report(e, vec![good, poisoned, bad_var])));
        }
        assert_eq!(engine.stats().nonfinite_observations, 29 * 2);
        // Only the finite observation made it into the world, and what
        // it produced is itself finite.
        assert_eq!(engine.live_tracks(), 1);
        let last = frames.last().expect("world frames still emit");
        assert_eq!(last.tracks.len(), 1);
        let p = last.tracks[0].position;
        assert!(p.x.is_finite() && p.y.is_finite() && p.z.is_finite());
    }

    #[test]
    fn two_sensors_one_walker_is_one_world_track() {
        let (reg, world_from_s1) = two_sensor_registration();
        let mut engine = FusionEngine::new(FuseConfig::default(), reg);
        let frames = run_two_sensor_walk(&mut engine, &world_from_s1, 1..40, |e| {
            Vec3::new(0.0, 3.0 + 0.0125 * e as f64, 1.0)
        });
        assert_eq!(engine.live_tracks(), 1, "duplicate world tracks");
        let last = frames.last().unwrap();
        assert_eq!(last.tracks.len(), 1);
        let t = &last.tracks[0];
        assert_eq!(t.contributors, 2, "both sensors should merge");
        assert!(!t.coasting);
        assert!(t.position.distance(Vec3::new(0.0, 3.5, 1.0)) < 0.3);
        // Fused variance must be tighter than the better single sensor's
        // reported variance (0.15² per axis).
        assert!(t.pos_var.x < 0.15 * 0.15, "fusion did not tighten x");
        assert!(frames
            .iter()
            .flat_map(|f| &f.events)
            .any(|e| matches!(e, WorldEvent::TrackBorn { .. })));
    }

    #[test]
    fn watermark_waits_for_the_slower_sensor() {
        let (reg, world_from_s1) = two_sensor_registration();
        let mut engine = FusionEngine::new(FuseConfig::default(), reg);
        let p = Vec3::new(1.0, 5.0, 1.0);
        let s1_from_world = world_from_s1.inverse();
        // Both sensors report epoch 1; then sensor 0 racing ahead must
        // not close epochs sensor 1 has not reached.
        assert!(engine
            .push_report(1, &report(1, vec![target(9, s1_from_world.apply(p), 0.2)]))
            .is_empty());
        let mut fused = engine.push_report(0, &report(1, vec![target(1, p, 0.15)]));
        assert_eq!(fused.len(), 1, "both sensors at epoch 1: it closes");
        assert!(engine
            .push_report(0, &report(2, vec![target(1, p, 0.15)]))
            .is_empty());
        assert!(engine
            .push_report(0, &report(3, vec![target(1, p, 0.15)]))
            .is_empty());
        fused = engine.push_report(1, &report(3, vec![target(9, s1_from_world.apply(p), 0.2)]));
        assert_eq!(fused.len(), 2, "sensor 1 catching up closes 2 and 3");
        // A torn-down sensor stops holding the watermark back.
        assert!(engine
            .push_report(0, &report(4, vec![target(1, p, 0.15)]))
            .is_empty());
        let drained = engine.remove_sensor(1);
        assert_eq!(drained.len(), 1, "teardown releases epoch 4");
    }

    #[test]
    fn fused_output_does_not_depend_on_report_interleaving() {
        // One walk pushed in lockstep, and with sensor 0 running 20 epochs
        // ahead of sensor 1 (after both first reported epoch 1) before
        // sensor 1 catches up, fuses into identical frames.
        let (reg, world_from_s1) = two_sensor_registration();
        let s1_from_world = world_from_s1.inverse();
        let walk = |e: u64| Vec3::new(0.5, 3.0 + 0.02 * e as f64, 1.0);
        let s0 = |e: u64| report(e, vec![target(1, walk(e), 0.15)]);
        let s1 = |e: u64| report(e, vec![target(9, s1_from_world.apply(walk(e)), 0.2)]);
        let mut lockstep = FusionEngine::new(FuseConfig::default(), reg.clone());
        let a = run_two_sensor_walk(&mut lockstep, &world_from_s1, 1..100, walk);
        let mut skewed = FusionEngine::new(FuseConfig::default(), reg);
        let mut b = Vec::new();
        let mut s1_next = 1;
        for e in 1..100 {
            b.extend(skewed.push_report(0, &s0(e)));
            if e == 1 || e > 20 {
                b.extend(skewed.push_report(1, &s1(s1_next)));
                s1_next += 1;
            }
        }
        assert!(skewed.watermark_lag_epochs() >= 19);
        for e in s1_next..100 {
            b.extend(skewed.push_report(1, &s1(e)));
        }
        assert_eq!(a.len(), 99);
        assert_eq!(a, b, "fused output depends on report interleaving");
    }

    #[test]
    fn a_late_joiner_fuses_same_round_observations() {
        // Sensor 1's session opens 40 rounds after sensor 0's, so its
        // clock reads epoch 1 while sensor 0's reads 41. Its first report
        // lines its clock up with sensor 0's; from then on both sensors'
        // views of one instant fuse into one two-sensor track.
        let (reg, world_from_s1) = two_sensor_registration();
        let s1_from_world = world_from_s1.inverse();
        let walk = |r: u64| Vec3::new(0.5, 3.0 + 0.02 * r as f64, 1.0);
        let mut engine = FusionEngine::new(FuseConfig::default(), reg);
        let mut frames = Vec::new();
        for r in 1..=100u64 {
            frames.extend(engine.push_report(0, &report(r, vec![target(1, walk(r), 0.15)])));
            if r > 40 {
                let seen = s1_from_world.apply(walk(r));
                frames.extend(engine.push_report(1, &report(r - 40, vec![target(9, seen, 0.2)])));
                assert!(engine.watermark_lag_epochs() <= 1, "round {r}");
            }
        }
        assert_eq!(frames.len(), 100, "every epoch fuses exactly once");
        for f in frames.iter().filter(|f| f.epoch > 41) {
            let [t] = &f.tracks[..] else {
                panic!("epoch {}: {} world tracks", f.epoch, f.tracks.len());
            };
            assert_eq!(t.contributors, 2, "epoch {}", f.epoch);
            let err = (t.position - walk(f.epoch)).norm();
            assert!(
                err < 0.05,
                "epoch {}: fused {err:.3} m off the walker",
                f.epoch
            );
        }
    }

    #[test]
    fn handoff_preserves_identity_and_fires_event() {
        let (reg, world_from_s1) = two_sensor_registration();
        let cfg = FuseConfig::default();
        let mut engine = FusionEngine::new(cfg, reg);
        let s1_from_world = world_from_s1.inverse();
        let walk = |e: u64| Vec3::new(0.0, 2.0 + 0.02 * e as f64, 1.0);
        let mut frames = Vec::new();
        // Phase 1: only sensor 0 sees the walker (sensor 1 reports empty).
        for e in 1..60 {
            frames.extend(engine.push_report(0, &report(e, vec![target(1, walk(e), 0.15)])));
            frames.extend(engine.push_report(1, &report(e, vec![])));
        }
        let id_before = frames.last().unwrap().tracks[0].id;
        // Phase 2: coverage gap — NEITHER sensor sees them (occlusion).
        for e in 60..120 {
            frames.extend(engine.push_report(0, &report(e, vec![])));
            frames.extend(engine.push_report(1, &report(e, vec![])));
        }
        assert!(
            frames.last().unwrap().tracks[0].coasting,
            "track should coast through the gap"
        );
        // Phase 3: sensor 1 reacquires on the far side.
        for e in 120..180 {
            frames.extend(engine.push_report(0, &report(e, vec![])));
            frames.extend(engine.push_report(
                1,
                &report(e, vec![target(7, s1_from_world.apply(walk(e)), 0.2)]),
            ));
        }
        let last = frames.last().unwrap();
        assert_eq!(last.tracks.len(), 1, "handoff must not duplicate");
        assert_eq!(last.tracks[0].id, id_before, "identity lost in handoff");
        assert!(!last.tracks[0].coasting);
        assert_eq!(last.tracks[0].primary_sensor, Some(1));
        assert!(
            frames.iter().flat_map(|f| &f.events).any(|e| matches!(
                e,
                WorldEvent::Handoff {
                    from_sensor: 0,
                    to_sensor: 1,
                    ..
                }
            )),
            "no handoff event"
        );
    }

    #[test]
    fn two_walkers_stay_two_tracks() {
        let (reg, world_from_s1) = two_sensor_registration();
        let mut engine = FusionEngine::new(FuseConfig::default(), reg);
        let s1_from_world = world_from_s1.inverse();
        let a = |e: u64| Vec3::new(-1.5, 3.0 + 0.02 * e as f64, 1.0);
        let b = |e: u64| Vec3::new(1.5, 7.0 - 0.02 * e as f64, 1.0);
        let mut last = None;
        for e in 1..80 {
            engine.push_report(
                0,
                &report(e, vec![target(1, a(e), 0.15), target(2, b(e), 0.15)]),
            );
            let fused = engine.push_report(
                1,
                &report(
                    e,
                    vec![
                        target(8, s1_from_world.apply(a(e)), 0.2),
                        target(9, s1_from_world.apply(b(e)), 0.2),
                    ],
                ),
            );
            if let Some(f) = fused.into_iter().last() {
                last = Some(f);
            }
        }
        let last = last.unwrap();
        assert_eq!(last.tracks.len(), 2, "tracks: {:?}", last.tracks);
        let mut near_a = 0;
        let mut near_b = 0;
        for t in &last.tracks {
            if t.position.distance(a(79)) < 0.5 {
                near_a += 1;
            }
            if t.position.distance(b(79)) < 0.5 {
                near_b += 1;
            }
        }
        assert_eq!((near_a, near_b), (1, 1));
    }

    #[test]
    fn zones_occupancy_and_fall_fire_world_events() {
        let (reg, world_from_s1) = two_sensor_registration();
        let cfg = FuseConfig::builder()
            .zone(Zone {
                id: 1,
                name: "near".into(),
                x: (-3.0, 3.0),
                y: (0.0, 5.0),
            })
            .zone(Zone {
                id: 2,
                name: "far".into(),
                x: (-3.0, 3.0),
                y: (5.0, 10.0),
            })
            .build();
        let mut engine = FusionEngine::new(cfg, reg);
        // Walk from the near zone into the far zone...
        let frames = run_two_sensor_walk(&mut engine, &world_from_s1, 1..200, |e| {
            Vec3::new(0.0, 3.0 + 0.02 * e as f64, 1.0)
        });
        let events: Vec<&WorldEvent> = frames.iter().flat_map(|f| &f.events).collect();
        assert!(events
            .iter()
            .any(|e| matches!(e, WorldEvent::ZoneEntered { zone: 1, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, WorldEvent::ZoneExited { zone: 1, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, WorldEvent::ZoneEntered { zone: 2, .. })));
        assert!(events.iter().any(|e| matches!(
            e,
            WorldEvent::OccupancyChanged {
                zone: 2,
                count: 1,
                ..
            }
        )));
        // ...then fall: fast elevation collapse observed by both sensors.
        let mut all_events = Vec::new();
        for e in 200..800 {
            let z = match e {
                200..=520 => 1.0,
                521..=560 => 1.0 - 0.9 * (e - 520) as f64 / 40.0,
                _ => 0.1,
            };
            let fused = run_two_sensor_walk(&mut engine, &world_from_s1, e..e + 1, |_| {
                Vec3::new(0.0, 7.0, z)
            });
            all_events.extend(fused.into_iter().flat_map(|f| f.events));
        }
        assert!(
            all_events
                .iter()
                .any(|e| matches!(e, WorldEvent::Fall { .. })),
            "no world fall event: {} events",
            all_events.len()
        );
    }

    #[test]
    fn single_sensor_ghosts_are_suppressed_where_coverage_overlaps() {
        // Both sensors cover the mid-hallway. A real walker at y = 6 is
        // reported by both; sensor 0 also reports a persistent multipath
        // ghost at y = 5 that sensor 1 (which covers that spot too)
        // never sees. The ghost must not become a world track — while a
        // genuinely exclusive-region body (y = 2, sensor 0 only) must.
        let world_from_s1 = RigidTransform::from_yaw(PI, Vec3::new(0.0, 12.0, 0.0));
        let reg = Registration::new()
            .with_sensor(0, RigidTransform::IDENTITY)
            .with_sensor(1, world_from_s1)
            .with_coverage(0, 8.0)
            .with_coverage(1, 8.0);
        let cfg = FuseConfig {
            max_uncorroborated_epochs: 40,
            coverage_margin_m: 0.5,
            ..FuseConfig::default()
        };
        let mut engine = FusionEngine::new(cfg, reg);
        let s1_from_world = world_from_s1.inverse();
        let real = Vec3::new(0.0, 6.0, 1.0);
        let ghost = Vec3::new(0.0, 5.0, 1.0);
        let exclusive = Vec3::new(0.5, 2.0, 1.0);
        let mut last = None;
        for e in 1..200 {
            engine.push_report(
                0,
                &report(
                    e,
                    vec![
                        target(1, real, 0.15),
                        target(2, ghost, 0.15),
                        target(3, exclusive, 0.15),
                    ],
                ),
            );
            let fused = engine.push_report(
                1,
                &report(e, vec![target(9, s1_from_world.apply(real), 0.2)]),
            );
            if let Some(f) = fused.into_iter().next_back() {
                last = Some(f);
            }
        }
        let last = last.unwrap();
        assert_eq!(
            last.tracks.len(),
            2,
            "ghost leaked or real track lost: {:?}",
            last.tracks
        );
        assert!(last.tracks.iter().any(|t| t.position.distance(real) < 0.5));
        assert!(
            last.tracks
                .iter()
                .any(|t| t.position.distance(exclusive) < 0.5),
            "exclusive-region body must survive with one sensor"
        );
        assert!(
            !last.tracks.iter().any(|t| t.position.distance(ghost) < 0.5),
            "uncorroborated ghost became a world track"
        );
        let stats = engine.stats();
        assert!(stats.suppressed_initiations > 0, "{stats:?}");
    }

    #[test]
    fn unregistered_sensors_are_counted_not_fused() {
        let (reg, _) = two_sensor_registration();
        let mut engine = FusionEngine::new(FuseConfig::default(), reg);
        let out = engine.push_report(
            77,
            &report(1, vec![target(1, Vec3::new(0.0, 5.0, 1.0), 0.1)]),
        );
        assert!(out.is_empty());
        assert_eq!(engine.stats().unregistered_reports, 1);
        assert_eq!(engine.live_tracks(), 0);
    }

    #[test]
    fn pointing_lifts_into_world_frame() {
        let (reg, world_from_s1) = two_sensor_registration();
        let mut engine = FusionEngine::new(FuseConfig::default(), reg);
        let frames = run_two_sensor_walk(&mut engine, &world_from_s1, 1..20, |_| {
            Vec3::new(0.0, 7.0, 1.0)
        });
        assert!(!frames.is_empty());
        // Sensor 1 sees a gesture pointing along its local +y (its
        // boresight): in the world frame that is −y.
        let local_origin = world_from_s1.inverse().apply(Vec3::new(0.0, 7.0, 1.0));
        let ev = engine
            .lift_pointing(1, 0.25, local_origin, Vec3::Y, 2.0)
            .unwrap();
        match ev {
            WorldEvent::Pointing {
                track,
                direction,
                sensor,
                ..
            } => {
                assert_eq!(sensor, 1);
                assert!(track.is_some(), "gesture near the track must attribute");
                assert!(direction.distance(-Vec3::Y) < 1e-9, "{direction}");
            }
            other => panic!("wrong event {other:?}"),
        }
        assert!(engine
            .lift_pointing(99, 0.0, Vec3::ZERO, Vec3::Y, 2.0)
            .is_none());
    }

    #[test]
    fn silent_sensor_no_longer_stalls_epoch_closure() {
        // Regression: before the liveness tick, a registered sensor that
        // NEVER reported held the watermark at its seed epoch 0 forever —
        // a short burst from the healthy sensor would never fuse.
        let (reg, _) = two_sensor_registration();
        let cfg = FuseConfig {
            suspect_timeout_s: 0.05,
            dead_timeout_s: 0.1,
            ..FuseConfig::default()
        };
        let mut engine = FusionEngine::new(cfg, reg);
        let p = Vec3::new(0.5, 4.0, 1.0);
        for e in 1..5 {
            assert!(
                engine
                    .push_report(0, &report(e, vec![target(1, p, 0.15)]))
                    .is_empty(),
                "sensor 1 silent: watermark stalled (the pre-fix behavior)"
            );
        }
        // The tick observes the silence, demotes 1 to Suspect then Dead,
        // and the death releases every pending epoch. Sensor 0 reports
        // between ticks, so only sensor 1 accumulates silence.
        assert!(engine.tick(0.0).is_empty(), "first tick only arms");
        engine.push_report(0, &report(5, vec![target(1, p, 0.15)]));
        assert!(engine.tick(0.06).is_empty(), "suspect: still waiting");
        assert_eq!(engine.sensor_liveness(0), Some(SensorLiveness::Live));
        assert_eq!(engine.sensor_liveness(1), Some(SensorLiveness::Suspect));
        engine.push_report(0, &report(6, vec![target(1, p, 0.15)]));
        let frames = engine.tick(0.2);
        assert_eq!(engine.sensor_liveness(1), Some(SensorLiveness::Dead));
        assert_eq!(frames.len(), 6, "death closes epochs 1..=6");
        assert_eq!(engine.stats().sensors_died, 1);
        let kinds: Vec<(SensorLiveness, SensorLiveness)> = engine
            .take_liveness_transitions()
            .iter()
            .map(|t| (t.from, t.to))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (SensorLiveness::Live, SensorLiveness::Suspect),
                (SensorLiveness::Suspect, SensorLiveness::Dead),
            ]
        );
        // Epochs now close on the surviving sensor alone.
        let live_only = engine.push_report(0, &report(7, vec![target(1, p, 0.15)]));
        assert_eq!(live_only.len(), 1, "surviving set fuses without sensor 1");
        // Recovery: the silent sensor returns and rejoins the watermark.
        let s1_from_world = RigidTransform::from_yaw(PI, Vec3::new(0.0, 10.0, 0.0)).inverse();
        engine.push_report(1, &report(8, vec![target(9, s1_from_world.apply(p), 0.2)]));
        assert_eq!(engine.sensor_liveness(1), Some(SensorLiveness::Live));
        assert_eq!(engine.stats().sensors_recovered, 1);
        let recovered = engine.take_liveness_transitions();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].from, SensorLiveness::Dead);
        assert_eq!(recovered[0].to, SensorLiveness::Live);
        let after = engine.push_report(0, &report(9, vec![target(1, p, 0.15)]));
        assert_eq!(
            after.iter().map(|f| f.epoch).collect::<Vec<_>>(),
            vec![8],
            "epoch 9 must wait for the recovered sensor again"
        );
    }

    #[test]
    fn all_sensors_dead_force_closes_pending_epochs() {
        let (reg, world_from_s1) = two_sensor_registration();
        let cfg = FuseConfig {
            suspect_timeout_s: 0.05,
            dead_timeout_s: 0.1,
            ..FuseConfig::default()
        };
        let mut engine = FusionEngine::new(cfg, reg);
        let p = Vec3::new(0.0, 5.0, 1.0);
        run_two_sensor_walk(&mut engine, &world_from_s1, 1..10, |_| p);
        // Both sensors go silent mid-stream with epoch 10 pending on one
        // side only.
        engine.push_report(0, &report(10, vec![target(1, p, 0.15)]));
        engine.tick(0.0);
        engine.tick(0.06);
        let frames = engine.tick(0.2);
        assert_eq!(engine.stats().sensors_died, 2);
        assert_eq!(frames.len(), 1, "orphan epoch 10 force-closed");
        assert_eq!(frames[0].epoch, 10);
        assert!(
            frames[0].tracks.iter().all(|t| !t.coasting),
            "epoch 10 still had sensor 0's observation"
        );
    }

    #[test]
    fn liveness_disabled_keeps_ticks_inert() {
        let (reg, _) = two_sensor_registration();
        let cfg = FuseConfig {
            suspect_timeout_s: f64::INFINITY,
            ..FuseConfig::default()
        };
        let mut engine = FusionEngine::new(cfg, reg);
        engine.push_report(
            0,
            &report(1, vec![target(1, Vec3::new(0.0, 5.0, 1.0), 0.15)]),
        );
        for t in [0.0, 1.0, 60.0] {
            assert!(engine.tick(t).is_empty());
        }
        assert_eq!(engine.sensor_liveness(1), Some(SensorLiveness::Live));
        assert!(engine.take_liveness_transitions().is_empty());
    }

    #[test]
    fn clock_drift_is_tracked_and_epochs_stay_paired() {
        // Sensor 1's clock drifts linearly, accumulating +2 frame
        // periods by the end of the run. Without correction its reports
        // land one then two epochs late and single-instant fusion splits;
        // with the EWMA offset both sensors keep fusing into the same
        // epoch with 2 contributors.
        let (reg, world_from_s1) = two_sensor_registration();
        let mut engine = FusionEngine::new(FuseConfig::default(), reg);
        let s1_from_world = world_from_s1.inverse();
        let p = |e: u64| Vec3::new(0.0, 3.0 + 0.01 * e as f64, 1.0);
        let epochs = 400u64;
        let drift_per_epoch = 2.0 * PERIOD / epochs as f64; // ≪ PERIOD/2
        let mut last = None;
        for e in 1..=epochs {
            engine.push_report(0, &report(e, vec![target(1, p(e), 0.15)]));
            let drifted = FrameReport {
                frame_index: e,
                time_s: e as f64 * PERIOD + e as f64 * drift_per_epoch,
                targets: vec![target(9, s1_from_world.apply(p(e)), 0.2)],
            };
            if let Some(f) = engine.push_report(1, &drifted).into_iter().last() {
                last = Some(f);
            }
        }
        let last = last.unwrap();
        assert_eq!(last.tracks.len(), 1, "drift split the walker");
        assert_eq!(
            last.tracks[0].contributors, 2,
            "drifted sensor fell out of its epoch"
        );
    }

    #[test]
    fn flush_closes_everything_pending() {
        let (reg, _) = two_sensor_registration();
        let mut engine = FusionEngine::new(FuseConfig::default(), reg);
        engine.push_report(
            0,
            &report(1, vec![target(1, Vec3::new(0.0, 5.0, 1.0), 0.1)]),
        );
        engine.push_report(1, &report(2, vec![]));
        // Epoch 2 is still open (sensor 0 has not reached it).
        let flushed = engine.flush();
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].epoch, 2);
        assert!(engine.flush().is_empty());
    }
}
