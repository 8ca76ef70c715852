//! Fusion-engine configuration: gates, lifecycle, zones, event tuning.

use witrack_core::FallConfig;
use witrack_dsp::kalman::KalmanConfig;
use witrack_geom::Vec3;

/// A named axis-aligned floor region of the world frame (occupancy and
/// enter/exit events are reported per zone). Zones may overlap; a track
/// belongs to the *first* zone (in configuration order) containing it.
#[derive(Debug, Clone, PartialEq)]
pub struct Zone {
    /// Stable zone identifier (carried on the wire).
    pub id: u32,
    /// Human-readable label for logs and UIs.
    pub name: String,
    /// World-frame x extent (m).
    pub x: (f64, f64),
    /// World-frame y extent (m).
    pub y: (f64, f64),
}

impl Zone {
    /// Whether `p` lies inside the zone's floor footprint (z is ignored —
    /// a fallen person is still in the room).
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.x.0 && p.x <= self.x.1 && p.y >= self.y.0 && p.y <= self.y.1
    }
}

/// Configuration of a [`crate::FusionEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct FuseConfig {
    /// Fusion epoch length (s): per-sensor reports whose timestamps land
    /// in the same epoch are fused together. Matches the sensors' frame
    /// period (12.5 ms at the paper configuration).
    pub frame_period_s: f64,
    /// Mahalanobis-squared association gate: an observation may only be
    /// assigned to a world track when the per-axis normalized squared
    /// distance `Σ Δ²/(σ²_track + σ²_obs)` stays below this. 16 ≈ the
    /// 99.9 % ellipsoid for 3 degrees of freedom.
    pub gate_mahalanobis_sq: f64,
    /// Lower bound (m, one standard deviation per axis) applied to every
    /// reported observation uncertainty before gating/merging — guards
    /// against over-confident upstream covariances locking fusion onto
    /// one sensor.
    pub obs_std_floor_m: f64,
    /// Per-axis standard deviation (m) assumed for observations whose
    /// report carries no covariance (the single-target backend).
    pub default_obs_std_m: f64,
    /// Variance multiplier applied to *held* observations (the upstream
    /// tracker was coasting/interpolating). A held report is the
    /// sensor's prediction, strictly less informative than a
    /// measurement; without this, a sensor holding a stale position
    /// (the single-target pipeline holds indefinitely, §4.4) would pull
    /// a fused track with full measurement weight while the body walks
    /// away under another sensor's fresh fixes.
    pub held_obs_var_inflation: f64,
    /// Accepted epochs before a tentative world track is reported.
    /// Observations already passed a per-sensor confirmation gauntlet, so
    /// this is short.
    pub confirm_hits: usize,
    /// Consecutive empty epochs that kill a tentative world track.
    pub tentative_max_misses: usize,
    /// Consecutive empty epochs a confirmed world track may coast
    /// through — the cross-sensor handoff window: a track leaving sensor
    /// A's coverage must survive until sensor B's tracker confirms it.
    pub max_coast_frames: usize,
    /// Minimum distance (m) between an initiation cluster and every live
    /// track for a new world track to be born. Larger values also block
    /// wall-mirror multipath ghosts, which are always born close to the
    /// body that casts them; association keeps *existing* tracks apart
    /// at any range, so only co-located births are deferred.
    pub min_new_track_separation_m: f64,
    /// Radius (m) within which unclaimed observations from *different*
    /// sensors cluster into one initiation candidate — on the order of
    /// the cross-sensor surface-point disagreement (a torso diameter)
    /// plus noise, and intentionally independent of the (often much
    /// larger) separation radius above.
    pub init_cluster_radius_m: f64,
    /// World tracks whose fused speed exceeds this are dropped (same
    /// ghost-pruning rationale as the per-sensor tracker).
    pub max_speed_mps: f64,
    /// Corroboration window: a track sitting where ≥ 2 sensors *declare*
    /// coverage ([`crate::Registration::set_coverage`]) but drawing
    /// observations from at most one of them for more than this many
    /// consecutive epochs is dropped as a per-sensor ghost (real bodies
    /// corroborate across sensors; each sensor's multipath ghosts land in
    /// different world positions). Must comfortably exceed a sensor's
    /// track-confirmation time so a real body entering the overlap is
    /// corroborated before the window closes. `0` disables the rule
    /// (also disabled wherever no coverage is declared).
    pub max_uncorroborated_epochs: usize,
    /// How far inside a declared coverage boundary a position must sit
    /// to count as expected (guards against edge flapping).
    pub coverage_margin_m: f64,
    /// How long (s) a challenger sensor must *sustain* its advantage
    /// (fresh measurements against a held incumbent, or half the
    /// incumbent's variance) before it steals a track's anchor. At a
    /// fading coverage edge the old sensor flickers between measuring
    /// and holding; without patience every flicker would emit a handoff
    /// pair. An incumbent that stops contributing entirely is replaced
    /// immediately — the patience only applies while it still reports.
    pub handoff_patience_s: f64,
    /// World-filter tuning (per-axis constant-velocity Kalman; the
    /// measurement noise field is unused — each observation brings its
    /// own variance).
    pub kalman: KalmanConfig,
    /// Fall-rule tuning applied to fused world tracks.
    pub fall: FallConfig,
    /// Track age (s) before fused elevation starts feeding the fall
    /// detector. A newborn track's filter carries a birth transient
    /// (early elevation estimates are the noisiest the track will ever
    /// produce); letting it into the detector's window inflates the
    /// apparent pre-fall height, and the §6.2 rule then latches a real
    /// fall as a too-slow sit.
    pub fall_warmup_s: f64,
    /// Occupancy/event zones.
    pub zones: Vec<Zone>,
    /// Liveness: seconds of silence (no reports between engine ticks)
    /// before a registered sensor is demoted to `Suspect`. A `Suspect`
    /// sensor still holds the watermark. `f64::INFINITY` keeps every
    /// sensor `Live` for good, so a silent sensor then stalls its room
    /// until it reports again or its session is torn down.
    pub suspect_timeout_s: f64,
    /// Liveness: seconds of silence before a `Suspect` sensor is
    /// declared `Dead` — removed from the watermark (epochs close on the
    /// surviving set), excluded from coverage expectations, its tracks
    /// left to coast until another sensor reacquires them. This is the
    /// longest a connected but silent sensor holds its room's fusion.
    /// Must exceed [`FuseConfig::suspect_timeout_s`].
    pub dead_timeout_s: f64,
}

impl Default for FuseConfig {
    fn default() -> Self {
        FuseConfig {
            frame_period_s: 0.0125,
            gate_mahalanobis_sq: 16.0,
            obs_std_floor_m: 0.1,
            default_obs_std_m: 0.25,
            held_obs_var_inflation: 4.0,
            confirm_hits: 2,
            tentative_max_misses: 3,
            // ~4 s at 80 fps: long enough to bridge a walk across an
            // occlusion boundary between two sensors' coverage.
            max_coast_frames: 320,
            min_new_track_separation_m: 1.0,
            init_cluster_radius_m: 1.0,
            max_speed_mps: 6.0,
            // ~2.5 s at 80 fps: an order of magnitude beyond per-sensor
            // confirmation, far below a ghost's dwell time.
            max_uncorroborated_epochs: 200,
            coverage_margin_m: 0.75,
            handoff_patience_s: 0.25,
            kalman: KalmanConfig {
                process_accel_std: 4.0,
                measurement_std: 0.2, // unused: observations carry variance
                initial_pos_var: 0.5,
                initial_vel_var: 4.0,
            },
            fall: FallConfig::default(),
            fall_warmup_s: 0.5,
            zones: Vec::new(),
            // 20 frame periods of silence raises suspicion; a dead
            // verdict waits most of a second so a GC pause or burst
            // retransmit does not amputate a healthy sensor.
            suspect_timeout_s: 0.25,
            dead_timeout_s: 1.0,
        }
    }
}

impl FuseConfig {
    /// Fluent construction from the defaults:
    /// `FuseConfig::builder().zones(..).fall(..).build()`.
    pub fn builder() -> FuseConfigBuilder {
        FuseConfigBuilder {
            cfg: FuseConfig::default(),
        }
    }

    /// Effective per-axis variance for an observation: the reported
    /// variance (or the default when absent), floored, and inflated for
    /// held (predicted rather than measured) reports.
    pub(crate) fn effective_var(&self, reported: Option<Vec3>, held: bool) -> Vec3 {
        let floor = self.obs_std_floor_m * self.obs_std_floor_m;
        let default = self.default_obs_std_m * self.default_obs_std_m;
        let v = reported.unwrap_or(Vec3::new(default, default, default));
        let scale = if held {
            self.held_obs_var_inflation
        } else {
            1.0
        };
        Vec3::new(v.x.max(floor), v.y.max(floor), v.z.max(floor)) * scale
    }
}

/// Fluent construction for [`FuseConfig`] — see [`FuseConfig::builder`].
///
/// Starts from [`FuseConfig::default`]; any field the builder does not
/// cover can still be set by struct update on the built value.
#[derive(Debug, Clone)]
pub struct FuseConfigBuilder {
    cfg: FuseConfig,
}

impl FuseConfigBuilder {
    /// Start from `base` instead of the defaults.
    pub fn from_config(base: FuseConfig) -> FuseConfigBuilder {
        FuseConfigBuilder { cfg: base }
    }

    /// Fusion epoch length (s).
    pub fn frame_period_s(mut self, s: f64) -> Self {
        self.cfg.frame_period_s = s;
        self
    }

    /// Replaces the occupancy/event zones.
    pub fn zones(mut self, zones: Vec<Zone>) -> Self {
        self.cfg.zones = zones;
        self
    }

    /// Appends one occupancy/event zone.
    pub fn zone(mut self, zone: Zone) -> Self {
        self.cfg.zones.push(zone);
        self
    }

    /// Fall-rule tuning applied to fused world tracks.
    pub fn fall(mut self, fall: FallConfig) -> Self {
        self.cfg.fall = fall;
        self
    }

    /// Track age (s) before elevation feeds the fall detector.
    pub fn fall_warmup_s(mut self, s: f64) -> Self {
        self.cfg.fall_warmup_s = s;
        self
    }

    /// Liveness: silence (s) before a sensor is demoted to `Suspect`.
    pub fn suspect_timeout_s(mut self, s: f64) -> Self {
        self.cfg.suspect_timeout_s = s;
        self
    }

    /// Liveness: silence (s) before a `Suspect` sensor is declared dead.
    pub fn dead_timeout_s(mut self, s: f64) -> Self {
        self.cfg.dead_timeout_s = s;
        self
    }

    /// Consecutive empty epochs a confirmed world track may coast.
    pub fn max_coast_frames(mut self, frames: usize) -> Self {
        self.cfg.max_coast_frames = frames;
        self
    }

    /// The finished configuration.
    pub fn build(self) -> FuseConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_containment_ignores_elevation() {
        let z = Zone {
            id: 1,
            name: "lab".into(),
            x: (-3.0, 3.0),
            y: (0.0, 10.0),
        };
        assert!(z.contains(Vec3::new(0.0, 5.0, 1.0)));
        assert!(z.contains(Vec3::new(0.0, 5.0, 0.05)), "fallen is still in");
        assert!(!z.contains(Vec3::new(5.0, 5.0, 1.0)));
    }

    #[test]
    fn effective_variance_floors_defaults_and_inflates_held() {
        let cfg = FuseConfig::default();
        let floor = cfg.obs_std_floor_m * cfg.obs_std_floor_m;
        let v = cfg.effective_var(Some(Vec3::new(1e-9, 0.5, 0.02)), false);
        assert_eq!(v.x, floor, "overconfident x floored");
        assert_eq!(v.y, 0.5, "honest y kept");
        let d = cfg.effective_var(None, false);
        let def = cfg.default_obs_std_m * cfg.default_obs_std_m;
        assert_eq!(d, Vec3::new(def, def, def));
        // A held report is a prediction: strictly less trusted.
        let h = cfg.effective_var(None, true);
        assert_eq!(h, d * cfg.held_obs_var_inflation);
    }

    #[test]
    fn builder_layers_fields_over_the_defaults() {
        let z = Zone {
            id: 2,
            name: "bed".into(),
            x: (0.0, 2.0),
            y: (0.0, 2.0),
        };
        let cfg = FuseConfig::builder()
            .frame_period_s(0.025)
            .zone(z.clone())
            .suspect_timeout_s(0.5)
            .dead_timeout_s(2.0)
            .max_coast_frames(100)
            .build();
        assert_eq!(cfg.frame_period_s, 0.025);
        assert_eq!(cfg.zones, vec![z]);
        assert_eq!(cfg.suspect_timeout_s, 0.5);
        assert_eq!(cfg.dead_timeout_s, 2.0);
        assert_eq!(cfg.max_coast_frames, 100);
        // Untouched fields keep their defaults.
        assert_eq!(
            cfg.gate_mahalanobis_sq,
            FuseConfig::default().gate_mahalanobis_sq
        );
    }
}
