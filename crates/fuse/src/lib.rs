//! witrack-fuse: cross-sensor track fusion, world model, and fleet
//! events.
//!
//! WiTrack localizes bodies *per device*; its headline applications —
//! through-wall tracking, fall alerts, gesture control (§6) — only become
//! a deployable system once many sensors covering overlapping spaces
//! agree on one world. This crate is that layer:
//!
//! * [`registration`] — which rigid (SE(3)) transform carries each
//!   sensor's local frame into the shared world frame; surveyed or
//!   auto-calibrated from one shared calibration walk
//!   ([`Registration::calibrate`], built on
//!   [`witrack_geom::align_point_sets`]).
//! * [`world`] — the [`FusionEngine`]: per-sensor
//!   [`FrameReport`](witrack_core::FrameReport)s in, fused
//!   [`WorldFrame`]s out. Observations are grouped into watermarked
//!   epochs, gated with a Mahalanobis test against each world track's
//!   covariance (newly exported from the `witrack-mtt` Kalman),
//!   associated with the Hungarian solver, and merged
//!   covariance-weighted. A track whose sensor loses coverage coasts
//!   until another sensor reacquires it — identity survives the handoff.
//! * [`events`] — fleet-level events lifted from per-sensor appliers to
//!   world tracks: zone occupancy, falls on fused elevation, handoffs,
//!   pointing gestures registered into world coordinates.
//! * [`config`] — gates, lifecycle windows, zones.
//!
//! The serving layer (`witrack-serve`) runs one engine per room behind
//! its wire protocol (`SubscribeV3`/`WorldUpdate`/`Event` messages), so
//! clients subscribe to *rooms*, not raw sensors.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod events;
pub mod registration;
pub mod world;

pub use config::{FuseConfig, FuseConfigBuilder, Zone};
pub use events::WorldEvent;
pub use registration::{CalibrationConfig, CalibrationError, Registration, TrackSample};
pub use world::{
    FusionEngine, FusionStats, LivenessTransition, SensorLiveness, WorldFrame, WorldTrackId,
    WorldTrackSnapshot,
};
