//! FMCW radar processing for WiTrack (paper §4, §7).
//!
//! The transmit chain sweeps a narrowband carrier linearly across
//! B = 1.69 GHz every 2.5 ms; the receive chain mixes the echo with the
//! transmitted chirp so every reflection becomes a baseband tone at
//! `Δf = slope · TOF` (Eq. 1). This crate turns the resulting 1 MS/s
//! baseband stream into clean per-antenna round-trip distances:
//!
//! ```text
//! sweeps ──► [profile]   5-sweep coherent average + FFT  ──► range profile
//!        ──► [background] consecutive-frame subtraction  ──► moving reflectors only
//!        ──► [contour]    first local max above noise    ──► raw round-trip distance
//!        ──► [denoise]    outlier gate + hold + Kalman   ──► clean round-trip distance
//! ```
//!
//! The first three stages are the same on every receive antenna and in
//! every tracker, so [`FrontEnd`] runs them for all of a sensor's
//! antennas on one sweep clock and hands each antenna's frame to the
//! tracker's own detect step. [`TofEstimator`] is the one-antenna tracker
//! that adds the denoiser.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod background;
pub mod config;
pub mod contour;
pub mod denoise;
pub mod pipeline;
pub mod profile;
pub mod spectrogram;

pub use background::BackgroundSubtractor;
pub use config::SweepConfig;
pub use contour::{ContourConfig, ContourTracker, Detection};
pub use denoise::{DenoiseConfig, DenoisedDistance, DistanceDenoiser};
pub use pipeline::{FrameClock, FrontEnd, StageTimes, Sweeps, TofEstimator, TofFrame};
pub use profile::{RangeProfiler, Sweep};
pub use spectrogram::Spectrogram;
