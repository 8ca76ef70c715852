//! DSP substrate for the WiTrack reproduction.
//!
//! Everything signal-processing the system needs, implemented from scratch
//! (the approved dependency list has no FFT/linear-algebra crates, and the
//! point of the reproduction is to own these code paths):
//!
//! * [`Complex`] — complex arithmetic for baseband signals.
//! * [`fft`] — FFT plans at any length: mixed-radix Stockham passes for
//!   lengths whose prime factors are all ≤ 5 (powers of two included), and
//!   Bluestein's chirp-Z identity for the rest, so *exact*
//!   non-power-of-two lengths work. WiTrack's sweep is 2500 samples
//!   (2.5 ms at 1 MS/s); transforming at the exact length keeps the paper's
//!   400 Hz bins = 8.87 cm one-way range resolution (Eq. 3).
//! * [`range`] — the per-frame range transform: the kept band of a real
//!   frame's DFT through one half-length packed FFT (the per-frame hot
//!   path; see the module docs).
//! * [`window`] — tapers for spectral analysis.
//! * [`kalman`] — the 1-D constant-velocity Kalman filter used to smooth
//!   per-antenna distance estimates (paper §4.4 "Filtering").
//! * [`filters`] — outlier rejection and hold-last interpolation (paper §4.4
//!   "Outlier Rejection" and "Interpolation").
//! * [`regression`] — ordinary, Theil–Sen, and Tukey-bisquare robust line
//!   fits (paper §6.1 step 3 "robust regression").
//! * [`peak`] — noise-floor estimation, local maxima, and parabolic sub-bin
//!   refinement (the contour-tracking primitives of §4.3).
//! * [`stats`] — order statistics and empirical CDFs for the evaluation
//!   harness (Figs. 8–11 report medians, 90th percentiles, CDFs).
//! * [`simd`] — runtime-dispatched AVX2/scalar kernels behind the hot
//!   inner loops above (the one module permitted `unsafe`, for the raw
//!   intrinsics; the rest of the crate denies it).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod complex;
pub mod fft;
pub mod filters;
pub mod kalman;
pub mod peak;
pub(crate) mod plan_cache;
pub mod range;
pub mod regression;
pub mod simd;
pub mod stats;
pub mod window;

pub use complex::Complex;
pub use fft::Fft;
pub use kalman::Kalman1D;
pub use range::RangeTransform;
