//! Observability for the WiTrack serving stack: a dependency-free,
//! lock-free telemetry core.
//!
//! Three pieces, each usable on a hot path without allocation or
//! locking after setup:
//!
//! - [`Histo`] — a fixed, log₂-bucketed latency histogram of 64 atomic
//!   buckets. Records are one `fetch_add` per bucket plus running
//!   count/sum/min/max; snapshots are mergeable and expose
//!   p50/p90/p99/max.
//! - [`Registry`] — labeled counter/gauge/histogram handles keyed by
//!   `(subsystem, name, label)` where the label is a sensor id, room
//!   id, or shard index. Registration takes a lock once; the returned
//!   handles are `Arc`-backed atomics, so the hot path never touches
//!   the registry again. [`Registry::snapshot`] walks everything for
//!   wire export, and [`Registry::render_text`] produces a
//!   Prometheus-style text exposition for logs and CI artifacts.
//! - [`FlightRecorder`] — a fixed-size, lock-free ring of recent
//!   anomaly records (drops, rejects, sequence gaps, shed updates,
//!   ghost quarantines, handoffs) with relative timestamps and two
//!   numeric labels, dumpable on demand for post-mortem.
//!
//! The crate is intentionally free of dependencies (it sits *below*
//! dsp in the workspace graph, so even transform-plan caches can count
//! into it) and free of `unsafe`.

pub mod histo;
pub mod recorder;
pub mod registry;

pub use histo::{bucket_index, Histo, HistoSnapshot, NUM_BUCKETS};
pub use recorder::{Anomaly, AnomalyKind, FlightRecorder};
pub use registry::{Counter, Gauge, Label, MetricKey, MetricSample, MetricValue, Registry};

use std::sync::Arc;

/// Per-frame pipeline stage histograms (nanoseconds): the paper's
/// range-profile, contour-detect, and associate/solve stages. Attached
/// to a `FramePipeline` by the serving layer; pipelines record into
/// whichever stages they actually run.
#[derive(Clone)]
pub struct StageStats {
    /// Range profiling (sweep → range profile; the range-transform work).
    pub profile: Arc<Histo>,
    /// Background subtraction + contour detection (+ denoising).
    pub detect: Arc<Histo>,
    /// Association / geometric solve / track update.
    pub associate: Arc<Histo>,
}

impl StageStats {
    /// Fresh, unregistered stage histograms (tests, standalone benches).
    pub fn detached() -> StageStats {
        StageStats {
            profile: Arc::new(Histo::new()),
            detect: Arc::new(Histo::new()),
            associate: Arc::new(Histo::new()),
        }
    }

    /// Stage histograms registered under `("pipeline", <stage>_ns)` with
    /// the given label. Repeated calls with the same label share the
    /// same underlying histograms.
    pub fn registered(registry: &Registry, label: Label) -> StageStats {
        StageStats {
            profile: registry.histo("pipeline", "profile_ns", label),
            detect: registry.histo("pipeline", "detect_ns", label),
            associate: registry.histo("pipeline", "associate_ns", label),
        }
    }
}

/// The process-wide registry, for subsystems with no natural owner to
/// hang per-instance state off (e.g. the dsp transform-plan caches).
/// Engine-scoped metrics live in each engine's own [`Registry`]; full
/// snapshots merge both.
pub fn global() -> &'static Registry {
    static GLOBAL: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}
