//! The length-prefixed binary wire format sensors speak to the engine.
//!
//! Every message is one *frame*: a fixed 12-byte header followed by a
//! type-specific payload. All integers and floats are **little-endian**.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  the bytes "WTRK" (0x4B525457 as a LE u32)
//! 4       1     version (4; no other version decodes)
//! 5       1     message type
//! 6       2     flags (reserved, must be 0)
//! 8       4     payload length in bytes
//! 12      ...   payload
//! ```
//!
//! Message types (client → server unless noted). Types 2 and 7 are
//! unassigned and decode as [`WireError::UnknownType`].
//!
//! | type | name         | payload |
//! |------|--------------|---------|
//! | 1    | `Hello`      | `sensor_id u32, kind u8, n_rx u8, flags u16 (bit0: quantized, advisory), samples_per_sweep u32, sweeps_per_frame u32` |
//! | 3    | `Teardown`   | `sensor_id u32` |
//! | 4    | `UpdateBatch` (server → client) | `sensor_id u32, seq u64, n_updates u16, reserved u16`, then per update `frame_index u64, time_s f64, n_targets u16, reserved u16`, then per target 64 bytes: `id u64 (u64::MAX = anonymous), x y z f64, vx vy vz f64, flags u8 (bit0 held, bit1 has velocity), pad [7]u8` |
//! | 5    | `Reject` (server → client) | `sensor_id u32, code u16, reserved u16` |
//! | 6    | `SweepBatchQ` | `sensor_id u32, seq u64, n_sweeps u16, n_rx u16, samples_per_sweep u32, scale f64, data [n_sweeps × n_rx × samples_per_sweep] i16` |
//! | 8    | `WorldUpdate` (server → client) | `room_id u32, seq u64, epoch u64, time_s f64, n_tracks u16, reserved u16`, then per track 88 bytes: `id u64, x y z f64, vx vy vz f64, var_x var_y var_z f64, flags u8 (bit0 coasting), contributors u8, pad u16, primary_sensor u32 (u32::MAX = none)` |
//! | 9    | `Event` (server → client) | `room_id u32, kind u16, reserved u16, track u64 (u64::MAX = none), zone u32, sensor_a u32, sensor_b u32, reserved u32, time_s f64, x y z f64, aux f64, aux2 f64` |
//! | 10   | `StatsQuery` | `flags u32 (reserved, must be 0)` |
//! | 11   | `StatsReport` (server → client) | `n_samples u32`, then per sample: `subsystem (u8 len + bytes), name (u8 len + bytes), label_kind u8 (0 global, 1 sensor, 2 room, 3 shard), label_id u32, value_kind u8 (1 counter, 2 gauge, 3 histogram)`, then `u64` for counter, `i64` for gauge, or `count u64, sum u64, min u64, max u64, p50 u64, p90 u64, p99 u64` for histogram |
//! | 12   | `SubscribeV3` | `room_id u32, sub_id u64, flags u16 (bit0 world updates, bit1 events), reserved u16, max_update_hz f64, n_ops u16`, then per filter op 17 bytes: `code u8, a u32, b u32, f f64` |
//! | 13   | `SubscribeAck` (server → client) | `room_id u32, status u16 (0 = ok), reserved u16, sub_id u64` |
//! | 14   | `SubscriptionStats` (server → client) | `room_id u32, reserved u32, sub_id u64, evaluated u64, matched u64, shed u64, rate_limited u64` |
//! | 15   | `Unsubscribe` | `room_id u32, sub_id u64` |
//!
//! Sweeps travel in one form, [`SweepBatchQ`]: `i16` quantization steps
//! plus one `f64` scale per batch (`sample = step × scale`). Real FMCW
//! front ends digitize at ≤ 16 bits, so the i16 wire is fidelity-neutral;
//! a 5-sweep × 3-antenna × 2500-sample frame is 75,040 bytes at the paper
//! configuration. [`SweepBatch`] is the in-process f64 batch a sender
//! quantizes from; it has no wire type of its own.
//!
//! [`SubscribeV3`] carries a compiled filter program (see
//! [`crate::program`]) plus per-subscription rate fields and is answered
//! with a [`SubscribeAck`]; [`Unsubscribe`] releases one subscription and
//! is answered with its final [`SubscriptionStats`]. Types 10/11 are the
//! telemetry pull: a client sends `StatsQuery` and the server answers with
//! one `StatsReport` carrying a point-in-time snapshot of every registered
//! metric series (see `witrack_obs`) — counters, gauges, and histogram
//! summaries with p50/p90/p99.
//!
//! [`decode`] is incremental-read friendly: on a buffer holding only part
//! of one frame it returns [`WireError::Incomplete`] with the total frame
//! length needed, so a streaming reader knows exactly how much more to
//! fetch. All other errors are fatal for the connection. The hot ingest
//! path uses [`decode_into_q`] instead, which copies a batch's i16 steps
//! straight into a caller-provided (typically pooled) buffer and never
//! allocates.

use witrack_core::{FrameReport, TargetReport};
use witrack_fuse::{WorldEvent, WorldFrame, WorldTrackId, WorldTrackSnapshot};
use witrack_geom::Vec3;

/// Frame magic: the bytes `"WTRK"` on the wire (value `0x4B52_5457` as a
/// little-endian u32).
pub const MAGIC: u32 = u32::from_le_bytes(*b"WTRK");
/// The protocol version: encoded into every frame this side sends, and
/// the only version the decoder accepts.
pub const VERSION: u8 = 4;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 12;
/// Hard cap on payload length (64 MiB): anything larger is a corrupt or
/// hostile frame, not a real sweep batch.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Which pipeline backend a sensor asks for in its [`Hello`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineKind {
    /// The single-target `WiTrack` pipeline.
    SingleTarget,
    /// The multi-target `MultiWiTrack` pipeline.
    MultiTarget,
}

impl PipelineKind {
    fn to_u8(self) -> u8 {
        match self {
            PipelineKind::SingleTarget => 0,
            PipelineKind::MultiTarget => 1,
        }
    }

    fn from_u8(v: u8) -> Result<PipelineKind, WireError> {
        match v {
            0 => Ok(PipelineKind::SingleTarget),
            1 => Ok(PipelineKind::MultiTarget),
            _ => Err(WireError::BadPayload("unknown pipeline kind")),
        }
    }
}

/// Session open: a sensor announces itself and its stream shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Sensor identity; also the shard-routing key.
    pub sensor_id: u32,
    /// Requested pipeline backend.
    pub kind: PipelineKind,
    /// Number of receive antennas (one sweep slice per antenna).
    pub n_rx: u8,
    /// Samples per sweep the sensor will send.
    pub samples_per_sweep: u32,
    /// Sweeps per processing frame.
    pub sweeps_per_frame: u32,
    /// Hello-flags bit 0, "the sensor sends [`SweepBatchQ`] batches".
    /// Advisory: every sweep batch is quantized, so the server reads
    /// nothing from it.
    pub quantized: bool,
}

/// A batch of consecutive sweep intervals from one sensor, in f64: the
/// in-process form a sender builds and [`SweepBatchQ::quantize`] reads.
/// It has no wire type; only its quantized form is sent.
///
/// `data` is flat, sweep-major: sweep `s`, antenna `k` occupies
/// `data[(s * n_rx + k) * samples .. ][..samples]` (see [`Self::sweep_rx`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepBatch {
    /// Which sensor this batch belongs to.
    pub sensor_id: u32,
    /// Batch sequence number, starting at 0 after `Hello`.
    pub seq: u64,
    /// Number of sweep intervals in this batch.
    pub n_sweeps: u16,
    /// Number of receive antennas per sweep interval.
    pub n_rx: u16,
    /// Samples per (antenna) sweep.
    pub samples_per_sweep: u32,
    /// The baseband samples, `n_sweeps × n_rx × samples_per_sweep`.
    pub data: Vec<f64>,
}

impl SweepBatch {
    /// Builds a batch from per-sweep, per-antenna slices.
    ///
    /// # Panics
    /// Panics if the sweeps are ragged (differing antenna counts or sweep
    /// lengths).
    pub fn from_sweeps(sensor_id: u32, seq: u64, sweeps: &[Vec<Vec<f64>>]) -> SweepBatch {
        let n_sweeps = sweeps.len();
        let n_rx = sweeps.first().map(|s| s.len()).unwrap_or(0);
        let samples = sweeps
            .first()
            .and_then(|s| s.first())
            .map(|v| v.len())
            .unwrap_or(0);
        let mut data = Vec::with_capacity(n_sweeps * n_rx * samples);
        for sweep in sweeps {
            assert_eq!(sweep.len(), n_rx, "ragged antenna count");
            for rx in sweep {
                assert_eq!(rx.len(), samples, "ragged sweep length");
                data.extend_from_slice(rx);
            }
        }
        SweepBatch {
            sensor_id,
            seq,
            n_sweeps: n_sweeps as u16,
            n_rx: n_rx as u16,
            samples_per_sweep: samples as u32,
            data,
        }
    }

    /// The samples of sweep `s`, antenna `k`.
    pub fn sweep_rx(&self, s: usize, k: usize) -> &[f64] {
        let samples = self.samples_per_sweep as usize;
        let start = (s * self.n_rx as usize + k) * samples;
        &self.data[start..start + samples]
    }

    /// This batch's shape/identity fields as a [`SweepShape`].
    pub fn shape(&self) -> SweepShape {
        SweepShape {
            sensor_id: self.sensor_id,
            seq: self.seq,
            n_sweeps: self.n_sweeps,
            n_rx: self.n_rx,
            samples_per_sweep: self.samples_per_sweep,
        }
    }
}

/// The identity + shape header of a sweep batch — what the engine needs
/// once the samples live in a separate (pooled) buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepShape {
    /// Which sensor the batch belongs to.
    pub sensor_id: u32,
    /// Batch sequence number.
    pub seq: u64,
    /// Sweep intervals in the batch.
    pub n_sweeps: u16,
    /// Receive antennas per sweep interval.
    pub n_rx: u16,
    /// Samples per (antenna) sweep.
    pub samples_per_sweep: u32,
}

impl SweepShape {
    /// Total samples the batch carries.
    pub fn sample_count(&self) -> usize {
        self.n_sweeps as usize * self.n_rx as usize * self.samples_per_sweep as usize
    }

    /// Samples in one sweep interval (all antennas, packed contiguously).
    pub fn samples_per_interval(&self) -> usize {
        self.n_rx as usize * self.samples_per_sweep as usize
    }
}

/// The wire's sweep batch: i16 steps with one shared scale.
///
/// `sample = data[i] as f64 * scale`. Quantization uses the batch's peak
/// magnitude, so the worst-case rounding error is `scale / 2` — about
/// 90 dB below the strongest reflector, far beneath both the simulated
/// noise floor and a real ≤ 16-bit ADC's own quantization.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepBatchQ {
    /// Which sensor this batch belongs to.
    pub sensor_id: u32,
    /// Batch sequence number, starting at 0 after `Hello`.
    pub seq: u64,
    /// Number of sweep intervals in this batch.
    pub n_sweeps: u16,
    /// Number of receive antennas per sweep interval.
    pub n_rx: u16,
    /// Samples per (antenna) sweep.
    pub samples_per_sweep: u32,
    /// Dequantization scale: one step in physical units.
    pub scale: f64,
    /// Quantized samples, same sweep-major layout as [`SweepBatch::data`].
    pub data: Vec<i16>,
}

impl SweepBatchQ {
    /// Quantizes an f64 batch. The scale is chosen so the batch's peak
    /// magnitude maps to ±[`i16::MAX`] (an all-zero batch gets scale 1).
    pub fn quantize(b: &SweepBatch) -> SweepBatchQ {
        let peak = b.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()));
        let scale = if peak > 0.0 {
            peak / i16::MAX as f64
        } else {
            1.0
        };
        let inv = 1.0 / scale;
        let data = b
            .data
            .iter()
            .map(|&x| (x * inv).round().clamp(i16::MIN as f64, i16::MAX as f64) as i16)
            .collect();
        SweepBatchQ {
            sensor_id: b.sensor_id,
            seq: b.seq,
            n_sweeps: b.n_sweeps,
            n_rx: b.n_rx,
            samples_per_sweep: b.samples_per_sweep,
            scale,
            data,
        }
    }

    /// Builds a quantized batch from per-sweep, per-antenna slices.
    ///
    /// # Panics
    /// Panics if the sweeps are ragged (see [`SweepBatch::from_sweeps`]).
    pub fn from_sweeps(sensor_id: u32, seq: u64, sweeps: &[Vec<Vec<f64>>]) -> SweepBatchQ {
        SweepBatchQ::quantize(&SweepBatch::from_sweeps(sensor_id, seq, sweeps))
    }

    /// Dequantizes into a fresh f64 batch.
    pub fn dequantize(&self) -> SweepBatch {
        SweepBatch {
            sensor_id: self.sensor_id,
            seq: self.seq,
            n_sweeps: self.n_sweeps,
            n_rx: self.n_rx,
            samples_per_sweep: self.samples_per_sweep,
            data: self.data.iter().map(|&q| q as f64 * self.scale).collect(),
        }
    }

    /// This batch's shape/identity fields as a [`SweepShape`].
    pub fn shape(&self) -> SweepShape {
        SweepShape {
            sensor_id: self.sensor_id,
            seq: self.seq,
            n_sweeps: self.n_sweeps,
            n_rx: self.n_rx,
            samples_per_sweep: self.samples_per_sweep,
        }
    }
}

/// Session close for one sensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Teardown {
    /// Which sensor is closing.
    pub sensor_id: u32,
}

/// Server → client: a batch of per-frame reports for one sensor.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateBatch {
    /// Which sensor these updates belong to.
    pub sensor_id: u32,
    /// Output sequence number, starting at 0 per session.
    pub seq: u64,
    /// The per-frame reports, oldest first.
    pub updates: Vec<FrameReport>,
}

/// Why the server refused a message (the session, if any, survives unless
/// the code says otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    /// A `SweepBatchQ` arrived for a sensor that never said `Hello` (or was
    /// torn down).
    UnknownSensor,
    /// A `Hello` arrived for a sensor id that already has a live session.
    DuplicateSensor,
    /// The `Hello` or `SweepBatchQ` shape disagrees with the server's
    /// pipeline configuration (antenna count, sweep length).
    BadConfig,
    /// A `SweepBatchQ` sequence number was already consumed; the batch was
    /// discarded.
    StaleSequence,
    /// A `SubscribeV3` named a room this server does not fuse (or the
    /// server runs no world hub at all), or an `Unsubscribe` named no
    /// subscription of this connection.
    UnknownSubscription,
    /// A frame arrived whose payload failed to decode (mutated bytes,
    /// bad shape). The stream itself stayed framed — the length prefix
    /// was intact — so the connection survives; the frame is discarded.
    /// The `sensor_id` on such a reject is 0: a corrupt frame names no
    /// trustworthy sensor.
    CorruptFrame,
    /// A `SubscribeV3` carried a filter program that decoded but failed
    /// validation (stack-invalid or over the op budget). The connection
    /// survives; the subscription is not installed.
    BadProgram,
}

impl RejectCode {
    pub(crate) fn to_u16(self) -> u16 {
        match self {
            RejectCode::UnknownSensor => 1,
            RejectCode::DuplicateSensor => 2,
            RejectCode::BadConfig => 3,
            RejectCode::StaleSequence => 4,
            RejectCode::UnknownSubscription => 5,
            RejectCode::CorruptFrame => 6,
            RejectCode::BadProgram => 7,
        }
    }

    fn from_u16(v: u16) -> Result<RejectCode, WireError> {
        match v {
            1 => Ok(RejectCode::UnknownSensor),
            2 => Ok(RejectCode::DuplicateSensor),
            3 => Ok(RejectCode::BadConfig),
            4 => Ok(RejectCode::StaleSequence),
            5 => Ok(RejectCode::UnknownSubscription),
            6 => Ok(RejectCode::CorruptFrame),
            7 => Ok(RejectCode::BadProgram),
            _ => Err(WireError::BadPayload("unknown reject code")),
        }
    }
}

/// Client → server: a programmable room subscription. Carries
/// a [`FilterProgram`](crate::program::FilterProgram) the hub evaluates
/// per event before encode/fan-out, plus per-subscription rate fields.
/// Most clients build one with
/// [`SubscriptionBuilder`](crate::program::SubscriptionBuilder).
#[derive(Debug, Clone, PartialEq)]
pub struct SubscribeV3 {
    /// The room to subscribe to.
    pub room_id: u32,
    /// Client-chosen subscription id: names this subscription in
    /// [`SubscribeAck`]/[`SubscriptionStats`] replies and [`Unsubscribe`].
    pub sub_id: u64,
    /// Deliver fused [`WorldUpdateMsg`] frames.
    pub world_updates: bool,
    /// Deliver [`EventMsg`] frames (those matching `program`).
    pub events: bool,
    /// Cap on delivered world updates per event-second (0 = every fused
    /// frame). Frames beyond the cap are skipped, not queued.
    pub max_update_hz: f64,
    /// The event filter; empty matches everything.
    pub program: crate::program::FilterProgram,
}

/// Server → client: the hub accepted a [`SubscribeV3`]. A
/// refused subscription gets a [`Reject`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscribeAck {
    /// The subscribed room.
    pub room_id: u32,
    /// The subscription id echoed back.
    pub sub_id: u64,
    /// Reserved status (0 = ok).
    pub status: u16,
}

/// Server → client: one subscription's filter counters — sent
/// as the final reply to an [`Unsubscribe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubscriptionStats {
    /// The subscribed room.
    pub room_id: u32,
    /// Which subscription these counters belong to.
    pub sub_id: u64,
    /// Events offered to this subscription's filter.
    pub evaluated: u64,
    /// Events the filter matched (delivery attempted).
    pub matched: u64,
    /// Matched messages shed on a full outbox.
    pub shed: u64,
    /// Would-be matches suppressed by debounce/rate-limit ops.
    pub rate_limited: u64,
}

/// Client → server: release one subscription. The hub stops
/// evaluating it immediately and replies with its final
/// [`SubscriptionStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unsubscribe {
    /// The subscribed room.
    pub room_id: u32,
    /// The subscription id given at subscribe time.
    pub sub_id: u64,
}

/// Server → client: one fused world epoch for a room.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldUpdateMsg {
    /// The room the frame belongs to.
    pub room_id: u32,
    /// The room's output-stream sequence number (shared by all
    /// subscribers, advancing whether or not anyone is subscribed) — so
    /// a late subscriber starts mid-stream at a nonzero value, and gaps
    /// only indicate shed frames *between* values a subscriber received.
    pub seq: u64,
    /// The fused epoch (events are delivered separately as [`EventMsg`]).
    pub frame: WorldFrame,
}

/// Server → client: one fleet event for a room.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventMsg {
    /// The room the event belongs to.
    pub room_id: u32,
    /// The event.
    pub event: WorldEvent,
}

/// Server → client: a refusal notice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reject {
    /// The sensor the refused message named.
    pub sensor_id: u32,
    /// Why it was refused.
    pub code: RejectCode,
}

/// Client → server: request one [`StatsReport`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsQuery {
    /// Reserved; must be 0.
    pub flags: u32,
}

/// A histogram's wire summary: totals, extremes, and the three
/// quantiles dashboards actually plot. The full 64-bucket vector stays
/// server-side; 56 bytes per series keeps a fleet-wide report small.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistoWire {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// 50th-percentile estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

impl HistoWire {
    /// Summarizes a full histogram snapshot for the wire.
    pub fn from_snapshot(h: &witrack_obs::HistoSnapshot) -> HistoWire {
        if h.is_empty() {
            return HistoWire::default();
        }
        HistoWire {
            count: h.count,
            sum: h.sum,
            min: h.min,
            max: h.max,
            p50: h.p50(),
            p90: h.p90(),
            p99: h.p99(),
        }
    }
}

/// One metric's value inside a [`StatsReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsValue {
    /// Monotone counter.
    Counter(u64),
    /// Instantaneous gauge.
    Gauge(i64),
    /// Histogram summary.
    Histo(HistoWire),
}

/// One metric series inside a [`StatsReport`]. The owned-string twin of
/// `witrack_obs::MetricSample` (registry keys are `&'static str`, which
/// a decoder cannot produce).
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSample {
    /// Owning subsystem (`"engine"`, `"shard"`, `"pipeline"`, ...).
    pub subsystem: String,
    /// Series name within the subsystem.
    pub name: String,
    /// Label dimension.
    pub label: witrack_obs::Label,
    /// Point-in-time value.
    pub value: StatsValue,
}

/// Server → client: a point-in-time metrics snapshot,
/// answering a [`StatsQuery`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsReport {
    /// Every registered series, in registry (sorted-key) order.
    pub samples: Vec<StatsSample>,
}

impl StatsReport {
    /// Builds an owned report from registry snapshot samples.
    pub fn from_samples(samples: &[witrack_obs::MetricSample]) -> StatsReport {
        StatsReport {
            samples: samples
                .iter()
                .map(|s| StatsSample {
                    subsystem: s.key.subsystem.to_string(),
                    name: s.key.name.to_string(),
                    label: s.key.label,
                    value: match &s.value {
                        witrack_obs::MetricValue::Counter(v) => StatsValue::Counter(*v),
                        witrack_obs::MetricValue::Gauge(v) => StatsValue::Gauge(*v),
                        witrack_obs::MetricValue::Histo(h) => {
                            StatsValue::Histo(HistoWire::from_snapshot(h))
                        }
                    },
                })
                .collect(),
        }
    }

    /// The first sample matching `(subsystem, name, label)`, if any —
    /// the lookup clients use after a pull.
    pub fn find(
        &self,
        subsystem: &str,
        name: &str,
        label: witrack_obs::Label,
    ) -> Option<&StatsSample> {
        self.samples
            .iter()
            .find(|s| s.subsystem == subsystem && s.name == name && s.label == label)
    }

    /// Prometheus-style text exposition of the pulled report, in the
    /// same shape as [`witrack_obs::registry::render_samples`]: one line
    /// per counter/gauge, `_count`/`_sum` plus `quantile`-labeled
    /// p50/p90/p99/max lines per histogram.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in &self.samples {
            let base = format!("witrack_{}_{}", s.subsystem, s.name);
            let label = match s.label.dimension() {
                None => String::new(),
                Some((dim, id)) => format!("{dim}=\"{id}\""),
            };
            let series = |extra: &str| -> String {
                let joined = match (label.is_empty(), extra.is_empty()) {
                    (true, true) => return String::new(),
                    (false, true) => label.clone(),
                    (true, false) => extra.to_string(),
                    (false, false) => format!("{label},{extra}"),
                };
                format!("{{{joined}}}")
            };
            match &s.value {
                StatsValue::Counter(v) => {
                    let _ = writeln!(out, "{base}{} {v}", series(""));
                }
                StatsValue::Gauge(v) => {
                    let _ = writeln!(out, "{base}{} {v}", series(""));
                }
                StatsValue::Histo(h) => {
                    let _ = writeln!(out, "{base}_count{} {}", series(""), h.count);
                    let _ = writeln!(out, "{base}_sum{} {}", series(""), h.sum);
                    for (q, v) in [
                        ("0.5", h.p50),
                        ("0.9", h.p90),
                        ("0.99", h.p99),
                        ("1.0", h.max),
                    ] {
                        let _ = writeln!(out, "{base}{} {v}", series(&format!("quantile=\"{q}\"")));
                    }
                }
            }
        }
        out
    }
}

/// Any wire message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Session open.
    Hello(Hello),
    /// Session close.
    Teardown(Teardown),
    /// Server → client frame reports.
    UpdateBatch(UpdateBatch),
    /// Server → client refusal.
    Reject(Reject),
    /// Sweep data (i16 steps plus one scale).
    SweepBatchQ(SweepBatchQ),
    /// Server → client fused world frame. The frame's `events` list
    /// is **not** carried — events travel as separate [`EventMsg`]
    /// frames — so it decodes empty.
    WorldUpdate(WorldUpdateMsg),
    /// Server → client fleet event.
    Event(EventMsg),
    /// Metrics-snapshot request.
    StatsQuery(StatsQuery),
    /// Server → client metrics snapshot.
    StatsReport(StatsReport),
    /// Programmable room subscription.
    SubscribeV3(SubscribeV3),
    /// Server → client subscription accept.
    SubscribeAck(SubscribeAck),
    /// Server → client per-subscription filter counters.
    SubscriptionStats(SubscriptionStats),
    /// Release one subscription.
    Unsubscribe(Unsubscribe),
}

impl Message {
    fn msg_type(&self) -> u8 {
        match self {
            Message::Hello(_) => 1,
            Message::Teardown(_) => 3,
            Message::UpdateBatch(_) => 4,
            Message::Reject(_) => 5,
            Message::SweepBatchQ(_) => 6,
            Message::WorldUpdate(_) => 8,
            Message::Event(_) => 9,
            Message::StatsQuery(_) => 10,
            Message::StatsReport(_) => 11,
            Message::SubscribeV3(_) => 12,
            Message::SubscribeAck(_) => 13,
            Message::SubscriptionStats(_) => 14,
            Message::Unsubscribe(_) => 15,
        }
    }
}

/// Decode errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer holds only part of one frame; `needed` is the total
    /// frame length (header + payload). Read more and retry.
    Incomplete {
        /// Total bytes the complete frame occupies.
        needed: usize,
    },
    /// The first four bytes are not the protocol magic.
    BadMagic(u32),
    /// The version byte is not one this decoder speaks.
    UnsupportedVersion(u8),
    /// The message-type byte is unknown.
    UnknownType(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    PayloadTooLarge(u32),
    /// The payload is self-inconsistent (inner counts disagree with the
    /// payload length, or an enum byte is out of range).
    BadPayload(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Incomplete { needed } => {
                write!(f, "incomplete frame: need {needed} bytes total")
            }
            WireError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownType(t) => write!(f, "unknown message type {t}"),
            WireError::PayloadTooLarge(n) => write!(f, "payload of {n} bytes exceeds cap"),
            WireError::BadPayload(why) => write!(f, "bad payload: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Little-endian primitives.

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a frame header with a zeroed length field; returns the offset
/// to hand [`end_frame`].
fn begin_frame(out: &mut Vec<u8>, msg_type: u8) -> usize {
    let header_at = out.len();
    put_u32(out, MAGIC);
    out.push(VERSION);
    out.push(msg_type);
    put_u16(out, 0); // flags
    put_u32(out, 0); // payload length, patched by end_frame
    header_at
}

/// Patches the payload length of the frame started at `header_at`.
fn end_frame(out: &mut [u8], header_at: usize) {
    let payload_len = (out.len() - header_at - HEADER_LEN) as u32;
    out[header_at + 8..header_at + 12].copy_from_slice(&payload_len.to_le_bytes());
}

/// Encoded sizes of the repeated records a count field announces: an
/// `UpdateBatch` update header, one of its targets, and a `WorldUpdate`
/// track.
const UPDATE_LEN: usize = 20;
const TARGET_LEN: usize = 64;
const TRACK_LEN: usize = 88;

/// Cursor over a payload; every read checks bounds so truncated inner
/// structure surfaces as `BadPayload`, never a panic.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::BadPayload(
                "payload shorter than its contents claim",
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("sized")))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("sized")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("sized")))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("sized")))
    }

    /// How many records of `record_len` bytes to reserve for a count read
    /// off the wire: at most `claimed`, and no more than the unread
    /// payload can hold. An untrusted count must not size an allocation
    /// by itself.
    fn capacity_for(&self, claimed: u16, record_len: usize) -> usize {
        (claimed as usize).min((self.buf.len() - self.pos) / record_len)
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::BadPayload(
                "trailing bytes after payload contents",
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Encode.

/// Encodes `msg` as one wire frame appended to `out`.
pub fn encode_into(msg: &Message, out: &mut Vec<u8>) {
    match msg {
        Message::UpdateBatch(u) => {
            return encode_update_batch_into(u.sensor_id, u.seq, &u.updates, out)
        }
        Message::Reject(r) => return encode_reject_into(r.sensor_id, r.code, out),
        Message::WorldUpdate(w) => {
            return encode_world_update_into(w.room_id, w.seq, &w.frame, out)
        }
        Message::Event(e) => return encode_event_into(e.room_id, &e.event, out),
        _ => {}
    }
    let header_at = begin_frame(out, msg.msg_type());
    match msg {
        Message::Hello(h) => {
            put_u32(out, h.sensor_id);
            out.push(h.kind.to_u8());
            out.push(h.n_rx);
            put_u16(out, h.quantized as u16); // flags, bit 0
            put_u32(out, h.samples_per_sweep);
            put_u32(out, h.sweeps_per_frame);
        }
        Message::SweepBatchQ(b) => {
            put_u32(out, b.sensor_id);
            put_u64(out, b.seq);
            put_u16(out, b.n_sweeps);
            put_u16(out, b.n_rx);
            put_u32(out, b.samples_per_sweep);
            put_f64(out, b.scale);
            out.reserve(b.data.len() * 2);
            for &q in &b.data {
                out.extend_from_slice(&q.to_le_bytes());
            }
        }
        Message::Teardown(t) => put_u32(out, t.sensor_id),
        Message::StatsQuery(q) => put_u32(out, q.flags),
        Message::SubscribeV3(s) => {
            put_u32(out, s.room_id);
            put_u64(out, s.sub_id);
            put_u16(out, (s.world_updates as u16) | ((s.events as u16) << 1));
            put_u16(out, 0);
            put_f64(out, s.max_update_hz);
            put_u16(out, s.program.ops.len() as u16);
            for op in &s.program.ops {
                let (code, a, b, f) = op.to_wire();
                out.push(code);
                put_u32(out, a);
                put_u32(out, b);
                put_f64(out, f);
            }
        }
        Message::SubscribeAck(a) => {
            put_u32(out, a.room_id);
            put_u16(out, a.status);
            put_u16(out, 0);
            put_u64(out, a.sub_id);
        }
        Message::SubscriptionStats(s) => {
            put_u32(out, s.room_id);
            put_u32(out, 0);
            put_u64(out, s.sub_id);
            put_u64(out, s.evaluated);
            put_u64(out, s.matched);
            put_u64(out, s.shed);
            put_u64(out, s.rate_limited);
        }
        Message::Unsubscribe(u) => {
            put_u32(out, u.room_id);
            put_u64(out, u.sub_id);
        }
        Message::StatsReport(r) => {
            put_u32(out, r.samples.len() as u32);
            for s in &r.samples {
                put_stats_sample(out, &s.subsystem, &s.name, s.label, &s.value);
            }
        }
        Message::UpdateBatch(_)
        | Message::Reject(_)
        | Message::WorldUpdate(_)
        | Message::Event(_) => unreachable!("handled above"),
    }
    end_frame(out, header_at);
}

/// `Label` → `(kind byte, id)` for the wire.
fn label_to_wire(label: witrack_obs::Label) -> (u8, u32) {
    match label {
        witrack_obs::Label::Global => (0, 0),
        witrack_obs::Label::Sensor(id) => (1, id),
        witrack_obs::Label::Room(id) => (2, id),
        witrack_obs::Label::Shard(id) => (3, id),
    }
}

/// Writes one length-prefixed metric name part (≤ 255 bytes — registry
/// names are short static identifiers).
fn put_stats_str(out: &mut Vec<u8>, s: &str) {
    let len = u8::try_from(s.len()).expect("metric name part exceeds 255 bytes");
    out.push(len);
    out.extend_from_slice(s.as_bytes());
}

/// Writes one [`StatsSample`]-shaped record.
fn put_stats_sample(
    out: &mut Vec<u8>,
    subsystem: &str,
    name: &str,
    label: witrack_obs::Label,
    value: &StatsValue,
) {
    put_stats_str(out, subsystem);
    put_stats_str(out, name);
    let (kind, id) = label_to_wire(label);
    out.push(kind);
    put_u32(out, id);
    match value {
        StatsValue::Counter(v) => {
            out.push(1);
            put_u64(out, *v);
        }
        StatsValue::Gauge(v) => {
            out.push(2);
            put_u64(out, *v as u64);
        }
        StatsValue::Histo(h) => {
            out.push(3);
            for v in [h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99] {
                put_u64(out, v);
            }
        }
    }
}

/// Encodes a `StatsReport` frame straight from registry snapshot
/// samples, appended to `out` — the server path, which summarizes
/// histograms on the fly instead of building an owned [`StatsReport`].
pub fn encode_stats_report_into(samples: &[witrack_obs::MetricSample], out: &mut Vec<u8>) {
    let header_at = begin_frame(out, 11);
    put_u32(out, samples.len() as u32);
    for s in samples {
        let value = match &s.value {
            witrack_obs::MetricValue::Counter(v) => StatsValue::Counter(*v),
            witrack_obs::MetricValue::Gauge(v) => StatsValue::Gauge(*v),
            witrack_obs::MetricValue::Histo(h) => StatsValue::Histo(HistoWire::from_snapshot(h)),
        };
        put_stats_sample(out, s.key.subsystem, s.key.name, s.key.label, &value);
    }
    end_frame(out, header_at);
}

/// Encodes a `WorldUpdate` frame straight from a fused [`WorldFrame`],
/// appended to `out` — the world hub's hot path (the frame's `events`
/// travel separately; see [`encode_event_into`]).
pub fn encode_world_update_into(room_id: u32, seq: u64, frame: &WorldFrame, out: &mut Vec<u8>) {
    let header_at = begin_frame(out, 8);
    put_u32(out, room_id);
    put_u64(out, seq);
    put_u64(out, frame.epoch);
    put_f64(out, frame.time_s);
    put_u16(out, frame.tracks.len() as u16);
    put_u16(out, 0);
    for t in &frame.tracks {
        put_u64(out, t.id.0);
        for v in [t.position, t.velocity, t.pos_var] {
            put_f64(out, v.x);
            put_f64(out, v.y);
            put_f64(out, v.z);
        }
        out.push(t.coasting as u8);
        out.push(t.contributors);
        put_u16(out, 0);
        put_u32(out, t.primary_sensor.unwrap_or(u32::MAX));
    }
    end_frame(out, header_at);
}

/// Encodes an `Event` frame appended to `out`. Every variant maps onto
/// one fixed generic record (unused fields zeroed), so new event kinds
/// never change the frame shape.
pub fn encode_event_into(room_id: u32, event: &WorldEvent, out: &mut Vec<u8>) {
    let header_at = begin_frame(out, 9);
    let (kind, track, zone, sensor_a, sensor_b, time_s, vec, aux, aux2) = match *event {
        WorldEvent::TrackBorn {
            track,
            time_s,
            position,
        } => (1u16, Some(track), 0, 0, 0, time_s, position, 0.0, 0.0),
        WorldEvent::TrackLost {
            track,
            time_s,
            position,
        } => (2, Some(track), 0, 0, 0, time_s, position, 0.0, 0.0),
        WorldEvent::Fall {
            track,
            time_s,
            from_z,
            to_z,
        } => (3, Some(track), 0, 0, 0, time_s, Vec3::ZERO, from_z, to_z),
        WorldEvent::ZoneEntered {
            track,
            zone,
            time_s,
        } => (4, Some(track), zone, 0, 0, time_s, Vec3::ZERO, 0.0, 0.0),
        WorldEvent::ZoneExited {
            track,
            zone,
            time_s,
        } => (5, Some(track), zone, 0, 0, time_s, Vec3::ZERO, 0.0, 0.0),
        WorldEvent::OccupancyChanged {
            zone,
            count,
            time_s,
        } => (6, None, zone, 0, 0, time_s, Vec3::ZERO, count as f64, 0.0),
        WorldEvent::Handoff {
            track,
            from_sensor,
            to_sensor,
            time_s,
        } => (
            7,
            Some(track),
            0,
            from_sensor,
            to_sensor,
            time_s,
            Vec3::ZERO,
            0.0,
            0.0,
        ),
        WorldEvent::Pointing {
            track,
            sensor,
            time_s,
            direction,
        } => (8, track, 0, sensor, 0, time_s, direction, 0.0, 0.0),
    };
    put_u32(out, room_id);
    put_u16(out, kind);
    put_u16(out, 0);
    put_u64(out, track.map(|t| t.0).unwrap_or(u64::MAX));
    put_u32(out, zone);
    put_u32(out, sensor_a);
    put_u32(out, sensor_b);
    put_u32(out, 0);
    put_f64(out, time_s);
    put_f64(out, vec.x);
    put_f64(out, vec.y);
    put_f64(out, vec.z);
    put_f64(out, aux);
    put_f64(out, aux2);
    end_frame(out, header_at);
}

/// Encodes an `UpdateBatch` frame straight from a report slice, appended
/// to `out` — the outbox hot path, which reuses both the shard's report
/// scratch and a pooled byte buffer instead of building an owned
/// [`UpdateBatch`] per event.
pub fn encode_update_batch_into(
    sensor_id: u32,
    seq: u64,
    updates: &[FrameReport],
    out: &mut Vec<u8>,
) {
    let header_at = begin_frame(out, 4);
    put_u32(out, sensor_id);
    put_u64(out, seq);
    put_u16(out, updates.len() as u16);
    put_u16(out, 0);
    for r in updates {
        put_u64(out, r.frame_index);
        put_f64(out, r.time_s);
        put_u16(out, r.targets.len() as u16);
        put_u16(out, 0);
        for t in &r.targets {
            put_u64(out, t.id.unwrap_or(u64::MAX));
            put_f64(out, t.position.x);
            put_f64(out, t.position.y);
            put_f64(out, t.position.z);
            let v = t.velocity.unwrap_or(Vec3::ZERO);
            put_f64(out, v.x);
            put_f64(out, v.y);
            put_f64(out, v.z);
            let flags = (t.held as u8) | ((t.velocity.is_some() as u8) << 1);
            out.push(flags);
            out.extend_from_slice(&[0u8; 7]);
        }
    }
    end_frame(out, header_at);
}

/// Encodes a `Reject` frame appended to `out`.
pub fn encode_reject_into(sensor_id: u32, code: RejectCode, out: &mut Vec<u8>) {
    let header_at = begin_frame(out, 5);
    put_u32(out, sensor_id);
    put_u16(out, code.to_u16());
    put_u16(out, 0);
    end_frame(out, header_at);
}

/// Encodes `msg` as one freshly-allocated wire frame.
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(msg, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Decode.

/// Parses the header at the start of `buf`, returning `(msg_type, total
/// frame length)`.
pub fn decode_header(buf: &[u8]) -> Result<(u8, usize), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Incomplete { needed: HEADER_LEN });
    }
    let magic = u32::from_le_bytes(buf[0..4].try_into().expect("sized"));
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = buf[4];
    if version != VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let msg_type = buf[5];
    if !matches!(msg_type, 1 | 3..=6 | 8..=15) {
        return Err(WireError::UnknownType(msg_type));
    }
    let payload_len = u32::from_le_bytes(buf[8..12].try_into().expect("sized"));
    if payload_len as usize > MAX_PAYLOAD {
        return Err(WireError::PayloadTooLarge(payload_len));
    }
    Ok((msg_type, HEADER_LEN + payload_len as usize))
}

/// Reads one length-prefixed metric name part.
fn read_stats_str(r: &mut Reader<'_>) -> Result<String, WireError> {
    let len = r.u8()? as usize;
    let bytes = r.take(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadPayload("metric name not UTF-8"))
}

/// Reads a `SweepBatchQ` payload: appends its i16 steps to `out` and
/// returns the shape and scale. Samples are the payload's last field, so
/// the payload is checked exhausted before anything is appended: on any
/// error `out` is left as it was.
fn read_sweeps_q(r: &mut Reader<'_>, out: &mut Vec<i16>) -> Result<(SweepShape, f64), WireError> {
    let shape = SweepShape {
        sensor_id: r.u32()?,
        seq: r.u64()?,
        n_sweeps: r.u16()?,
        n_rx: r.u16()?,
        samples_per_sweep: r.u32()?,
    };
    let scale = r.f64()?;
    // i16 steps are always finite, so only the scale can smuggle in a
    // NaN/Inf (and with it, poison every sample of the frame).
    if !scale.is_finite() {
        return Err(WireError::BadPayload("non-finite sample"));
    }
    let bytes = r.take(
        shape
            .sample_count()
            .checked_mul(2)
            .ok_or(WireError::BadPayload("overflow"))?,
    )?;
    r.done()?;
    out.reserve(shape.sample_count());
    out.extend(
        bytes
            .chunks_exact(2)
            .map(|c| i16::from_le_bytes(c.try_into().expect("sized"))),
    );
    Ok((shape, scale))
}

/// What [`decode_into_q`] yielded.
#[derive(Debug, PartialEq)]
pub enum DecodedMsgQ {
    /// A sweep batch, its i16 steps appended to the caller's buffer, with
    /// its dequantization scale.
    SweepsQ(SweepShape, f64),
    /// Any other message, decoded owned.
    Other(Message),
}

/// [`decode`], except a sweep batch's i16 steps are appended to
/// `samples_q` (cleared first, capacity reused) instead of a fresh
/// allocation, and its scale rides along in [`DecodedMsgQ::SweepsQ`].
/// This is the ingest hot path: with a recycled buffer, decoding a sweep
/// frame touches the heap zero times at steady state, and the samples
/// reach the pipeline's fixed-point front half without ever being
/// dequantized in bulk. Non-sweep messages decode owned, exactly as
/// [`decode`] would; they, and every error, leave `samples_q` empty.
///
/// `samples` is cleared and never filled: the wire has no f64 sample
/// form. The parameter stays so existing callers, the fleet benchmark
/// among them, keep their signature.
pub fn decode_into_q(
    buf: &[u8],
    samples: &mut Vec<f64>,
    samples_q: &mut Vec<i16>,
) -> Result<(DecodedMsgQ, usize), WireError> {
    samples.clear();
    samples_q.clear();
    let (msg_type, frame_len) = decode_header(buf)?;
    if msg_type != 6 {
        return decode(buf).map(|(msg, used)| (DecodedMsgQ::Other(msg), used));
    }
    if buf.len() < frame_len {
        return Err(WireError::Incomplete { needed: frame_len });
    }
    let (shape, scale) = read_sweeps_q(&mut Reader::new(&buf[HEADER_LEN..frame_len]), samples_q)?;
    Ok((DecodedMsgQ::SweepsQ(shape, scale), frame_len))
}

/// Decodes one message from the start of `buf`, returning it and the number
/// of bytes consumed. [`WireError::Incomplete`] means read more bytes.
pub fn decode(buf: &[u8]) -> Result<(Message, usize), WireError> {
    let (msg_type, frame_len) = decode_header(buf)?;
    if buf.len() < frame_len {
        return Err(WireError::Incomplete { needed: frame_len });
    }
    let mut r = Reader::new(&buf[HEADER_LEN..frame_len]);
    let msg = match msg_type {
        1 => {
            let sensor_id = r.u32()?;
            let kind = PipelineKind::from_u8(r.u8()?)?;
            let n_rx = r.u8()?;
            let flags = r.u16()?;
            let samples_per_sweep = r.u32()?;
            let sweeps_per_frame = r.u32()?;
            Message::Hello(Hello {
                sensor_id,
                kind,
                n_rx,
                samples_per_sweep,
                sweeps_per_frame,
                quantized: flags & 0b1 != 0,
            })
        }
        6 => {
            let mut data = Vec::new();
            let (shape, scale) = read_sweeps_q(&mut r, &mut data)?;
            Message::SweepBatchQ(SweepBatchQ {
                sensor_id: shape.sensor_id,
                seq: shape.seq,
                n_sweeps: shape.n_sweeps,
                n_rx: shape.n_rx,
                samples_per_sweep: shape.samples_per_sweep,
                scale,
                data,
            })
        }
        3 => Message::Teardown(Teardown {
            sensor_id: r.u32()?,
        }),
        4 => {
            let sensor_id = r.u32()?;
            let seq = r.u64()?;
            let n_updates = r.u16()?;
            let _reserved = r.u16()?;
            let mut updates = Vec::with_capacity(r.capacity_for(n_updates, UPDATE_LEN));
            for _ in 0..n_updates {
                let frame_index = r.u64()?;
                let time_s = r.f64()?;
                let n_targets = r.u16()?;
                let _reserved = r.u16()?;
                let mut targets = Vec::with_capacity(r.capacity_for(n_targets, TARGET_LEN));
                for _ in 0..n_targets {
                    let id = r.u64()?;
                    let position = Vec3::new(r.f64()?, r.f64()?, r.f64()?);
                    let velocity = Vec3::new(r.f64()?, r.f64()?, r.f64()?);
                    let flags = r.u8()?;
                    r.take(7)?; // pad
                    targets.push(TargetReport {
                        id: (id != u64::MAX).then_some(id),
                        position,
                        velocity: (flags & 0b10 != 0).then_some(velocity),
                        held: flags & 0b1 != 0,
                        // The per-sensor update record does not carry
                        // uncertainty; world-level tracks do (WorldUpdate).
                        pos_var: None,
                        innovation: None,
                    });
                }
                updates.push(FrameReport {
                    frame_index,
                    time_s,
                    targets,
                });
            }
            Message::UpdateBatch(UpdateBatch {
                sensor_id,
                seq,
                updates,
            })
        }
        5 => {
            let sensor_id = r.u32()?;
            let code = RejectCode::from_u16(r.u16()?)?;
            let _reserved = r.u16()?;
            Message::Reject(Reject { sensor_id, code })
        }
        8 => {
            let room_id = r.u32()?;
            let seq = r.u64()?;
            let epoch = r.u64()?;
            let time_s = r.f64()?;
            let n_tracks = r.u16()?;
            let _reserved = r.u16()?;
            let mut tracks = Vec::with_capacity(r.capacity_for(n_tracks, TRACK_LEN));
            for _ in 0..n_tracks {
                let id = WorldTrackId(r.u64()?);
                let mut vecs = [Vec3::ZERO; 3];
                for v in &mut vecs {
                    *v = Vec3::new(r.f64()?, r.f64()?, r.f64()?);
                }
                let coasting = r.u8()? & 0b1 != 0;
                let contributors = r.u8()?;
                let _pad = r.u16()?;
                let primary = r.u32()?;
                tracks.push(WorldTrackSnapshot {
                    id,
                    position: vecs[0],
                    velocity: vecs[1],
                    pos_var: vecs[2],
                    coasting,
                    contributors,
                    primary_sensor: (primary != u32::MAX).then_some(primary),
                });
            }
            Message::WorldUpdate(WorldUpdateMsg {
                room_id,
                seq,
                frame: WorldFrame {
                    epoch,
                    time_s,
                    tracks,
                    events: Vec::new(),
                },
            })
        }
        9 => {
            let room_id = r.u32()?;
            let kind = r.u16()?;
            let _reserved = r.u16()?;
            let track_raw = r.u64()?;
            let track = (track_raw != u64::MAX).then_some(WorldTrackId(track_raw));
            let zone = r.u32()?;
            let sensor_a = r.u32()?;
            let sensor_b = r.u32()?;
            let _reserved2 = r.u32()?;
            let time_s = r.f64()?;
            let vec = Vec3::new(r.f64()?, r.f64()?, r.f64()?);
            let aux = r.f64()?;
            let aux2 = r.f64()?;
            let need_track = || track.ok_or(WireError::BadPayload("event requires a track id"));
            let event = match kind {
                1 => WorldEvent::TrackBorn {
                    track: need_track()?,
                    time_s,
                    position: vec,
                },
                2 => WorldEvent::TrackLost {
                    track: need_track()?,
                    time_s,
                    position: vec,
                },
                3 => WorldEvent::Fall {
                    track: need_track()?,
                    time_s,
                    from_z: aux,
                    to_z: aux2,
                },
                4 => WorldEvent::ZoneEntered {
                    track: need_track()?,
                    zone,
                    time_s,
                },
                5 => WorldEvent::ZoneExited {
                    track: need_track()?,
                    zone,
                    time_s,
                },
                6 => WorldEvent::OccupancyChanged {
                    zone,
                    count: aux as u32,
                    time_s,
                },
                7 => WorldEvent::Handoff {
                    track: need_track()?,
                    from_sensor: sensor_a,
                    to_sensor: sensor_b,
                    time_s,
                },
                8 => WorldEvent::Pointing {
                    track,
                    sensor: sensor_a,
                    time_s,
                    direction: vec,
                },
                _ => return Err(WireError::BadPayload("unknown event kind")),
            };
            Message::Event(EventMsg { room_id, event })
        }
        10 => Message::StatsQuery(StatsQuery { flags: r.u32()? }),
        11 => {
            let n_samples = r.u32()?;
            let mut samples = Vec::with_capacity((n_samples as usize).min(1024));
            for _ in 0..n_samples {
                let subsystem = read_stats_str(&mut r)?;
                let name = read_stats_str(&mut r)?;
                let label_kind = r.u8()?;
                let label_id = r.u32()?;
                let label = match label_kind {
                    0 => witrack_obs::Label::Global,
                    1 => witrack_obs::Label::Sensor(label_id),
                    2 => witrack_obs::Label::Room(label_id),
                    3 => witrack_obs::Label::Shard(label_id),
                    _ => return Err(WireError::BadPayload("unknown label kind")),
                };
                let value = match r.u8()? {
                    1 => StatsValue::Counter(r.u64()?),
                    2 => StatsValue::Gauge(r.u64()? as i64),
                    3 => StatsValue::Histo(HistoWire {
                        count: r.u64()?,
                        sum: r.u64()?,
                        min: r.u64()?,
                        max: r.u64()?,
                        p50: r.u64()?,
                        p90: r.u64()?,
                        p99: r.u64()?,
                    }),
                    _ => return Err(WireError::BadPayload("unknown stats value kind")),
                };
                samples.push(StatsSample {
                    subsystem,
                    name,
                    label,
                    value,
                });
            }
            Message::StatsReport(StatsReport { samples })
        }
        12 => {
            let room_id = r.u32()?;
            let sub_id = r.u64()?;
            let flags = r.u16()?;
            let _reserved = r.u16()?;
            let max_update_hz = r.f64()?;
            if !(max_update_hz.is_finite() && max_update_hz >= 0.0) {
                return Err(WireError::BadPayload("non-finite update rate cap"));
            }
            let n_ops = r.u16()? as usize;
            // The compile-time budget also bounds decode-time allocation:
            // a frame claiming more ops could never validate anyway.
            if n_ops > crate::program::MAX_PROGRAM_OPS {
                return Err(WireError::BadPayload("filter program exceeds op budget"));
            }
            let mut ops = Vec::with_capacity(n_ops);
            for _ in 0..n_ops {
                let code = r.u8()?;
                let a = r.u32()?;
                let b = r.u32()?;
                let f = r.f64()?;
                ops.push(
                    crate::program::Op::from_wire(code, a, b, f).map_err(WireError::BadPayload)?,
                );
            }
            Message::SubscribeV3(SubscribeV3 {
                room_id,
                sub_id,
                world_updates: flags & 0b1 != 0,
                events: flags & 0b10 != 0,
                max_update_hz,
                program: crate::program::FilterProgram { ops },
            })
        }
        13 => {
            let room_id = r.u32()?;
            let status = r.u16()?;
            let _reserved = r.u16()?;
            let sub_id = r.u64()?;
            Message::SubscribeAck(SubscribeAck {
                room_id,
                sub_id,
                status,
            })
        }
        14 => {
            let room_id = r.u32()?;
            let _reserved = r.u32()?;
            Message::SubscriptionStats(SubscriptionStats {
                room_id,
                sub_id: r.u64()?,
                evaluated: r.u64()?,
                matched: r.u64()?,
                shed: r.u64()?,
                rate_limited: r.u64()?,
            })
        }
        15 => Message::Unsubscribe(Unsubscribe {
            room_id: r.u32()?,
            sub_id: r.u64()?,
        }),
        t => return Err(WireError::UnknownType(t)),
    };
    r.done()?;
    Ok((msg, frame_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let frame = encode(&Message::Teardown(Teardown { sensor_id: 9 }));
        let (msg_type, len) = decode_header(&frame).unwrap();
        assert_eq!(msg_type, 3);
        assert_eq!(len, frame.len());
    }

    #[test]
    fn sweep_batch_layout_is_sweep_major() {
        let sweeps = vec![
            vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            vec![vec![5.0, 6.0], vec![7.0, 8.0]],
        ];
        let b = SweepBatch::from_sweeps(1, 0, &sweeps);
        assert_eq!(b.sweep_rx(0, 1), &[3.0, 4.0]);
        assert_eq!(b.sweep_rx(1, 0), &[5.0, 6.0]);
    }

    #[test]
    fn quantized_batch_round_trips_within_one_step() {
        let sweeps = vec![vec![vec![0.5, -1.25, 0.0], vec![3.0, -4.0, 2.25]]];
        let b = SweepBatch::from_sweeps(1, 9, &sweeps);
        let q = SweepBatchQ::quantize(&b);
        assert_eq!(q.shape(), b.shape());
        let back = q.dequantize();
        let half_step = q.scale * 0.5 + 1e-12;
        for (x, y) in b.data.iter().zip(&back.data) {
            assert!((x - y).abs() <= half_step, "{x} vs {y}");
        }
        // Peak maps to full scale, so the wire uses the whole i16 range.
        assert_eq!(q.data.iter().map(|q| q.abs()).max(), Some(i16::MAX));
    }

    #[test]
    fn all_zero_batch_quantizes_safely() {
        let b = SweepBatch::from_sweeps(1, 0, &[vec![vec![0.0; 4]; 2]]);
        let q = SweepBatchQ::quantize(&b);
        assert!(q.data.iter().all(|&v| v == 0));
        assert_eq!(q.dequantize().data, b.data);
    }

    #[test]
    fn decode_into_q_reuses_the_sample_buffer() {
        let b = SweepBatch::from_sweeps(3, 1, &[vec![vec![1.0, -2.0], vec![0.5, 4.0]]]);
        let q = SweepBatchQ::quantize(&b);
        let frame = encode(&Message::SweepBatchQ(q.clone()));
        let (mut samples, mut samples_q) = (vec![7.0], Vec::with_capacity(64));
        let ptr = samples_q.as_ptr();
        let (d, used) = decode_into_q(&frame, &mut samples, &mut samples_q).unwrap();
        assert_eq!(used, frame.len());
        assert_eq!(d, DecodedMsgQ::SweepsQ(q.shape(), q.scale));
        assert_eq!(samples_q, q.data);
        assert_eq!(samples_q.as_ptr(), ptr, "no reallocation");
        assert!(
            samples.is_empty(),
            "the f64 buffer is cleared, never filled"
        );
        // Non-sweep frames pass through owned and leave the buffer empty.
        let (d, _) = decode_into_q(
            &encode(&Message::Teardown(Teardown { sensor_id: 5 })),
            &mut samples,
            &mut samples_q,
        )
        .unwrap();
        assert_eq!(
            d,
            DecodedMsgQ::Other(Message::Teardown(Teardown { sensor_id: 5 }))
        );
        assert!(samples_q.is_empty());
    }

    #[test]
    fn non_finite_scale_is_rejected_at_decode() {
        // A NaN/Inf scale that framed perfectly is still a corrupt frame:
        // it must come back BadPayload, not ride into the DSP.
        let finite = SweepBatch::from_sweeps(1, 0, &[vec![vec![1.0, -2.0], vec![0.5, 4.0]]]);
        let mut q = SweepBatchQ::quantize(&finite);
        q.scale = f64::INFINITY;
        let frame = encode(&Message::SweepBatchQ(q));
        assert!(matches!(
            decode(&frame),
            Err(WireError::BadPayload("non-finite sample"))
        ));
        let mut samples_q = vec![7];
        assert!(matches!(
            decode_into_q(&frame, &mut Vec::new(), &mut samples_q),
            Err(WireError::BadPayload("non-finite sample"))
        ));
        assert!(
            samples_q.is_empty(),
            "a rejected frame must not leak samples"
        );
    }

    #[test]
    fn subscribe_v3_round_trips_with_its_program() {
        use crate::program::{EventKind, SubscriptionBuilder};
        let sub = SubscriptionBuilder::room(9)
            .id(41)
            .events(EventKind::Fall | EventKind::Handoff)
            .zone(3)
            .debounce(0.5)
            .rate_limit(2.0, 4)
            .max_update_hz(15.0)
            .build();
        let frame = encode(&Message::SubscribeV3(sub.clone()));
        let (back, used) = decode(&frame).unwrap();
        assert_eq!(used, frame.len());
        assert_eq!(back, Message::SubscribeV3(sub));
        // Match-all (empty program) survives too.
        let empty = SubscriptionBuilder::room(2).build();
        let frame = encode(&Message::SubscribeV3(empty.clone()));
        assert_eq!(
            decode(&frame).unwrap().0,
            Message::SubscribeV3(empty.clone())
        );
        // A frame claiming more ops than the budget is refused outright.
        let mut hostile = encode(&Message::SubscribeV3(empty));
        let n_ops_at = HEADER_LEN + 4 + 8 + 2 + 2 + 8;
        hostile[n_ops_at..n_ops_at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(decode(&hostile), Err(WireError::BadPayload(_))));
    }

    #[test]
    fn subscription_replies_round_trip() {
        let ack = Message::SubscribeAck(SubscribeAck {
            room_id: 1,
            sub_id: 77,
            status: 0,
        });
        assert_eq!(decode(&encode(&ack)).unwrap().0, ack);
        let stats = Message::SubscriptionStats(SubscriptionStats {
            room_id: 1,
            sub_id: 77,
            evaluated: 1000,
            matched: 12,
            shed: 3,
            rate_limited: 40,
        });
        assert_eq!(decode(&encode(&stats)).unwrap().0, stats);
        let unsub = Message::Unsubscribe(Unsubscribe {
            room_id: 1,
            sub_id: 77,
        });
        assert_eq!(decode(&encode(&unsub)).unwrap().0, unsub);
    }

    #[test]
    fn only_version_4_decodes_and_types_2_and_7_are_gone() {
        let mut frame = encode(&Message::Teardown(Teardown { sensor_id: 2 }));
        assert!(decode(&frame).is_ok());
        frame[4] = 3; // rewrite as a version-3 frame
        assert_eq!(decode(&frame), Err(WireError::UnsupportedVersion(3)));
        for retired in [2, 7] {
            let mut frame = encode(&Message::Teardown(Teardown { sensor_id: 2 }));
            frame[5] = retired;
            assert_eq!(decode(&frame), Err(WireError::UnknownType(retired)));
        }
    }
}
