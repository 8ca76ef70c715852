//! witrack-serve: a sharded multi-sensor streaming engine for the WiTrack
//! pipelines.
//!
//! One tracking pipeline runs ~50× faster than its 80 frames/s real-time
//! budget (see `BENCH_throughput.json`), so a single host can multiplex
//! dozens of sensor deployments. This crate is the serving layer that
//! makes that real:
//!
//! * [`wire`] — the length-prefixed binary protocol sensors speak:
//!   `Hello` (session open + stream shape), `SweepBatchQ`
//!   (sequence-numbered baseband as i16 steps plus one f64 scale,
//!   fidelity-neutral for ≤16-bit front ends), `Teardown`, and the
//!   server's `UpdateBatch`/`Reject`.
//! * [`pool`] — recycled buffers ([`BufPool`]/[`PooledBuf`]) carrying
//!   decoded samples from socket to shard and encoded updates from shard
//!   to socket: the steady-state ingest path performs zero heap
//!   allocation per message.
//! * [`transport`] — how frames move: an in-process bounded-queue pair
//!   (tests and benches run the full wire path with no sockets) or a
//!   loopback `TcpStream`. Both decode sweep samples straight into
//!   pooled buffers (`recv_msg_pooled`), still quantized.
//! * [`engine`] — the [`ShardedEngine`]: each sensor id is pinned to one
//!   worker shard owning its [`FramePipeline`](witrack_core::FramePipeline)
//!   instances (and its fused rooms, see [`hub`]), with bounded-queue
//!   backpressure, drop/lag metrics, and sequence-gap accounting.
//! * [`server`] / [`client`] — the connection layer over any transport,
//!   multiplexing many sensors per connection, and the sensor-side client
//!   (with a reconnecting variant surviving transport loss).
//! * [`program`] — programmable subscription filters: a
//!   compiled predicate DSL (kind/zone/track matchers, debounce,
//!   rate-limit, occupancy-threshold combinators) the world hub
//!   evaluates *before* encode/fan-out, plus the
//!   [`SubscriptionBuilder`] fluent client API.
//! * [`fault`] — seeded chaos injection ([`FaultyTransport`]): drop,
//!   duplicate, reorder, corrupt, stall, and burst faults over any
//!   transport, for the degradation tests and the `t_chaos` matrix.
//! * [`factory`] — stock pipeline construction from a `Hello` (single- or
//!   multi-target per sensor, one shared base configuration).
//! * [`metrics`] — relaxed-atomic counters and their snapshot.
//!
//! ```
//! use witrack_serve::engine::ShardedEngine;
//! use witrack_serve::factory::{hello_for, witrack_factory};
//! use witrack_serve::wire::{self, Message, PipelineKind, SweepBatchQ};
//! use witrack_core::WiTrackConfig;
//! use witrack_fmcw::SweepConfig;
//!
//! // A reduced sweep keeps this doc test fast.
//! let sweep = SweepConfig {
//!     start_freq_hz: 5.56e8,
//!     bandwidth_hz: 1.69e8,
//!     sweep_duration_s: 1e-3,
//!     sample_rate_hz: 100e3,
//!     sweeps_per_frame: 5,
//!     transmit_power_w: 1e-3,
//! };
//! let base = WiTrackConfig { sweep, ..WiTrackConfig::witrack_default() };
//! let engine = ShardedEngine::builder(witrack_factory(base)).start();
//! let handle = engine.handle();
//! // An in-process connection: replies arrive as encoded wire frames in
//! // its outbox, exactly as a socket client would read them.
//! let (conn, outbox) = handle.open_connection();
//! let hello = hello_for(&base, 7, PipelineKind::SingleTarget);
//! handle.submit(Message::Hello(hello), &conn).unwrap();
//! // One frame of silence for sensor 7: 5 sweeps × 3 antennas.
//! let sweeps = vec![vec![vec![0.0; sweep.samples_per_sweep()]; 3]; 5];
//! let batch = SweepBatchQ::from_sweeps(7, 0, &sweeps);
//! handle.submit(Message::SweepBatchQ(batch), &conn).unwrap();
//! let frame = outbox.recv().unwrap();
//! match wire::decode(&frame).unwrap().0 {
//!     Message::UpdateBatch(u) => {
//!         assert_eq!(u.sensor_id, 7);
//!         assert_eq!(u.updates.len(), 1); // one frame report
//!     }
//!     other => panic!("expected updates, got {other:?}"),
//! }
//! engine.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod conn;
pub mod engine;
pub mod factory;
pub mod fault;
pub mod hub;
pub mod metrics;
pub mod pool;
pub mod program;
pub mod server;
pub mod transport;
pub mod wire;

pub use client::{BackoffConfig, ClientStats, ReconnectingClient, SensorClient};
pub use engine::{
    ConnSink, EngineBuilder, EngineConfig, EngineHandle, OverloadPolicy, PipelineFactory,
    ShardedEngine, SubmitError, Submitted,
};
pub use factory::{hello_for, hello_quantized_for, witrack_factory};
pub use fault::{
    FaultCounters, FaultPlan, FaultPlanBuilder, FaultPlanHandle, FaultStats, FaultyTransport,
    FaultyTx,
};
pub use hub::{RoomSpec, WorldConfig};
pub use metrics::{EngineMetrics, MetricsSnapshot};
pub use pool::{BufPool, PoolStats, PooledBatch, PooledBuf};
pub use program::{
    CompiledProgram, EvalResult, EventCtx, EventKind, EventKinds, FilterProgram, Op, ProgramError,
    ProgramState, SubscriptionBuilder,
};
pub use server::{Server, ServerBuilder, TcpServer};
pub use transport::{
    in_proc_pair, recv_error_is_frame_scoped, BoundedTx, CorruptFrameError, InProcTransport, RxMsg,
    TcpTransport, Transport, WireFrame,
};
pub use wire::{
    EventMsg, Hello, HistoWire, Message, PipelineKind, Reject, RejectCode, StatsQuery, StatsReport,
    StatsSample, StatsValue, SubscribeAck, SubscribeV3, SubscriptionStats, SweepBatch, SweepBatchQ,
    SweepShape, Teardown, Unsubscribe, UpdateBatch, WireError, WorldUpdateMsg,
};
