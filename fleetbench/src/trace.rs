//! The traced run: the workload's recorded inputs replayed on one thread
//! through each layer's public call, with a span around every call.
//!
//! Every layer runs its own instance over the same frame sequence, so a
//! row's time is exactly that call's time on these inputs. Nested calls
//! (a `TofEstimator` owns a `RangeProfiler`; a `WiTrack` owns three
//! `TofEstimator`s and the solver) are separate rows whose inclusive
//! times the report subtracts to get each layer's self time.

use crate::plan::{fuse_config, registration, room_subscriptions, Plan};
use crate::stats::quantile;
use std::time::Instant;
use witrack_core::{FramePipeline, FrameReport, WiTrack};
use witrack_dsp::window::WindowKind;
use witrack_fmcw::{RangeProfiler, TofEstimator};
use witrack_fuse::{FusionEngine, WorldFrame};
use witrack_serve::factory::witrack_factory;
use witrack_serve::wire::{self, DecodedMsgQ, Hello, PipelineKind};
use witrack_serve::{CompiledProgram, EventCtx, ProgramState};

/// The timed layers, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Decode,
    Profile,
    Tof,
    Solve,
    CoreFrame,
    MttFrame,
    FusePush,
    ProgramEval,
    EncodeUpdate,
    EncodeWorld,
    EncodeEvent,
}

impl Layer {
    pub const ALL: [Layer; 11] = [
        Layer::Decode,
        Layer::Profile,
        Layer::Tof,
        Layer::Solve,
        Layer::CoreFrame,
        Layer::MttFrame,
        Layer::FusePush,
        Layer::ProgramEval,
        Layer::EncodeUpdate,
        Layer::EncodeWorld,
        Layer::EncodeEvent,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Decode => "serve.wire.decode",
            Layer::Profile => "fmcw.profile",
            Layer::Tof => "fmcw.tof",
            Layer::Solve => "core.solve",
            Layer::CoreFrame => "core.frame",
            Layer::MttFrame => "mtt.frame",
            Layer::FusePush => "fuse.push_report",
            Layer::ProgramEval => "serve.program.eval",
            Layer::EncodeUpdate => "serve.wire.encode_update",
            Layer::EncodeWorld => "serve.wire.encode_world",
            Layer::EncodeEvent => "serve.wire.encode_event",
        }
    }
}

/// Spans of one layer: per-call durations and the calls they cover
/// (a program-eval span covers every subscription evaluated for one
/// event, and records the per-call mean).
#[derive(Debug, Default, Clone)]
pub struct Spans {
    pub calls: u64,
    pub total_ns: u64,
    pub per_call_ns: Vec<f64>,
}

impl Spans {
    fn record(&mut self, start: Instant, calls: u64) {
        let ns = start.elapsed().as_nanos() as u64;
        self.calls += calls;
        self.total_ns += ns;
        self.per_call_ns.push(ns as f64 / calls.max(1) as f64);
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        let mut v = self.per_call_ns.clone();
        quantile(&mut v, q) / 1e3
    }
}

/// The traced replay's result.
pub struct Trace {
    pub spans: Vec<Spans>,
    /// Sensor frames replayed.
    pub frames: u64,
    /// Wall time of the whole replay (s): the tracing cost of this run.
    pub elapsed_s: f64,
}

impl Trace {
    pub fn spans(&self, layer: Layer) -> &Spans {
        &self.spans[Layer::ALL
            .iter()
            .position(|l| *l == layer)
            .expect("listed layer")]
    }

    /// Inclusive time per replayed frame (µs).
    pub fn us_per_frame(&self, layer: Layer) -> f64 {
        self.spans(layer).total_ns as f64 / 1e3 / self.frames.max(1) as f64
    }
}

/// Per-sensor replay state: one instance of every layer.
struct SensorStack {
    sensor_id: u32,
    profilers: Vec<RangeProfiler>,
    tofs: Vec<TofEstimator>,
    solver: WiTrack,
    core: Box<dyn FramePipeline>,
    mtt: Box<dyn FramePipeline>,
    round_trips: Vec<Option<f64>>,
    seq: u64,
}

/// Per-room fusion and subscription state.
struct RoomStack {
    room_id: u32,
    fusion: FusionEngine,
    programs: Vec<(CompiledProgram, ProgramState)>,
    out_seq: u64,
}

fn hello(plan: &Plan, sensor_id: u32, kind: PipelineKind) -> Hello {
    witrack_serve::factory::hello_quantized_for(&plan.base, sensor_id, kind)
}

/// Replays every tape of `plan` once through every layer. Fleet tapes
/// become one-sensor rooms (with the same zone grid and subscription
/// mix as the fused rooms), so every layer is timed on every workload;
/// the report says which layers the served path of a workload uses.
pub fn replay(plan: &Plan) -> Trace {
    let base = plan.base;
    let factory = witrack_factory(base);
    let samples = base.sweep.samples_per_sweep();
    let n_rx = 3;
    let mut spans: Vec<Spans> = vec![Spans::default(); Layer::ALL.len()];
    let idx = |l: Layer| {
        Layer::ALL
            .iter()
            .position(|x| *x == l)
            .expect("listed layer")
    };
    let served_kind = plan.kind;
    let mut frames = 0u64;
    let (mut buf_f, mut buf_q) = (Vec::new(), Vec::new());
    let mut out = Vec::new();
    let started = Instant::now();
    for (r, tape) in plan.tapes.iter().enumerate() {
        let sensor_ids: Vec<u32> = (0..tape.sensors.len())
            .map(|v| (r * 2 + v) as u32)
            .collect();
        let mut stacks: Vec<SensorStack> = sensor_ids
            .iter()
            .map(|&id| SensorStack {
                sensor_id: id,
                profilers: (0..n_rx)
                    .map(|_| {
                        RangeProfiler::new(&base.sweep, WindowKind::Hann, base.max_round_trip_m)
                    })
                    .collect(),
                tofs: (0..n_rx)
                    .map(|_| {
                        TofEstimator::with_tuning(
                            base.sweep,
                            base.max_round_trip_m,
                            base.contour,
                            base.denoise,
                        )
                    })
                    .collect(),
                solver: WiTrack::new(base).expect("paper config builds"),
                core: factory(&hello(plan, id, PipelineKind::SingleTarget))
                    .expect("single-target pipeline builds"),
                mtt: factory(&hello(plan, id, PipelineKind::MultiTarget))
                    .expect("multi-target pipeline builds"),
                round_trips: vec![None; n_rx],
                seq: 0,
            })
            .collect();
        let mut room = RoomStack {
            room_id: r as u32,
            fusion: FusionEngine::new(
                fuse_config(&base, tape.area),
                registration(tape, &sensor_ids),
            ),
            programs: room_subscriptions(r as u32, plan.seed)
                .iter()
                .filter(|s| s.events)
                .map(|s| {
                    let p = s.program.compile().expect("generated programs are valid");
                    let st = p.new_state();
                    (p, st)
                })
                .collect(),
            out_seq: 0,
        };
        for j in 0..tape.sensors[0].frames.len() {
            for (v, st) in stacks.iter_mut().enumerate() {
                frames += 1;
                let bytes = &tape.sensors[v].frames[j];
                let t = Instant::now();
                let decoded = wire::decode_into_q(bytes, &mut buf_f, &mut buf_q);
                spans[idx(Layer::Decode)].record(t, 1);
                let (shape, scale) = match decoded {
                    Ok((DecodedMsgQ::SweepsQ(shape, scale), _)) => (shape, scale),
                    other => panic!("tapes hold quantized sweep batches, got {other:?}"),
                };
                let interval = shape.samples_per_interval();
                let mut core_report: Option<FrameReport> = None;
                let mut mtt_report: Option<FrameReport> = None;
                let mut tof_done = false;
                for s in 0..shape.n_sweeps as usize {
                    let sweep = &buf_q[s * interval..(s + 1) * interval];
                    for k in 0..n_rx {
                        let rx = &sweep[k * samples..(k + 1) * samples];
                        let t = Instant::now();
                        let _ = std::hint::black_box(st.profilers[k].push_sweep_q(rx, scale));
                        spans[idx(Layer::Profile)].record(t, 1);
                        let t = Instant::now();
                        let frame = st.tofs[k].push_sweep_q(rx, scale);
                        spans[idx(Layer::Tof)].record(t, 1);
                        if let Some(f) = frame {
                            st.round_trips[k] = f.round_trip_m();
                            tof_done = true;
                        }
                    }
                    let t = Instant::now();
                    let r = st.core.process_sweeps_flat_q(sweep, samples, scale);
                    spans[idx(Layer::CoreFrame)].record(t, 1);
                    core_report = core_report.or(r);
                    let t = Instant::now();
                    let r = st.mtt.process_sweeps_flat_q(sweep, samples, scale);
                    spans[idx(Layer::MttFrame)].record(t, 1);
                    mtt_report = mtt_report.or(r);
                }
                if tof_done {
                    let t = Instant::now();
                    std::hint::black_box(st.solver.solve(&st.round_trips));
                    spans[idx(Layer::Solve)].record(t, 1);
                }
                let served = match served_kind {
                    PipelineKind::SingleTarget => core_report,
                    PipelineKind::MultiTarget => mtt_report,
                };
                let Some(report) = served else { continue };
                out.clear();
                let t = Instant::now();
                wire::encode_update_batch_into(
                    st.sensor_id,
                    st.seq,
                    std::slice::from_ref(&report),
                    &mut out,
                );
                spans[idx(Layer::EncodeUpdate)].record(t, 1);
                st.seq += 1;
                let t = Instant::now();
                let world = room.fusion.push_report(st.sensor_id, &report);
                spans[idx(Layer::FusePush)].record(t, 1);
                for frame in &world {
                    deliver(&mut room, frame, &mut spans, &idx, &mut out);
                }
            }
        }
    }
    Trace {
        spans,
        frames,
        elapsed_s: started.elapsed().as_secs_f64(),
    }
}

/// The hub's per-frame work for one fused epoch: program evaluation per
/// event (behind each program's kind pre-screen), one world-update
/// encode, and one encode per matched event.
fn deliver(
    room: &mut RoomStack,
    frame: &WorldFrame,
    spans: &mut [Spans],
    idx: &impl Fn(Layer) -> usize,
    out: &mut Vec<u8>,
) {
    out.clear();
    let t = Instant::now();
    wire::encode_world_update_into(room.room_id, room.out_seq, frame, out);
    spans[idx(Layer::EncodeWorld)].record(t, 1);
    room.out_seq += 1;
    for event in &frame.events {
        let ctx = EventCtx::from_event(event);
        let mut evaluated = 0u64;
        let mut matched = false;
        let t = Instant::now();
        for (program, state) in &mut room.programs {
            if program.kind_mask() & ctx.kind_bit() == 0 {
                continue;
            }
            evaluated += 1;
            matched |= program.eval(state, &ctx).matched;
        }
        if evaluated > 0 {
            spans[idx(Layer::ProgramEval)].record(t, evaluated);
        }
        if matched {
            let t = Instant::now();
            wire::encode_event_into(room.room_id, event, out);
            spans[idx(Layer::EncodeEvent)].record(t, 1);
        }
    }
}
