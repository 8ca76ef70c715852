//! From a served run to numbers: latency samples per window, accuracy
//! against simulator truth, CPU per frame, and the per-layer rows.

use crate::plan::{Plan, PERIOD_NS};
use crate::served::{Inbox, Progress, Run};
use crate::stats::{median, quantile, Metrics};
use crate::trace::{Layer, Trace};
use witrack_serve::wire::PipelineKind;

/// The paper's frame budget: a location every 12.5 ms (§7).
pub const UPDATE_LIMIT_MS: f64 = 12.5;
/// Frames each stream needs before its accuracy is scored (pipeline
/// baselines, denoiser seeding, track confirmation): one second.
pub const SETTLE_FRAMES: u64 = 80;
/// A multi-target truth point counts as tracked when a target lies this
/// close (as in `t_chaos`).
pub const TRACK_GATE_M: f64 = 1.0;
/// Which quantile across windows the latency figures report.
const REPORT_ACROSS: f64 = 0.25;

/// A served run (finished or in progress) seen through its plan.
pub struct View<'a> {
    pub plan: &'a Plan,
    pub inbox: &'a Inbox,
    pub t0_ns: u64,
    pub sent: &'a [u64],
    pub start_period: &'a [u64],
    pub lags: &'a [(u64, u64)],
    pub cpu: &'a [(u64, u64)],
}

impl<'a> View<'a> {
    pub fn of_run(plan: &'a Plan, run: &'a Run) -> View<'a> {
        View {
            plan,
            inbox: &run.inbox,
            t0_ns: run.t0_ns,
            sent: &run.sent,
            start_period: &run.start_period,
            lags: &run.lags,
            cpu: &run.cpu,
        }
    }

    pub fn of_progress(plan: &'a Plan, p: &'a Progress<'_>, inbox: &'a Inbox) -> View<'a> {
        View {
            plan,
            inbox,
            t0_ns: p.t0_ns,
            sent: p.sent,
            start_period: p.start_period,
            lags: p.lags,
            cpu: &[],
        }
    }

    /// Every offered frame `(sensor, k, due ns after t0)`.
    fn offered(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        self.plan
            .sensors
            .iter()
            .enumerate()
            .flat_map(move |(i, s)| {
                let start = self.start_period[i];
                let sent = if start == u64::MAX { 0 } else { self.sent[i] };
                (0..sent).map(move |k| (i, k, (start + k) * PERIOD_NS + s.phase_ns))
            })
    }

    /// Capture→`UpdateBatch` latency (ms) of every frame due in
    /// `[w0, w1)` ns after t0, tagged with its due time. A frame that
    /// never got its update is a failure: latency `+∞`.
    pub fn update_latencies(&self, w0: u64, w1: u64, sensor: Option<usize>) -> Vec<(u64, f64)> {
        let inbox = self.inbox;
        self.offered()
            .filter(|&(i, _, due)| due >= w0 && due < w1 && sensor.is_none_or(|s| s == i))
            .map(|(i, k, due)| {
                let capture = self.t0_ns + due;
                let lat = inbox
                    .update(self.plan.sensors[i].id, k)
                    .map_or(f64::INFINITY, |d| (d.recv_ns as f64 - capture as f64) / 1e6);
                (due, lat)
            })
            .collect()
    }

    /// Capture→`WorldUpdate` latency (ms) of every expected epoch whose
    /// last contributing frame was due in `[w0, w1)`. Epoch `e` fuses
    /// frame `e - 1` of every sensor in the room, so its capture time is
    /// the latest of those frames' due times.
    pub fn world_latencies(&self, w0: u64, w1: u64) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        for room in &self.plan.rooms {
            let epochs = room
                .sensors
                .iter()
                .map(|&s| self.sent[s as usize])
                .min()
                .unwrap_or(0);
            for e in 1..=epochs {
                let due = room
                    .sensors
                    .iter()
                    .map(|&s| {
                        let sp = &self.plan.sensors[s as usize];
                        (self.start_period[s as usize] + e - 1) * PERIOD_NS + sp.phase_ns
                    })
                    .max()
                    .unwrap_or(0);
                if due < w0 || due >= w1 {
                    continue;
                }
                let capture = self.t0_ns + due;
                let lat = self
                    .inbox
                    .world(room.room_id, e)
                    .map_or(f64::INFINITY, |w| (w.recv_ns as f64 - capture as f64) / 1e6);
                out.push((due, lat));
            }
        }
        out
    }

    /// Frames offered with due time in `[w0, w1)`.
    pub fn offered_in(&self, w0: u64, w1: u64) -> u64 {
        self.offered()
            .filter(|&(_, _, due)| due >= w0 && due < w1)
            .count() as u64
    }

    /// 3D error (m) of served per-sensor positions against simulator
    /// truth in the sensor's frame, for settled frames due before `w1`.
    /// Single-target: every served position. Multi-target: each covered
    /// walker's nearest target, when one is within the track gate.
    pub fn errors(&self, w1: u64) -> Vec<f64> {
        let mut out = Vec::new();
        for (i, k, due) in self.offered() {
            if k < SETTLE_FRAMES || due >= w1 {
                continue;
            }
            let s = &self.plan.sensors[i];
            let Some(d) = self.inbox.update(s.id, k) else {
                continue;
            };
            if d.targets.is_empty() {
                continue;
            }
            let tape = &self.plan.tapes[s.tape].sensors[s.tape_sensor];
            for truth in &tape.truth_local[self.plan.tape_index(s, k)] {
                let nearest = d
                    .targets
                    .iter()
                    .map(|(_, p)| p.distance(*truth))
                    .fold(f64::INFINITY, f64::min);
                if self.plan.kind == PipelineKind::SingleTarget || nearest <= TRACK_GATE_M {
                    out.push(nearest);
                }
            }
        }
        out
    }

    /// 3D error (m) of fused world tracks against walker centres for
    /// settled epochs whose capture falls in `[w0, w1)`, whether every
    /// delivered track was finite, and the tracked share of covered
    /// walker-epochs.
    pub fn world_errors(&self, w0: u64, w1: u64) -> (Vec<f64>, bool, f64) {
        let mut errs = Vec::new();
        let mut finite = true;
        let (mut covered, mut tracked) = (0u64, 0u64);
        for room in &self.plan.rooms {
            let first = &self.plan.sensors[room.sensors[0] as usize];
            let epochs = room
                .sensors
                .iter()
                .map(|&s| self.sent[s as usize])
                .min()
                .unwrap_or(0);
            for e in 1..=epochs {
                let Some(w) = self.inbox.world(room.room_id, e) else {
                    continue;
                };
                finite &= w
                    .tracks
                    .iter()
                    .all(|p| p.x.is_finite() && p.y.is_finite() && p.z.is_finite());
                let due = (e - 1) * PERIOD_NS;
                if e - 1 < SETTLE_FRAMES || due < w0 || due >= w1 {
                    continue;
                }
                let truth =
                    &self.plan.tapes[room.tape].truth_world[self.plan.tape_index(first, e - 1)];
                for t in truth {
                    covered += 1;
                    let nearest = w
                        .tracks
                        .iter()
                        .map(|p| p.distance(*t))
                        .fold(f64::INFINITY, f64::min);
                    if nearest <= TRACK_GATE_M {
                        tracked += 1;
                        errs.push(nearest);
                    }
                }
            }
        }
        (errs, finite, tracked as f64 / covered.max(1) as f64)
    }

    /// Process CPU (ns) between the samples taken at periods `g0` and
    /// `g1` (`u64::MAX` = after the last reply).
    pub fn cpu_ns(&self, g0: u64, g1: u64) -> u64 {
        let at = |g: u64| {
            self.cpu
                .iter()
                .find(|(p, _)| *p == g)
                .map(|(_, ns)| *ns)
                .expect("CPU sampled at that period")
        };
        at(g1) - at(g0)
    }

    /// p99 (ms) of the sender's lateness for sends due in `[w0, w1)`:
    /// the median over `windows` sub-windows, like the latencies.
    pub fn send_lag_p99_ms(&self, w0: u64, w1: u64, windows: u64) -> f64 {
        let lags: Vec<(u64, f64)> = self
            .lags
            .iter()
            .filter(|(due, _)| *due >= w0 && *due < w1)
            .map(|&(due, lag)| (due, lag as f64 / 1e6))
            .collect();
        if lags.is_empty() {
            return 0.0;
        }
        windowed(&lags, w0, w1, windows).1
    }
}

/// p50 and p99 of `samples`.
pub fn p50_p99(samples: &[(u64, f64)]) -> (f64, f64) {
    let mut v: Vec<f64> = samples.iter().map(|(_, l)| *l).collect();
    (quantile(&mut v, 0.5), quantile(&mut v, 0.99))
}

/// p50 and p99 of each of `windows` equal sub-windows of `[w0, w1)`
/// (empty sub-windows skipped).
pub fn window_quantiles(samples: &[(u64, f64)], w0: u64, w1: u64, windows: u64) -> Vec<(f64, f64)> {
    let span = (w1 - w0) / windows.max(1);
    (0..windows.max(1))
        .filter_map(|w| {
            let (a, b) = (w0 + w * span, w0 + (w + 1) * span);
            let part: Vec<(u64, f64)> = samples
                .iter()
                .copied()
                .filter(|(due, _)| *due >= a && *due < b)
                .collect();
            (!part.is_empty()).then(|| p50_p99(&part))
        })
        .collect()
}

/// The `q`-quantile across windows of the windows' p50 and p99.
pub fn across(windows: &[(f64, f64)], q: f64) -> (f64, f64) {
    let mut p50s: Vec<f64> = windows.iter().map(|w| w.0).collect();
    let mut p99s: Vec<f64> = windows.iter().map(|w| w.1).collect();
    (quantile(&mut p50s, q), quantile(&mut p99s, q))
}

/// Medians over `windows` sub-windows of `[w0, w1)` of each sub-window's
/// p50 and p99: the majority of the span met these.
pub fn windowed(samples: &[(u64, f64)], w0: u64, w1: u64, windows: u64) -> (f64, f64) {
    across(&window_quantiles(samples, w0, w1, windows), 0.5)
}

/// The reported latency figures: the lower quartile over sub-windows of
/// each sub-window's p50 and p99. On a shared host, seconds in which the
/// host's scheduler stalls this process move the upper windows; a slower
/// server moves every window, this quartile included.
pub fn reported(windows: &[(f64, f64)]) -> (f64, f64) {
    across(windows, REPORT_ACROSS)
}

/// Whether a window's latencies kept up: p99 (the median over `windows`
/// sub-windows, as reported) within the frame budget, nothing failed,
/// and no growing backlog (the last quarter's median latency exceeds the
/// first quarter's by less than a quarter of the budget; past capacity
/// it climbs by tens of milliseconds per second).
pub fn kept_up(samples: &[(u64, f64)], w0: u64, w1: u64, windows: u64) -> bool {
    if samples.is_empty() {
        return false;
    }
    let (_, p99) = windowed(samples, w0, w1, windows);
    let quarter = (w1 - w0) / 4;
    let part_median = |a: u64, b: u64| {
        let mut v: Vec<f64> = samples
            .iter()
            .filter(|(due, _)| *due >= a && *due < b)
            .map(|(_, l)| *l)
            .collect();
        median(&mut v)
    };
    let first = part_median(w0, w0 + quarter);
    let last = part_median(w1 - quarter, w1);
    p99 <= UPDATE_LIMIT_MS
        && samples.iter().all(|(_, l)| l.is_finite())
        && last - first < UPDATE_LIMIT_MS / 4.0
}

/// Self time per replayed frame (µs) of each layer: its inclusive time
/// minus the rows it contains (a `TofEstimator` contains a profiler; a
/// `WiTrack` frame contains three estimators and the solve; a
/// `MultiWiTrack` frame contains the profilers).
pub fn self_us(trace: &Trace, layer: Layer) -> f64 {
    let us = |l| trace.us_per_frame(l);
    match layer {
        Layer::Tof => us(Layer::Tof) - us(Layer::Profile),
        Layer::CoreFrame => us(Layer::CoreFrame) - us(Layer::Tof) - us(Layer::Solve),
        Layer::MttFrame => us(Layer::MttFrame) - us(Layer::Profile),
        l => us(l),
    }
}

/// The layers a workload's served path runs, by pipeline kind.
pub fn served_layers(kind: PipelineKind) -> &'static [Layer] {
    match kind {
        PipelineKind::SingleTarget => &[
            Layer::Decode,
            Layer::Profile,
            Layer::Tof,
            Layer::Solve,
            Layer::CoreFrame,
            Layer::EncodeUpdate,
        ],
        PipelineKind::MultiTarget => &[
            Layer::Decode,
            Layer::Profile,
            Layer::MttFrame,
            Layer::EncodeUpdate,
            Layer::FusePush,
            Layer::ProgramEval,
            Layer::EncodeWorld,
            Layer::EncodeEvent,
        ],
    }
}

/// Every per-layer row plus the residual: served CPU per frame minus the
/// self times of the layers on the served path.
pub fn layer_metrics(trace: &Trace, kind: PipelineKind, cpu_us_per_frame: f64, m: &mut Metrics) {
    for layer in Layer::ALL {
        let spans = trace.spans(layer);
        let name = layer.name();
        m.push(format!("{name}.calls"), spans.calls as f64, "count");
        m.push(format!("{name}.p50_us"), spans.quantile_us(0.5), "us");
        m.push(format!("{name}.p99_us"), spans.quantile_us(0.99), "us");
        m.push(format!("{name}.us_per_frame"), self_us(trace, layer), "us");
    }
    let on_path: f64 = served_layers(kind).iter().map(|&l| self_us(trace, l)).sum();
    m.push("residual.us_per_frame", cpu_us_per_frame - on_path, "us");
}
