//! fleetbench — open-loop fleet benchmark of the WiTrack serving stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path fleetbench/Cargo.toml -- \
//!     --workload fleet_steady|fleet_ramp|rooms_fused --seed N --seconds S --trace 0|1
//! ```
//!
//! Records simulator frames, serves them open-loop over loopback TCP,
//! checks the served results, and prints one JSON result line last on
//! stdout (end-to-end metrics with `--trace 0`; per-layer metrics from a
//! traced single-thread replay with `--trace 1`). Exits 1 when a
//! correctness check fails, 2 on a usage error. See `README.md`.

mod check;
mod plan;
mod record;
mod report;
mod served;
mod stats;
mod trace;

use plan::{Plan, Workload, FRAMES_PER_S, PERIOD_NS, RAMP_START, RAMP_STEP};
use report::{kept_up, layer_metrics, reported, window_quantiles, windowed, View};
use served::{Flow, Run};
use stats::{median, Metrics};

/// Unmeasured lead-in before the first measured period.
const WARM_PERIODS: u64 = 40;
/// Latency quantiles are taken per window (see `report::reported`).
/// Windows are sized so each p99 has about ten samples beyond it: 1 s of
/// updates, 2 s of fused epochs, 2.5 s of one sensor's updates.
const UPDATE_WINDOW_S: u64 = 1;
const WORLD_WINDOW_S: u64 = 2;
const SENSOR_WINDOW_S: f64 = 2.5;
/// `fleet_ramp` slots: each holds one sensor count for a measured
/// window (0.8 s, judged over 4 sub-windows) and then a 0.2 s tail at the
/// same count, after which every frame of the window has either answered
/// or missed 12.5 ms many times over, and the window is judged.
const SLOT_MEASURED: u64 = 64;
const SLOT_TAIL: u64 = 16;
const SLOT_PERIODS: u64 = SLOT_MEASURED + SLOT_TAIL;
const SLOT_WINDOWS: u64 = 4;
/// The ramp holds its first count (32 sensors) for this many slots; their
/// windows, two per slot (about ten samples beyond each p99), give the
/// ramp's latency figures at a fixed load, whatever count the ramp ends at.
const BASELINE_SLOTS: u64 = 4;
const BASELINE_WINDOWS: u64 = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

/// What a workload's served run produced, before tracing.
struct Outcome {
    e2e: Metrics,
    /// The p99 figures. On a small shared VM their run-to-run spread is
    /// wider than any regression bound the benchmark may set, so they are
    /// reported with the traced run's unbounded metrics.
    tail: Metrics,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Served CPU per frame (for the residual row) and the generator lag.
    cpu_us_per_frame: f64,
    send_lag_p99_ms: f64,
}

/// Correctness checks shared by every workload: exact replay of a few
/// sensors and frame accounting.
fn common_checks(view: &View<'_>, replay: &[usize]) -> Vec<String> {
    let mut problems = check::accounting(view.sent, view.inbox);
    for &i in replay {
        problems.extend(check::replay_matches(
            view.plan,
            &view.plan.sensors[i],
            view.sent[i],
            view.inbox,
        ));
    }
    problems
}

/// Sensors whose served results are replayed exactly: a seeded spread.
fn replay_sample(seed: u64, active: usize, count: usize) -> Vec<usize> {
    let mut picks: Vec<usize> = (0..count)
        .map(|j| (seed as usize + j * active / count) % active)
        .collect();
    picks.dedup();
    picks
}

fn run_fixed(plan: &Plan, seconds: u64) -> Result<(Run, Outcome), String> {
    let measured = seconds * FRAMES_PER_S;
    let total = WARM_PERIODS + measured;
    let run = served::run(plan, plan.sensors.len(), total, &[WARM_PERIODS], |_, _| {
        (Flow::Continue, Vec::new())
    })
    .map_err(|e| format!("served run failed: {e}"))?;
    let view = View::of_run(plan, &run);
    let (w0, w1) = (WARM_PERIODS * PERIOD_NS, total * PERIOD_NS);
    let updates = view.update_latencies(w0, w1, None);
    let windows = (seconds / UPDATE_WINDOW_S).max(1);
    let (update_p50, update_p99) = reported(&window_quantiles(&updates, w0, w1, windows));
    let sensor_windows = ((seconds as f64 / SENSOR_WINDOW_S).round() as u64).max(1);
    let offered = view.offered_in(w0, w1);
    let cpu_us = view.cpu_ns(WARM_PERIODS, u64::MAX) as f64 / 1e3 / offered.max(1) as f64;
    let sustained = (0..plan.sensors.len())
        .filter(|&i| {
            kept_up(
                &view.update_latencies(w0, w1, Some(i)),
                w0,
                w1,
                sensor_windows,
            )
        })
        .count();
    let mut errs = view.errors(w1);
    let err_p50 = median(&mut errs);
    let lag_p99 = view.send_lag_p99_ms(w0, w1, windows);
    let mut problems = common_checks(&view, &replay_sample(plan.seed, plan.sensors.len(), 4));
    let (world_p50, world_p99, world_err, attempted_world, failed_world) = if plan.rooms.is_empty()
    {
        // No fused rooms: each sensor's served position is the location
        // the client receives, so the world figures are the update ones.
        (update_p50, update_p99, err_p50, 0, 0)
    } else {
        let worlds = view.world_latencies(w0, w1);
        let (p50, p99) = reported(&window_quantiles(
            &worlds,
            w0,
            w1,
            (seconds / WORLD_WINDOW_S).max(1),
        ));
        let all_worlds = view.world_latencies(0, w1);
        let failed = all_worlds.iter().filter(|(_, l)| !l.is_finite()).count() as u64;
        let (mut werrs, finite, coverage) = view.world_errors(w0, w1);
        let werr = median(&mut werrs);
        eprintln!(
            "world: {} epochs measured, {} failed overall, tracked share {:.3}, {} events",
            worlds.len(),
            failed,
            coverage,
            run.inbox.events
        );
        problems.extend(check::world(finite, werr));
        (p50, p99, werr, all_worlds.len() as u64, failed)
    };
    let all_updates = view.update_latencies(0, w1, None);
    let failed_updates = all_updates.iter().filter(|(_, l)| !l.is_finite()).count() as u64;
    eprintln!(
        "updates: {} measured over {} windows, {} failed overall; {} position errors scored",
        updates.len(),
        windows,
        failed_updates,
        errs.len()
    );
    let mut e2e = Metrics::default();
    e2e.push("setup_s", median(&mut run.setup_s.clone()), "s");
    e2e.push("update_p50_ms", update_p50, "ms");
    e2e.push("world_p50_ms", world_p50, "ms");
    e2e.push("cpu_us_per_frame", cpu_us, "us");
    e2e.push("sensors_sustained", sustained as f64, "count");
    e2e.push("err3d_p50_cm", err_p50 * 100.0, "cm");
    e2e.push("world_err3d_p50_cm", world_err * 100.0, "cm");
    let mut tail = Metrics::default();
    tail.push("update_p99_ms", update_p99, "ms");
    tail.push("world_p99_ms", world_p99, "ms");
    let outcome = Outcome {
        e2e,
        tail,
        attempted: all_updates.len() as u64 + attempted_world,
        failed: failed_updates + failed_world,
        problems,
        cpu_us_per_frame: cpu_us,
        send_lag_p99_ms: lag_p99,
    };
    Ok((run, outcome))
}

/// Slots a `fleet_ramp` run of `seconds` holds.
fn ramp_slots(seconds: u64) -> u64 {
    (seconds * FRAMES_PER_S / SLOT_PERIODS).max(1)
}

/// One judged `fleet_ramp` slot.
struct Slot {
    level: u64,
    kept_up: bool,
}

fn run_ramp(plan: &Plan, seconds: u64) -> Result<(Run, Outcome), String> {
    let slots = ramp_slots(seconds);
    let total = WARM_PERIODS + slots * SLOT_PERIODS;
    let slot_start = |j: u64| WARM_PERIODS + j * SLOT_PERIODS;
    let window = |j: u64| {
        let a = slot_start(j) * PERIOD_NS;
        (a, a + SLOT_MEASURED * PERIOD_NS)
    };
    let sensors_at = |level: u64| RAMP_START + RAMP_STEP * level as usize;
    let cpu_at: Vec<u64> = (0..slots).map(slot_start).collect();
    let judge = |view: &View<'_>, j: u64| {
        let (w0, w1) = window(j);
        kept_up(&view.update_latencies(w0, w1, None), w0, w1, SLOT_WINDOWS)
            && view.send_lag_p99_ms(w0, w1, 1) <= check::SEND_LAG_LIMIT_MS
    };
    // A count that misses gets one more slot before the ramp stops, so a
    // single stall of the host does not end it.
    let mut judged: Vec<Slot> = Vec::new();
    let mut level = 0u64;
    let run = served::run(plan, RAMP_START, total, &cpu_at, |g, progress| {
        if g < slot_start(1) || !(g - WARM_PERIODS).is_multiple_of(SLOT_PERIODS) {
            return (Flow::Continue, Vec::new());
        }
        let j = (g - WARM_PERIODS) / SLOT_PERIODS - 1;
        let kept = {
            let inbox = progress.session.inbox();
            judge(&View::of_progress(plan, progress, &inbox), j)
        };
        let missed_before = judged
            .last()
            .is_some_and(|s| s.level == level && !s.kept_up);
        judged.push(Slot {
            level,
            kept_up: kept,
        });
        if kept && j + 1 >= BASELINE_SLOTS {
            level += 1;
            let joining = (sensors_at(level - 1)..sensors_at(level)).collect();
            (Flow::Continue, joining)
        } else if !kept && missed_before {
            (Flow::Stop, Vec::new())
        } else {
            (Flow::Continue, Vec::new())
        }
    })
    .map_err(|e| format!("served run failed: {e}"))?;
    let view = View::of_run(plan, &run);
    let stopped = judged.last().is_some_and(|s| !s.kept_up)
        && judged.iter().rev().nth(1).is_some_and(|s| !s.kept_up);
    if !stopped && (judged.len() as u64) < slots {
        let j = judged.len() as u64;
        judged.push(Slot {
            level,
            kept_up: judge(&view, j),
        });
    }
    // The largest count any slot sustained, the CPU over the span up to
    // the last slot that kept up, and the latency of the baseline slots.
    let passed: Vec<u64> = (0..judged.len() as u64)
        .filter(|&j| judged[j as usize].kept_up)
        .collect();
    let baseline: Vec<u64> = passed
        .iter()
        .copied()
        .filter(|&j| j < BASELINE_SLOTS)
        .collect();
    let sustained = passed
        .iter()
        .map(|&j| sensors_at(judged[j as usize].level))
        .max()
        .unwrap_or(0);
    let latency_slots = if baseline.is_empty() {
        vec![0]
    } else {
        baseline
    };
    let sub_windows: Vec<(f64, f64)> = latency_slots
        .iter()
        .flat_map(|&j| {
            let (a, b) = window(j);
            window_quantiles(&view.update_latencies(a, b, None), a, b, BASELINE_WINDOWS)
        })
        .collect();
    let (p50, p99) = reported(&sub_windows);
    let span_end = slot_start(passed.last().map_or(1, |j| j + 1));
    let cpu_end = if run.cpu.iter().any(|(g, _)| *g == span_end) {
        span_end
    } else {
        u64::MAX
    };
    let (w0, w1) = (slot_start(0) * PERIOD_NS, span_end * PERIOD_NS);
    let cpu_us =
        view.cpu_ns(slot_start(0), cpu_end) as f64 / 1e3 / view.offered_in(w0, w1).max(1) as f64;
    let mut errs = view.errors(w1);
    let err_p50 = median(&mut errs);
    let lag_p99 = median(
        &mut passed
            .iter()
            .chain(passed.is_empty().then_some(&0))
            .map(|&j| {
                let (a, b) = window(j);
                view.send_lag_p99_ms(a, b, 1)
            })
            .collect::<Vec<_>>(),
    );
    let counted = view.update_latencies(0, w1, None);
    let failed = counted.iter().filter(|(_, l)| !l.is_finite()).count() as u64;
    let problems = common_checks(&view, &replay_sample(plan.seed, RAMP_START, 4));
    for (j, slot) in judged.iter().enumerate() {
        let (a, b) = window(j as u64);
        let (s50, s99) = windowed(&view.update_latencies(a, b, None), a, b, SLOT_WINDOWS);
        eprintln!(
            "ramp slot {j}: {} sensors, update p50 {s50:.3} ms p99 {s99:.3} ms, lag p99 {:.3} ms{}",
            sensors_at(slot.level),
            view.send_lag_p99_ms(a, b, 1),
            if slot.kept_up { "" } else { " (missed)" }
        );
    }
    let mut e2e = Metrics::default();
    e2e.push("setup_s", median(&mut run.setup_s.clone()), "s");
    e2e.push("update_p50_ms", p50, "ms");
    e2e.push("world_p50_ms", p50, "ms");
    e2e.push("cpu_us_per_frame", cpu_us, "us");
    e2e.push("sensors_sustained", sustained as f64, "count");
    e2e.push("err3d_p50_cm", err_p50 * 100.0, "cm");
    e2e.push("world_err3d_p50_cm", err_p50 * 100.0, "cm");
    let mut tail = Metrics::default();
    tail.push("update_p99_ms", p99, "ms");
    tail.push("world_p99_ms", p99, "ms");
    let outcome = Outcome {
        e2e,
        tail,
        attempted: counted.len() as u64,
        failed,
        problems,
        cpu_us_per_frame: cpu_us,
        send_lag_p99_ms: lag_p99,
    };
    Ok((run, outcome))
}

/// Server-side counters of the untraced run, through existing accessors.
fn server_metrics(run: &Run, lag_p99_ms: f64, m: &mut Metrics) {
    let c = &run.counters;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    m.push("gen.send_lag_p99_ms", lag_p99_ms, "ms");
    m.push(
        "serve.engine.frames_emitted",
        c.engine.frames_emitted as f64,
        "count",
    );
    m.push(
        "serve.engine.updates_dropped",
        c.engine.updates_dropped as f64,
        "count",
    );
    m.push(
        "serve.engine.batches_dropped",
        c.engine.batches_dropped as f64,
        "count",
    );
    m.push(
        "serve.engine.max_inflight",
        c.engine.max_inflight as f64,
        "count",
    );
    m.push(
        "serve.shard.queue_wait_p99_coarse_us",
        c.queue_wait.p99() as f64 / 1e3,
        "us",
    );
    m.push(
        "serve.shard.service_p50_coarse_us",
        c.service.p50() as f64 / 1e3,
        "us",
    );
    m.push(
        "serve.pool.hit_ratio",
        1.0 - ratio(c.pool_misses, c.pool_gets),
        "ratio",
    );
    m.push(
        "dsp.plan_cache.hit_ratio",
        ratio(c.plan_hits, c.plan_hits + c.plan_misses),
        "ratio",
    );
    m.push(
        "serve.program.match_ratio",
        ratio(c.engine.events_matched, c.engine.events_evaluated),
        "ratio",
    );
    m.push(
        "serve.hub.rate_limited",
        c.engine.events_rate_limited as f64,
        "count",
    );
    m.push(
        "serve.hub.world_bytes",
        c.engine.world_bytes as f64,
        "bytes",
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            eprintln!(
                "usage: fleetbench --workload fleet_steady|fleet_ramp|rooms_fused \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let counts = ramp_slots(args.seconds)
        .saturating_sub(BASELINE_SLOTS - 1)
        .max(1);
    let max_ramp = RAMP_START + RAMP_STEP * (counts as usize - 1);
    let recording = std::time::Instant::now();
    let plan = Plan::build(args.workload, args.seed, max_ramp);
    eprintln!(
        "{}: recorded {} tape(s) in {:.1} s; {} sensors, seed {}",
        args.workload.name(),
        plan.tapes.len(),
        recording.elapsed().as_secs_f64(),
        plan.sensors.len(),
        args.seed
    );
    let result = match args.workload {
        Workload::FleetRamp => run_ramp(&plan, args.seconds),
        Workload::FleetSteady | Workload::RoomsFused => run_fixed(&plan, args.seconds),
    };
    let (run, outcome) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            std::process::exit(1);
        }
    };
    for m in outcome.e2e.0.iter().chain(&outcome.tail.0) {
        eprintln!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let metrics = if args.trace {
        let trace = trace::replay(&plan);
        eprintln!(
            "traced replay: {} frames in {:.2} s",
            trace.frames, trace.elapsed_s
        );
        let mut m = Metrics::default();
        m.0.extend(outcome.tail.0);
        layer_metrics(&trace, plan.kind, outcome.cpu_us_per_frame, &mut m);
        server_metrics(&run, outcome.send_lag_p99_ms, &mut m);
        for m in &m.0 {
            eprintln!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
        }
        m
    } else {
        outcome.e2e
    };
    // A late sender invalidates the run's offered load, not its outputs:
    // flag the run, and let the latencies (counted from due times) carry
    // the lateness.
    for p in check::generator(outcome.send_lag_p99_ms) {
        eprintln!("RUN INVALID: {p}");
    }
    let correct = outcome.problems.is_empty();
    for p in outcome.problems.iter().take(20) {
        eprintln!("CHECK FAILED: {p}");
    }
    if outcome.problems.len() > 20 {
        eprintln!("... and {} more", outcome.problems.len() - 20);
    }
    println!(
        "{}",
        stats::result_json(correct, outcome.attempted.max(1), outcome.failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
