//! t_dsp — DSP hot-path kernel microbenchmarks, with a machine-readable
//! `BENCH_dsp.json` artifact.
//!
//! The profile stage (window → pack → 1250-point mixed-radix FFT →
//! unpack) is the per-frame cost that bounds sensors-per-core, so this
//! harness times its kernels at the paper shape (2500 samples/sweep,
//! 5 sweeps/frame, 3 receive antennas) three ways:
//!
//! * the **dispatched** path (AVX2+FMA where the host has it, selected
//!   once per process by `witrack_dsp::simd::active()`);
//! * the **scalar** reference kernels (`witrack_dsp::simd::scalar`),
//!   called directly — same process, so the artifact always carries the
//!   scalar-vs-vector ratio regardless of host;
//! * the **fixed-point** front half (i16 samples, Q15 window, i32
//!   accumulation) on both of the above.
//!
//! On top of the kernel rows, two end-to-end rows run a full frame —
//! 3 antennas × 5 sweeps — through [`RangeProfiler`], once from f64
//! sweeps and once from wire-quantized i16 sweeps. Those are the
//! numbers the serving layer's sensors-per-core ceiling is made of.
//!
//! Flags: `--iters N` (kernel iterations, default 20000), `--frames N`
//! (profile-stage frames, default 2000), `--quick` (1/10 of both, for
//! CI smoke), `--out PATH` (default `BENCH_dsp.json`; `-` skips
//! writing).

use std::hint::black_box;
use std::time::Instant;
use witrack_bench::printing::banner;
use witrack_dsp::simd::{self, KernelPath};
use witrack_dsp::window::WindowKind;
use witrack_dsp::Complex;
use witrack_fmcw::{RangeProfiler, SweepConfig};

const MAX_ROUND_TRIP_M: f64 = 22.0;

struct Options {
    iters: u64,
    frames: u64,
    out: Option<String>,
}

fn parse_options() -> Options {
    let mut opts = Options {
        iters: 20_000,
        frames: 2_000,
        out: Some("BENCH_dsp.json".into()),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--iters" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    opts.iters = v;
                }
            }
            "--frames" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    opts.frames = v;
                }
            }
            "--quick" => {
                opts.iters = (opts.iters / 10).max(1);
                opts.frames = (opts.frames / 10).max(1);
            }
            "--out" => {
                opts.out = it.next().filter(|s| s != "-");
            }
            _ => {}
        }
    }
    opts
}

fn path_name(p: KernelPath) -> &'static str {
    match p {
        KernelPath::Avx2Fma => "avx2_fma",
        KernelPath::Scalar => "scalar",
    }
}

struct Row {
    kernel: &'static str,
    path: &'static str,
    n: usize,
    iters: u64,
    ns_per_call: f64,
}

impl Row {
    fn calls_per_sec(&self) -> f64 {
        1e9 / self.ns_per_call.max(1e-3)
    }
}

/// Times `op` over `iters` calls (after `iters / 10 + 1` warmup calls)
/// and returns nanoseconds per call.
fn time_ns(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    for i in 0..iters / 10 + 1 {
        op(i);
    }
    let start = Instant::now();
    for i in 0..iters {
        op(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// A deterministic quasi-random f64 in [-1, 1) — no RNG dependency in
/// the timed setup, and identical buffers on every run.
fn wobble(i: usize, seed: u64) -> f64 {
    let x = (i as u64)
        .wrapping_mul(6364136223846793005)
        .wrapping_add(seed);
    ((x >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
}

fn complex_buf(n: usize, seed: u64) -> Vec<Complex> {
    (0..n)
        .map(|i| Complex::new(wobble(i, seed), wobble(i, seed ^ 0x9e3779b9)))
        .collect()
}

/// Length of the pointwise-multiply rows: a Bluestein convolution length.
const CONV_LEN: usize = 2048;

/// All kernel rows: dispatched path and the scalar reference, float and
/// fixed-point. `n` is the sweep length; `fft_len` the length of the range
/// transform's FFT (what production actually transforms).
fn kernel_rows(n: usize, fft_len: usize, iters: u64) -> Vec<Row> {
    let active = path_name(simd::active());

    let window_q15 = WindowKind::Hann.shared_q15(n);
    let src: Vec<f64> = (0..n).map(|i| wobble(i, 1)).collect();
    let src_q: Vec<i16> = src.iter().map(|&s| (s * 32767.0).round() as i16).collect();
    // Unit-magnitude kernel and twiddles: repeated multiplies must not
    // walk the buffers off to infinity or down into (slow) denormals.
    let unit = |len: usize, seed: u64| -> Vec<Complex> {
        (0..len)
            .map(|i| Complex::cis(wobble(i, seed) * std::f64::consts::PI))
            .collect()
    };
    let kernel = unit(CONV_LEN, 3);
    let mut accum_q = vec![0i32; n];
    let conv_init = complex_buf(CONV_LEN, 5);
    let mut conv_buf = conv_init.clone();
    // Mixed-radix passes read a constant input, so nothing grows.
    let pass_src = complex_buf(fft_len, 8);
    let mut pass_dst = vec![Complex::ZERO; fft_len];
    let pass_tw = unit(fft_len, 9);

    let mut rows = Vec::new();
    let mut push = |kernel: &'static str, path: &'static str, n: usize, ns: f64| {
        rows.push(Row {
            kernel,
            path,
            n,
            iters,
            ns_per_call: ns,
        });
    };

    // Fixed-point window-accumulate (i16 × Q15 → i32): the quantized
    // front half's windowing and frame averaging. Cleared at the frame
    // cadence (5 sweeps), exactly like production.
    push(
        "window_accum_q",
        active,
        n,
        time_ns(iters, |i| {
            if i % 5 == 0 {
                accum_q.fill(0);
            }
            simd::window_accum_q(&mut accum_q, black_box(&src_q), &window_q15);
        }),
    );
    push(
        "window_accum_q",
        "scalar",
        n,
        time_ns(iters, |i| {
            if i % 5 == 0 {
                accum_q.fill(0);
            }
            simd::scalar::window_accum_q(&mut accum_q, black_box(&src_q), &window_q15);
        }),
    );

    // The range transform's mixed-radix passes: its first (radix 2,
    // stride 1, vectorized over butterflies) and a radix-5 one (stride 2,
    // vectorized over the stride).
    for (kernel, radix, stride) in [("fft_pass_r2", 2, 1), ("fft_pass_r5", 5, 2)] {
        push(
            kernel,
            active,
            fft_len,
            time_ns(iters, |_| {
                simd::fft_pass(
                    black_box(&pass_src),
                    &mut pass_dst,
                    radix,
                    stride,
                    &pass_tw,
                    false,
                );
            }),
        );
        push(
            kernel,
            "scalar",
            fft_len,
            time_ns(iters, |_| {
                simd::scalar::fft_pass(
                    black_box(&pass_src),
                    &mut pass_dst,
                    radix,
                    stride,
                    &pass_tw,
                    false,
                );
            }),
        );
    }

    // Bluestein's frequency-domain kernel multiply.
    push(
        "pointwise_mul",
        active,
        CONV_LEN,
        time_ns(iters, |i| {
            if i % 1024 == 0 {
                conv_buf.copy_from_slice(&conv_init);
            }
            simd::pointwise_mul(&mut conv_buf, black_box(&kernel), false);
        }),
    );
    push(
        "pointwise_mul",
        "scalar",
        CONV_LEN,
        time_ns(iters, |i| {
            if i % 1024 == 0 {
                conv_buf.copy_from_slice(&conv_init);
            }
            simd::scalar::pointwise_mul(&mut conv_buf, black_box(&kernel), false);
        }),
    );

    rows
}

/// End-to-end profile stage: 3 antennas × 5 sweeps through
/// [`RangeProfiler`]. Returns ns per frame (all three antennas).
fn profile_frame_ns(cfg: &SweepConfig, frames: u64, quantized: bool) -> f64 {
    const N_RX: usize = 3;
    let n = cfg.samples_per_sweep();
    let mut profilers: Vec<RangeProfiler> = (0..N_RX)
        .map(|_| RangeProfiler::new(cfg, WindowKind::Hann, MAX_ROUND_TRIP_M))
        .collect();
    // Distinct per-(antenna, sweep) signals, built once outside timing.
    let sweeps_f64: Vec<Vec<f64>> = (0..N_RX * cfg.sweeps_per_frame)
        .map(|k| (0..n).map(|i| wobble(i, 100 + k as u64)).collect())
        .collect();
    let sweeps_i16: Vec<Vec<i16>> = sweeps_f64
        .iter()
        .map(|s| s.iter().map(|&x| (x * 32767.0).round() as i16).collect())
        .collect();
    let scale = 1.0 / 32767.0;

    time_ns(frames, |_| {
        for (rx, prof) in profilers.iter_mut().enumerate() {
            let mut out_bins = 0;
            for s in 0..cfg.sweeps_per_frame {
                let k = rx * cfg.sweeps_per_frame + s;
                let profile = if quantized {
                    prof.push_sweep_q(&sweeps_i16[k], scale)
                } else {
                    prof.push_sweep(&sweeps_f64[k])
                };
                if let Some(p) = profile {
                    out_bins = p.len();
                }
            }
            assert!(black_box(out_bins) > 0, "frame must complete");
        }
    })
}

fn main() {
    let opts = parse_options();
    let cfg = SweepConfig::witrack();
    let n = cfg.samples_per_sweep();
    banner(
        "t_dsp",
        "profile-stage kernel microbenchmarks (SIMD / scalar / fixed-point)",
        "§3.1 sweep → range profile at 2500 samples, 5 sweeps/frame, 3 rx antennas",
    );
    // The range transform's FFT length at the profiler shape — sized off
    // a throwaway profiler so the kernel rows measure what production
    // transforms.
    let fft_len = RangeProfiler::new(&cfg, WindowKind::Hann, MAX_ROUND_TRIP_M)
        .plan()
        .fft_len();
    println!(
        "dispatched kernel path: {} ({} f64 lanes); transform length {}\n",
        path_name(simd::active()),
        simd::active().lanes(),
        fft_len
    );

    let mut rows = kernel_rows(n, fft_len, opts.iters);

    let f64_ns = profile_frame_ns(&cfg, opts.frames, false);
    let i16_ns = profile_frame_ns(&cfg, opts.frames, true);
    rows.push(Row {
        kernel: "profile_frame_3rx",
        path: "f64",
        n,
        iters: opts.frames,
        ns_per_call: f64_ns,
    });
    rows.push(Row {
        kernel: "profile_frame_3rx",
        path: "i16",
        n,
        iters: opts.frames,
        ns_per_call: i16_ns,
    });

    println!(
        "{:>20} {:>10} {:>8} {:>12} {:>14}",
        "kernel", "path", "n", "ns/call", "calls/s"
    );
    for r in &rows {
        println!(
            "{:>20} {:>10} {:>8} {:>12.0} {:>14.0}",
            r.kernel,
            r.path,
            r.n,
            r.ns_per_call,
            r.calls_per_sec()
        );
    }
    println!(
        "\nprofile stage, full frame (3 rx × {} sweeps × {} samples):",
        cfg.sweeps_per_frame, n
    );
    println!(
        "  f64 front half: {:7.1} us/frame   i16 front half: {:7.1} us/frame",
        f64_ns / 1e3,
        i16_ns / 1e3
    );
    println!(
        "  real-time budget at 80 fps: 12500 us/frame -> {:.0} sensors/core (i16, profile stage only)",
        12_500.0 / (i16_ns / 1e3)
    );

    if let Some(path) = opts.out {
        let body: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"kernel\": \"{}\", \"path\": \"{}\", \"n\": {}, \"iters\": {}, \
                     \"ns_per_call\": {:.1}, \"calls_per_sec\": {:.1}}}",
                    r.kernel,
                    r.path,
                    r.n,
                    r.iters,
                    r.ns_per_call,
                    r.calls_per_sec()
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"bench\": \"t_dsp\",\n  \"active_path\": \"{}\",\n  \
             \"samples_per_sweep\": {},\n  \"sweeps_per_frame\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
            path_name(simd::active()),
            n,
            cfg.sweeps_per_frame,
            body.join(",\n")
        );
        std::fs::write(&path, json).expect("write artifact");
        println!("\nwrote {path}");
    }
}
