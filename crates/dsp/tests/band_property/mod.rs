//! The range-transform band check, shared by the dispatched-path and
//! forced-scalar test binaries: for deterministic broadband frames, bins
//! `0..keep` of [`RangeTransform`] match the quadratic reference DFT to
//! `1e-9·n`.
//!
//! The lengths cover both transform paths and every FFT plan: even `n`
//! packs into `n/2` ∈ {8 (4·2), 12 (4·3), 20 (4·5), 50 (2·5·5),
//! 1250 (2·5⁴, the paper sweep), 127 (Bluestein)}, and odd `n` ∈ {25,
//! 75, 127} transforms at full length (odd mixed-radix strides and
//! Bluestein). Each frame goes through both input forms: `f64`, and the
//! fixed-point `i32` accumulator of `i16` wire samples.

use witrack_dsp::fft::dft_naive;
use witrack_dsp::{Complex, RangeTransform};

const LENGTHS: [usize; 9] = [16, 24, 40, 100, 2500, 254, 25, 75, 127];

/// Runs `cases` frames at every length, keep ∈ {1, n/2}. Each case mixes
/// a tone, a chirp and a second tone at case-dependent frequencies, so
/// the energy spreads over the whole band; samples stay in [-1, 1].
pub fn band_matches_naive_dft(cases: u64) {
    for case in 0..cases {
        let c = case as f64 + 1.0;
        for n in LENGTHS {
            let signal: Vec<f64> = (0..n)
                .map(|i| {
                    let t = i as f64;
                    0.5 * (0.37 * c * t + c).sin()
                        + 0.3 * (0.0011 * c * t * t).cos()
                        + 0.2 * (2.9 * t / c).sin()
                })
                .collect();
            let scale = 1.0 / 32767.0;
            let frame_q: Vec<i32> = signal.iter().map(|&x| (x / scale).round() as i32).collect();
            let dequantized: Vec<f64> = frame_q.iter().map(|&q| q as f64 * scale).collect();
            let full = naive(&signal);
            let full_q = naive(&dequantized);
            for keep in [1, n / 2] {
                let transform = RangeTransform::new(n, keep);
                let mut band = vec![Complex::ZERO; keep];
                transform.transform_into(&signal, &mut band);
                assert_close(&band, &full, n, keep, "f64");
                transform.transform_q_into(&frame_q, scale, &mut band);
                assert_close(&band, &full_q, n, keep, "i16");
            }
        }
    }
}

fn naive(signal: &[f64]) -> Vec<Complex> {
    dft_naive(&signal.iter().map(|&x| Complex::real(x)).collect::<Vec<_>>())
}

fn assert_close(band: &[Complex], full: &[Complex], n: usize, keep: usize, input: &str) {
    for (k, (a, b)) in band.iter().zip(full).enumerate() {
        assert!(
            (*a - *b).abs() <= 1e-9 * n as f64,
            "{input} n={n} keep={keep} bin {k}: {a} vs {b}"
        );
    }
}
