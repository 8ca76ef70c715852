//! Property tests over the SIMD kernel dispatch layer: for random
//! lengths (odd sizes force every tail path), random data, and random
//! radix/stride shapes, the dispatched kernels must agree
//! with the scalar references — floats to 1e-9, fixed-point bit-exactly
//! plus the analytic half-step rounding bound of the Q15 multiply.

use proptest::prelude::*;
use witrack_dsp::simd::{self, scalar};
use witrack_dsp::Complex;

fn complexes(n: usize) -> impl Strategy<Value = Vec<Complex>> {
    proptest::collection::vec(
        (-1.0f64..1.0, -1.0f64..1.0).prop_map(|(re, im)| Complex::new(re, im)),
        n..n + 1,
    )
}

fn conj_flag() -> impl Strategy<Value = bool> {
    (0u32..2).prop_map(|b| b == 1)
}

fn close(a: &[Complex], b: &[Complex]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!((*x - *y).abs() <= 1e-9, "element {i}: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pointwise_mul_matches_scalar(
        (extra, data, kernel, conj) in (0usize..3, complexes(97), complexes(97), conj_flag())
    ) {
        // Sub-slicing by a random amount yields odd lengths and tails.
        let n = 97 - 4 * extra - 1;
        let mut a = data[..n].to_vec();
        let mut r = a.clone();
        simd::pointwise_mul(&mut a, &kernel[..n], conj);
        scalar::pointwise_mul(&mut r, &kernel[..n], conj);
        close(&a, &r);

        let mut out_a = vec![Complex::ZERO; n];
        let mut out_r = vec![Complex::ZERO; n];
        simd::pointwise_mul_into(&mut out_a, &data[..n], &kernel[..n], conj);
        scalar::pointwise_mul_into(&mut out_r, &data[..n], &kernel[..n], conj);
        close(&out_a, &out_r);
    }

    #[test]
    fn mixed_radix_passes_match_scalar(
        (radix, sp, m) in (2usize..6, 0u32..4, 1usize..8),
        (data, conj) in (complexes(5 * 9 * 7), conj_flag()),
    ) {
        // Strides 1, 2, 3 and 9 reach both vector layouts (over
        // butterflies at s = 1, over the stride otherwise) and their odd
        // tails; m up to 7 gives odd butterfly counts at s = 1.
        let s = [1usize, 2, 3, 9][sp as usize];
        let n = radix * s * m;
        // The pass's own twiddles w^{p·k}: the kernel skips the p = 0
        // multiplies, which holds only because those are exactly 1.
        let tw: Vec<Complex> = (1..radix)
            .flat_map(|k| (0..m).map(move |p| (p, k)))
            .map(|(p, k)| {
                Complex::cis(-2.0 * std::f64::consts::PI * (p * k) as f64 / (radix * m) as f64)
            })
            .collect();
        let mut a = vec![Complex::ZERO; n];
        let mut r = vec![Complex::ZERO; n];
        simd::fft_pass(&data[..n], &mut a, radix, s, &tw, conj);
        scalar::fft_pass(&data[..n], &mut r, radix, s, &tw, conj);
        close(&a, &r);
    }

    #[test]
    fn quantized_kernels_are_bit_exact_and_half_step_bounded(
        (extra, samples, win, sweeps) in (
            0usize..3,
            proptest::collection::vec(-32768i32..32768, 103..104),
            proptest::collection::vec(0i32..32768, 103..104),
            1usize..6,
        )
    ) {
        let n = 103 - 4 * extra - 1;
        let samples: Vec<i16> = samples[..n].iter().map(|&s| s as i16).collect();
        let win: Vec<i16> = win[..n].iter().map(|&w| w as i16).collect();

        // Bit-exact across dispatch paths, accumulated over several sweeps.
        let mut acc_a = vec![0i32; n];
        let mut acc_r = vec![0i32; n];
        for _ in 0..sweeps {
            simd::window_accum_q(&mut acc_a, &samples, &win);
            scalar::window_accum_q(&mut acc_r, &samples, &win);
        }
        prop_assert_eq!(&acc_a, &acc_r);

        // Half-step bound: mulhrs rounds (s·w)/2^15 to nearest, so each
        // accumulated term sits within 0.5 of the exact product and the
        // sweep sum within 0.5·sweeps.
        for (i, &q) in acc_a.iter().enumerate() {
            let exact = sweeps as f64 * (samples[i] as f64 * win[i] as f64) / 32768.0;
            prop_assert!(
                (q as f64 - exact).abs() <= 0.5 * sweeps as f64 + 1e-9,
                "element {}: accumulated {} vs exact {}",
                i, q, exact
            );
        }
    }
}
