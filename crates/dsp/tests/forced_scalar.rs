//! CI coverage for the scalar fallback: pins the scalar kernel path for
//! this whole process (own test binary on purpose — the pin is
//! process-wide and must win before any transform work), then proves the
//! pipeline math still holds without SIMD. A host without AVX2/FMA runs
//! every other suite on this path anyway; this test makes that coverage
//! unconditional on vector-capable CI machines too.

use witrack_dsp::fft::dft_naive;
use witrack_dsp::{simd, Complex, Fft};

#[test]
fn forced_scalar_path_runs_the_whole_transform_stack() {
    assert!(
        simd::force_scalar(),
        "the pin must win: no kernel may run before this test forces scalar"
    );
    assert_eq!(simd::active(), simd::KernelPath::Scalar);
    assert_eq!(simd::active().lanes(), 1);

    // A power of two (16 = 4·4), every mixed radix with even and odd
    // strides (12 = 4·3, 50 = 2·5·5, 75 = 3·5·5, and the range profile's
    // 1250 = 2·5⁴), and Bluestein (254, whose inner convolution runs a
    // 512-point plan), each through the scratch entry point the range
    // profile uses and back through the inverse.
    for n in [16usize, 12, 50, 75, 1250, 254] {
        let data: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect();
        let plan = Fft::new(n);
        let mut buf = data.clone();
        let mut scratch = vec![Complex::ZERO; plan.scratch_len()];
        let fast = plan.forward_with_scratch(&mut buf, &mut scratch).to_vec();
        let naive = dft_naive(&data);
        for (i, (a, b)) in fast.iter().zip(&naive).enumerate() {
            assert!(
                (*a - *b).abs() <= 1e-9 * n as f64,
                "n={n} bin {i}: {a} vs {b}"
            );
        }
        let mut round = fast;
        plan.inverse(&mut round);
        for (i, (a, b)) in round.iter().zip(&data).enumerate() {
            assert!((*a - *b).abs() <= 1e-12 * n as f64, "n={n} sample {i}");
        }
    }
}
