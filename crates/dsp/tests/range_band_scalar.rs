//! The range-transform band against the reference DFT on the scalar
//! kernels. Its own test binary: the pin is process-wide and must win
//! before any transform work.

mod band_property;

use witrack_dsp::simd;

#[test]
fn range_band_matches_naive_dft_on_forced_scalar_path() {
    assert!(
        simd::force_scalar(),
        "the pin must win: no kernel may run before this test forces scalar"
    );
    band_property::band_matches_naive_dft(3);
}
