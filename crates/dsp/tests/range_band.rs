//! The range-transform band against the reference DFT on the kernel
//! path this host dispatches to (AVX2+FMA where available).

mod band_property;

#[test]
fn range_band_matches_naive_dft() {
    band_property::band_matches_naive_dft(3);
}
