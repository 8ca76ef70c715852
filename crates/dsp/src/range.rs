//! The §7 range transform: bins `0..keep` of the `n`-point DFT of a real
//! frame.
//!
//! The FMCW receiver needs only the range bins an indoor scene can occupy
//! — roughly 200 of the sweep's 2500 (paper §4.1: beat frequencies map to
//! round-trip distance, and the profiler truncates at `max_round_trip_m`).
//! The frame is real, so even `n` packs its even and odd samples into the
//! real and imaginary parts of `n/2` complex points, runs one `n/2`-point
//! [`Fft`] — for the paper's 2500-sample sweep a 1250 = 2·5⁴-point
//! mixed-radix plan — and unpacks only the kept bins. Odd `n` (or a band
//! wider than `n/2`) transforms the real frame at full length.
//!
//! A [`RangeTransform`] is an immutable plan shared by shape through
//! [`RangeTransform::shared`]; its working memory is one per-thread
//! buffer, so one plan serves every antenna on every shard thread and the
//! steady-state path never allocates.

use crate::complex::Complex;
use crate::fft::Fft;
use crate::plan_cache::PlanCache;
use std::cell::RefCell;
use std::f64::consts::PI;
use std::sync::{Arc, OnceLock};

/// Bins `0..keep` of the `n`-point DFT of a real frame — the §7 range
/// transform. An immutable plan, shared by every profiler at one shape.
#[derive(Debug)]
pub struct RangeTransform {
    n: usize,
    keep: usize,
    /// `n/2` points when packed, `n` otherwise.
    fft: Fft,
    /// `W_n^k / 2 = e^{-2πik/n} / 2` for `k < keep`, recombining the
    /// packed spectrum; empty for the full-length path.
    unpack: Vec<Complex>,
}

thread_local! {
    /// The transform's working memory on this thread: the frame as
    /// complex points, then the FFT's scratch. Sized on first use to the
    /// largest plan the thread runs.
    static WORK: RefCell<Vec<Complex>> = const { RefCell::new(Vec::new()) };
}

impl RangeTransform {
    /// Builds the transform of real `n`-sample frames to `keep` bins. Even
    /// `n` with `keep ≤ n/2` takes the packed half-length path.
    ///
    /// # Panics
    /// Panics if `keep == 0` or `keep > n`.
    pub fn new(n: usize, keep: usize) -> RangeTransform {
        assert!(keep > 0, "the transform must keep at least one bin");
        assert!(keep <= n, "cannot keep more bins than the DFT has");
        if n.is_multiple_of(2) && keep <= n / 2 {
            let unpack = (0..keep)
                .map(|k| Complex::cis(-2.0 * PI * k as f64 / n as f64).scale(0.5))
                .collect();
            RangeTransform {
                n,
                keep,
                fft: Fft::new(n / 2),
                unpack,
            }
        } else {
            RangeTransform {
                n,
                keep,
                fft: Fft::new(n),
                unpack: Vec::new(),
            }
        }
    }

    /// The process-shared transform for `(n, keep)`: built on first
    /// request, then handed out as clones of one `Arc` for as long as any
    /// user holds it.
    pub fn shared(n: usize, keep: usize) -> Arc<RangeTransform> {
        static SHARED: OnceLock<PlanCache<(usize, usize), RangeTransform>> = OnceLock::new();
        SHARED
            .get_or_init(PlanCache::new)
            .get_or_build((n, keep), || RangeTransform::new(n, keep))
    }

    /// The length of the FFT each call runs (`n/2` when packed).
    pub fn fft_len(&self) -> usize {
        self.fft.len()
    }

    /// `out[k] = Σ_j frame[j]·e^{-2πijk/n}` for `k < keep`.
    ///
    /// # Panics
    /// Panics if `frame.len() != n` or `out.len() != keep`.
    pub fn transform_into(&self, frame: &[f64], out: &mut [Complex]) {
        assert_eq!(frame.len(), self.n, "frame length must match the plan");
        self.run(out, |buf| {
            if self.unpack.is_empty() {
                for (b, &x) in buf.iter_mut().zip(frame) {
                    *b = Complex::real(x);
                }
            } else {
                for (b, x) in buf.iter_mut().zip(frame.chunks_exact(2)) {
                    *b = Complex::new(x[0], x[1]);
                }
            }
        });
    }

    /// [`RangeTransform::transform_into`] of the fixed-point frame
    /// `frame_q[j] · scale`, dequantized while it is packed, so no `f64`
    /// copy of the frame ever exists.
    ///
    /// # Panics
    /// Panics if `frame_q.len() != n` or `out.len() != keep`.
    pub fn transform_q_into(&self, frame_q: &[i32], scale: f64, out: &mut [Complex]) {
        assert_eq!(frame_q.len(), self.n, "frame length must match the plan");
        self.run(out, |buf| {
            if self.unpack.is_empty() {
                for (b, &q) in buf.iter_mut().zip(frame_q) {
                    *b = Complex::real(q as f64 * scale);
                }
            } else {
                for (b, q) in buf.iter_mut().zip(frame_q.chunks_exact(2)) {
                    *b = Complex::new(q[0] as f64 * scale, q[1] as f64 * scale);
                }
            }
        });
    }

    /// Fills the per-thread frame buffer with `fill`, transforms it, and
    /// writes the kept bins into `out`.
    fn run(&self, out: &mut [Complex], fill: impl FnOnce(&mut [Complex])) {
        assert_eq!(out.len(), self.keep, "output length must match the plan");
        let len = self.fft.len();
        let need = len + self.fft.scratch_len();
        WORK.with_borrow_mut(|work| {
            if work.len() < need {
                work.resize(need, Complex::ZERO);
            }
            let (buf, scratch) = work[..need].split_at_mut(len);
            fill(buf);
            let spec = self.fft.forward_with_scratch(buf, scratch);
            if self.unpack.is_empty() {
                out.copy_from_slice(&spec[..self.keep]);
            } else {
                unpack(out, spec, &self.unpack);
            }
        });
    }
}

/// Even/odd recombination of the packed half-length spectrum `z` into the
/// kept bins: `E[k] = (Z[k] + conj(Z[−k]))/2`,
/// `O[k] = −i(Z[k] − conj(Z[−k]))/2`, `X[k] = E[k] + W_n^k·O[k]`, with
/// `w[k] = W_n^k/2` carrying the odd term's half and `k < keep ≤ n/2`.
fn unpack(out: &mut [Complex], z: &[Complex], w: &[Complex]) {
    let h = z.len();
    for (k, (o, w)) in out.iter_mut().zip(w).enumerate() {
        let zk = z[k];
        let zr = z[if k == 0 { 0 } else { h - k }].conj();
        let e = (zk + zr).scale(0.5);
        let od = Complex::new(0.0, -1.0) * (zk - zr); // 2·O[k]
        *o = e + *w * od;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transform_length_follows_the_frame_shape() {
        // The paper sweep packs into 1250 = 2·5⁴ points; odd frames and
        // bands wider than n/2 transform at full length.
        assert_eq!(RangeTransform::new(2500, 200).fft_len(), 1250);
        assert_eq!(RangeTransform::new(2501, 200).fft_len(), 2501);
        assert_eq!(RangeTransform::new(8, 5).fft_len(), 8);
    }

    #[test]
    #[should_panic]
    fn zero_keep_panics() {
        let _ = RangeTransform::new(8, 0);
    }

    #[test]
    #[should_panic]
    fn keep_beyond_n_panics() {
        let _ = RangeTransform::new(8, 9);
    }
}
