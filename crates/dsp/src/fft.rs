//! Fast Fourier transforms at any length.
//!
//! The FMCW receiver "takes an FFT of the received signal in baseband over
//! every sweep period" (paper §4.1, §7). A sweep is 2.5 ms sampled at
//! 1 MS/s = **2500 samples** — not a power of two. Zero-padding to 4096
//! would change the bin spacing away from the paper's 1/T_sweep = 400 Hz
//! (and thus away from the C/2B = 8.87 cm range bins of Eq. 3), so a plan
//! picks one of two algorithms by length:
//!
//! * **mixed radix** — Stockham autosort passes of radix 4, 2, 3 and 5
//!   ([`crate::simd::fft_pass`]) for every length whose prime factors are
//!   all ≤ 5, powers of two included. The range profile's packed
//!   1250 = 2·5⁴ points take this path: five passes, about 75k flops;
//! * **Bluestein's chirp-Z identity** for everything else, which rewrites
//!   an arbitrary-length DFT as a circular convolution evaluated with a
//!   power-of-two mixed-radix plan.
//!
//! A [`Fft`] value is an immutable *plan*: twiddles and (for Bluestein)
//! the pre-transformed chirp are all precomputed.
//! Per-call working memory is the caller's ([`Fft::forward_with_scratch`]),
//! so one plan can serve every thread and the hot path never allocates.

use crate::complex::Complex;
use std::f64::consts::PI;

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Forward,
    Inverse,
}

/// A reusable FFT plan for a fixed length `n ≥ 1`.
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    kind: PlanKind,
}

#[derive(Debug, Clone)]
enum PlanKind {
    /// `n` factors into 2, 3 and 5: Stockham passes.
    Mixed(MixedPlan),
    /// Any other `n`: Bluestein on top of a power-of-two plan of length `m`.
    Bluestein(Box<BluesteinPlan>),
}

/// One Stockham pass of a [`MixedPlan`].
#[derive(Debug, Clone)]
struct Pass {
    radix: usize,
    /// Stride: the product of the radices of the passes before this one.
    stride: usize,
    /// This pass's twiddles within [`MixedPlan::tw`], laid out as
    /// [`crate::simd::fft_pass`] reads them.
    tw: std::ops::Range<usize>,
}

#[derive(Debug, Clone)]
struct MixedPlan {
    passes: Vec<Pass>,
    tw: Vec<Complex>,
}

/// Bluestein's identity `jk = (j² + k² − (k−j)²)/2` turns the `n`-point
/// DFT into a pre-chirp multiply, a linear convolution with the chirp
/// `e^{+iπu²/n}`, and a post-chirp multiply. The convolution runs as a
/// circular one of power-of-two length `m ≥ 2n − 1`.
#[derive(Debug, Clone)]
struct BluesteinPlan {
    inner: MixedPlan,
    /// `e^{-iπj²/n}`, the input chirp.
    pre: Vec<Complex>,
    /// `e^{-iπk²/n} / m`: the output chirp with the inverse transform's
    /// 1/m normalization folded in.
    post: Vec<Complex>,
    /// Forward transform of the circularly laid-out kernel
    /// `b[u] = e^{+iπu²/n}`, `u ∈ (−n, n)`.
    kernel_fft: Vec<Complex>,
}

/// `e^{-iπ t²/den}` with `t²` reduced mod `2·den` so large `t` keeps full
/// precision (the exponential has period `2·den` in `t²`).
fn chirp(t: usize, den: usize) -> Complex {
    let j = (t * t) % (2 * den);
    Complex::cis(-PI * j as f64 / den as f64)
}

impl MixedPlan {
    /// The plan for `n`, or `None` when `n` has a prime factor above 5.
    /// Radix 4 and 2 run first: every later pass then has an even stride,
    /// which the vector kernel covers in whole register pairs.
    fn new(n: usize) -> Option<MixedPlan> {
        let mut radices = Vec::new();
        let mut rest = n;
        while rest.is_multiple_of(4) {
            radices.push(4);
            rest /= 4;
        }
        for r in [2, 3, 5] {
            while rest.is_multiple_of(r) {
                radices.push(r);
                rest /= r;
            }
        }
        if rest != 1 {
            return None;
        }
        let mut passes = Vec::with_capacity(radices.len());
        let mut tw = Vec::new();
        let (mut len, mut stride) = (n, 1);
        for radix in radices {
            let m = len / radix;
            let start = tw.len();
            for k in 1..radix {
                tw.extend((0..m).map(|p| {
                    let e = (p * k) % len;
                    Complex::cis(-2.0 * PI * e as f64 / len as f64)
                }));
            }
            passes.push(Pass {
                radix,
                stride,
                tw: start..tw.len(),
            });
            len = m;
            stride *= radix;
        }
        Some(MixedPlan { passes, tw })
    }

    /// Runs the passes ping-ponging between `data` and `work`; returns
    /// `true` when the spectrum ends in `work` (an odd pass count).
    fn transform(&self, data: &mut [Complex], work: &mut [Complex], dir: Direction) -> bool {
        let (mut src, mut dst) = (data, work);
        for pass in &self.passes {
            crate::simd::fft_pass(
                src,
                dst,
                pass.radix,
                pass.stride,
                &self.tw[pass.tw.clone()],
                dir == Direction::Inverse,
            );
            std::mem::swap(&mut src, &mut dst);
        }
        self.passes.len() % 2 == 1
    }
}

impl BluesteinPlan {
    fn new(n: usize) -> BluesteinPlan {
        let m = (2 * n - 1).next_power_of_two();
        let inner = MixedPlan::new(m).expect("powers of two factor into 4s and 2s");
        let pre: Vec<Complex> = (0..n).map(|j| chirp(j, n)).collect();
        let inv_m = 1.0 / m as f64;
        let post = pre.iter().map(|c| c.scale(inv_m)).collect();
        // Kernel b[u] = conj(chirp(u)); b is even in u, laid out circularly
        // over [0, n) ∪ (m − n, m). m ≥ 2n − 1 keeps the two arcs
        // disjoint, so the linear convolution is exact.
        let mut kernel = vec![Complex::ZERO; m];
        for (u, c) in pre.iter().enumerate() {
            kernel[u] = c.conj();
            if u > 0 {
                kernel[m - u] = c.conj();
            }
        }
        let mut work = vec![Complex::ZERO; m];
        let kernel_fft = if inner.transform(&mut kernel, &mut work, Direction::Forward) {
            work
        } else {
            kernel
        };
        BluesteinPlan {
            inner,
            pre,
            post,
            kernel_fft,
        }
    }

    /// The convolution length `m`.
    fn inner_len(&self) -> usize {
        self.kernel_fft.len()
    }

    /// Transforms `data` in place through `scratch`, which holds the
    /// convolution buffer and the inner plan's ping-pong buffer (`2m`
    /// points). `dir` conjugates both chirps and the kernel, turning the
    /// forward DFT into the inverse (un-normalized) one.
    fn transform(&self, data: &mut [Complex], scratch: &mut [Complex], dir: Direction) {
        let n = data.len();
        let conj = dir == Direction::Inverse;
        let (mut buf, mut work) = scratch[..2 * self.inner_len()].split_at_mut(self.inner_len());
        crate::simd::pointwise_mul_into(&mut buf[..n], data, &self.pre, conj);
        buf[n..].fill(Complex::ZERO);
        // Stockham passes leave both spectra in natural order, so the
        // pointwise product lines up; `buf` follows the result around.
        if self.inner.transform(buf, work, Direction::Forward) {
            std::mem::swap(&mut buf, &mut work);
        }
        // The kernel is even (b[u] = b[−u]), so conjugating its
        // *transform* — what the Inverse direction needs — is exactly the
        // transform of the conjugated kernel.
        crate::simd::pointwise_mul(buf, &self.kernel_fft, conj);
        if self.inner.transform(buf, work, Direction::Inverse) {
            std::mem::swap(&mut buf, &mut work);
        }
        crate::simd::pointwise_mul_into(data, &buf[..n], &self.post, conj);
    }
}

impl Fft {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Fft {
        assert!(n > 0, "FFT length must be positive");
        let kind = if let Some(plan) = MixedPlan::new(n) {
            PlanKind::Mixed(plan)
        } else {
            PlanKind::Bluestein(Box::new(BluesteinPlan::new(n)))
        };
        Fft { n, kind }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the plan length is zero (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Working memory, in complex points, that
    /// [`Fft::forward_with_scratch`] needs: `n` for mixed radix, twice the
    /// convolution length for Bluestein.
    pub fn scratch_len(&self) -> usize {
        match &self.kind {
            PlanKind::Mixed(_) => self.n,
            PlanKind::Bluestein(p) => 2 * p.inner_len(),
        }
    }

    /// Forward DFT `X[k] = Σ_n x[n] e^{-2πikn/N}` of `data`, with
    /// `scratch` as working memory. Returns the slice holding the
    /// spectrum: `data` itself, or the first `N` points of `scratch` when
    /// the mixed-radix passes end there — so no copy back is paid.
    /// `data` is clobbered either way. Never allocates.
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the plan length or `scratch`
    /// is shorter than [`Fft::scratch_len`].
    pub fn forward_with_scratch<'a>(
        &self,
        data: &'a mut [Complex],
        scratch: &'a mut [Complex],
    ) -> &'a [Complex] {
        assert_eq!(data.len(), self.n, "buffer length must match plan");
        assert!(scratch.len() >= self.scratch_len(), "scratch too short");
        if self.run(data, scratch, Direction::Forward) {
            &scratch[..self.n]
        } else {
            data
        }
    }

    /// Transforms `data`; returns `true` when the result is in `scratch`.
    fn run(&self, data: &mut [Complex], scratch: &mut [Complex], dir: Direction) -> bool {
        match &self.kind {
            PlanKind::Mixed(p) => p.transform(data, &mut scratch[..self.n], dir),
            PlanKind::Bluestein(p) => {
                p.transform(data, scratch, dir);
                false
            }
        }
    }

    /// In place through freshly allocated scratch — the convenience path.
    fn in_place(&self, data: &mut [Complex], dir: Direction) {
        assert_eq!(data.len(), self.n, "buffer length must match plan");
        let mut scratch = vec![Complex::ZERO; self.scratch_len()];
        if self.run(data, &mut scratch, dir) {
            data.copy_from_slice(&scratch[..self.n]);
        }
    }

    /// In-place forward DFT: `X[k] = Σ_n x[n] e^{-2πikn/N}`. Allocates
    /// its working memory; hot paths use [`Fft::forward_with_scratch`].
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the plan length.
    pub fn forward(&self, data: &mut [Complex]) {
        self.in_place(data, Direction::Forward);
    }

    /// In-place inverse DFT (with 1/N normalization), the exact inverse of
    /// [`Fft::forward`].
    pub fn inverse(&self, data: &mut [Complex]) {
        self.in_place(data, Direction::Inverse);
        let inv = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.scale(inv);
        }
    }

    /// Convenience: forward-transforms a real signal, allocating the output.
    pub fn forward_real(&self, signal: &[f64]) -> Vec<Complex> {
        assert_eq!(signal.len(), self.n, "buffer length must match plan");
        let mut out: Vec<Complex> = signal.iter().map(|&x| Complex::real(x)).collect();
        self.forward(&mut out);
        out
    }
}

/// Reference quadratic-time DFT, used by tests to validate the fast paths.
pub fn dft_naive(data: &[Complex]) -> Vec<Complex> {
    let n = data.len();
    (0..n)
        .map(|k| {
            (0..n)
                .map(|j| data[j] * Complex::cis(-2.0 * PI * (k * j) as f64 / n as f64))
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spectrum_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((*x - *y).abs() <= tol, "bin {i}: {x} vs {y}");
        }
    }

    fn impulse(n: usize, at: usize) -> Vec<Complex> {
        let mut v = vec![Complex::ZERO; n];
        v[at] = Complex::ONE;
        v
    }

    #[test]
    fn powers_of_two_match_naive_dft() {
        // Even and odd pass counts, and a lone radix-2 pass after the 4s.
        for n in [1usize, 2, 4, 8, 16, 64, 256, 2048] {
            let plan = Fft::new(n);
            assert!(matches!(plan.kind, PlanKind::Mixed(_)), "n={n}");
            let data: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let mut fast = data.clone();
            plan.forward(&mut fast);
            spectrum_close(&fast, &dft_naive(&data), 1e-9 * n as f64);
        }
    }

    #[test]
    fn mixed_radix_matches_naive_dft() {
        // Every radix, odd strides (no factor 2), and the packed range
        // profile's 1250 = 2·5⁴, both directions.
        for n in [
            3usize, 5, 6, 9, 10, 12, 15, 20, 25, 45, 50, 60, 75, 120, 1250,
        ] {
            let plan = Fft::new(n);
            assert!(matches!(plan.kind, PlanKind::Mixed(_)), "n={n}");
            let data: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).cos(), (i as f64 * 0.11).sin()))
                .collect();
            let mut fast = data.clone();
            plan.forward(&mut fast);
            spectrum_close(&fast, &dft_naive(&data), 1e-9 * n as f64);
            plan.inverse(&mut fast);
            spectrum_close(&fast, &data, 1e-12 * n as f64);
        }
    }

    #[test]
    fn bluestein_matches_naive_dft() {
        for n in [7usize, 14, 21, 127, 254, 1001] {
            let plan = Fft::new(n);
            assert!(matches!(plan.kind, PlanKind::Bluestein(_)), "n={n}");
            let data: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).cos(), (i as f64 * 0.11).sin()))
                .collect();
            let mut fast = data.clone();
            plan.forward(&mut fast);
            spectrum_close(&fast, &dft_naive(&data), 1e-8 * n as f64);
            plan.inverse(&mut fast);
            spectrum_close(&fast, &data, 1e-10 * n as f64);
        }
    }

    #[test]
    fn sweep_length_2500_matches_naive() {
        // The exact WiTrack sweep length.
        let n = 2500;
        let data: Vec<Complex> = (0..n)
            .map(|i| Complex::real((2.0 * PI * 40.0 * i as f64 / n as f64).cos()))
            .collect();
        let mut fast = data.clone();
        Fft::new(n).forward(&mut fast);
        let slow = dft_naive(&data);
        spectrum_close(&fast, &slow, 1e-6 * n as f64);
        // Real tone at cycle 40 → peaks at bins 40 and n−40; check the
        // positive-frequency half only.
        let peak = fast[..n / 2].iter().map(|z| z.abs()).enumerate().fold(
            (0usize, 0.0f64),
            |acc, (i, m)| if m > acc.1 { (i, m) } else { acc },
        );
        assert_eq!(peak.0, 40);
        assert!((peak.1 - n as f64 / 2.0).abs() < 1e-6 * n as f64);
    }

    #[test]
    fn inverse_round_trips() {
        for n in [8usize, 100, 625, 1024] {
            let data: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.5).cos()))
                .collect();
            let mut buf = data.clone();
            let plan = Fft::new(n);
            plan.forward(&mut buf);
            plan.inverse(&mut buf);
            spectrum_close(&buf, &data, 1e-10 * n as f64);
        }
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        for n in [16usize, 30] {
            let mut buf = impulse(n, 0);
            Fft::new(n).forward(&mut buf);
            for z in &buf {
                assert!((z.abs() - 1.0).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn shifted_impulse_has_linear_phase() {
        let n = 32;
        let shift = 3;
        let mut buf = impulse(n, shift);
        Fft::new(n).forward(&mut buf);
        for (k, z) in buf.iter().enumerate() {
            let expected = Complex::cis(-2.0 * PI * (k * shift) as f64 / n as f64);
            assert!((*z - expected).abs() < 1e-10);
        }
    }

    #[test]
    fn linearity_holds() {
        let n = 50;
        let a: Vec<Complex> = (0..n)
            .map(|i| Complex::real((i as f64 * 0.2).sin()))
            .collect();
        let b: Vec<Complex> = (0..n)
            .map(|i| Complex::real((i as f64 * 0.9).cos()))
            .collect();
        let plan = Fft::new(n);
        let mut fa = a.clone();
        plan.forward(&mut fa);
        let mut fb = b.clone();
        plan.forward(&mut fb);
        let mut fab: Vec<Complex> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| *x * 2.0 + *y * -0.5)
            .collect();
        plan.forward(&mut fab);
        let combined: Vec<Complex> = fa
            .iter()
            .zip(&fb)
            .map(|(x, y)| *x * 2.0 + *y * -0.5)
            .collect();
        spectrum_close(&fab, &combined, 1e-9 * n as f64);
    }

    #[test]
    fn parseval_energy_preserved() {
        let n = 2500;
        let data: Vec<Complex> = (0..n)
            .map(|i| Complex::real(((i * i) as f64 * 0.001).sin()))
            .collect();
        let time_energy: f64 = data.iter().map(|z| z.norm_sq()).sum();
        let mut buf = data;
        Fft::new(n).forward(&mut buf);
        let freq_energy: f64 = buf.iter().map(|z| z.norm_sq()).sum::<f64>() / n as f64;
        assert!(
            (time_energy - freq_energy).abs() < 1e-6 * time_energy.max(1.0),
            "{time_energy} vs {freq_energy}"
        );
    }

    #[test]
    fn forward_real_helper() {
        let n = 64;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * 5.0 * i as f64 / n as f64).sin())
            .collect();
        let spec = Fft::new(n).forward_real(&signal);
        // Real sine at cycle 5: peaks at bins 5 and n−5.
        let mags: Vec<f64> = spec.iter().map(|z| z.abs()).collect();
        assert!(mags[5] > 0.45 * n as f64);
        assert!(mags[n - 5] > 0.45 * n as f64);
    }

    #[test]
    fn forward_with_scratch_matches_forward() {
        // An odd and an even mixed-radix pass count, and Bluestein: the
        // returned slice holds the spectrum wherever the passes left it.
        for n in [16usize, 50, 60, 127] {
            let plan = Fft::new(n);
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64).cos(), (i as f64 * 0.3).sin()))
                .collect();
            let mut in_place = input.clone();
            plan.forward(&mut in_place);
            let mut data = input.clone();
            // Longer than needed: a shared per-thread buffer usually is.
            let mut scratch = vec![Complex::ZERO; plan.scratch_len() + 3];
            let spec = plan.forward_with_scratch(&mut data, &mut scratch);
            spectrum_close(spec, &in_place, 0.0);
        }
    }

    #[test]
    #[should_panic]
    fn zero_length_panics() {
        let _ = Fft::new(0);
    }

    #[test]
    #[should_panic]
    fn wrong_buffer_length_panics() {
        let plan = Fft::new(8);
        let mut buf = vec![Complex::ZERO; 4];
        plan.forward(&mut buf);
    }
}
