//! Runtime-dispatched SIMD kernels for the DSP hot path.
//!
//! Every per-frame inner loop of the range-profile stage funnels through
//! this module: the mixed-radix Stockham FFT passes, the fixed-point
//! (i16/i32) windowed accumulate that keeps wire-quantized sweeps in
//! integer form until the transform packs them, and the complex
//! pointwise multiplies of the Bluestein FFT. Each kernel exists twice:
//!
//! * a **scalar** reference implementation (in [`scalar`]), always
//!   compiled, used directly on non-x86 hosts and kept exercised in CI by
//!   the forced-fallback test; and
//! * an **AVX2+FMA** implementation processing two `f64` complex values
//!   (four lanes) or sixteen `i16` lanes per instruction, compiled behind
//!   `target_feature` and reached only after a runtime
//!   `is_x86_feature_detected!` check.
//!
//! The path is selected **once per process** (first kernel call, i.e. at
//! plan build) and recorded in the global telemetry registry: the
//! `dsp/simd_lanes` gauge holds the selected `f64` lane width (4 for
//! AVX2, 1 for scalar) and the `dsp/scalar_fallbacks` counter increments
//! when selection lands on the scalar path — either because the host
//! lacks AVX2/FMA or because `WITRACK_DSP_FORCE_SCALAR=1` (or
//! [`force_scalar`]) pinned it for testing. Numerically the AVX2 float
//! kernels differ from scalar only by FMA rounding (well inside the 1e-9
//! DFT-equivalence suites); the fixed-point kernels are **bit-exact**
//! across paths, since both round with the same `(a·b + 2^14) >> 15`
//! midpoint rule.
//!
//! This module is the one place in the crate allowed to use `unsafe`
//! (raw intrinsics); the crate-level lint downgrade is scoped here and
//! every unsafe block sits behind the feature-detected dispatch above it.
#![allow(unsafe_code)]

use crate::complex::Complex;
use std::sync::OnceLock;

/// Which kernel implementation the process selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// AVX2 + FMA intrinsics: 2 complex `f64` (4 lanes) / 16 `i16` lanes
    /// per operation.
    Avx2Fma,
    /// Portable scalar reference path.
    Scalar,
}

impl KernelPath {
    /// `f64` lanes the path processes per operation (what the
    /// `dsp/simd_lanes` gauge reports).
    pub fn lanes(self) -> usize {
        match self {
            KernelPath::Avx2Fma => 4,
            KernelPath::Scalar => 1,
        }
    }
}

static PATH: OnceLock<KernelPath> = OnceLock::new();

/// Publishes the selected path to the global telemetry registry.
fn record_selection(path: KernelPath) {
    let reg = witrack_obs::global();
    reg.gauge("dsp", "simd_lanes", witrack_obs::Label::Global)
        .set(path.lanes() as i64);
    let fallbacks = reg.counter("dsp", "scalar_fallbacks", witrack_obs::Label::Global);
    if path == KernelPath::Scalar {
        fallbacks.inc();
    }
}

fn select() -> KernelPath {
    if std::env::var_os("WITRACK_DSP_FORCE_SCALAR").is_some_and(|v| v != "0") {
        return KernelPath::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return KernelPath::Avx2Fma;
        }
    }
    KernelPath::Scalar
}

/// The kernel path this process runs. Selected on first call and fixed
/// for the process lifetime — mixed-path results within one pipeline
/// would make numerical regressions irreproducible.
pub fn active() -> KernelPath {
    *PATH.get_or_init(|| {
        let p = select();
        record_selection(p);
        p
    })
}

/// Pins the scalar path for this process, for tests that must exercise
/// the non-SIMD kernels on SIMD-capable CI hosts. Returns `false` when a
/// kernel call (or another caller) already fixed the path. Must be called
/// before any transform work for the pin to win.
pub fn force_scalar() -> bool {
    let won = PATH.set(KernelPath::Scalar).is_ok();
    if won {
        record_selection(KernelPath::Scalar);
    }
    won
}

/// `buf[i] *= k[i]` (conjugating `k` when `conj` — the inverse-direction
/// Bluestein kernel multiply).
pub fn pointwise_mul(buf: &mut [Complex], k: &[Complex], conj: bool) {
    debug_assert_eq!(buf.len(), k.len());
    match active() {
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2Fma => unsafe { avx2::pointwise_mul(buf, k, conj) },
        _ => scalar::pointwise_mul(buf, k, conj),
    }
}

/// `out[i] = a[i] * b[i]` (conjugating `b` when `conj`) — the post-chirp
/// multiply writing the convolution output.
pub fn pointwise_mul_into(out: &mut [Complex], a: &[Complex], b: &[Complex], conj: bool) {
    debug_assert_eq!(out.len(), a.len());
    debug_assert_eq!(out.len(), b.len());
    match active() {
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2Fma => unsafe { avx2::pointwise_mul_into(out, a, b, conj) },
        _ => scalar::pointwise_mul_into(out, a, b, conj),
    }
}

/// Fixed-point windowed accumulate, the front half of the quantized
/// pipeline: `accum[i] += mulhrs(samples[i], win_q15[i])`, where `mulhrs`
/// is the Q15 rounding multiply `(a·b + 2^14) >> 15`. Windowing happens
/// *before* accumulation so the running sum stays exact in `i32`
/// (`sweeps_per_frame · 32767` is far below `i32::MAX`). Bit-exact
/// between the scalar and AVX2 paths.
pub fn window_accum_q(accum: &mut [i32], samples: &[i16], win_q15: &[i16]) {
    debug_assert_eq!(accum.len(), samples.len());
    debug_assert_eq!(accum.len(), win_q15.len());
    match active() {
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2Fma => unsafe { avx2::window_accum_q(accum, samples, win_q15) },
        _ => scalar::window_accum_q(accum, samples, win_q15),
    }
}

/// One Stockham autosort pass of a mixed-radix FFT, out of place from
/// `src` to `dst`. With `n = src.len()`, `radix` `r ∈ {2, 3, 4, 5}`,
/// stride `s` and `m = n / (r·s)`, it maps, for every `p < m` and
/// `q < s`,
///
/// `dst[q + s·(r·p + k)] = w^{p·k} · Σ_j src[q + s·(p + j·m)]·ω_r^{j·k}`
///
/// where `ω_r = e^{-2πi/r}`, `w = e^{-2πi/(r·m)}`, and `tw[(k−1)·m + p]`
/// holds `w^{p·k}` for `1 ≤ k < r` (all roots conjugated when `conj`, for
/// the inverse direction; the `p = 0` entries are 1, and the vector kernel
/// skips their multiplies). Running the passes of a factorization of `n`
/// with `s = 1, r₁, r₁·r₂, …` leaves the DFT in natural order — no
/// bit-reversal pass, and each pass is one streaming read and write.
///
/// # Panics
/// Panics if `radix` is not 2–5, `src` and `dst` differ in length, `n` is
/// not a multiple of `radix · s`, or `tw` is shorter than `(radix−1)·m`.
pub fn fft_pass(
    src: &[Complex],
    dst: &mut [Complex],
    radix: usize,
    s: usize,
    tw: &[Complex],
    conj: bool,
) {
    assert!((2..=5).contains(&radix), "radix {radix} has no kernel");
    assert_eq!(src.len(), dst.len(), "pass is out of place at one length");
    assert!(s > 0 && src.len().is_multiple_of(radix * s));
    assert!(tw.len() >= (radix - 1) * (src.len() / (radix * s)));
    match active() {
        // SAFETY: `active()` only selects Avx2Fma after detecting avx2 and
        // fma, and the asserts above bound every index the kernel forms.
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2Fma => unsafe { avx2::fft_pass(src, dst, radix, s, tw, conj) },
        _ => scalar::fft_pass(src, dst, radix, s, tw, conj),
    }
}

/// Scalar reference implementations. Public so the property suites (and
/// the forced-fallback CI test) can pin SIMD results against them
/// regardless of which path the process selected.
pub mod scalar {
    use super::Complex;

    /// Exact Q15 rounding multiply — the semantics of
    /// `_mm256_mulhrs_epi16` on lanes that cannot overflow (window
    /// coefficients are non-negative, so the `−32768 · −32768` corner
    /// never occurs).
    #[inline]
    pub fn mulhrs(a: i16, b: i16) -> i16 {
        (((a as i32 * b as i32) + (1 << 14)) >> 15) as i16
    }

    /// See [`super::pointwise_mul`].
    pub fn pointwise_mul(buf: &mut [Complex], k: &[Complex], conj: bool) {
        if conj {
            for (b, k) in buf.iter_mut().zip(k) {
                *b *= k.conj();
            }
        } else {
            for (b, k) in buf.iter_mut().zip(k) {
                *b *= *k;
            }
        }
    }

    /// See [`super::pointwise_mul_into`].
    pub fn pointwise_mul_into(out: &mut [Complex], a: &[Complex], b: &[Complex], conj: bool) {
        if conj {
            for (o, (x, y)) in out.iter_mut().zip(a.iter().zip(b)) {
                *o = *x * y.conj();
            }
        } else {
            for (o, (x, y)) in out.iter_mut().zip(a.iter().zip(b)) {
                *o = *x * *y;
            }
        }
    }

    /// See [`super::window_accum_q`].
    pub fn window_accum_q(accum: &mut [i32], samples: &[i16], win_q15: &[i16]) {
        for (a, (&s, &w)) in accum.iter_mut().zip(samples.iter().zip(win_q15)) {
            *a += mulhrs(s, w) as i32;
        }
    }

    /// `cos(2π/3)`, `sin(2π/3)`: the radix-3 butterfly constants.
    pub(super) const C3: f64 = -0.5;
    pub(super) const S3: f64 = 0.866_025_403_784_438_6;
    /// `cos(2π/5)`, `cos(4π/5)`, `sin(2π/5)`, `sin(4π/5)`: radix 5.
    pub(super) const C51: f64 = 0.309_016_994_374_947_45;
    pub(super) const C52: f64 = -0.809_016_994_374_947_5;
    pub(super) const S51: f64 = 0.951_056_516_295_153_5;
    pub(super) const S52: f64 = 0.587_785_252_292_473_1;

    /// `v·(−i)`, or `v·(+i)` for the inverse direction.
    #[inline(always)]
    fn rot<const CONJ: bool>(v: Complex) -> Complex {
        if CONJ {
            Complex::new(-v.im, v.re)
        } else {
            Complex::new(v.im, -v.re)
        }
    }

    /// The `R`-point DFT of `a` (conjugated roots when `CONJ`).
    #[inline(always)]
    fn bfly<const R: usize, const CONJ: bool>(a: [Complex; R]) -> [Complex; R] {
        let mut b = [Complex::ZERO; R];
        match R {
            2 => {
                b[0] = a[0] + a[1];
                b[1] = a[0] - a[1];
            }
            3 => {
                let t = a[1] + a[2];
                let m = a[0] + t.scale(C3);
                let n = rot::<CONJ>((a[1] - a[2]).scale(S3));
                b[0] = a[0] + t;
                b[1] = m + n;
                b[2] = m - n;
            }
            4 => {
                let (u0, u1) = (a[0] + a[2], a[0] - a[2]);
                let (u2, u3) = (a[1] + a[3], rot::<CONJ>(a[1] - a[3]));
                b[0] = u0 + u2;
                b[1] = u1 + u3;
                b[2] = u0 - u2;
                b[3] = u1 - u3;
            }
            5 => {
                let (t1, t2) = (a[1] + a[4], a[2] + a[3]);
                let (d1, d2) = (a[1] - a[4], a[2] - a[3]);
                let m1 = a[0] + t1.scale(C51) + t2.scale(C52);
                let m2 = a[0] + t1.scale(C52) + t2.scale(C51);
                let n1 = rot::<CONJ>(d1.scale(S51) + d2.scale(S52));
                let n2 = rot::<CONJ>(d1.scale(S52) - d2.scale(S51));
                b[0] = a[0] + t1 + t2;
                b[1] = m1 + n1;
                b[2] = m2 + n2;
                b[3] = m2 - n2;
                b[4] = m1 - n1;
            }
            _ => unreachable!("radix {R} has no butterfly"),
        }
        b
    }

    /// One `(p, q)` butterfly of a [`super::fft_pass`]: the whole scalar
    /// pass, and the vector kernel's odd tail.
    #[inline(always)]
    pub(super) fn fft_point<const R: usize, const CONJ: bool>(
        src: &[Complex],
        dst: &mut [Complex],
        s: usize,
        m: usize,
        p: usize,
        q: usize,
        tw: &[Complex],
    ) {
        let a: [Complex; R] = std::array::from_fn(|j| src[q + s * (p + j * m)]);
        let b = bfly::<R, CONJ>(a);
        dst[q + s * R * p] = b[0];
        for k in 1..R {
            let w = tw[(k - 1) * m + p];
            dst[q + s * (R * p + k)] = b[k] * if CONJ { w.conj() } else { w };
        }
    }

    fn pass<const R: usize, const CONJ: bool>(
        src: &[Complex],
        dst: &mut [Complex],
        s: usize,
        tw: &[Complex],
    ) {
        let m = src.len() / (R * s);
        if s == 1 {
            // A literal stride: with a runtime one, the per-`p` setup of
            // the one-trip `q` loop costs more than the butterfly.
            for p in 0..m {
                fft_point::<R, CONJ>(src, dst, 1, m, p, 0, tw);
            }
            return;
        }
        for p in 0..m {
            for q in 0..s {
                fft_point::<R, CONJ>(src, dst, s, m, p, q, tw);
            }
        }
    }

    /// See [`super::fft_pass`].
    pub fn fft_pass(
        src: &[Complex],
        dst: &mut [Complex],
        radix: usize,
        s: usize,
        tw: &[Complex],
        conj: bool,
    ) {
        match (radix, conj) {
            (2, false) => pass::<2, false>(src, dst, s, tw),
            (2, true) => pass::<2, true>(src, dst, s, tw),
            (3, false) => pass::<3, false>(src, dst, s, tw),
            (3, true) => pass::<3, true>(src, dst, s, tw),
            (4, false) => pass::<4, false>(src, dst, s, tw),
            (4, true) => pass::<4, true>(src, dst, s, tw),
            (5, false) => pass::<5, false>(src, dst, s, tw),
            (5, true) => pass::<5, true>(src, dst, s, tw),
            _ => panic!("radix {radix} has no kernel"),
        }
    }
}

/// AVX2 + FMA implementations. Everything here requires the caller to
/// have verified `avx2` and `fma` support (the dispatchers above only
/// take this branch after `is_x86_feature_detected!`). `Complex` is
/// `#[repr(C)]` `{ re: f64, im: f64 }`, so a `&[Complex]` is a valid
/// `[re, im, re, im, …]` `f64` sequence and one 256-bit register holds
/// two complex values.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Complex;
    use core::arch::x86_64::*;

    /// Complex multiply of register pairs `a·b`, both `[re0, im0, re1,
    /// im1]`. `CONJ_B` selects `a·conj(b)` at compile time.
    ///
    /// even lane: `ar·br − ai·bi` (or `+` conjugated), odd lane:
    /// `ai·br + ar·bi` (or `−`), via `fmaddsub(a, dup(br), aswap·dup(bi))`.
    #[inline(always)]
    unsafe fn cmul<const CONJ_B: bool>(a: __m256d, b: __m256d) -> __m256d {
        let b_re = _mm256_movedup_pd(b); // [br0, br0, br1, br1]
        let mut b_im = _mm256_permute_pd(b, 0xF); // [bi0, bi0, bi1, bi1]
        if CONJ_B {
            b_im = _mm256_xor_pd(b_im, _mm256_set1_pd(-0.0));
        }
        let a_swap = _mm256_permute_pd(a, 0x5); // [ai0, ar0, ai1, ar1]
        _mm256_fmaddsub_pd(a, b_re, _mm256_mul_pd(a_swap, b_im))
    }

    #[inline(always)]
    unsafe fn load(p: *const Complex) -> __m256d {
        _mm256_loadu_pd(p as *const f64)
    }

    #[inline(always)]
    unsafe fn store(p: *mut Complex, v: __m256d) {
        _mm256_storeu_pd(p as *mut f64, v)
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn pointwise_mul(buf: &mut [Complex], k: &[Complex], conj: bool) {
        let n = buf.len().min(k.len());
        let pairs = n / 2;
        let bp = buf.as_mut_ptr();
        let kp = k.as_ptr();
        if conj {
            for i in 0..pairs {
                store(
                    bp.add(2 * i),
                    cmul::<true>(load(bp.add(2 * i)), load(kp.add(2 * i))),
                );
            }
        } else {
            for i in 0..pairs {
                store(
                    bp.add(2 * i),
                    cmul::<false>(load(bp.add(2 * i)), load(kp.add(2 * i))),
                );
            }
        }
        super::scalar::pointwise_mul(&mut buf[2 * pairs..n], &k[2 * pairs..n], conj);
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn pointwise_mul_into(
        out: &mut [Complex],
        a: &[Complex],
        b: &[Complex],
        conj: bool,
    ) {
        let n = out.len();
        let pairs = n / 2;
        let op = out.as_mut_ptr();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        if conj {
            for i in 0..pairs {
                store(
                    op.add(2 * i),
                    cmul::<true>(load(ap.add(2 * i)), load(bp.add(2 * i))),
                );
            }
        } else {
            for i in 0..pairs {
                store(
                    op.add(2 * i),
                    cmul::<false>(load(ap.add(2 * i)), load(bp.add(2 * i))),
                );
            }
        }
        super::scalar::pointwise_mul_into(
            &mut out[2 * pairs..],
            &a[2 * pairs..n],
            &b[2 * pairs..n],
            conj,
        );
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn window_accum_q(accum: &mut [i32], samples: &[i16], win_q15: &[i16]) {
        let n = accum.len();
        let blocks = n / 16;
        let ap = accum.as_mut_ptr();
        let sp = samples.as_ptr();
        let wp = win_q15.as_ptr();
        for i in 0..blocks {
            let s = _mm256_loadu_si256(sp.add(16 * i) as *const __m256i);
            let w = _mm256_loadu_si256(wp.add(16 * i) as *const __m256i);
            let p = _mm256_mulhrs_epi16(s, w); // 16 × round(s·w / 2^15)
            let lo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(p));
            let hi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(p, 1));
            let a0 = _mm256_loadu_si256(ap.add(16 * i) as *const __m256i);
            let a1 = _mm256_loadu_si256(ap.add(16 * i + 8) as *const __m256i);
            _mm256_storeu_si256(ap.add(16 * i) as *mut __m256i, _mm256_add_epi32(a0, lo));
            _mm256_storeu_si256(ap.add(16 * i + 8) as *mut __m256i, _mm256_add_epi32(a1, hi));
        }
        super::scalar::window_accum_q(
            &mut accum[16 * blocks..],
            &samples[16 * blocks..n],
            &win_q15[16 * blocks..n],
        );
    }

    /// `v·(−i)` per complex lane, or `v·(+i)` when `CONJ`.
    #[inline(always)]
    unsafe fn rot<const CONJ: bool>(v: __m256d) -> __m256d {
        let swapped = _mm256_permute_pd(v, 0x5); // [im0, re0, im1, re1]
        let sign = if CONJ {
            _mm256_set_pd(0.0, -0.0, 0.0, -0.0) // → [−im, re]
        } else {
            _mm256_set_pd(-0.0, 0.0, -0.0, 0.0) // → [im, −re]
        };
        _mm256_xor_pd(swapped, sign)
    }

    /// Two `R`-point DFTs at once, one per 128-bit half: the vector twin
    /// of `scalar::bfly` (same formulas, with FMA contractions).
    #[inline(always)]
    unsafe fn bfly<const R: usize, const CONJ: bool>(a: [__m256d; R]) -> [__m256d; R] {
        use super::scalar::{C3, C51, C52, S3, S51, S52};
        let mut b = [_mm256_setzero_pd(); R];
        match R {
            2 => {
                b[0] = _mm256_add_pd(a[0], a[1]);
                b[1] = _mm256_sub_pd(a[0], a[1]);
            }
            3 => {
                let t = _mm256_add_pd(a[1], a[2]);
                let m = _mm256_fmadd_pd(_mm256_set1_pd(C3), t, a[0]);
                let n = rot::<CONJ>(_mm256_mul_pd(_mm256_set1_pd(S3), _mm256_sub_pd(a[1], a[2])));
                b[0] = _mm256_add_pd(a[0], t);
                b[1] = _mm256_add_pd(m, n);
                b[2] = _mm256_sub_pd(m, n);
            }
            4 => {
                let u0 = _mm256_add_pd(a[0], a[2]);
                let u1 = _mm256_sub_pd(a[0], a[2]);
                let u2 = _mm256_add_pd(a[1], a[3]);
                let u3 = rot::<CONJ>(_mm256_sub_pd(a[1], a[3]));
                b[0] = _mm256_add_pd(u0, u2);
                b[1] = _mm256_add_pd(u1, u3);
                b[2] = _mm256_sub_pd(u0, u2);
                b[3] = _mm256_sub_pd(u1, u3);
            }
            5 => {
                let (c51, c52) = (_mm256_set1_pd(C51), _mm256_set1_pd(C52));
                let (s51, s52) = (_mm256_set1_pd(S51), _mm256_set1_pd(S52));
                let t1 = _mm256_add_pd(a[1], a[4]);
                let t2 = _mm256_add_pd(a[2], a[3]);
                let d1 = _mm256_sub_pd(a[1], a[4]);
                let d2 = _mm256_sub_pd(a[2], a[3]);
                let m1 = _mm256_fmadd_pd(c51, t1, _mm256_fmadd_pd(c52, t2, a[0]));
                let m2 = _mm256_fmadd_pd(c52, t1, _mm256_fmadd_pd(c51, t2, a[0]));
                let n1 = rot::<CONJ>(_mm256_fmadd_pd(s51, d1, _mm256_mul_pd(s52, d2)));
                let n2 = rot::<CONJ>(_mm256_fmsub_pd(s52, d1, _mm256_mul_pd(s51, d2)));
                b[0] = _mm256_add_pd(a[0], _mm256_add_pd(t1, t2));
                b[1] = _mm256_add_pd(m1, n1);
                b[2] = _mm256_add_pd(m2, n2);
                b[3] = _mm256_sub_pd(m2, n2);
                b[4] = _mm256_sub_pd(m1, n1);
            }
            _ => unreachable!("radix {R} has no butterfly"),
        }
        b
    }

    /// One Stockham pass (see [`super::fft_pass`]). The vectors run over
    /// `q` in pairs, where each `p` has one twiddle per output — except on
    /// the first pass (`s == 1`), where they run over `p` in pairs and
    /// each half stores to its own output group. Odd tails go through
    /// `scalar::fft_point` after the vector loop.
    ///
    /// # Safety
    /// The host supports avx2 and fma, `src.len() == dst.len()` is a
    /// multiple of `R·s`, and `tw` holds at least `(R−1)·m` twiddles.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn pass<const R: usize, const CONJ: bool>(
        src: &[Complex],
        dst: &mut [Complex],
        s: usize,
        tw: &[Complex],
    ) {
        let m = src.len() / (R * s);
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        let tp = tw.as_ptr();
        if s == 1 {
            for p in (0..m - m % 2).step_by(2) {
                let mut a = [_mm256_setzero_pd(); R];
                for (j, a) in a.iter_mut().enumerate() {
                    *a = load(sp.add(p + j * m)); // [x(p), x(p + 1)]
                }
                let b = bfly::<R, CONJ>(a);
                for (k, &v) in b.iter().enumerate() {
                    let v = if k == 0 {
                        v
                    } else {
                        cmul::<CONJ>(v, load(tp.add((k - 1) * m + p)))
                    };
                    _mm_storeu_pd(dp.add(R * p + k) as *mut f64, _mm256_castpd256_pd128(v));
                    _mm_storeu_pd(
                        dp.add(R * (p + 1) + k) as *mut f64,
                        _mm256_extractf128_pd(v, 1),
                    );
                }
            }
            if m % 2 == 1 {
                super::scalar::fft_point::<R, CONJ>(src, dst, 1, m, m - 1, 0, tw);
            }
            return;
        }
        for p in 0..m {
            // The p = 0 twiddles are all 1: skip their multiplies (the
            // whole last pass, where m = 1).
            let mut w = [_mm256_setzero_pd(); R];
            for (k, w) in w.iter_mut().enumerate().skip(1) {
                let one = _mm_loadu_pd(tp.add((k - 1) * m + p) as *const f64);
                *w = _mm256_permute4x64_pd(_mm256_castpd128_pd256(one), 0x44);
            }
            for q in (0..s - s % 2).step_by(2) {
                let mut a = [_mm256_setzero_pd(); R];
                for (j, a) in a.iter_mut().enumerate() {
                    *a = load(sp.add(q + s * (p + j * m)));
                }
                let b = bfly::<R, CONJ>(a);
                for (k, &v) in b.iter().enumerate() {
                    let v = if k == 0 || p == 0 {
                        v
                    } else {
                        cmul::<CONJ>(v, w[k])
                    };
                    store(dp.add(q + s * (R * p + k)), v);
                }
            }
        }
        if s % 2 == 1 {
            for p in 0..m {
                super::scalar::fft_point::<R, CONJ>(src, dst, s, m, p, s - 1, tw);
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn fft_pass(
        src: &[Complex],
        dst: &mut [Complex],
        radix: usize,
        s: usize,
        tw: &[Complex],
        conj: bool,
    ) {
        match (radix, conj) {
            (2, false) => pass::<2, false>(src, dst, s, tw),
            (2, true) => pass::<2, true>(src, dst, s, tw),
            (3, false) => pass::<3, false>(src, dst, s, tw),
            (3, true) => pass::<3, true>(src, dst, s, tw),
            (4, false) => pass::<4, false>(src, dst, s, tw),
            (4, true) => pass::<4, true>(src, dst, s, tw),
            (5, false) => pass::<5, false>(src, dst, s, tw),
            (5, true) => pass::<5, true>(src, dst, s, tw),
            _ => unreachable!("radix {radix} has no kernel"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complexes(n: usize, seed: f64) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                Complex::new(
                    (i as f64 * 0.37 + seed).cos(),
                    (i as f64 * 0.91 - seed).sin(),
                )
            })
            .collect()
    }

    fn close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((*x - *y).abs() <= tol, "element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn dispatched_kernels_match_scalar_reference() {
        // Odd lengths force the tail path on every kernel.
        for n in [0usize, 1, 2, 3, 7, 16, 33, 250] {
            let k = complexes(n, 0.3);
            let mut a = complexes(n, 1.1);
            let mut r = a.clone();
            pointwise_mul(&mut a, &k, false);
            scalar::pointwise_mul(&mut r, &k, false);
            close(&a, &r, 1e-12 * (n + 1) as f64);

            let mut a = complexes(n, 2.2);
            let mut r = a.clone();
            pointwise_mul(&mut a, &k, true);
            scalar::pointwise_mul(&mut r, &k, true);
            close(&a, &r, 1e-12 * (n + 1) as f64);
        }
    }

    #[test]
    fn fixed_point_kernels_are_bit_exact_across_paths() {
        for n in [0usize, 1, 15, 16, 17, 100, 2500] {
            let samples: Vec<i16> = (0..n).map(|i| ((i * 2731 + 7) % 65536) as i16).collect();
            let win: Vec<i16> = (0..n).map(|i| ((i * 911) % 32768) as i16).collect();
            let mut a = vec![3i32; n];
            let mut r = a.clone();
            window_accum_q(&mut a, &samples, &win);
            scalar::window_accum_q(&mut r, &samples, &win);
            assert_eq!(a, r, "n={n}");
        }
    }

    #[test]
    fn selection_is_stable_and_reported() {
        let first = active();
        assert_eq!(first, active(), "path must not change once selected");
        assert!(first.lanes() >= 1);
    }
}
