//! Shared by the allocation pins: a global allocator that counts every
//! allocation and reallocation and the bytes they request, and the
//! paper-shaped, wire-quantized sweep generator the per-frame pins feed
//! their pipeline.
//!
//! The counter sees every thread in the process, so each pin is its own
//! test binary and must not share a process with other tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::f64::consts::PI;
use std::sync::atomic::{AtomicU64, Ordering};
use witrack_core::WiTrackConfig;
use witrack_geom::{AntennaArray, Vec3};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static REQUESTED: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made in this process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Bytes requested in this process so far: each allocation's size plus
/// each reallocation's new size.
#[allow(dead_code)] // the per-frame pins count allocations only
pub fn requested_bytes() -> u64 {
    REQUESTED.load(Ordering::SeqCst)
}

/// One sweep interval of unit point reflectors at `points`, quantized the
/// way wire encoders do: antenna-contiguous i16 samples and one scale
/// covering the peak.
pub fn quantized_sweeps(
    cfg: &WiTrackConfig,
    array: &AntennaArray,
    points: &[Vec3],
) -> (Vec<i16>, f64) {
    let sw = &cfg.sweep;
    let n = sw.samples_per_sweep();
    let flat: Vec<f64> = (0..array.num_rx())
        .flat_map(|k| {
            let tones: Vec<(f64, f64)> = points
                .iter()
                .map(|&p| {
                    let tau = array.round_trip(p, k) / 299_792_458.0;
                    (sw.beat_for_tof(tau), 2.0 * PI * sw.start_freq_hz * tau)
                })
                .collect();
            (0..n).map(move |i| {
                tones
                    .iter()
                    .map(|&(beat, phase)| {
                        (2.0 * PI * beat * i as f64 / sw.sample_rate_hz + phase).cos()
                    })
                    .sum::<f64>()
            })
        })
        .collect();
    let scale = points.len() as f64 / 32767.0;
    let q = flat.iter().map(|&x| (x / scale).round() as i16).collect();
    (q, scale)
}
