//! Process-wide weak caches for immutable transform plans.
//!
//! Every plan in this crate (range-transform FFT twiddles, window tables)
//! is immutable after construction and depends only on its shape
//! parameters, so two users with the same configuration can share one
//! instance behind an `Arc`. A serving host runs dozens of identical
//! pipelines per shard — three antennas × N sensors, all at one sweep
//! config — and per-instance tables would be the dominant per-sensor
//! memory. These caches deduplicate them: `RangeTransform::shared`,
//! `WindowKind::shared` and `WindowKind::shared_q15` each key a
//! [`PlanCache`] by their shape.
//!
//! Entries are **weak**: the cache never keeps a plan alive on its own,
//! so a reconfigured process frees the old tables once the last pipeline
//! using them drops. Dead entries are swept opportunistically on every
//! miss.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// Process-wide plan-cache hit/miss counters, registered once in the
/// global telemetry registry (`witrack_obs::global()`) as
/// `dsp/plan_cache_{hits,misses}`. A deployment whose miss counter keeps
/// climbing is rebuilding transform tables it should be sharing.
fn cache_counters() -> &'static (witrack_obs::Counter, witrack_obs::Counter) {
    static COUNTERS: OnceLock<(witrack_obs::Counter, witrack_obs::Counter)> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let reg = witrack_obs::global();
        (
            reg.counter("dsp", "plan_cache_hits", witrack_obs::Label::Global),
            reg.counter("dsp", "plan_cache_misses", witrack_obs::Label::Global),
        )
    })
}

/// A weak, keyed cache of `Arc`-shared plans.
pub(crate) struct PlanCache<K, T> {
    map: Mutex<HashMap<K, Weak<T>>>,
}

impl<K: Eq + Hash + Clone, T> PlanCache<K, T> {
    /// An empty cache (usable in `static` position via `OnceLock`).
    pub(crate) fn new() -> PlanCache<K, T> {
        PlanCache {
            map: Mutex::new(HashMap::new()),
        }
    }

    /// Returns the shared plan for `key`, building (and caching) it with
    /// `build` when no live instance exists. The build runs outside any
    /// lock-free fast path but inside the cache lock, so concurrent
    /// requests for the same key build once.
    pub(crate) fn get_or_build(&self, key: K, build: impl FnOnce() -> T) -> Arc<T> {
        let (hits, misses) = cache_counters();
        let mut map = self.map.lock().expect("plan cache poisoned");
        if let Some(live) = map.get(&key).and_then(Weak::upgrade) {
            hits.inc();
            return live;
        }
        misses.inc();
        // Miss: sweep entries whose plans have all been dropped, then build.
        map.retain(|_, w| w.strong_count() > 0);
        let plan = Arc::new(build());
        map.insert(key, Arc::downgrade(&plan));
        plan
    }

    /// Number of live (upgradable) entries — for tests and diagnostics.
    #[cfg(test)]
    pub(crate) fn live_entries(&self) -> usize {
        self.map
            .lock()
            .expect("plan cache poisoned")
            .values()
            .filter(|w| w.strong_count() > 0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_shares_one_instance() {
        let cache: PlanCache<usize, Vec<u8>> = PlanCache::new();
        let a = cache.get_or_build(7, || vec![1, 2, 3]);
        let b = cache.get_or_build(7, || panic!("must reuse the live entry"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.live_entries(), 1);
    }

    #[test]
    fn dropped_entries_are_rebuilt_and_swept() {
        let cache: PlanCache<usize, Vec<u8>> = PlanCache::new();
        let a = cache.get_or_build(1, || vec![1]);
        drop(a);
        assert_eq!(cache.live_entries(), 0);
        let b = cache.get_or_build(2, || vec![2]);
        let again = cache.get_or_build(1, || vec![9]);
        assert_eq!(*again, vec![9], "dead entry was rebuilt");
        drop(b);
        // The dead key-1 slot was swept during the key-2 miss; only the
        // rebuilt entry remains live.
        assert_eq!(cache.live_entries(), 1);
    }
}
