//! Signature-keyed program caches.
//!
//! Evolutionary search produces heavy duplication: failed mutations clone
//! their parent, retained-best individuals re-enter every generation, and
//! crossover frequently reproduces a parent's gene sequence. Re-lowering
//! and re-scoring those duplicates is pure waste, so the hot paths key
//! their results by the program's *signature* (`State::signature()`: the
//! DAG's fingerprint folded with each transform step) and consult a
//! [`SigCache`] first.
//!
//! The cache is thread-safe (one lock around the map; entries are cloned
//! out) and deterministic: values are pure functions of the key, so a hit
//! returns exactly what a recompute would. Hit/miss counts are kept
//! internally so owners can forward them to telemetry counters.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A bounded, thread-safe map from a 64-bit program signature to a cached
/// value. Once `capacity` entries are stored, further misses compute
/// without inserting (no eviction churn — search workloads are
/// front-loaded, so the earliest entries are the hottest).
#[derive(Debug)]
pub struct SigCache<V> {
    map: Mutex<HashMap<u64, V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V: Clone> SigCache<V> {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> SigCache<V> {
        SigCache {
            map: Mutex::new(HashMap::new()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The map, whether or not a panicking holder poisoned its lock: every
    /// mutation is one `HashMap` call, and a panic inside one (a value's
    /// `Clone`) leaves the map without that entry, never half-written — so
    /// a poisoned map is as consistent as a clean one.
    fn lock(&self) -> MutexGuard<'_, HashMap<u64, V>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key`, computing and (capacity permitting) inserting the
    /// value on a miss. `compute` runs outside the lock, so concurrent
    /// misses on the same key may compute twice — both arrive at the same
    /// value, and one wins the insert.
    pub fn get_or_insert_with(&self, key: u64, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = compute();
        let mut map = self.lock();
        if map.len() < self.capacity {
            map.entry(key).or_insert_with(|| v.clone());
        }
        v
    }

    /// Cached value for `key`, if present.
    pub fn get(&self, key: u64) -> Option<V> {
        let map = self.lock();
        let v = map.get(&key).cloned();
        match v {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        v
    }

    /// Inserts a value computed elsewhere (no-op at capacity).
    pub fn insert(&self, key: u64, value: V) {
        let mut map = self.lock();
        if map.len() < self.capacity {
            map.insert(key, value);
        }
    }

    /// Drops every entry (e.g. when the model behind the values retrains)
    /// but keeps the lifetime hit/miss counters.
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_cached_value_without_recompute() {
        let c: SigCache<u64> = SigCache::new(16);
        assert_eq!(c.get_or_insert_with(1, || 10), 10);
        assert_eq!(c.get_or_insert_with(1, || panic!("must not recompute")), 10);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_stops_inserts_but_not_computation() {
        let c: SigCache<u64> = SigCache::new(2);
        for k in 0..5 {
            assert_eq!(c.get_or_insert_with(k, || k * 2), k * 2);
        }
        assert_eq!(c.len(), 2);
        // Beyond-capacity keys still compute correctly every time.
        assert_eq!(c.get_or_insert_with(4, || 8), 8);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let c: SigCache<u64> = SigCache::new(8);
        c.get_or_insert_with(1, || 1);
        c.get_or_insert_with(1, || 1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.hits(), 1);
        c.get_or_insert_with(1, || 2);
        assert_eq!(c.get(1), Some(2));
    }

    /// A value whose `Clone` panics when it holds 13.
    #[derive(Debug, PartialEq)]
    struct Fragile(u64);

    impl Clone for Fragile {
        fn clone(&self) -> Fragile {
            assert_ne!(self.0, 13, "clone of a fragile value");
            Fragile(self.0)
        }
    }

    #[test]
    fn a_panic_under_the_lock_poisons_nothing_that_matters() {
        let c: SigCache<Fragile> = SigCache::new(8);
        assert_eq!(c.get_or_insert_with(1, || Fragile(1)), Fragile(1));
        // The insert clones the computed value under the lock: the panic
        // poisons it, and the entry is never written.
        let insert = std::panic::catch_unwind(|| c.get_or_insert_with(2, || Fragile(13)));
        assert!(insert.is_err());
        assert!(c.map.is_poisoned());
        assert_eq!((c.hits(), c.misses()), (0, 2));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(2), None);
        assert_eq!(c.get(1), Some(Fragile(1)));
        assert_eq!(c.get_or_insert_with(1, || panic!("cached")), Fragile(1));
        assert_eq!(c.get_or_insert_with(3, || Fragile(3)), Fragile(3));
        assert_eq!((c.hits(), c.misses()), (2, 4));
        assert_eq!(c.len(), 2);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get_or_insert_with(1, || Fragile(4)), Fragile(4));
        assert_eq!((c.hits(), c.misses()), (2, 5));
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let c: SigCache<u64> = SigCache::new(1024);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for k in 0..256 {
                        assert_eq!(c.get_or_insert_with(k, || k + 7), k + 7);
                    }
                });
            }
        });
        assert_eq!(c.len(), 256);
        assert_eq!(c.hits() + c.misses(), 4 * 256);
    }
}
