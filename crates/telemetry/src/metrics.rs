//! Metrics registry: named counters, gauges, and streaming histograms behind
//! coarse per-kind mutexes. All maps are `BTreeMap` so snapshots (and
//! anything serialized from them) are deterministically ordered.

use crate::histogram::{Histogram, HistogramSummary};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Takes a registry lock. Every holder makes one insert or update of its
/// map, so the map is consistent even when a holder panicked: a poisoned
/// lock is taken as it is, and one panic does not fail every later metric.
fn lock<T>(registry: &Mutex<T>) -> MutexGuard<'_, T> {
    registry.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Default)]
pub(crate) struct Registry {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl Registry {
    pub(crate) fn incr(&self, name: &str, by: u64) {
        let mut counters = lock(&self.counters);
        match counters.get_mut(name) {
            Some(v) => *v += by,
            None => {
                counters.insert(name.to_string(), by);
            }
        }
    }

    pub(crate) fn gauge_set(&self, name: &str, value: f64) {
        let mut gauges = lock(&self.gauges);
        match gauges.get_mut(name) {
            Some(v) => *v = value,
            None => {
                gauges.insert(name.to_string(), value);
            }
        }
    }

    pub(crate) fn gauge_add(&self, name: &str, by: f64) {
        let mut gauges = lock(&self.gauges);
        match gauges.get_mut(name) {
            Some(v) => *v += by,
            None => {
                gauges.insert(name.to_string(), by);
            }
        }
    }

    pub(crate) fn gauge_value(&self, name: &str) -> Option<f64> {
        lock(&self.gauges).get(name).copied()
    }

    pub(crate) fn observe(&self, name: &str, value: f64) {
        let mut histograms = lock(&self.histograms);
        match histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = Histogram::default();
                h.observe(value);
                histograms.insert(name.to_string(), h);
            }
        }
    }

    pub(crate) fn counter_value(&self, name: &str) -> u64 {
        lock(&self.counters).get(name).copied().unwrap_or(0)
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock(&self.counters).clone(),
            gauges: lock(&self.gauges).clone(),
            histograms: lock(&self.histograms)
                .iter()
                .filter_map(|(k, h)| h.summary().map(|s| (k.clone(), s)))
                .collect(),
        }
    }
}

/// Serializable point-in-time view of every metric. Histograms are digested
/// to [`HistogramSummary`] (count/sum/min/max/p50/p90/p99).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_semantics_accumulate() {
        let r = Registry::default();
        r.incr("measure/errors/lowering", 1);
        r.incr("measure/errors/lowering", 2);
        r.incr("measure/ok", 5);
        assert_eq!(r.counter_value("measure/errors/lowering"), 3);
        assert_eq!(r.counter_value("measure/ok"), 5);
        assert_eq!(r.counter_value("missing"), 0);
        let snap = r.snapshot();
        assert_eq!(snap.counters["measure/errors/lowering"], 3);
    }

    #[test]
    fn gauge_semantics_overwrite() {
        let r = Registry::default();
        r.gauge_set("model/loss", 0.9);
        r.gauge_set("model/loss", 0.4);
        let snap = r.snapshot();
        assert_eq!(snap.gauges["model/loss"], 0.4);
    }

    #[test]
    fn gauge_add_accumulates_from_zero() {
        let r = Registry::default();
        r.gauge_add("measure/heartbeat", 1.0);
        r.gauge_add("measure/heartbeat", 1.0);
        r.gauge_set("base", 10.0);
        r.gauge_add("base", 2.5);
        assert_eq!(r.gauge_value("measure/heartbeat"), Some(2.0));
        assert_eq!(r.gauge_value("base"), Some(12.5));
        assert_eq!(r.gauge_value("missing"), None);
    }

    #[test]
    fn histograms_digest_into_snapshot() {
        let r = Registry::default();
        for i in 1..=100 {
            r.observe("phase/evolution", i as f64 * 1e-3);
        }
        let snap = r.snapshot();
        let h = &snap.histograms["phase/evolution"];
        assert_eq!(h.count, 100);
        assert!(h.p50 > 0.0 && h.p50 <= h.p90 && h.p90 <= h.p99);
        assert!((h.sum - 5.05).abs() < 1e-9);
    }

    /// Panics while holding `registry`'s lock, which poisons it.
    fn poison<T>(registry: &Mutex<T>) {
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = registry.lock();
            panic!("a metric holder panics");
        }));
        assert!(died.is_err() && registry.is_poisoned());
    }

    #[test]
    fn a_panicking_holder_fails_no_later_metric_call() {
        let r = Registry::default();
        r.incr("trials", 1);
        r.gauge_set("depth", 1.0);
        r.observe("phase/evolution", 1e-3);
        poison(&r.counters);
        poison(&r.gauges);
        poison(&r.histograms);
        r.incr("trials", 2);
        r.gauge_set("depth", 3.0);
        r.gauge_add("depth", 1.0);
        r.observe("phase/evolution", 2e-3);
        assert_eq!(r.counter_value("trials"), 3);
        assert_eq!(r.gauge_value("depth"), Some(4.0));
        let snap = r.snapshot();
        assert_eq!(snap.counters["trials"], 3);
        assert_eq!(snap.gauges["depth"], 4.0);
        assert_eq!(snap.histograms["phase/evolution"].count, 2);
    }

    #[test]
    fn snapshot_is_deterministically_ordered_json() {
        let r = Registry::default();
        r.incr("b", 1);
        r.incr("a", 1);
        r.incr("c", 1);
        let json = serde_json::to_string(&r.snapshot()).unwrap();
        let a = json.find("\"a\"").unwrap();
        let b = json.find("\"b\"").unwrap();
        let c = json.find("\"c\"").unwrap();
        assert!(a < b && b < c, "keys must serialize sorted: {json}");
    }
}
