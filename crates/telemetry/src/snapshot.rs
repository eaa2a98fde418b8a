//! Point-in-time snapshots of the live metrics registry, and deltas
//! between two snapshots for rate computation.
//!
//! [`Snapshot`] pairs a [`MetricsSnapshot`] with the handle's uptime at
//! capture time, so two snapshots of the same run can be subtracted into a
//! [`SnapshotDelta`] — counter increases, histogram count/sum increases,
//! and per-second rates over the interval. This is what the live exporter
//! (`telemetry::export`) and `ansor-top` build their throughput and ETA
//! figures from.

use crate::metrics::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A [`MetricsSnapshot`] stamped with the telemetry handle's uptime.
///
/// Captured via [`crate::Telemetry::live_snapshot`]. Each metric kind is
/// captured under its registry lock, so counters are internally consistent
/// with each other (likewise gauges and histograms).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Seconds since the telemetry handle was created.
    pub uptime_seconds: f64,
    /// The captured metrics.
    pub metrics: MetricsSnapshot,
}

impl Snapshot {
    /// Difference `self - earlier`. `self` should be the later snapshot;
    /// counters that went backwards (registry replaced) clamp to zero.
    pub fn delta(&self, earlier: &Snapshot) -> SnapshotDelta {
        let seconds = (self.uptime_seconds - earlier.uptime_seconds).max(0.0);
        let counters = self
            .metrics
            .counters
            .iter()
            .map(|(k, &v)| {
                let before = earlier.metrics.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(before))
            })
            .collect();
        let histograms = self
            .metrics
            .histograms
            .iter()
            .map(|(k, h)| {
                let (c0, s0) = earlier
                    .metrics
                    .histograms
                    .get(k)
                    .map(|e| (e.count, e.sum))
                    .unwrap_or((0, 0.0));
                (
                    k.clone(),
                    HistogramDelta {
                        count: h.count.saturating_sub(c0),
                        sum: (h.sum - s0).max(0.0),
                    },
                )
            })
            .collect();
        SnapshotDelta {
            seconds,
            counters,
            histograms,
        }
    }
}

/// Count/sum increase of one histogram between two snapshots. Quantiles do
/// not subtract, so deltas only carry volume and total time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistogramDelta {
    pub count: u64,
    pub sum: f64,
}

/// The change between two [`Snapshot`]s of the same run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotDelta {
    /// Interval length in seconds.
    pub seconds: f64,
    /// Counter increases over the interval.
    pub counters: BTreeMap<String, u64>,
    /// Histogram count/sum increases over the interval.
    pub histograms: BTreeMap<String, HistogramDelta>,
}

impl SnapshotDelta {
    /// Per-second rate of counter `name` over the interval. Zero for an
    /// untouched counter; zero (not NaN) for an empty interval.
    pub fn rate(&self, name: &str) -> f64 {
        let d = self.counters.get(name).copied().unwrap_or(0);
        if self.seconds > 0.0 {
            d as f64 / self.seconds
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Telemetry;

    #[test]
    fn delta_subtracts_counters_and_rates() {
        let t = Telemetry::with_metrics();
        t.incr("measure/valid", 10);
        let a = t.live_snapshot().unwrap();
        t.incr("measure/valid", 30);
        t.incr("measure/failed", 4);
        let mut b = t.live_snapshot().unwrap();
        // Pin the interval so the rate assertion is exact.
        b.uptime_seconds = a.uptime_seconds + 2.0;
        let d = b.delta(&a);
        assert_eq!(d.counters["measure/valid"], 30);
        assert_eq!(d.counters["measure/failed"], 4);
        assert!((d.seconds - 2.0).abs() < 1e-12);
        assert!((d.rate("measure/valid") - 15.0).abs() < 1e-12);
        assert!((d.rate("measure/failed") - 2.0).abs() < 1e-12);
        assert_eq!(d.rate("missing"), 0.0);
    }

    #[test]
    fn delta_histograms_carry_count_and_sum_increase() {
        let t = Telemetry::with_metrics();
        t.observe("phase/evolution", 1.0);
        t.observe("phase/evolution", 1.0);
        let a = t.live_snapshot().unwrap();
        t.observe("phase/evolution", 3.0);
        t.observe("phase/measurement", 0.5);
        let b = t.live_snapshot().unwrap();
        let d = b.delta(&a);
        assert_eq!(d.histograms["phase/evolution"].count, 1);
        assert!((d.histograms["phase/evolution"].sum - 3.0).abs() < 1e-9);
        // Histogram unseen in the earlier snapshot deltas from zero.
        assert_eq!(d.histograms["phase/measurement"].count, 1);
    }

    #[test]
    fn zero_interval_rates_are_zero_not_nan() {
        let t = Telemetry::with_metrics();
        t.incr("c", 8);
        let a = t.live_snapshot().unwrap();
        let mut b = a.clone();
        b.uptime_seconds = a.uptime_seconds; // identical instant
        let d = b.delta(&a);
        assert_eq!(d.rate("c"), 0.0);
    }

    #[test]
    fn snapshot_serializes_deterministically() {
        let t = Telemetry::with_metrics();
        t.incr("b", 1);
        t.incr("a", 1);
        let s = t.live_snapshot().unwrap();
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.find("\"a\"").unwrap() < json.find("\"b\"").unwrap());
    }
}
