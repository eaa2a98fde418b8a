//! Observability for the Ansor search loop: a metrics registry (counters,
//! gauges, p50/p90/p99 histograms), hierarchical phase timers, and a
//! structured JSONL tuning trace.
//!
//! The central type is [`Telemetry`], a cheaply clonable handle threaded
//! through the search stack. It has three states:
//!
//! - **disabled** ([`Telemetry::disabled`], also `Default`): every call is an
//!   early return on a `None` — no allocation, no locking, no clock reads.
//!   Trace events are built lazily via closures ([`Telemetry::emit`]), so
//!   disabled handles never even construct the event.
//! - **metrics only** ([`Telemetry::with_metrics`]): counters/gauges/timers
//!   accumulate in memory; `emit` is a no-op without a sink.
//! - **tracing** ([`Telemetry::to_file`] / [`Telemetry::to_writer`]): metrics
//!   plus a JSONL event stream ([`TraceLine`] per line).
//!
//! See `docs/TELEMETRY.md` for the event schema and the `trace-report` tool.

pub mod alloc;
pub mod export;
mod histogram;
pub mod metrics;
pub mod report;
mod snapshot;
mod trace;

pub use alloc::CountingAlloc;
pub use histogram::{Histogram, HistogramSummary};
pub use metrics::MetricsSnapshot;
pub use snapshot::{HistogramDelta, Snapshot, SnapshotDelta};
pub use trace::{
    canonical_events, read_trace, read_trace_file, EfficacyRow, GradientTerms, TraceEvent,
    TraceLine,
};

use metrics::Registry;
use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct Inner {
    registry: Registry,
    sink: Option<Mutex<Box<dyn Write + Send>>>,
    start: Instant,
    seq: AtomicU64,
}

/// Handle to the telemetry pipeline. Clones share the same registry/sink.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .field(
                "tracing",
                &self
                    .inner
                    .as_ref()
                    .map(|i| i.sink.is_some())
                    .unwrap_or(false),
            )
            .finish()
    }
}

impl Telemetry {
    /// The zero-overhead null handle.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Enable in-memory metrics without a trace sink.
    pub fn with_metrics() -> Self {
        Self::build(None)
    }

    /// Enable metrics and stream trace events to `writer` as JSONL.
    pub fn to_writer(writer: Box<dyn Write + Send>) -> Self {
        Self::build(Some(writer))
    }

    /// Enable metrics and stream trace events to a JSONL file at `path`
    /// (truncating any existing file).
    pub fn to_file(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::build(Some(Box::new(std::io::BufWriter::new(file)))))
    }

    fn build(sink: Option<Box<dyn Write + Send>>) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                registry: Registry::default(),
                sink: sink.map(Mutex::new),
                start: Instant::now(),
                seq: AtomicU64::new(0),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether a trace sink is installed (i.e. [`Telemetry::emit`] closures
    /// will actually run). Lets callers skip computing expensive
    /// event-payload inputs that live outside the closure.
    pub fn is_tracing(&self) -> bool {
        self.inner
            .as_ref()
            .map(|i| i.sink.is_some())
            .unwrap_or(false)
    }

    /// Add `by` to the counter `name`.
    pub fn incr(&self, name: &str, by: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.incr(name, by);
        }
    }

    /// Set the gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge_set(name, value);
        }
    }

    /// Add `by` to the gauge `name` (starting from 0 if unset). Used for
    /// monotone tick gauges like `measure/heartbeat`.
    pub fn gauge_add(&self, name: &str, by: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge_add(name, by);
        }
    }

    /// Current value of gauge `name` (`None` when disabled or never set).
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.inner
            .as_ref()
            .and_then(|i| i.registry.gauge_value(name))
    }

    /// Record `value` into the histogram `name`.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.observe(name, value);
        }
    }

    /// Current value of counter `name` (0 when disabled or never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.registry.counter_value(name))
            .unwrap_or(0)
    }

    /// Start a scoped phase timer. On drop it records elapsed seconds into
    /// the histogram `phase/<outer>/<inner>/…` — nesting within a thread
    /// builds the hierarchical path.
    pub fn span(&self, name: &'static str) -> Span {
        match &self.inner {
            None => Span { active: None },
            Some(inner) => {
                SPAN_STACK.with(|stack| stack.borrow_mut().push(name));
                Span {
                    active: Some((Arc::clone(inner), Instant::now())),
                }
            }
        }
    }

    /// Emit a trace event. The closure only runs when a sink is installed,
    /// so disabled (and metrics-only) handles pay one branch and nothing
    /// else — no allocation, no serialization.
    pub fn emit(&self, event: impl FnOnce() -> TraceEvent) {
        let Some(inner) = &self.inner else { return };
        let Some(sink) = &inner.sink else { return };
        let line = TraceLine {
            seq: inner.seq.fetch_add(1, Ordering::SeqCst),
            t_ms: inner.start.elapsed().as_secs_f64() * 1e3,
            event: event(),
        };
        let json = serde_json::to_string(&line).expect("trace events serialize");
        let mut w = sink.lock().expect("trace sink poisoned");
        // Telemetry must never take down the tuning run; drop the line on a
        // full disk instead.
        let _ = writeln!(w, "{json}");
    }

    /// Snapshot the metrics registry. `None` when disabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|i| i.registry.snapshot())
    }

    /// Seconds since this handle (or the clone family's root) was created.
    /// Zero when disabled.
    pub fn uptime_seconds(&self) -> f64 {
        self.inner
            .as_ref()
            .map(|i| i.start.elapsed().as_secs_f64())
            .unwrap_or(0.0)
    }

    /// Snapshot the registry together with the capture-time uptime, for
    /// [`Snapshot::delta`]-based rate computation. `None` when disabled.
    pub fn live_snapshot(&self) -> Option<Snapshot> {
        self.inner.as_ref().map(|i| Snapshot {
            uptime_seconds: i.start.elapsed().as_secs_f64(),
            metrics: i.registry.snapshot(),
        })
    }

    /// Emit a final `PhaseProfile` event carrying the metrics snapshot and
    /// flush the sink. Call once at the end of a run.
    pub fn flush(&self) {
        let Some(inner) = &self.inner else { return };
        if inner.sink.is_some() {
            let snapshot = inner.registry.snapshot();
            self.emit(|| TraceEvent::PhaseProfile { snapshot });
        }
        if let Some(sink) = &inner.sink {
            let _ = sink.lock().expect("trace sink poisoned").flush();
        }
    }
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII phase timer returned by [`Telemetry::span`].
pub struct Span {
    active: Option<(Arc<Inner>, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((inner, started)) = self.active.take() {
            let path = SPAN_STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                let path = format!("phase/{}", stack.join("/"));
                stack.pop();
                path
            });
            inner
                .registry
                .observe(&path, started.elapsed().as_secs_f64());
        }
    }
}

/// A clonable in-memory `Write` target, for capturing traces in tests (e.g.
/// the determinism test) without touching the filesystem.
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn contents(&self) -> Vec<u8> {
        self.0.lock().expect("shared buffer poisoned").clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("shared buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        t.incr("x", 1);
        t.observe("y", 0.5);
        t.gauge_set("z", 1.0);
        t.emit(|| panic!("event closure must not run when disabled"));
        let _span = t.span("phase");
        assert!(!t.is_enabled());
        assert!(t.snapshot().is_none());
        assert_eq!(t.counter_value("x"), 0);
    }

    #[test]
    fn metrics_only_handle_skips_events() {
        let t = Telemetry::with_metrics();
        t.incr("x", 2);
        t.emit(|| panic!("event closure must not run without a sink"));
        assert_eq!(t.counter_value("x"), 2);
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::with_metrics();
        let u = t.clone();
        t.incr("shared", 1);
        u.incr("shared", 1);
        assert_eq!(t.counter_value("shared"), 2);
    }

    #[test]
    fn events_stream_to_sink_with_monotone_seq() {
        let buf = SharedBuf::new();
        let t = Telemetry::to_writer(Box::new(buf.clone()));
        for round in 0..3 {
            t.emit(|| TraceEvent::RoundStart {
                task: "m".into(),
                round,
                trials_so_far: round * 8,
            });
        }
        t.flush();
        let bytes = buf.contents();
        let (lines, skipped) = read_trace(&bytes[..]).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(lines.len(), 4, "3 rounds + PhaseProfile from flush");
        let seqs: Vec<u64> = lines.iter().map(|l| l.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert!(matches!(lines[3].event, TraceEvent::PhaseProfile { .. }));
    }

    #[test]
    fn spans_build_hierarchical_paths() {
        let t = Telemetry::with_metrics();
        {
            let _outer = t.span("evolution");
            {
                let _inner = t.span("feature_extraction");
            }
        }
        let snap = t.snapshot().unwrap();
        assert!(snap.histograms.contains_key("phase/evolution"));
        assert!(snap
            .histograms
            .contains_key("phase/evolution/feature_extraction"));
    }

    #[test]
    fn span_timers_record_positive_durations() {
        let t = Telemetry::with_metrics();
        {
            let _s = t.span("work");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = t.snapshot().unwrap();
        let h = &snap.histograms["phase/work"];
        assert_eq!(h.count, 1);
        assert!(h.sum >= 0.002, "recorded {}s", h.sum);
    }

    #[test]
    fn counters_are_thread_safe() {
        let t = Telemetry::with_metrics();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        t.incr("parallel", 1);
                    }
                });
            }
        });
        assert_eq!(t.counter_value("parallel"), 4000);
    }
}
