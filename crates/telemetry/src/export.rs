//! Live metrics exporter: a std-only background HTTP/1.1 listener that
//! makes a running tuning process scrapeable.
//!
//! [`serve`] binds `127.0.0.1:<port>` and spawns one thread serving three
//! endpoints:
//!
//! - `GET /metrics` — Prometheus text exposition (format 0.0.4) of every
//!   counter, gauge and histogram in the registry, plus process resource
//!   gauges sampled at scrape time;
//! - `GET /status` — a JSON [`StatusReport`]: per-task tuning progress,
//!   phase breakdown, cache hit rates, fault counts, resources;
//! - `GET /healthz` — liveness. Tracks a *heartbeat tick* (the sum of all
//!   counters plus every `*/heartbeat` gauge); if the tick has not moved
//!   for longer than the stall window the endpoint returns 503, so a
//!   wedged run reads unhealthy while a merely slow one stays healthy.
//!
//! The exporter only ever *reads* telemetry. Resource samples (allocator
//! counters, RSS, thread-pool utilization) are merged into HTTP responses
//! at scrape time and never written to the shared registry, so a run with
//! the exporter enabled produces a byte-identical trace and summary to the
//! same run without it. When no exporter is started there are zero extra
//! threads and zero cost.

use crate::histogram::HistogramSummary;
use crate::snapshot::Snapshot;
use crate::Telemetry;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Exporter configuration. Every binary serves with the default; tests
/// substitute a short stall window.
pub struct ExportOptions {
    /// Seconds the heartbeat tick may stand still before `/healthz`
    /// reports unhealthy.
    pub stall_window_seconds: f64,
}

impl Default for ExportOptions {
    fn default() -> Self {
        ExportOptions {
            stall_window_seconds: 30.0,
        }
    }
}

/// Handle to a running exporter thread. Dropping it signals shutdown (the
/// thread exits within its poll interval); [`Exporter::shutdown`] also
/// joins, and [`Exporter::detach`] leaves the thread serving until process
/// exit.
pub struct Exporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Exporter {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal the server thread and wait for it to exit.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Keep serving for the life of the process (binaries call this so the
    /// endpoint stays up through the whole run).
    pub fn detach(self) {
        std::mem::forget(self);
    }
}

impl Drop for Exporter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// Start the exporter on `addr` (e.g. `127.0.0.1:9464`; port 0 picks a
/// free port). Fails if `tel` is disabled — there would be nothing to
/// scrape — or if the address cannot be bound.
pub fn serve(tel: &Telemetry, addr: &str, opts: ExportOptions) -> std::io::Result<Exporter> {
    if !tel.is_enabled() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "metrics exporter needs an enabled telemetry handle",
        ));
    }
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let tel = tel.clone();
    let thread = std::thread::Builder::new()
        .name("ansor-metrics-exporter".into())
        .spawn(move || server_loop(listener, tel, opts, stop2))?;
    Ok(Exporter {
        addr: local,
        stop,
        thread: Some(thread),
    })
}

struct Heartbeat {
    last_tick: f64,
    last_change: Instant,
}

fn server_loop(listener: TcpListener, tel: Telemetry, opts: ExportOptions, stop: Arc<AtomicBool>) {
    let mut heartbeat = Heartbeat {
        last_tick: heartbeat_tick(&tel),
        last_change: Instant::now(),
    };
    let mut prev_status_snapshot: Option<Snapshot> = None;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                handle_connection(
                    stream,
                    &tel,
                    &opts,
                    &mut heartbeat,
                    &mut prev_status_snapshot,
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// The liveness fingerprint: total counter volume plus every
/// `…/heartbeat` gauge. Any counter increment or heartbeat tick moves it.
fn heartbeat_tick(tel: &Telemetry) -> f64 {
    let Some(snap) = tel.snapshot() else {
        return 0.0;
    };
    let counters: u64 = snap.counters.values().sum();
    let beats: f64 = snap
        .gauges
        .iter()
        .filter(|(k, _)| k.ends_with("/heartbeat"))
        .map(|(_, v)| *v)
        .sum();
    counters as f64 + beats
}

fn handle_connection(
    mut stream: TcpStream,
    tel: &Telemetry,
    opts: &ExportOptions,
    heartbeat: &mut Heartbeat,
    prev_status: &mut Option<Snapshot>,
) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let Some((method, path)) = read_request(&mut stream) else {
        return;
    };
    if method != "GET" {
        write_response(&mut stream, 405, "text/plain", "method not allowed\n");
        return;
    }

    // Refresh the heartbeat on every request so /metrics scrapes also keep
    // the liveness state current.
    let tick = heartbeat_tick(tel);
    if tick != heartbeat.last_tick {
        heartbeat.last_tick = tick;
        heartbeat.last_change = Instant::now();
    }
    let age = heartbeat.last_change.elapsed().as_secs_f64();
    let healthy = age <= opts.stall_window_seconds;

    match path.as_str() {
        "/metrics" => {
            let Some(snap) = tel.live_snapshot() else {
                return;
            };
            let mut resources = BTreeMap::new();
            sample_resources(&mut resources);
            let body = render_exposition(&snap, &resources);
            write_response(&mut stream, 200, "text/plain; version=0.0.4", &body);
        }
        "/status" => {
            let Some(snap) = tel.live_snapshot() else {
                return;
            };
            let mut resources = BTreeMap::new();
            sample_resources(&mut resources);
            let report = build_status(
                &snap,
                prev_status.as_ref(),
                &resources,
                healthy,
                age,
                opts.stall_window_seconds,
            );
            *prev_status = Some(snap);
            let body = serde_json::to_string_pretty(&report).unwrap_or_else(|_| "{}".into());
            write_response(&mut stream, 200, "application/json", &body);
        }
        "/healthz" => {
            let body = format!(
                "{{\"healthy\":{healthy},\"uptime_seconds\":{:.3},\"heartbeat_tick\":{tick},\
                 \"heartbeat_age_seconds\":{age:.3},\"stall_window_seconds\":{}}}\n",
                tel.uptime_seconds(),
                opts.stall_window_seconds,
            );
            let code = if healthy { 200 } else { 503 };
            write_response(&mut stream, code, "application/json", &body);
        }
        _ => write_response(&mut stream, 404, "text/plain", "not found\n"),
    }
}

/// Read the request head; return `(method, path)` with any query string
/// stripped.
fn read_request(stream: &mut TcpStream) -> Option<(String, String)> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next()?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?;
    let path = target.split('?').next().unwrap_or(target).to_string();
    Some((method, path))
}

fn write_response(stream: &mut TcpStream, code: u16, content_type: &str, body: &str) {
    let reason = match code {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "",
    };
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Fill `out` with process resource gauges: allocator counters (when
/// [`crate::CountingAlloc`] is installed) and RSS.
fn sample_resources(out: &mut BTreeMap<String, f64>) {
    if let Some(stats) = crate::alloc::stats() {
        out.insert("alloc/live_bytes".into(), stats.live_bytes as f64);
        out.insert("alloc/peak_bytes".into(), stats.peak_bytes as f64);
        out.insert("alloc/total_allocs".into(), stats.total_allocs as f64);
    }
    if let Some(rss) = crate::alloc::rss_bytes() {
        out.insert("process/rss_bytes".into(), rss as f64);
    }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition

/// Map a registry name to a Prometheus metric name: `ansor_` prefix, every
/// non-`[a-zA-Z0-9_]` byte becomes `_`.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("ansor_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Render the full text exposition: counters as `counter` (`_total`
/// suffix), gauges and resource samples as `gauge`, histograms as
/// `summary` with `quantile` labels.
fn render_exposition(snap: &Snapshot, resources: &BTreeMap<String, f64>) -> String {
    let mut out = String::new();
    out.push_str("# TYPE ansor_uptime_seconds gauge\n");
    out.push_str(&format!(
        "ansor_uptime_seconds {}\n",
        fmt_value(snap.uptime_seconds)
    ));
    for (name, value) in &snap.metrics.counters {
        let p = prometheus_name(name);
        out.push_str(&format!("# TYPE {p}_total counter\n"));
        out.push_str(&format!("{p}_total {value}\n"));
    }
    for (name, value) in snap.metrics.gauges.iter().chain(resources.iter()) {
        let p = prometheus_name(name);
        out.push_str(&format!("# TYPE {p} gauge\n"));
        out.push_str(&format!("{p} {}\n", fmt_value(*value)));
    }
    for (name, h) in &snap.metrics.histograms {
        let p = prometheus_name(name);
        out.push_str(&format!("# TYPE {p} summary\n"));
        for (q, v) in [(0.5, h.p50), (0.9, h.p90), (0.99, h.p99)] {
            out.push_str(&format!("{p}{{quantile=\"{q}\"}} {}\n", fmt_value(v)));
        }
        out.push_str(&format!("{p}_sum {}\n", fmt_value(h.sum)));
        out.push_str(&format!("{p}_count {}\n", h.count));
    }
    out
}

/// A parsed exposition document: sample key (name plus label string) to
/// value. Produced by [`parse_exposition`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exposition {
    pub samples: BTreeMap<String, f64>,
}

impl Exposition {
    /// Value of a sample by exact key, e.g. `ansor_measure_valid_total` or
    /// `ansor_phase_evolution{quantile="0.5"}`.
    pub fn value(&self, key: &str) -> Option<f64> {
        self.samples.get(key).copied()
    }
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parse and validate a Prometheus text exposition document. Checks line
/// grammar, metric-name syntax, numeric sample values, that every sample's
/// family has a preceding `# TYPE`, and that no sample key repeats.
/// Returns the samples on success, a description of the first violation
/// otherwise. Shared by the exporter integration test and the CI
/// `live-smoke` validator (`ansor-top --check`).
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    let mut exposition = Exposition::default();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            match parts.next() {
                Some("TYPE") => {
                    let name = parts
                        .next()
                        .ok_or(format!("line {lineno}: TYPE missing metric name"))?;
                    let kind = parts
                        .next()
                        .ok_or(format!("line {lineno}: TYPE missing kind"))?;
                    if !valid_metric_name(name) {
                        return Err(format!("line {lineno}: bad metric name {name:?}"));
                    }
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "summary" | "histogram" | "untyped"
                    ) {
                        return Err(format!("line {lineno}: unknown TYPE kind {kind:?}"));
                    }
                    typed.insert(name.to_string(), kind.to_string());
                }
                Some("HELP") => {}
                _ => return Err(format!("line {lineno}: unknown comment directive")),
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // bare comment
        }
        // Sample line: name[{labels}] value
        let (key, value_str) = line
            .rsplit_once(' ')
            .ok_or(format!("line {lineno}: sample missing value"))?;
        let key = key.trim();
        let name = key.split('{').next().unwrap_or(key);
        if !valid_metric_name(name) {
            return Err(format!("line {lineno}: bad metric name {name:?}"));
        }
        if key.contains('{') && !key.ends_with('}') {
            return Err(format!("line {lineno}: unterminated label set"));
        }
        let value: f64 = match value_str {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            s => s
                .parse()
                .map_err(|_| format!("line {lineno}: bad sample value {s:?}"))?,
        };
        // Family lookup: summaries/counters emit suffixed sample names.
        let family_ok = typed.contains_key(name)
            || [
                ("_total", "counter"),
                ("_sum", "summary"),
                ("_count", "summary"),
            ]
            .iter()
            .any(|(suffix, kind)| {
                name.strip_suffix(suffix)
                    .map(|base| {
                        typed.get(base).map(|k| k == kind).unwrap_or(false)
                            || typed.contains_key(name)
                    })
                    .unwrap_or(false)
            })
            || typed.contains_key(name.strip_suffix("_total").unwrap_or(name));
        if !family_ok {
            return Err(format!("line {lineno}: sample {name:?} has no # TYPE"));
        }
        if exposition.samples.insert(key.to_string(), value).is_some() {
            return Err(format!("line {lineno}: duplicate sample {key:?}"));
        }
    }
    if exposition.samples.is_empty() {
        return Err("no samples in exposition".into());
    }
    Ok(exposition)
}

// ---------------------------------------------------------------------------
// /status report

/// Per-task tuning progress, reconstructed from the `progress/task/…`
/// gauges published by the search policy.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TaskProgress {
    pub round: f64,
    pub trials_used: f64,
    pub trials_budget: Option<f64>,
    pub best_seconds: Option<f64>,
    pub best_gflops: Option<f64>,
    pub eta_seconds: Option<f64>,
}

/// Hit/miss/rate triple for one cache.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub hit_rate: f64,
}

/// Fault and robustness counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    pub retries: u64,
    pub gave_up: u64,
    pub quarantined: u64,
    pub failed: u64,
    pub errors: BTreeMap<String, u64>,
}

/// Measurement throughput figures.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Throughput {
    /// Trials per second averaged over the whole run.
    pub trials_per_second: f64,
    /// Trials per second since the previous `/status` scrape (`None` on
    /// the first scrape).
    pub recent_trials_per_second: Option<f64>,
}

/// One job's daemon-side view, reconstructed from the
/// `serve/job/<id>/…` gauges the daemon publishes per job.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeJob {
    /// `queued`, `running`, `done`, `failed`, or `cancelled`.
    pub state: String,
    pub trials: u64,
    pub trials_budget: u64,
    pub rounds: u64,
    /// Milliseconds the job sat queued before a worker claimed it
    /// (`None` while still queued).
    pub queue_wait_ms: Option<f64>,
    pub best_seconds: Option<f64>,
    pub best_gflops: Option<f64>,
}

/// Daemon-side state published by `ansor-serve` through `serve/*` gauges
/// (absent from the report when the process is not a tuning daemon).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeStatus {
    pub queue_depth: u64,
    pub active_sessions: u64,
    pub jobs_submitted: u64,
    pub jobs_done: u64,
    pub jobs_failed: u64,
    pub jobs_cancelled: u64,
    pub draining: bool,
    pub store_entries: u64,
    pub store_records: u64,
    /// Trials completed across all jobs, finished and live.
    #[serde(default)]
    pub trials_total: u64,
    /// Per-job progress keyed by job id (`serve/job/<id>/…` gauges).
    #[serde(default)]
    pub jobs: BTreeMap<String, ServeJob>,
    /// Queue-wait distribution across claimed jobs (milliseconds).
    #[serde(default)]
    pub queue_wait_ms: Option<HistogramSummary>,
    /// Request latency per protocol method (milliseconds), from the
    /// `serve/request_ms/<method>` histograms.
    #[serde(default)]
    pub request_ms: BTreeMap<String, HistogramSummary>,
}

/// Decode the numeric `serve/job/<id>/state` gauge the daemon publishes.
fn job_state_name(code: f64) -> &'static str {
    match code as i64 {
        0 => "queued",
        1 => "running",
        2 => "done",
        3 => "failed",
        4 => "cancelled",
        _ => "unknown",
    }
}

/// Everything `/status` serves; `ansor-top` deserializes this directly.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatusReport {
    pub uptime_seconds: f64,
    pub healthy: bool,
    pub heartbeat_age_seconds: f64,
    pub stall_window_seconds: f64,
    pub tasks: BTreeMap<String, TaskProgress>,
    pub scheduler: BTreeMap<String, f64>,
    pub phases: BTreeMap<String, HistogramSummary>,
    pub caches: BTreeMap<String, CacheStats>,
    pub faults: FaultStats,
    pub throughput: Throughput,
    pub resources: BTreeMap<String, f64>,
    /// `Some` only when the process runs an `ansor-serve` daemon.
    pub serve: Option<ServeStatus>,
}

fn serve_status(snap: &Snapshot) -> Option<ServeStatus> {
    if !snap.metrics.gauges.keys().any(|k| k.starts_with("serve/")) {
        return None;
    }
    let gauge = |name: &str| snap.metrics.gauges.get(name).copied().unwrap_or(0.0) as u64;
    let mut jobs: BTreeMap<String, ServeJob> = BTreeMap::new();
    for (k, &v) in &snap.metrics.gauges {
        let Some(rest) = k.strip_prefix("serve/job/") else {
            continue;
        };
        // Job ids never contain '/', so the field is the last segment.
        let Some((job, field)) = rest.rsplit_once('/') else {
            continue;
        };
        let entry = jobs.entry(job.to_string()).or_default();
        match field {
            "state" => entry.state = job_state_name(v).to_string(),
            "trials" => entry.trials = v as u64,
            "trials_budget" => entry.trials_budget = v as u64,
            "rounds" => entry.rounds = v as u64,
            "queue_wait_ms" => entry.queue_wait_ms = Some(v),
            "best_seconds" => entry.best_seconds = Some(v),
            "best_gflops" => entry.best_gflops = Some(v),
            _ => {}
        }
    }
    Some(ServeStatus {
        queue_depth: gauge("serve/queue_depth"),
        active_sessions: gauge("serve/active_sessions"),
        jobs_submitted: gauge("serve/jobs_submitted"),
        jobs_done: gauge("serve/jobs_done"),
        jobs_failed: gauge("serve/jobs_failed"),
        jobs_cancelled: gauge("serve/jobs_cancelled"),
        draining: gauge("serve/draining") != 0,
        store_entries: gauge("serve/store_entries"),
        store_records: gauge("serve/store_records"),
        trials_total: gauge("serve/trials_total"),
        jobs,
        queue_wait_ms: snap.metrics.histograms.get("serve/queue_wait_ms").cloned(),
        request_ms: snap
            .metrics
            .histograms
            .iter()
            .filter_map(|(k, v)| {
                let method = k.strip_prefix("serve/request_ms/")?;
                Some((method.to_string(), v.clone()))
            })
            .collect(),
    })
}

fn cache_stats(snap: &Snapshot, hits: &str, misses: &str) -> Option<CacheStats> {
    let h = snap.metrics.counters.get(hits).copied().unwrap_or(0);
    let m = snap.metrics.counters.get(misses).copied().unwrap_or(0);
    if h + m == 0 {
        return None;
    }
    Some(CacheStats {
        hits: h,
        misses: m,
        hit_rate: h as f64 / (h + m) as f64,
    })
}

/// Assemble a [`StatusReport`] from a snapshot (pure, so tests can drive
/// it directly).
pub fn build_status(
    snap: &Snapshot,
    prev: Option<&Snapshot>,
    resources: &BTreeMap<String, f64>,
    healthy: bool,
    heartbeat_age_seconds: f64,
    stall_window_seconds: f64,
) -> StatusReport {
    let mut tasks: BTreeMap<String, TaskProgress> = BTreeMap::new();
    let mut scheduler = BTreeMap::new();
    for (name, &value) in &snap.metrics.gauges {
        if let Some(rest) = name.strip_prefix("progress/task/") {
            // Task names may contain '/'; the field is the last segment.
            let Some((task, field)) = rest.rsplit_once('/') else {
                continue;
            };
            let entry = tasks.entry(task.to_string()).or_default();
            match field {
                "round" => entry.round = value,
                "trials_used" => entry.trials_used = value,
                "trials_budget" => entry.trials_budget = Some(value),
                "best_seconds" => entry.best_seconds = Some(value),
                "best_gflops" => entry.best_gflops = Some(value),
                "eta_seconds" => entry.eta_seconds = Some(value),
                _ => {}
            }
        } else if let Some(field) = name.strip_prefix("progress/scheduler/") {
            scheduler.insert(field.to_string(), value);
        }
    }

    let phases = snap
        .metrics
        .histograms
        .iter()
        .filter(|(k, _)| k.starts_with("phase/"))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();

    let mut caches = BTreeMap::new();
    for (label, hits, misses) in [
        ("measure", "measure/cache_hits", "measure/cache_misses"),
        ("features", "features/cache_hits", "features/cache_misses"),
        (
            "model_score",
            "model/score_cache_hits",
            "model/score_cache_misses",
        ),
    ] {
        if let Some(stats) = cache_stats(snap, hits, misses) {
            caches.insert(label.to_string(), stats);
        }
    }

    let counter = |name: &str| snap.metrics.counters.get(name).copied().unwrap_or(0);
    let faults = FaultStats {
        retries: counter("measure/retries"),
        gave_up: counter("measure/gave_up"),
        quarantined: counter("search/quarantined"),
        failed: counter("measure/failed"),
        errors: snap
            .metrics
            .counters
            .iter()
            .filter_map(|(k, &v)| {
                k.strip_prefix("measure/errors/")
                    .map(|e| (e.to_string(), v))
            })
            .collect(),
    };

    let trials = counter("measure/valid") + counter("measure/failed");
    let throughput = Throughput {
        trials_per_second: if snap.uptime_seconds > 0.0 {
            trials as f64 / snap.uptime_seconds
        } else {
            0.0
        },
        recent_trials_per_second: prev.map(|p| {
            let d = snap.delta(p);
            d.rate("measure/valid") + d.rate("measure/failed")
        }),
    };

    StatusReport {
        uptime_seconds: snap.uptime_seconds,
        healthy,
        heartbeat_age_seconds,
        stall_window_seconds,
        tasks,
        scheduler,
        phases,
        caches,
        faults,
        throughput,
        resources: resources.clone(),
        serve: serve_status(snap),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        let t = Telemetry::with_metrics();
        t.incr("measure/valid", 40);
        t.incr("measure/failed", 8);
        t.incr("measure/cache_hits", 30);
        t.incr("measure/cache_misses", 10);
        t.incr("measure/retries", 3);
        t.incr("measure/errors/lowering", 5);
        t.gauge_set("progress/task/golden:mm_relu_128/round", 2.0);
        t.gauge_set("progress/task/golden:mm_relu_128/trials_used", 32.0);
        t.gauge_set("progress/task/golden:mm_relu_128/best_gflops", 75.5);
        t.gauge_set("progress/task/t2d:dcgan/up1/round", 1.0);
        t.gauge_set("progress/scheduler/units_done", 4.0);
        t.observe("phase/evolution", 0.25);
        t.live_snapshot().unwrap()
    }

    #[test]
    fn exposition_roundtrips_through_parser() {
        let snap = sample_snapshot();
        let mut resources = BTreeMap::new();
        resources.insert("process/rss_bytes".to_string(), 1234.0 * 4096.0);
        let text = render_exposition(&snap, &resources);
        let parsed = parse_exposition(&text).expect("rendered exposition parses");
        assert_eq!(parsed.value("ansor_measure_valid_total"), Some(40.0));
        assert_eq!(parsed.value("ansor_measure_failed_total"), Some(8.0));
        assert_eq!(
            parsed.value("ansor_progress_task_golden_mm_relu_128_best_gflops"),
            Some(75.5)
        );
        assert_eq!(
            parsed.value("ansor_process_rss_bytes"),
            Some(1234.0 * 4096.0)
        );
        assert!(parsed.value("ansor_phase_evolution_count").is_some());
        assert!(parsed
            .samples
            .keys()
            .any(|k| k.starts_with("ansor_phase_evolution{quantile=")));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_exposition("").is_err());
        assert!(parse_exposition("just words\n").is_err());
        assert!(parse_exposition("# TYPE x gauge\nx notanumber\n").is_err());
        assert!(parse_exposition("x 1\n").is_err(), "sample without TYPE");
        assert!(
            parse_exposition("# TYPE x gauge\nx 1\nx 2\n").is_err(),
            "duplicate sample"
        );
        assert!(parse_exposition("# TYPE 9bad gauge\n9bad 1\n").is_err());
    }

    #[test]
    fn status_reconstructs_tasks_with_slashes_in_names() {
        let snap = sample_snapshot();
        let report = build_status(&snap, None, &BTreeMap::new(), true, 0.1, 30.0);
        assert_eq!(report.tasks.len(), 2);
        let golden = &report.tasks["golden:mm_relu_128"];
        assert_eq!(golden.round, 2.0);
        assert_eq!(golden.trials_used, 32.0);
        assert_eq!(golden.best_gflops, Some(75.5));
        assert!(report.tasks.contains_key("t2d:dcgan/up1"));
        assert_eq!(report.scheduler["units_done"], 4.0);
        let cache = &report.caches["measure"];
        assert!((cache.hit_rate - 0.75).abs() < 1e-12);
        assert_eq!(report.faults.retries, 3);
        assert_eq!(report.faults.errors["lowering"], 5);
        assert!(report.phases.contains_key("phase/evolution"));
        assert!(report.throughput.trials_per_second > 0.0);
        assert!(report.throughput.recent_trials_per_second.is_none());
    }

    #[test]
    fn status_report_roundtrips_through_json() {
        let snap = sample_snapshot();
        let report = build_status(&snap, Some(&snap), &BTreeMap::new(), false, 99.0, 30.0);
        let json = serde_json::to_string(&report).unwrap();
        let back: StatusReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(!back.healthy);
    }

    #[test]
    fn status_picks_up_serve_gauges_when_present() {
        let snap = sample_snapshot();
        let report = build_status(&snap, None, &BTreeMap::new(), true, 0.1, 30.0);
        assert!(report.serve.is_none(), "no serve gauges → no serve section");

        let t = Telemetry::with_metrics();
        t.gauge_set("serve/queue_depth", 3.0);
        t.gauge_set("serve/active_sessions", 2.0);
        t.gauge_set("serve/jobs_submitted", 7.0);
        t.gauge_set("serve/jobs_done", 4.0);
        t.gauge_set("serve/draining", 1.0);
        t.gauge_set("serve/store_entries", 2.0);
        t.gauge_set("serve/store_records", 96.0);
        t.gauge_set("serve/trials_total", 192.0);
        t.gauge_set("serve/job/job-6/state", 1.0);
        t.gauge_set("serve/job/job-6/trials", 32.0);
        t.gauge_set("serve/job/job-6/trials_budget", 200.0);
        t.gauge_set("serve/job/job-6/rounds", 2.0);
        t.gauge_set("serve/job/job-6/queue_wait_ms", 1.5);
        t.gauge_set("serve/job/job-6/best_gflops", 81.0);
        t.gauge_set("serve/job/job-7/state", 0.0);
        t.observe("serve/queue_wait_ms", 1.5);
        t.observe("serve/request_ms/submit", 0.2);
        t.observe("serve/request_ms/status", 0.1);
        let snap = t.live_snapshot().unwrap();
        let report = build_status(&snap, None, &BTreeMap::new(), true, 0.1, 30.0);
        let serve = report.serve.as_ref().expect("serve section present");
        assert_eq!(serve.queue_depth, 3);
        assert_eq!(serve.active_sessions, 2);
        assert_eq!(serve.jobs_submitted, 7);
        assert_eq!(serve.jobs_done, 4);
        assert_eq!(serve.jobs_failed, 0);
        assert!(serve.draining);
        assert_eq!(serve.store_records, 96);
        assert_eq!(serve.trials_total, 192);
        let job = &serve.jobs["job-6"];
        assert_eq!(job.state, "running");
        assert_eq!(job.trials, 32);
        assert_eq!(job.trials_budget, 200);
        assert_eq!(job.rounds, 2);
        assert_eq!(job.queue_wait_ms, Some(1.5));
        assert_eq!(job.best_gflops, Some(81.0));
        assert_eq!(serve.jobs["job-7"].state, "queued");
        assert_eq!(serve.queue_wait_ms.as_ref().unwrap().count, 1);
        assert_eq!(serve.request_ms["submit"].count, 1);
        assert_eq!(serve.request_ms["status"].count, 1);
        // And the section survives the JSON round trip `ansor-top` relies on.
        let json = serde_json::to_string(&report).unwrap();
        let back: StatusReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn serve_refuses_disabled_telemetry() {
        let err = serve(
            &Telemetry::disabled(),
            "127.0.0.1:0",
            ExportOptions::default(),
        );
        assert!(err.is_err());
    }
}
