//! `ansor-top`: a live terminal dashboard for a running tuning process.
//!
//! Polls the `/status` endpoint served by any binary started with
//! `--metrics-addr <addr>` (see docs/OPERATIONS.md) and renders per-task
//! progress, trial throughput, ETA, memory, and cache hit rates, refreshed
//! in place.
//!
//! ```text
//! ansor-top [addr] [--interval <secs>] [--once | --frames <n>] [--check <addr-or-file>]
//! ```
//!
//! - `addr` — exporter address (default `127.0.0.1:9464`);
//! - `--interval <secs>` — refresh period (default 2, at least 0.1); a
//!   value that is negative, NaN or too large for a `Duration` (`inf`) is a
//!   usage error;
//! - `--once` — render a single frame without clearing the screen (for
//!   pipelines and tests);
//! - `--frames <n>` — exit after `n` frames;
//! - `--check <addr-or-file>` — validator mode: fetch `/metrics` from an
//!   address (or read a saved exposition file), run the Prometheus
//!   text-format parser, and exit 0/1. Used by the CI `live-smoke` job.

use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

use ansor_bench::{flag_value, fmt_seconds, parse_flag, sparkline, usage_error};
use telemetry::export::{parse_exposition, StatusReport, TaskProgress};

fn http_get(addr: &str, path: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    let req = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream
        .write_all(req.as_bytes())
        .map_err(|e| format!("send request: {e}"))?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("read response: {e}"))?;
    let text = String::from_utf8_lossy(&response);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "malformed HTTP response".to_string())?;
    let code: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| "malformed status line".to_string())?;
    Ok((code, body.to_string()))
}

fn fmt_bytes(b: f64) -> String {
    if b >= 1024.0 * 1024.0 * 1024.0 {
        format!("{:.2} GiB", b / (1024.0 * 1024.0 * 1024.0))
    } else if b >= 1024.0 * 1024.0 {
        format!("{:.1} MiB", b / (1024.0 * 1024.0))
    } else {
        format!("{:.0} KiB", b / 1024.0)
    }
}

fn fmt_eta(s: f64) -> String {
    if !s.is_finite() {
        return "-".into();
    }
    if s >= 3600.0 {
        format!("{:.1}h", s / 3600.0)
    } else if s >= 60.0 {
        format!("{:.1}m", s / 60.0)
    } else {
        format!("{s:.0}s")
    }
}

/// One dashboard frame as a string (pure, testable).
fn render(
    addr: &str,
    report: &StatusReport,
    gflops_history: &BTreeMap<String, Vec<f64>>,
) -> String {
    let mut out = String::new();
    let health = if report.healthy {
        "HEALTHY".to_string()
    } else {
        format!("STALLED {:.0}s", report.heartbeat_age_seconds)
    };
    out.push_str(&format!(
        "ansor-top — {addr}   up {:.1}s   {health}\n",
        report.uptime_seconds
    ));

    let recent = report
        .throughput
        .recent_trials_per_second
        .map(|r| format!(", recent {r:.1}/s"))
        .unwrap_or_default();
    out.push_str(&format!(
        "trials/s: {:.1}{recent}",
        report.throughput.trials_per_second
    ));
    if let (Some(done), Some(budget)) = (
        report.scheduler.get("units_done"),
        report.scheduler.get("units_budget"),
    ) {
        out.push_str(&format!("   scheduler: {done:.0}/{budget:.0} units"));
    }
    if let Some(eta) = report.scheduler.get("eta_seconds") {
        out.push_str(&format!("   ETA {}", fmt_eta(*eta)));
    }
    out.push('\n');

    let res = &report.resources;
    let mut mem = Vec::new();
    if let Some(rss) = res.get("process/rss_bytes") {
        mem.push(format!("rss {}", fmt_bytes(*rss)));
    }
    if let Some(live) = res.get("alloc/live_bytes") {
        mem.push(format!("live {}", fmt_bytes(*live)));
    }
    if let Some(peak) = res.get("alloc/peak_bytes") {
        mem.push(format!("peak {}", fmt_bytes(*peak)));
    }
    if !mem.is_empty() {
        out.push_str(&format!("mem: {}", mem.join("  ")));
    }
    out.push('\n');

    if !report.tasks.is_empty() {
        out.push_str(&format!(
            "\n{:<32} {:>5} {:>12} {:>12} {:>8} {:>6}  TREND\n",
            "TASK", "ROUND", "TRIALS", "BEST", "GFLOPS", "ETA"
        ));
        for (name, t) in &report.tasks {
            let trials = match t.trials_budget {
                Some(b) => format!("{:.0}/{b:.0}", t.trials_used),
                None => format!("{:.0}", t.trials_used),
            };
            let best = t
                .best_seconds
                .map(fmt_seconds)
                .unwrap_or_else(|| "-".into());
            let gflops = t
                .best_gflops
                .map(|g| format!("{g:.1}"))
                .unwrap_or_else(|| "-".into());
            let eta = t.eta_seconds.map(fmt_eta).unwrap_or_else(|| "-".into());
            let trend = gflops_history
                .get(name)
                .map(|h| sparkline(h))
                .unwrap_or_default();
            out.push_str(&format!(
                "{name:<32} {:>5.0} {trials:>12} {best:>12} {gflops:>8} {eta:>6}  {trend}\n",
                t.round
            ));
        }
    }

    if !report.caches.is_empty() {
        let caches: Vec<String> = report
            .caches
            .iter()
            .map(|(name, c)| {
                format!(
                    "{name} {:.1}% ({}/{})",
                    c.hit_rate * 100.0,
                    c.hits,
                    c.hits + c.misses
                )
            })
            .collect();
        out.push_str(&format!("\ncaches: {}\n", caches.join("  ")));
    }

    if let Some(s) = &report.serve {
        let draining = if s.draining { "  DRAINING" } else { "" };
        out.push_str(&format!(
            "serve: {} active / {} queued   jobs {} done, {} failed, {} cancelled of {}   \
             store {} entries / {} records{draining}\n",
            s.active_sessions,
            s.queue_depth,
            s.jobs_done,
            s.jobs_failed,
            s.jobs_cancelled,
            s.jobs_submitted,
            s.store_entries,
            s.store_records,
        ));
        if !s.jobs.is_empty() {
            out.push_str(&format!(
                "\n{:<10} {:>9} {:>12} {:>6} {:>9} {:>8}\n",
                "JOB", "STATE", "TRIALS", "ROUNDS", "QWAIT", "GFLOPS"
            ));
            for (id, j) in &s.jobs {
                let trials = if j.trials_budget > 0 {
                    format!("{}/{}", j.trials, j.trials_budget)
                } else {
                    format!("{}", j.trials)
                };
                let qwait = j
                    .queue_wait_ms
                    .map(|ms| format!("{ms:.1}ms"))
                    .unwrap_or_else(|| "-".into());
                let gflops = j
                    .best_gflops
                    .map(|g| format!("{g:.1}"))
                    .unwrap_or_else(|| "-".into());
                out.push_str(&format!(
                    "{id:<10} {:>9} {trials:>12} {:>6} {qwait:>9} {gflops:>8}\n",
                    j.state, j.rounds
                ));
            }
        }
        let mut latency = Vec::new();
        if let Some(q) = &s.queue_wait_ms {
            latency.push(format!("queue-wait p50 {:.1}ms p99 {:.1}ms", q.p50, q.p99));
        }
        for (method, h) in &s.request_ms {
            latency.push(format!("{method} p50 {:.2}ms p99 {:.2}ms", h.p50, h.p99));
        }
        if !latency.is_empty() {
            out.push_str(&format!("latency: {}\n", latency.join("  ")));
        }
    }

    let f = &report.faults;
    if f.retries + f.gave_up + f.quarantined + f.failed > 0 {
        out.push_str(&format!(
            "faults: retries {}  gave_up {}  quarantined {}  failed {}\n",
            f.retries, f.gave_up, f.quarantined, f.failed
        ));
    }

    if !report.phases.is_empty() {
        let total: f64 = report
            .phases
            .iter()
            .filter(|(k, _)| k.matches('/').count() == 1) // top-level phases only
            .map(|(_, h)| h.sum)
            .sum();
        if total > 0.0 {
            let mut rows: Vec<(String, f64)> = report
                .phases
                .iter()
                .filter(|(k, _)| k.matches('/').count() == 1)
                .map(|(k, h)| (k.trim_start_matches("phase/").to_string(), h.sum))
                .collect();
            rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            let phases: Vec<String> = rows
                .iter()
                .take(5)
                .map(|(k, s)| format!("{k} {:.0}%", s / total * 100.0))
                .collect();
            out.push_str(&format!("phases: {}\n", phases.join("  ")));
        }
    }
    out
}

fn check_mode(target: &str) -> i32 {
    let text = if std::path::Path::new(target).exists() {
        match std::fs::read_to_string(target) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("ansor-top --check: read {target}: {e}");
                return 1;
            }
        }
    } else {
        match http_get(target, "/metrics") {
            Ok((200, body)) => body,
            Ok((code, _)) => {
                eprintln!("ansor-top --check: /metrics returned HTTP {code}");
                return 1;
            }
            Err(e) => {
                eprintln!("ansor-top --check: {e}");
                return 1;
            }
        }
    };
    match parse_exposition(&text) {
        Ok(exposition) => {
            println!(
                "ok: {} samples, valid Prometheus text exposition",
                exposition.samples.len()
            );
            0
        }
        Err(e) => {
            eprintln!("ansor-top --check: invalid exposition: {e}");
            1
        }
    }
}

fn main() {
    let mut addr = "127.0.0.1:9464".to_string();
    let mut interval = Duration::from_secs(2);
    let mut once = false;
    let mut frames: Option<u64> = None;
    let mut check: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || flag_value(&a, it.next());
        match a.as_str() {
            "--interval" => {
                let value = val();
                interval = Duration::try_from_secs_f64(parse_flag(&a, &value)).unwrap_or_else(|e| {
                    usage_error(format_args!("--interval: invalid value {value:?}: {e}"))
                })
            }
            "--once" => once = true,
            "--frames" => frames = Some(parse_flag(&a, &val())),
            "--check" => check = Some(val()),
            "--help" | "-h" => {
                println!(
                    "usage: ansor-top [addr] [--interval <secs>] [--once | --frames <n>] \
                     [--check <addr-or-file>]"
                );
                return;
            }
            other if other.starts_with('-') => usage_error(format_args!("unknown flag {other:?}")),
            other => addr = other.to_string(),
        }
    }
    if let Some(target) = check {
        std::process::exit(check_mode(&target));
    }

    let mut gflops_history: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut connected = false;
    let mut frame = 0u64;
    loop {
        match http_get(&addr, "/status") {
            Ok((200, body)) => {
                connected = true;
                let report: StatusReport = match serde_json::from_str(&body) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("ansor-top: bad /status payload: {e:?}");
                        std::process::exit(1);
                    }
                };
                for (name, t) in &report.tasks {
                    let TaskProgress {
                        best_gflops: Some(g),
                        ..
                    } = t
                    else {
                        continue;
                    };
                    let h = gflops_history.entry(name.clone()).or_default();
                    if h.last() != Some(g) {
                        h.push(*g);
                        if h.len() > 32 {
                            h.remove(0);
                        }
                    }
                }
                let body = render(&addr, &report, &gflops_history);
                if once || frames.is_some() {
                    print!("{body}");
                } else {
                    // Clear screen + home, then the frame.
                    print!("\x1b[2J\x1b[H{body}");
                }
                let _ = std::io::stdout().flush();
            }
            Ok((code, _)) => {
                eprintln!("ansor-top: /status returned HTTP {code}");
                std::process::exit(1);
            }
            Err(e) => {
                if connected {
                    // The tuning process exited; that is a normal end.
                    println!("\nansor-top: run ended ({e})");
                    return;
                }
                eprintln!("ansor-top: {e} (is the run started with --metrics-addr {addr}?)");
                std::process::exit(1);
            }
        }
        frame += 1;
        if once || frames.is_some_and(|n| frame >= n) {
            return;
        }
        std::thread::sleep(interval.max(Duration::from_millis(100)));
    }
}
