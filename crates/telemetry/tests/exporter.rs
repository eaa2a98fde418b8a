//! End-to-end exporter test: serve a live registry on an ephemeral port,
//! scrape it over a real TCP connection, and check that the Prometheus
//! exposition and the JSON status report agree with a direct snapshot.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

use telemetry::export::{parse_exposition, serve, ExportOptions, StatusReport};
use telemetry::Telemetry;

/// Minimal HTTP GET against the exporter; returns (status code, body).
fn http_get(addr: &str, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to exporter");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let req = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes()).expect("send request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let text = String::from_utf8_lossy(&response);
    let (head, body) = text.split_once("\r\n\r\n").expect("response has a head");
    let code: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status line has a code");
    (code, body.to_string())
}

fn send_raw(addr: &str, raw: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    String::from_utf8_lossy(&response).into_owned()
}

/// A registry populated the way a small tuning run would populate it.
fn seeded_telemetry() -> Telemetry {
    let tel = Telemetry::with_metrics();
    tel.incr("measure/valid", 40);
    tel.incr("measure/failed", 2);
    tel.incr("measure/cache_hits", 30);
    tel.incr("measure/cache_misses", 12);
    tel.incr("measure/retries", 3);
    tel.gauge_set("progress/task/GMM:C/round", 4.0);
    tel.gauge_set("progress/task/GMM:C/trials_used", 40.0);
    tel.gauge_set("progress/task/GMM:C/trials_budget", 64.0);
    tel.gauge_set("progress/task/GMM:C/best_seconds", 0.002);
    tel.gauge_set("progress/task/GMM:C/best_gflops", 123.5);
    tel.observe("phase/evolution", 0.5);
    tel.observe("phase/evolution", 1.5);
    tel
}

#[test]
fn metrics_endpoint_matches_direct_snapshot() {
    let tel = seeded_telemetry();
    let exporter = serve(&tel, "127.0.0.1:0", ExportOptions::default()).expect("bind port 0");
    let addr = exporter.local_addr().to_string();

    let (code, body) = http_get(&addr, "/metrics");
    assert_eq!(code, 200);
    let exposition = parse_exposition(&body).expect("exporter output must parse");

    // Every counter and gauge in a direct snapshot appears with the same
    // value under its Prometheus name.
    let snap = tel.live_snapshot().expect("metrics enabled");
    for (name, value) in &snap.metrics.counters {
        let key = format!("{}_total", telemetry::export::prometheus_name(name));
        assert_eq!(
            exposition.value(&key),
            Some(*value as f64),
            "counter {name} should be exported as {key}"
        );
    }
    for (name, value) in &snap.metrics.gauges {
        let key = telemetry::export::prometheus_name(name);
        assert_eq!(exposition.value(&key), Some(*value), "gauge {name} → {key}");
    }
    // Histograms appear as summaries with count/sum/quantiles.
    assert_eq!(exposition.value("ansor_phase_evolution_count"), Some(2.0));
    assert_eq!(exposition.value("ansor_phase_evolution_sum"), Some(2.0));
    assert!(body.contains("ansor_phase_evolution{quantile=\"0.5\"}"));
    // Uptime gauge is present and sane.
    let uptime = exposition.value("ansor_uptime_seconds").expect("uptime");
    assert!((0.0..3600.0).contains(&uptime));

    exporter.shutdown();
}

#[test]
fn status_endpoint_reports_task_progress() {
    let tel = seeded_telemetry();
    let exporter = serve(&tel, "127.0.0.1:0", ExportOptions::default()).expect("bind port 0");
    let addr = exporter.local_addr().to_string();

    let (code, body) = http_get(&addr, "/status");
    assert_eq!(code, 200);
    let report: StatusReport = serde_json::from_str(&body).expect("status JSON deserializes");
    assert!(report.healthy);
    let task = report.tasks.get("GMM:C").expect("task parsed from gauges");
    assert_eq!(task.round, 4.0);
    assert_eq!(task.trials_used, 40.0);
    assert_eq!(task.trials_budget, Some(64.0));
    assert_eq!(task.best_seconds, Some(0.002));
    assert_eq!(task.best_gflops, Some(123.5));
    let cache = report.caches.get("measure").expect("measure cache pair");
    assert_eq!(cache.hits, 30);
    assert_eq!(cache.misses, 12);
    assert!((cache.hit_rate - 30.0 / 42.0).abs() < 1e-12);
    assert_eq!(report.faults.retries, 3);
    assert!(report.throughput.trials_per_second > 0.0);

    // A second scrape carries a recent (delta-based) rate.
    tel.incr("measure/valid", 1);
    let (_, body2) = http_get(&addr, "/status");
    let report2: StatusReport = serde_json::from_str(&body2).expect("second status");
    assert!(report2.throughput.recent_trials_per_second.is_some());

    exporter.shutdown();
}

#[test]
fn healthz_flips_unhealthy_on_stall_and_recovers_on_heartbeat() {
    let tel = seeded_telemetry();
    let opts = ExportOptions {
        stall_window_seconds: 0.2,
    };
    let exporter = serve(&tel, "127.0.0.1:0", opts).expect("bind port 0");
    let addr = exporter.local_addr().to_string();

    let (code, body) = http_get(&addr, "/healthz");
    assert_eq!(code, 200, "fresh run is healthy: {body}");
    assert!(body.contains("\"healthy\":true"));

    // No counter/heartbeat movement for longer than the window: unhealthy.
    std::thread::sleep(Duration::from_millis(400));
    let (code, body) = http_get(&addr, "/healthz");
    assert_eq!(code, 503, "stalled run reads unhealthy: {body}");
    assert!(body.contains("\"healthy\":false"));

    // Any heartbeat tick (the measurer bumps this each attempt) recovers it.
    tel.gauge_add("measure/heartbeat", 1.0);
    let (code, body) = http_get(&addr, "/healthz");
    assert_eq!(code, 200, "heartbeat recovers health: {body}");

    exporter.shutdown();
}

#[test]
fn unknown_paths_and_methods_are_rejected() {
    let tel = seeded_telemetry();
    let exporter = serve(&tel, "127.0.0.1:0", ExportOptions::default()).expect("bind port 0");
    let addr = exporter.local_addr().to_string();

    let (code, _) = http_get(&addr, "/nope");
    assert_eq!(code, 404);
    let response = send_raw(
        &addr,
        &format!("POST /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"),
    );
    assert!(response.starts_with("HTTP/1.1 405"), "got: {response}");
    // Query strings are ignored for routing.
    let (code, _) = http_get(&addr, "/healthz?verbose=1");
    assert_eq!(code, 200);

    exporter.shutdown();
}

#[test]
fn shutdown_joins_and_frees_the_port() {
    let tel = seeded_telemetry();
    let exporter = serve(&tel, "127.0.0.1:0", ExportOptions::default()).expect("bind port 0");
    let addr = exporter.local_addr();
    exporter.shutdown();
    // The listener is closed once shutdown returns; rebinding must succeed.
    let rebound = std::net::TcpListener::bind(addr);
    assert!(rebound.is_ok(), "port should be free after shutdown");
}
