//! Serving-path benchmark: throughput, request latency, and the
//! warm-store speedup of the `ansor-serve` daemon.
//!
//! Boots an in-process server (real TCP, ephemeral port, temp store),
//! runs a **cold** pass of distinct jobs submitted from concurrent
//! clients, then a **warm** pass resubmitting the identical jobs — every
//! measurement and featurization is then served from the shared store.
//! Reports jobs/sec for both passes, p50/p99 request latency from the
//! daemon's own `serve/request_ms/stats` histogram (probe requests keep
//! it busy; the daemon times every request at the dispatch layer),
//! queue-wait p50/p99 from `serve/queue_wait_ms`, and the wall-clock
//! `warm_cold_ratio`, a machine-independent number (both passes run the
//! same search on the same machine; only cache state differs).
//!
//! The warm pass also hard-asserts bit-identity: each warm job must
//! reproduce its cold counterpart's log fingerprint and best-program
//! signature, so the speedup can never come from cutting corners.
//!
//! Emits `BENCH_serve.json` (via `--json`); the committed baseline in
//! `results/` pins the ratio and `--check <baseline.json>` exits non-zero
//! when it regresses by more than 25% — the CI gate for the serving path.
//!
//! Run: `cargo run -p ansor-bench --release --bin serve-bench -- \
//!        --json BENCH_serve.json`
//! Gate: `... --bin serve-bench -- --check results/BENCH_serve.json`

use std::time::Instant;

use ansor_bench::{maybe_dump_json, maybe_record_trajectory, print_table, Args};
use ansor_serve::{Client, JobSpec, ServeConfig, Server};
use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize)]
struct BenchReport {
    /// Jobs per pass.
    jobs: usize,
    /// Trial budget per job.
    trials_per_job: usize,
    /// Concurrent session workers in the daemon.
    workers: usize,
    /// Cold pass: all jobs submitted and completed, wall ms.
    cold_wall_ms: f64,
    /// Warm pass (identical resubmits), wall ms.
    warm_wall_ms: f64,
    /// cold/warm wall ratio — the gated number.
    warm_cold_ratio: f64,
    /// Throughput, jobs per second.
    jobs_per_sec_cold: f64,
    jobs_per_sec_warm: f64,
    /// Request latency of `stats` probes against the busy daemon, ms —
    /// measured by the daemon itself (`serve/request_ms/stats`).
    request_p50_ms: f64,
    request_p99_ms: f64,
    /// Queue wait across all claimed jobs, ms, from the daemon's
    /// `serve/queue_wait_ms` histogram (absent in older baselines).
    #[serde(default)]
    queue_wait_p50_ms: f64,
    #[serde(default)]
    queue_wait_p99_ms: f64,
    /// Jobs whose queue wait the daemon observed (both passes).
    #[serde(default)]
    queue_waits_observed: u64,
    /// Measure-cache hits observed across the warm pass (must be > 0).
    warm_measure_hits: u64,
}

fn spec(seed: u64, trials: usize) -> JobSpec {
    JobSpec {
        op: "GMM".into(),
        shape: 0,
        batch: 1,
        target: "intel".into(),
        trials,
        seed,
        warm_start: None,
        threads: None,
        faults: None,
        prerank_keep: None,
        transfer: None,
    }
}

/// Runs one pass: submit every job from `clients` concurrent connections,
/// wait for all, return (wall_ms, per-job results in seed order).
fn run_pass(
    addr: &str,
    seeds: &[u64],
    trials: usize,
    clients: usize,
) -> (f64, Vec<ansor_serve::JobResult>) {
    let t0 = Instant::now();
    let chunks: Vec<Vec<u64>> = (0..clients)
        .map(|c| {
            seeds
                .iter()
                .copied()
                .skip(c)
                .step_by(clients)
                .collect::<Vec<_>>()
        })
        .collect();
    let mut results: Vec<(u64, ansor_serve::JobResult)> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut out = Vec::new();
                    let ids: Vec<(u64, String)> = chunk
                        .iter()
                        .map(|&seed| (seed, client.submit(spec(seed, trials)).expect("submit")))
                        .collect();
                    for (seed, id) in ids {
                        out.push((seed, client.wait(&id).expect("wait")));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    results.sort_by_key(|(seed, _)| *seed);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (wall_ms, results.into_iter().map(|(_, r)| r).collect())
}

/// Fires `stats` probes at the busy daemon. The daemon times each one
/// into its `serve/request_ms/stats` histogram at the dispatch layer, so
/// the reported latency excludes client-side connect/serialize noise.
fn probe_requests(addr: &str, probes: usize) {
    let mut client = Client::connect(addr).expect("connect");
    for _ in 0..probes {
        client.stats().expect("stats");
    }
}

fn main() {
    let args = Args::parse();
    let jobs = args.pick(4, 8, 16);
    let trials = args.pick(48, 64, 128);
    let workers = 2;
    let clients = 2;

    let dir = std::env::temp_dir().join(format!("ansor-serve-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let store = dir.join("store.json");
    let _ = std::fs::remove_file(&store);

    let telemetry = args.telemetry();
    // The daemon needs a metrics registry even when the harness runs
    // without `--metrics-addr`: its request/queue-wait histograms ARE the
    // latency measurement.
    let server_tel = if telemetry.is_enabled() {
        telemetry.clone()
    } else {
        telemetry::Telemetry::with_metrics()
    };
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_cap: jobs * 2 + 4,
        store_path: Some(store.to_string_lossy().to_string()),
        faults: args.faults_spec.clone(),
        telemetry: server_tel.clone(),
        ..Default::default()
    })
    .expect("server starts");
    let addr = server.local_addr().to_string();
    let seeds: Vec<u64> = (0..jobs as u64).collect();

    // Cold pass: empty store, every measurement computed. Latency probes
    // run concurrently so p50/p99 reflect a daemon under load.
    let (cold_wall_ms, cold_results) = std::thread::scope(|scope| {
        let pass = scope.spawn(|| run_pass(&addr, &seeds, trials, clients));
        let probes = scope.spawn(|| probe_requests(&addr, 200));
        let result = pass.join().expect("pass");
        probes.join().expect("probes");
        result
    });

    // Warm pass: identical jobs; the store now holds every measurement.
    let (warm_wall_ms, warm_results) = run_pass(&addr, &seeds, trials, clients);

    // Bit-identity: the warm run must reproduce the cold run exactly.
    let mut warm_measure_hits = 0u64;
    for (cold, warm) in cold_results.iter().zip(&warm_results) {
        assert_eq!(
            warm.log_fingerprint, cold.log_fingerprint,
            "warm job {} diverged from cold run",
            warm.job
        );
        assert_eq!(warm.best_signature, cold.best_signature);
        warm_measure_hits += warm.warm.measure_hits;
    }
    assert!(
        warm_measure_hits > 0,
        "warm pass never hit the shared measurement cache"
    );

    // Read the daemon's own latency histograms before shutting it down.
    let snap = server_tel.live_snapshot().expect("server metrics enabled");
    let request_stats = snap
        .metrics
        .histograms
        .get("serve/request_ms/stats")
        .cloned()
        .expect("stats probes recorded");
    let queue_wait = snap
        .metrics
        .histograms
        .get("serve/queue_wait_ms")
        .cloned()
        .expect("queue waits recorded");
    assert!(
        queue_wait.count >= (jobs * 2) as u64,
        "daemon observed {} queue waits for {} started jobs",
        queue_wait.count,
        jobs * 2
    );

    let mut shutdown_client = Client::connect(&addr).expect("connect");
    shutdown_client.shutdown(true).expect("shutdown");
    server.wait();
    let _ = std::fs::remove_file(&store);

    let report = BenchReport {
        jobs,
        trials_per_job: trials,
        workers,
        cold_wall_ms,
        warm_wall_ms,
        warm_cold_ratio: cold_wall_ms / warm_wall_ms.max(1e-9),
        jobs_per_sec_cold: jobs as f64 / (cold_wall_ms / 1e3).max(1e-9),
        jobs_per_sec_warm: jobs as f64 / (warm_wall_ms / 1e3).max(1e-9),
        request_p50_ms: request_stats.p50,
        request_p99_ms: request_stats.p99,
        queue_wait_p50_ms: queue_wait.p50,
        queue_wait_p99_ms: queue_wait.p99,
        queue_waits_observed: queue_wait.count,
        warm_measure_hits,
    };

    if args.tables_enabled() {
        print_table(
            &format!("Serving path ({jobs} jobs x {trials} trials, {workers} workers)"),
            &["metric", "cold", "warm", "ratio"],
            &[
                vec![
                    "pass wall (ms)".into(),
                    format!("{cold_wall_ms:.0}"),
                    format!("{warm_wall_ms:.0}"),
                    format!("{:.2}x", report.warm_cold_ratio),
                ],
                vec![
                    "jobs/sec".into(),
                    format!("{:.2}", report.jobs_per_sec_cold),
                    format!("{:.2}", report.jobs_per_sec_warm),
                    String::new(),
                ],
                vec![
                    "request p50/p99 (ms)".into(),
                    format!("{:.2}", report.request_p50_ms),
                    format!("{:.2}", report.request_p99_ms),
                    String::new(),
                ],
                vec![
                    "queue wait p50/p99 (ms)".into(),
                    format!("{:.2}", report.queue_wait_p50_ms),
                    format!("{:.2}", report.queue_wait_p99_ms),
                    format!("{} jobs", report.queue_waits_observed),
                ],
                vec![
                    "warm measure hits".into(),
                    String::new(),
                    format!("{warm_measure_hits}"),
                    String::new(),
                ],
            ],
        );
    }
    maybe_dump_json(&args, &report);
    args.finish_telemetry(&telemetry);

    // Cross-PR trajectory: append/refresh this run's gated ratio.
    maybe_record_trajectory(
        &args,
        "serve-bench",
        "warm_cold_ratio",
        report.warm_cold_ratio,
    );

    // Regression gate: the warm/cold ratio is machine-independent, so CI
    // compares against the committed baseline with a 25% allowance.
    if let Some(i) = args.flags.iter().position(|f| f == "--check") {
        let path = args.flags.get(i + 1).unwrap_or_else(|| {
            eprintln!("--check requires a baseline path");
            std::process::exit(2);
        });
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("--check: cannot read {path}: {e}");
            std::process::exit(2);
        });
        let baseline: BenchReport = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("--check: cannot parse {path}: {e}");
            std::process::exit(2);
        });
        let floor = baseline.warm_cold_ratio * 0.75;
        println!(
            "warm/cold ratio {:.2}x vs baseline {:.2}x (floor {floor:.2}x)",
            report.warm_cold_ratio, baseline.warm_cold_ratio
        );
        if report.warm_cold_ratio < floor {
            eprintln!("REGRESSION: warm-store speedup fell >25% below baseline");
            std::process::exit(1);
        }
    }
}
