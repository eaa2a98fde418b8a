//! The per-job observability contract, end to end:
//!
//! 1. A served job's provenance trace — written by the daemon under
//!    `--trace-dir`, pulled over the protocol with `Client::trace` — must
//!    be **bit-identical** in its canonical event stream to the same-seed
//!    cold run `ansor-tune --trace` performs. Observability never changes
//!    what the search did, and the trace a client pulls is the truth. So
//!    must a resubmit of the job, which recalls its trained models from
//!    the warm store instead of fitting them.
//! 2. Per-job counter summaries must reconcile: every job's
//!    `JobResult.counters` accounts for its own trials, and the daemon's
//!    `ServerStats.trials_total` equals the sum over job results.
//! 3. The job journal must feed `trace-report --serve`: per-job lifecycle
//!    rows plus fleet-wide operator/rule efficacy aggregated across at
//!    least two concurrently-run jobs.
//! 4. The daemon's three views of its jobs — its `stats`/`status`/`result`
//!    answers, its gauges as `/status` reads them, and its journal — agree
//!    job by job and in every count, whichever way each job ended.

use std::collections::BTreeMap;
use std::path::Path;

use ansor::core::{TuningOptions, TuningSession};
use ansor::prelude::*;
use ansor::serve::journal::{fold_jobs, read_journal};
use ansor::serve::{Client, JobSpec, ServeConfig, Server};
use ansor::workloads::build_case;
use ansor_bench::serve_report::ServeReport;
use telemetry::export::build_status;
use telemetry::{read_trace, SharedBuf, Telemetry, TraceEvent};

/// Two rounds of 64 measurements: the second scores with a trained model.
const TRIALS: usize = 128;

fn spec(seed: u64) -> JobSpec {
    JobSpec {
        op: "GMM".into(),
        shape: 0,
        batch: 1,
        target: "intel".into(),
        trials: TRIALS,
        seed,
        warm_start: None,
        threads: None,
        faults: None,
        prerank_keep: None,
        transfer: None,
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ansor-observability-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The determinism-comparable form of a trace: one canonical JSON line
/// per event, wall-clock envelope (`seq`/`t_ms`) and the final
/// `PhaseProfile` dropped — exactly what `trace-report --events` writes.
fn canonical_events(raw: &[u8]) -> Vec<String> {
    let (lines, skipped) = read_trace(raw).expect("trace parses");
    assert_eq!(skipped, 0, "corrupt lines in trace");
    telemetry::canonical_events(&lines)
}

/// The final `PhaseProfile`'s `model/memo_hits` counter of a trace.
fn memo_hits(raw: &[u8]) -> u64 {
    let (lines, _) = read_trace(raw).expect("trace parses");
    lines
        .into_iter()
        .rev()
        .find_map(|l| match l.event {
            TraceEvent::PhaseProfile { snapshot } => Some(snapshot),
            _ => None,
        })
        .expect("a flushed trace ends with its PhaseProfile")
        .counters
        .get("model/memo_hits")
        .copied()
        .unwrap_or(0)
}

/// Runs the spec cold with a trace sink — the `ansor-tune --trace` path —
/// and returns the raw trace bytes.
fn cold_traced_run(spec: &JobSpec) -> Vec<u8> {
    let buf = SharedBuf::new();
    let tel = Telemetry::to_writer(Box::new(buf.clone()));
    let dag = build_case(&spec.op, spec.shape, spec.batch).expect("known case");
    let target = HardwareTarget::by_name(&spec.target).expect("known target");
    let task = SearchTask::new(spec.task_name(), dag, target.clone());
    let options = TuningOptions {
        num_measure_trials: spec.trials,
        seed: spec.seed,
        telemetry: tel.clone(),
        ..Default::default()
    };
    let mut measurer = Measurer::new(target);
    measurer.set_telemetry(tel.clone());
    let mut session = TuningSession::new(task, options, measurer, spec.fingerprint("none"));
    session.run(|_| true);
    tel.flush();
    buf.contents()
}

#[test]
fn served_trace_is_bit_identical_to_cold_tune_trace() {
    let dir = temp_dir("bit-identity");
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap: 8,
        trace_dir: Some(dir.join("traces").to_string_lossy().to_string()),
        journal_path: Some(dir.join("journal.jsonl").to_string_lossy().to_string()),
        ..Default::default()
    })
    .expect("server starts");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");

    let id = client.submit(spec(5)).expect("submit");
    let result = client.wait(&id).expect("wait");
    assert_eq!(result.state, "done");

    // The served trace, pulled over the protocol.
    let served = client.trace(&id).expect("trace");
    let served_events = canonical_events(served.as_bytes());
    assert!(
        served_events.len() > TRIALS,
        "suspiciously thin trace: {} events",
        served_events.len()
    );

    // The same seed driven cold through the `ansor-tune --trace` path.
    let cold_events = canonical_events(&cold_traced_run(&spec(5)));
    assert_eq!(
        served_events, cold_events,
        "served job's canonical event stream must equal the cold run's, byte for byte"
    );
    // Not vacuous: a different seed must trace differently.
    let other_events = canonical_events(&cold_traced_run(&spec(6)));
    assert_ne!(served_events, other_events, "seeds must matter");

    // The same spec again: it recalls the first job's trained models
    // from the warm store, and its trace is still the cold run's.
    let again = client.submit(spec(5)).expect("submit");
    let repeat = client.wait(&again).expect("wait");
    assert_eq!(repeat.state, "done");
    assert_eq!(
        (repeat.log_fingerprint, repeat.best_signature),
        (result.log_fingerprint, result.best_signature)
    );
    let repeat_trace = client.trace(&again).expect("trace");
    assert_eq!(
        canonical_events(repeat_trace.as_bytes()),
        cold_events,
        "a repeat's canonical event stream must equal the cold run's, byte for byte"
    );
    assert_eq!(memo_hits(served.as_bytes()), 0);
    assert!(
        memo_hits(repeat_trace.as_bytes()) >= 1,
        "the repeat fitted every model again"
    );

    // Counter reconciliation: the per-job summary accounts for every
    // trial, and the daemon's running total matches the sum over jobs.
    for r in [&result, &repeat] {
        let c = &r.counters;
        assert_eq!(c.trials_valid + c.trials_failed, r.trials);
        assert!(!c.phase_seconds.is_empty(), "no phase breakdown");
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.trials_total, result.trials + repeat.trials);

    client.shutdown(true).expect("shutdown");
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_feeds_serve_report_with_fleet_efficacy() {
    let dir = temp_dir("serve-report");
    let journal = dir.join("journal.jsonl");
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_cap: 8,
        trace_dir: Some(dir.join("traces").to_string_lossy().to_string()),
        journal_path: Some(journal.to_string_lossy().to_string()),
        ..Default::default()
    })
    .expect("server starts");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");

    // Two jobs in flight at once on two workers.
    let a = client.submit(spec(1)).expect("submit");
    let b = client.submit(spec(2)).expect("submit");
    let ra = client.wait(&a).expect("wait");
    let rb = client.wait(&b).expect("wait");
    assert_eq!(ra.state, "done");
    assert_eq!(rb.state, "done");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.trials_total,
        ra.trials + rb.trials,
        "daemon trial total must equal the sum of per-job results"
    );
    client.shutdown(true).expect("shutdown");
    server.wait();

    let report = ServeReport::build(&journal).expect("journal readable");
    assert_eq!(report.daemon_starts, 1);
    assert_eq!(report.jobs.len(), 2);
    for row in &report.jobs {
        assert_eq!(row.outcome, "done", "{row:?}");
        assert_eq!(row.trials, TRIALS as u64);
        assert!(row.queue_wait_ms.is_some(), "{row:?}");
        assert!(row.wall_ms.is_some(), "{row:?}");
        assert!(row.best_gflops.is_some(), "{row:?}");
        assert!(row.trace.is_some(), "{row:?}");
    }
    assert_eq!(report.traces_read, 2);
    assert_eq!(report.traces_missing, 0);
    assert!(
        !report.operator_efficacy.is_empty(),
        "fleet operator efficacy empty"
    );
    assert!(
        !report.rule_efficacy.is_empty(),
        "fleet rule efficacy empty"
    );
    // Aggregation really spans both jobs: every funnel count is at least
    // what a single job contributes, and proposals were recorded.
    let proposed: u64 = report.operator_efficacy.values().map(|e| e.proposed).sum();
    assert!(proposed > 0, "no operator proposals aggregated");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checks, at a point where the daemon is idle, that its answers, its
/// gauges and its journal name the same jobs `ids` (in submit order) in
/// the same states with the same trials, and the same counts.
fn assert_views_agree(c: &mut Client, tel: &Telemetry, journal: &Path, ids: &[String]) {
    let stats = c.stats().expect("stats");
    let snap = tel.live_snapshot().expect("metrics enabled");
    let gauges = build_status(&snap, None, &BTreeMap::new(), true, 0.0, 0.0)
        .serve
        .expect("a serve section");
    let (events, skipped) = read_journal(journal).expect("journal readable");
    assert_eq!(skipped, 0);
    let rows = fold_jobs(&events);
    let journaled: Vec<&String> = rows.iter().map(|row| &row.job).collect();
    assert_eq!(journaled, ids.iter().collect::<Vec<_>>());
    assert_eq!(gauges.jobs.len(), ids.len());

    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    let mut trials_total = 0;
    for row in &rows {
        let id = &row.job;
        let status = c.status(id).expect("status");
        let result = c.result(id).expect("an idle daemon has ended every job");
        let gauge = &gauges.jobs[id];
        let outcome = row.outcome.as_str();
        assert_eq!(
            (
                status.state.as_str(),
                gauge.state.as_str(),
                result.state.as_str()
            ),
            (outcome, outcome, outcome),
            "{id}"
        );
        assert_eq!(
            (status.trials, gauge.trials, result.trials),
            (row.trials, row.trials, row.trials),
            "{id}"
        );
        assert_eq!(status.rounds, gauge.rounds, "{id}");
        *counts.entry(outcome).or_default() += 1;
        trials_total += row.trials;
    }
    let count = |state: &str| counts.get(state).copied().unwrap_or(0);
    let n = ids.len() as u64;
    assert_eq!((stats.jobs_submitted, gauges.jobs_submitted), (n, n));
    assert_eq!((stats.jobs_queued, gauges.queue_depth), (0, 0));
    assert_eq!((stats.jobs_active, gauges.active_sessions), (0, 0));
    assert_eq!(
        (stats.jobs_done, gauges.jobs_done),
        (count("done"), count("done"))
    );
    assert_eq!(
        (stats.jobs_failed, gauges.jobs_failed),
        (count("failed"), count("failed"))
    );
    assert_eq!(
        (stats.jobs_cancelled, gauges.jobs_cancelled),
        (count("cancelled"), count("cancelled"))
    );
    assert_eq!(
        (stats.trials_total, gauges.trials_total),
        (trials_total, trials_total)
    );
    assert_eq!(stats.draining, gauges.draining);
}

#[test]
fn answers_gauges_and_journal_agree_on_every_job() {
    let dir = temp_dir("three-views");
    let journal = dir.join("journal.jsonl");
    let _ = std::fs::remove_file(&journal);
    let tel = Telemetry::with_metrics();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap: 8,
        journal_path: Some(journal.to_string_lossy().to_string()),
        telemetry: tel.clone(),
        ..Default::default()
    })
    .expect("server starts");
    let mut c = Client::connect(&server.local_addr().to_string()).expect("connect");
    let long = |seed| JobSpec {
        trials: 4096,
        ..spec(seed)
    };
    let until_a_round = |c: &mut Client, id: &str| {
        while c.status(id).expect("status").rounds == 0 {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    };

    let done = c.submit(spec(1)).expect("submit");
    assert_eq!(c.wait(&done).expect("wait").state, "done");
    // One worker: the second job queues behind the first.
    let running = c.submit(long(2)).expect("submit");
    let queued = c.submit(long(3)).expect("submit");
    c.cancel(&queued).expect("cancel");
    until_a_round(&mut c, &running);
    c.cancel(&running).expect("cancel");
    for id in [&queued, &running] {
        assert_eq!(c.wait(id).expect("wait").state, "cancelled", "{id}");
    }
    let mut ids = vec![done, running, queued];
    assert_views_agree(&mut c, &tel, &journal, &ids);

    // A shutdown that does not drain ends the running job and the queued
    // one. This connection's handler outlives the daemon's threads, so it
    // still answers once `wait` returns.
    let running = c.submit(long(4)).expect("submit");
    let queued = c.submit(long(5)).expect("submit");
    until_a_round(&mut c, &running);
    server.shutdown(false);
    server.wait();
    for id in [&running, &queued] {
        assert_eq!(c.wait(id).expect("wait").state, "cancelled", "{id}");
    }
    ids.extend([running, queued]);
    assert_views_agree(&mut c, &tel, &journal, &ids);
    let _ = std::fs::remove_dir_all(&dir);
}
