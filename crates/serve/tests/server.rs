//! End-to-end daemon behavior: job lifecycle, warm-store reuse across
//! jobs and restarts, cancellation, queue bounds, graceful drain, per-job
//! trace retrieval, and the job journal.

use ansor_serve::journal::{read_journal, JournalEvent};
use ansor_serve::{Client, JobSpec, ServeConfig, Server, WarmStore};

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

fn start(workers: usize, queue_cap: usize, store_path: Option<String>) -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_cap,
        store_path,
        ..Default::default()
    })
    .expect("server starts")
}

fn client(server: &Server) -> Client {
    Client::connect(&server.local_addr().to_string()).expect("connect")
}

#[test]
fn resubmitted_job_hits_the_warm_store() {
    let server = start(1, 8, None);
    let mut c = client(&server);

    let cold = c.submit(spec(42, 64)).expect("submit");
    let cold = c.wait(&cold).expect("wait");
    assert_eq!(cold.state, "done");
    assert!(cold.trials > 0);
    assert!(cold.best_seconds.is_some());

    // Identical spec again: the search replays the same trajectory, so
    // every measurement and featurization is already cached.
    let warm = c.submit(spec(42, 64)).expect("submit");
    let warm = c.wait(&warm).expect("wait");
    assert_eq!(warm.state, "done");
    assert!(
        warm.warm.measure_hits > 0,
        "no measure-cache hits on identical resubmit: {:?}",
        warm.warm
    );
    assert!(
        warm.warm.feature_hits > 0,
        "no feature-cache hits on identical resubmit: {:?}",
        warm.warm
    );
    // Bit-identical outcome.
    assert_eq!(warm.log_fingerprint, cold.log_fingerprint);
    assert_eq!(warm.best_signature, cold.best_signature);
    assert_eq!(
        warm.best_seconds.unwrap().to_bits(),
        cold.best_seconds.unwrap().to_bits()
    );

    // A different seed on the same workload class shares the caches too
    // (the class key excludes the seed) but follows its own trajectory.
    let other = c.submit(spec(7, 64)).expect("submit");
    let other = c.wait(&other).expect("wait");
    assert_eq!(other.state, "done");
    assert_ne!(other.log_fingerprint, cold.log_fingerprint);

    let stats = c.stats().expect("stats");
    assert_eq!(stats.jobs_done, 3);
    assert_eq!(stats.store_entries, 1);
    assert!(stats.store_records > 0);

    server.shutdown(true);
    server.wait();
}

#[test]
fn warm_store_survives_restart() {
    let dir = std::env::temp_dir().join(format!("ansor-serve-restart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.json");
    let _ = std::fs::remove_file(&path);
    let path_str = path.to_string_lossy().to_string();

    let first = start(1, 8, Some(path_str.clone()));
    let mut c = client(&first);
    let cold = c.submit(spec(3, 64)).expect("submit");
    let cold = c.wait(&cold).expect("wait");
    assert_eq!(cold.state, "done");
    c.shutdown(true).expect("shutdown");
    first.wait();
    assert!(path.exists(), "store file not written");

    // A fresh process (new server) re-primes its caches from the store, so
    // the same job is warm from the first trial.
    let second = start(1, 8, Some(path_str));
    let mut c = client(&second);
    let warm = c.submit(spec(3, 64)).expect("submit");
    let warm = c.wait(&warm).expect("wait");
    assert_eq!(warm.state, "done");
    assert!(
        warm.warm.measure_hits > 0,
        "restart lost the warm store: {:?}",
        warm.warm
    );
    assert_eq!(warm.log_fingerprint, cold.log_fingerprint);
    second.shutdown(true);
    second.wait();
    std::fs::remove_file(&path).unwrap();
}

/// The store file holds records, not signatures, so the change of every
/// signature's value needed no `STORE_VERSION` bump: a file written by the
/// build before it (the fixture: one GMM s0 b1 job on intel, 24 trials,
/// seed 3, since saved as a record log) loads, re-primes its class cache by
/// replay, and serves the repeat job every one of its measurements.
#[test]
fn a_store_written_before_the_signature_rework_warms_a_repeat_job() {
    let path = temp_dir("old-store").join("store.json");
    std::fs::copy(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/store_pr14.json"
        ),
        &path,
    )
    .unwrap();
    let (_, stats) = WarmStore::open(&path).expect("the old file loads");
    assert_eq!((stats.entries, stats.records), (1, 24), "{stats:?}");
    assert_eq!((stats.primed, stats.replay_failures), (24, 0), "{stats:?}");

    let server = start(1, 8, Some(path.to_string_lossy().to_string()));
    let mut c = client(&server);
    let warm = c.submit(spec(3, 24)).expect("submit");
    let warm = c.wait(&warm).expect("wait");
    assert_eq!(warm.state, "done");
    assert_eq!(warm.warm.measure_hits, 24, "{:?}", warm.warm);
    // The result the old build recorded for this job.
    assert_eq!(warm.best_seconds, Some(0.0004303500266666667));
    server.shutdown(true);
    server.wait();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn queued_jobs_can_be_cancelled() {
    // One worker: the first job occupies it, the rest queue behind.
    let server = start(1, 8, None);
    let mut c = client(&server);
    let running = c.submit(spec(1, 256)).expect("submit");
    let queued = c.submit(spec(2, 256)).expect("submit");
    c.cancel(&queued).expect("cancel");
    let cancelled = c.wait(&queued).expect("wait");
    assert_eq!(cancelled.state, "cancelled");
    assert_eq!(cancelled.trials, 0);
    // The running job is unaffected.
    let done = c.wait(&running).expect("wait");
    assert_eq!(done.state, "done");
    let stats = c.stats().expect("stats");
    assert_eq!(stats.jobs_cancelled, 1);
    assert_eq!(stats.jobs_done, 1);
    server.shutdown(true);
    server.wait();
}

#[test]
fn queue_bound_is_enforced() {
    let server = start(1, 2, None);
    let mut c = client(&server);
    // Worker takes the first; capacity 2 admits two more into the queue.
    let mut ids = vec![c.submit(spec(1, 512)).expect("submit")];
    let mut rejected = 0;
    for seed in 2..8 {
        match c.submit(spec(seed, 512)) {
            Ok(id) => ids.push(id),
            Err(e) => {
                assert!(e.contains("queue full"), "unexpected error: {e}");
                rejected += 1;
            }
        }
    }
    assert!(rejected > 0, "queue bound never triggered");
    for id in &ids {
        c.cancel(id).expect("cancel");
    }
    for id in &ids {
        c.wait(id).expect("wait");
    }
    server.shutdown(true);
    server.wait();
}

#[test]
fn invalid_specs_are_rejected_at_submit() {
    let server = start(1, 8, None);
    let mut c = client(&server);
    let mut bad = spec(0, 64);
    bad.op = "NOPE".into();
    assert!(c.submit(bad).unwrap_err().contains("unknown case"));
    let mut bad = spec(0, 64);
    bad.target = "vax".into();
    assert!(c.submit(bad).unwrap_err().contains("unknown target"));
    let bad = spec(0, 0);
    assert!(c.submit(bad).unwrap_err().contains("trials"));
    // The reserved fields select nothing any more: setting one is an error
    // that says so, not a silently different job.
    let mut bad = spec(0, 64);
    bad.prerank_keep = Some(0.25);
    assert!(c.submit(bad).unwrap_err().contains("was removed"));
    let mut bad = spec(0, 64);
    bad.transfer = Some(false);
    assert!(c.submit(bad).unwrap_err().contains("was removed"));
    let mut bad = spec(0, 64);
    bad.threads = Some(1);
    assert!(c.submit(bad).unwrap_err().contains("was removed"));
    let stats = c.stats().expect("stats");
    assert_eq!(stats.jobs_submitted, 0);
    assert_eq!(stats.protocol_version, 2);
    server.shutdown(true);
    server.wait();
}

#[test]
fn graceful_shutdown_drains_the_queue() {
    let server = start(1, 8, None);
    let mut c = client(&server);
    let a = c.submit(spec(1, 64)).expect("submit");
    let b = c.submit(spec(2, 64)).expect("submit");
    // Drain: both jobs must complete even though shutdown arrives first.
    let mut c2 = client(&server);
    c2.shutdown(true).expect("shutdown");
    let ra = c.wait(&a).expect("wait");
    let rb = c.wait(&b).expect("wait");
    assert_eq!(ra.state, "done");
    assert_eq!(rb.state, "done");
    // New submits are refused while draining (if the server is still up).
    if let Err(e) = c.submit(spec(3, 64)) {
        assert!(
            e.contains("draining") || e.contains("connection"),
            "unexpected error: {e}"
        );
    }
    server.wait();
}

#[test]
fn immediate_shutdown_cancels_everything() {
    let server = start(1, 8, None);
    let mut c = client(&server);
    let a = c.submit(spec(1, 4096)).expect("submit");
    let b = c.submit(spec(2, 4096)).expect("submit");
    let mut c2 = client(&server);
    c2.shutdown(false).expect("shutdown");
    let ra = c.wait(&a).expect("wait");
    let rb = c.wait(&b).expect("wait");
    assert_eq!(rb.state, "cancelled");
    assert!(ra.state == "cancelled" || ra.state == "done");
    server.wait();
}

#[test]
fn an_idle_daemon_on_the_wildcard_address_stops() {
    // The accept loop blocks in `accept`; stopping wakes it with a
    // connection to the listener, which for 0.0.0.0 must go to loopback.
    let server = Server::start(ServeConfig {
        addr: "0.0.0.0:0".into(),
        ..Default::default()
    })
    .expect("server starts");
    server.shutdown(true);
    server.wait();
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ansor-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn trace_method_requires_a_trace_dir_and_a_finished_job() {
    let server = start(1, 8, None);
    let mut c = client(&server);
    assert!(c.trace("job-404").unwrap_err().contains("no such job"));
    let id = c.submit(spec(5, 48)).expect("submit");
    c.wait(&id).expect("wait");
    // The daemon runs without --trace-dir: the error says so.
    let err = c.trace(&id).unwrap_err();
    assert!(err.contains("trace-dir"), "unexpected error: {err}");
    server.shutdown(true);
    server.wait();
}

#[test]
fn per_job_traces_are_retrievable_and_chunks_reassemble_exactly() {
    let dir = temp_dir("traces");
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap: 8,
        trace_dir: Some(dir.to_string_lossy().to_string()),
        ..Default::default()
    })
    .expect("server starts");
    let mut c = client(&server);
    let id = c.submit(spec(5, 48)).expect("submit");
    let result = c.wait(&id).expect("wait");
    assert_eq!(result.state, "done");

    // The pulled trace is byte-identical to the file the daemon wrote,
    // and parses as a well-formed event stream.
    let pulled = c.trace(&id).expect("trace");
    let on_disk = std::fs::read_to_string(dir.join(format!("{id}.trace.jsonl"))).unwrap();
    assert_eq!(pulled, on_disk);
    let (lines, skipped) = telemetry::read_trace(pulled.as_bytes()).expect("trace parses");
    assert_eq!(skipped, 0);
    assert!(
        lines.len() > result.trials as usize,
        "suspiciously short trace: {} lines for {} trials",
        lines.len(),
        result.trials
    );

    // The per-job counter summary reconciles with the session's own
    // numbers: every trial was measured (valid or failed) exactly once.
    let counters = &result.counters;
    assert_eq!(
        counters.trials_valid + counters.trials_failed,
        result.trials,
        "{counters:?}"
    );
    assert!(!counters.phase_seconds.is_empty(), "no phase breakdown");

    // Grow the trace past the chunk size: the client must reassemble the
    // multi-chunk read into the exact same bytes.
    let mut big = on_disk.clone();
    while big.len() < 600 * 1024 {
        big.push_str(&on_disk);
    }
    std::fs::write(dir.join(format!("{id}.trace.jsonl")), &big).unwrap();
    let pulled = c.trace(&id).expect("trace");
    assert_eq!(pulled, big, "chunked reassembly corrupted the trace");

    server.shutdown(true);
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_records_the_job_lifecycle() {
    let dir = temp_dir("journal");
    let journal_path = dir.join("journal.jsonl");
    let _ = std::fs::remove_file(&journal_path);
    let tel = telemetry::Telemetry::with_metrics();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap: 8,
        journal_path: Some(journal_path.to_string_lossy().to_string()),
        telemetry: tel.clone(),
        ..Default::default()
    })
    .expect("server starts");
    let mut c = client(&server);
    let done_id = c.submit(spec(5, 48)).expect("submit");
    let result = c.wait(&done_id).expect("wait");
    assert_eq!(result.state, "done");
    assert!(result.queue_wait_ms >= 0.0);
    // Cancel a queued job too: it must land in the journal as cancelled.
    let running = c.submit(spec(1, 512)).expect("submit");
    let queued = c.submit(spec(2, 512)).expect("submit");
    c.cancel(&queued).expect("cancel");
    c.wait(&queued).expect("wait");
    // Only cancel the other job once it is genuinely running, so its
    // claim (and queue-wait observation) has definitely happened.
    while c.status(&running).expect("status").state == "queued" {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    c.cancel(&running).expect("cancel");
    c.wait(&running).expect("wait");

    // The daemon's own histograms saw the queue waits and the requests.
    let snap = tel.live_snapshot().expect("metrics enabled");
    assert!(snap.metrics.histograms["serve/queue_wait_ms"].count >= 2);
    assert!(snap.metrics.histograms["serve/request_ms/submit"].count >= 3);
    assert!(snap.metrics.histograms["serve/request_ms/wait"].count >= 3);

    server.shutdown(true);
    server.wait();

    let (events, skipped) = read_journal(&journal_path).expect("journal readable");
    assert_eq!(skipped, 0);
    assert!(matches!(events[0], JournalEvent::DaemonStart { .. }));
    let finishes: Vec<(&str, &str)> = events
        .iter()
        .filter_map(|e| match e {
            JournalEvent::Finish { job, outcome, .. } => Some((job.as_str(), outcome.as_str())),
            _ => None,
        })
        .collect();
    assert!(
        finishes.contains(&(done_id.as_str(), "done")),
        "{finishes:?}"
    );
    assert!(
        finishes.contains(&(queued.as_str(), "cancelled")),
        "{finishes:?}"
    );
    // The done job's journal entry reconciles with its wire result, and
    // its rounds showed up as progress events.
    let done_finish = events.iter().find_map(|e| match e {
        JournalEvent::Finish {
            job,
            trials,
            queue_wait_ms,
            absorbed_records,
            ..
        } if job == &done_id => Some((*trials, *queue_wait_ms, *absorbed_records)),
        _ => None,
    });
    let (trials, queue_wait_ms, absorbed) = done_finish.expect("done job journaled");
    assert_eq!(trials, result.trials);
    assert!(queue_wait_ms >= 0.0);
    assert!(absorbed > 0, "done job absorbed no records");
    assert!(
        events.iter().any(|e| matches!(
            e,
            JournalEvent::Round { job, .. } if job == &done_id
        )),
        "no round progress journaled"
    );
    // Started jobs carry a queue-wait on their Start event.
    assert!(events.iter().any(|e| matches!(
        e,
        JournalEvent::Start { job, queue_wait_ms } if job == &done_id && *queue_wait_ms >= 0.0
    )));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_replay_marks_interrupted_jobs_and_keeps_ids_unique() {
    let dir = temp_dir("journal-replay");
    let journal_path = dir.join("journal.jsonl");
    let _ = std::fs::remove_file(&journal_path);

    // Epoch 1: run one job to completion, then simulate a crash by
    // appending a Submit+Start with no Finish — exactly what a daemon
    // killed mid-job leaves behind.
    let boot = |first: bool| {
        Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_cap: 8,
            journal_path: Some(journal_path.to_string_lossy().to_string()),
            ..Default::default()
        })
        .unwrap_or_else(|e| panic!("server starts (first={first}): {e}"))
    };
    let first = boot(true);
    let mut c = client(&first);
    let finished = c.submit(spec(5, 48)).expect("submit");
    c.wait(&finished).expect("wait");
    first.shutdown(true);
    first.wait();
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal_path)
            .unwrap();
        writeln!(
            f,
            "{}",
            serde_json::to_string(&JournalEvent::Submit {
                job: "job-9".into(),
                task: "GMM:s0b1".into(),
                op: "GMM".into(),
                shape: 0,
                batch: 1,
                target: "intel".into(),
                trials: 64,
                seed: 9,
            })
            .unwrap()
        )
        .unwrap();
        writeln!(
            f,
            "{}",
            serde_json::to_string(&JournalEvent::Start {
                job: "job-9".into(),
                queue_wait_ms: 0.3,
            })
            .unwrap()
        )
        .unwrap();
    }

    // Epoch 2: replay must mark job-9 interrupted (no phantom running
    // entry) and never reissue an id the journal has seen.
    let second = boot(false);
    let mut c = client(&second);
    let fresh = c.submit(spec(6, 48)).expect("submit");
    assert_ne!(fresh, "job-9", "restart reused a journaled job id");
    let fresh_n: u64 = fresh.strip_prefix("job-").unwrap().parse().unwrap();
    assert!(
        fresh_n > 9,
        "id counter not seeded past the journal: {fresh}"
    );
    c.wait(&fresh).expect("wait");
    second.shutdown(true);
    second.wait();

    let (events, skipped) = read_journal(&journal_path).expect("journal readable");
    assert_eq!(skipped, 0);
    assert!(
        events.iter().any(|e| matches!(
            e,
            JournalEvent::Interrupted { job } if job == "job-9"
        )),
        "interrupted job not marked"
    );
    // Interruption is terminal: across the whole journal every submitted
    // job reaches exactly one terminal event (Finish or Interrupted).
    let mut open: Vec<&str> = Vec::new();
    for e in &events {
        match e {
            JournalEvent::Submit { job, .. } => open.push(job),
            JournalEvent::Finish { job, .. } | JournalEvent::Interrupted { job } => {
                let before = open.len();
                open.retain(|j| j != job);
                assert_eq!(before, open.len() + 1, "unmatched terminal for {job}");
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "phantom running entries: {open:?}");
    // Queue-wait accounting from epoch 1 survives the restart.
    assert!(events.iter().any(|e| matches!(
        e,
        JournalEvent::Finish { job, queue_wait_ms, .. }
            if job == &finished && *queue_wait_ms >= 0.0
    )));
    let _ = std::fs::remove_dir_all(&dir);
}
