//! The `ansor-serve` determinism contract, end to end: a job submitted to
//! the daemon must produce the *same tuning run* as the same `(task,
//! options, seed)` driven cold through a local [`TuningSession`] — the
//! path `ansor-tune` takes. "Same" means bit-identical `best_seconds`,
//! identical best-state signature, and an identical tuning-record log
//! (compared by the FNV fingerprint the server reports). A resubmit of
//! the same spec recalls the first job's trained models, with their
//! scores, from the warm store; it too must be the cold run, down to its
//! canonical trace.
//!
//! The contract must survive concurrency: eight jobs run on four workers
//! — sharing the store's per-class caches — must
//! report exactly the results of the same eight jobs run one at a time.
//! Caches may change *when* a measurement is computed, never *what* it is.
//! And it must survive a mixed daemon: two shapes of one operator produce
//! the same step lists over different DAGs, which `State::signature()`
//! tells apart (it is seeded by the DAG's fingerprint) and the store's
//! per-class caches keep apart besides.

use ansor::core::{log_fingerprint, TuningSession};
use ansor::prelude::*;
use ansor::serve::{Client, JobResult, JobSpec, ServeConfig, Server};
use ansor::workloads::build_case;
use telemetry::{canonical_events, read_trace, SharedBuf, Telemetry, TraceEvent};

const OP: &str = "GMM";
const SHAPE: usize = 0;
/// Two rounds of 64 measurements: the second scores with a trained model.
const TRIALS: usize = 128;

fn spec(seed: u64) -> JobSpec {
    JobSpec {
        op: OP.into(),
        shape: SHAPE,
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

/// What the contract compares, reduced to plain bits.
#[derive(Debug, PartialEq)]
struct Outcome {
    best_seconds_bits: Option<u64>,
    best_signature: Option<u64>,
    log_records: u64,
    log_fingerprint: u64,
}

impl Outcome {
    fn of_result(r: &JobResult) -> Outcome {
        Outcome {
            best_seconds_bits: r.best_seconds.map(f64::to_bits),
            best_signature: r.best_signature,
            log_records: r.log_records,
            log_fingerprint: r.log_fingerprint,
        }
    }
}

/// Runs the spec cold — no daemon, no shared caches — exactly as
/// `ansor-tune` does.
fn cold_run(spec: &JobSpec) -> Outcome {
    cold_traced_run(spec).0
}

/// [`cold_run`], traced as `ansor-tune --trace` traces it: the outcome and
/// the trace's bytes.
fn cold_traced_run(spec: &JobSpec) -> (Outcome, Vec<u8>) {
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
    let best = session.best_seconds();
    let outcome = Outcome {
        best_seconds_bits: best.is_finite().then(|| best.to_bits()),
        best_signature: session.best_individual().map(|i| i.state.signature()),
        log_records: session.log().len() as u64,
        log_fingerprint: log_fingerprint(session.log()),
    };
    (outcome, buf.contents())
}

/// A trace's events without their wall-clock envelope and the final
/// `PhaseProfile` (what `trace-report --events` writes), and that
/// profile's `model/memo_hits` counter.
fn canonical(raw: &[u8]) -> (Vec<String>, u64) {
    let (lines, skipped) = read_trace(raw).expect("trace parses");
    assert_eq!(skipped, 0, "corrupt lines in trace");
    let memo_hits = lines
        .iter()
        .rev()
        .find_map(|l| match &l.event {
            TraceEvent::PhaseProfile { snapshot } => Some(snapshot.counters.get("model/memo_hits")),
            _ => None,
        })
        .expect("a flushed trace ends with its PhaseProfile");
    (canonical_events(&lines), memo_hits.copied().unwrap_or(0))
}

fn start_server(workers: usize) -> (Server, Client) {
    start_traced_server(workers, None)
}

/// A daemon that writes every job's trace under `trace_dir`.
fn start_traced_server(workers: usize, trace_dir: Option<String>) -> (Server, Client) {
    let server = Server::start(ServeConfig {
        workers,
        queue_cap: 32,
        trace_dir,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let client = Client::connect(&server.local_addr().to_string()).expect("client connects");
    (server, client)
}

/// Submits every spec, then waits for each; results come back in
/// submission order.
fn run_batch(client: &mut Client, specs: &[JobSpec]) -> Vec<JobResult> {
    let ids: Vec<String> = specs
        .iter()
        .map(|s| client.submit(s.clone()).expect("submit"))
        .collect();
    ids.iter()
        .map(|id| client.wait(id).expect("wait"))
        .collect()
}

// One test function on purpose: each leg boots a daemon with worker
// threads, and serialising them keeps the measurement-timing environment
// (and the test's runtime) predictable.
#[test]
fn served_jobs_match_cold_runs_and_concurrency_is_invisible() {
    // Leg 1 — a served job is bit-identical to the cold `ansor-tune` path,
    // and so is its resubmit, which recalls the job's trained models.
    let traces = std::env::temp_dir().join(format!("ansor-determinism-{}", std::process::id()));
    let (server, mut client) = start_traced_server(1, Some(traces.display().to_string()));
    let served = run_batch(&mut client, &[spec(5), spec(5)]);
    let (cold, cold_trace) = cold_traced_run(&spec(5));
    let (cold_events, _) = canonical(&cold_trace);
    let mut recalled = Vec::new();
    for r in &served {
        assert_eq!(r.state, "done");
        assert_eq!(
            Outcome::of_result(r),
            cold,
            "served job {} must be bit-identical to a cold local run",
            r.job
        );
        let (events, memo_hits) = canonical(client.trace(&r.job).expect("trace").as_bytes());
        assert_eq!(events, cold_events, "{}'s canonical events", r.job);
        recalled.push(memo_hits);
    }
    assert_eq!(recalled[0], 0, "the first job fits its models");
    assert!(recalled[1] >= 1, "the repeat fitted every model again");
    assert!(
        served[0].log_records >= 32,
        "run must fill most of its budget"
    );
    client.shutdown(true).expect("shutdown");
    server.wait();
    let _ = std::fs::remove_dir_all(&traces);

    // The comparison is not vacuous: another seed tunes differently.
    let other = cold_run(&spec(6));
    assert_ne!(cold, other, "seeds must matter");

    // Leg 2 — eight jobs on four workers vs the same eight serially.
    // Identical class (op/shape/target), distinct seeds: the concurrent
    // batch shares one measure cache and races on it; the serial batch
    // runs one job at a time on a fresh daemon. Outcomes must match
    // job-for-job.
    let seeds: Vec<u64> = (0..8).collect();
    let specs: Vec<JobSpec> = seeds.iter().map(|&s| spec(s)).collect();

    let (server, mut client) = start_server(4);
    let concurrent = run_batch(&mut client, &specs);
    client.shutdown(true).expect("shutdown");
    server.wait();

    let (server, mut client) = start_server(1);
    let serial: Vec<JobResult> = specs
        .iter()
        .map(|s| {
            let id = client.submit(s.clone()).expect("submit");
            client.wait(&id).expect("wait")
        })
        .collect();
    client.shutdown(true).expect("shutdown");
    server.wait();

    for ((seed, con), ser) in seeds.iter().zip(&concurrent).zip(&serial) {
        assert_eq!(con.state, "done", "seed {seed}");
        assert_eq!(
            Outcome::of_result(con),
            Outcome::of_result(ser),
            "concurrent result for seed {seed} must match the serial run"
        );
    }
    // Eight distinct seeds must not have collapsed to one search.
    let distinct: std::collections::HashSet<u64> =
        serial.iter().map(|r| r.log_fingerprint).collect();
    assert!(distinct.len() > 1, "distinct seeds must search differently");

    // And seed 5's serial-daemon result equals the cold run from leg 1,
    // tying all three paths (cold, solo daemon, batch daemon) together.
    assert_eq!(Outcome::of_result(&serial[5]), cold, "seed 5 round trip");

    // Leg 3 — two shapes of one operator on one daemon. The second job
    // proposes step lists the first already featurized, on another DAG;
    // served another class's features it would tune differently.
    let pair: Vec<JobSpec> = [(0, 16), (1, 1)]
        .into_iter()
        .map(|(shape, batch)| JobSpec {
            op: "NRM".into(),
            shape,
            batch,
            trials: 128,
            ..spec(5)
        })
        .collect();
    let (server, mut client) = start_server(1);
    for s in &pair {
        let served = run_batch(&mut client, std::slice::from_ref(s));
        assert_eq!(
            Outcome::of_result(&served[0]),
            cold_run(s),
            "{} after another shape of its operator",
            s.task_name()
        );
    }
    client.shutdown(true).expect("shutdown");
    server.wait();
}
