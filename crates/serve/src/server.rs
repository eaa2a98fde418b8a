//! The `ansor-serve` daemon: a TCP server hosting concurrent tuning
//! sessions over the newline-delimited JSON protocol.
//!
//! Architecture: an accept loop hands each connection to a detached
//! handler thread; handlers enqueue jobs into a bounded queue; a fixed
//! pool of session workers drains the queue, each running one
//! [`TuningSession`] per job wired into the shared [`WarmStore`]. All
//! coordination is one mutex around the job table plus two condvars
//! (work available, job finished) — no async runtime, matching the
//! repo's std-only discipline.
//!
//! Determinism: a job is executed exactly as `ansor-tune` would execute
//! the same flags — same task name, same fingerprint, same cold session
//! wiring — with the shared caches layered on top, which are
//! determinism-transparent (see `ansor_core::session`). Warm starts are
//! opt-in per job because they intentionally change the search
//! trajectory.

use std::collections::{HashMap, VecDeque};
use std::io::BufReader;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use ansor_core::{log_fingerprint, SearchTask, TuningOptions, TuningSession};
use ansor_workloads::build_case;
use hwsim::{HardwareTarget, Measurer};
use serde::Deserialize as _;
use telemetry::{Snapshot, Telemetry};

use crate::journal::{JobJournal, JournalEvent};
use crate::proto::{
    decode_request, read_line, write_line, CacheDeltas, JobCounters, JobResult, JobSpec, JobStatus,
    Request, Response, ServerStats, TraceChunk, PROTOCOL_VERSION,
};
use crate::store::WarmStore;

/// Raw bytes per `trace` response chunk. Sized so the enclosing response
/// line stays under [`crate::proto::MAX_LINE_BYTES`] even after JSON
/// escaping roughly doubles the payload (trace lines are full of quotes).
const TRACE_CHUNK_BYTES: usize = 256 * 1024;

/// Server configuration.
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Session worker threads (concurrent jobs).
    pub workers: usize,
    /// Bounded queue capacity; submits beyond it are rejected.
    pub queue_cap: usize,
    /// Warm-store path; `None` for an in-memory store.
    pub store_path: Option<String>,
    /// Fault spec string jobs run under (the global `hwsim` plan must be
    /// set to match by the caller; the string here feeds fingerprints and
    /// class keys). Jobs may override it per-spec; overridden jobs get
    /// their own fingerprints/class keys and an explicit measurer plan.
    pub faults: String,
    /// Reserved and ignored (was: the thread count of a per-process pool
    /// that no longer exists; the frozen `e2e_bench` still sets it). Each
    /// job runs on its worker thread; `workers` sets the concurrency.
    pub threads: usize,
    /// Warm-store serialized-entry byte budget; `None` = unlimited. When
    /// exceeded, least-recently-used class entries are evicted.
    pub store_budget: Option<u64>,
    /// Telemetry handle for the daemon's own `serve/*` gauges and
    /// histograms. Sessions do *not* share this registry: each job gets
    /// its own isolated [`Telemetry`] (see `trace_dir`), so counters from
    /// concurrent jobs never interleave here.
    pub telemetry: Telemetry,
    /// Directory for per-job JSONL traces (`<job-id>.trace.jsonl`).
    /// `None` disables per-job tracing; jobs still get isolated
    /// metrics-only telemetry for their counter summaries.
    pub trace_dir: Option<String>,
    /// Job-journal path override. Defaults to `journal.jsonl` next to the
    /// warm store when `store_path` is set; `None` with an in-memory
    /// store disables the journal.
    pub journal_path: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 64,
            store_path: None,
            faults: "none".into(),
            threads: 0,
            store_budget: None,
            telemetry: Telemetry::disabled(),
            trace_dir: None,
            journal_path: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobState {
    fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn finished(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    /// Numeric encoding for the `serve/job/<id>/state` gauge (the
    /// exporter maps it back to the string form).
    fn gauge_code(self) -> f64 {
        match self {
            JobState::Queued => 0.0,
            JobState::Running => 1.0,
            JobState::Done => 2.0,
            JobState::Failed => 3.0,
            JobState::Cancelled => 4.0,
        }
    }
}

/// A running job's counters, for `status` and the gauges. Its lock is
/// taken poison-tolerantly: a holder that panicked left at worst a count
/// one round stale, which the next round overwrites, so a reader never
/// needs to fail over it.
#[derive(Debug, Clone, Copy, Default)]
struct Progress {
    rounds: u64,
    trials: u64,
    best_seconds: Option<f64>,
}

struct Job {
    spec: JobSpec,
    state: JobState,
    cancel: Arc<AtomicBool>,
    progress: Arc<Mutex<Progress>>,
    result: Option<JobResult>,
    /// When the job was accepted (queue-wait accounting).
    submitted: Instant,
}

#[derive(Default)]
struct JobTable {
    next_id: u64,
    queue: VecDeque<String>,
    jobs: HashMap<String, Job>,
    active: usize,
    /// No new submits; queued jobs still run (graceful shutdown).
    draining: bool,
    /// Workers and the accept loop exit.
    stop: bool,
    submitted: u64,
    done: u64,
    failed: u64,
    cancelled: u64,
    /// Measurement trials consumed by finished jobs (Σ `JobResult::trials`).
    trials_total: u64,
}

struct Shared {
    cfg: ServeConfig,
    store: WarmStore,
    jobs: Mutex<JobTable>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// The job journal (the daemon's flight recorder); `None` when
    /// neither a journal path nor a store path was configured.
    journal: Option<Mutex<JobJournal>>,
    /// Where a stopping daemon connects to wake its own accept loop.
    wake_addr: SocketAddr,
}

impl Shared {
    /// Publishes the `serve/*` gauge family from the (locked) job table.
    fn publish_gauges(&self, t: &JobTable) {
        let tel = &self.cfg.telemetry;
        tel.gauge_set("serve/queue_depth", t.queue.len() as f64);
        tel.gauge_set("serve/active_sessions", t.active as f64);
        tel.gauge_set("serve/jobs_submitted", t.submitted as f64);
        tel.gauge_set("serve/jobs_done", t.done as f64);
        tel.gauge_set("serve/jobs_failed", t.failed as f64);
        tel.gauge_set("serve/jobs_cancelled", t.cancelled as f64);
        tel.gauge_set("serve/draining", if t.draining { 1.0 } else { 0.0 });
        tel.gauge_set("serve/store_entries", self.store.entry_count() as f64);
        tel.gauge_set("serve/store_records", self.store.record_count() as f64);
        tel.gauge_set("serve/store_bytes", self.store.resident_bytes() as f64);
        tel.gauge_set("serve/store_evictions", self.store.eviction_count() as f64);
        tel.gauge_set("serve/trials_total", t.trials_total as f64);
    }

    /// Appends one journal event; journal failures are warnings, never
    /// fatal (the journal is observability, not correctness).
    fn journal_append(&self, event: &JournalEvent) {
        if let Some(journal) = &self.journal {
            let mut j = journal.lock().expect("journal lock poisoned");
            if let Err(e) = j.append(event) {
                eprintln!("warning: journal append failed: {e}");
            }
        }
    }

    /// Publishes the `serve/job/<id>/*` gauge family for one job. These
    /// live in the daemon's shared registry (namespaced by job id, so
    /// concurrent jobs never collide) and feed the exporter's `/status`
    /// jobs table and the `ansor-top` jobs pane.
    fn publish_job_gauges(&self, id: &str, state: JobState, p: &Progress, budget: u64) {
        let tel = &self.cfg.telemetry;
        tel.gauge_set(&format!("serve/job/{id}/state"), state.gauge_code());
        tel.gauge_set(&format!("serve/job/{id}/rounds"), p.rounds as f64);
        tel.gauge_set(&format!("serve/job/{id}/trials"), p.trials as f64);
        tel.gauge_set(&format!("serve/job/{id}/trials_budget"), budget as f64);
        if let Some(best) = p.best_seconds {
            tel.gauge_set(&format!("serve/job/{id}/best_seconds"), best);
        }
    }
}

/// A running daemon. Dropping the handle does not stop the server; call
/// [`Server::shutdown`] (or send a `shutdown` request) then
/// [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Opens the store, binds the listener, and spawns the worker pool and
    /// accept loop.
    pub fn start(cfg: ServeConfig) -> Result<Server, String> {
        let store = match &cfg.store_path {
            Some(p) => {
                let (store, stats) = WarmStore::open(p)?;
                if stats.entries > 0 || stats.skipped > 0 {
                    eprintln!(
                        "warm store {p}: {} classes, {} records, {} cache entries primed \
                         ({} records failed to replay, {} corrupt lines skipped)",
                        stats.entries,
                        stats.records,
                        stats.primed,
                        stats.replay_failures,
                        stats.skipped
                    );
                }
                store
            }
            None => WarmStore::in_memory(),
        };
        store.set_byte_budget(cfg.store_budget);
        if let Some(dir) = &cfg.trace_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("create trace dir {dir}: {e}"))?;
        }
        // The journal lives next to the warm store unless overridden.
        let journal_path = cfg.journal_path.clone().or_else(|| {
            cfg.store_path.as_ref().map(|p| {
                Path::new(p)
                    .with_file_name("journal.jsonl")
                    .display()
                    .to_string()
            })
        });
        let workers = cfg.workers.max(1);
        let mut first_job_id = 0;
        let journal = match &journal_path {
            Some(p) => {
                let (mut j, replay) =
                    JobJournal::open(p).map_err(|e| format!("journal {p}: {e}"))?;
                if !replay.interrupted.is_empty() {
                    eprintln!(
                        "journal {}: {} job(s) from a prior run marked interrupted: {}",
                        p,
                        replay.interrupted.len(),
                        replay.interrupted.join(", ")
                    );
                }
                // Never reuse a job id the journal has already seen.
                first_job_id = replay.max_job_id;
                j.append(&JournalEvent::DaemonStart {
                    workers: workers as u64,
                    queue_cap: cfg.queue_cap as u64,
                })
                .map_err(|e| format!("journal {p}: {e}"))?;
                Some(Mutex::new(j))
            }
            None => None,
        };
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
        let local_addr = listener.local_addr().map_err(|e| e.to_string())?;
        let mut wake_addr = local_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }

        let shared = Arc::new(Shared {
            cfg,
            store,
            jobs: Mutex::new(JobTable {
                next_id: first_job_id,
                ..JobTable::default()
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            journal,
            wake_addr,
        });
        let mut threads = Vec::new();
        for i in 0..workers {
            let sh = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .map_err(|e| e.to_string())?,
            );
        }
        {
            let sh = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-accept".into())
                    .spawn(move || accept_loop(&sh, listener))
                    .map_err(|e| e.to_string())?,
            );
        }
        Ok(Server {
            shared,
            local_addr,
            threads,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Initiates shutdown: with `drain`, queued and running jobs finish
    /// first; without, queued jobs are cancelled and running jobs are
    /// signalled to stop at their next round.
    pub fn shutdown(&self, drain: bool) {
        initiate_shutdown(&self.shared, drain);
    }

    /// Blocks until the server has fully stopped (all jobs settled, all
    /// threads exited) and saves the store one final time: free unless a
    /// job's save failed, or the store opened past a corrupt or torn line
    /// and no job ran.
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Err(e) = self.shared.store.save() {
            eprintln!("warning: final store save failed: {e}");
        }
    }
}

/// Flags shutdown and wakes everyone; a monitor inside the worker/accept
/// loops converts "draining and idle" into a full stop.
fn initiate_shutdown(shared: &Arc<Shared>, drain: bool) {
    let mut t = shared.jobs.lock().expect("job table lock poisoned");
    t.draining = true;
    if !drain {
        while let Some(id) = t.queue.pop_front() {
            if let Some(job) = t.jobs.get_mut(&id) {
                let queue_wait_ms = job.submitted.elapsed().as_secs_f64() * 1e3;
                job.state = JobState::Cancelled;
                job.result = Some(cancelled_result(&id, &job.spec, queue_wait_ms));
                t.cancelled += 1;
                journal_queued_cancel(shared, &id, queue_wait_ms);
            }
        }
        for job in t.jobs.values() {
            job.cancel.store(true, Ordering::Relaxed);
        }
    }
    maybe_stop(shared, &mut t);
    shared.publish_gauges(&t);
    drop(t);
    shared.work_cv.notify_all();
    shared.done_cv.notify_all();
}

/// If the server is draining and idle, flips to a full stop.
fn maybe_stop(shared: &Arc<Shared>, t: &mut JobTable) {
    if t.draining && t.queue.is_empty() && t.active == 0 && !t.stop {
        t.stop = true;
        shared.work_cv.notify_all();
        shared.done_cv.notify_all();
        // The accept loop blocks in `accept` (a timer there would wake an
        // idle daemon fifty times a second, next to a running session); a
        // throw-away connection is what makes it look at `stop`. The
        // kernel completes it against the listen backlog, so holding the
        // job table here cannot deadlock.
        let _ = TcpStream::connect(shared.wake_addr);
    }
}

fn cancelled_result(id: &str, spec: &JobSpec, queue_wait_ms: f64) -> JobResult {
    JobResult {
        job: id.to_string(),
        task: spec.task_name(),
        state: "cancelled".into(),
        trials: 0,
        best_seconds: None,
        best_gflops: None,
        best_signature: None,
        log_records: 0,
        log_fingerprint: 0,
        warm: CacheDeltas::default(),
        wall_ms: 0.0,
        queue_wait_ms,
        counters: JobCounters::default(),
        error: None,
    }
}

/// Journals and gauges a job cancelled while still queued (it never ran,
/// so its outcome record carries queue-wait only).
fn journal_queued_cancel(shared: &Arc<Shared>, id: &str, queue_wait_ms: f64) {
    shared.cfg.telemetry.gauge_set(
        &format!("serve/job/{id}/state"),
        JobState::Cancelled.gauge_code(),
    );
    shared.journal_append(&JournalEvent::Finish {
        job: id.to_string(),
        outcome: "cancelled".into(),
        queue_wait_ms,
        wall_ms: 0.0,
        trials: 0,
        best_gflops: None,
        cache: CacheDeltas::default(),
        absorbed_records: 0,
        trace: None,
    });
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        // Claim the next queued job (or exit on stop).
        let (id, spec, cancel, progress, queue_wait_ms) = {
            let mut t = shared.jobs.lock().expect("job table lock poisoned");
            loop {
                if t.stop {
                    return;
                }
                if let Some(id) = t.queue.pop_front() {
                    let claimed = {
                        let job = t.jobs.get_mut(&id).expect("queued job exists");
                        job.state = JobState::Running;
                        (
                            id.clone(),
                            job.spec.clone(),
                            Arc::clone(&job.cancel),
                            Arc::clone(&job.progress),
                            job.submitted.elapsed().as_secs_f64() * 1e3,
                        )
                    };
                    t.active += 1;
                    shared.publish_gauges(&t);
                    break claimed;
                }
                t = shared.work_cv.wait(t).expect("job table lock poisoned");
            }
        };

        {
            let tel = &shared.cfg.telemetry;
            tel.observe("serve/queue_wait_ms", queue_wait_ms);
            tel.gauge_set(
                &format!("serve/job/{id}/state"),
                JobState::Running.gauge_code(),
            );
            tel.gauge_set(&format!("serve/job/{id}/queue_wait_ms"), queue_wait_ms);
        }
        shared.journal_append(&JournalEvent::Start {
            job: id.clone(),
            queue_wait_ms,
        });

        let (result, log, trace_file) =
            run_job(shared, &id, &spec, &cancel, &progress, queue_wait_ms);

        let mut absorbed_records = 0u64;
        if result.state == "done" {
            // Persist what the job learned before reporting completion, so
            // a client observing "done" can rely on the store being warm.
            let faults = spec.faults.as_deref().unwrap_or(&shared.cfg.faults);
            absorbed_records = shared.store.absorb(&spec, faults, &log) as u64;
            if let Err(e) = shared.store.save() {
                eprintln!("warning: store save failed, lines kept for the next save: {e}");
            }
        }

        shared.journal_append(&JournalEvent::Finish {
            job: id.clone(),
            outcome: result.state.clone(),
            queue_wait_ms,
            wall_ms: result.wall_ms,
            trials: result.trials,
            best_gflops: result.best_gflops,
            cache: result.warm,
            absorbed_records,
            trace: trace_file,
        });

        let mut t = shared.jobs.lock().expect("job table lock poisoned");
        t.active -= 1;
        t.trials_total += result.trials;
        let final_state = match result.state.as_str() {
            "done" => {
                t.done += 1;
                JobState::Done
            }
            "failed" => {
                t.failed += 1;
                JobState::Failed
            }
            _ => {
                t.cancelled += 1;
                JobState::Cancelled
            }
        };
        shared
            .cfg
            .telemetry
            .gauge_set(&format!("serve/job/{id}/state"), final_state.gauge_code());
        if let Some(job) = t.jobs.get_mut(&id) {
            job.state = final_state;
            job.result = Some(result);
        }
        maybe_stop(shared, &mut t);
        shared.publish_gauges(&t);
        drop(t);
        shared.done_cv.notify_all();
    }
}

/// Builds the isolated per-job telemetry handle: a trace sink under the
/// daemon's trace dir when configured, metrics-only otherwise (the
/// counter summary in [`JobResult`] needs a registry either way).
/// Returns the handle plus the trace file name (relative to the trace
/// dir) when a sink was installed.
fn job_telemetry(shared: &Arc<Shared>, id: &str) -> (Telemetry, Option<String>) {
    if let Some(dir) = &shared.cfg.trace_dir {
        let path = Path::new(dir).join(format!("{id}.trace.jsonl"));
        match Telemetry::to_file(&path) {
            Ok(tel) => return (tel, Some(path.display().to_string())),
            Err(e) => eprintln!(
                "warning: cannot create trace {}: {e}; job runs metrics-only",
                path.display()
            ),
        }
    }
    (Telemetry::with_metrics(), None)
}

/// Folds the job's isolated registry delta into the wire-facing counter
/// summary. Only top-level phase histograms contribute to `phase_seconds`
/// (nested spans are already included in their root's time).
fn job_counters(before: &Option<Snapshot>, after: &Option<Snapshot>) -> JobCounters {
    let (Some(before), Some(after)) = (before, after) else {
        return JobCounters::default();
    };
    let d = after.delta(before);
    let c = |name: &str| d.counters.get(name).copied().unwrap_or(0);
    JobCounters {
        trials_valid: c("measure/valid"),
        trials_failed: c("measure/failed"),
        measure_cache_hits: c("measure/cache_hits"),
        measure_cache_misses: c("measure/cache_misses"),
        feature_cache_hits: c("features/cache_hits"),
        score_cache_hits: c("model/score_cache_hits"),
        fault_retries: c("measure/retries"),
        fault_gave_up: c("measure/gave_up"),
        quarantined: c("search/quarantined"),
        phase_seconds: d
            .histograms
            .iter()
            .filter_map(|(k, h)| {
                let name = k.strip_prefix("phase/")?;
                (!name.contains('/')).then(|| (name.to_string(), h.sum))
            })
            .collect(),
    }
}

/// Executes one job exactly as `ansor-tune` would, plus shared caches.
/// Returns the wire-facing result, the full tuning log (for the store;
/// the log stays off the wire — clients get its fingerprint and count),
/// and the job's trace file name when tracing is enabled.
///
/// The session runs under its *own* [`Telemetry`] — registry isolated
/// per job, trace sink per job — so concurrent jobs never interleave
/// counters and the per-job trace matches a cold `ansor-tune --trace` of
/// the same seed byte for byte. The daemon's shared handle only carries
/// `serve/*` operational gauges.
fn run_job(
    shared: &Arc<Shared>,
    id: &str,
    spec: &JobSpec,
    cancel: &Arc<AtomicBool>,
    progress: &Arc<Mutex<Progress>>,
    queue_wait_ms: f64,
) -> (JobResult, Vec<ansor_core::TuningRecordLog>, Option<String>) {
    let started = Instant::now();
    let fail = |error: String| {
        (
            JobResult {
                job: id.to_string(),
                task: spec.task_name(),
                state: "failed".into(),
                trials: 0,
                best_seconds: None,
                best_gflops: None,
                best_signature: None,
                log_records: 0,
                log_fingerprint: 0,
                warm: CacheDeltas::default(),
                wall_ms: started.elapsed().as_secs_f64() * 1e3,
                queue_wait_ms,
                counters: JobCounters::default(),
                error: Some(error),
            },
            Vec::new(),
            None,
        )
    };
    let Some(dag) = build_case(&spec.op, spec.shape, spec.batch) else {
        return fail(format!("unknown case {:?} shape {}", spec.op, spec.shape));
    };
    let Some(target) = HardwareTarget::by_name(&spec.target) else {
        return fail(format!("unknown target {:?}", spec.target));
    };
    // Per-job override. The fault spec feeds the fingerprint and class
    // key, so overridden jobs occupy their own warm-store class.
    let faults = spec.faults.as_deref().unwrap_or(&shared.cfg.faults);
    let fault_plan = match spec.faults.as_deref().map(hwsim::FaultPlan::parse) {
        Some(Ok(plan)) => Some(plan),
        Some(Err(e)) => return fail(format!("bad fault spec: {e}")),
        None => None,
    };
    let (job_tel, trace_file) = job_telemetry(shared, id);
    let shared_tel = shared.cfg.telemetry.clone();
    let task = SearchTask::new(spec.task_name(), dag.clone(), target.clone());
    let options = TuningOptions {
        num_measure_trials: spec.trials,
        seed: spec.seed,
        telemetry: job_tel.clone(),
        ..Default::default()
    };
    let mut measurer = Measurer::new(target);
    measurer.set_telemetry(job_tel.clone());
    if let Some(plan) = fault_plan {
        measurer.set_fault_plan(Some(plan));
    }
    let mut session = TuningSession::new(task, options, measurer, spec.fingerprint(faults));

    let class = spec.class_key(faults);
    session.share_measure_cache(shared.store.measure_cache(&class));
    session.share_feature_cache(shared.store.feature_cache(&class));
    if spec.warm_start == Some(true) {
        let records = shared.store.records_for(&class);
        session.warm_start(&records);
    }

    let before = session.cache_stats();
    let tel_before = job_tel.live_snapshot();
    let flops = dag.flop_count();
    let gflops_gauge = format!("serve/job/{id}/best_gflops");
    let mut last_round = 0u64;
    session.run(|s| {
        let p = {
            let mut p = progress.lock().unwrap_or_else(PoisonError::into_inner);
            p.rounds = s.rounds();
            p.trials = s.trials();
            p.best_seconds = s.best_seconds().is_finite().then(|| s.best_seconds());
            *p
        };
        shared.publish_job_gauges(id, JobState::Running, &p, spec.trials as u64);
        if let Some(best) = p.best_seconds {
            shared_tel.gauge_set(&gflops_gauge, flops / best / 1e9);
        }
        if p.rounds > last_round {
            last_round = p.rounds;
            shared.journal_append(&JournalEvent::Round {
                job: id.to_string(),
                round: p.rounds,
                trials: p.trials,
                best_seconds: p.best_seconds,
            });
        }
        !cancel.load(Ordering::Relaxed)
    });
    let delta = session.cache_stats().since(&before);
    let warm = CacheDeltas {
        measure_hits: delta.measure_hits,
        measure_misses: delta.measure_misses,
        feature_hits: delta.feature_hits,
        feature_misses: delta.feature_misses,
        score_hits: delta.score_hits,
        score_misses: delta.score_misses,
    };
    let counters = job_counters(&tel_before, &job_tel.live_snapshot());
    // Final PhaseProfile event + sink flush; the canonical event stream
    // (which skips PhaseProfile) is unaffected.
    job_tel.flush();
    let was_cancelled = cancel.load(Ordering::Relaxed);

    let final_progress = {
        let mut p = progress.lock().unwrap_or_else(PoisonError::into_inner);
        p.rounds = session.rounds();
        p.trials = session.trials();
        p.best_seconds = session
            .best_seconds()
            .is_finite()
            .then(|| session.best_seconds());
        *p
    };
    let final_state = if was_cancelled {
        JobState::Cancelled
    } else {
        JobState::Done
    };
    shared.publish_job_gauges(id, final_state, &final_progress, spec.trials as u64);

    let best_seconds = session.best_seconds();
    let finite_best = best_seconds.is_finite().then_some(best_seconds);
    let log = session.log().to_vec();
    let result = JobResult {
        job: id.to_string(),
        task: spec.task_name(),
        state: if was_cancelled { "cancelled" } else { "done" }.into(),
        trials: session.trials(),
        best_seconds: finite_best,
        best_gflops: finite_best.map(|s| flops / s / 1e9),
        best_signature: session.best_individual().map(|i| i.state.signature()),
        log_records: log.len() as u64,
        log_fingerprint: log_fingerprint(&log),
        warm,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        queue_wait_ms,
        counters,
        error: None,
    };
    (result, log, trace_file)
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        if shared.jobs.lock().expect("job table lock poisoned").stop {
            // Woken by `maybe_stop` (or a client that raced it): hang up.
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let sh = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || handle_connection(&sh, stream));
            }
            // Out of descriptors, an aborted handshake: back off, retry.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    // One request/response per round trip: latency matters, Nagle hurts.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_line(&mut reader) {
            Ok(Some(line)) => line,
            Ok(None) => return, // clean EOF or mid-write disconnect
            Err(e) => {
                // Oversized or non-UTF-8 line: tell the client, then hang
                // up — the stream is no longer line-synchronized.
                let _ = write_line(&mut writer, &Response::failure(None, e.to_string()));
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let req = match decode_request(&line) {
            Ok(r) => r,
            Err(e) => {
                // Best-effort id recovery so the client can correlate.
                let id = serde_json::from_str::<serde::Value>(&line)
                    .ok()
                    .and_then(|v| match v {
                        serde::Value::Object(m) => m.get("id").cloned(),
                        _ => None,
                    })
                    .and_then(|v| u64::from_value(&v).ok());
                if write_line(&mut writer, &Response::failure(id, e)).is_err() {
                    return;
                }
                continue;
            }
        };
        let resp = dispatch(shared, &req);
        if write_line(&mut writer, &resp).is_err() {
            return;
        }
        if req.method == "shutdown" {
            return;
        }
    }
}

fn dispatch(shared: &Arc<Shared>, req: &Request) -> Response {
    let started = Instant::now();
    let resp = match req.method.as_str() {
        "submit" => handle_submit(shared, req),
        "status" => handle_status(shared, req),
        "result" => handle_result(shared, req, false),
        "wait" => handle_result(shared, req, true),
        "cancel" => handle_cancel(shared, req),
        "trace" => handle_trace(shared, req),
        "stats" => handle_stats(shared, req),
        "shutdown" => {
            initiate_shutdown(shared, req.drain.unwrap_or(true));
            Response::success(req.id)
        }
        other => Response::failure(req.id, format!("unknown method {other:?}")),
    };
    // Per-method request latency. Unknown methods share one bucket so a
    // misbehaving client can't mint unbounded histogram names.
    let method = match req.method.as_str() {
        m @ ("submit" | "status" | "result" | "wait" | "cancel" | "trace" | "stats"
        | "shutdown") => m,
        _ => "unknown",
    };
    shared.cfg.telemetry.observe(
        &format!("serve/request_ms/{method}"),
        started.elapsed().as_secs_f64() * 1e3,
    );
    resp
}

/// Serves one chunk of a finished job's trace file. Chunks are raw byte
/// runs (cut at UTF-8 boundaries) so the client reassembles the exact
/// file; each response line stays under the protocol's line cap.
fn handle_trace(shared: &Arc<Shared>, req: &Request) -> Response {
    let Some(id) = &req.job else {
        return Response::failure(req.id, "trace requires a job id");
    };
    {
        let t = shared.jobs.lock().expect("job table lock poisoned");
        match t.jobs.get(id) {
            None => return Response::failure(req.id, format!("no such job {id:?}")),
            Some(job) if !job.state.finished() => {
                return Response::failure(
                    req.id,
                    format!("job {id} not finished (state {})", job.state.as_str()),
                );
            }
            Some(_) => {}
        }
    }
    let Some(dir) = &shared.cfg.trace_dir else {
        return Response::failure(
            req.id,
            "server was started without --trace-dir; no per-job traces exist",
        );
    };
    let path = Path::new(dir).join(format!("{id}.trace.jsonl"));
    let data = match std::fs::read_to_string(&path) {
        Ok(d) => d,
        Err(e) => {
            return Response::failure(req.id, format!("read trace {}: {e}", path.display()));
        }
    };
    let offset = req.offset.unwrap_or(0) as usize;
    if offset > data.len() || !data.is_char_boundary(offset) {
        return Response::failure(
            req.id,
            format!("offset {offset} invalid for trace of {} bytes", data.len()),
        );
    }
    let mut end = (offset + TRACE_CHUNK_BYTES).min(data.len());
    while end < data.len() && !data.is_char_boundary(end) {
        end -= 1;
    }
    let mut resp = Response::success(req.id);
    resp.trace = Some(TraceChunk {
        job: id.clone(),
        offset: offset as u64,
        data: data[offset..end].to_string(),
        eof: end == data.len(),
    });
    resp
}

fn handle_submit(shared: &Arc<Shared>, req: &Request) -> Response {
    let Some(spec) = &req.spec else {
        return Response::failure(req.id, "submit requires a job spec");
    };
    // Validate eagerly so a typo fails at submit, not minutes later.
    if build_case(&spec.op, spec.shape, spec.batch).is_none() {
        return Response::failure(
            req.id,
            format!("unknown case {:?} shape {}", spec.op, spec.shape),
        );
    }
    if HardwareTarget::by_name(&spec.target).is_none() {
        return Response::failure(req.id, format!("unknown target {:?}", spec.target));
    }
    if spec.trials == 0 {
        return Response::failure(req.id, "trials must be positive");
    }
    if let Some(f) = &spec.faults {
        if let Err(e) = hwsim::FaultPlan::parse(f) {
            return Response::failure(req.id, format!("bad fault spec: {e}"));
        }
    }
    if spec.prerank_keep.is_some() || spec.transfer.is_some() {
        return Response::failure(
            req.id,
            "prerank_keep/transfer: the surrogate prerank stage was removed (protocol 2); drop the field",
        );
    }
    if spec.threads.is_some() {
        return Response::failure(
            req.id,
            "threads: the thread pool was removed; a job runs on its worker thread; drop the field",
        );
    }
    let mut t = shared.jobs.lock().expect("job table lock poisoned");
    if t.draining {
        return Response::failure(req.id, "server is draining; not accepting jobs");
    }
    if t.queue.len() >= shared.cfg.queue_cap {
        return Response::failure(
            req.id,
            format!("queue full ({} jobs queued)", t.queue.len()),
        );
    }
    t.next_id += 1;
    let id = format!("job-{}", t.next_id);
    t.jobs.insert(
        id.clone(),
        Job {
            spec: spec.clone(),
            state: JobState::Queued,
            cancel: Arc::new(AtomicBool::new(false)),
            progress: Arc::new(Mutex::new(Progress::default())),
            result: None,
            submitted: Instant::now(),
        },
    );
    t.queue.push_back(id.clone());
    t.submitted += 1;
    shared.publish_gauges(&t);
    shared.publish_job_gauges(
        &id,
        JobState::Queued,
        &Progress::default(),
        spec.trials as u64,
    );
    shared.journal_append(&JournalEvent::Submit {
        job: id.clone(),
        task: spec.task_name(),
        op: spec.op.clone(),
        shape: spec.shape as u64,
        batch: spec.batch,
        target: spec.target.clone(),
        trials: spec.trials as u64,
        seed: spec.seed,
    });
    drop(t);
    shared.work_cv.notify_one();
    let mut resp = Response::success(req.id);
    resp.job = Some(id);
    resp
}

fn job_status(id: &str, job: &Job) -> JobStatus {
    let p = *job.progress.lock().unwrap_or_else(PoisonError::into_inner);
    JobStatus {
        job: id.to_string(),
        state: job.state.as_str().into(),
        rounds: p.rounds,
        trials: p.trials,
        trials_budget: job.spec.trials as u64,
        best_seconds: p.best_seconds,
    }
}

fn handle_status(shared: &Arc<Shared>, req: &Request) -> Response {
    let Some(id) = &req.job else {
        return Response::failure(req.id, "status requires a job id");
    };
    let t = shared.jobs.lock().expect("job table lock poisoned");
    match t.jobs.get(id) {
        Some(job) => {
            let mut resp = Response::success(req.id);
            resp.status = Some(job_status(id, job));
            resp
        }
        None => Response::failure(req.id, format!("no such job {id:?}")),
    }
}

fn handle_result(shared: &Arc<Shared>, req: &Request, block: bool) -> Response {
    let Some(id) = &req.job else {
        return Response::failure(req.id, "result requires a job id");
    };
    let mut t = shared.jobs.lock().expect("job table lock poisoned");
    loop {
        match t.jobs.get(id) {
            None => return Response::failure(req.id, format!("no such job {id:?}")),
            Some(job) if job.state.finished() => {
                let mut resp = Response::success(req.id);
                resp.result = job.result.clone();
                return resp;
            }
            Some(job) => {
                if !block {
                    return Response::failure(
                        req.id,
                        format!("job {id} not finished (state {})", job.state.as_str()),
                    );
                }
            }
        }
        t = shared.done_cv.wait(t).expect("job table lock poisoned");
    }
}

fn handle_cancel(shared: &Arc<Shared>, req: &Request) -> Response {
    let Some(id) = &req.job else {
        return Response::failure(req.id, "cancel requires a job id");
    };
    let mut t = shared.jobs.lock().expect("job table lock poisoned");
    let (was_queued, spec, queue_wait_ms) = match t.jobs.get(id) {
        Some(job) => {
            job.cancel.store(true, Ordering::Relaxed);
            (
                job.state == JobState::Queued,
                job.spec.clone(),
                job.submitted.elapsed().as_secs_f64() * 1e3,
            )
        }
        None => return Response::failure(req.id, format!("no such job {id:?}")),
    };
    if was_queued {
        t.queue.retain(|q| q != id);
        let job = t.jobs.get_mut(id).expect("job exists");
        job.state = JobState::Cancelled;
        job.result = Some(cancelled_result(id, &spec, queue_wait_ms));
        t.cancelled += 1;
        journal_queued_cancel(shared, id, queue_wait_ms);
        maybe_stop(shared, &mut t);
        shared.publish_gauges(&t);
        drop(t);
        shared.done_cv.notify_all();
    }
    Response::success(req.id)
}

fn handle_stats(shared: &Arc<Shared>, req: &Request) -> Response {
    let t = shared.jobs.lock().expect("job table lock poisoned");
    let mut resp = Response::success(req.id);
    resp.stats = Some(ServerStats {
        protocol_version: PROTOCOL_VERSION,
        jobs_submitted: t.submitted,
        jobs_queued: t.queue.len() as u64,
        jobs_active: t.active as u64,
        jobs_done: t.done,
        jobs_failed: t.failed,
        jobs_cancelled: t.cancelled,
        queue_cap: shared.cfg.queue_cap as u64,
        workers: shared.cfg.workers.max(1) as u64,
        store_entries: shared.store.entry_count() as u64,
        store_records: shared.store.record_count() as u64,
        store_bytes: shared.store.resident_bytes(),
        store_evictions: shared.store.eviction_count(),
        draining: t.draining,
        trials_total: t.trials_total,
    });
    resp
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A daemon's shared state with no threads (the test runs the worker),
    /// and the listener its stop wakes.
    fn idle_daemon() -> (Arc<Shared>, TcpListener) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("a local port");
        let shared = Arc::new(Shared {
            cfg: ServeConfig::default(),
            store: WarmStore::in_memory(),
            jobs: Mutex::new(JobTable::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            journal: None,
            wake_addr: listener.local_addr().expect("a bound address"),
        });
        (shared, listener)
    }

    fn request(method: &str, job: Option<&str>) -> Request {
        Request {
            id: 1,
            method: method.into(),
            job: job.map(str::to_string),
            spec: None,
            drain: None,
            offset: None,
        }
    }

    #[test]
    fn poisoned_progress_and_cache_locks_neither_stop_a_job_nor_status() {
        let (shared, _listener) = idle_daemon();
        shared.store.poison_caches();
        let mut submit = request("submit", None);
        submit.spec = Some(JobSpec {
            op: "GMM".into(),
            shape: 0,
            batch: 1,
            target: "intel".into(),
            trials: 8,
            seed: 1,
            warm_start: None,
            threads: None,
            faults: None,
            prerank_keep: None,
            transfer: None,
        });
        let id = dispatch(&shared, &submit).job.expect("a job id");
        let progress = Arc::clone(&shared.jobs.lock().unwrap().jobs[&id].progress);
        let holder = std::thread::spawn(move || {
            let _p = progress.lock();
            panic!("a holder of the progress panics");
        });
        assert!(holder.join().is_err());

        let status = dispatch(&shared, &request("status", Some(&id)));
        assert_eq!(status.status.expect("a status").state, "queued");
        // Draining first: the worker runs the queued job, then stops, so a
        // worker that died on a lock fails the join instead of hanging.
        initiate_shutdown(&shared, true);
        let worker = {
            let sh = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&sh))
        };
        worker.join().expect("the worker runs the job and stops");
        let result = dispatch(&shared, &request("result", Some(&id)));
        let result = result.result.expect("a result");
        assert_eq!((result.state.as_str(), result.trials), ("done", 8));
        let status = dispatch(&shared, &request("status", Some(&id)));
        let status = status.status.expect("a status");
        assert_eq!((status.state.as_str(), status.trials), ("done", 8));
    }
}
