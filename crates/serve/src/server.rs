//! The `ansor-serve` daemon: a TCP server hosting concurrent tuning
//! sessions over the newline-delimited JSON protocol.
//!
//! Architecture: an accept loop hands each connection to a detached
//! handler thread; handlers submit jobs to the job table (at most
//! `queue_cap` of them queued); a fixed pool of session workers claims
//! them in id order, each running one [`TuningSession`] per job wired
//! into the shared [`WarmStore`]. All coordination is one mutex around
//! the job table plus two condvars (work available, job finished) — no
//! async runtime, matching the repo's std-only discipline. A job moves
//! only through `submit`, `claim` and `settle`, each of which
//! writes the table, the gauges and the journal together under that
//! mutex; the queue and every count are reads of the job states.
//!
//! Determinism: a job is executed exactly as `ansor-tune` would execute
//! the same flags — same task name, same fingerprint, same cold session
//! wiring — with the shared caches layered on top, which are
//! determinism-transparent (see `ansor_core::session`). Warm starts are
//! opt-in per job because they intentionally change the search
//! trajectory.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use ansor_core::{log_fingerprint, SearchTask, TuningOptions, TuningRecordLog, TuningSession};
use ansor_workloads::build_case;
use hwsim::{FaultPlan, HardwareTarget, Measurer};
use serde::Deserialize as _;
use telemetry::{Snapshot, Telemetry};
use tensor_ir::ComputeDag;

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
    /// No job reaches it yet: the end of a job whose session panics, once
    /// the daemon catches the panic. Counted, gauged and spelled like the
    /// others, so the wire, the gauges and the journal already know it.
    #[allow(dead_code)]
    Failed,
    Cancelled,
}

impl JobState {
    /// The wire spelling: the `state` of `status` and `result`, and the
    /// journal's `Finish` outcome.
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

/// What a job runs — its spec and what `submit` parsed from it, so a
/// claimed job cannot fail to start — plus the handles its worker shares
/// with the table. The worker gets a clone when it claims the job.
#[derive(Clone)]
struct Work {
    spec: JobSpec,
    dag: Arc<ComputeDag>,
    target: HardwareTarget,
    fault_plan: Option<FaultPlan>,
    cancel: Arc<AtomicBool>,
    progress: Arc<Mutex<Progress>>,
}

impl Work {
    fn progress(&self) -> Progress {
        *self.progress.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records what `session` has done so far as the job's progress.
    fn record(&self, session: &TuningSession) -> Progress {
        let best = session.best_seconds();
        let p = Progress {
            rounds: session.rounds(),
            trials: session.trials(),
            best_seconds: best.is_finite().then_some(best),
        };
        *self.progress.lock().unwrap_or_else(PoisonError::into_inner) = p;
        p
    }
}

struct Job {
    work: Work,
    state: JobState,
    /// Set together with a terminal `state`, by [`settle`] alone.
    result: Option<JobResult>,
    /// When the job was accepted (queue-wait accounting).
    submitted: Instant,
}

/// How a job ended, as [`settle`] records it: a terminal state, the wire
/// result (whose `state` `settle` spells), and what only the journal's
/// `Finish` keeps.
struct Ending {
    state: JobState,
    result: JobResult,
    /// Deduplicated records the warm store absorbed from the job.
    absorbed_records: u64,
    /// The job's trace file, when the daemon traces jobs.
    trace: Option<String>,
}

impl Ending {
    /// Job `id` ending in `state` before any session result: it measured
    /// nothing and waited from its submit until now.
    fn unrun(id: u64, job: &Job, state: JobState) -> Ending {
        Ending {
            state,
            result: JobResult {
                job: job_name(id),
                task: job.work.spec.task_name(),
                queue_wait_ms: job.submitted.elapsed().as_secs_f64() * 1e3,
                ..JobResult::default()
            },
            absorbed_records: 0,
            trace: None,
        }
    }
}

/// One state and result per job plus two flags; the queue and every count
/// are reads of the job states ([`Shared::stats`]).
#[derive(Default)]
struct JobTable {
    /// Every job since the daemon started, keyed by number: id order is
    /// submit order.
    jobs: BTreeMap<u64, Job>,
    next_id: u64,
    /// No new submits; queued jobs still run (graceful shutdown).
    draining: bool,
    /// Workers and the accept loop exit.
    stop: bool,
}

/// The wire id of job `id`.
fn job_name(id: u64) -> String {
    format!("job-{id}")
}

/// The number of the job a request names: `job-N` exactly as the daemon
/// spells it, so `job-01` names no job.
fn job_number(name: &str) -> Option<u64> {
    let id = name.strip_prefix("job-")?.parse().ok()?;
    (job_name(id) == name).then_some(id)
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
    /// The daemon's counts, one fold over the job states (O(jobs)): the
    /// `stats` answer, and what [`Shared::publish_gauges`] publishes.
    fn stats(&self, t: &JobTable) -> ServerStats {
        let mut s = ServerStats {
            protocol_version: PROTOCOL_VERSION,
            jobs_submitted: t.jobs.len() as u64,
            queue_cap: self.cfg.queue_cap as u64,
            workers: self.cfg.workers.max(1) as u64,
            store_entries: self.store.entry_count() as u64,
            store_records: self.store.record_count() as u64,
            store_bytes: self.store.resident_bytes(),
            store_evictions: self.store.eviction_count(),
            draining: t.draining,
            ..ServerStats::default()
        };
        for job in t.jobs.values() {
            *match job.state {
                JobState::Queued => &mut s.jobs_queued,
                JobState::Running => &mut s.jobs_active,
                JobState::Done => &mut s.jobs_done,
                JobState::Failed => &mut s.jobs_failed,
                JobState::Cancelled => &mut s.jobs_cancelled,
            } += 1;
            s.trials_total += job.result.as_ref().map_or(0, |r| r.trials);
        }
        s
    }

    /// Publishes the `serve/*` gauge family from the (locked) job table.
    fn publish_gauges(&self, t: &JobTable) {
        let s = self.stats(t);
        let tel = &self.cfg.telemetry;
        tel.gauge_set("serve/queue_depth", s.jobs_queued as f64);
        tel.gauge_set("serve/active_sessions", s.jobs_active as f64);
        tel.gauge_set("serve/jobs_submitted", s.jobs_submitted as f64);
        tel.gauge_set("serve/jobs_done", s.jobs_done as f64);
        tel.gauge_set("serve/jobs_failed", s.jobs_failed as f64);
        tel.gauge_set("serve/jobs_cancelled", s.jobs_cancelled as f64);
        tel.gauge_set("serve/draining", if s.draining { 1.0 } else { 0.0 });
        tel.gauge_set("serve/store_entries", s.store_entries as f64);
        tel.gauge_set("serve/store_records", s.store_records as f64);
        tel.gauge_set("serve/store_bytes", s.store_bytes as f64);
        tel.gauge_set("serve/store_evictions", s.store_evictions as f64);
        tel.gauge_set("serve/trials_total", s.trials_total as f64);
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

    /// Publishes job `id`'s state gauge and the rest of its
    /// `serve/job/<id>/*` family: at submit, claim and settle only.
    fn publish_job(&self, id: u64, job: &Job) {
        let tel = &self.cfg.telemetry;
        tel.gauge_set(&format!("serve/job/job-{id}/state"), job.state.gauge_code());
        let budget = job.work.spec.trials as f64;
        tel.gauge_set(&format!("serve/job/job-{id}/trials_budget"), budget);
        self.publish_progress(id, &job.work.progress());
    }

    /// Publishes job `id`'s progress gauges. These live in the daemon's
    /// shared registry (namespaced by job id, so concurrent jobs never
    /// collide) and feed the exporter's `/status` jobs table and the
    /// `ansor-top` jobs pane.
    fn publish_progress(&self, id: u64, p: &Progress) {
        let tel = &self.cfg.telemetry;
        tel.gauge_set(&format!("serve/job/job-{id}/rounds"), p.rounds as f64);
        tel.gauge_set(&format!("serve/job/job-{id}/trials"), p.trials as f64);
        if let Some(best) = p.best_seconds {
            tel.gauge_set(&format!("serve/job/job-{id}/best_seconds"), best);
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
        let queued: Vec<(u64, Ending)> = t
            .jobs
            .iter()
            .filter(|(_, job)| job.state == JobState::Queued)
            .map(|(&id, job)| (id, Ending::unrun(id, job, JobState::Cancelled)))
            .collect();
        for (id, end) in queued {
            settle(shared, &mut t, id, end);
        }
        for job in t.jobs.values() {
            job.work.cancel.store(true, Ordering::Relaxed);
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
    if t.draining && !t.stop && t.jobs.values().all(|job| job.state.finished()) {
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

/// Queues `work` as a new job, the one way into the table; refused while
/// draining or with `queue_cap` jobs queued.
fn submit(shared: &Arc<Shared>, work: Work) -> Result<u64, String> {
    let mut t = shared.jobs.lock().expect("job table lock poisoned");
    if t.draining {
        return Err("server is draining; not accepting jobs".into());
    }
    let queued = shared.stats(&t).jobs_queued;
    if queued >= shared.cfg.queue_cap as u64 {
        return Err(format!("queue full ({queued} jobs queued)"));
    }
    t.next_id += 1;
    let id = t.next_id;
    let spec = &work.spec;
    shared.journal_append(&JournalEvent::Submit {
        job: job_name(id),
        task: spec.task_name(),
        op: spec.op.clone(),
        shape: spec.shape as u64,
        batch: spec.batch,
        target: spec.target.clone(),
        trials: spec.trials as u64,
        seed: spec.seed,
    });
    let job = Job {
        work,
        state: JobState::Queued,
        result: None,
        submitted: Instant::now(),
    };
    shared.publish_job(id, &job);
    t.jobs.insert(id, job);
    shared.publish_gauges(&t);
    drop(t);
    shared.work_cv.notify_one();
    Ok(id)
}

/// Marks the queued job with the lowest id running and returns its id,
/// work and queue wait, waiting while none is queued; `None` once the
/// daemon stops.
fn claim(shared: &Arc<Shared>) -> Option<(u64, Work, f64)> {
    let mut t = shared.jobs.lock().expect("job table lock poisoned");
    loop {
        if t.stop {
            return None;
        }
        let queued = t
            .jobs
            .iter_mut()
            .find(|(_, job)| job.state == JobState::Queued);
        if let Some((&id, job)) = queued {
            job.state = JobState::Running;
            let queue_wait_ms = job.submitted.elapsed().as_secs_f64() * 1e3;
            let tel = &shared.cfg.telemetry;
            tel.observe("serve/queue_wait_ms", queue_wait_ms);
            tel.gauge_set(&format!("serve/job/job-{id}/queue_wait_ms"), queue_wait_ms);
            shared.publish_job(id, job);
            shared.journal_append(&JournalEvent::Start {
                job: job_name(id),
                queue_wait_ms,
            });
            let work = job.work.clone();
            shared.publish_gauges(&t);
            return Some((id, work, queue_wait_ms));
        }
        t = shared.work_cv.wait(t).expect("job table lock poisoned");
    }
}

/// Ends job `id`, the one way out of `queued` or `running`: sets its state
/// and result together, journals its `Finish`, publishes its gauges and
/// the `serve/*` gauges, stops a draining daemon gone idle and wakes every
/// `wait`.
fn settle(shared: &Arc<Shared>, t: &mut JobTable, id: u64, end: Ending) {
    let Some(job) = t.jobs.get_mut(&id) else {
        return;
    };
    let Ending {
        state,
        mut result,
        absorbed_records,
        trace,
    } = end;
    result.state = state.as_str().into();
    shared.journal_append(&JournalEvent::Finish {
        job: result.job.clone(),
        outcome: result.state.clone(),
        queue_wait_ms: result.queue_wait_ms,
        wall_ms: result.wall_ms,
        trials: result.trials,
        best_gflops: result.best_gflops,
        cache: result.warm,
        absorbed_records,
        trace,
    });
    job.state = state;
    job.result = Some(result);
    shared.publish_job(id, job);
    maybe_stop(shared, t);
    shared.publish_gauges(t);
    shared.done_cv.notify_all();
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some((id, work, queue_wait_ms)) = claim(shared) {
        let (mut end, log) = run_job(shared, id, &work, queue_wait_ms);
        if end.state == JobState::Done {
            // Persist what the job learned before it settles, so a client
            // observing "done" can rely on the store being warm.
            let faults = work.spec.faults.as_deref().unwrap_or(&shared.cfg.faults);
            end.absorbed_records = shared.store.absorb(&work.spec, faults, &log) as u64;
            if let Err(e) = shared.store.save() {
                eprintln!("warning: store save failed, lines kept for the next save: {e}");
            }
        }
        let mut t = shared.jobs.lock().expect("job table lock poisoned");
        settle(shared, &mut t, id, end);
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
/// Returns how it ended (`done`, or `cancelled` when its flag was set)
/// and the full tuning log (for the store; the log stays off the wire —
/// clients get its fingerprint and count).
///
/// The session runs under its *own* [`Telemetry`] — registry isolated
/// per job, trace sink per job — so concurrent jobs never interleave
/// counters and the per-job trace matches a cold `ansor-tune --trace` of
/// the same seed byte for byte. The daemon's shared handle only carries
/// `serve/*` operational gauges.
fn run_job(
    shared: &Arc<Shared>,
    id: u64,
    work: &Work,
    queue_wait_ms: f64,
) -> (Ending, Vec<TuningRecordLog>) {
    let started = Instant::now();
    let spec = &work.spec;
    // Per-job override. The fault spec feeds the fingerprint and class
    // key, so overridden jobs occupy their own warm-store class.
    let faults = spec.faults.as_deref().unwrap_or(&shared.cfg.faults);
    let (job_tel, trace) = job_telemetry(shared, &job_name(id));
    let shared_tel = shared.cfg.telemetry.clone();
    // The session searches a copy of the job's DAG (a clone starts with
    // empty memos): the derived DAGs it memoizes are built on this worker
    // and die with the job instead of living on in the job table.
    let dag = Arc::new(ComputeDag::clone(&work.dag));
    let task = SearchTask::new(spec.task_name(), Arc::clone(&dag), work.target.clone());
    let options = TuningOptions {
        num_measure_trials: spec.trials,
        seed: spec.seed,
        telemetry: job_tel.clone(),
        ..Default::default()
    };
    let mut measurer = Measurer::new(work.target.clone());
    measurer.set_telemetry(job_tel.clone());
    if work.fault_plan.is_some() {
        measurer.set_fault_plan(work.fault_plan.clone());
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
    let gflops_gauge = format!("serve/job/job-{id}/best_gflops");
    let mut last_round = 0u64;
    session.run(|s| {
        let p = work.record(s);
        shared.publish_progress(id, &p);
        if let Some(best) = p.best_seconds {
            shared_tel.gauge_set(&gflops_gauge, flops / best / 1e9);
        }
        if p.rounds > last_round {
            last_round = p.rounds;
            shared.journal_append(&JournalEvent::Round {
                job: job_name(id),
                round: p.rounds,
                trials: p.trials,
                best_seconds: p.best_seconds,
            });
        }
        !work.cancel.load(Ordering::Relaxed)
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
    let state = if work.cancel.load(Ordering::Relaxed) {
        JobState::Cancelled
    } else {
        JobState::Done
    };

    let p = work.record(&session);
    let log = session.log().to_vec();
    let result = JobResult {
        job: job_name(id),
        task: spec.task_name(),
        trials: p.trials,
        best_seconds: p.best_seconds,
        best_gflops: p.best_seconds.map(|s| flops / s / 1e9),
        best_signature: session.best_individual().map(|i| i.state.signature()),
        log_records: log.len() as u64,
        log_fingerprint: log_fingerprint(&log),
        warm,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        queue_wait_ms,
        counters,
        ..JobResult::default()
    };
    let ending = Ending {
        state,
        result,
        absorbed_records: 0,
        trace,
    };
    (ending, log)
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
        match job_number(id).and_then(|n| t.jobs.get(&n)) {
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
    // Parse once, eagerly: a typo fails at submit, not minutes later, and
    // the job keeps what was parsed.
    let Some(dag) = build_case(&spec.op, spec.shape, spec.batch) else {
        return Response::failure(
            req.id,
            format!("unknown case {:?} shape {}", spec.op, spec.shape),
        );
    };
    let Some(target) = HardwareTarget::by_name(&spec.target) else {
        return Response::failure(req.id, format!("unknown target {:?}", spec.target));
    };
    if spec.trials == 0 {
        return Response::failure(req.id, "trials must be positive");
    }
    let fault_plan = match spec.faults.as_deref().map(FaultPlan::parse).transpose() {
        Ok(plan) => plan,
        Err(e) => return Response::failure(req.id, format!("bad fault spec: {e}")),
    };
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
    let work = Work {
        spec: spec.clone(),
        dag,
        target,
        fault_plan,
        cancel: Arc::default(),
        progress: Arc::default(),
    };
    match submit(shared, work) {
        Ok(id) => {
            let mut resp = Response::success(req.id);
            resp.job = Some(job_name(id));
            resp
        }
        Err(e) => Response::failure(req.id, e),
    }
}

fn job_status(id: &str, job: &Job) -> JobStatus {
    let p = job.work.progress();
    JobStatus {
        job: id.to_string(),
        state: job.state.as_str().into(),
        rounds: p.rounds,
        trials: p.trials,
        trials_budget: job.work.spec.trials as u64,
        best_seconds: p.best_seconds,
    }
}

fn handle_status(shared: &Arc<Shared>, req: &Request) -> Response {
    let Some(id) = &req.job else {
        return Response::failure(req.id, "status requires a job id");
    };
    let t = shared.jobs.lock().expect("job table lock poisoned");
    match job_number(id).and_then(|n| t.jobs.get(&n)) {
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
    let number = job_number(id);
    let mut t = shared.jobs.lock().expect("job table lock poisoned");
    loop {
        match number.and_then(|n| t.jobs.get(&n)) {
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
    let Some((n, job)) = job_number(id).and_then(|n| Some((n, t.jobs.get(&n)?))) else {
        return Response::failure(req.id, format!("no such job {id:?}"));
    };
    job.work.cancel.store(true, Ordering::Relaxed);
    if job.state == JobState::Queued {
        let end = Ending::unrun(n, job, JobState::Cancelled);
        settle(shared, &mut t, n, end);
    }
    Response::success(req.id)
}

fn handle_stats(shared: &Arc<Shared>, req: &Request) -> Response {
    let t = shared.jobs.lock().expect("job table lock poisoned");
    let mut resp = Response::success(req.id);
    resp.stats = Some(shared.stats(&t));
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
    fn only_job_n_as_the_daemon_spells_it_names_a_job() {
        assert_eq!(job_number(&job_name(7)), Some(7));
        for name in ["job-07", "job-+7", "job-", "7", "job-7 ", "JOB-7"] {
            assert_eq!(job_number(name), None, "{name:?}");
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
        let n = job_number(&id).expect("a job-N id");
        let progress = Arc::clone(&shared.jobs.lock().unwrap().jobs[&n].work.progress);
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
