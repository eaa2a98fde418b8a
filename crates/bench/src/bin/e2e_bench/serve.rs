//! The `serve_mix` workload: an in-process `ansor-serve` daemon on
//! loopback TCP, loaded from the benchmark's main thread.
//!
//! Closed loop, two connections, two jobs in flight: a wave submits one
//! job per connection and blocks in `wait` on each, as `ansor-client
//! submit --wait` does (polling `status` instead wakes two threads on the
//! worker's sibling hardware thread every few milliseconds and shows up
//! as noise in the worker's CPU time); the next wave starts only then. Cold waves (distinct specs
//! against an empty store) are followed by the same specs resubmitted
//! (warm store), then a draining shutdown. A pass can end with the same
//! jobs as plain in-process sessions: the reference every served result
//! must equal bit for bit, the source of the quality curves, and the
//! denominator of the served-over-cold ratio. No user pays for those, so
//! the end-to-end metrics leave them out, and an end-to-end run makes them
//! in its first timed pass only.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ansor_core::{log_fingerprint, PolicyVariant, TuningSession};
use ansor_serve::{Client, JobResult, JobSpec, ServeConfig, Server};

use crate::checks::Ops;
use crate::spans::Tracer;
use crate::workloads::{
    job_task, mix, run_sessions, session_parts, spanned, JobDef, PassCounters, PassOutcome,
    Recorder, Scale, Seeds,
};

/// `stats` round trips timed per traced pass.
const STATS_PROBES: usize = 50;

/// The wire spec of a job.
pub fn spec(def: &JobDef, seed: u64, scale: Scale) -> JobSpec {
    JobSpec {
        op: def.op.into(),
        shape: def.shape,
        batch: def.batch,
        target: def.target.into(),
        trials: scale.trials(def.trials),
        seed,
        warm_start: None,
        threads: None,
        faults: None,
        prerank_keep: None,
        transfer: None,
    }
}

/// Session workers of the timed daemon. The two vCPUs of the box the
/// benchmark was sized on are one core: two workers cost 1.75× the CPU of
/// the same jobs run one after the other, by an amount that depends on
/// the neighbour (README.md, "Sizing"). Two jobs are still in flight; one
/// waits in the queue. [`check_concurrent`] runs two workers, untimed.
pub const TIMED_WORKERS: usize = 1;

/// Starts a daemon with `workers` session workers over a fresh store in
/// `dir` and connects the two client connections — the serving part of
/// what `setup_s` prices.
pub fn start(dir: &Path, workers: usize, tracer: Option<&Tracer>) -> (Server, Vec<Client>) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("the scratch directory is writable");
    let cfg = ServeConfig {
        workers,
        threads: 1,
        store_path: Some(dir.join("store.json").display().to_string()),
        ..ServeConfig::default()
    };
    let server = spanned(tracer, "Server::start", || Server::start(cfg))
        .expect("the daemon binds an ephemeral loopback port");
    let addr = server.local_addr().to_string();
    let clients = (0..2)
        .map(|_| {
            spanned(tracer, "Client::connect", || Client::connect(&addr))
                .expect("the daemon accepts loopback connections")
        })
        .collect();
    (server, clients)
}

/// Drains and stops a daemon (its store is saved by `wait`).
pub fn stop(server: Server, tracer: Option<&Tracer>) {
    spanned(tracer, "Server::shutdown", || {
        server.shutdown(true);
        server.wait();
    });
}

/// Wall-clock figures of the serving layer, accumulated over passes.
/// Box-bound (2 vCPUs): reported in the layer table, never gated.
#[derive(Debug, Default, Clone)]
pub struct ServeWall {
    /// `Server::start`, ms.
    pub start_ms: Vec<f64>,
    /// `submit` round trips, µs.
    pub submit_us: Vec<f64>,
    /// `stats` round trips against the idle daemon, µs.
    pub request_us: Vec<f64>,
    /// Queue wait per job as the daemon reports it, ms.
    pub queue_wait_ms: Vec<f64>,
    /// Served jobs completed.
    pub jobs: u64,
    /// Wall seconds of all waves.
    pub wave_wall_s: f64,
    /// Sum of the jobs' own wall time as the daemon reports it, seconds.
    pub job_wall_s: f64,
    /// Process CPU seconds of all waves.
    pub wave_cpu_s: f64,
    /// Measurement-cache hits of warm-wave jobs.
    pub warm_measure_hits: u64,
}

/// Which units of a serve pass are what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeUnits {
    /// Cold waves.
    pub cold: Range<usize>,
    /// Warm waves.
    pub warm: Range<usize>,
    /// The draining shutdown.
    pub shutdown: usize,
    /// In-process reference sessions, one unit per job.
    pub reference: Range<usize>,
}

impl ServeUnits {
    /// Layout of a pass over `jobs` jobs.
    pub fn of(jobs: usize) -> ServeUnits {
        let waves = jobs / 2;
        ServeUnits {
            cold: 0..waves,
            warm: waves..2 * waves,
            shutdown: 2 * waves,
            reference: 2 * waves + 1..2 * waves + 1 + jobs,
        }
    }

    /// Units a user of the daemon pays for (everything but the reference).
    pub fn served(&self, unit: usize) -> bool {
        unit <= self.shutdown
    }
}

/// One wave: submit one job per connection, then wait for both.
fn wave(
    clients: &mut [Client],
    specs: &[JobSpec],
    tracer: Option<&Tracer>,
    wall: &mut ServeWall,
) -> Vec<JobResult> {
    let started = Instant::now();
    let ids: Vec<String> = clients
        .iter_mut()
        .zip(specs)
        .map(|(c, s)| {
            let t0 = Instant::now();
            let id = spanned(tracer, "Client::submit", || c.submit(s.clone()))
                .expect("the daemon accepts a valid spec into an empty queue");
            wall.submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
            id
        })
        .collect();
    let results = clients
        .iter_mut()
        .zip(&ids)
        .map(|(c, id)| {
            spanned(tracer, "Client::wait", || c.wait(id)).expect("a submitted job finishes")
        })
        .collect();
    wall.wave_wall_s += started.elapsed().as_secs_f64();
    results
}

/// One pass of the serve workload; `jobs.len()` must be even. Returns the
/// outcome (with `served` filled: cold results first, then warm) and —
/// when `reference` asks for the in-process sessions — their curves, bests,
/// fingerprints and counters.
#[allow(clippy::too_many_arguments)]
pub fn run_serve(
    jobs: &[JobDef],
    seeds: Seeds,
    scale: Scale,
    reference: bool,
    dir: &Path,
    rec: &mut Recorder<'_>,
    tracer: Option<&Tracer>,
    wall: &mut ServeWall,
) -> (PassOutcome, PassCounters) {
    assert!(
        jobs.chunks(2).all(|wave| wave.len() == 2),
        "waves are two jobs wide"
    );
    let specs: Vec<JobSpec> = seeds
        .jobs(jobs)
        .into_iter()
        .map(|(d, job_seed)| spec(d, job_seed, scale))
        .collect();
    let t0 = Instant::now();
    let (server, mut clients) = start(dir, TIMED_WORKERS, tracer);
    wall.start_ms.push(t0.elapsed().as_secs_f64() * 1e3);

    let mut out = PassOutcome::new();
    for temperature in ["cold", "warm"] {
        for (w, pair) in specs.chunks(2).enumerate() {
            if let Some(t) = tracer {
                t.set_job((w * 2) as u32);
            }
            let results =
                rec.unit(|| spanned(tracer, "unit", || wave(&mut clients, pair, tracer, wall)));
            wall.wave_cpu_s += rec.units.last().expect("just recorded").cpu_ns as f64 / 1e9;
            for r in results {
                wall.jobs += 1;
                wall.job_wall_s += r.wall_ms / 1e3;
                wall.queue_wait_ms.push(r.queue_wait_ms);
                if temperature == "warm" {
                    wall.warm_measure_hits += r.warm.measure_hits;
                }
                out.trials += r.trials;
                mix(&mut out.digest, r.log_fingerprint);
                mix(&mut out.digest, r.best_signature.unwrap_or(0));
                mix(&mut out.digest, r.best_seconds.unwrap_or(0.0).to_bits());
                out.served.push(r);
            }
        }
    }
    if tracer.is_some() {
        for _ in 0..STATS_PROBES {
            let t0 = Instant::now();
            spanned(tracer, "Client::stats", || clients[0].stats())
                .expect("stats from a running daemon");
            wall.request_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    drop(clients);
    rec.unit(|| spanned(tracer, "unit", || stop(server, tracer)));

    if !reference {
        return (out, PassCounters::default());
    }
    // The same jobs as plain sessions, one unit each. The digest leaves
    // them out, so that passes with and without them compare equal; every
    // served result is in it, and `compare_pass` holds each session
    // against the served job it mirrors.
    let (sessions, counters) =
        run_sessions(jobs, PolicyVariant::Full, true, seeds, scale, rec, tracer);
    out.curves = sessions.curves;
    out.bests = sessions.bests;
    out.fingerprints = sessions.fingerprints;
    (out, counters)
}

/// Record-log fingerprint and best signature of `def` run as a cold
/// in-process session: what a served result must equal.
fn cold_result(def: &JobDef, seed: u64, scale: Scale) -> (u64, Option<u64>) {
    let (task, options, measurer) = session_parts(
        job_task(def),
        scale.trials(def.trials),
        seed,
        PolicyVariant::Full,
    );
    let mut session = TuningSession::new(task, options, measurer, "cold-reference");
    session.run(|_| true);
    (
        log_fingerprint(session.log()),
        session.best_individual().map(|i| i.state.signature()),
    )
}

fn equals_cold(served: &JobResult, def: &JobDef, seed: u64, scale: Scale) -> bool {
    (served.log_fingerprint, served.best_signature) == cold_result(def, seed, scale)
}

/// Correctness only, outside every timed unit: the first two jobs of
/// `jobs` on a daemon with *two* workers, so that two sessions really run
/// side by side, each compared with its cold in-process run. One
/// operation per job.
pub fn check_concurrent(ops: &mut Ops, jobs: &[JobDef], seeds: Seeds, scale: Scale, dir: &Path) {
    let pair = &seeds.jobs(jobs)[..2];
    let specs: Vec<JobSpec> = pair.iter().map(|(d, s)| spec(d, *s, scale)).collect();
    let (server, mut clients) = start(dir, 2, None);
    let results = wave(&mut clients, &specs, None, &mut ServeWall::default());
    drop(clients);
    stop(server, None);
    ops.done(results.len() as u64);
    for (r, (def, seed)) in results.iter().zip(pair) {
        ops.check(equals_cold(r, def, *seed, scale), || {
            format!(
                "{} served next to another running job differs from its cold run",
                r.task
            )
        });
    }
}

/// Two shapes of one operator class, served one after the other by one
/// daemon. Today the second differs from its cold run: `WarmStore` keeps
/// one feature cache for the whole store, keyed by `State::signature()`,
/// which hashes the transform steps alone, and two shapes of an operator
/// can produce the same steps (CHANGES.md, PR 13, "FINDING"). The timed
/// traffic therefore has one shape per operator class, and this pair
/// keeps the defect in view.
pub const SAME_OPERATOR_PAIR: [JobDef; 2] = [
    JobDef {
        op: "NRM",
        shape: 0,
        batch: 16,
        target: "intel",
        trials: 128,
        bar_gflops: 0.0,
    },
    JobDef {
        op: "NRM",
        shape: 1,
        batch: 1,
        target: "intel",
        trials: 128,
        bar_gflops: 0.0,
    },
];

/// Serves [`SAME_OPERATOR_PAIR`] and compares each job with its cold run;
/// returns the share that is equal. A difference is a *known failure*:
/// reported, not counted as failed (`Ops::known_failure`).
pub fn check_same_operator_pair(ops: &mut Ops, seed: u64, dir: &Path) -> f64 {
    // Always at the pair's own budget: 64 trials do not reach the collision.
    let scale = Scale::Full;
    let (server, mut clients) = start(dir, TIMED_WORKERS, None);
    let mut equal = 0;
    for (j, def) in SAME_OPERATOR_PAIR.iter().enumerate() {
        let job_seed = Seeds::single(seed).of(j, 0);
        let id = clients[0]
            .submit(spec(def, job_seed, scale))
            .expect("the daemon accepts a valid spec into an empty queue");
        let served = clients[0].wait(&id).expect("a submitted job finishes");
        ops.done(1);
        let same = equals_cold(&served, def, job_seed, scale);
        equal += same as usize;
        if j == 0 {
            // Nothing ran before it: it must equal its cold run like any job.
            ops.check(same, || {
                format!("{} differs from its cold run", served.task)
            });
        } else {
            ops.known_failure(same, || {
                format!(
                    "{} served after another shape of its operator class differs from its \
                     cold run (store-wide feature cache keyed by step signature; CHANGES.md, \
                     PR 13)",
                    served.task
                )
            });
        }
    }
    drop(clients);
    stop(server, None);
    equal as f64 / SAME_OPERATOR_PAIR.len() as f64
}

/// A scratch directory for one run's daemon stores, next to the
/// executable (so inside the build directory, never outside the checkout).
pub fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    exe.parent()
        .expect("an executable lives in a directory")
        .join(format!("e2e_bench-tmp-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_layout_of_a_pass() {
        let u = ServeUnits::of(4);
        assert_eq!((u.cold.clone(), u.warm.clone()), (0..2, 2..4));
        assert_eq!((u.shutdown, u.reference.clone()), (4, 5..9));
        assert!(u.served(4) && !u.served(5));
        let u = ServeUnits::of(2);
        assert_eq!((u.cold, u.warm, u.shutdown), (0..1, 1..2, 2));
        assert_eq!(u.reference, 3..5);
    }
}
