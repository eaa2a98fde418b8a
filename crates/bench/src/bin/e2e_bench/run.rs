//! The end-to-end run (`--trace 0`): warm-up, set-up timing, timed
//! passes, checks, and the end-to-end metrics.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::alloc::{self, AllocCount};
use crate::checks::{check_best, check_canary, Ops};
use crate::clock::{
    calib_source_hash, cpu_ns, ncpu_s, timed, Calibrator, CALIB_REF_NS, CALIB_V1_HASH,
};
use crate::metrics::{Values, END_TO_END};
use crate::serve::{self, ServeUnits, ServeWall};
use crate::spans::Tracer;
use crate::stats::{geomean, iqr_share, median};
use crate::workloads::{
    run_network, run_sessions, setup_network, setup_sessions, PassCounters, PassOutcome, Plan,
    Recorder, Scale, Seeds, UnitSample, Workload,
};

/// What one invocation measures.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: &'static Workload,
    /// Workload seed (`Seeds::of` derives every job's search seed).
    pub seed: u64,
    /// Seconds the measuring phase lasts.
    pub seconds: f64,
    /// Full or `--quick`.
    pub scale: Scale,
}

impl RunConfig {
    /// Fewest timed passes a run makes, however short `--seconds` is. Two
    /// give every unit a second sample and every result a second run to
    /// equal, and more replicas of the plan in a pass buy more than more
    /// passes do (README.md, "Sizing"). A served wave runs on the daemon's
    /// worker thread while the calibration kernel runs on this one, and
    /// the neighbour does not always slow the two alike: a third pass lets
    /// the median drop the pass in which it did not.
    pub fn min_passes(&self) -> usize {
        match self.workload.plan {
            Plan::Serve { .. } => 3,
            _ => 2,
        }
    }

    /// The trajectories of an end-to-end pass: every replica of a full
    /// run, one of a `--quick` run.
    pub fn seeds(&self) -> Seeds {
        Seeds {
            seed: self.seed,
            replicas: match self.scale {
                Scale::Full => self.workload.replicas,
                Scale::Quick => 1,
            },
        }
    }

    /// Units of a pass over `seeds` that a user of the system pays for (a
    /// serve pass also runs in-process reference sessions, which no user
    /// does).
    pub fn is_user_unit(&self, seeds: Seeds, unit: usize) -> bool {
        match self.workload.plan {
            Plan::Serve { jobs } => ServeUnits::of(jobs.len() * seeds.replicas).served(unit),
            _ => true,
        }
    }
}

/// One pass: its unit samples, results and counters.
pub struct Pass {
    /// Unit samples in execution order.
    pub units: Vec<UnitSample>,
    /// Results.
    pub outcome: PassOutcome,
    /// Cache and model counters.
    pub counters: PassCounters,
}

/// Runs one pass of the configured workload; `reference` adds the serve
/// workload's in-process reference sessions (`serve.rs`).
pub fn one_pass(
    cfg: &RunConfig,
    seeds: Seeds,
    reference: bool,
    calib: &mut Calibrator,
    tracer: Option<&Tracer>,
    dir: &Path,
    wall: &mut ServeWall,
) -> Pass {
    let mut rec = Recorder::new(calib);
    let (outcome, counters) = spanned_pass(tracer, || match cfg.workload.plan {
        Plan::Sessions { jobs, variant } => {
            // Sampling-only rounds take ≈ 9 ms: too short to time singly.
            let whole_jobs = variant == ansor_core::PolicyVariant::NoFineTuning;
            run_sessions(
                jobs, variant, whole_jobs, seeds, cfg.scale, &mut rec, tracer,
            )
        }
        Plan::Network {
            net,
            target,
            units,
            bar_gflops,
        } => {
            let bar = cfg.scale.bar(bar_gflops);
            (
                run_network(
                    net,
                    target,
                    cfg.scale.units(units),
                    bar,
                    seeds,
                    &mut rec,
                    tracer,
                ),
                PassCounters::default(),
            )
        }
        Plan::Serve { jobs } => serve::run_serve(
            jobs, seeds, cfg.scale, reference, dir, &mut rec, tracer, wall,
        ),
    });
    Pass {
        units: rec.units,
        outcome,
        counters,
    }
}

fn spanned_pass<R>(tracer: Option<&Tracer>, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => {
            t.set_job(crate::spans::NO_JOB);
            let out = t.span("pass", f);
            t.set_job(crate::spans::NO_JOB);
            out
        }
        None => f(),
    }
}

/// Builds everything a user builds before the first trial of one replica
/// of the plan (set-up does not depend on the search seed, so more
/// replicas would only repeat it) and returns the teardown (run outside
/// the timed window).
fn setup_once(cfg: &RunConfig, dir: &Path) -> Box<dyn FnOnce()> {
    let seeds = Seeds::single(cfg.seed);
    match cfg.workload.plan {
        Plan::Sessions { jobs, variant } => {
            let built = setup_sessions(jobs, variant, seeds, cfg.scale, None);
            Box::new(move || drop(built))
        }
        Plan::Network { net, target, .. } => {
            let built = setup_network(net, target, cfg.seed);
            Box::new(move || drop(built))
        }
        Plan::Serve { jobs } => {
            // What the daemon builds per job, plus the daemon itself.
            let built = setup_sessions(
                jobs,
                ansor_core::PolicyVariant::Full,
                seeds,
                cfg.scale,
                None,
            );
            let (server, clients) = serve::start(dir, serve::TIMED_WORKERS, None);
            Box::new(move || {
                drop((built, clients));
                server.shutdown(false);
                server.wait();
            })
        }
    }
}

/// Set-up time in ncpu seconds, never a single shot: set-up is repeated in
/// blocks of ≈ 20 ms with a calibration sample on either side of each
/// block (neighbours share one), a block's value is its median repetition
/// over the mean of its two samples — the estimator of the units — and
/// the result is the median over blocks.
pub fn measure_setup(cfg: &RunConfig, dir: &Path) -> f64 {
    const MIN_BLOCKS: usize = 9;
    const BLOCK_NS: u64 = 20_000_000;
    let (min_cpu_ns, max_wall) = match cfg.scale {
        Scale::Full => (500_000_000, Duration::from_secs(2)),
        Scale::Quick => (100_000_000, Duration::from_millis(500)),
    };
    let mut calib = Calibrator::default();
    let mut blocks = Vec::new();
    let mut total = 0u64;
    let started = Instant::now();
    let mut before = calib.sample();
    while blocks.len() < MIN_BLOCKS || (total < min_cpu_ns && started.elapsed() < max_wall) {
        let (mut reps, mut block) = (Vec::new(), 0u64);
        while block < BLOCK_NS {
            let (ns, teardown) = timed(|| setup_once(cfg, dir));
            teardown();
            reps.push(ns as f64);
            block += ns;
        }
        let after = calib.sample();
        blocks.push(median(&reps) / ((before + after) as f64 / 2.0));
        before = after;
        total += block;
    }
    median(&blocks) * CALIB_REF_NS / 1e9
}

/// `ratios[pass][unit]`: each unit's CPU time over its adjacent
/// calibration samples.
pub fn unit_ratios(passes: &[Pass]) -> Vec<Vec<f64>> {
    passes
        .iter()
        .map(|p| p.units.iter().map(|u| u.ratio()).collect())
        .collect()
}

/// Largest IQR-over-median of any unit's ratio across passes.
pub fn unit_iqr_share_max(ratios: &[Vec<f64>]) -> f64 {
    let units = ratios.first().map_or(0, Vec::len);
    (0..units)
        .map(|u| iqr_share(&ratios.iter().map(|p| p[u]).collect::<Vec<_>>()))
        .fold(0.0, f64::max)
}

/// One operation per pass: its results equal the reference pass's, bit
/// for bit, and its jobs count as attempted.
pub fn compare_pass(ops: &mut Ops, got: &PassOutcome, reference: &PassOutcome, pass: usize) {
    ops.done(got.jobs());
    ops.check(
        got.digest == reference.digest && got.trials == reference.trials,
        || {
            format!(
                "pass {pass}: results differ from the first pass (digest {:#018x} vs {:#018x})",
                got.digest, reference.digest
            )
        },
    );
    for (i, (fp, served)) in got.fingerprints.iter().zip(&got.served).enumerate() {
        // Cold results come first in `served`, in job order.
        ops.check(
            served.log_fingerprint == *fp
                && served.best_signature == got.bests.get(i).map(|b| b.signature),
            || {
                format!(
                    "pass {pass}: served job {i} ({}) differs from the in-process session: \
                     log {:#018x} vs {fp:#018x}, best {:?} vs {:?}",
                    served.task,
                    served.log_fingerprint,
                    served.best_signature,
                    got.bests.get(i).map(|b| b.signature)
                )
            },
        );
    }
    // The second half of `served` resubmits the first.
    let jobs = got.served.len() / 2;
    for (i, warm) in got.served.iter().enumerate().skip(jobs) {
        let cold = &got.served[i - jobs];
        ops.check(
            warm.log_fingerprint == cold.log_fingerprint
                && warm.best_signature == cold.best_signature,
            || format!("pass {pass}: warm job {i} differs from its cold run"),
        );
    }
}

/// One operation: the calibration kernel compiled into this binary is the
/// frozen one.
pub fn check_calibration(ops: &mut Ops) {
    ops.check(calib_source_hash() == CALIB_V1_HASH, || {
        format!(
            "calib.rs hashes to {:#018x}, the frozen kernel to {CALIB_V1_HASH:#018x}",
            calib_source_hash()
        )
    });
}

/// Everything a run prints.
pub struct Report {
    /// Metric values.
    pub values: Values,
    /// Operations attempted and failed.
    pub ops: Ops,
    /// Human-readable lines (printed before the result line).
    pub lines: Vec<String>,
}

/// Checks shared by both kinds of run: the best program of every task,
/// and the canary.
pub fn check_outcome(ops: &mut Ops, outcome: &PassOutcome, seed: u64) {
    for best in &outcome.bests {
        check_best(ops, best, seed);
    }
    check_canary(ops, seed);
}

/// Describes the jobs of a pass, one line each.
pub fn describe(outcome: &PassOutcome) -> Vec<String> {
    let mut lines = Vec::new();
    for c in &outcome.curves {
        lines.push(format!(
            "  curve {:<22} final {:>10.3} GFLOP/s  mean {:>10.3}  bar {:>10.3} met at trial {}",
            c.name,
            c.points.last().map_or(0.0, |p| p.1),
            c.mean_gflops(),
            c.bar_gflops,
            c.trials_to_bar()
                .map_or("never".to_string(), |t| t.to_string()),
        ));
    }
    for b in &outcome.bests {
        lines.push(format!(
            "  best  {:<22} {:>10.3} GFLOP/s  sig {:#018x}",
            b.name,
            b.gflops(),
            b.signature
        ));
    }
    lines
}

/// The end-to-end run.
pub fn run_e2e(cfg: &RunConfig) -> Report {
    ansor_runtime::set_threads(1);
    let started = Instant::now();
    let cpu0 = cpu_ns();
    let dir = serve::scratch_dir();
    let mut ops = Ops::default();
    let mut wall = ServeWall::default();
    check_calibration(&mut ops);
    let seeds = cfg.seeds();

    // Warm-up, untimed: one replica of `--quick`'s one-round jobs runs
    // every code path once (lazy statics, page cache, a first heap); the
    // passes of a run agree to a percent or two whether the warm-up was
    // this or a full replica, and the seconds go to timed work.
    one_pass(
        &RunConfig {
            scale: Scale::Quick,
            ..*cfg
        },
        Seeds::single(cfg.seed),
        false,
        &mut Calibrator::default(),
        None,
        &dir,
        &mut wall,
    );
    let warmup_cpu_s = (cpu_ns() - cpu0) as f64 / 1e9;

    let measuring = Instant::now();
    let setup_s = measure_setup(cfg, &dir);

    // Timed passes; the first one's results are the reference every other
    // pass must equal.
    let mut calib = Calibrator::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_bytes = 0;
    let mut last_pass = Duration::ZERO;
    loop {
        // `--quick` makes exactly its minimum; a full run goes on for as
        // long as another pass fits into `--seconds`.
        let fits = cfg.scale == Scale::Full
            && (measuring.elapsed() + last_pass).as_secs_f64() <= cfg.seconds;
        if passes.len() >= cfg.min_passes() && !fits {
            break;
        }
        let t0 = Instant::now();
        if passes.is_empty() {
            alloc::reset_peak();
        }
        // The serve workload's reference sessions are no user's work:
        // one pass of them checks every served result and draws the
        // quality curves; the time goes to a third pass of the waves.
        let reference = passes.is_empty();
        passes.push(one_pass(
            cfg, seeds, reference, &mut calib, None, &dir, &mut wall,
        ));
        last_pass = t0.elapsed();
        if passes.len() == 1 {
            peak_bytes = alloc::peak_bytes();
        }
        let n = passes.len() - 1;
        compare_pass(&mut ops, &passes[n].outcome, &passes[0].outcome, n);
    }
    if let Plan::Serve { jobs } = cfg.workload.plan {
        serve::check_concurrent(&mut ops, jobs, seeds, cfg.scale, &dir);
        serve::check_same_operator_pair(&mut ops, cfg.seed, &dir);
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Counts come from the first timed pass alone.
    let first = &passes[0];
    // Only the first pass has reference units, and they come last.
    let mut ratios = unit_ratios(&passes);
    let in_every_pass = ratios.iter().map(Vec::len).min().unwrap_or(0);
    ratios.iter_mut().for_each(|r| r.truncate(in_every_pass));
    check_outcome(&mut ops, &first.outcome, cfg.seed);

    let user_ncpu_s = ncpu_s(&ratios, |u| cfg.is_user_unit(seeds, u));
    let user_allocs = first
        .units
        .iter()
        .enumerate()
        .filter(|(u, _)| cfg.is_user_unit(seeds, *u))
        .fold(AllocCount::default(), |a, (_, s)| a.plus(s.allocs));
    let trials = first.outcome.trials as f64;

    let mut values = Values::new(&END_TO_END);
    values.set("setup_s", setup_s);
    values.set("trials_per_ncpu_s", trials / user_ncpu_s);
    values.set(
        "mean_best_gflops",
        geomean(
            &first
                .outcome
                .curves
                .iter()
                .map(|c| c.mean_gflops())
                .collect::<Vec<_>>(),
        ),
    );
    values.set(
        "best_gflops_geomean",
        geomean(
            &first
                .outcome
                .bests
                .iter()
                .map(|b| b.gflops())
                .collect::<Vec<_>>(),
        ),
    );
    values.set("allocs_per_trial", user_allocs.calls as f64 / trials);
    values.set(
        "alloc_kb_per_trial",
        user_allocs.bytes as f64 / 1e3 / trials,
    );
    values.set("peak_alloc_mb", peak_bytes as f64 / 1e6);

    let mut lines = vec![format!(
        "{} seed {} {:?}: {} passes of {} units, {} trials/pass; calib p50 {:.3} ms (iqr {:.1}%), \
         worst unit iqr {:.1}%; warm-up {:.2} cpu-s, total {:.2} cpu-s in {:.2} s",
        cfg.workload.name,
        cfg.seed,
        cfg.scale,
        passes.len(),
        first.units.len(),
        first.outcome.trials,
        calib.median_ns() / 1e6,
        iqr_share(calib.samples()) * 100.0,
        unit_iqr_share_max(&ratios) * 100.0,
        warmup_cpu_s,
        (cpu_ns() - cpu0) as f64 / 1e9,
        started.elapsed().as_secs_f64(),
    )];
    // Each pass's units in ncpu seconds, summed: how well the passes of
    // this run agree before any median is taken.
    lines.push(format!(
        "  pass totals (ncpu-s): {}",
        ratios
            .iter()
            .map(|r| format!("{:.3}", r.iter().sum::<f64>() * CALIB_REF_NS / 1e9))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    lines.extend(describe(&first.outcome));
    Report { values, ops, lines }
}
