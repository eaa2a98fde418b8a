//! The five workloads: what each one runs, and how one pass of it is
//! driven and recorded.
//!
//! A *unit* is the smallest repeated piece of identical work (one tuning
//! round, one scheduler step, one whole sampling-only job, one serve
//! wave); a *pass* runs every unit of a workload once with the same seeds,
//! so unit `u` does bit-identical work in every pass.

use std::sync::Arc;

use ansor_core::{
    log_fingerprint, single_fingerprint, single_task_name, LearnedCostModel, Objective,
    PolicyVariant, SearchTask, SketchPolicy, TaskScheduler, TaskSchedulerConfig, TuneTask,
    TuningOptions, TuningSession,
};
use hwsim::{HardwareTarget, Measurer};
use tensor_ir::{ComputeDag, DagBuilder, Expr, Reducer, Step};

use crate::alloc::{counted, AllocCount};
use crate::clock::{timed, Calibrator};
use crate::spans::Tracer;
use crate::timed_model::TimedModel;

/// One single-operator tuning job.
#[derive(Debug, Clone, Copy)]
pub struct JobDef {
    /// Operator class (`ansor-tune --list`).
    pub op: &'static str,
    /// Shape index within the class.
    pub shape: usize,
    /// Batch size.
    pub batch: i64,
    /// Hardware target name.
    pub target: &'static str,
    /// Measurement-trial budget of a full run.
    pub trials: usize,
    /// Frozen quality bar: 0.90 × the best GFLOP/s the seed-0 full run
    /// ended with when the benchmark was defined, lowered where seeds 1–3
    /// did not reach that within budget (README.md, "Quality bars").
    pub bar_gflops: f64,
}

/// What a workload runs in one pass.
#[derive(Debug, Clone, Copy)]
pub enum Plan {
    /// Cold `TuningSession`s, one after another; one unit per round, or —
    /// for the sampling-only variant, whose rounds are too short to time —
    /// one unit per job.
    Sessions {
        /// The jobs.
        jobs: &'static [JobDef],
        /// Search variant of every job.
        variant: PolicyVariant,
    },
    /// One `TaskScheduler` over a network's tasks; one unit per step.
    Network {
        /// Network name (`workloads::network`).
        net: &'static str,
        /// Hardware target name.
        target: &'static str,
        /// Scheduler steps of a full run.
        units: usize,
        /// Frozen bar on the network's throughput (see [`JobDef`]).
        bar_gflops: f64,
    },
    /// An in-process `ansor-serve` daemon under closed-loop load
    /// (`serve.rs`); one unit per two-job wave.
    Serve {
        /// The four job specs of a pass.
        jobs: &'static [JobDef],
    },
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is in the benchmark (one line; mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// What one pass runs.
    pub plan: Plan,
    /// How many times a full end-to-end pass runs the plan, each replica
    /// with search seeds of its own ([`Seeds::of`]). A metric of a pass is
    /// then a mean over that many search trajectories, which is what makes
    /// it a property of the code rather than of one seed (README.md,
    /// "Sizing"). Traced and `--quick` passes run one replica ([`Seeds`]).
    pub replicas: usize,
}

/// The search trajectories of one pass: the workload seed and how many
/// replicas of the plan run under it.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// Workload seed (`--seed`).
    pub seed: u64,
    /// Replicas of the plan in one pass.
    pub replicas: usize,
}

impl Seeds {
    /// One replica under `seed`.
    pub fn single(seed: u64) -> Seeds {
        Seeds { seed, replicas: 1 }
    }

    /// Search seed of job `job` in replica `replica`. Replica 0 is the
    /// issue's `seed + job`; the stride keeps the replicas of nearby
    /// workload seeds apart.
    pub fn of(&self, job: usize, replica: usize) -> u64 {
        // Wrapping: any `--seed` a u64 can hold is a valid workload seed.
        self.seed
            .wrapping_add(job as u64)
            .wrapping_add(1000 * replica as u64)
    }

    /// Every job of a pass with its search seed, replica by replica.
    pub fn jobs<'a>(&self, jobs: &'a [JobDef]) -> Vec<(&'a JobDef, u64)> {
        (0..self.replicas)
            .flat_map(|r| {
                jobs.iter()
                    .enumerate()
                    .map(move |(j, d)| (d, self.of(j, r)))
            })
            .collect()
    }
}

const fn job(
    op: &'static str,
    shape: usize,
    batch: i64,
    target: &'static str,
    trials: usize,
    bar_gflops: f64,
) -> JobDef {
    JobDef {
        op,
        shape,
        batch,
        target,
        trials,
        bar_gflops,
    }
}

/// The benchmark's workloads, in reporting order.
///
/// What a tuning job costs per trial depends on its search seed: on most
/// operators a search settles into one of two sketch families whose
/// cost per trial differs by 40 % (README.md, "Sizing"). A pass therefore
/// runs `replicas` seeds of every job, and the one single-operator
/// workload, `tune_long`, uses an operator with one family.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "tune_mix",
        why: "four cold 256-trial sessions (C2D s3 b16, GMM s1, NRM s0 b16 on intel, DEP s0 on arm), 4 seeds each: the headline trials/s; evolution and cost-model predict do most of the work, serve nothing",
        plan: Plan::Sessions {
            jobs: &[
                job("C2D", 3, 16, "intel", 256, 500.646),
                job("GMM", 1, 1, "intel", 256, 522.109),
                job("NRM", 0, 16, "intel", 256, 25.513),
                job("DEP", 0, 1, "arm", 256, 1.962),
            ],
            variant: PolicyVariant::Full,
        },
        replicas: 4,
    },
    Workload {
        name: "tune_long",
        why: "one 1024-trial depthwise-conv session on arm (the paper's per-operator budget), 3 seeds: GBDT training on a growing record set and growing caches weigh most, so a train-side change shows here first",
        plan: Plan::Sessions {
            jobs: &[job("DEP", 0, 1, "arm", 1024, 1.962)],
            variant: PolicyVariant::Full,
        },
        replicas: 3,
    },
    Workload {
        name: "tune_net",
        why: "TaskScheduler over the five dcgan tasks on gpu, 16 units, 4 seeds: gradient task allocation, one model shared by all tasks, GPU sketch rules; per-task start-up cost counts five times",
        plan: Plan::Network {
            net: "dcgan",
            target: "gpu",
            units: 16,
            bar_gflops: 1781.573,
        },
        replicas: 4,
    },
    Workload {
        name: "sample_only",
        why: "three 2048-trial sessions without fine-tuning (no evolution, no model), 4 seeds each: sketch replay, annotation, lowering and hwsim do all the work; an evolution or cost-model change leaves it flat",
        plan: Plan::Sessions {
            jobs: &[
                job("C2D", 3, 16, "intel", 2048, 46.768),
                job("GMM", 1, 1, "intel", 2048, 538.802),
                job("T2D", 2, 1, "gpu", 2048, 4267.057),
            ],
            variant: PolicyVariant::NoFineTuning,
        },
        replicas: 4,
    },
    Workload {
        name: "serve_mix",
        why: "in-process ansor-serve, closed loop, 2 jobs in flight on 2 connections: eight cold 192-trial jobs (4 operators x 2 seeds), then the same eight, warm; prices protocol, queue, store, telemetry",
        plan: Plan::Serve {
            // Three rounds, not two: two rounds end in the middle of the
            // jump evolution makes once the model is trained (C2D s3 b16
            // ends its second round anywhere between 50 and 550 GFLOP/s,
            // its third at 490-555 on 95 of 100 seeds), and a job that
            // stops there makes the workload's quality a lottery
            // (README.md, "Sizing").
            jobs: &[
                job("C2D", 3, 16, "intel", 192, 486.869),
                job("GMM", 1, 1, "intel", 192, 505.343),
                job("NRM", 0, 16, "intel", 192, 24.224),
                // 0.80 × final: one seed in three ends below 0.90 ×.
                job("DEP", 0, 1, "intel", 192, 49.225),
            ],
        },
        replicas: 2,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Trials per tuning round (`TuningOptions::measures_per_round`'s default,
/// which every job keeps).
pub const ROUND_TRIALS: usize = 64;

/// Run size: the full benchmark, or `--quick`'s 64-trial jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Budgets as defined in [`WORKLOADS`].
    Full,
    /// One replica, one round per job, six scheduler steps: a smoke run.
    Quick,
}

impl Scale {
    /// Trial budget of a job under this scale.
    pub fn trials(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => full.min(ROUND_TRIALS),
        }
    }

    /// A job's quality bar under this scale: the bars are frozen for full
    /// budgets, so a quick run has none.
    pub fn bar(self, full: f64) -> f64 {
        match self {
            Scale::Full => full,
            Scale::Quick => 0.0,
        }
    }

    /// Scheduler steps under this scale.
    pub fn units(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            // One step per dcgan task and one more: the first at which the
            // network has a latency.
            Scale::Quick => full.min(6),
        }
    }
}

/// The 64×64×64 matmul every workload also tunes (outside the timed
/// units) so that one job small enough to execute is always checked
/// against the naive evaluator.
pub fn canary_task() -> SearchTask {
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[64, 64]);
    let w = b.placeholder("B", &[64, 64]);
    b.compute_reduce("C", &[64, 64], &[64], Reducer::Sum, |ax| {
        Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
            * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
    });
    let dag = Arc::new(b.build().expect("the canary matmul is a valid DAG"));
    SearchTask::new("canary:mm64", dag, HardwareTarget::intel_20core())
}

/// The task a [`JobDef`] names.
pub fn job_task(def: &JobDef) -> SearchTask {
    let dag = ansor_workloads::build_case(def.op, def.shape, def.batch)
        .expect("workload tables name existing cases");
    let target =
        HardwareTarget::by_name(def.target).expect("workload tables name existing targets");
    SearchTask::new(single_task_name(def.op, def.shape, def.batch), dag, target)
}

/// The three parts `TuningSession::new` (or a hand-wired policy) takes,
/// exactly as `ansor-tune` builds them: default options apart from budget,
/// seed and variant.
pub fn session_parts(
    task: SearchTask,
    trials: usize,
    seed: u64,
    variant: PolicyVariant,
) -> (SearchTask, TuningOptions, Measurer) {
    let options = TuningOptions {
        num_measure_trials: trials,
        seed,
        variant,
        ..Default::default()
    };
    let measurer = Measurer::new(task.target.clone());
    (task, options, measurer)
}

/// Cost of one unit in one pass.
#[derive(Debug, Clone, Copy)]
pub struct UnitSample {
    /// Raw process CPU nanoseconds.
    pub cpu_ns: u64,
    /// Mean of the calibration samples taken immediately before and
    /// immediately after the unit, raw CPU nanoseconds.
    pub calib_ns: f64,
    /// Allocations made inside the unit (all threads).
    pub allocs: AllocCount,
}

impl UnitSample {
    /// The unit's cost in calibration-kernel runs: what the estimator
    /// takes the per-unit median of.
    pub fn ratio(&self) -> f64 {
        self.cpu_ns as f64 / self.calib_ns
    }
}

/// Records the units of one pass: a calibration sample immediately before
/// and after each unit (consecutive units share the one between them),
/// and the unit's CPU time and allocations.
pub struct Recorder<'a> {
    calib: &'a mut Calibrator,
    /// The sample taken after the previous unit (only bookkeeping runs
    /// between two units of a pass).
    fresh: Option<u64>,
    /// Units recorded so far, in execution order.
    pub units: Vec<UnitSample>,
}

impl<'a> Recorder<'a> {
    /// An empty pass.
    pub fn new(calib: &'a mut Calibrator) -> Recorder<'a> {
        Recorder {
            calib,
            fresh: None,
            units: Vec::new(),
        }
    }

    /// Runs `f` as the next unit.
    pub fn unit<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = self.fresh.take().unwrap_or_else(|| self.calib.sample());
        let (allocs, (cpu_ns, out)) = counted(|| timed(f));
        let after = self.calib.sample();
        self.fresh = Some(after);
        self.units.push(UnitSample {
            cpu_ns,
            calib_ns: (before + after) as f64 / 2.0,
            allocs,
        });
        out
    }
}

/// Best-so-far quality of one job (or of the whole network) over a pass.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Task (or network) name.
    pub name: String,
    /// Frozen bar in GFLOP/s; 0.0 when no bar is defined at this scale.
    pub bar_gflops: f64,
    /// `(trials so far, best GFLOP/s so far)`, one point per trial (per
    /// scheduler step for a network), trials ascending.
    pub points: Vec<(u64, f64)>,
    /// This job's units as `(index into the pass's units, trials so far at
    /// the end of the unit)`, in order.
    pub units: Vec<(usize, u64)>,
}

impl Curve {
    /// Mean over the curve's points of best-so-far GFLOP/s — the
    /// throughput of the schedule a user would have deployed, averaged
    /// over the tuning budget.
    pub fn mean_gflops(&self) -> f64 {
        self.points.iter().map(|p| p.1).sum::<f64>() / self.points.len().max(1) as f64
    }

    /// Trials spent when the bar was first met, or `None` if it never was.
    pub fn trials_to_bar(&self) -> Option<u64> {
        self.points
            .iter()
            .find(|p| p.1 >= self.bar_gflops)
            .map(|p| p.0)
    }

    /// Pass-unit indices a user waits for until the bar is met: every unit
    /// up to and including the one in which it is met — all of them when
    /// it never is.
    pub fn units_to_bar(&self) -> Vec<usize> {
        let need = self.trials_to_bar().unwrap_or(u64::MAX);
        let mut out = Vec::new();
        for &(unit, trials_after) in &self.units {
            out.push(unit);
            if trials_after >= need {
                break;
            }
        }
        out
    }
}

/// The best program of one task after a pass, with what is needed to
/// replay and check it.
#[derive(Debug, Clone)]
pub struct Best {
    /// Task name.
    pub name: String,
    /// The task's DAG.
    pub dag: Arc<ComputeDag>,
    /// The task's target.
    pub target: HardwareTarget,
    /// Transform history of the best program.
    pub steps: Vec<Step>,
    /// Its `State::signature()`.
    pub signature: u64,
    /// Its measured seconds.
    pub seconds: f64,
}

impl Best {
    /// Throughput of the best program.
    pub fn gflops(&self) -> f64 {
        self.dag.flop_count() / self.seconds / 1e9
    }
}

/// Everything one pass produced.
#[derive(Debug, Clone, Default)]
pub struct PassOutcome {
    /// Measurement trials of the pass.
    pub trials: u64,
    /// Quality curves (one per job; one for a whole network).
    pub curves: Vec<Curve>,
    /// Best program per task.
    pub bests: Vec<Best>,
    /// Hash of every result of the pass: record-log fingerprints, best
    /// signatures and best times. Equal digests ⇔ bit-identical results.
    pub digest: u64,
    /// Served job results (serve workload only): cold jobs in job order,
    /// then their warm resubmissions.
    pub served: Vec<ansor_serve::JobResult>,
    /// Record-log fingerprints of the sessions the benchmark drove itself,
    /// in job order (in a serve pass: the in-process reference sessions).
    pub fingerprints: Vec<u64>,
    /// Scheduler units allocated per task, summed over replicas (network
    /// workload only).
    pub task_units: Vec<u64>,
}

impl PassOutcome {
    /// An empty outcome whose digest is ready to [`mix`] into.
    pub fn new() -> PassOutcome {
        PassOutcome {
            digest: 0xcbf2_9ce4_8422_2325,
            ..Default::default()
        }
    }

    /// Jobs the pass ran to completion.
    pub fn jobs(&self) -> u64 {
        (self.curves.len() + self.served.len()) as u64
    }
}

/// Folds `v` into an FNV-1a style digest.
pub fn mix(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Runs `f` inside a span when tracing.
pub fn spanned<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// One tuning job ready to run: the product's `TuningSession`, or — in a
/// traced pass — the same three parts wired by hand around a
/// [`TimedModel`] (bit-identical by `session.rs`'s own contract, and
/// asserted by the run).
pub enum Runner<'t> {
    /// `TuningSession::step`.
    Plain(Box<TuningSession>),
    /// `SketchPolicy::tune_round` with a timed model.
    Traced {
        /// The search policy.
        policy: Box<SketchPolicy>,
        /// The wrapped cost model.
        model: Box<TimedModel<'t, LearnedCostModel>>,
        /// The measurer.
        measurer: Box<Measurer>,
        /// Where spans go.
        tracer: &'t Tracer,
    },
}

impl<'t> Runner<'t> {
    /// Builds the job: DAG → `SearchTask` → policy/session (sketch
    /// generation). This is the work `setup_s` prices.
    pub fn new(
        task: SearchTask,
        trials: usize,
        seed: u64,
        variant: PolicyVariant,
        fingerprint: String,
        tracer: Option<&'t Tracer>,
    ) -> Runner<'t> {
        let (task, options, measurer) = session_parts(task, trials, seed, variant);
        match tracer {
            None => Runner::Plain(Box::new(TuningSession::new(
                task,
                options,
                measurer,
                fingerprint,
            ))),
            Some(tracer) => Runner::Traced {
                policy: Box::new(
                    tracer.span("SketchPolicy::new", || SketchPolicy::new(task, options)),
                ),
                model: Box::new(TimedModel::new(LearnedCostModel::new(), tracer)),
                measurer: Box::new(measurer),
                tracer,
            },
        }
    }

    /// One tuning round; returns the trials it measured.
    pub fn step(&mut self) -> usize {
        match self {
            Runner::Plain(s) => s.step(),
            Runner::Traced {
                policy,
                model,
                measurer,
                tracer,
            } => tracer.span("SketchPolicy::tune_round", || {
                policy.tune_round(model.as_mut(), measurer)
            }),
        }
    }

    /// The job's search policy (history, log, best).
    pub fn policy(&self) -> &SketchPolicy {
        match self {
            Runner::Plain(s) => s.policy(),
            Runner::Traced { policy, .. } => policy,
        }
    }

    /// Lifetime cache counters `(score, feature, measure)` as
    /// `(hits, misses)` pairs.
    pub fn cache_stats(&self) -> [(u64, u64); 3] {
        match self {
            Runner::Plain(s) => cache_pairs(&s.cache_stats()),
            Runner::Traced {
                model, measurer, ..
            } => [
                model.inner.cache_stats(),
                model.inner.feature_cache_stats(),
                measurer.cache_stats(),
            ],
        }
    }

    /// States the timed model was asked to score (0 when untraced).
    pub fn states_scored(&self) -> u64 {
        match self {
            Runner::Plain(_) => 0,
            Runner::Traced { model, .. } => model.states_scored(),
        }
    }
}

/// A session's cache counters as `(hits, misses)` of the score, feature
/// and measurement caches.
pub fn cache_pairs(c: &ansor_core::SessionCacheStats) -> [(u64, u64); 3] {
    [
        (c.score_hits, c.score_misses),
        (c.feature_hits, c.feature_misses),
        (c.measure_hits, c.measure_misses),
    ]
}

/// Builds every job of a sessions workload, as a user's set-up would.
pub fn setup_sessions<'t>(
    jobs: &[JobDef],
    variant: PolicyVariant,
    seeds: Seeds,
    scale: Scale,
    tracer: Option<&'t Tracer>,
) -> Vec<Runner<'t>> {
    seeds
        .jobs(jobs)
        .into_iter()
        .map(|(def, job_seed)| {
            let fp = single_fingerprint(def.op, def.shape, def.batch, def.target, "none", job_seed);
            Runner::new(
                job_task(def),
                scale.trials(def.trials),
                job_seed,
                variant,
                fp,
                tracer,
            )
        })
        .collect()
}

/// Quality curve and best program of a finished (or running) policy.
pub fn policy_results(policy: &SketchPolicy, bar_gflops: f64) -> (Curve, Option<Best>) {
    let flops = policy.task.flop_count();
    let curve = Curve {
        name: policy.task.name.clone(),
        bar_gflops,
        points: policy
            .history
            .iter()
            .map(|r| {
                let g = if r.best_seconds.is_finite() {
                    flops / r.best_seconds / 1e9
                } else {
                    0.0
                };
                (r.trial, g)
            })
            .collect(),
        units: Vec::new(),
    };
    let best = policy.best_individual().map(|ind| Best {
        name: policy.task.name.clone(),
        dag: policy.task.dag.clone(),
        target: policy.task.target.clone(),
        steps: ind.state.steps.clone(),
        signature: ind.state.signature(),
        seconds: policy.best_seconds(),
    });
    (curve, best)
}

/// Cache traffic and model load of the policies the benchmark drives
/// itself in a pass (all zero for the network workload, whose scheduler
/// owns its policies).
#[derive(Debug, Clone, Copy, Default)]
pub struct PassCounters {
    /// Trials those policies measured.
    pub trials: u64,
    /// `(hits, misses)` of the score, feature and measurement caches.
    pub caches: [(u64, u64); 3],
    /// States handed to the timed model (traced passes only).
    pub states_scored: u64,
}

impl PassCounters {
    /// Adds a finished job's counters.
    pub fn absorb(&mut self, runner: &Runner<'_>) {
        self.trials += runner.policy().trials();
        for (total, c) in self.caches.iter_mut().zip(runner.cache_stats()) {
            *total = (total.0 + c.0, total.1 + c.1);
        }
        self.states_scored += runner.states_scored();
    }
}

/// Runs `jobs` as cold sessions, one after another: one unit per round,
/// or — where rounds are too short to time, or only the job total is
/// wanted — one unit per job.
pub fn run_sessions(
    jobs: &[JobDef],
    variant: PolicyVariant,
    whole_job_units: bool,
    seeds: Seeds,
    scale: Scale,
    rec: &mut Recorder<'_>,
    tracer: Option<&Tracer>,
) -> (PassOutcome, PassCounters) {
    let mut out = PassOutcome::new();
    let mut counters = PassCounters::default();
    let runners = setup_sessions(jobs, variant, seeds, scale, tracer);
    let defs = seeds.jobs(jobs);
    for (j, (mut runner, (def, _))) in runners.into_iter().zip(defs).enumerate() {
        if let Some(t) = tracer {
            t.set_job(j as u32);
        }
        let mut units = Vec::new();
        spanned(tracer, "job", || {
            // As `TuningSession::run` does, and so `ansor-tune` and a
            // served job: rounds until the budget is spent — a round
            // measures fewer than `ROUND_TRIALS` programs when the search
            // proposes some it has measured before — or a round finds
            // nothing new.
            let budget = scale.trials(def.trials) as u64;
            if whole_job_units {
                rec.unit(|| {
                    spanned(tracer, "unit", || {
                        while runner.policy().trials() < budget && runner.step() > 0 {}
                    })
                });
                units.push((rec.units.len() - 1, runner.policy().trials()));
            } else {
                while runner.policy().trials() < budget {
                    let measured = rec.unit(|| spanned(tracer, "unit", || runner.step()));
                    units.push((rec.units.len() - 1, runner.policy().trials()));
                    if measured == 0 {
                        break;
                    }
                }
            }
        });
        let policy = runner.policy();
        let (mut curve, best) = policy_results(policy, scale.bar(def.bar_gflops));
        curve.units = units;
        out.trials += policy.trials();
        let fingerprint = log_fingerprint(&policy.log);
        out.fingerprints.push(fingerprint);
        mix(&mut out.digest, fingerprint);
        mix(&mut out.digest, policy.best_seconds().to_bits());
        mix(&mut out.digest, best.as_ref().map_or(0, |b| b.signature));
        out.curves.push(curve);
        out.bests.extend(best);
        counters.absorb(&runner);
    }
    (out, counters)
}

/// A network's scheduler and the measurer it tunes with, as `ansor-tune
/// --network` builds them.
pub fn setup_network(net: &str, target: &str, seed: u64) -> (TaskScheduler, Measurer) {
    let target = HardwareTarget::by_name(target).expect("workload tables name existing targets");
    let tasks = ansor_workloads::network(net, 1).expect("workload tables name existing networks");
    let tune_tasks = tasks
        .iter()
        .map(|t| TuneTask {
            task: SearchTask::new(t.name.clone(), t.dag.clone(), target.clone()),
            weight: t.weight,
            dnn: 0,
        })
        .collect();
    let sched = TaskScheduler::new(
        tune_tasks,
        Objective::WeightedSum,
        TuningOptions {
            seed,
            ..Default::default()
        },
        TaskSchedulerConfig {
            seed,
            ..Default::default()
        },
    );
    (sched, Measurer::new(target))
}

/// One pass of the network workload: one scheduler per replica, one after
/// another.
pub fn run_network(
    net: &str,
    target: &str,
    units: usize,
    bar_gflops: f64,
    seeds: Seeds,
    rec: &mut Recorder<'_>,
    tracer: Option<&Tracer>,
) -> PassOutcome {
    let mut out = PassOutcome::new();
    for replica in 0..seeds.replicas {
        let seed = seeds.of(0, replica);
        let (mut sched, mut measurer) = spanned(tracer, "TaskScheduler::new", || {
            setup_network(net, target, seed)
        });
        if let Some(t) = tracer {
            t.set_job(replica as u32);
        }
        let weighted_flops: f64 = sched
            .tasks
            .iter()
            .map(|t| t.weight * t.task.flop_count())
            .sum();
        let mut curve = Curve {
            name: net.to_string(),
            bar_gflops,
            points: Vec::new(),
            units: Vec::new(),
        };
        spanned(tracer, "job", || {
            for _ in 0..units {
                let chosen = rec.unit(|| {
                    spanned(tracer, "unit", || {
                        spanned(tracer, "TaskScheduler::step", || sched.step(&mut measurer))
                    })
                });
                let record = sched.history.last().expect("a step was just taken");
                let latency = record.dnn_latencies[0];
                let gflops = if latency.is_finite() {
                    weighted_flops / latency / 1e9
                } else {
                    0.0
                };
                curve.points.push((record.total_trials, gflops));
                curve.units.push((rec.units.len() - 1, record.total_trials));
                mix(&mut out.digest, chosen.map_or(u64::MAX, |c| c as u64));
                mix(&mut out.digest, latency.to_bits());
            }
        });
        for (i, t) in sched.tasks.iter().enumerate() {
            if let Some(ind) = sched.best_individual(i) {
                let best = Best {
                    name: t.task.name.clone(),
                    dag: t.task.dag.clone(),
                    target: t.task.target.clone(),
                    steps: ind.state.steps.clone(),
                    signature: ind.state.signature(),
                    seconds: sched.best_latencies()[i],
                };
                mix(&mut out.digest, best.signature);
                mix(&mut out.digest, best.seconds.to_bits());
                out.bests.push(best);
            }
        }
        out.trials += sched.total_trials();
        out.curves.push(curve);
        out.task_units.resize(sched.allocations.len(), 0);
        for (total, units) in out.task_units.iter_mut().zip(&sched.allocations) {
            *total += units;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(points: &[(u64, f64)], units: &[(usize, u64)], bar: f64) -> Curve {
        Curve {
            name: "t".into(),
            bar_gflops: bar,
            points: points.to_vec(),
            units: units.to_vec(),
        }
    }

    #[test]
    fn bar_is_met_inside_a_unit_and_that_unit_counts() {
        let pts = [(1, 1.0), (2, 5.0), (3, 5.0), (4, 9.0)];
        let units = [(10, 2), (11, 4)];
        let c = curve(&pts, &units, 5.0);
        assert_eq!(c.trials_to_bar(), Some(2));
        assert_eq!(c.units_to_bar(), [10]);
        let c = curve(&pts, &units, 6.0);
        assert_eq!(c.trials_to_bar(), Some(4));
        assert_eq!(c.units_to_bar(), [10, 11]);
        // Never met: the whole budget counts.
        let c = curve(&pts, &units, 10.0);
        assert_eq!(c.trials_to_bar(), None);
        assert_eq!(c.units_to_bar(), [10, 11]);
        assert_eq!(c.mean_gflops(), 5.0);
    }

    #[test]
    fn workload_tables_are_consistent() {
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(workload(w.name).is_some());
            match w.plan {
                Plan::Sessions { jobs, .. } | Plan::Serve { jobs } => {
                    for j in jobs {
                        job_task(j);
                        assert_eq!(j.trials % ROUND_TRIALS, 0);
                    }
                }
                Plan::Network { net, target, .. } => {
                    let (sched, _) = setup_network(net, target, 0);
                    assert_eq!(sched.tasks.len(), 5);
                }
            }
            assert!(w.replicas >= 1);
        }
        assert_eq!(Scale::Quick.trials(1024), 64);
        assert_eq!(Scale::Quick.units(16), 6);
    }

    #[test]
    fn replicas_repeat_the_jobs_with_seeds_of_their_own() {
        let jobs = [
            job("GMM", 0, 1, "intel", 64, 0.0),
            job("NRM", 0, 1, "intel", 64, 0.0),
        ];
        let seeds = Seeds {
            seed: 7,
            replicas: 2,
        };
        let got: Vec<(&str, u64)> = seeds.jobs(&jobs).iter().map(|(d, s)| (d.op, *s)).collect();
        // Replica 0 is `seed + job`, as a single-replica pass has it.
        assert_eq!(got, [("GMM", 7), ("NRM", 8), ("GMM", 1007), ("NRM", 1008)]);
        assert_eq!(Seeds::single(7).jobs(&jobs).len(), 2);
        // The largest seed the command line takes wraps around.
        let last = Seeds {
            seed: u64::MAX,
            replicas: 2,
        };
        assert_eq!(last.of(1, 1), 1000);
    }
}
