//! Task scheduler (§6): allocates tuning time across the subgraphs of one
//! or more DNNs with gradient descent.
//!
//! One *unit* of time resource is one tuning round of one task (a batch of
//! measurement trials, §6: "we define such an iteration as one unit of time
//! resources"). At every step the scheduler picks the task with the largest
//! approximate objective gradient (Appendix A):
//!
//! ```text
//! ∂f/∂tᵢ ≈ ∂f/∂gᵢ · ( α · (gᵢ(tᵢ) − gᵢ(tᵢ−Δt)) / Δt
//!                    + (1−α) · min(−gᵢ/tᵢ, β·Cᵢ/max_{k∈N(i)} Vₖ − gᵢ) )
//! ```
//!
//! where `Cᵢ` is the task's FLOP count, `Vₖ` the FLOP/s achieved by similar
//! tasks `N(i)`, and `α`, `β` trust weights. An ε-greedy rule keeps
//! exploration alive, and a warm-up round-robin initializes `t = (1,…,1)`.

use rand::prelude::*;
use serde::{Deserialize, Serialize};

use hwsim::Measurer;

use crate::cost_model::LearnedCostModel;
use crate::search_policy::{SketchPolicy, TuningOptions};
use crate::search_task::SearchTask;

/// One task plus its weight (number of appearances, `wᵢ`) and owning DNN.
#[derive(Debug, Clone)]
pub struct TuneTask {
    /// The subgraph tuning task.
    pub task: SearchTask,
    /// Number of appearances of the subgraph in its DNN (`wᵢ`).
    pub weight: f64,
    /// Index of the DNN this task belongs to (`S(j)` grouping).
    pub dnn: usize,
}

/// Multi-DNN objective functions (Table 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Objective {
    /// `f₁ = Σⱼ Σᵢ wᵢ·gᵢ` — total latency of all DNNs.
    WeightedSum,
    /// `f₂ = Σⱼ max(Σᵢ wᵢ·gᵢ, Lⱼ)` — stop improving a DNN once it meets its
    /// latency requirement `Lⱼ`.
    LatencyRequirement(Vec<f64>),
    /// `f₃ = −(Πⱼ Bⱼ/Dⱼ)^(1/m)` — maximize the geometric-mean speedup
    /// against reference latencies `Bⱼ`.
    GeoMeanSpeedup(Vec<f64>),
    /// `f₄` — weighted sum with per-task early stopping: a task whose best
    /// latency has not improved for `patience` of its own allocation units
    /// stops receiving resources.
    EarlyStopping {
        /// Units without improvement before a task is frozen.
        patience: usize,
    },
}

impl Objective {
    /// Evaluates the objective given per-DNN latencies `d`.
    pub fn eval(&self, d: &[f64]) -> f64 {
        match self {
            Objective::WeightedSum | Objective::EarlyStopping { .. } => d.iter().sum(),
            Objective::LatencyRequirement(l) => d.iter().zip(l).map(|(&dj, &lj)| dj.max(lj)).sum(),
            Objective::GeoMeanSpeedup(b) => {
                let m = d.len() as f64;
                let prod: f64 = d
                    .iter()
                    .zip(b)
                    .map(|(&dj, &bj)| (bj / dj.max(1e-12)).ln())
                    .sum();
                -((prod / m).exp())
            }
        }
    }
}

/// Allocation strategy (gradient descent vs. the round-robin ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Strategy {
    /// Gradient-based allocation (the paper's scheduler).
    #[default]
    GradientDescent,
    /// Uniform round-robin ("No task scheduler" ablation in Figure 10).
    RoundRobin,
}

/// Trust weight β of the similarity-based prediction (Appendix A).
const BETA: f64 = 2.0;

/// Backward window Δt of the gradient's backward difference (Appendix A).
const BACKWARD_WINDOW: usize = 3;

/// Trust weight α of the backward-difference gradient term (Appendix A).
const ALPHA: f64 = 0.2;

/// Scheduler hyper-parameters (defaults follow the paper).
#[derive(Debug, Clone)]
pub struct TaskSchedulerConfig {
    /// ε-greedy exploration probability.
    pub eps: f64,
    /// Allocation strategy.
    pub strategy: Strategy,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TaskSchedulerConfig {
    fn default() -> Self {
        TaskSchedulerConfig {
            eps: 0.05,
            strategy: Strategy::GradientDescent,
            seed: 0,
        }
    }
}

/// One scheduler history record (for tuning curves like Figure 10).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SchedulerRecord {
    /// Total measurement trials spent so far across all tasks.
    pub total_trials: u64,
    /// Task chosen at this step.
    pub chosen_task: usize,
    /// Per-DNN end-to-end latency estimates after the step.
    pub dnn_latencies: Vec<f64>,
    /// Objective value after the step.
    pub objective: f64,
}

// Manual deserialization: latencies and the objective are `f64::INFINITY`
// until every task in a DNN has a measurement, and JSON encodes non-finite
// floats as `null`; the custom impl recovers the infinities on load so
// checkpointed scheduler histories round-trip exactly (same convention as
// `TuningRecordLog`).
impl Deserialize for SchedulerRecord {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let serde::Value::Object(m) = v else {
            return Err(serde::DeError::invalid_type("object", v));
        };
        let field = |name: &str| m.get(name).unwrap_or(&serde::Value::Null);
        let dec = |v: &serde::Value| match v {
            serde::Value::Null => Ok(f64::INFINITY),
            other => f64::from_value(other),
        };
        let serde::Value::Array(lat) = field("dnn_latencies") else {
            return Err(serde::DeError::invalid_type(
                "array",
                field("dnn_latencies"),
            ));
        };
        Ok(SchedulerRecord {
            total_trials: u64::from_value(field("total_trials"))?,
            chosen_task: usize::from_value(field("chosen_task"))?,
            dnn_latencies: lat.iter().map(dec).collect::<Result<_, _>>()?,
            objective: dec(field("objective"))?,
        })
    }
}

/// Schedules tuning time across many subgraph tasks (Figure 4's top box).
pub struct TaskScheduler {
    /// The tasks under management.
    pub tasks: Vec<TuneTask>,
    policies: Vec<SketchPolicy>,
    /// Shared learned cost model ("a single model is trained for all tensor
    /// programs coming from all DAGs", §5.2).
    pub model: LearnedCostModel,
    objective: Objective,
    cfg: TaskSchedulerConfig,
    /// Units allocated per task (`tᵢ`).
    pub allocations: Vec<u64>,
    /// Tasks whose search space is exhausted (a tuning round produced no
    /// new measurable program); they receive no further units.
    pub exhausted: Vec<bool>,
    /// `gᵢ` after each unit allocated to task i.
    best_history: Vec<Vec<f64>>,
    /// Step-by-step history for curves.
    pub history: Vec<SchedulerRecord>,
    rng: StdRng,
    n_dnns: usize,
    telemetry: telemetry::Telemetry,
    /// Total units this run plans to allocate (set by [`Self::tune`] or
    /// [`Self::set_planned_units`]); powers the live ETA gauge only.
    planned_units: Option<usize>,
}

impl TaskScheduler {
    /// Creates a scheduler; `options` is cloned per task (seeds are varied).
    pub fn new(
        tasks: Vec<TuneTask>,
        objective: Objective,
        options: TuningOptions,
        cfg: TaskSchedulerConfig,
    ) -> TaskScheduler {
        let n_dnns = tasks.iter().map(|t| t.dnn + 1).max().unwrap_or(1);
        let policies = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut o = options.clone();
                o.seed = o.seed.wrapping_add(i as u64 * 7919);
                // The scheduler owns the trial budget; policies are unbounded.
                o.num_measure_trials = usize::MAX / 2;
                SketchPolicy::new(t.task.clone(), o)
            })
            .collect();
        let n = tasks.len();
        let mut model = LearnedCostModel::new();
        model.set_telemetry(options.telemetry.clone());
        TaskScheduler {
            tasks,
            policies,
            model,
            objective,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xA11C),
            cfg,
            allocations: vec![0; n],
            exhausted: vec![false; n],
            best_history: vec![Vec::new(); n],
            history: Vec::new(),
            n_dnns,
            telemetry: options.telemetry.clone(),
            planned_units: None,
        }
    }

    /// Declares how many units the whole run intends to allocate, so the
    /// live `progress/scheduler/eta_seconds` gauge can extrapolate. Called
    /// automatically by [`Self::tune`]; drivers that loop over
    /// [`Self::step`] themselves can set it explicitly.
    pub fn set_planned_units(&mut self, total_units: usize) {
        self.planned_units = Some(total_units);
    }

    /// Per-task best latencies `gᵢ` — the recorded history when available
    /// (it tracks the policies exactly), else the live policy value.
    pub fn best_latencies(&self) -> Vec<f64> {
        self.policies
            .iter()
            .zip(&self.best_history)
            .map(|(p, h)| h.last().copied().unwrap_or_else(|| p.best_seconds()))
            .collect()
    }

    /// Per-DNN end-to-end latency estimates `Dⱼ = Σᵢ wᵢ·gᵢ`.
    pub fn dnn_latencies(&self) -> Vec<f64> {
        let g = self.best_latencies();
        let mut d = vec![0.0; self.n_dnns];
        for (t, &gi) in self.tasks.iter().zip(&g) {
            d[t.dnn] += t.weight * gi;
        }
        d
    }

    /// Total measurement trials across tasks.
    pub fn total_trials(&self) -> u64 {
        self.policies.iter().map(|p| p.trials()).sum()
    }

    /// Best individual found for task `i`.
    pub fn best_individual(&self, i: usize) -> Option<&crate::evolution::Individual> {
        self.policies[i].best_individual()
    }

    /// ∂f/∂gᵢ via the chain rule through the task's DNN latency (analytic
    /// derivatives of the Table 2 objectives).
    fn dfdg(&self, i: usize, d: &[f64]) -> f64 {
        let j = self.tasks[i].dnn;
        let dfd_dj = match &self.objective {
            Objective::WeightedSum | Objective::EarlyStopping { .. } => 1.0,
            Objective::LatencyRequirement(l) => {
                if d[j] > l[j] {
                    1.0
                } else {
                    0.0 // requirement met: no gain from tuning further
                }
            }
            Objective::GeoMeanSpeedup(_) => {
                // f₃ = −(Πⱼ Bⱼ/Dⱼ)^(1/m) ⇒ ∂f₃/∂Dⱼ = |f₃| / (m·Dⱼ).
                let f3 = self.objective.eval(d);
                f3.abs() / (d.len() as f64 * d[j].max(1e-12))
            }
        };
        dfd_dj * self.tasks[i].weight
    }

    /// The raw gradient decomposition `(backward, optimistic, similarity,
    /// combined)`; special cases (untouched / frozen task) are encoded in
    /// the combined value exactly as [`TaskScheduler::gradient`] reports it.
    fn gradient_raw(&self, i: usize) -> (f64, f64, f64, f64) {
        let g = self.best_latencies();
        let gi = g[i];
        if !gi.is_finite() {
            // Never-touched task: maximal urgency; no terms to decompose.
            return (f64::NAN, f64::NAN, f64::NAN, f64::INFINITY);
        }
        let ti = self.allocations[i].max(1) as f64;
        // f4: freeze stagnant tasks.
        if let Objective::EarlyStopping { patience } = &self.objective {
            let h = &self.best_history[i];
            if h.len() > *patience {
                let recent = &h[h.len() - patience..];
                let before = h[h.len() - patience - 1];
                if recent.iter().all(|&v| v >= before * 0.999) {
                    return (f64::NAN, f64::NAN, f64::NAN, 0.0);
                }
            }
        }
        let d = self.dnn_latencies();
        let dfdg = self.dfdg(i, &d);
        // Backward difference over the window Δt.
        let hist = &self.best_history[i];
        let dt = BACKWARD_WINDOW.min(hist.len().saturating_sub(1));
        let backward = if dt > 0 {
            (hist[hist.len() - 1] - hist[hist.len() - 1 - dt]) / dt as f64
        } else {
            0.0
        };
        // Optimistic guess: the latency could drop to 0 with tᵢ more units.
        let optimistic = -gi / ti;
        // Similarity-based guess: similar tasks' achieved FLOP/s bound what
        // this task could reach.
        let ci = self.tasks[i].task.flop_count();
        let mut max_v = 0.0f64;
        for (k, t) in self.tasks.iter().enumerate() {
            if k != i && t.task.tag == self.tasks[i].task.tag && g[k].is_finite() {
                max_v = max_v.max(t.task.flop_count() / g[k]);
            }
        }
        let similarity = if max_v > 0.0 {
            BETA * ci / max_v - gi
        } else {
            f64::INFINITY
        };
        let forward = optimistic.min(similarity);
        let combined = dfdg * (ALPHA * backward + (1.0 - ALPHA) * forward);
        (backward, optimistic, similarity, combined)
    }

    /// The approximate gradient |∂f/∂tᵢ| used to choose the next task.
    pub fn gradient(&self, i: usize) -> f64 {
        self.gradient_raw(i).3
    }

    /// The gradient decomposition for task `i` (Appendix A's three terms
    /// plus the combined value), with unbounded terms mapped to `None`.
    pub fn gradient_terms(&self, i: usize) -> telemetry::GradientTerms {
        let (backward, optimistic, similarity, combined) = self.gradient_raw(i);
        telemetry::GradientTerms::from_raw(backward, optimistic, similarity, combined)
    }

    /// Chooses the next task to allocate a unit to, skipping exhausted
    /// tasks. Returns `None` when every task is exhausted.
    fn choose(&mut self) -> Option<usize> {
        let live: Vec<usize> = (0..self.tasks.len())
            .filter(|&i| !self.exhausted[i])
            .collect();
        if live.is_empty() {
            return None;
        }
        // Warm-up: round-robin until every live task has one unit.
        if let Some(&i) = live.iter().find(|&&i| self.allocations[i] == 0) {
            return Some(i);
        }
        if self.cfg.strategy == Strategy::RoundRobin {
            let total: u64 = self.allocations.iter().sum();
            return Some(live[(total % live.len() as u64) as usize]);
        }
        if self.rng.gen_bool(self.cfg.eps) {
            return Some(live[self.rng.gen_range(0..live.len())]);
        }
        let mut best = live[0];
        let mut best_grad = f64::NEG_INFINITY;
        for &i in &live {
            let gr = self.gradient(i).abs();
            if gr > best_grad {
                best_grad = gr;
                best = i;
            }
        }
        Some(best)
    }

    /// Runs one scheduling step (one unit = one tuning round of one task).
    /// A task whose round measures nothing new is marked exhausted and the
    /// unit is retried on another task. Returns the chosen task, or `None`
    /// when no task can make progress.
    pub fn step(&mut self, measurer: &mut Measurer) -> Option<usize> {
        loop {
            let i = self.choose()?;
            // Decision-time gradient decomposition, for the trace.
            let terms = if self.telemetry.is_tracing() {
                Some(self.gradient_terms(i))
            } else {
                None
            };
            let measured = self.policies[i].tune_round(&mut self.model, measurer);
            if measured == 0 {
                self.exhausted[i] = true;
                continue;
            }
            self.allocations[i] += 1;
            self.best_history[i].push(self.policies[i].best_seconds());
            let d = self.dnn_latencies();
            self.history.push(SchedulerRecord {
                total_trials: self.total_trials(),
                chosen_task: i,
                objective: self.objective.eval(&d),
                dnn_latencies: d,
            });
            if let Some(terms) = terms {
                let step = self.history.len() as u64 - 1;
                let obj = self.history.last().expect("just pushed").objective;
                let task = self.tasks[i].task.name.clone();
                self.telemetry
                    .emit(|| telemetry::TraceEvent::SchedulerStep {
                        step,
                        task,
                        gradient_terms: terms,
                        objective: obj.is_finite().then_some(obj),
                    });
            }
            if self.telemetry.is_enabled() {
                self.publish_progress();
            }
            return Some(i);
        }
    }

    /// Publish the live `progress/scheduler/…` gauges: units allocated,
    /// total trials, current objective, and (when the planned unit count
    /// is known) a wall-clock ETA from the unit rate. Gauges never enter
    /// the trace event stream, so they cannot perturb determinism.
    fn publish_progress(&self) {
        let tel = &self.telemetry;
        let done = self.history.len();
        tel.gauge_set("progress/scheduler/units_done", done as f64);
        tel.gauge_set(
            "progress/scheduler/total_trials",
            self.total_trials() as f64,
        );
        if let Some(r) = self.history.last() {
            if r.objective.is_finite() {
                tel.gauge_set("progress/scheduler/objective", r.objective);
            }
        }
        if let Some(budget) = self.planned_units {
            tel.gauge_set("progress/scheduler/units_budget", budget as f64);
            let elapsed = tel.uptime_seconds();
            if done > 0 && elapsed > 0.0 {
                let rate = done as f64 / elapsed;
                tel.gauge_set(
                    "progress/scheduler/eta_seconds",
                    budget.saturating_sub(done) as f64 / rate,
                );
            }
        }
    }

    /// Runs until `total_units` units have been allocated.
    pub fn tune(&mut self, total_units: usize, measurer: &mut Measurer) {
        // Budget for the ETA gauge: what's already done plus this call's
        // allotment (resumed runs pass the remaining units).
        self.planned_units = Some(self.history.len() + total_units);
        for _ in 0..total_units {
            if self.step(measurer).is_none() {
                break;
            }
        }
    }

    /// Emits a `TuningFinished` trace event per task. Call once when the
    /// schedule is complete; a no-op without an installed trace sink.
    pub fn finish(&self) {
        for policy in &self.policies {
            policy.emit_finished();
        }
    }

    /// Serializes the scheduler's full state (allocator + every per-task
    /// policy + the shared cost model). Restoring into a fresh scheduler
    /// built with the same tasks, objective, options, and config continues
    /// the run bit-identically.
    pub fn checkpoint(&self) -> crate::checkpoint::SchedulerCheckpoint {
        crate::checkpoint::SchedulerCheckpoint {
            rng: self.rng.raw_state().to_vec(),
            allocations: self.allocations.clone(),
            exhausted: self.exhausted.clone(),
            best_history: self
                .best_history
                .iter()
                .map(|h| h.iter().map(|s| s.is_finite().then_some(*s)).collect())
                .collect(),
            history: self.history.clone(),
            policies: self.policies.iter().map(|p| p.checkpoint()).collect(),
            model: self.model.checkpoint(),
        }
    }

    /// Restores the state captured by [`TaskScheduler::checkpoint`]. The
    /// shared model gets its records back and trains on the next step's
    /// first read, as it would have in the run that was checkpointed.
    pub fn restore(&mut self, ck: &crate::checkpoint::SchedulerCheckpoint) -> Result<(), String> {
        let n = self.tasks.len();
        if ck.policies.len() != n
            || ck.allocations.len() != n
            || ck.exhausted.len() != n
            || ck.best_history.len() != n
        {
            return Err(format!(
                "checkpoint covers {} tasks, scheduler has {n}",
                ck.policies.len()
            ));
        }
        for (policy, pc) in self.policies.iter_mut().zip(&ck.policies) {
            policy.restore(pc)?;
        }
        self.model.restore(&ck.model, &self.policies)?;
        self.rng = StdRng::from_raw_state(crate::checkpoint::rng_state_from(&ck.rng)?);
        self.allocations = ck.allocations.clone();
        self.exhausted = ck.exhausted.clone();
        self.best_history = ck
            .best_history
            .iter()
            .map(|h| h.iter().map(|s| s.unwrap_or(f64::INFINITY)).collect())
            .collect();
        self.history = ck.history.clone();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolution::EvolutionConfig;
    use hwsim::HardwareTarget;
    use std::sync::Arc;
    use tensor_ir::{DagBuilder, Expr, Reducer};

    fn mm_task(name: &str, n: i64) -> SearchTask {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[n, n]);
        let w = b.constant("B", &[n, n]);
        b.compute_reduce("C", &[n, n], &[n], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
                * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
        });
        SearchTask::new(
            format!("matmul:{name}"),
            Arc::new(b.build().unwrap()),
            HardwareTarget::intel_20core(),
        )
    }

    fn small_options() -> TuningOptions {
        TuningOptions {
            measures_per_round: 8,
            init_population: 12,
            evolution: EvolutionConfig {
                population: 12,
                generations: 1,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn objectives_match_table2() {
        let d = vec![2.0, 4.0];
        assert_eq!(Objective::WeightedSum.eval(&d), 6.0);
        assert_eq!(
            Objective::LatencyRequirement(vec![3.0, 3.0]).eval(&d),
            3.0 + 4.0
        );
        // Geo-mean speedup of (4/2, 4/4) = sqrt(2): f3 = -sqrt(2).
        let f3 = Objective::GeoMeanSpeedup(vec![4.0, 4.0]).eval(&d);
        assert!((f3 + 2.0f64.sqrt()).abs() < 1e-9);
        assert_eq!(Objective::EarlyStopping { patience: 3 }.eval(&d), 6.0);
    }

    #[test]
    fn warmup_touches_every_task_once() {
        let tasks = vec![
            TuneTask {
                task: mm_task("a", 64),
                weight: 1.0,
                dnn: 0,
            },
            TuneTask {
                task: mm_task("b", 128),
                weight: 2.0,
                dnn: 0,
            },
        ];
        let mut sched = TaskScheduler::new(
            tasks,
            Objective::WeightedSum,
            small_options(),
            TaskSchedulerConfig::default(),
        );
        let mut measurer = Measurer::new(HardwareTarget::intel_20core());
        sched.tune(2, &mut measurer);
        assert_eq!(sched.allocations, vec![1, 1]);
        assert!(sched.dnn_latencies()[0].is_finite());
    }

    #[test]
    fn gradient_prioritizes_heavier_bottleneck() {
        // Two identical-shape tasks; one has 8x the weight. After warm-up
        // the weighted task must receive more units.
        let tasks = vec![
            TuneTask {
                task: mm_task("light", 128),
                weight: 1.0,
                dnn: 0,
            },
            TuneTask {
                task: mm_task("heavy", 128),
                weight: 8.0,
                dnn: 0,
            },
        ];
        let mut sched = TaskScheduler::new(
            tasks,
            Objective::WeightedSum,
            small_options(),
            TaskSchedulerConfig {
                eps: 0.0,
                ..Default::default()
            },
        );
        let mut measurer = Measurer::new(HardwareTarget::intel_20core());
        sched.tune(10, &mut measurer);
        assert!(
            sched.allocations[1] > sched.allocations[0],
            "allocations {:?}",
            sched.allocations
        );
    }

    #[test]
    fn latency_requirement_freezes_satisfied_dnn() {
        let tasks = vec![
            TuneTask {
                task: mm_task("a", 128),
                weight: 1.0,
                dnn: 0,
            },
            TuneTask {
                task: mm_task("b", 128),
                weight: 1.0,
                dnn: 1,
            },
        ];
        // DNN 0's requirement is trivially met (huge L); DNN 1 can never
        // meet its (tiny) requirement, so it should receive the units.
        let mut sched = TaskScheduler::new(
            tasks,
            Objective::LatencyRequirement(vec![1e9, 1e-12]),
            small_options(),
            TaskSchedulerConfig {
                eps: 0.0,
                ..Default::default()
            },
        );
        let mut measurer = Measurer::new(HardwareTarget::intel_20core());
        sched.tune(8, &mut measurer);
        assert!(
            sched.allocations[1] >= sched.allocations[0] + 4,
            "allocations {:?}",
            sched.allocations
        );
    }

    #[test]
    fn f4_freezes_a_fabricated_stagnant_task() {
        let tasks = vec![
            TuneTask {
                task: mm_task("stale", 128),
                weight: 1.0,
                dnn: 0,
            },
            TuneTask {
                task: mm_task("fresh", 128),
                weight: 1.0,
                dnn: 0,
            },
        ];
        let mut sched = TaskScheduler::new(
            tasks,
            Objective::EarlyStopping { patience: 3 },
            small_options(),
            TaskSchedulerConfig::default(),
        );
        // Fabricate histories: task 0 plateaued for > patience units; task 1
        // is still improving.
        sched.allocations = vec![6, 6];
        sched.best_history[0] = vec![1e-3, 1e-3, 1e-3, 1e-3, 1e-3, 1e-3];
        sched.best_history[1] = vec![1e-3, 9e-4, 8e-4, 7e-4, 6e-4, 5e-4];
        assert_eq!(sched.gradient(0), 0.0, "stagnant task must be frozen");
        assert!(sched.gradient(1).abs() > 0.0);
    }

    #[test]
    fn round_robin_allocates_uniformly() {
        let tasks = vec![
            TuneTask {
                task: mm_task("a", 64),
                weight: 1.0,
                dnn: 0,
            },
            TuneTask {
                task: mm_task("b", 128),
                weight: 50.0,
                dnn: 0,
            },
        ];
        let mut sched = TaskScheduler::new(
            tasks,
            Objective::WeightedSum,
            small_options(),
            TaskSchedulerConfig {
                strategy: Strategy::RoundRobin,
                ..Default::default()
            },
        );
        let mut measurer = Measurer::new(HardwareTarget::intel_20core());
        sched.tune(8, &mut measurer);
        assert_eq!(sched.allocations, vec![4, 4]);
    }

    #[test]
    fn restore_rejects_a_sketch_index_past_the_list() {
        let scheduler = || {
            let tasks = vec![TuneTask {
                task: mm_task("solo", 64),
                weight: 1.0,
                dnn: 0,
            }];
            let config = TaskSchedulerConfig::default();
            TaskScheduler::new(tasks, Objective::WeightedSum, small_options(), config)
        };
        let mut sched = scheduler();
        sched.tune(1, &mut Measurer::new(HardwareTarget::intel_20core()));
        let n = sched.policies[0].sketches().len();
        let mut ck = sched.checkpoint();
        ck.policies[0].best_measured[0].sketch = n;
        let err = scheduler().restore(&ck).unwrap_err();
        assert!(
            err.contains(&format!("sketch {n}, the task has {n}")),
            "{err}"
        );
    }

    #[test]
    fn history_tracks_monotone_objective_for_weighted_sum() {
        let tasks = vec![TuneTask {
            task: mm_task("solo", 128),
            weight: 1.0,
            dnn: 0,
        }];
        let mut sched = TaskScheduler::new(
            tasks,
            Objective::WeightedSum,
            small_options(),
            TaskSchedulerConfig::default(),
        );
        let mut measurer = Measurer::new(HardwareTarget::intel_20core());
        sched.tune(5, &mut measurer);
        let objs: Vec<f64> = sched.history.iter().map(|r| r.objective).collect();
        for w in objs.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "objective increased: {objs:?}");
        }
    }
}
