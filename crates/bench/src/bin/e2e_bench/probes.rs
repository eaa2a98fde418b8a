//! Layer probes: direct calls into each layer on inputs harvested from a
//! real tuning job, each repeated with calibration like any unit and
//! reported per call with its exact allocation count.
//!
//! The harvest is one 1024-trial session of the workload's *probe job*
//! (its first job; for the network workload the single-operator case with
//! the DAG of the network's first convolution): the measured programs
//! replayed from its record log, and the best of them as a population.

use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;

use ansor_core::{
    evolutionary_search_with_stats, generate_sketches, sample_program, single_fingerprint,
    AnnotationConfig, CostModel, EvolutionConfig, Individual, LearnedCostModel, Objective,
    PolicyVariant, RandomModel, SearchTask, SketchPolicy, TaskScheduler, TaskSchedulerConfig,
    TuneCheckpoint, TuneTask, TuningOptions, TuningSession,
};
use ansor_features::{extract_state_matrix, FeatureMatrix, FEATURE_DIM};
use ansor_serve::proto::{decode_response, encode, CacheDeltas, JobCounters, JobResult, Response};
use ansor_serve::WarmStore;
use gbdt::{Gbdt, GbdtParams, Matrix, TreeParams};
use hwsim::Measurer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor_ir::{lower, State};

use crate::alloc::{counted, AllocCount};
use crate::clock::{timed, Calibrator, CALIB_REF_NS};
use crate::metrics::Values;
use crate::serve::spec;
use crate::stats::median;
use crate::workloads::{
    canary_task, job_task, session_parts, JobDef, Recorder, Scale, UnitSample, ROUND_TRIALS,
};

/// Trial budget of the harvest job.
const HARVEST_TRIALS: usize = 1024;
/// Repetitions of each probe (a calibration sample precedes each).
const REPS: usize = 3;
/// Programs per repetition of the per-program probes.
const BATCH: usize = 256;

/// What the probes run on.
pub struct Harvest {
    /// The probe job's definition.
    pub def: JobDef,
    /// Its search seed.
    pub seed: u64,
    /// The finished session (checkpoint and restore probes).
    pub session: TuningSession,
    /// Its rounds, each recorded like a unit of a pass.
    pub rounds: Vec<UnitSample>,
    /// Validly measured programs, replayed from the record log, with
    /// their measured seconds, in trial order.
    pub measured: Vec<(State, f64)>,
}

impl Harvest {
    /// Runs the probe job and replays its log.
    pub fn collect(def: JobDef, seed: u64, variant: PolicyVariant, scale: Scale) -> Harvest {
        let fp = single_fingerprint(def.op, def.shape, def.batch, def.target, "none", seed);
        let (task, options, measurer) =
            session_parts(job_task(&def), scale.trials(HARVEST_TRIALS), seed, variant);
        let mut session = TuningSession::new(task, options, measurer, fp);
        let mut calib = Calibrator::default();
        let mut rec = Recorder::new(&mut calib);
        for _ in 0..scale.trials(HARVEST_TRIALS).div_ceil(ROUND_TRIALS) {
            rec.unit(|| session.step());
        }
        let rounds = rec.units;
        let dag = session.task().dag.clone();
        let measured = session
            .log()
            .iter()
            .filter(|r| r.is_valid())
            .filter_map(|r| Some((r.replay(dag.clone()).ok()?, r.seconds)))
            .collect();
        Harvest {
            def,
            seed,
            session,
            rounds,
            measured,
        }
    }

    fn task(&self) -> &SearchTask {
        self.session.task()
    }

    /// The first [`BATCH`] measured programs.
    fn batch(&self) -> Vec<State> {
        self.measured
            .iter()
            .take(BATCH)
            .map(|(s, _)| s.clone())
            .collect()
    }
}

/// Times probes on the calibrated clock and collects their values.
pub struct Prober<'v> {
    calib: Calibrator,
    values: &'v mut Values,
    /// `(metric, raw CPU ns per call, ns per printed unit)`; scaled once
    /// every calibration sample of the probing phase is in.
    pending: Vec<(&'static str, f64, f64)>,
}

const NS: f64 = 1.0;
const US: f64 = 1e3;
const MS: f64 = 1e6;

impl<'v> Prober<'v> {
    /// A prober writing into `values`.
    pub fn new(values: &'v mut Values) -> Prober<'v> {
        Prober {
            calib: Calibrator::default(),
            values,
            pending: Vec::new(),
        }
    }

    /// Runs `f` [`REPS`] times (`calls` calls into the layer each) and
    /// records the median time per call under `time_metric`. Returns the
    /// allocations per call of the first repetition and its result.
    fn time<R>(
        &mut self,
        time_metric: &'static str,
        per_unit_ns: f64,
        calls: usize,
        f: impl FnMut() -> R,
    ) -> (f64, R) {
        self.time_sized(time_metric, per_unit_ns, |_| calls, f)
    }

    /// [`Prober::time`] for a probe that only knows how many calls it
    /// made once it has run: `calls` reads the count off the first result.
    fn time_sized<R>(
        &mut self,
        time_metric: &'static str,
        per_unit_ns: f64,
        calls: impl FnOnce(&R) -> usize,
        mut f: impl FnMut() -> R,
    ) -> (f64, R) {
        let mut raw = Vec::with_capacity(REPS);
        let mut first = None;
        for _ in 0..REPS {
            self.calib.sample();
            let (allocs, (ns, out)) = counted(|| timed(&mut f));
            raw.push(ns as f64);
            first.get_or_insert((allocs, out));
        }
        let (allocs, out): (AllocCount, R) = first.expect("REPS is positive");
        let calls = calls(&out).max(1) as f64;
        self.pending
            .push((time_metric, median(&raw) / calls, per_unit_ns));
        (allocs.calls as f64 / calls, out)
    }

    /// Scales and stores every pending timing; returns the probing
    /// phase's calibrator (for the harness rows).
    pub fn finish(self) -> Calibrator {
        let scale = self.calib.scale();
        for (name, raw_ns, per_unit_ns) in self.pending {
            self.values.set(name, raw_ns * scale / per_unit_ns);
        }
        self.calib
    }

    /// `tensor_ir`: replay, clone, signature, lower.
    pub fn tensor_ir(&mut self, h: &Harvest) {
        let dag = h.task().dag.clone();
        let steps: Vec<_> = h.batch().into_iter().map(|s| s.steps).collect();
        let n = steps.len();
        let (allocs, states) = self.time("tensor_ir.replay_us", US, n, || {
            steps
                .iter()
                .map(|s| State::replay(dag.clone(), s).expect("a measured program replays"))
                .collect::<Vec<_>>()
        });
        self.values.set("tensor_ir.replay_allocs", allocs);
        let (allocs, _) = self.time("tensor_ir.clone_ns", NS, n, || {
            states.iter().for_each(|s| {
                black_box(s.clone());
            })
        });
        self.values.set("tensor_ir.clone_allocs", allocs);
        let (allocs, _) = self.time("tensor_ir.signature_ns", NS, n, || {
            states.iter().fold(0u64, |a, s| a ^ s.signature())
        });
        self.values.set("tensor_ir.signature_allocs", allocs);
        let (allocs, stores) = self.time("tensor_ir.lower_us", US, n, || {
            states
                .iter()
                .map(|s| lower(s).expect("a measured program lowers").num_stores())
                .sum::<usize>()
        });
        self.values.set("tensor_ir.lower_allocs", allocs);
        self.values.set(
            "tensor_ir.stores_per_program",
            stores as f64 / n.max(1) as f64,
        );
    }

    /// `features`: featurization of a program, lowering included (the
    /// cost model's entry point).
    pub fn features(&mut self, h: &Harvest) {
        let states = h.batch();
        let n = states.len();
        let (allocs, rows) = self.time("features.extract_us", US, n, || {
            states
                .iter()
                .map(|s| extract_state_matrix(s).map_or(0, |m| m.n_rows()))
                .sum::<usize>()
        });
        self.values.set("features.extract_allocs", allocs);
        self.values
            .set("features.rows_per_program", rows as f64 / n.max(1) as f64);
    }

    /// `gbdt`: training on the packed rows of every harvested record, and
    /// prediction over the same rows.
    pub fn gbdt(&mut self, h: &Harvest) {
        // The cost model's own hyper-parameters (`LearnedCostModel::new`
        // keeps them private), and its labels: throughput relative to the
        // task's best, split evenly over a program's rows and weighted by
        // itself.
        let params = GbdtParams {
            n_trees: 25,
            learning_rate: 0.25,
            colsample: 0.4,
            tree: TreeParams {
                max_depth: 6,
                min_child_weight: 1e-4,
                min_gain: 1e-12,
                feature_subset: vec![],
            },
            ..Default::default()
        };
        let best = h.measured.iter().map(|m| m.1).fold(f64::INFINITY, f64::min);
        let mut x = FeatureMatrix::new(FEATURE_DIM);
        let (mut y, mut w) = (Vec::new(), Vec::new());
        for (state, seconds) in &h.measured {
            let Ok(rows) = extract_state_matrix(state) else {
                continue;
            };
            if rows.n_rows() == 0 {
                continue;
            }
            let label = (best / seconds) as f32;
            x.push_packed_segment(rows.data());
            y.resize(y.len() + rows.n_rows(), label / rows.n_rows() as f32);
            w.resize(w.len() + rows.n_rows(), label.max(1e-3));
        }
        let tel = telemetry::Telemetry::disabled();
        let view = || Matrix::new(x.data(), FEATURE_DIM);
        let (allocs, model) = self.time("gbdt.train_ms_1k", MS, 1, || {
            Gbdt::train_matrix(view(), &y, &w, &params, &tel)
        });
        self.values.set("gbdt.train_allocs", allocs);
        self.values.set("gbdt.trees", model.num_trees() as f64);
        self.time("gbdt.predict_ns_per_row", NS, x.n_rows(), || {
            model.predict_matrix(view()).len()
        });
    }

    /// `hwsim`: measuring a batch cold, then again from the result cache.
    pub fn hwsim(&mut self, h: &Harvest) {
        let states = h.batch();
        let n = states.len();
        let target = h.task().target.clone();
        let (allocs, valid) = self.time("hwsim.measure_us", US, n, || {
            Measurer::new(target.clone())
                .measure_batch(&states)
                .iter()
                .filter(|r| r.is_valid())
                .count()
        });
        self.values.set("hwsim.measure_allocs", allocs);
        self.values
            .set("hwsim.valid_share", valid as f64 / n.max(1) as f64);
        let mut warm = Measurer::new(target);
        warm.measure_batch(&states);
        self.time("hwsim.measure_cached_us", US, n, || {
            warm.measure_batch(&states).len()
        });
    }

    /// `core.sketch`, `core.annotate`, `core.search_policy.new_us`: the
    /// program sampler.
    pub fn sampler(&mut self, h: &Harvest) {
        let task = h.task().clone();
        let (_, sketches) = self.time("core.sketch.generate_us", US, 1, || {
            generate_sketches(&task)
        });
        self.values
            .set("core.sketch.sketches_per_task", sketches.len() as f64);
        let cfg = AnnotationConfig::default();
        let (allocs, valid) = self.time("core.annotate.sample_us", US, BATCH, || {
            let mut rng = StdRng::seed_from_u64(h.seed);
            (0..BATCH)
                .filter(|i| {
                    sample_program(&sketches[i % sketches.len()], &task, &cfg, &mut rng).is_some()
                })
                .count()
        });
        self.values.set("core.annotate.sample_allocs", allocs);
        self.values
            .set("core.annotate.valid_share", valid as f64 / BATCH as f64);
        let (_, options, _) = session_parts(task.clone(), ROUND_TRIALS, h.seed, Default::default());
        self.time("core.search_policy.new_us", US, 1, || {
            SketchPolicy::new(task.clone(), options.clone())
        });
    }

    /// `core.evolution`: one evolutionary search under a random model —
    /// produce, mutate, crossover and dedup with the cost model priced out.
    pub fn evolution(&mut self, h: &Harvest) {
        let task = h.task().clone();
        let sketches = generate_sketches(&task);
        let cfg = EvolutionConfig::default();
        let mut by_time: Vec<&(State, f64)> = h.measured.iter().collect();
        by_time.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("valid records have finite times")
        });
        let init: Vec<Individual> = by_time
            .iter()
            .take(cfg.population)
            .map(|(s, _)| Individual::new(s.clone(), 0))
            .collect();
        if init.is_empty() {
            return;
        }
        let model = RandomModel::new(h.seed);
        let banned = HashSet::new();
        // Returns (distinct individuals found, offspring produced).
        let search = || {
            let mut rng = StdRng::seed_from_u64(h.seed);
            // `top_k` above anything the search can produce: every
            // distinct individual it saw comes back.
            let (found, stats) = evolutionary_search_with_stats(
                &task,
                &sketches,
                init.clone(),
                &model,
                &cfg,
                1 << 20,
                &banned,
                h.seed,
                &mut rng,
            );
            (
                found.len(),
                (stats.mutations_applied + stats.crossovers_applied) as usize,
            )
        };
        let (allocs, (distinct, offspring)) =
            self.time_sized("core.evolution.offspring_us", US, |r| r.1, search);
        self.values.set("core.evolution.offspring_allocs", allocs);
        self.values.set(
            "core.evolution.unique_share",
            distinct as f64 / (init.len() + offspring).max(1) as f64,
        );
    }

    /// `core.cost_model`: scoring unseen programs, scoring them again
    /// (score-cache hits), and the update that takes the model from its
    /// first 960 harvested records to all 1024.
    pub fn cost_model(&mut self, h: &Harvest) {
        let task = h.task().clone();
        let (states, seconds): (Vec<State>, Vec<f64>) = h.measured.iter().cloned().unzip();
        let split = states.len().saturating_sub(ROUND_TRIALS);
        let primed = || {
            let mut m = LearnedCostModel::new();
            m.update(&task, &states[..split], &seconds[..split]);
            m
        };
        let (tail, tail_seconds) = (&states[split..], &seconds[split..]);
        let (mut cold, mut hot, mut update) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..REPS {
            // A model that has never seen the tail: nothing about it is
            // cached, so the first scoring is cold and the second is hot.
            let mut m = primed();
            self.calib.sample();
            cold.push(timed(|| m.predict(&task, tail)).0 as f64);
            self.calib.sample();
            hot.push(timed(|| m.predict(&task, tail)).0 as f64);
            self.calib.sample();
            update.push(timed(|| m.update(&task, tail, tail_seconds)).0 as f64);
        }
        let n = tail.len().max(1) as f64;
        self.pending
            .push(("core.cost_model.predict_us_cold", median(&cold) / n, US));
        self.pending
            .push(("core.cost_model.predict_us_hot", median(&hot) / n, US));
        self.pending
            .push(("core.cost_model.update_ms_at_1k", median(&update), MS));
    }

    /// `core.session`: the harvest session itself — one 1024-trial job of
    /// the probe case, timed once (for `tune_mix` the ROADMAP's headline
    /// case, whose cost per trial depends on which of two sketch families
    /// the seed settles in: README.md, "Sizing") — and checkpoint (state →
    /// JSON) and restore (JSON → a fresh session) of it.
    pub fn session(&mut self, h: &Harvest, variant: PolicyVariant) {
        let trials = h.session.trials().max(1) as f64;
        let ncpu_s = h.rounds.iter().map(|u| u.ratio()).sum::<f64>() * CALIB_REF_NS / 1e9;
        let allocs: u64 = h.rounds.iter().map(|u| u.allocs.calls).sum();
        self.values
            .set("core.session.probe_trials_per_ncpu_s", trials / ncpu_s);
        self.values.set(
            "core.session.probe_allocs_per_trial",
            allocs as f64 / trials,
        );
        self.values.set(
            "core.session.probe_best_gflops",
            h.task().flop_count() / h.session.best_seconds() / 1e9,
        );
        let (_, json) = self.time("core.session.checkpoint_ms", MS, 1, || {
            serde_json::to_string(&h.session.checkpoint()).expect("checkpoints serialize")
        });
        self.time("core.session.restore_ms", MS, 1, || {
            let ck: TuneCheckpoint = serde_json::from_str(&json).expect("a checkpoint parses");
            let (task, options, measurer) = session_parts(
                h.session.task().clone(),
                h.session.trials() as usize,
                h.seed,
                variant,
            );
            let mut fresh = TuningSession::new(task, options, measurer, h.session.fingerprint());
            fresh
                .restore(&ck)
                .expect("a session restores its own checkpoint");
            fresh.trials()
        });
    }

    /// `serve.proto` and `serve.store`: a result on the wire, and the
    /// harvest's record log through absorb → save → open.
    pub fn serve_data(&mut self, h: &Harvest, dir: &Path) {
        let best = h.session.best_seconds();
        let result = JobResult {
            job: "job-1".into(),
            task: h.task().name.clone(),
            state: "done".into(),
            trials: h.session.trials(),
            best_seconds: Some(best),
            best_gflops: Some(h.task().flop_count() / best / 1e9),
            best_signature: h.session.best_individual().map(|i| i.state.signature()),
            log_records: h.session.log().len() as u64,
            log_fingerprint: ansor_core::log_fingerprint(h.session.log()),
            warm: CacheDeltas::default(),
            wall_ms: 1.0,
            queue_wait_ms: 1.0,
            counters: JobCounters::default(),
            error: None,
        };
        let mut response = Response::success(1);
        response.result = Some(result);
        const WIRE_BATCH: usize = 200;
        let line = encode(&response);
        self.values
            .set("serve.proto.result_bytes", line.len() as f64);
        self.time("serve.proto.encode_result_us", US, WIRE_BATCH, || {
            (0..WIRE_BATCH)
                .map(|_| encode(&response).len())
                .sum::<usize>()
        });
        self.time("serve.proto.decode_result_us", US, WIRE_BATCH, || {
            (0..WIRE_BATCH)
                .filter(|_| decode_response(&line).is_ok())
                .count()
        });

        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("the scratch directory is writable");
        let path = dir.join("probe-store.json");
        let job_spec = spec(&h.def, h.seed, Scale::Full);
        let log = h.session.log();
        self.time("serve.store.absorb_ms", MS, 1, || {
            WarmStore::in_memory().absorb(&job_spec, "none", log)
        });
        let (store, _) = WarmStore::open(&path).expect("a missing store file is an empty store");
        store.absorb(&job_spec, "none", log);
        self.time("serve.store.save_ms", MS, 1, || {
            store.save().expect("the scratch store saves")
        });
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        self.values.set("serve.store.file_kb", bytes as f64 / 1e3);
        self.time("serve.store.open_ms", MS, 1, || {
            WarmStore::open(&path)
                .expect("a saved store opens")
                .1
                .primed
        });
        let _ = std::fs::remove_dir_all(dir);
    }

    /// `core.task_scheduler`: a scheduler over the probe task and the
    /// canary matmul, stepped a few times — for workloads that schedule
    /// nothing themselves.
    pub fn scheduler(&mut self, h: &Harvest) {
        const STEPS: usize = 4;
        let target = h.task().target.clone();
        let tasks = [h.task().clone(), canary_task()]
            .into_iter()
            .map(|t| TuneTask {
                task: SearchTask::new(t.name, t.dag, target.clone()),
                weight: 1.0,
                dnn: 0,
            })
            .collect();
        let mut sched = TaskScheduler::new(
            tasks,
            Objective::WeightedSum,
            TuningOptions {
                seed: h.seed,
                ..Default::default()
            },
            TaskSchedulerConfig {
                seed: h.seed,
                ..Default::default()
            },
        );
        let mut measurer = Measurer::new(target);
        let (mut raw, mut allocs) = (Vec::new(), 0);
        for _ in 0..STEPS {
            self.calib.sample();
            let (a, (ns, _)) = counted(|| timed(|| sched.step(&mut measurer)));
            raw.push(ns as f64);
            allocs += a.calls;
        }
        self.pending
            .push(("core.task_scheduler.step_ncpu_ms_p50", median(&raw), MS));
        self.values.set(
            "core.task_scheduler.step_allocs",
            allocs as f64 / STEPS as f64,
        );
        self.values.set(
            "core.task_scheduler.units_by_task_max_share",
            sched.allocations.iter().copied().max().unwrap_or(0) as f64 / STEPS as f64,
        );
    }
}
