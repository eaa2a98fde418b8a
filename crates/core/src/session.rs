//! A self-contained tuning session: policy + cost model + measurer +
//! checkpoint state behind one object.
//!
//! `ansor-tune` historically wired these pieces together inline in its
//! `main`, which made the tuning loop impossible to host anywhere else.
//! [`TuningSession`] extracts that wiring so N sessions can coexist in one
//! process (the `ansor-serve` daemon runs one per job, each on its
//! worker thread) while the CLI keeps identical
//! behavior by driving the same object.
//!
//! Determinism contract: a session is a pure function of
//! `(task, options, measurer configuration)` plus any restored checkpoint.
//! Sessions may share three caches (see
//! [`TuningSession::share_measure_cache`] and
//! [`TuningSession::share_models`]) without changing any session's
//! results, because each holds values that are pure in their key, so a hit
//! returns exactly what a cold recompute would:
//!
//! - measurement results, keyed by `State::signature()` (plus the
//!   measurer's fixed configuration, which the sharer must match);
//! - the feature rows of measured programs, keyed by `State::signature()`;
//! - trained models with the scores they gave, keyed by the training pass:
//!   GBDT parameters, window cap, trained prefix and the hash of that
//!   prefix's records (signature, seconds, task). A model is a pure
//!   function of its records, and a score of `(model, state)`.
//!
//! `State::signature()` names the program — DAG content and steps — so
//! sessions over different DAGs never meet on a key. Featurizations made
//! only to score candidates stay in the session's own cache.

use std::sync::Arc;

use ansor_runtime::SigCache;
use hwsim::{MeasureResult, Measurer};

use crate::checkpoint::{SinglePolicyCheckpoint, TuneCheckpoint, CHECKPOINT_VERSION};
use crate::cost_model::{FeatureBlock, LearnedCostModel, ModelMemo};
use crate::evolution::Individual;
use crate::records::TuningRecordLog;
use crate::search_policy::{SketchPolicy, TuningOptions, TuningResult};
use crate::search_task::SearchTask;

/// Canonical fingerprint of a single-operator tuning invocation, shared by
/// `ansor-tune` and `ansor-serve` so a checkpoint or warm-store entry taken
/// under one entry point is recognized by the other. The trial budget is
/// deliberately excluded: it only gates the stop condition, so a run may be
/// resumed with a larger budget.
pub fn single_fingerprint(
    op: &str,
    shape: usize,
    batch: i64,
    target: &str,
    faults: &str,
    seed: u64,
) -> String {
    format!("single:{op}:s{shape}:b{batch}:target={target}:faults={faults}:seed={seed}")
}

/// Canonical task name of a single-operator case (`"{op}:s{shape}b{batch}"`).
pub fn single_task_name(op: &str, shape: usize, batch: i64) -> String {
    format!("{op}:s{shape}b{batch}")
}

/// Lifetime hit/miss counters of every cache a session touches. Counters
/// are cumulative over the underlying caches, which may be shared across
/// sessions — take a snapshot before and after a job and subtract to
/// approximate per-job traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionCacheStats {
    /// Measurement result cache hits.
    pub measure_hits: u64,
    /// Measurement result cache misses.
    pub measure_misses: u64,
    /// Model score cache hits (a recalled model brings its scores).
    pub score_hits: u64,
    /// Model score cache misses.
    pub score_misses: u64,
    /// Featurization cache hits.
    pub feature_hits: u64,
    /// Featurization cache misses.
    pub feature_misses: u64,
}

impl SessionCacheStats {
    /// Counter-wise difference `self - earlier` (saturating, so a caller
    /// snapshotting around a job never underflows even if another thread
    /// raced a shared counter).
    pub fn since(&self, earlier: &SessionCacheStats) -> SessionCacheStats {
        SessionCacheStats {
            measure_hits: self.measure_hits.saturating_sub(earlier.measure_hits),
            measure_misses: self.measure_misses.saturating_sub(earlier.measure_misses),
            score_hits: self.score_hits.saturating_sub(earlier.score_hits),
            score_misses: self.score_misses.saturating_sub(earlier.score_misses),
            feature_hits: self.feature_hits.saturating_sub(earlier.feature_hits),
            feature_misses: self.feature_misses.saturating_sub(earlier.feature_misses),
        }
    }
}

/// One tuning run's complete state: search policy, learned cost model,
/// measurer, and the invocation fingerprint its checkpoints carry.
pub struct TuningSession {
    policy: SketchPolicy,
    model: LearnedCostModel,
    measurer: Measurer,
    fingerprint: String,
}

impl TuningSession {
    /// Creates a session from its three parts. The policy and model inherit
    /// the telemetry handle carried by `options`; the measurer keeps
    /// whatever telemetry/fault configuration the caller installed (so a
    /// caller can wire a shared handle before handing it over, exactly as
    /// `ansor-tune` does).
    pub fn new(
        task: SearchTask,
        options: TuningOptions,
        measurer: Measurer,
        fingerprint: impl Into<String>,
    ) -> TuningSession {
        let tel = options.telemetry.clone();
        let policy = SketchPolicy::new(task, options);
        let mut model = LearnedCostModel::new();
        model.set_telemetry(tel);
        TuningSession {
            policy,
            model,
            measurer,
            fingerprint: fingerprint.into(),
        }
    }

    /// The invocation fingerprint checkpoints are validated against.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The task under tuning.
    pub fn task(&self) -> &SearchTask {
        &self.policy.task
    }

    /// Shares a measurement-result cache with this session (see the module
    /// docs for why this is determinism-transparent). Only share between
    /// measurers with identical target/options/fault configuration.
    pub fn share_measure_cache(&mut self, cache: Arc<SigCache<MeasureResult>>) {
        self.measurer.set_result_cache(cache);
    }

    /// Shares trained models with their scores, and the feature rows of
    /// measured programs, with this session's cost model (see the module
    /// docs for why this is determinism-transparent, and
    /// [`LearnedCostModel::share_models`]).
    pub fn share_models(
        &mut self,
        memo: Arc<ModelMemo>,
        measured_features: Arc<SigCache<FeatureBlock>>,
    ) {
        self.model.share_models(memo, measured_features);
    }

    /// Runs one tuning round ([`SketchPolicy::run_round`]); returns the
    /// number of new measurements (0 when the trial budget is exhausted and
    /// the session is finished).
    pub fn step(&mut self) -> usize {
        self.policy.run_round(&mut self.model, &mut self.measurer)
    }

    /// Runs rounds until the budget is exhausted. `keep_going` is consulted
    /// between rounds; returning `false` stops early (cooperative
    /// cancellation), leaving the session in a valid, checkpointable state.
    pub fn run(&mut self, mut keep_going: impl FnMut(&TuningSession) -> bool) {
        loop {
            if !keep_going(self) {
                return;
            }
            if self.step() == 0 {
                return;
            }
        }
    }

    /// Best measured seconds so far (`INFINITY` before any valid result).
    pub fn best_seconds(&self) -> f64 {
        self.policy.best_seconds()
    }

    /// Best measured program so far.
    pub fn best_individual(&self) -> Option<&Individual> {
        self.policy.best_individual()
    }

    /// Measurement trials consumed by the policy.
    pub fn trials(&self) -> u64 {
        self.policy.trials()
    }

    /// Tuning rounds completed.
    pub fn rounds(&self) -> u64 {
        self.policy.rounds()
    }

    /// Replayable per-trial records accumulated so far.
    pub fn log(&self) -> &[TuningRecordLog] {
        &self.policy.log
    }

    /// The session's measurer (trial accounting, fault clock, cache).
    pub fn measurer(&self) -> &Measurer {
        &self.measurer
    }

    /// The session's cost model.
    pub fn model(&self) -> &LearnedCostModel {
        &self.model
    }

    /// The session's policy.
    pub fn policy(&self) -> &SketchPolicy {
        &self.policy
    }

    /// Snapshot of all cache counters this session can observe.
    pub fn cache_stats(&self) -> SessionCacheStats {
        let (mh, mm) = self.measurer.cache_stats();
        let (sh, sm) = self.model.cache_stats();
        let (fh, fm) = self.model.feature_cache_stats();
        SessionCacheStats {
            measure_hits: mh,
            measure_misses: mm,
            score_hits: sh,
            score_misses: sm,
            feature_hits: fh,
            feature_misses: fm,
        }
    }

    /// Warm-starts the policy and model from prior tuning records (the
    /// transfer path of Chen et al.; *not* on the bit-identity path — a
    /// warm-started run legitimately differs from a cold one).
    pub fn warm_start(&mut self, records: &[TuningRecordLog]) -> usize {
        let absorbed = self.policy.warm_start(records, &mut self.model);
        self.model.end_warm_start();
        absorbed
    }

    /// Serializes the complete session state (single-op checkpoint form).
    pub fn checkpoint(&self) -> TuneCheckpoint {
        TuneCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: self.fingerprint.clone(),
            measurer_trials: self.measurer.trials(),
            sim_fault_nanos: self.measurer.sim_fault_nanos(),
            records_flushed: 0,
            single: Some(SinglePolicyCheckpoint {
                policy: self.policy.checkpoint(),
                model: self.model.checkpoint(),
            }),
            scheduler: None,
        }
    }

    /// Restores the session from a checkpoint taken under the same
    /// fingerprint; a resumed session continues bit-identically to the
    /// uninterrupted run. The policy and the model replay the checkpoint's
    /// records; a session that was warm-started must be warm-started from
    /// the same records first ([`crate::CheckpointFile::load`] returns them).
    /// Nothing is trained here: the model is rebuilt by the next round's
    /// first read, and never if no round follows.
    pub fn restore(&mut self, ck: &TuneCheckpoint) -> Result<(), String> {
        if ck.fingerprint != self.fingerprint {
            return Err(format!(
                "checkpoint was taken under different settings\n  checkpoint: {}\n  this run:   {}",
                ck.fingerprint, self.fingerprint
            ));
        }
        let Some(single) = &ck.single else {
            return Err("checkpoint holds a network run, not a single-op session".into());
        };
        self.policy.restore(&single.policy)?;
        self.model.restore(&single.model, [&self.policy])?;
        self.measurer
            .restore_accounting(ck.measurer_trials, ck.sim_fault_nanos);
        Ok(())
    }

    /// Consumes the session into the policy's final result.
    pub fn into_result(self) -> TuningResult {
        self.policy.into_result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_model::{CostModel, ModelMemo};
    use hwsim::HardwareTarget;
    use std::sync::Arc as StdArc;
    use tensor_ir::{DagBuilder, Expr, Reducer};

    fn task(name: &str) -> SearchTask {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[64, 64]);
        let w = b.placeholder("B", &[64, 64]);
        b.compute_reduce("C", &[64, 64], &[64], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
                * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
        });
        SearchTask::new(
            name,
            StdArc::new(b.build().unwrap()),
            HardwareTarget::intel_20core(),
        )
    }

    fn session(seed: u64, trials: usize) -> TuningSession {
        let t = task("mm64");
        let options = TuningOptions {
            num_measure_trials: trials,
            seed,
            ..Default::default()
        };
        let measurer = Measurer::new(t.target.clone());
        TuningSession::new(t, options, measurer, "test-session")
    }

    #[test]
    fn session_matches_inline_wiring_bit_for_bit() {
        // The refactored session must reproduce exactly what ansor-tune's
        // historical inline loop produced.
        let mut s = session(7, 32);
        s.run(|_| true);

        let t = task("mm64");
        let options = TuningOptions {
            num_measure_trials: 32,
            seed: 7,
            ..Default::default()
        };
        let mut policy = SketchPolicy::new(t.clone(), options);
        let mut model = LearnedCostModel::new();
        let mut measurer = Measurer::new(t.target.clone());
        while policy.tune_round(&mut model, &mut measurer) > 0 {}

        assert_eq!(s.trials(), policy.trials());
        assert_eq!(s.best_seconds().to_bits(), policy.best_seconds().to_bits());
        assert_eq!(s.log(), &policy.log[..]);
    }

    #[test]
    fn shared_caches_do_not_change_results() {
        // Two rounds: the second is scored by a trained model, which reads
        // features (an untrained one reads none).
        let mut cold = session(3, 128);
        cold.run(|_| true);

        // One class's shared caches, as the serving daemon holds them.
        let measure_cache = StdArc::new(SigCache::new(1 << 15));
        let memo = StdArc::new(ModelMemo::new(8));
        let measured_features = StdArc::new(SigCache::new(1 << 13));
        let shared = |seed| {
            let mut s = session(seed, 128);
            s.share_measure_cache(StdArc::clone(&measure_cache));
            s.share_models(StdArc::clone(&memo), StdArc::clone(&measured_features));
            s
        };

        // Pre-warm them with a different-seed run of the same task, then
        // tune with them installed: results must be unchanged.
        shared(9).run(|_| true);

        let mut warm = shared(3);
        let before = warm.cache_stats();
        warm.run(|_| true);
        let delta = warm.cache_stats().since(&before);

        assert_eq!(cold.trials(), warm.trials());
        assert_eq!(cold.best_seconds().to_bits(), warm.best_seconds().to_bits());
        assert_eq!(cold.log(), warm.log());
        // The different-seed run explores overlapping programs, so the warm
        // run must actually have used the shared caches.
        assert!(
            delta.measure_hits > 0 || delta.feature_hits > 0,
            "warm run never hit the shared caches: {delta:?}"
        );

        // A repeat of the same seed recalls the models the warm run
        // trained, with their scores: it runs no candidate through an
        // ensemble, and still tunes exactly as the cold run did.
        let mut repeat = shared(3);
        let before = repeat.cache_stats();
        repeat.run(|_| true);
        let delta = repeat.cache_stats().since(&before);
        assert_eq!(cold.trials(), repeat.trials());
        assert_eq!(
            cold.best_seconds().to_bits(),
            repeat.best_seconds().to_bits()
        );
        assert_eq!(cold.log(), repeat.log());
        assert!(delta.score_hits > 0, "{delta:?}");
        assert_eq!(delta.score_misses, 0, "{delta:?}");
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let mut full = session(11, 128);
        full.run(|_| true);

        // Run half the budget, checkpoint, restore into a fresh session,
        // finish: identical to the uninterrupted run.
        let mut first = session(11, 128);
        let mut rounds = 0;
        first.run(|_| {
            rounds += 1;
            rounds <= 1
        });
        assert!(first.trials() < 128, "stopped early");
        let ck = first.checkpoint();

        let mut resumed = session(11, 128);
        resumed.restore(&ck).unwrap();
        resumed.run(|_| true);
        assert_eq!(resumed.trials(), full.trials());
        assert_eq!(
            resumed.best_seconds().to_bits(),
            full.best_seconds().to_bits()
        );
        assert_eq!(resumed.log(), full.log());
    }

    /// A traced session in rounds of 16 trials, its handle and its trace.
    fn traced_session(
        trials: usize,
    ) -> (TuningSession, telemetry::Telemetry, telemetry::SharedBuf) {
        let buf = telemetry::SharedBuf::new();
        let tel = telemetry::Telemetry::to_writer(Box::new(buf.clone()));
        let t = task("mm64");
        let options = TuningOptions {
            num_measure_trials: trials,
            measures_per_round: 16,
            init_population: 24,
            seed: 13,
            telemetry: tel.clone(),
            ..Default::default()
        };
        let mut measurer = Measurer::new(t.target.clone());
        measurer.set_telemetry(tel.clone());
        (TuningSession::new(t, options, measurer, "traced"), tel, buf)
    }

    /// The events of a trace, without sequence numbers, timestamps and the
    /// wall-clock `PhaseProfile`.
    fn events(buf: &telemetry::SharedBuf, tel: &telemetry::Telemetry) -> Vec<String> {
        tel.flush();
        let (lines, skipped) = telemetry::read_trace(buf.contents().as_slice()).unwrap();
        assert_eq!(skipped, 0);
        telemetry::canonical_events(&lines)
    }

    #[test]
    fn a_session_trains_a_model_once_its_window_has_doubled() {
        let (mut s, tel, _) = traced_session(64);
        s.run(|_| true);
        assert_eq!(s.rounds(), 4);
        // Rounds 2–4 read the model of the rounds before them: round 2 the
        // model of 16 records, round 3 that of 32, and round 4 that one
        // again (16 new records do not double a window of 32). Nothing
        // reads the model of all four. Calibration needs no model of its
        // own: it scores a batch with the model the batch was picked under.
        assert_eq!(tel.counter_value("gbdt/train_passes"), 2);
        assert_eq!(tel.counter_value("model/calibrations"), 3);
        // The fourth update doubled the window; nothing trained that model.
        let ck = s.checkpoint();
        let model = &ck.single.as_ref().unwrap().model;
        assert_eq!((model.records.len(), model.trained_on), (64, Some(64)));
        assert!(!model.trained);

        // The third update kept the model: its window was half new.
        let (mut s, tel, _) = traced_session(48);
        s.run(|_| true);
        let ck = s.checkpoint();
        let model = &ck.single.as_ref().unwrap().model;
        assert_eq!((model.records.len(), model.trained_on), (48, Some(32)));
        assert_eq!(tel.counter_value("gbdt/train_passes"), 2);
        // Restoring continues the numbering and trains nothing…
        let (mut resumed, tel, _) = traced_session(48);
        resumed.restore(&ck).unwrap();
        assert_eq!(tel.counter_value("gbdt/train_passes"), 2);
        assert_eq!(tel.counter_value("gbdt/train_samples"), 0);
        // …until something reads the model; the killed run had trained
        // this one, so the pass is repeated without being counted.
        let best = [(*s.best_individual().unwrap().state).clone()];
        let score = resumed.model().predict(resumed.task(), &best);
        assert_eq!(tel.counter_value("gbdt/train_passes"), 2);
        assert_eq!(tel.counter_value("gbdt/train_samples"), 0);
        assert_eq!(score, s.model().predict(s.task(), &best));
    }

    #[test]
    fn a_finished_session_resumes_under_a_larger_budget() {
        let (mut full, full_tel, full_buf) = traced_session(128);
        full.run(|_| true);

        let (mut first, first_tel, first_buf) = traced_session(64);
        first.run(|_| true);
        assert_eq!(first.trials(), 64);
        let ck = first.checkpoint();
        let (mut resumed, resumed_tel, resumed_buf) = traced_session(128);
        resumed.restore(&ck).unwrap();
        resumed.run(|_| true);

        assert_eq!(resumed.log(), full.log());
        assert_eq!(
            resumed.best_seconds().to_bits(),
            full.best_seconds().to_bits()
        );
        // The model of the first 64 trials is trained by the round that
        // reads it — after the boundary, in both runs. The first run ended
        // there, and its trace says so; the longer run did not.
        let mut joined = events(&first_buf, &first_tel);
        let finished = joined.pop().expect("the first run traced events");
        assert!(finished.starts_with("{\"TuningFinished\""), "{finished}");
        joined.extend(events(&resumed_buf, &resumed_tel));
        assert_eq!(joined, events(&full_buf, &full_tel));
    }

    #[test]
    fn a_warm_started_session_resumes_from_its_checkpoint_file_bit_identically() {
        use crate::checkpoint::CheckpointFile;
        use crate::records::{load_records, save_records};
        let dir = std::env::temp_dir().join(format!("ansor-warm-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A cold run's records are the warm prefix of both runs' logs.
        let mut cold = session(21, 32);
        cold.run(|_| true);
        let (full_log, killed_log) = (dir.join("full.jsonl"), dir.join("killed.jsonl"));
        for log in [&full_log, &killed_log] {
            save_records(log, cold.log()).unwrap();
        }
        let warm = |log: &std::path::Path| {
            let mut s = session(11, 128);
            assert!(s.warm_start(&load_records(log).unwrap().0) > 0);
            let file = CheckpointFile::create(dir.join("run.ckpt"), log.to_str()).unwrap();
            (s, file)
        };
        let (mut full, mut file) = warm(&full_log);
        while full.step() > 0 {
            file.save(full.checkpoint()).unwrap();
        }
        // Killed after its first round's save.
        let (mut killed, mut file) = warm(&killed_log);
        killed.step();
        file.save(killed.checkpoint()).unwrap();
        let (ck, warm, mut file) = CheckpointFile::load(dir.join("run.ckpt")).unwrap();
        assert_eq!(warm, cold.log());
        // Without its warm start the checkpoint does not restore.
        let err = session(11, 128).restore(&ck).unwrap_err();
        assert!(err.contains("warm-start records"), "{err}");
        let mut resumed = session(11, 128);
        resumed.warm_start(&warm);
        resumed.restore(&ck).unwrap();
        while resumed.step() > 0 {
            file.save(resumed.checkpoint()).unwrap();
        }
        assert_eq!(resumed.log(), full.log());
        assert_eq!(
            std::fs::read(&killed_log).unwrap(),
            std::fs::read(&full_log).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restore_rejects_wrong_fingerprint() {
        let mut s = session(0, 8);
        s.run(|_| true);
        let mut ck = s.checkpoint();
        ck.fingerprint = "something-else".into();
        let mut fresh = session(0, 8);
        let err = fresh.restore(&ck).unwrap_err();
        assert!(err.contains("different settings"), "{err}");
    }

    #[test]
    fn restore_rejects_a_sketch_index_past_the_list() {
        let mut s = session(0, 8);
        s.run(|_| true);
        let n = s.policy().sketches().len();
        let mut ck = s.checkpoint();
        ck.single.as_mut().unwrap().policy.best_measured[0].sketch = n;
        let err = session(0, 8).restore(&ck).unwrap_err();
        assert!(
            err.contains(&format!("sketch {n}, the task has {n}")),
            "{err}"
        );
    }

    #[test]
    fn cancellation_leaves_valid_state() {
        let mut s = session(5, 64);
        s.run(|_| false); // cancelled before the first round
        assert_eq!(s.trials(), 0);
        let mut s2 = session(5, 64);
        let mut n = 0;
        s2.run(|_| {
            n += 1;
            n <= 1
        });
        assert!(s2.trials() > 0);
        assert!(s2.checkpoint().single.is_some());
    }

    #[test]
    fn fingerprint_helpers_are_stable() {
        assert_eq!(
            single_fingerprint("GMM", 0, 1, "intel", "none", 42),
            "single:GMM:s0:b1:target=intel:faults=none:seed=42"
        );
        assert_eq!(single_task_name("GMM", 0, 1), "GMM:s0b1");
    }
}
