//! Learned cost model (§5.2).
//!
//! The model predicts a score for every innermost non-loop statement of a
//! lowered program and sums them into a program score; higher scores mean
//! higher predicted throughput. Following the paper, training uses the
//! weighted squared error `loss(f, P, y) = y · (Σ_{s∈S(P)} f(s) − y)²`
//! where `y` is the program's throughput normalized to `[0, 1]` per task,
//! so that fast programs weigh more. A single model is shared across all
//! tasks/DAGs.

use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use ansor_features::{extract_state_features, FeatureMatrix, ProgramFeatures, FEATURE_DIM};
use ansor_runtime::SigCache;
use gbdt::{Gbdt, GbdtParams, Matrix, TreeParams};
use tensor_ir::State;

use crate::records::TuningRecordLog;
use crate::search_task::SearchTask;

/// Cached result of featurizing one state: the packed per-statement rows
/// with the buffer each row's statement stores to, or the lowering error.
/// `Arc` so cache hits hand out a pointer instead of cloning a feature
/// block.
pub type FeatureBlock = Arc<Result<ProgramFeatures, String>>;

/// Entries of a model's score table ([`TrainedModel`]).
const SCORE_CACHE_CAPACITY: usize = 1 << 16;

/// Entries of a model's private featurization cache.
const FEATURE_CACHE_CAPACITY: usize = 1 << 14;

/// A trained GBDT and the scores it gave, by program signature. A score is
/// a pure function of `(model, state)`, so the table is as much a part of
/// the model as its trees: a model recalled from a [`ModelMemo`] brings
/// the scores its first owner filled, and a repeat job featurizes and runs
/// through the ensemble only the programs that job never scored.
#[derive(Debug)]
pub struct TrainedModel {
    gbdt: Gbdt,
    scores: SigCache<f64>,
}

/// Trained models by the training pass that fitted them: the GBDT
/// parameters, the training window's cap, the trained prefix's length and
/// the hash of its records (see [`LearnedCostModel::share_models`]). A
/// model with the same history recalls the model a cold fit would compute,
/// bit for bit, instead of fitting it again.
pub type ModelMemo = SigCache<Arc<TrainedModel>>;

/// Lifetime (hits, misses) of one kind of lookup a model makes. Counted by
/// the model itself, not read off the caches, which may be shared.
#[derive(Debug, Default)]
struct Lookups {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Lookups {
    fn count(&self, hit: bool) {
        let n = if hit { &self.hits } else { &self.misses };
        n.fetch_add(1, Ordering::Relaxed);
    }

    fn get(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// The history hash of `records`: each measured program's signature, the
/// bits of its seconds and its task, folded in order — everything a
/// training pass reads of a record, since the record's features are a pure
/// function of the signature.
fn history_hash(records: &[Record]) -> u64 {
    records.iter().fold(0, |history, r| {
        let mut h = DefaultHasher::new();
        (history, r.sig, r.seconds.to_bits(), &r.task).hash(&mut h);
        h.finish()
    })
}

/// Scores used to rank candidate programs; higher is better.
///
/// `Sync` is a supertrait: a model may be read from several threads at
/// once (its lazily trained GBDT is a `OnceLock`), and scoring must be a
/// pure function of `(model, state)` with no order-dependent hidden state,
/// so that a candidate's score does not depend on which lane asked first.
pub trait CostModel: Sync {
    /// Predicts a throughput score for each state (−∞ for unlowerable
    /// states).
    fn predict(&self, task: &SearchTask, states: &[State]) -> Vec<f64>;

    /// [`predict`](CostModel::predict) over borrowed states. The default
    /// clones; implementations that can score without owning the states
    /// (everything in this crate) override it so ranking a retained
    /// population never copies transform histories.
    fn predict_refs(&self, task: &SearchTask, states: &[&State]) -> Vec<f64> {
        let owned: Vec<State> = states.iter().map(|s| (*s).clone()).collect();
        self.predict(task, &owned)
    }

    /// Predicts a per-node score breakdown for one state (used by
    /// node-based crossover to pick the better parent per node). The
    /// default splits the program score evenly.
    fn predict_per_node(&self, task: &SearchTask, state: &State) -> HashMap<String, f64> {
        let score = self.predict(task, std::slice::from_ref(state))[0];
        let mut out = HashMap::new();
        for n in &state.dag.nodes {
            if n.compute().is_some() {
                out.insert(n.name.clone(), score);
            }
        }
        out
    }

    /// Inert remnant of the removed two-stage scorer, kept only because the
    /// frozen `e2e_bench` implements it; nothing calls or overrides it.
    fn predict_population(&self, task: &SearchTask, states: &[&State]) -> PopulationScores {
        (self.predict_refs(task, states), None)
    }

    /// Feeds back measured execution times (seconds) for programs.
    fn update(&mut self, task: &SearchTask, states: &[State], seconds: &[f64]);

    /// Whether the model has been trained at least once.
    fn is_trained(&self) -> bool;
}

/// Inert remnant (see [`CostModel::predict_population`]); the mask is `None`.
pub type PopulationScores = (Vec<f64>, Option<Vec<bool>>);

/// One stored training record: an index into the model's shared
/// [`FeatureMatrix`] plus the measurement. Feature rows live packed in the
/// matrix, so records are a few words each and a training pass never clones
/// per-record feature vectors.
#[derive(Debug, Clone)]
struct Record {
    /// Segment of the shared feature matrix holding this record's
    /// per-statement rows (empty when extraction failed).
    seg: usize,
    /// Measured seconds (`INFINITY` encodes a failed measurement).
    seconds: f64,
    /// Task the record came from (normalization group).
    task: String,
    /// Signature of the measured program.
    sig: u64,
}

/// GBDT-backed learned cost model.
pub struct LearnedCostModel {
    records: Vec<Record>,
    /// Packed per-statement feature rows of every record; record `i` owns
    /// segment `i`. Append-only — `max_train_records` bounds the rows a
    /// retrain reads (a contiguous suffix), not the resident store, whose
    /// size is surfaced through the `model/feature_bytes` gauge.
    features: FeatureMatrix,
    /// The model is a memo of `records[..trained_on]`: training is a pure
    /// function of that prefix, so `update` and `restore` only move the
    /// prefix and empty the cell, and [`LearnedCostModel::trained`] trains
    /// on the first read — a retrain nothing reads is never run. `update`
    /// moves the prefix only when a retrain is due (`retrain_due`).
    /// `None` inside the cell: the prefix's training window held no
    /// eligible row. The model's score table is the signature-keyed score
    /// cache: evolution populations carry heavy duplication (failed
    /// mutations clone the parent, retained-best individuals re-enter
    /// every generation), so duplicates are never re-lowered,
    /// re-featurized, or re-scored. An untrained model scores by
    /// `State::validate` alone and caches nothing.
    model: OnceLock<Option<Arc<TrainedModel>>>,
    /// The score table of a superseded model nothing else holds, emptied,
    /// for the next model to fill: a session's retrains reuse one table.
    spare_scores: Mutex<Option<SigCache<f64>>>,
    trained_on: usize,
    /// Trained models shared with other models ([`LearnedCostModel::share_models`]).
    memo: Option<Arc<ModelMemo>>,
    /// The pass for `records[..trained_on]` already ran before a
    /// `restore` (`ModelCheckpoint::trained`): the first read repeats it
    /// with telemetry off, so the resumed trace and pass count are the
    /// uninterrupted run's.
    replay: bool,
    /// Records a warm start absorbed before the session measured anything
    /// ([`LearnedCostModel::end_warm_start`]). The retrain window counts
    /// from after them, so a warm session retrains on its own batches as
    /// a cold one does.
    warm_records: usize,
    params: GbdtParams,
    /// Cap on the number of most recent records used per training pass.
    max_train_records: usize,
    telemetry: telemetry::Telemetry,
    /// Signature-keyed featurization cache. Features depend only on the
    /// state (not on the model), so entries survive retrains; states a
    /// trained model picked for measurement were just scored, so `update`
    /// reuses the rows `predict` extracted (an untrained model extracts
    /// none: the first batch is featurized by `update`).
    feature_cache: Arc<SigCache<FeatureBlock>>,
    /// Rows of measured programs shared with other models
    /// ([`LearnedCostModel::share_models`]): `update` reads and fills it.
    measured_features: Option<Arc<SigCache<FeatureBlock>>>,
    /// Score lookups, hit or scored.
    score_lookups: Lookups,
    /// Feature lookups, hit (in any cache) or extracted.
    feature_lookups: Lookups,
}

impl Default for LearnedCostModel {
    fn default() -> Self {
        Self::new()
    }
}

impl LearnedCostModel {
    /// Creates an untrained model with tuned-for-speed GBDT parameters.
    pub fn new() -> LearnedCostModel {
        LearnedCostModel {
            records: Vec::new(),
            features: FeatureMatrix::new(FEATURE_DIM),
            model: OnceLock::new(),
            spare_scores: Mutex::new(None),
            trained_on: 0,
            memo: None,
            replay: false,
            warm_records: 0,
            params: GbdtParams {
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
            },
            max_train_records: 800,
            telemetry: telemetry::Telemetry::disabled(),
            feature_cache: Arc::new(SigCache::new(FEATURE_CACHE_CAPACITY)),
            measured_features: None,
            score_lookups: Lookups::default(),
            feature_lookups: Lookups::default(),
        }
    }

    /// Shares trained models, with their scores, and the rows of measured
    /// programs with other models (the tuning sessions of one workload
    /// class in a serving daemon). A training pass whose key — GBDT
    /// parameters, `max_train_records`, the trained prefix's length and its
    /// history hash — is in `memo` recalls that model instead of fitting
    /// it; one that is not fits and leaves its model there. Both values
    /// are pure in their keys, so sharing changes no score and no result.
    pub fn share_models(
        &mut self,
        memo: Arc<ModelMemo>,
        measured_features: Arc<SigCache<FeatureBlock>>,
    ) {
        self.memo = Some(memo);
        self.measured_features = Some(measured_features);
    }

    /// Handle on the model's own featurization cache.
    pub fn feature_cache(&self) -> Arc<SigCache<FeatureBlock>> {
        Arc::clone(&self.feature_cache)
    }

    /// Lifetime (hits, misses) of this model's score lookups: a hit is a
    /// score its model's table held.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.score_lookups.get()
    }

    /// Lifetime (hits, misses) of this model's featurizations: a hit is a
    /// block a featurization cache held, a miss one it extracted.
    pub fn feature_cache_stats(&self) -> (u64, u64) {
        self.feature_lookups.get()
    }

    /// Bytes resident in the packed feature store.
    pub fn feature_bytes(&self) -> usize {
        self.features.resident_bytes()
    }

    /// Number of stored measurement records.
    pub fn num_records(&self) -> usize {
        self.records.len()
    }

    /// Installs a telemetry handle: retrains are timed and emit their
    /// `GbdtRound` trace events.
    pub fn set_telemetry(&mut self, telemetry: telemetry::Telemetry) {
        self.telemetry = telemetry;
    }

    /// Rebuilds this model from a checkpoint and the valid records it was
    /// updated with after the warm start (which the model must hold
    /// already), in the order it received them, each with its replayed
    /// program: every one is featurized and appended as `update` appends
    /// it. The first read then trains the exact GBDT the checkpointed model
    /// held, or would have trained on its own first read (training is a
    /// pure function of `records[..trained_on]` — no RNG state crosses
    /// calls). The pass counter is re-seeded so `GbdtRound` trace events in
    /// the resumed run continue the killed run's numbering, and a pass the
    /// killed run had already run is repeated without them.
    pub fn restore<'r>(
        &mut self,
        ck: &crate::checkpoint::ModelCheckpoint,
        measured: impl IntoIterator<Item = (&'r TuningRecordLog, State)>,
    ) -> Result<(), String> {
        if self.records.len() != ck.warm_records {
            return Err(format!(
                "checkpointed model holds {} warm-start records, this model {}",
                ck.warm_records,
                self.records.len()
            ));
        }
        for (record, state) in measured {
            let block = self.measured_features_for(&state);
            self.push_record(&record.task, &block, &state, record.seconds);
        }
        if ck.trained_on > self.records.len() {
            return Err(format!(
                "checkpointed model is trained on {} records, its logs give back {}",
                ck.trained_on,
                self.records.len()
            ));
        }
        self.drop_model();
        self.trained_on = ck.trained_on;
        self.replay = ck.trained;
        self.warm_records = ck.warm_records;
        let done = self.telemetry.counter_value("gbdt/train_passes");
        if ck.train_passes > done {
            self.telemetry
                .incr("gbdt/train_passes", ck.train_passes - done);
        }
        Ok(())
    }

    /// Serializes how many of its records the model is trained on (the
    /// records, their rows and the model are deterministic functions of the
    /// record logs; see [`LearnedCostModel::restore`]).
    pub fn checkpoint(&self) -> crate::checkpoint::ModelCheckpoint {
        crate::checkpoint::ModelCheckpoint {
            train_passes: self.telemetry.counter_value("gbdt/train_passes"),
            trained_on: self.trained_on,
            trained: self.model.get().is_some(),
            warm_records: self.warm_records,
        }
    }

    /// Appends the record of one measured program, its rows read from
    /// `block`: `update` and `restore` both append through here. A program that no longer lowers is a
    /// failure record — no rows, no time — and fails the same way when a
    /// restore featurizes it again.
    fn push_record(&mut self, task: &str, block: &FeatureBlock, state: &State, seconds: f64) {
        let (seg, seconds) = match block.as_ref() {
            Ok(block) => (
                self.features.push_packed_segment(block.rows.data()),
                seconds,
            ),
            Err(_) => (self.features.push_empty_segment(), f64::INFINITY),
        };
        self.records.push(Record {
            seg,
            seconds,
            task: task.to_string(),
            sig: state.signature(),
        });
    }

    /// Marks every record held so far as absorbed by a warm start: the
    /// retrain window counts only the records measured after this call.
    /// Without it, a store of W records would make a session wait for
    /// min(W, `max_train_records`) of its own before it refits on any.
    pub fn end_warm_start(&mut self) {
        self.warm_records = self.records.len();
    }

    /// Whether a record can enter a training pass: measured, with rows.
    fn is_eligible(&self, r: &Record) -> bool {
        r.seconds.is_finite() && self.features.segment_len(r.seg) > 0
    }

    /// The training window of `records[..end]`: its most recent
    /// `max_train_records`.
    fn window(&self, end: usize) -> &[Record] {
        &self.records[end.saturating_sub(self.max_train_records)..end]
    }

    /// Whether a training pass over `records[..end]` has a row to fit.
    fn has_training_rows(&self, end: usize) -> bool {
        self.window(end).iter().any(|r| self.is_eligible(r))
    }

    /// Whether `update` moves the model to `records[..end]`: never when
    /// that window has nothing to fit, always when the current one has not
    /// (the first trainable batch), and otherwise once the records since
    /// the last training are at least that training's whole window, counted
    /// without the records of a warm start.
    ///
    /// The search reads the model only to *order* candidates (§5.2), and a
    /// refit whose window still shares most of its records with its
    /// predecessor's orders them almost as that one did — so a model is
    /// kept until its window has doubled. The schedule is geometric: a
    /// 1 024-trial session of 64-record batches trains at 64 / 128 / 256 /
    /// 512 records instead of after all 15 batches that are read, the rows
    /// fitted over a session are at most about twice its final window, and
    /// a full `max_train_records` window retrains every `max_train_records`.
    /// The score cache, which a retrain empties, lives across the updates
    /// in between. The window counts no record a warm start absorbed
    /// ([`LearnedCostModel::end_warm_start`]): a warm session retrains on
    /// its own batches where a cold one does.
    fn retrain_due(&self, end: usize) -> bool {
        if !self.has_training_rows(end) {
            return false;
        }
        let trained_window = self
            .trained_on
            .saturating_sub(self.warm_records)
            .min(self.max_train_records);
        !self.has_training_rows(self.trained_on) || end - self.trained_on >= trained_window
    }

    /// The model of `records[..trained_on]`, trained by whichever caller
    /// reads it first; every other reader waits for that one pass.
    fn trained(&self) -> Option<&TrainedModel> {
        self.model.get_or_init(|| self.train()).as_deref()
    }

    /// The ensemble of [`LearnedCostModel::trained`].
    fn model(&self) -> Option<&Gbdt> {
        self.trained().map(|t| &t.gbdt)
    }

    /// Lets the current model go. Its score table, when nothing else holds
    /// it, is emptied and kept for the next model.
    fn drop_model(&mut self) {
        if let Some(Some(model)) = self.model.take() {
            if let Ok(model) = Arc::try_unwrap(model) {
                model.scores.clear();
                *self
                    .spare_scores
                    .get_mut()
                    .unwrap_or_else(PoisonError::into_inner) = Some(model.scores);
            }
        }
    }

    /// The fitted model of one training pass, recalled from the memo when
    /// an identical pass put it there (counted as `model/memo_hits`).
    fn fit(&self, x: Matrix<'_>, y: &[f32], w: &[f32]) -> Arc<TrainedModel> {
        let fit = || {
            let scores = self
                .spare_scores
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            Arc::new(TrainedModel {
                gbdt: Gbdt::fit(x, y, w, &self.params),
                scores: scores.unwrap_or_else(|| SigCache::new(SCORE_CACHE_CAPACITY)),
            })
        };
        let Some(memo) = &self.memo else {
            return fit();
        };
        let mut key = DefaultHasher::new();
        let params = serde_json::to_string(&self.params).expect("GBDT parameters serialize");
        let history = history_hash(&self.records[..self.trained_on]);
        (params, self.max_train_records, self.trained_on, history).hash(&mut key);
        let mut recalled = true;
        let model = memo.get_or_insert_with(key.finish(), || {
            recalled = false;
            fit()
        });
        if recalled {
            self.telemetry.incr("model/memo_hits", 1);
        }
        model
    }

    /// One training pass over the window of `records[..trained_on]`, with
    /// its `GbdtRound` event; `None` when the window
    /// has nothing to fit.
    fn train(&self) -> Option<Arc<TrainedModel>> {
        if !self.has_training_rows(self.trained_on) {
            return None;
        }
        let records = &self.records[..self.trained_on];
        let window = self.window(self.trained_on);
        let (first, last) = (&window[0], &window[window.len() - 1]);
        let _phase = self.telemetry.span("model_retrain");
        // Per-task normalization: y = min_seconds / seconds ∈ (0, 1].
        let mut min_per_task: HashMap<&str, f64> = HashMap::new();
        for r in records {
            let m = min_per_task.entry(r.task.as_str()).or_insert(f64::INFINITY);
            *m = m.min(r.seconds);
        }
        // Train on the packed rows of the most recent records in place: a
        // matrix view over the contiguous rows from the window's first
        // record to the prefix's last, with full-length label/weight
        // arrays. Records outside the training criteria (failed
        // measurement, empty features) keep their rows at weight 0, which
        // contributes exact +0.0 terms to every f64 accumulation —
        // bit-identical to copying the eligible rows out, without the
        // copies.
        let row0 = self.features.segment_range(first.seg).start;
        let row_end = self.features.segment_range(last.seg).end;
        let n_cols = self.features.n_cols();
        let x = Matrix::new(
            &self.features.data()[row0 * n_cols..row_end * n_cols],
            n_cols,
        );
        let mut y = vec![0.0f32; x.n_rows()];
        let mut w = vec![0.0f32; x.n_rows()];
        for r in window.iter().filter(|r| self.is_eligible(r)) {
            let rows = self.features.segment_range(r.seg);
            let label = (min_per_task[r.task.as_str()] / r.seconds) as f32;
            let share = label / rows.len() as f32;
            for row in rows {
                y[row - row0] = share;
                // The paper weighs samples by throughput y.
                w[row - row0] = label.max(1e-3);
            }
        }
        let disabled = telemetry::Telemetry::disabled();
        let telemetry = if self.replay {
            &disabled
        } else {
            &self.telemetry
        };
        let model = Gbdt::traced_pass(x, &y, &w, telemetry, || self.fit(x, &y, &w), |m| &m.gbdt);
        Some(model)
    }

    /// Program score of one packed block of per-statement rows: per-row
    /// predictions summed in row order (§5.2's `Σ_{s∈S(P)} f(s)`).
    fn score_rows(&self, model: &Gbdt, rows: &[f32]) -> f64 {
        let rows = Matrix::new(rows, self.features.n_cols());
        (0..rows.n_rows())
            .map(|i| model.predict(rows.row(i)) as f64)
            .sum()
    }

    /// Featurizes one state through the model's own cache.
    fn features_for(&self, state: &State) -> FeatureBlock {
        let mut hit = true;
        let block = self
            .feature_cache
            .get_or_insert_with(state.signature(), || {
                hit = false;
                Arc::new(extract_state_features(state))
            });
        self.feature_lookups.count(hit);
        block
    }

    /// Featurizes one measured state. With shared rows of measured
    /// programs it looks there first, then in the model's own cache (the
    /// state was usually just scored), extracts the rows only if neither
    /// holds them, and leaves the block in the shared rows.
    fn measured_features_for(&self, state: &State) -> FeatureBlock {
        let Some(shared) = &self.measured_features else {
            return self.features_for(state);
        };
        let sig = state.signature();
        let mut hit = true;
        let block = shared.get_or_insert_with(sig, || {
            self.feature_cache.get(sig).unwrap_or_else(|| {
                hit = false;
                Arc::new(extract_state_features(state))
            })
        });
        self.feature_lookups.count(hit);
        block
    }

    /// Scores one state under `model` through its score table.
    fn score_one(&self, model: &TrainedModel, s: &State) -> f64 {
        let mut hit = true;
        let score = model.scores.get_or_insert_with(s.signature(), || {
            hit = false;
            match self.features_for(s).as_ref() {
                Ok(block) => self.score_rows(&model.gbdt, block.rows.data()),
                Err(_) => f64::NEG_INFINITY,
            }
        });
        self.score_lookups.count(hit);
        score
    }

    /// The one body of `predict` (owned states) and `predict_refs`
    /// (borrowed): lowering + feature extraction + inference behind the
    /// score cache. The model is read once, before the batch, so a pending
    /// retrain runs under this span. An untrained model reads no
    /// features: it scores a program 0 if it lowers and −∞ if not, and
    /// `State::validate` decides that without lowering anything.
    fn score_batch<S: Borrow<State>>(&self, states: &[S]) -> Vec<f64> {
        let _phase = self.telemetry.span("model_predict");
        self.telemetry
            .incr("model/predictions", states.len() as u64);
        let Some(model) = self.trained() else {
            return states
                .iter()
                .map(|s| match s.borrow().validate() {
                    Ok(()) => 0.0,
                    Err(_) => f64::NEG_INFINITY,
                })
                .collect();
        };
        let (h0, m0) = self.cache_stats();
        let f0 = self.feature_cache_stats();
        let scores = states
            .iter()
            .map(|s| self.score_one(model, s.borrow()))
            .collect();
        let (h1, m1) = self.cache_stats();
        self.telemetry.incr("model/score_cache_hits", h1 - h0);
        self.telemetry.incr("model/score_cache_misses", m1 - m0);
        self.emit_feature_cache_deltas(f0);
        scores
    }

    /// Forwards featurization-cache deltas to telemetry counters.
    fn emit_feature_cache_deltas(&self, before: (u64, u64)) {
        let (h1, m1) = self.feature_cache_stats();
        self.telemetry.incr("features/cache_hits", h1 - before.0);
        self.telemetry.incr("features/cache_misses", m1 - before.1);
    }

    /// Held-out calibration (the online analogue of the paper's Fig. 15):
    /// scores the just-measured batch with `model`, the one the batch was
    /// picked under, and
    /// emits a `ModelCalibration` event — pairwise rank accuracy over
    /// comparable pairs (measured times at least 5% apart in ln-ratio, so
    /// jitter is not ranked), top-k recall for k = 1 and 8, and quantiles of
    /// |normalized score − normalized throughput|. Reuses the feature
    /// blocks already extracted for the batch, so it adds no cache
    /// traffic. Skipped (no event) when fewer than two candidates are
    /// scoreable or no pair is comparable. Only called while tracing with
    /// a trained model, so the fresh-model and disabled paths pay nothing.
    fn emit_calibration(
        &self,
        model: &Gbdt,
        task_name: &str,
        blocks: &[FeatureBlock],
        seconds: &[f64],
    ) {
        let scores: Vec<f64> = blocks
            .iter()
            .map(|b| match b.as_ref() {
                Ok(block) => self.score_rows(model, block.rows.data()),
                Err(_) => f64::NEG_INFINITY,
            })
            .collect();
        let idx: Vec<usize> = (0..seconds.len())
            .filter(|&i| seconds[i].is_finite() && scores[i].is_finite())
            .collect();
        let n = idx.len();
        if n < 2 {
            return;
        }
        let mut pairs = 0u64;
        let mut correct = 0u64;
        for (a, &i) in idx.iter().enumerate() {
            for &j in &idx[a + 1..] {
                if (seconds[i] / seconds[j]).ln().abs() < 0.05 {
                    continue; // measured times too close to rank meaningfully
                }
                pairs += 1;
                let faster_i = seconds[i] < seconds[j];
                let scored_higher_i = scores[i] > scores[j];
                if faster_i == scored_higher_i {
                    correct += 1;
                }
            }
        }
        if pairs == 0 {
            return;
        }
        let recall = |k: usize| -> f64 {
            let k = k.min(n);
            let mut by_time = idx.clone();
            by_time.sort_by(|&a, &b| {
                seconds[a]
                    .partial_cmp(&seconds[b])
                    .expect("finite seconds")
                    .then(a.cmp(&b))
            });
            let mut by_score = idx.clone();
            by_score.sort_by(|&a, &b| {
                scores[b]
                    .partial_cmp(&scores[a])
                    .expect("finite scores")
                    .then(a.cmp(&b))
            });
            let truth: std::collections::HashSet<usize> = by_time[..k].iter().copied().collect();
            let hit = by_score[..k].iter().filter(|i| truth.contains(i)).count();
            hit as f64 / k as f64
        };
        // Errors compare min-max-normalized scores against the training
        // target y = min_seconds / seconds ∈ (0, 1].
        let min_sec = idx
            .iter()
            .map(|&i| seconds[i])
            .fold(f64::INFINITY, f64::min);
        let (smin, smax) = idx
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &i| {
                (lo.min(scores[i]), hi.max(scores[i]))
            });
        let mut errs: Vec<f64> = idx
            .iter()
            .map(|&i| {
                let yhat = if smax > smin {
                    (scores[i] - smin) / (smax - smin)
                } else {
                    1.0 // all scores tied: the model claims all are best
                };
                (yhat - min_sec / seconds[i]).abs()
            })
            .collect();
        errs.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
        let q = |p: f64| errs[((errs.len() - 1) as f64 * p).round() as usize];
        self.telemetry.incr("model/calibrations", 1);
        self.telemetry
            .emit(|| telemetry::TraceEvent::ModelCalibration {
                task: task_name.to_string(),
                batch: seconds.len() as u64,
                pairs,
                rank_acc: correct as f64 / pairs as f64,
                top1_recall: recall(1),
                top8_recall: recall(8),
                err_p10: q(0.10),
                err_p50: q(0.50),
                err_p90: q(0.90),
            });
    }
}

impl CostModel for LearnedCostModel {
    /// Predicts scores for a batch (the evolution loop queries the model
    /// for thousands of candidates per round, §5).
    fn predict(&self, _task: &SearchTask, states: &[State]) -> Vec<f64> {
        self.score_batch(states)
    }

    /// [`predict`](CostModel::predict) minus the `State` clones.
    fn predict_refs(&self, _task: &SearchTask, states: &[&State]) -> Vec<f64> {
        self.score_batch(states)
    }

    /// Per-row predictions over the state's cached feature block, summed by
    /// the base name of the node each row stores to. A parent that was just
    /// ranked costs no lowering here; the lookups count in
    /// [`feature_cache_stats`](LearnedCostModel::feature_cache_stats) but
    /// not in the `features/cache_*` counters, which stay per scored or
    /// recorded batch. An untrained model returns an empty map: crossover
    /// sums a missing node as 0, what that model would score it.
    fn predict_per_node(&self, _task: &SearchTask, state: &State) -> HashMap<String, f64> {
        let mut out = HashMap::new();
        let Some(model) = self.model() else {
            return out;
        };
        let block = self.features_for(state);
        let Ok(features) = block.as_ref() else {
            return out;
        };
        for (row, &buffer) in features.rows.segment_rows(0).zip(&features.buffers) {
            let node = &state.dag.nodes[buffer].name;
            let base = node.split('.').next().unwrap_or(node);
            *out.entry(base.to_string()).or_insert(0.0) += model.predict(row) as f64;
        }
        out
    }

    fn update(&mut self, task: &SearchTask, states: &[State], seconds: &[f64]) {
        let blocks = {
            let _phase = self.telemetry.span("feature_extraction");
            // Analysis + featurization of the measured batch goes through
            // the featurization caches (the states were just scored, so
            // their rows are usually already cached); records are appended
            // in input order.
            let f0 = self.feature_cache_stats();
            let blocks: Vec<FeatureBlock> = states
                .iter()
                .map(|s| self.measured_features_for(s))
                .collect();
            self.emit_feature_cache_deltas(f0);
            for ((block, state), &sec) in blocks.iter().zip(states).zip(seconds) {
                // A measured state that no longer lowers is a failure
                // record, not a silent drop, and is traced.
                if let Err(e) = block.as_ref() {
                    self.telemetry.incr("features/extract_failed", 1);
                    self.telemetry
                        .emit(|| telemetry::TraceEvent::FeatureExtractFailed {
                            task: task.name.clone(),
                            error: e.clone(),
                        });
                }
                self.push_record(&task.name, block, state, sec);
            }
            self.telemetry
                .gauge_set("model/feature_bytes", self.features.resident_bytes() as f64);
            blocks
        };
        // Held-out calibration against the model the batch was picked
        // under (read, hence trained, here if nothing scored with it).
        if self.telemetry.is_tracing() {
            if let Some(model) = self.model() {
                self.emit_calibration(model, &task.name, &blocks, seconds);
            }
        }
        // A retrain frees the superseded model now, not when its successor
        // exists, and with it the scores it gave. Otherwise the model and
        // every cached score stay exactly as they were.
        if self.retrain_due(self.records.len()) {
            self.drop_model();
            self.trained_on = self.records.len();
            self.replay = false;
        }
    }

    fn is_trained(&self) -> bool {
        self.model().is_some()
    }
}

/// A model that scores uniformly at random: the "no fine-tuning guidance"
/// ablation baseline. Stateless — each score is a pure hash of
/// `(seed, state signature)`, so it is `Sync`, identical across repeated
/// queries, and independent of call order (a shared RNG stream would make
/// scores depend on which lane asked first).
pub struct RandomModel {
    seed: u64,
}

impl RandomModel {
    /// Creates a random model with a fixed seed.
    pub fn new(seed: u64) -> RandomModel {
        RandomModel { seed }
    }

    /// Pure splitmix64-style hash of `(seed, signature)` mapped to the
    /// 53-bit-mantissa unit interval `[0, 1)`.
    fn score_of(&self, sig: u64) -> f64 {
        let mut z = self.seed ^ sig.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl CostModel for RandomModel {
    fn predict(&self, _task: &SearchTask, states: &[State]) -> Vec<f64> {
        states
            .iter()
            .map(|s| self.score_of(s.signature()))
            .collect()
    }

    fn predict_refs(&self, _task: &SearchTask, states: &[&State]) -> Vec<f64> {
        states
            .iter()
            .map(|s| self.score_of(s.signature()))
            .collect()
    }

    fn update(&mut self, _task: &SearchTask, _states: &[State], _seconds: &[f64]) {}

    fn is_trained(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::{sample_program, AnnotationConfig};
    use crate::sketch::generate_sketches;
    use hwsim::{HardwareTarget, Measurer};
    use rand::prelude::*;
    use std::collections::HashSet;
    use std::sync::Arc;
    use tensor_ir::{DagBuilder, Expr, Reducer};

    fn task() -> SearchTask {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[128, 128]);
        let w = b.constant("B", &[128, 128]);
        b.compute_reduce("C", &[128, 128], &[128], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
                * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
        });
        SearchTask::new(
            "matmul128",
            Arc::new(b.build().unwrap()),
            HardwareTarget::intel_20core(),
        )
    }

    fn sample_states(task: &SearchTask, n: usize, seed: u64) -> Vec<State> {
        let sketches = generate_sketches(task);
        let cfg = AnnotationConfig::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        while out.len() < n {
            let sk = &sketches[rng.gen_range(0..sketches.len())];
            if let Some(s) = sample_program(sk, task, &cfg, &mut rng) {
                out.push(s);
            }
        }
        out
    }

    #[test]
    fn untrained_model_returns_zero() {
        let t = task();
        let m = LearnedCostModel::new();
        let states = sample_states(&t, 2, 0);
        assert!(!m.is_trained());
        assert_eq!(m.predict(&t, &states), vec![0.0, 0.0]);
    }

    #[test]
    fn trained_model_ranks_better_than_chance() {
        let t = task();
        let mut measurer = Measurer::new(t.target.clone());
        let train = sample_states(&t, 60, 1);
        let secs: Vec<f64> = train.iter().map(|s| measurer.measure(s).seconds).collect();
        let mut model = LearnedCostModel::new();
        model.update(&t, &train, &secs);
        assert!(model.is_trained());
        assert!(model.num_records() == 60);

        // Evaluate pairwise accuracy on held-out samples.
        let test = sample_states(&t, 40, 2);
        let test_secs: Vec<f64> = test.iter().map(|s| measurer.measure(s).seconds).collect();
        let pred = model.predict(&t, &test);
        let mut correct = 0;
        let mut total = 0;
        for i in 0..test.len() {
            for j in i + 1..test.len() {
                if (test_secs[i] / test_secs[j]).ln().abs() > 0.2 {
                    total += 1;
                    // Higher score should mean lower seconds.
                    if (pred[i] > pred[j]) == (test_secs[i] < test_secs[j]) {
                        correct += 1;
                    }
                }
            }
        }
        let acc = correct as f64 / total.max(1) as f64;
        assert!(acc > 0.65, "pairwise accuracy {acc} ({correct}/{total})");
    }

    #[test]
    fn per_node_scores_cover_compute_nodes() {
        let t = task();
        let mut model = LearnedCostModel::new();
        let mut measurer = Measurer::new(t.target.clone());
        let train = sample_states(&t, 20, 3);
        let secs: Vec<f64> = train.iter().map(|s| measurer.measure(s).seconds).collect();
        model.update(&t, &train, &secs);
        let per_node = model.predict_per_node(&t, &train[0]);
        // All statements fold back to base node "C" (cache stages included).
        assert!(per_node.contains_key("C"), "{per_node:?}");
    }

    #[test]
    fn per_node_scores_are_served_from_the_feature_cache_bit_for_bit() {
        for op in ["C2D", "GMM", "NRM"] {
            let dag = ansor_workloads::build_case(op, 0, 1).expect("shape 0 exists");
            let t = SearchTask::new(op, dag, HardwareTarget::intel_20core());
            let mut measurer = Measurer::new(t.target.clone());
            let train = sample_states(&t, 24, 9);
            let secs: Vec<f64> = train.iter().map(|s| measurer.measure(s).seconds).collect();
            let mut model = LearnedCostModel::new();
            model.update(&t, &train, &secs);
            let gbdt = model.model().expect("trained");
            for state in sample_states(&t, 8, 10) {
                let served = model.predict_per_node(&t, &state);
                // Recomputed from scratch, row by row.
                let program = tensor_ir::lower(&state).unwrap();
                let mut want: HashMap<String, f64> = HashMap::new();
                let analyses = tensor_ir::analyze(&program);
                let rows = ProgramFeatures::of_statements(&analyses).rows;
                for (a, row) in analyses.iter().zip(rows.segment_rows(0)) {
                    let name = &program.dag.nodes[a.buffer].name;
                    let base = name.split('.').next().unwrap().to_string();
                    *want.entry(base).or_insert(0.0) += gbdt.predict(row) as f64;
                }
                let bits = |m: &HashMap<String, f64>| -> Vec<(String, u64)> {
                    let mut v: Vec<_> = m.iter().map(|(k, s)| (k.clone(), s.to_bits())).collect();
                    v.sort();
                    v
                };
                assert!(!served.is_empty(), "{op}");
                assert_eq!(bits(&served), bits(&want), "{op}");
                // Asking again featurizes nothing.
                let (_, misses) = model.feature_cache_stats();
                assert_eq!(bits(&model.predict_per_node(&t, &state)), bits(&want));
                assert_eq!(model.feature_cache_stats().1, misses, "{op}");
            }
        }
    }

    #[test]
    fn per_node_scores_of_an_unlowerable_state_are_empty() {
        let t = task();
        let mut broken = sample_states(&t, 1, 12).remove(0);
        let sid = broken.stage_by_node_name("C").unwrap();
        broken.stages[sid].loop_order.pop();
        // Analysis builds no program, and still fails as lowering does.
        let message = tensor_ir::lower(&broken).unwrap_err().to_string();
        assert!(message.starts_with("lowering error: invalid transform: stage"));
        assert_eq!(
            ansor_features::extract_state_features(&broken).unwrap_err(),
            message
        );
        let mut model = LearnedCostModel::new();
        assert!(model.predict_per_node(&t, &broken).is_empty());
        assert_eq!(
            model.predict(&t, std::slice::from_ref(&broken)),
            vec![f64::NEG_INFINITY]
        );
        // Its record is a failure record: no rows, no time.
        model.update(&t, &[broken], &[1e-3]);
        let record = model.records.last().expect("recorded");
        assert_eq!(record.seconds, f64::INFINITY);
        assert_eq!(model.features.segment_len(record.seg), 0);
    }

    #[test]
    fn update_reuses_features_extracted_during_predict() {
        let t = task();
        let mut model = LearnedCostModel::new();
        let mut measurer = Measurer::new(t.target.clone());
        let (train, train_secs) = measured(&t, 20, 4);
        model.update(&t, &train, &train_secs);
        let states = sample_states(&t, 12, 5);
        let unique = states
            .iter()
            .map(|s| s.signature())
            .collect::<HashSet<_>>()
            .len() as u64;
        let secs: Vec<f64> = states.iter().map(|s| measurer.measure(s).seconds).collect();
        // Scoring with a trained model featurizes each new state once…
        let (h0, m0) = model.feature_cache_stats();
        model.predict(&t, &states);
        let (h1, m1) = model.feature_cache_stats();
        assert_eq!(m1 - m0, unique);
        // …and feeding the measurements back hits the cache for every state.
        model.update(&t, &states, &secs);
        let (h2, m2) = model.feature_cache_stats();
        assert_eq!(h2 - h1, states.len() as u64);
        assert_eq!(m2, m1);
        assert_eq!(h1 - h0, states.len() as u64 - unique);
        assert!(model.feature_bytes() > 0);
    }

    /// States of `t` sampled from each of its sketches, with the sketch's
    /// index, `per_sketch` from each.
    fn sampled_by_sketch(t: &SearchTask, per_sketch: usize, seed: u64) -> Vec<(State, usize)> {
        let cfg = AnnotationConfig::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for (id, sketch) in generate_sketches(t).iter().enumerate() {
            for _ in 0..per_sketch {
                if let Some(s) = sample_program(sketch, t, &cfg, &mut rng) {
                    out.push((s, id));
                }
            }
        }
        out
    }

    /// A state `validate` refuses that still replays its steps: the loop
    /// order lost an iterator.
    fn unlowerable(t: &SearchTask, seed: u64) -> State {
        let mut broken = sample_states(t, 1, seed).remove(0);
        let sid = broken.stage_by_node_name("C").unwrap();
        broken.stages[sid].loop_order.pop();
        assert!(broken.validate().is_err());
        broken
    }

    #[test]
    fn an_untrained_model_scores_by_validity_and_featurizes_nothing() {
        let t = task();
        let tel = telemetry::Telemetry::with_metrics();
        let mut model = LearnedCostModel::new();
        model.set_telemetry(tel.clone());
        let mut states = sample_states(&t, 16, 61);
        states.push(unlowerable(&t, 62));
        let refs: Vec<&State> = states.iter().collect();
        let mut want = vec![0.0; 16];
        want.push(f64::NEG_INFINITY);
        assert_eq!(model.predict(&t, &states), want);
        assert_eq!(model.predict_refs(&t, &refs), want);
        // Nothing lowered, featurized or cached; every score counted.
        assert_eq!(model.feature_cache_stats(), (0, 0));
        assert_eq!(model.cache_stats(), (0, 0));
        assert_eq!(tel.counter_value("model/predictions"), 34);
        assert_eq!(tel.counter_value("features/cache_misses"), 0);
        assert_eq!(tel.counter_value("model/score_cache_misses"), 0);
        // Per node, too: nothing to read, so nothing scored.
        for s in &states {
            assert!(model.predict_per_node(&t, s).is_empty());
        }
        assert_eq!(model.feature_cache_stats(), (0, 0));
        assert!(model.feature_cache().get(states[0].signature()).is_none());
        assert!(!model.is_trained());
    }

    /// The per-node map an untrained model gave while it still featurized:
    /// every node a statement stores to, scored 0.
    struct ZeroPerNode;

    impl CostModel for ZeroPerNode {
        fn predict(&self, _: &SearchTask, states: &[State]) -> Vec<f64> {
            vec![0.0; states.len()]
        }

        fn predict_per_node(&self, _: &SearchTask, state: &State) -> HashMap<String, f64> {
            let Ok(features) = extract_state_features(state) else {
                return HashMap::new();
            };
            features
                .buffers
                .iter()
                .map(|&b| {
                    let node = &state.dag.nodes[b].name;
                    (node.split('.').next().unwrap_or(node).to_string(), 0.0)
                })
                .collect()
        }

        fn update(&mut self, _: &SearchTask, _: &[State], _: &[f64]) {}

        fn is_trained(&self) -> bool {
            false
        }
    }

    #[test]
    fn crossover_under_an_untrained_model_decides_as_when_it_featurized() {
        use crate::evolution::{crossover, Individual};
        let untrained = LearnedCostModel::new();
        let mut pairs = 0;
        for (op, target) in [
            ("C2D", HardwareTarget::intel_20core()),
            ("GMM", HardwareTarget::nvidia_v100()),
            ("NRM", HardwareTarget::intel_20core()),
        ] {
            let dag = ansor_workloads::build_case(op, 0, 1).expect("shape 0 exists");
            let t = SearchTask::new(op, dag, target);
            let parents: Vec<Individual> = sampled_by_sketch(&t, 3, 71)
                .into_iter()
                .map(|(s, sketch)| Individual::new(s, sketch))
                .collect();
            for a in &parents {
                for b in parents.iter().filter(|b| b.sketch == a.sketch) {
                    let got = crossover(&t, a, b, &untrained).map(|c| c.signature());
                    let want = crossover(&t, a, b, &ZeroPerNode).map(|c| c.signature());
                    assert_eq!(got, want, "{op}");
                    pairs += 1;
                }
            }
        }
        assert!(pairs > 50, "{pairs} pairs");
        assert_eq!(untrained.feature_cache_stats(), (0, 0));
    }

    /// `n` measured samples of `t`, from `seed`.
    fn measured(t: &SearchTask, n: usize, seed: u64) -> (Vec<State>, Vec<f64>) {
        let mut measurer = Measurer::new(t.target.clone());
        let states = sample_states(t, n, seed);
        let secs = states.iter().map(|s| measurer.measure(s).seconds).collect();
        (states, secs)
    }

    /// `batches` measured batches of `size` states, the ones
    /// [`session_of`] feeds its model, in order.
    fn batches(t: &SearchTask, batches: usize, size: usize) -> (Vec<State>, Vec<f64>) {
        let (mut states, mut secs) = (Vec::new(), Vec::new());
        for b in 0..batches {
            let (s, x) = measured(t, size, 100 + b as u64);
            states.extend(s);
            secs.extend(x);
        }
        (states, secs)
    }

    /// Restores `model` from `ck` and the valid records of a log that
    /// measured `states` at `secs`, as a policy hands them back.
    fn restore_logged(
        model: &mut LearnedCostModel,
        ck: &crate::checkpoint::ModelCheckpoint,
        t: &SearchTask,
        states: &[State],
        secs: &[f64],
    ) -> Result<(), String> {
        assert!(
            secs.iter().all(|s| s.is_finite()),
            "a model gets valid records"
        );
        let log: Vec<_> = states
            .iter()
            .zip(secs)
            .enumerate()
            .map(|(i, (s, &seconds))| TuningRecordLog {
                task: t.name.clone(),
                trial: i as u64 + 1,
                steps: s.steps.clone(),
                seconds,
                error: None,
            })
            .collect();
        model.restore(ck, log.iter().zip(states.iter().cloned()))
    }

    fn bits(scores: &[f64]) -> Vec<u64> {
        scores.iter().map(|s| s.to_bits()).collect()
    }

    #[test]
    fn update_and_restore_train_nothing_until_the_first_read() {
        let t = task();
        let (train, secs) = measured(&t, 30, 6);
        let probe = sample_states(&t, 8, 7);
        let passes = |tel: &telemetry::Telemetry| tel.counter_value("gbdt/train_passes");
        let tel = telemetry::Telemetry::with_metrics();
        let mut model = LearnedCostModel::new();
        model.set_telemetry(tel.clone());
        model.update(&t, &train, &secs);
        assert_eq!(passes(&tel), 0);
        let ck = model.checkpoint();
        assert_eq!(ck.train_passes, 0);

        let restored_tel = telemetry::Telemetry::with_metrics();
        let mut restored = LearnedCostModel::new();
        restored.set_telemetry(restored_tel.clone());
        restore_logged(&mut restored, &ck, &t, &train, &secs).unwrap();
        assert_eq!(passes(&restored_tel), 0);

        // The first read trains, once; both train the same model.
        let want = bits(&model.predict(&t, &probe));
        assert_eq!(bits(&restored.predict(&t, &probe)), want);
        assert!(model.is_trained() && restored.is_trained());
        assert_eq!(bits(&restored.predict(&t, &probe)), want);
        assert_eq!((passes(&tel), passes(&restored_tel)), (1, 1));
        assert!(want.iter().collect::<HashSet<_>>().len() > 1);
    }

    #[test]
    fn a_retrain_nothing_read_changes_no_score() {
        let t = task();
        let (first, first_secs) = measured(&t, 20, 21);
        let (second, second_secs) = measured(&t, 20, 22);
        let probe = sample_states(&t, 8, 23);
        // Read after every update, as the search does: two passes.
        let tel = telemetry::Telemetry::with_metrics();
        let mut read_each = LearnedCostModel::new();
        read_each.set_telemetry(tel.clone());
        read_each.update(&t, &first, &first_secs);
        let after_first = bits(&read_each.predict(&t, &probe));
        read_each.update(&t, &second, &second_secs);
        let want = bits(&read_each.predict(&t, &probe));
        assert_ne!(after_first, want);
        assert_eq!(tel.counter_value("gbdt/train_passes"), 2);
        // Two updates and then the first read: one pass, the same model.
        let tel = telemetry::Telemetry::with_metrics();
        let mut read_last = LearnedCostModel::new();
        read_last.set_telemetry(tel.clone());
        read_last.update(&t, &first, &first_secs);
        read_last.update(&t, &second, &second_secs);
        assert_eq!(bits(&read_last.predict(&t, &probe)), want);
        assert_eq!(tel.counter_value("gbdt/train_passes"), 1);
    }

    #[test]
    fn an_update_with_nothing_to_train_on_keeps_the_previous_model() {
        let t = task();
        let (good, good_secs) = measured(&t, 20, 24);
        let (failed, _) = measured(&t, 8, 25);
        let failed_secs = vec![f64::INFINITY; failed.len()];
        let probe = sample_states(&t, 8, 26);
        let windowed = || {
            let mut m = LearnedCostModel::new();
            m.max_train_records = failed.len();
            m
        };
        let mut only_good = windowed();
        only_good.update(&t, &good, &good_secs);
        let want = bits(&only_good.predict(&t, &probe));
        assert!(want.iter().collect::<HashSet<_>>().len() > 1);
        // The failed batch fills the window: the model of the records before
        // it stays, whether it was read before that update or is read after.
        for read_between in [true, false] {
            let mut m = windowed();
            m.update(&t, &good, &good_secs);
            if read_between {
                assert_eq!(bits(&m.predict(&t, &probe)), want);
            }
            m.update(&t, &failed, &failed_secs);
            assert_eq!(m.num_records(), good.len() + failed.len());
            assert_eq!(bits(&m.predict(&t, &probe)), want, "{read_between}");
            assert_eq!(m.checkpoint().trained_on, good.len());
        }
    }

    /// A warm start of `warm` measured samples (none if 0), then `batches`
    /// updates of `size` each, the model read after every one as a session
    /// reads it; returns the model, its telemetry, and the trained prefix
    /// after each batch.
    fn session_of(
        t: &SearchTask,
        warm: usize,
        batches: usize,
        size: usize,
    ) -> (LearnedCostModel, telemetry::Telemetry, Vec<usize>) {
        let probe = sample_states(t, 4, 99);
        let tel = telemetry::Telemetry::with_metrics();
        let mut model = LearnedCostModel::new();
        model.set_telemetry(tel.clone());
        if warm > 0 {
            let (states, secs) = measured(t, warm, 7);
            model.update(t, &states, &secs);
            model.end_warm_start();
            model.predict(t, &probe);
        }
        let mut prefixes = Vec::new();
        for b in 0..batches {
            let (states, secs) = measured(t, size, 100 + b as u64);
            model.update(t, &states, &secs);
            model.predict(t, &probe);
            prefixes.push(model.trained_on);
        }
        (model, tel, prefixes)
    }

    #[test]
    fn a_model_retrains_once_its_window_has_doubled() {
        // Batches of 24, read after every one: each retrain waits for as
        // many new records as the last one was trained on.
        let t = task();
        let (model, tel, prefixes) = session_of(&t, 0, 16, 24);
        assert_eq!(model.num_records(), 384);
        let mut trained: Vec<usize> = prefixes.clone();
        trained.dedup();
        assert_eq!(trained, [24, 48, 96, 192, 384]);
        assert_eq!(tel.counter_value("gbdt/train_passes"), 5);
        // From 192 records on the model waits for 192 more.
        assert_eq!(prefixes[7..15], [192; 8]);
    }

    #[test]
    fn a_cold_session_of_sixteen_rounds_trains_at_64_128_256_and_512_records() {
        // Sixteen rounds of 64 read the model after the first fifteen
        // updates; nothing reads the model of the sixteenth.
        let t = task();
        let (mut model, tel, prefixes) = session_of(&t, 0, 15, 64);
        let mut trained: Vec<usize> = prefixes.clone();
        trained.dedup();
        assert_eq!(trained, [64, 128, 256, 512]);
        assert_eq!(prefixes[7..], [512; 8]);
        let (states, secs) = measured(&t, 64, 115);
        model.update(&t, &states, &secs);
        assert_eq!((model.num_records(), model.trained_on), (1024, 1024));
        assert_eq!(tel.counter_value("gbdt/train_passes"), 4);
    }

    #[test]
    fn a_full_window_retrains_once_per_window_of_new_records() {
        // Once the trained window is capped at `max_train_records`, a
        // retrain waits for that many new records, not for as many as the
        // model was trained on: with a window of 32 and batches of 8, the
        // model moves at 32, 64, 96, 128, where a geometric schedule would
        // wait from 64 to 128. The default window of 800 retrains every 800.
        let t = task();
        let probe = sample_states(&t, 4, 99);
        let tel = telemetry::Telemetry::with_metrics();
        let mut model = LearnedCostModel::new();
        model.set_telemetry(tel.clone());
        model.max_train_records = 32;
        let mut prefixes = Vec::new();
        for b in 0..17 {
            let (states, secs) = measured(&t, 8, 200 + b);
            model.update(&t, &states, &secs);
            model.predict(&t, &probe);
            prefixes.push(model.trained_on);
        }
        prefixes.dedup();
        assert_eq!(prefixes, [8, 16, 32, 64, 96, 128]);
        assert_eq!(tel.counter_value("gbdt/train_passes"), 6);
    }

    #[test]
    fn a_session_of_four_rounds_trains_the_models_of_its_first_two_batches() {
        // Four rounds read the model after three updates: the first two
        // retrain, whatever the batch size; the third adds half a window.
        // The fourth doubles it, and nothing reads that model.
        let t = task();
        for size in [5, 16, 64] {
            let (mut model, tel, prefixes) = session_of(&t, 0, 3, size);
            assert_eq!(prefixes, [size, 2 * size, 2 * size], "{size}");
            assert_eq!(tel.counter_value("gbdt/train_passes"), 2, "{size}");
            let (states, secs) = measured(&t, size, 103);
            model.update(&t, &states, &secs);
            assert_eq!(model.trained_on, 4 * size, "{size}");
            assert_eq!(tel.counter_value("gbdt/train_passes"), 2, "{size}");
        }
    }

    #[test]
    fn a_warm_session_of_four_rounds_trains_the_models_of_its_first_two_batches() {
        // The window counts no record of the warm start: after 96 of them
        // the session's own batches retrain where a cold session's do. Were
        // they counted, the model would wait for 96 new records.
        let t = task();
        for size in [5, 16, 64] {
            let (model, tel, prefixes) = session_of(&t, 96, 3, size);
            let want = [96 + size, 96 + 2 * size, 96 + 2 * size];
            assert_eq!(prefixes, want, "{size}");
            // The warm start's pass, then one per batch before the last.
            assert_eq!(tel.counter_value("gbdt/train_passes"), 3, "{size}");
            assert_eq!(model.checkpoint().warm_records, 96, "{size}");
        }
        // A checkpoint carries the count: the resumed model takes the next
        // retrain where the killed one would. Counting the warm start, the
        // model of 128 records would wait for 128 more.
        let (mut model, _, _) = session_of(&t, 96, 3, 16);
        let mut restored = LearnedCostModel::new();
        let (warm, warm_secs) = measured(&t, 96, 7);
        restored.update(&t, &warm, &warm_secs);
        restored.end_warm_start();
        let (states, secs) = batches(&t, 3, 16);
        restore_logged(&mut restored, &model.checkpoint(), &t, &states, &secs).unwrap();
        let (states, secs) = measured(&t, 16, 43);
        model.update(&t, &states, &secs);
        restored.update(&t, &states, &secs);
        assert_eq!((model.trained_on, restored.trained_on), (160, 160));
    }

    #[test]
    fn an_update_that_does_not_retrain_serves_every_score_from_the_cache() {
        let t = task();
        let (mut model, tel, prefixes) = session_of(&t, 0, 2, 16);
        assert_eq!(prefixes, [16, 32]);
        let probe = sample_states(&t, 12, 31);
        let unique = probe
            .iter()
            .map(|s| s.signature())
            .collect::<HashSet<_>>()
            .len();
        let (h0, m0) = model.cache_stats();
        let want = bits(&model.predict(&t, &probe));
        assert_eq!(
            model.cache_stats(),
            (h0 + (probe.len() - unique) as u64, m0 + unique as u64)
        );
        let (states, secs) = measured(&t, 16, 32);
        model.update(&t, &states, &secs);
        assert_eq!(model.trained_on, 32);
        let passes = tel.counter_value("gbdt/train_passes");
        let (h1, m1) = model.cache_stats();
        assert_eq!(bits(&model.predict(&t, &probe)), want);
        // Every score was a hit: no state was featurized or run through
        // the ensemble again, and nothing trained.
        assert_eq!(model.cache_stats(), (h1 + probe.len() as u64, m1));
        assert_eq!(tel.counter_value("gbdt/train_passes"), passes);
    }

    #[test]
    fn a_checkpoint_between_retrains_restores_the_model_it_held() {
        let t = task();
        let (mut model, tel, prefixes) = session_of(&t, 0, 3, 16);
        assert_eq!(prefixes[2], 32);
        let ck = model.checkpoint();
        assert_eq!((model.num_records(), ck.trained_on), (48, 32));
        assert_eq!((ck.train_passes, ck.trained), (2, true));
        let restored_tel = telemetry::Telemetry::with_metrics();
        let mut restored = LearnedCostModel::new();
        restored.set_telemetry(restored_tel.clone());
        let (states, secs) = batches(&t, 3, 16);
        restore_logged(&mut restored, &ck, &t, &states, &secs).unwrap();
        let probe = sample_states(&t, 8, 41);
        let want = bits(&model.predict(&t, &probe));
        assert_eq!(bits(&restored.predict(&t, &probe)), want);
        // The killed run had run that pass: repeating it counts nothing.
        let passes = |tel: &telemetry::Telemetry| tel.counter_value("gbdt/train_passes");
        assert_eq!((passes(&tel), passes(&restored_tel)), (2, 2));
        // And both take the next retrain at the same point, counted.
        let (states, secs) = measured(&t, 16, 42);
        model.update(&t, &states, &secs);
        restored.update(&t, &states, &secs);
        assert_eq!((model.trained_on, restored.trained_on), (64, 64));
        let want = bits(&model.predict(&t, &probe));
        assert_eq!(bits(&restored.predict(&t, &probe)), want);
        assert_eq!((passes(&tel), passes(&restored_tel)), (3, 3));
    }

    #[test]
    fn checkpoint_restore_reproduces_model_and_errors() {
        let t = task();
        let (train, secs) = measured(&t, 30, 6);
        let mut model = LearnedCostModel::new();
        model.update(&t, &train, &secs);
        let ck = model.checkpoint();
        assert_eq!(ck.trained_on, train.len());
        let restore =
            |model: &mut LearnedCostModel, ck| restore_logged(model, ck, &t, &train, &secs);
        let mut restored = LearnedCostModel::new();
        restore(&mut restored, &ck).unwrap();
        // The records come back row for row, with the programs a memo
        // keys passes by.
        assert_eq!(restored.num_records(), model.num_records());
        for (a, b) in model.records.iter().zip(&restored.records) {
            assert_eq!(
                model.features.segment_slice(a.seg),
                restored.features.segment_slice(b.seg)
            );
            assert_eq!(
                (a.seconds.to_bits(), &a.task, a.sig),
                (b.seconds.to_bits(), &b.task, b.sig)
            );
        }
        let probe = sample_states(&t, 8, 7);
        assert_eq!(
            bits(&model.predict(&t, &probe)),
            bits(&restored.predict(&t, &probe))
        );
        // A checkpoint the records cannot account for is refused.
        let refused = |ck| restore(&mut LearnedCostModel::new(), ck).unwrap_err();
        let more = crate::checkpoint::ModelCheckpoint {
            trained_on: train.len() + 1,
            ..ck.clone()
        };
        assert!(refused(&more).contains("trained on 31 records"));
        let warm = crate::checkpoint::ModelCheckpoint {
            warm_records: 4,
            ..ck.clone()
        };
        assert!(refused(&warm).contains("warm-start records"));
    }

    /// A model sharing `memo` (and a fresh rows cache), with its telemetry.
    fn sharing(memo: &Arc<ModelMemo>) -> (LearnedCostModel, telemetry::Telemetry) {
        let tel = telemetry::Telemetry::with_metrics();
        let mut model = LearnedCostModel::new();
        model.set_telemetry(tel.clone());
        model.share_models(Arc::clone(memo), Arc::new(SigCache::new(1 << 10)));
        (model, tel)
    }

    fn memo_hits(tel: &telemetry::Telemetry) -> u64 {
        tel.counter_value("model/memo_hits")
    }

    #[test]
    fn a_training_pass_is_recalled_only_for_the_same_history_and_parameters() {
        let t = task();
        let (states, secs) = measured(&t, 24, 81);
        let probe = sample_states(&t, 8, 82);
        let memo = Arc::new(ModelMemo::new(16));
        let (mut first, tel) = sharing(&memo);
        first.update(&t, &states, &secs);
        let want = bits(&first.predict(&t, &probe));
        assert_eq!((memo.len(), memo_hits(&tel)), (1, 0));

        // Each history differs from the first in one respect.
        let renamed = SearchTask::new("matmul128-again", Arc::clone(&t.dag), t.target.clone());
        let mut other_program = states.clone();
        other_program[5] = sample_states(&t, 1, 83).remove(0);
        assert_ne!(other_program[5].signature(), states[5].signature());
        let mut other_seconds = secs.clone();
        other_seconds[5] = f64::from_bits(secs[5].to_bits() + 1);
        let histories: [(&SearchTask, &[State], &[f64]); 4] = [
            (&t, &other_program, &secs),
            (&t, &states, &other_seconds),
            (&renamed, &states, &secs),
            (&t, &states[..23], &secs[..23]),
        ];
        for (i, (task, states, secs)) in histories.into_iter().enumerate() {
            let (mut m, tel) = sharing(&memo);
            m.update(task, states, secs);
            m.predict(task, &probe);
            assert_eq!((memo.len(), memo_hits(&tel)), (2 + i, 0), "history {i}");
        }
        // So do other GBDT parameters on the same history.
        let (mut m, tel) = sharing(&memo);
        m.params.n_trees -= 1;
        m.update(&t, &states, &secs);
        m.predict(&t, &probe);
        assert_eq!((memo.len(), memo_hits(&tel)), (6, 0));
        // The same history and parameters recall the first model.
        let (mut m, tel) = sharing(&memo);
        m.update(&t, &states, &secs);
        assert_eq!(bits(&m.predict(&t, &probe)), want);
        assert_eq!((memo.len(), memo_hits(&tel)), (6, 1));
    }

    #[test]
    fn a_restored_model_recalls_the_models_its_run_trained() {
        let t = task();
        let (states, secs) = measured(&t, 24, 84);
        let (more, more_secs) = measured(&t, 24, 85);
        let probe = sample_states(&t, 8, 86);
        let memo = Arc::new(ModelMemo::new(16));
        let (mut model, _) = sharing(&memo);
        model.update(&t, &states, &secs);
        let want = bits(&model.predict(&t, &probe));
        assert_eq!(memo.len(), 1);

        // A restore replays the programs, so the history is the run's.
        let (mut restored, tel) = sharing(&memo);
        restore_logged(&mut restored, &model.checkpoint(), &t, &states, &secs).unwrap();
        assert_eq!(bits(&restored.predict(&t, &probe)), want);
        assert_eq!((memo.len(), memo_hits(&tel)), (1, 1));
        // So after records of its own, too.
        model.update(&t, &more, &more_secs);
        restored.update(&t, &more, &more_secs);
        let want = bits(&model.predict(&t, &probe));
        assert_eq!(memo.len(), 2);
        assert_eq!(bits(&restored.predict(&t, &probe)), want);
        assert_eq!((memo.len(), memo_hits(&tel)), (2, 2));
        assert_eq!(tel.counter_value("gbdt/train_passes"), 2);
    }

    #[test]
    fn two_models_on_one_history_share_one_fit_and_its_scores() {
        let t = task();
        let (states, secs) = measured(&t, 32, 87);
        let probe = sample_states(&t, 12, 88);
        let memo = Arc::new(ModelMemo::new(16));
        let (mut a, a_tel) = sharing(&memo);
        let (mut b, b_tel) = sharing(&memo);
        let mut private = LearnedCostModel::new();
        for m in [&mut a, &mut b, &mut private] {
            m.update(&t, &states, &secs);
        }
        let want = bits(&private.predict(&t, &probe));
        assert_eq!(bits(&a.predict(&t, &probe)), want);
        let (_, a_misses) = a.cache_stats();
        assert!(a_misses > 0);
        // `b` recalls `a`'s model and every score `a` gave with it.
        let (h0, m0) = b.cache_stats();
        assert_eq!(bits(&b.predict(&t, &probe)), want);
        assert_eq!(b.cache_stats(), (h0 + probe.len() as u64, m0));
        assert_eq!((memo_hits(&a_tel), memo_hits(&b_tel)), (0, 1));
        let (Some(Some(ma)), Some(Some(mb))) = (a.model.get(), b.model.get()) else {
            panic!("both trained")
        };
        assert!(Arc::ptr_eq(ma, mb));
        assert_eq!(memo.len(), 1);
        // The recalled pass is traced and counted as the fitted one.
        for tel in [&a_tel, &b_tel] {
            assert_eq!(tel.counter_value("gbdt/train_passes"), 1);
            assert_eq!(
                tel.counter_value("gbdt/trees_fit"),
                ma.gbdt.num_trees() as u64
            );
        }
    }

    #[test]
    fn random_model_is_deterministic_per_seed() {
        let t = task();
        let states = sample_states(&t, 3, 4);
        let m1 = RandomModel::new(9);
        let m2 = RandomModel::new(9);
        assert_eq!(m1.predict(&t, &states), m2.predict(&t, &states));
    }
}
