//! Versioned tuning checkpoints: crash-safe persistence of a run's full
//! search state.
//!
//! A checkpoint captures everything the search stack needs to continue a
//! killed run *bit-identically*: RNG streams (the vendored xoshiro's raw
//! state words), trial budgets, per-task best states (as replayable
//! transform-step lists), the measured-signature and quarantine sets, the
//! cost model's training records, the measurer's trial/simulated-clock
//! accounting, and the offset of records already flushed to the on-disk
//! log. The cost model itself is *not* serialized — GBDT training is a
//! deterministic pure function of the record prefix it was trained on, so
//! restoring loads the records and that prefix's length, and the first
//! read trains the identical model (see
//! `docs/ROBUSTNESS.md`).
//!
//! Files are JSON with a leading `version` field; [`TuneCheckpoint::save`]
//! writes atomically (temp file + rename) so a crash mid-write never
//! corrupts the previous checkpoint.

use std::path::Path;

use serde::{Deserialize, Serialize};
use tensor_ir::Step;

use crate::lineage::Lineage;
use crate::records::TuningRecordLog;
use crate::search_policy::TuningRecord;
use crate::task_scheduler::SchedulerRecord;

/// Current checkpoint format version. Bump on incompatible changes; load
/// rejects mismatches instead of misinterpreting old files. Version 2:
/// `measured_signatures` and `quarantined` hold DAG-seeded structural
/// signatures; a version-1 file's sets name no program of this build, and
/// resuming from it would re-measure what the run had already measured.
pub const CHECKPOINT_VERSION: u64 = 2;

/// One retained best-measured program: enough to rebuild the
/// `Individual` by replaying its steps on the task DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BestEntry {
    /// Measured seconds.
    pub seconds: f64,
    /// Index into the task's sketch list.
    pub sketch: usize,
    /// The program's transform-step history.
    pub steps: Vec<Step>,
    /// Provenance record. Defaulted (Seed lineage) when loading
    /// checkpoints written before lineage existed — same compatibility
    /// pattern as `ModelRecord::error`, so no version bump.
    #[serde(default)]
    pub lineage: Lineage,
}

/// Serialized state of one `SketchPolicy`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyCheckpoint {
    /// Task name (validated against the policy on restore).
    pub task: String,
    /// Raw xoshiro256++ state words of the policy RNG. This single stream
    /// also roots each round's evolution: the policy draws one
    /// `evolution_seed` word per round, from which every generation's
    /// per-lane offspring streams are re-derived (`derive_seed`), so
    /// restoring these words makes kill+resume bit-identical through
    /// evolution without persisting any per-lane state.
    pub rng: Vec<u64>,
    /// Measurement trials consumed.
    pub trials: u64,
    /// Tuning rounds run.
    pub rounds: u64,
    /// Signatures of every measured program, sorted for stable output.
    pub measured_signatures: Vec<u64>,
    /// Quarantined (terminally-failed) signatures, sorted.
    pub quarantined: Vec<u64>,
    /// Best measured programs, ascending by seconds.
    pub best_measured: Vec<BestEntry>,
    /// Per-trial tuning-curve history.
    pub history: Vec<TuningRecord>,
    /// Replayable per-trial records.
    pub log: Vec<TuningRecordLog>,
}

/// One cost-model training record. `seconds` is `None` for non-finite
/// (failed) measurements, which JSON cannot encode directly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelRecord {
    /// Per-statement feature vectors (f32 widened to f64 losslessly; JSON
    /// float printing round-trips exactly).
    pub features: Vec<Vec<f32>>,
    /// Measured seconds; `None` encodes a non-finite time.
    pub seconds: Option<f64>,
    /// Task the record came from (normalization group).
    pub task: String,
    /// Why feature extraction failed, for records measured on states that
    /// later failed to lower (their `features` are empty). `None` for
    /// healthy records; defaulted on load.
    #[serde(default)]
    pub error: Option<String>,
}

/// Serialized state of a `LearnedCostModel`: its record list and how much
/// of it the model is trained on. The trained GBDT is a deterministic
/// function of that prefix, so no trees are persisted: the restored model
/// trains when it is first read.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ModelCheckpoint {
    /// Stored training records, oldest first.
    pub records: Vec<ModelRecord>,
    /// GBDT training passes run so far (the `gbdt/train_passes` telemetry
    /// counter; a model still waiting for its first read is not among
    /// them). Restored into the resumed run's telemetry so
    /// `GbdtRound` trace events keep numbering where the killed run left
    /// off.
    pub train_passes: u64,
    /// Length of the record prefix the model is trained on: `update`
    /// retrains only once its window has doubled, so the model can lag the
    /// records. `None` (a checkpoint written before the field existed, when
    /// every update retrained) restores as trained on every record.
    #[serde(default)]
    pub trained_on: Option<usize>,
    /// Whether that prefix's training pass had already run (is among
    /// `train_passes`). The killed run then never runs it again, so the
    /// resumed model's first read repeats it silently: no `GbdtRound`
    /// event, no pass counted. Absent: `false`.
    #[serde(default)]
    pub trained: bool,
    /// How many of the records a warm start absorbed before the session
    /// measured anything. The retrain window counts only the records after
    /// them. Absent: 0, a cold session.
    #[serde(default)]
    pub warm_records: usize,
}

/// Serialized state of a `TaskScheduler` (per-task policies included).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerCheckpoint {
    /// Raw xoshiro256++ state words of the scheduler RNG.
    pub rng: Vec<u64>,
    /// Units allocated per task.
    pub allocations: Vec<u64>,
    /// Exhausted-task flags.
    pub exhausted: Vec<bool>,
    /// Per-task best-latency history (`gᵢ` after each allocated unit);
    /// `None` encodes a non-finite latency (task not yet measured).
    pub best_history: Vec<Vec<Option<f64>>>,
    /// Step-by-step scheduling history.
    pub history: Vec<SchedulerRecord>,
    /// Per-task policy checkpoints, in task order.
    pub policies: Vec<PolicyCheckpoint>,
    /// Shared cost model.
    pub model: ModelCheckpoint,
}

/// Top-level checkpoint written by `ansor-tune --checkpoint`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u64,
    /// Invocation fingerprint (workload + options + seed + fault spec);
    /// resume refuses a checkpoint taken under different settings.
    pub fingerprint: String,
    /// Measurer trial counter.
    pub measurer_trials: u64,
    /// Measurer simulated-fault clock (nanoseconds).
    pub sim_fault_nanos: u64,
    /// Number of tuning records already flushed to the `--log` file, so a
    /// resumed run appends only the remainder.
    pub records_flushed: usize,
    /// Single-op mode state (policy + model).
    pub single: Option<SinglePolicyCheckpoint>,
    /// Network (task scheduler) mode state.
    pub scheduler: Option<SchedulerCheckpoint>,
}

/// Single-op mode payload: one policy plus the cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SinglePolicyCheckpoint {
    /// The tuning policy.
    pub policy: PolicyCheckpoint,
    /// The learned cost model.
    pub model: ModelCheckpoint,
}

impl TuneCheckpoint {
    /// Writes the checkpoint atomically: serialize to `<path>.tmp`, then
    /// rename over `path`. A crash mid-write leaves the previous file
    /// intact.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        let json = serde_json::to_string(self).expect("checkpoint serializes");
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, path)
    }

    /// Loads and validates a checkpoint file.
    pub fn load(path: impl AsRef<Path>) -> Result<TuneCheckpoint, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
        let ck: TuneCheckpoint = serde_json::from_str(&text)
            .map_err(|e| format!("corrupt checkpoint {}: {e:?}", path.display()))?;
        if ck.version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint {} has version {} (expected {CHECKPOINT_VERSION})",
                path.display(),
                ck.version
            ));
        }
        Ok(ck)
    }
}

/// Converts raw RNG words from a checkpoint back into a fixed-size array,
/// validating the word count.
pub fn rng_state_from(words: &[u64]) -> Result<[u64; 4], String> {
    words
        .try_into()
        .map_err(|_| format!("bad RNG state: {} words (expected 4)", words.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TuneCheckpoint {
        TuneCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: "single:GMM:s0:b1:intel:t64:seed0:faults=none".into(),
            measurer_trials: 32,
            sim_fault_nanos: 1_500_000_000,
            records_flushed: 16,
            single: Some(SinglePolicyCheckpoint {
                policy: PolicyCheckpoint {
                    task: "GMM:s0b1".into(),
                    rng: vec![1, 2, 3, 4],
                    trials: 32,
                    rounds: 2,
                    measured_signatures: vec![5, 9, 11],
                    quarantined: vec![9],
                    best_measured: vec![BestEntry {
                        seconds: 1.25e-3,
                        sketch: 0,
                        steps: vec![Step::Split {
                            node: "C".into(),
                            iter: "i".into(),
                            lengths: vec![8],
                        }],
                        lineage: crate::lineage::Lineage {
                            op: crate::lineage::Operator::MutateTileSize,
                            generation: 2,
                            parents: vec![5],
                        },
                    }],
                    history: vec![TuningRecord {
                        trial: 1,
                        seconds: 2e-3,
                        best_seconds: 2e-3,
                    }],
                    log: vec![],
                },
                model: ModelCheckpoint {
                    records: vec![ModelRecord {
                        features: vec![vec![0.5, 0.25]],
                        seconds: Some(2e-3),
                        task: "GMM:s0b1".into(),
                        error: None,
                    }],
                    train_passes: 2,
                    trained_on: Some(1),
                    trained: true,
                    warm_records: 1,
                },
            }),
            scheduler: None,
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let ck = sample();
        let json = serde_json::to_string(&ck).unwrap();
        let back: TuneCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(ck, back);
    }

    #[test]
    fn save_load_round_trip_and_atomicity() {
        let dir = std::env::temp_dir().join(format!("ansor-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let ck = sample();
        ck.save(&path).unwrap();
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp file renamed away"
        );
        let back = TuneCheckpoint::load(&path).unwrap();
        assert_eq!(ck, back);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let dir = std::env::temp_dir().join(format!("ansor-ckpt2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.ckpt");
        // Version 1 is the format before signatures were seeded by the
        // DAG: its dedup and quarantine sets are stale, so it is refused
        // like any other foreign version.
        for version in [1, 999] {
            let mut ck = sample();
            ck.version = version;
            ck.save(&path).unwrap();
            let err = TuneCheckpoint::load(&path).unwrap_err();
            assert!(
                err.contains(&format!("version {version} (expected 2)")),
                "{err}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_finite_seconds_survive_via_option() {
        let rec = ModelRecord {
            features: vec![],
            seconds: None,
            task: "t".into(),
            error: Some("lowering: unbound iterator".into()),
        };
        let json = serde_json::to_string(&rec).unwrap();
        let back: ModelRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.seconds, None);
        assert_eq!(back.error.as_deref(), Some("lowering: unbound iterator"));
    }

    #[test]
    fn records_without_error_field_still_load() {
        // Version-1 checkpoints written before the `error` field existed.
        let json = r#"{"features":[[1.0]],"seconds":1e-3,"task":"t"}"#;
        let back: ModelRecord = serde_json::from_str(json).unwrap();
        assert_eq!(back.error, None);
        assert_eq!(back.seconds, Some(1e-3));
    }

    #[test]
    fn model_checkpoints_with_a_surrogate_field_still_load() {
        // Checkpoints written while the (since removed) step-sequence
        // surrogate existed carry its accumulators; the vendored serde
        // ignores unknown keys, and resume depends on that.
        let json = r#"{"records":[],"train_passes":3,"surrogate":{"version":1,"lambda":1.0,"sxx":[0.5,0.0],"sxy":[0.25,0.0],"updates":2,"task_best":[["GMM:s0b1",2e-3]]}}"#;
        let back: ModelCheckpoint = serde_json::from_str(json).unwrap();
        assert_eq!(back.train_passes, 3);
        assert!(back.records.is_empty());
        // Written before the trained prefix was recorded: every record,
        // not yet trained, none of them from a warm start.
        assert_eq!((back.trained_on, back.trained), (None, false));
        assert_eq!(back.warm_records, 0);
    }

    #[test]
    fn best_entries_without_lineage_field_still_load() {
        // Version-1 checkpoints written before lineage existed.
        let json = r#"{"seconds":1e-3,"sketch":2,"steps":[]}"#;
        let back: BestEntry = serde_json::from_str(json).unwrap();
        assert_eq!(back.lineage, Lineage::default());
        assert_eq!(back.sketch, 2);
    }

    #[test]
    fn best_entries_whose_lineage_names_its_rules_still_load() {
        // Written while each lineage carried a copy of its sketch's rule
        // chain; the chain is now read from the sketch, and the vendored
        // serde ignores the key.
        let json = r#"{"seconds":1e-3,"sketch":1,"steps":[],"lineage":{"generation":3,"op":"Crossover","parents":[11,29],"rules":["multi-level-tiling","add-cache-write"]}}"#;
        let back: BestEntry = serde_json::from_str(json).unwrap();
        let want = Lineage {
            op: crate::lineage::Operator::Crossover,
            generation: 3,
            parents: vec![11, 29],
        };
        assert_eq!((back.sketch, back.lineage), (1, want));
    }

    #[test]
    fn rng_state_validation() {
        assert_eq!(rng_state_from(&[1, 2, 3, 4]).unwrap(), [1, 2, 3, 4]);
        assert!(rng_state_from(&[1, 2]).is_err());
    }
}
