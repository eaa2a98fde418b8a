//! Versioned tuning checkpoints: a run's record log plus the search state
//! the log cannot give back.
//!
//! What a policy derives from its measurements — the measured-signature
//! and quarantine sets, the tuning curve, the best programs, the cost
//! model's feature rows — is a pure function of its records (task, steps,
//! seconds), and so is the GBDT of a trained record prefix. The order the
//! cost model received its records in follows from the log too: a session
//! hands it each valid record in trial order, and a task scheduler's step
//! history says how many trials each unit measured of which task. A
//! checkpoint keeps RNG words, counters, how much of its records the model
//! is trained on, the scheduler's history, and what a best program's
//! record lacks; restoring replays each record once, through the
//! bookkeeping the run used (see `docs/ROBUSTNESS.md`). On disk,
//! [`CheckpointFile::save`] appends the new records to the record log with
//! [`save_records`], then atomically replaces a small header naming the
//! prefix of the log it covers.

use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::lineage::Lineage;
use crate::records::{fnv1a, save_records, TuningRecordLog, FNV_OFFSET};
use crate::task_scheduler::SchedulerRecord;

/// Current checkpoint format version. Bump on incompatible changes; load
/// rejects mismatches instead of misinterpreting old files. Version 4: a
/// header plus the record log, the state derivable from the log and the
/// scheduler's history left out.
pub const CHECKPOINT_VERSION: u64 = 4;

/// One retained best-measured program, by its record in the policy's log.
/// A program a warm start filed is not listed: the warm start files it
/// again.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BestEntry {
    /// Index of the program's record in the policy's log.
    pub log: usize,
    /// Index into the task's sketch list.
    pub sketch: usize,
    /// Provenance record.
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
    /// Tuning rounds run.
    pub rounds: u64,
    /// Best measured programs the policy's own log holds, ascending by
    /// seconds.
    pub best_measured: Vec<BestEntry>,
    /// The policy's records, one per trial. On disk they are the record
    /// log, and the header stores this list empty.
    pub log: Vec<TuningRecordLog>,
}

/// Serialized state of a `LearnedCostModel`: how much of its records it
/// is trained on. Its records are the warm start's, then every valid
/// record of the policies' logs in the order they were measured; the rows
/// of a record are a pure function of its program, so restoring featurizes
/// them again. The trained GBDT is a pure function of the trained prefix,
/// so the restored model trains when it is first read.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ModelCheckpoint {
    /// GBDT training passes run so far (the `gbdt/train_passes` telemetry
    /// counter; a model still waiting for its first read is not among
    /// them). Restored into the resumed run's telemetry so
    /// `GbdtRound` trace events keep numbering where the killed run left
    /// off.
    pub train_passes: u64,
    /// Length of the record prefix the model is trained on: `update`
    /// retrains only once its window has doubled, so the model can lag the
    /// records.
    pub trained_on: usize,
    /// Whether that prefix's training pass had already run (is among
    /// `train_passes`). The killed run then never runs it again, so the
    /// resumed model's first read repeats it silently: no `GbdtRound`
    /// event, no pass counted.
    pub trained: bool,
    /// How many of the records a warm start absorbed before the session
    /// measured anything, which restoring expects the model to hold
    /// already. The retrain window counts only the records after them.
    pub warm_records: usize,
}

/// Serialized state of a `TaskScheduler` (per-task policies included).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerCheckpoint {
    /// Raw xoshiro256++ state words of the scheduler RNG.
    pub rng: Vec<u64>,
    /// Per exhausted task, the history's length when a round of it measured
    /// nothing valid: the unit whose trial count includes that round's.
    pub exhausted: Vec<Option<usize>>,
    /// Per-task best-latency history (`gᵢ` after each allocated unit);
    /// `None` encodes a non-finite latency (task not yet measured).
    pub best_history: Vec<Vec<Option<f64>>>,
    /// Step-by-step scheduling history: the units allocated per task, and
    /// the order the shared model received the policies' records in.
    pub history: Vec<SchedulerRecord>,
    /// Per-task policy checkpoints, in task order.
    pub policies: Vec<PolicyCheckpoint>,
    /// Shared cost model.
    pub model: ModelCheckpoint,
}

/// Top-level checkpoint written by `ansor-tune --checkpoint`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneCheckpoint {
    /// Invocation fingerprint (workload + options + seed + fault spec);
    /// resume refuses a checkpoint taken under different settings.
    pub fingerprint: String,
    /// Measurer trial counter.
    pub measurer_trials: u64,
    /// Measurer simulated-fault clock (nanoseconds).
    pub sim_fault_nanos: u64,
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
    /// Every policy's checkpoint, in task order.
    fn policies_mut(&mut self) -> Vec<&mut PolicyCheckpoint> {
        let single = self.single.iter_mut().map(|s| &mut s.policy);
        let scheduled = self.scheduler.iter_mut().flat_map(|s| &mut s.policies);
        single.chain(scheduled).collect()
    }
}

/// A record log and the prefix of it a checkpoint covers.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LogPrefix {
    /// Path of the record log, as the run named it.
    path: String,
    /// Bytes of the log covered.
    bytes: u64,
    /// FNV-1a hash of those bytes.
    hash: u64,
    /// Bytes of it a warm start absorbed before the run.
    warm_bytes: u64,
}

/// The file at a checkpoint's path.
#[derive(Serialize, Deserialize)]
struct Header {
    /// [`CHECKPOINT_VERSION`].
    version: u64,
    log: LogPrefix,
    /// The checkpoint, its record lists empty.
    state: TuneCheckpoint,
}

/// A run's checkpoint on disk, kept across its saves: the header's path,
/// the record log, and how much of the log the last save covered.
#[derive(Debug, Clone)]
pub struct CheckpointFile {
    header: PathBuf,
    log: LogPrefix,
    /// Records of each policy the log holds, in task order.
    written: Vec<usize>,
}

impl CheckpointFile {
    /// A checkpoint at `path` whose record log is `log` — a `--log` file,
    /// whose current content is the warm prefix — or, without one,
    /// `<path>.records`, started anew by the first save.
    pub fn create(path: impl AsRef<Path>, log: Option<&str>) -> std::io::Result<CheckpointFile> {
        let header = path.as_ref().to_path_buf();
        let (path, warm) = match log {
            Some(log) => match std::fs::read(log) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
                bytes => (log.to_string(), bytes.unwrap_or_default()),
            },
            None => (format!("{}.records", header.display()), Vec::new()),
        };
        let log = LogPrefix {
            path,
            bytes: warm.len() as u64,
            hash: fnv1a(FNV_OFFSET, &warm),
            warm_bytes: warm.len() as u64,
        };
        Ok(CheckpointFile {
            header,
            log,
            written: Vec::new(),
        })
    }

    /// The record log's path.
    pub fn log(&self) -> &str {
        &self.log.path
    }

    /// The same record log under a header at `path`.
    pub fn moved_to(self, path: impl AsRef<Path>) -> CheckpointFile {
        CheckpointFile {
            header: path.as_ref().to_path_buf(),
            ..self
        }
    }

    /// Saves `ck`: cuts whatever a killed save left past the prefix,
    /// appends each policy's records the log does not hold yet, then
    /// replaces the header, through a temp file, with one that covers them.
    pub fn save(&mut self, mut ck: TuneCheckpoint) -> std::io::Result<()> {
        let logs: Vec<Vec<TuningRecordLog>> = ck
            .policies_mut()
            .into_iter()
            .map(|p| std::mem::take(&mut p.log))
            .collect();
        self.written.resize(logs.len(), 0);
        let path = &self.log.path;
        std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?
            .set_len(self.log.bytes)?;
        for (log, &written) in logs.iter().zip(&self.written) {
            if log.len() > written {
                save_records(path, &log[written..])?;
            }
        }
        let mut appended = Vec::new();
        let mut file = std::fs::File::open(path)?;
        file.seek(SeekFrom::Start(self.log.bytes))?;
        file.read_to_end(&mut appended)?;
        let written: Vec<usize> = logs.iter().map(Vec::len).collect();
        let header = Header {
            version: CHECKPOINT_VERSION,
            log: LogPrefix {
                bytes: self.log.bytes + appended.len() as u64,
                hash: fnv1a(self.log.hash, &appended),
                ..self.log.clone()
            },
            state: ck,
        };
        let tmp = self.header.with_extension("tmp");
        std::fs::write(
            &tmp,
            serde_json::to_string(&header).expect("checkpoint serializes"),
        )?;
        std::fs::rename(&tmp, &self.header)?;
        // Only a save that reached its header moves the prefix: after a
        // failed one, the next cuts what it appended and writes it again.
        (self.log, self.written) = (header.log, written);
        Ok(())
    }

    /// Loads the checkpoint at `path`: its header, then the prefix of the
    /// record log the header covers, whose hash must match. The prefix's
    /// records go back to their policies by task, in order. Returns the
    /// checkpoint, the warm prefix's records (a resumed session is
    /// warm-started from them before it is restored), and the file, ready
    /// to append the resumed run's records.
    pub fn load(
        path: impl AsRef<Path>,
    ) -> Result<(TuneCheckpoint, Vec<TuningRecordLog>, CheckpointFile), String> {
        let header = path.as_ref();
        let corrupt =
            |e: &dyn std::fmt::Debug| format!("corrupt checkpoint {}: {e:?}", header.display());
        let text = std::fs::read_to_string(header)
            .map_err(|e| format!("cannot read checkpoint {}: {e}", header.display()))?;
        let value: serde::Value = serde_json::from_str(&text).map_err(|e| corrupt(&e))?;
        let version = value.get("version").and_then(serde::Value::as_u64);
        if version != Some(CHECKPOINT_VERSION) {
            let version = version.map_or("none".to_string(), |v| v.to_string());
            return Err(format!(
                "checkpoint {} has version {version} (expected {CHECKPOINT_VERSION})",
                header.display()
            ));
        }
        let Header { log, state, .. } = Header::from_value(&value).map_err(|e| corrupt(&e))?;
        let mut bytes = std::fs::read(&log.path)
            .map_err(|e| format!("cannot read record log {}: {e}", log.path))?;
        let covered = log.warm_bytes <= log.bytes && log.bytes <= bytes.len() as u64;
        bytes.truncate(log.bytes as usize);
        if !covered || fnv1a(FNV_OFFSET, &bytes) != log.hash {
            return Err(format!(
                "record log {} does not hold the {} bytes checkpoint {} covers",
                log.path,
                log.bytes,
                header.display()
            ));
        }
        let (warm_bytes, run_bytes) = bytes.split_at(log.warm_bytes as usize);
        let mut warm = Vec::new();
        serde_json::read_lines(warm_bytes, |r, _| warm.push(r)).expect("reading a slice");
        // The hash vouches that the saves of this checkpoint wrote every
        // record after the warm prefix, each for one of its policies.
        let mut checkpoint = state;
        let mut policies = checkpoint.policies_mut();
        serde_json::read_lines(run_bytes, |r: TuningRecordLog, _| {
            if let Some(p) = policies.iter_mut().find(|p| p.task == r.task) {
                p.log.push(r);
            }
        })
        .expect("reading a slice");
        let written: Vec<usize> = policies.iter().map(|p| p.log.len()).collect();
        let file = CheckpointFile {
            header: header.to_path_buf(),
            log,
            written,
        };
        Ok((checkpoint, warm, file))
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
    use tensor_ir::Step;

    fn record(trial: u64, seconds: f64, error: Option<&str>) -> TuningRecordLog {
        TuningRecordLog {
            task: "GMM:s0b1".into(),
            trial,
            steps: vec![Step::Split {
                node: "C".into(),
                iter: "i".into(),
                lengths: vec![8 * trial as i64],
            }],
            seconds,
            error: error.map(String::from),
        }
    }

    fn sample() -> TuneCheckpoint {
        TuneCheckpoint {
            fingerprint: "single:GMM:s0:b1:intel:t64:seed0:faults=none".into(),
            measurer_trials: 3,
            sim_fault_nanos: 1_500_000_000,
            single: Some(SinglePolicyCheckpoint {
                policy: PolicyCheckpoint {
                    task: "GMM:s0b1".into(),
                    rng: vec![1, 2, 3, 4],
                    rounds: 1,
                    best_measured: vec![BestEntry {
                        log: 2,
                        sketch: 0,
                        lineage: crate::lineage::Lineage {
                            op: crate::lineage::Operator::MutateTileSize,
                            generation: 2,
                            parents: vec![5],
                        },
                    }],
                    log: vec![
                        record(1, 2e-3, None),
                        record(2, f64::INFINITY, Some("measure: cursed")),
                        record(3, 1.25e-3, None),
                    ],
                },
                model: ModelCheckpoint {
                    train_passes: 2,
                    trained_on: 1,
                    trained: true,
                    warm_records: 0,
                },
            }),
            scheduler: None,
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ansor-ckpt-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("run.ckpt")
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
        let path = scratch("round-trip");
        let ck = sample();
        CheckpointFile::create(&path, None)
            .unwrap()
            .save(ck.clone())
            .unwrap();
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp file renamed away"
        );
        // The header holds no record; the log beside it holds each once.
        let header = std::fs::read_to_string(&path).unwrap();
        assert!(
            header.contains("\"log\":[]") && !header.contains("cursed"),
            "{header}"
        );
        let log = std::fs::read_to_string(format!("{}.records", path.display())).unwrap();
        assert_eq!(log.lines().count(), 3);
        // A failed trial's time is `null` in the log and comes back infinite.
        assert!(log.contains("\"seconds\":null"), "{log}");
        assert_eq!(CheckpointFile::load(&path).unwrap().0, ck);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn a_save_appends_only_the_records_the_log_does_not_hold() {
        let path = scratch("append");
        let mut ck = sample();
        let all = std::mem::take(&mut ck.single.as_mut().unwrap().policy.log);
        let mut file = CheckpointFile::create(&path, None).unwrap();
        for n in 1..=all.len() {
            ck.single.as_mut().unwrap().policy.log = all[..n].to_vec();
            file.save(ck.clone()).unwrap();
            let (loaded, _, _) = CheckpointFile::load(&path).unwrap();
            assert_eq!(loaded.single.unwrap().policy.log, all[..n]);
        }
        let log = std::fs::read_to_string(file.log()).unwrap();
        assert_eq!(log.lines().count(), all.len());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let path = scratch("version");
        // Version 2 is the one-document format with the rows and the
        // derivable sets, version 3 a header that still lists each model
        // record's task and no scheduler unit a failed round fell in; like
        // any other foreign version they are refused.
        for version in [2, 3, 999] {
            std::fs::write(
                &path,
                format!("{{\"version\":{version},\"fingerprint\":\"f\"}}"),
            )
            .unwrap();
            let err = CheckpointFile::load(&path).unwrap_err();
            assert!(
                err.contains(&format!("version {version} (expected 4)")),
                "{err}"
            );
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn non_finite_seconds_survive_via_option() {
        // A failed trial's record round-trips through the record log (see
        // above); a task not yet measured has a `None` latency in the
        // scheduler's best history.
        let history = vec![vec![None, Some(2.5e-4)]];
        let json = serde_json::to_string(&history).unwrap();
        assert_eq!(json, "[[null,0.00025]]");
        let back: Vec<Vec<Option<f64>>> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, history);
    }

    #[test]
    fn rng_state_validation() {
        assert_eq!(rng_state_from(&[1, 2, 3, 4]).unwrap(), [1, 2, 3, 4]);
        assert!(rng_state_from(&[1, 2]).is_err());
    }
}
