//! Tuning-record persistence: JSON-lines logs of measured programs.
//!
//! Ansor's workflow stores every measurement as a record (task, transform
//! steps, measured time) so that tuning can resume, logs can train cost
//! models offline, and the best program can be re-applied at deployment
//! without re-searching. Records serialize the transform-step history —
//! the program's complete genome — so `State::replay` reconstructs the
//! exact schedule.

use std::io::{BufReader, Write};
use std::path::Path;
use std::sync::Arc;

use serde::{DeError, Deserialize, Serialize, Value};
use tensor_ir::{ComputeDag, State, Step};

/// One measured program.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TuningRecordLog {
    /// Task name the record belongs to.
    pub task: String,
    /// 1-based measurement trial index within the run.
    pub trial: u64,
    /// The program's transform-step history.
    pub steps: Vec<Step>,
    /// Measured execution time in seconds (`f64::INFINITY` for failures).
    pub seconds: f64,
    /// Build/measure error message; `None` for a valid measurement. Stored
    /// explicitly because JSON cannot encode the `f64::INFINITY` failure
    /// sentinel in `seconds` (it serializes as `null`).
    pub error: Option<String>,
}

impl TuningRecordLog {
    /// Reconstructs the schedule state on the task's DAG.
    pub fn replay(&self, dag: Arc<ComputeDag>) -> Result<State, tensor_ir::Error> {
        State::replay(dag, &self.steps)
    }

    /// Whether the record is a successful measurement.
    pub fn is_valid(&self) -> bool {
        self.error.is_none() && self.seconds.is_finite()
    }
}

// Deserialization is manual (not derived) because `seconds` needs an
// explicit validity convention: non-finite times are written as `null` (as
// every non-finite float is) and recovered as `f64::INFINITY` on load, so
// failed measurements survive the round trip instead of being dropped as
// corrupt lines. Legacy logs without the `error` field still load (`error`
// defaults to `None`).
impl Deserialize for TuningRecordLog {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let Value::Object(m) = v else {
            return Err(DeError::invalid_type("object", v));
        };
        let field = |name: &str| m.get(name).unwrap_or(&Value::Null);
        let seconds = match field("seconds") {
            Value::Null => f64::INFINITY, // failed measurement
            other => f64::from_value(other)?,
        };
        Ok(TuningRecordLog {
            task: String::from_value(field("task"))?,
            trial: u64::from_value(field("trial"))?,
            steps: Vec::<Step>::from_value(field("steps"))?,
            seconds,
            error: Option::<String>::from_value(field("error"))?,
        })
    }
}

/// Appends records to a JSON-lines log file, as one write of whole lines
/// (after [`serde_json::append_lines`] ends a torn last line, so it stays
/// the only corrupt one).
pub fn save_records(path: impl AsRef<Path>, records: &[TuningRecordLog]) -> std::io::Result<()> {
    let mut f = serde_json::append_lines(path)?;
    let mut batch = String::new();
    for r in records {
        r.write_json(&mut batch);
        batch.push('\n');
    }
    f.write_all(batch.as_bytes())
}

/// Loads all records from a JSON-lines log file. Corrupt lines are skipped
/// but *counted* (see [`serde_json::read_lines`]): the second element
/// reports them, so callers can surface silent log damage instead of
/// quietly losing data.
pub fn load_records(path: impl AsRef<Path>) -> std::io::Result<(Vec<TuningRecordLog>, usize)> {
    let f = std::fs::File::open(path)?;
    let mut out = Vec::new();
    let skipped = serde_json::read_lines(BufReader::new(f), |r, _| out.push(r))?;
    Ok((out, skipped))
}

/// Stable 64-bit FNV-1a fingerprint of a record log's canonical JSON
/// serialization. Two runs produced bit-identical tuning results iff their
/// logs fingerprint equally, so serving infrastructure can assert a warm
/// job reproduced a cold run without shipping the full log over the wire.
pub fn log_fingerprint(records: &[TuningRecordLog]) -> u64 {
    let mut h = FNV_OFFSET;
    // Every line is rendered into the same buffer.
    let mut line = String::with_capacity(1024);
    for r in records {
        line.clear();
        r.write_json(&mut line);
        line.push('\n');
        h = fnv1a(h, line.as_bytes());
    }
    h
}

/// The FNV-1a hash of no bytes.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a hash `h` continued over `bytes`.
pub(crate) fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The best (fastest, valid) record for a task, if any.
pub fn best_record<'a>(records: &'a [TuningRecordLog], task: &str) -> Option<&'a TuningRecordLog> {
    records
        .iter()
        .filter(|r| r.task == task && r.seconds.is_finite())
        .min_by(|a, b| a.seconds.partial_cmp(&b.seconds).unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor_ir::{Annotation, DagBuilder, Expr, Reducer};

    fn dag() -> Arc<ComputeDag> {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[32, 32]);
        let w = b.placeholder("B", &[32, 32]);
        b.compute_reduce("C", &[32, 32], &[32], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
                * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
        });
        Arc::new(b.build().unwrap())
    }

    fn records() -> Vec<TuningRecordLog> {
        vec![
            TuningRecordLog {
                task: "t1".into(),
                trial: 1,
                steps: vec![Step::Split {
                    node: "C".into(),
                    iter: "i".into(),
                    lengths: vec![8],
                }],
                seconds: 2e-3,
                error: None,
            },
            TuningRecordLog {
                task: "t1".into(),
                trial: 2,
                steps: vec![Step::Annotate {
                    node: "C".into(),
                    iter: "i".into(),
                    ann: Annotation::Parallel,
                }],
                seconds: 1e-3,
                error: None,
            },
            TuningRecordLog {
                task: "t2".into(),
                trial: 1,
                steps: vec![],
                seconds: 5e-3,
                error: None,
            },
        ]
    }

    #[test]
    fn roundtrip_through_file() {
        let dir = std::env::temp_dir().join(format!("ansor-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("records.jsonl");
        let _ = std::fs::remove_file(&path);
        save_records(&path, &records()).unwrap();
        // Appending works.
        save_records(&path, &records()[..1]).unwrap();
        let (loaded, skipped) = load_records(&path).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(loaded.len(), 4);
        assert_eq!(loaded[1].seconds, 1e-3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_lines_are_skipped_and_counted() {
        let dir = std::env::temp_dir().join(format!("ansor-log2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("records.jsonl");
        std::fs::write(&path, "garbage\n{\"also\": \"garbage\"}\n").unwrap();
        save_records(&path, &records()[..1]).unwrap();
        let (loaded, skipped) = load_records(&path).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(skipped, 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_measurements_survive_the_round_trip() {
        // Regression test: infinite seconds serialize to JSON null; these
        // records used to be silently dropped on load as unparseable.
        let failed = TuningRecordLog {
            task: "t1".into(),
            trial: 3,
            steps: vec![],
            seconds: f64::INFINITY,
            error: Some("lowering error: bad split".into()),
        };
        let dir = std::env::temp_dir().join(format!("ansor-log3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("records.jsonl");
        let _ = std::fs::remove_file(&path);
        save_records(&path, std::slice::from_ref(&failed)).unwrap();
        let (loaded, skipped) = load_records(&path).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(loaded.len(), 1);
        assert!(loaded[0].seconds.is_infinite());
        assert!(!loaded[0].is_valid());
        assert_eq!(
            loaded[0].error.as_deref(),
            Some("lowering error: bad split")
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn legacy_lines_without_error_field_still_load() {
        // Pre-`error`-field logs: a valid line, and a failed one whose
        // seconds is the JSON null that `f64::INFINITY` serializes to.
        let legacy = "{\"seconds\":2.5e-3,\"steps\":[],\"task\":\"t\",\"trial\":1}\n\
                      {\"seconds\":null,\"steps\":[],\"task\":\"t\",\"trial\":2}\n";
        let dir = std::env::temp_dir().join(format!("ansor-log4-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("records.jsonl");
        std::fs::write(&path, legacy).unwrap();
        let (loaded, skipped) = load_records(&path).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(loaded.len(), 2);
        assert!(loaded[0].is_valid());
        assert!(loaded[1].seconds.is_infinite());
        assert_eq!(loaded[1].error, None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn best_record_filters_by_task() {
        let rs = records();
        assert_eq!(best_record(&rs, "t1").unwrap().trial, 2);
        assert_eq!(best_record(&rs, "t2").unwrap().seconds, 5e-3);
        assert!(best_record(&rs, "t3").is_none());
    }

    #[test]
    fn replay_reconstructs_schedule() {
        let rs = records();
        let state = rs[0].replay(dag()).unwrap();
        let sid = state.stage_by_node_name("C").unwrap();
        assert!(state.stages[sid].iter_by_name("i.1").is_some());
    }
}
