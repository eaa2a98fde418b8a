//! Structured tuning-trace schema: the typed events the search loop emits,
//! the JSONL envelope they are written in, and a tolerant reader.
//!
//! Every line of a trace file is one JSON-encoded [`TraceLine`]:
//! a monotone sequence number, a wall-clock offset in milliseconds since the
//! sink was installed, and the [`TraceEvent`] payload. Event payloads are
//! deterministic for a fixed tuning seed; all wall-clock information lives in
//! `t_ms` (and in `PhaseProfile` snapshots), so traces from identical runs
//! can be compared by stripping those — see `docs/TELEMETRY.md`.

use crate::metrics::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::io::BufRead;

/// One event in the tuning trace. Externally tagged in JSON:
/// `{"RoundStart": {...}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A search round is starting for `task`.
    RoundStart {
        task: String,
        round: u64,
        trials_so_far: u64,
    },
    /// Sketch generation finished for `task`.
    SketchStats { task: String, sketches: u64 },
    /// One evolutionary-search invocation finished.
    EvolutionStats {
        task: String,
        generations: u64,
        mutations_applied: u64,
        crossovers_applied: u64,
        best_predicted: f64,
    },
    /// One hardware-measurement batch finished. `best_seconds` is `None`
    /// when every candidate in the batch failed. `error_kinds` is sorted by
    /// kind for deterministic output.
    MeasureBatch {
        task: String,
        valid: u64,
        failed: u64,
        error_kinds: Vec<(String, u64)>,
        best_seconds: Option<f64>,
    },
    /// One boosting round inside GBDT training.
    GbdtRound {
        round: u64,
        trees: u64,
        train_loss: f64,
    },
    /// The task scheduler allocated the next round to `task`. `objective`
    /// is `None` while still unbounded (some task not yet measured).
    SchedulerStep {
        step: u64,
        task: String,
        gradient_terms: GradientTerms,
        objective: Option<f64>,
    },
    /// Feature extraction failed for a measured state (lowering error), so
    /// its measurement enters the training set as a failure record instead
    /// of being silently dropped.
    FeatureExtractFailed { task: String, error: String },
    /// Provenance of one candidate sent to hardware measurement: the sketch
    /// it was annotated from, the sketch-rule derivation chain, the
    /// evolutionary operator that produced it, its generation and parent
    /// state signature(s). `sig` is the candidate's own `State::signature()`.
    CandidateOrigin {
        task: String,
        trial: u64,
        sig: u64,
        sketch: u64,
        op: String,
        generation: u64,
        parents: Vec<u64>,
        rules: Vec<String>,
    },
    /// A measured candidate improved the task's best latency; the
    /// improvement is credited to the candidate's full lineage. `prev_best`
    /// is `None` for the first valid measurement.
    ImprovementAttributed {
        task: String,
        trial: u64,
        seconds: f64,
        prev_best: Option<f64>,
        sig: u64,
        sketch: u64,
        op: String,
        generation: u64,
        parents: Vec<u64>,
        rules: Vec<String>,
    },
    /// Per-round efficacy tally: how many candidates each evolutionary
    /// operator / sketch rule proposed, how many survived selection into the
    /// measured batch, how many were measured, and how many set a new task
    /// best. Rows are sorted by name for deterministic output.
    OperatorStats {
        task: String,
        round: u64,
        operators: Vec<EfficacyRow>,
        rules: Vec<EfficacyRow>,
    },
    /// Held-out calibration of the learned cost model: the just-measured
    /// batch scored with the *pre-retrain* model. `rank_acc` is pairwise
    /// rank accuracy over pairs whose measured times differ by ≥5% (the
    /// model's own comparability threshold); `topk_recall` is how many of
    /// the truly fastest k candidates land in the predicted top k, for
    /// k = 1 and 8 (capped at batch size); `err_p*` are quantiles of
    /// |normalized predicted score − normalized throughput|.
    ModelCalibration {
        task: String,
        batch: u64,
        pairs: u64,
        rank_acc: f64,
        top1_recall: f64,
        top8_recall: f64,
        err_p10: f64,
        err_p50: f64,
        err_p90: f64,
    },
    /// Point-in-time dump of the metrics registry (counters, gauges, phase
    /// timers). Emitted by `Telemetry::flush`. Contains wall-clock data.
    PhaseProfile { snapshot: MetricsSnapshot },
    /// Tuning finished for `task`.
    TuningFinished {
        task: String,
        trials: u64,
        best_seconds: Option<f64>,
    },
}

/// One row of an [`TraceEvent::OperatorStats`] table: the funnel counts for
/// a single evolutionary operator or sketch rule within one search round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EfficacyRow {
    /// Operator or rule name (e.g. `crossover`, `multi-level-tiling`).
    pub name: String,
    /// Candidates this operator/rule generated this round.
    pub proposed: u64,
    /// Of those, how many survived selection into the measured batch.
    pub survived: u64,
    /// Of those, how many were actually measured (batch cap, dedup).
    pub measured: u64,
    /// Of those, how many set a new task best.
    pub new_best: u64,
}

/// The per-task-scheduler-step gradient decomposition (paper §6): the
/// backward-looking history term, the optimistic forward term, and the
/// similarity term, plus the combined gradient actually used. Fields are
/// `None` when the term is unbounded (e.g. the similarity term with no
/// similar task) — JSON has no encoding for ±∞. `Default` is all `None`,
/// the terms of a task tuned on its own.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct GradientTerms {
    pub backward: Option<f64>,
    pub optimistic: Option<f64>,
    pub similarity: Option<f64>,
    pub combined: Option<f64>,
}

impl GradientTerms {
    /// Builds the record from raw term values, mapping non-finite values
    /// (unbounded terms) to `None`.
    pub fn from_raw(backward: f64, optimistic: f64, similarity: f64, combined: f64) -> Self {
        let keep = |v: f64| v.is_finite().then_some(v);
        GradientTerms {
            backward: keep(backward),
            optimistic: keep(optimistic),
            similarity: keep(similarity),
            combined: keep(combined),
        }
    }
}

/// JSONL envelope: one line of a trace file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceLine {
    /// Monotone per-sink sequence number.
    pub seq: u64,
    /// Milliseconds since the sink was installed. Wall-clock; excluded from
    /// determinism comparisons.
    pub t_ms: f64,
    pub event: TraceEvent,
}

/// Read a JSONL trace produced via `--trace`. Corrupt lines are counted,
/// not fatal (see [`serde_json::read_lines`]), so a trace truncated by a
/// crash still reports.
pub fn read_trace<R: BufRead>(reader: R) -> std::io::Result<(Vec<TraceLine>, usize)> {
    let mut lines = Vec::new();
    let skipped = serde_json::read_lines(reader, |l, _| lines.push(l))?;
    Ok((lines, skipped))
}

/// The determinism-comparable form of a trace: one JSON line per event,
/// without the wall-clock envelope (`seq`, `t_ms`) and without the
/// wall-clock `PhaseProfile` snapshots. Two runs with the same seed give
/// equal lists; `trace-report --events` writes this list.
pub fn canonical_events(lines: &[TraceLine]) -> Vec<String> {
    lines
        .iter()
        .filter(|l| !matches!(l.event, TraceEvent::PhaseProfile { .. }))
        .map(|l| serde_json::to_string(&l.event).expect("trace events serialize"))
        .collect()
}

/// Read a trace file from disk. Returns the parsed lines and the number of
/// skipped (corrupt) lines.
pub fn read_trace_file(path: &std::path::Path) -> std::io::Result<(Vec<TraceLine>, usize)> {
    let file = std::fs::File::open(path)?;
    read_trace(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RoundStart {
                task: "conv2d".into(),
                round: 0,
                trials_so_far: 0,
            },
            TraceEvent::EvolutionStats {
                task: "conv2d".into(),
                generations: 4,
                mutations_applied: 37,
                crossovers_applied: 11,
                best_predicted: 1.5,
            },
            TraceEvent::MeasureBatch {
                task: "conv2d".into(),
                valid: 14,
                failed: 2,
                error_kinds: vec![("lowering".into(), 2)],
                best_seconds: Some(3.2e-4),
            },
            TraceEvent::MeasureBatch {
                task: "conv2d".into(),
                valid: 0,
                failed: 8,
                error_kinds: vec![("lowering".into(), 8)],
                best_seconds: None,
            },
            TraceEvent::SchedulerStep {
                step: 3,
                task: "conv2d".into(),
                gradient_terms: GradientTerms::from_raw(-0.5, -1.25, f64::INFINITY, -0.875),
                objective: Some(4.2e-3),
            },
            TraceEvent::CandidateOrigin {
                task: "conv2d".into(),
                trial: 17,
                sig: u64::MAX - 3,
                sketch: 2,
                op: "mutate-tile-size".into(),
                generation: 4,
                parents: vec![u64::MAX, 12345],
                rules: vec!["multi-level-tiling".into(), "always-inline".into()],
            },
            TraceEvent::ImprovementAttributed {
                task: "conv2d".into(),
                trial: 17,
                seconds: 2.9e-4,
                prev_best: Some(3.2e-4),
                sig: u64::MAX - 3,
                sketch: 2,
                op: "crossover".into(),
                generation: 4,
                parents: vec![1, 2],
                rules: vec!["multi-level-tiling".into()],
            },
            TraceEvent::OperatorStats {
                task: "conv2d".into(),
                round: 1,
                operators: vec![EfficacyRow {
                    name: "crossover".into(),
                    proposed: 40,
                    survived: 12,
                    measured: 5,
                    new_best: 1,
                }],
                rules: vec![EfficacyRow {
                    name: "multi-level-tiling".into(),
                    proposed: 64,
                    survived: 20,
                    measured: 8,
                    new_best: 1,
                }],
            },
            TraceEvent::ModelCalibration {
                task: "conv2d".into(),
                batch: 16,
                pairs: 98,
                rank_acc: 0.77,
                top1_recall: 1.0,
                top8_recall: 0.625,
                err_p10: 0.01,
                err_p50: 0.08,
                err_p90: 0.33,
            },
        ]
    }

    #[test]
    fn events_roundtrip_through_jsonl() {
        let mut text = String::new();
        for (i, event) in sample_events().into_iter().enumerate() {
            let line = TraceLine {
                seq: i as u64,
                t_ms: i as f64 * 10.0,
                event,
            };
            text.push_str(&serde_json::to_string(&line).unwrap());
            text.push('\n');
        }
        let (lines, skipped) = read_trace(text.as_bytes()).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(lines.len(), sample_events().len());
        assert_eq!(lines[0].seq, 0);
        match &lines[3].event {
            TraceEvent::MeasureBatch {
                best_seconds,
                failed,
                ..
            } => {
                assert_eq!(*best_seconds, None);
                assert_eq!(*failed, 8);
            }
            other => panic!("expected MeasureBatch, got {other:?}"),
        }
        // Re-serialize and compare: the round trip must be lossless.
        for (line, event) in lines.iter().zip(sample_events()) {
            assert_eq!(line.event, event);
        }
    }

    #[test]
    fn corrupt_lines_are_counted_not_fatal() {
        let text = format!(
            "{}\nnot json\n{{\"seq\":9}}\n\n{}\n",
            serde_json::to_string(&TraceLine {
                seq: 0,
                t_ms: 0.0,
                event: TraceEvent::RoundStart {
                    task: "t".into(),
                    round: 0,
                    trials_so_far: 0
                },
            })
            .unwrap(),
            serde_json::to_string(&TraceLine {
                seq: 1,
                t_ms: 1.0,
                event: TraceEvent::TuningFinished {
                    task: "t".into(),
                    trials: 64,
                    best_seconds: Some(1e-3)
                },
            })
            .unwrap()
        );
        let (lines, skipped) = read_trace(text.as_bytes()).unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(skipped, 2);
    }

    #[test]
    fn events_of_removed_kinds_are_skipped_not_fatal() {
        // Old traces carry `SurrogateCalibration` lines (the two-stage
        // scorer), `ModelRetrain` lines (an in-sample rank check) and an
        // `EvolutionStats.crossover_rate` key; the variants and the key are
        // gone, the files are not.
        let text = concat!(
            r#"{"event":{"EvolutionStats":{"best_predicted":0.99,"crossover_rate":0.095,"crossovers_applied":36,"generations":4,"mutations_applied":343,"task":"t"}},"seq":0,"t_ms":0.0}"#,
            "\n",
            r#"{"event":{"SurrogateCalibration":{"task":"t","batch":128,"kept":32,"pairs":496,"rank_acc":0.81,"top1_agree":true}},"seq":1,"t_ms":1.0}"#,
            "\n",
            r#"{"event":{"ModelRetrain":{"pairs":117,"pred_vs_measured_rank_corr":1.0,"ranking_loss":0.0,"task":"t"}},"seq":2,"t_ms":2.0}"#,
            "\n",
        );
        let (lines, skipped) = read_trace(text.as_bytes()).unwrap();
        assert_eq!(skipped, 2);
        let evolution = TraceEvent::EvolutionStats {
            task: "t".into(),
            generations: 4,
            mutations_applied: 343,
            crossovers_applied: 36,
            best_predicted: 0.99,
        };
        assert_eq!(
            lines.iter().map(|l| &l.event).collect::<Vec<_>>(),
            [&evolution]
        );
    }
}
