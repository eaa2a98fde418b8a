//! Pure analysis functions over a parsed trace: everything `trace-report`
//! prints, kept here so it is unit-testable and reusable from other tools.

use crate::histogram::HistogramSummary;
use crate::trace::{TraceEvent, TraceLine};
use serde::Serialize;
use std::collections::BTreeMap;

/// Best-measured-latency-vs-cumulative-trials curve per task, reconstructed
/// from `MeasureBatch` events (the Fig. 7/10 x/y axes).
pub fn best_curves(lines: &[TraceLine]) -> BTreeMap<String, Vec<(u64, f64)>> {
    let mut curves: BTreeMap<String, Vec<(u64, f64)>> = BTreeMap::new();
    let mut trials: BTreeMap<String, u64> = BTreeMap::new();
    let mut best: BTreeMap<String, f64> = BTreeMap::new();
    for line in lines {
        if let TraceEvent::MeasureBatch {
            task,
            valid,
            failed,
            best_seconds,
            ..
        } = &line.event
        {
            let t = trials.entry(task.clone()).or_insert(0);
            *t += valid + failed;
            let b = best.entry(task.clone()).or_insert(f64::INFINITY);
            if let Some(s) = best_seconds {
                if *s < *b {
                    *b = *s;
                }
            }
            if b.is_finite() {
                curves.entry(task.clone()).or_default().push((*t, *b));
            }
        }
    }
    curves
}

/// Phase-time breakdown from the last `PhaseProfile` snapshot: `phase/…`
/// histograms sorted by total time, descending.
pub fn phase_breakdown(lines: &[TraceLine]) -> Vec<(String, HistogramSummary)> {
    let snapshot = lines.iter().rev().find_map(|l| match &l.event {
        TraceEvent::PhaseProfile { snapshot } => Some(snapshot),
        _ => None,
    });
    let Some(snapshot) = snapshot else {
        return Vec::new();
    };
    let mut phases: Vec<(String, HistogramSummary)> = snapshot
        .histograms
        .iter()
        .filter(|(k, _)| k.starts_with("phase/"))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    phases.sort_by(|a, b| b.1.sum.partial_cmp(&a.1.sum).expect("finite sums"));
    phases
}

/// Per-task allocation from `SchedulerStep` events: how many rounds the task
/// scheduler granted each task, and the final objective it reported.
pub fn allocations(lines: &[TraceLine]) -> BTreeMap<String, u64> {
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for line in lines {
        if let TraceEvent::SchedulerStep { task, .. } = &line.event {
            *counts.entry(task.clone()).or_insert(0) += 1;
        }
    }
    counts
}

/// Aggregate measurement failures by error kind across the whole trace.
pub fn error_kinds(lines: &[TraceLine]) -> BTreeMap<String, u64> {
    let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
    for line in lines {
        if let TraceEvent::MeasureBatch { error_kinds, .. } = &line.event {
            for (kind, n) in error_kinds {
                *kinds.entry(kind.clone()).or_insert(0) += n;
            }
        }
    }
    kinds
}

/// Final counter values from the last `PhaseProfile` snapshot in the trace
/// (counters are monotone, so the last snapshot holds the run totals).
/// Empty when the trace carries no snapshot.
pub fn final_counters(lines: &[TraceLine]) -> BTreeMap<String, u64> {
    lines
        .iter()
        .rev()
        .find_map(|l| match &l.event {
            TraceEvent::PhaseProfile { snapshot } => Some(snapshot.counters.clone()),
            _ => None,
        })
        .unwrap_or_default()
}

/// Count of events per variant name — the trace's table of contents.
pub fn event_counts(lines: &[TraceLine]) -> BTreeMap<&'static str, u64> {
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for line in lines {
        let name = match &line.event {
            TraceEvent::RoundStart { .. } => "RoundStart",
            TraceEvent::SketchStats { .. } => "SketchStats",
            TraceEvent::EvolutionStats { .. } => "EvolutionStats",
            TraceEvent::MeasureBatch { .. } => "MeasureBatch",
            TraceEvent::GbdtRound { .. } => "GbdtRound",
            TraceEvent::SchedulerStep { .. } => "SchedulerStep",
            TraceEvent::FeatureExtractFailed { .. } => "FeatureExtractFailed",
            TraceEvent::CandidateOrigin { .. } => "CandidateOrigin",
            TraceEvent::ImprovementAttributed { .. } => "ImprovementAttributed",
            TraceEvent::OperatorStats { .. } => "OperatorStats",
            TraceEvent::ModelCalibration { .. } => "ModelCalibration",
            TraceEvent::PhaseProfile { .. } => "PhaseProfile",
            TraceEvent::TuningFinished { .. } => "TuningFinished",
        };
        *counts.entry(name).or_insert(0) += 1;
    }
    counts
}

/// Run-total funnel counts for one operator or rule, summed over every
/// `OperatorStats` event in the trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Efficacy {
    pub proposed: u64,
    pub survived: u64,
    pub measured: u64,
    pub new_best: u64,
}

fn sum_efficacy<'a>(
    rows: impl Iterator<Item = &'a crate::trace::EfficacyRow>,
) -> BTreeMap<String, Efficacy> {
    let mut out: BTreeMap<String, Efficacy> = BTreeMap::new();
    for row in rows {
        let e = out.entry(row.name.clone()).or_default();
        e.proposed += row.proposed;
        e.survived += row.survived;
        e.measured += row.measured;
        e.new_best += row.new_best;
    }
    out
}

/// Sketch-rule efficacy over the whole trace: proposed / survived /
/// measured / new-best totals per rule name.
pub fn rule_efficacy(lines: &[TraceLine]) -> BTreeMap<String, Efficacy> {
    sum_efficacy(lines.iter().flat_map(|l| match &l.event {
        TraceEvent::OperatorStats { rules, .. } => rules.iter(),
        _ => [].iter(),
    }))
}

/// Evolutionary-operator efficacy over the whole trace: proposed /
/// survived / measured / new-best totals per operator name.
pub fn operator_efficacy(lines: &[TraceLine]) -> BTreeMap<String, Efficacy> {
    sum_efficacy(lines.iter().flat_map(|l| match &l.event {
        TraceEvent::OperatorStats { operators, .. } => operators.iter(),
        _ => [].iter(),
    }))
}

/// One `ImprovementAttributed` observation, in trace order. The last entry
/// for a task is the lineage of that task's final best state.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ImprovementPoint {
    pub seq: u64,
    pub trial: u64,
    pub seconds: f64,
    pub prev_best: Option<f64>,
    pub sig: u64,
    pub sketch: u64,
    pub op: String,
    pub generation: u64,
    pub parents: Vec<u64>,
    pub rules: Vec<String>,
}

/// Every best-latency improvement per task, in the order it happened.
pub fn improvements(lines: &[TraceLine]) -> BTreeMap<String, Vec<ImprovementPoint>> {
    let mut out: BTreeMap<String, Vec<ImprovementPoint>> = BTreeMap::new();
    for line in lines {
        if let TraceEvent::ImprovementAttributed {
            task,
            trial,
            seconds,
            prev_best,
            sig,
            sketch,
            op,
            generation,
            parents,
            rules,
        } = &line.event
        {
            out.entry(task.clone()).or_default().push(ImprovementPoint {
                seq: line.seq,
                trial: *trial,
                seconds: *seconds,
                prev_best: *prev_best,
                sig: *sig,
                sketch: *sketch,
                op: op.clone(),
                generation: *generation,
                parents: parents.clone(),
                rules: rules.clone(),
            });
        }
    }
    out
}

/// One `ModelCalibration` observation, in trace order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CalibrationPoint {
    pub seq: u64,
    pub task: String,
    pub batch: u64,
    pub pairs: u64,
    pub rank_acc: f64,
    pub top1_recall: f64,
    pub top8_recall: f64,
    pub err_p10: f64,
    pub err_p50: f64,
    pub err_p90: f64,
}

/// Held-out model calibration over the run: every calibration event in
/// order (the online analogue of the paper's Fig. 15).
pub fn calibration(lines: &[TraceLine]) -> Vec<CalibrationPoint> {
    lines
        .iter()
        .filter_map(|l| match &l.event {
            TraceEvent::ModelCalibration {
                task,
                batch,
                pairs,
                rank_acc,
                top1_recall,
                top8_recall,
                err_p10,
                err_p50,
                err_p90,
            } => Some(CalibrationPoint {
                seq: l.seq,
                task: task.clone(),
                batch: *batch,
                pairs: *pairs,
                rank_acc: *rank_acc,
                top1_recall: *top1_recall,
                top8_recall: *top8_recall,
                err_p10: *err_p10,
                err_p50: *err_p50,
                err_p90: *err_p90,
            }),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::GradientTerms;

    fn line(seq: u64, event: TraceEvent) -> TraceLine {
        TraceLine {
            seq,
            t_ms: seq as f64,
            event,
        }
    }

    fn batch(task: &str, valid: u64, failed: u64, best: Option<f64>) -> TraceEvent {
        TraceEvent::MeasureBatch {
            task: task.into(),
            valid,
            failed,
            error_kinds: if failed > 0 {
                vec![("lowering".into(), failed)]
            } else {
                vec![]
            },
            best_seconds: best,
        }
    }

    #[test]
    fn best_curve_is_monotone_and_cumulative() {
        let lines = vec![
            line(0, batch("a", 8, 0, Some(4.0))),
            line(1, batch("a", 6, 2, Some(5.0))), // worse batch: best stays 4.0
            line(2, batch("a", 8, 0, Some(2.0))),
            line(3, batch("b", 4, 4, None)), // all failed: no point yet
            line(4, batch("b", 8, 0, Some(1.0))),
        ];
        let curves = best_curves(&lines);
        assert_eq!(curves["a"], vec![(8, 4.0), (16, 4.0), (24, 2.0)]);
        assert_eq!(curves["b"], vec![(16, 1.0)]);
    }

    #[test]
    fn error_kinds_aggregate_across_batches() {
        let lines = vec![
            line(0, batch("a", 4, 4, Some(1.0))),
            line(1, batch("a", 6, 2, Some(1.0))),
        ];
        assert_eq!(error_kinds(&lines)["lowering"], 6);
    }

    #[test]
    fn allocations_count_scheduler_steps() {
        let step = |s, task: &str| {
            line(
                s,
                TraceEvent::SchedulerStep {
                    step: s,
                    task: task.into(),
                    gradient_terms: GradientTerms::from_raw(0.0, 0.0, 0.0, 0.0),
                    objective: Some(1.0),
                },
            )
        };
        let lines = vec![step(0, "a"), step(1, "b"), step(2, "a")];
        let alloc = allocations(&lines);
        assert_eq!(alloc["a"], 2);
        assert_eq!(alloc["b"], 1);
    }

    #[test]
    fn counts_and_phases() {
        let mut snapshot = crate::MetricsSnapshot::default();
        let mut h = crate::Histogram::default();
        h.observe(0.5);
        snapshot
            .histograms
            .insert("phase/evolution".into(), h.summary().unwrap());
        let lines = vec![
            line(
                0,
                TraceEvent::GbdtRound {
                    round: 1,
                    trees: 25,
                    train_loss: 0.4,
                },
            ),
            line(1, TraceEvent::PhaseProfile { snapshot }),
        ];
        let phases = phase_breakdown(&lines);
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].0, "phase/evolution");
        let counts = event_counts(&lines);
        assert_eq!(counts["GbdtRound"], 1);
        assert_eq!(counts["PhaseProfile"], 1);
    }

    fn row(name: &str, proposed: u64, new_best: u64) -> crate::trace::EfficacyRow {
        crate::trace::EfficacyRow {
            name: name.into(),
            proposed,
            survived: proposed / 2,
            measured: proposed / 4,
            new_best,
        }
    }

    #[test]
    fn efficacy_sums_across_rounds() {
        let lines = vec![
            line(
                0,
                TraceEvent::OperatorStats {
                    task: "a".into(),
                    round: 0,
                    operators: vec![row("crossover", 8, 1), row("mutate-tile-size", 4, 0)],
                    rules: vec![row("multi-level-tiling", 12, 1)],
                },
            ),
            line(
                1,
                TraceEvent::OperatorStats {
                    task: "a".into(),
                    round: 1,
                    operators: vec![row("crossover", 2, 0)],
                    rules: vec![row("multi-level-tiling", 2, 0), row("always-inline", 6, 2)],
                },
            ),
        ];
        let ops = operator_efficacy(&lines);
        assert_eq!(ops["crossover"].proposed, 10);
        assert_eq!(ops["crossover"].new_best, 1);
        assert_eq!(ops["mutate-tile-size"].proposed, 4);
        let rules = rule_efficacy(&lines);
        assert_eq!(rules["multi-level-tiling"].proposed, 14);
        assert_eq!(rules["always-inline"].new_best, 2);
        assert_eq!(rules.len(), 2);
    }

    #[test]
    fn improvements_keep_order_and_last_is_best() {
        let imp = |seq, trial, seconds, op: &str| {
            line(
                seq,
                TraceEvent::ImprovementAttributed {
                    task: "a".into(),
                    trial,
                    seconds,
                    prev_best: None,
                    sig: trial,
                    sketch: 0,
                    op: op.into(),
                    generation: 1,
                    parents: vec![7],
                    rules: vec!["multi-level-tiling".into()],
                },
            )
        };
        let lines = vec![
            imp(0, 1, 4.0, "init-population"),
            imp(1, 9, 2.0, "crossover"),
            imp(2, 20, 1.5, "mutate-tile-size"),
        ];
        let by_task = improvements(&lines);
        let a = &by_task["a"];
        assert_eq!(a.len(), 3);
        assert_eq!(a.last().unwrap().op, "mutate-tile-size");
        assert_eq!(a.last().unwrap().trial, 20);
        assert!(a.windows(2).all(|w| w[1].seconds < w[0].seconds));
    }

    #[test]
    fn calibration_points_in_trace_order() {
        let cal = |seq, batch| {
            line(
                seq,
                TraceEvent::ModelCalibration {
                    task: "a".into(),
                    batch,
                    pairs: batch * 3,
                    rank_acc: 0.5,
                    top1_recall: 1.0,
                    top8_recall: 0.75,
                    err_p10: 0.01,
                    err_p50: 0.1,
                    err_p90: 0.4,
                },
            )
        };
        let lines = vec![cal(0, 8), cal(1, 16)];
        let points = calibration(&lines);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].batch, 8);
        assert_eq!(points[1].pairs, 48);
    }
}
