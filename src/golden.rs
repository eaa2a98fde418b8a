//! The golden tuning run: a small, fixed-seed, fully deterministic tuning
//! session whose trace and final result are committed under `tests/golden/`
//! and gated in CI.
//!
//! Any change to the search stack that shifts a single RNG draw, trace
//! event, or measured time shows up as a diff against the golden files.
//! Intentional changes are re-blessed with `ansor-tune --bless`; CI fails
//! on unblessed drift (see `tests/golden_trace.rs` and
//! `docs/ROBUSTNESS.md`).

use std::sync::Arc;

use ansor_core::{auto_schedule_with_model, LearnedCostModel, SearchTask, TuningOptions};
use hwsim::{HardwareTarget, Measurer};
use serde::{Deserialize, Serialize};
use telemetry::{canonical_events, read_trace, SharedBuf, Telemetry};
use tensor_ir::{DagBuilder, Expr, Reducer};

/// Directory (relative to the repo root) holding the golden files.
pub const GOLDEN_DIR: &str = "tests/golden";
/// Golden trace file name (one canonical JSON event per line).
pub const TRACE_FILE: &str = "tune_trace.jsonl";
/// Golden summary file name.
pub const SUMMARY_FILE: &str = "tune_summary.json";

/// Final result of the golden run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenSummary {
    /// Task name.
    pub task: String,
    /// Measurement trials consumed.
    pub trials: u64,
    /// Best measured seconds.
    pub best_seconds: f64,
    /// Best throughput in GFLOP/s.
    pub gflops: f64,
}

/// The golden workload: the paper's running example (matmul + ReLU) at a
/// small shape, so the run finishes in seconds.
pub fn golden_task() -> SearchTask {
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[128, 128]);
    let w = b.constant("B", &[128, 128]);
    let c = b.compute_reduce("C", &[128, 128], &[128], Reducer::Sum, |ax| {
        Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
            * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
    });
    b.compute("D", &[128, 128], |ax| {
        Expr::max(
            Expr::load(c, vec![ax[0].clone(), ax[1].clone()]),
            Expr::float(0.0),
        )
    });
    SearchTask::new(
        "golden:mm_relu_128",
        Arc::new(b.build().unwrap()),
        HardwareTarget::intel_20core(),
    )
}

/// The golden run's options, tracing to `telemetry`.
fn golden_options(telemetry: Telemetry) -> TuningOptions {
    TuningOptions {
        num_measure_trials: 48,
        measures_per_round: 16,
        init_population: 24,
        seed: 0xA05F,
        telemetry,
        ..Default::default()
    }
}

/// Runs the canonical fixed-seed tuning session and returns the
/// deterministic trace lines (canonical JSON, wall-clock fields stripped)
/// plus the final summary. Bit-identical across repeats and machines.
pub fn golden_run() -> (Vec<String>, GoldenSummary) {
    let buf = SharedBuf::new();
    let tel = Telemetry::to_writer(Box::new(buf.clone()));
    let task = golden_task();
    let mut measurer = Measurer::new(task.target.clone());
    // The golden run is always fault-free, whatever the process default.
    measurer.set_fault_plan(None);
    measurer.set_telemetry(tel.clone());
    let mut model = LearnedCostModel::new();
    model.set_telemetry(tel.clone());
    let options = golden_options(tel.clone());
    let result = auto_schedule_with_model(&task, options, &mut measurer, &mut model);
    tel.flush();
    let (lines, skipped) = read_trace(buf.contents().as_slice()).expect("readable trace");
    assert_eq!(skipped, 0, "golden trace must be fully parseable");
    let events = canonical_events(&lines);
    let summary = GoldenSummary {
        task: task.name.clone(),
        trials: measurer.trials(),
        best_seconds: result.best_seconds,
        gflops: task.dag.flop_count() / result.best_seconds / 1e9,
    };
    (events, summary)
}

/// Writes the golden files into `dir` (the `--bless` action).
pub fn bless(dir: &std::path::Path) -> std::io::Result<GoldenSummary> {
    let (events, summary) = golden_run();
    std::fs::create_dir_all(dir)?;
    let mut trace = events.join("\n");
    trace.push('\n');
    std::fs::write(dir.join(TRACE_FILE), trace)?;
    let mut json = serde_json::to_string_pretty(&summary).expect("summary serializes");
    json.push('\n');
    std::fs::write(dir.join(SUMMARY_FILE), json)?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_run_is_reproducible() {
        let (e1, s1) = golden_run();
        let (e2, s2) = golden_run();
        assert!(!e1.is_empty());
        assert_eq!(e1, e2, "golden trace must be bit-identical across runs");
        assert_eq!(s1, s2);
        assert!(s1.best_seconds.is_finite());
        assert_eq!(s1.trials, 48);
    }

    /// `ansor-tune` and a served job run a `TuningSession`; their traces
    /// carry the same events as `auto_schedule_with_model`'s, the
    /// `SchedulerStep`s and `TuningFinished` included.
    #[test]
    fn a_session_traces_what_auto_schedule_traces() {
        let buf = SharedBuf::new();
        let tel = Telemetry::to_writer(Box::new(buf.clone()));
        let task = golden_task();
        let mut measurer = Measurer::new(task.target.clone());
        measurer.set_fault_plan(None);
        measurer.set_telemetry(tel.clone());
        let options = golden_options(tel.clone());
        let mut session = ansor_core::TuningSession::new(task, options, measurer, "golden");
        session.run(|_| true);
        tel.flush();
        let (lines, _) = read_trace(buf.contents().as_slice()).expect("readable trace");
        assert_eq!(canonical_events(&lines), golden_run().0);
    }
}
