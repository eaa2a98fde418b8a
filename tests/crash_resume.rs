//! Crash/resume soundness: a tuning run killed after *every* checkpoint
//! boundary and resumed from the on-disk file must continue bit-identically
//! — same best program, same record log, same telemetry trace — as the run
//! that was never interrupted.
//!
//! The cost model retrains only once its training window has doubled, so
//! a checkpoint can fall between two retrains: the model then lags its
//! records, and the checkpoint must carry how far (`trained_on`) and
//! whether that model had been trained (`trained`). The test asserts that
//! such a boundary occurs before the run ends; `crash_resume_scheduler.rs`
//! covers the same case for a `TaskScheduler`'s shared model.

use std::sync::Arc;

use ansor::core::{
    LearnedCostModel, ModelCheckpoint, SinglePolicyCheckpoint, SketchPolicy, TuneCheckpoint,
    TuningRecordLog, CHECKPOINT_VERSION,
};
use ansor::prelude::*;
use hwsim::FaultPlan;
use telemetry::{canonical_events, read_trace, SharedBuf, Telemetry};

fn task() -> SearchTask {
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[96, 96]);
    let w = b.constant("B", &[96, 96]);
    b.compute_reduce("C", &[96, 96], &[96], Reducer::Sum, |ax| {
        Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
            * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
    });
    SearchTask::new(
        "crash_resume:mm96",
        Arc::new(b.build().unwrap()),
        HardwareTarget::intel_20core(),
    )
}

fn options(tel: Telemetry) -> TuningOptions {
    TuningOptions {
        num_measure_trials: 64,
        measures_per_round: 8,
        init_population: 24,
        seed: 0xC0DE,
        telemetry: tel,
        ..Default::default()
    }
}

// A lively fault plan so the resumed state must also carry retry/quarantine
// bookkeeping, not just the happy path.
fn plan() -> FaultPlan {
    FaultPlan {
        transient_prob: 0.25,
        timeout_prob: 0.05,
        cursed_prob: 0.05,
        max_retries: 2,
        ..FaultPlan::default()
    }
}

fn fresh(tel: &Telemetry) -> (SketchPolicy, LearnedCostModel, Measurer) {
    let t = task();
    let mut measurer = Measurer::with_faults(t.target.clone(), plan());
    measurer.set_telemetry(tel.clone());
    let mut model = LearnedCostModel::new();
    model.set_telemetry(tel.clone());
    (SketchPolicy::new(t, options(tel.clone())), model, measurer)
}

/// Canonical trace lines (wall-clock `PhaseProfile` events stripped).
fn trace_lines(buf: &SharedBuf, tel: &Telemetry) -> Vec<String> {
    tel.flush();
    let (lines, skipped) = read_trace(buf.contents().as_slice()).expect("readable trace");
    assert_eq!(skipped, 0);
    canonical_events(&lines)
}

struct RunResult {
    best_seconds: f64,
    best_steps: Vec<Step>,
    log: Vec<TuningRecordLog>,
    trace: Vec<String>,
    trials: u64,
    sim_fault_nanos: u64,
}

/// The uninterrupted reference run, snapshotting a checkpoint file and the
/// trace length after every round.
fn reference(dir: &std::path::Path) -> (RunResult, Vec<(std::path::PathBuf, usize)>) {
    let buf = SharedBuf::new();
    let tel = Telemetry::to_writer(Box::new(buf.clone()));
    let (mut policy, mut model, mut measurer) = fresh(&tel);
    let mut boundaries = Vec::new();
    let mut round = 0usize;
    while policy.tune_round(&mut model, &mut measurer) > 0 {
        round += 1;
        let path = dir.join(format!("round{round}.ckpt"));
        TuneCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: "crash_resume".into(),
            measurer_trials: measurer.trials(),
            sim_fault_nanos: measurer.sim_fault_nanos(),
            records_flushed: 0,
            single: Some(SinglePolicyCheckpoint {
                policy: policy.checkpoint(),
                model: model.checkpoint(),
            }),
            scheduler: None,
        }
        .save(&path)
        .expect("checkpoint saves");
        // Events written so far = the pre-crash segment for this boundary.
        boundaries.push((path, trace_lines(&buf, &tel).len()));
    }
    let best = policy.best_individual().expect("has a best program");
    let result = RunResult {
        best_seconds: policy.best_seconds(),
        best_steps: best.state.steps.clone(),
        log: policy.log.clone(),
        trace: trace_lines(&buf, &tel),
        trials: policy.trials(),
        sim_fault_nanos: measurer.sim_fault_nanos(),
    };
    (result, boundaries)
}

/// "Kill" at a boundary: load the checkpoint file into entirely fresh
/// objects and run to completion.
fn resume_from(path: &std::path::Path) -> RunResult {
    let ck = TuneCheckpoint::load(path).expect("checkpoint loads");
    assert_eq!(ck.fingerprint, "crash_resume");
    let buf = SharedBuf::new();
    let tel = Telemetry::to_writer(Box::new(buf.clone()));
    let (mut policy, mut model, mut measurer) = fresh(&tel);
    let single = ck.single.as_ref().expect("single-op checkpoint");
    policy.restore(&single.policy).expect("policy restores");
    model
        .restore(&single.model, [&policy])
        .expect("model restores");
    measurer.restore_accounting(ck.measurer_trials, ck.sim_fault_nanos);
    while policy.tune_round(&mut model, &mut measurer) > 0 {}
    let best = policy.best_individual().expect("has a best program");
    RunResult {
        best_seconds: policy.best_seconds(),
        best_steps: best.state.steps.clone(),
        log: policy.log.clone(),
        trace: trace_lines(&buf, &tel),
        trials: policy.trials(),
        sim_fault_nanos: measurer.sim_fault_nanos(),
    }
}

#[test]
fn killed_and_resumed_at_every_boundary_is_bit_identical() {
    let dir = std::env::temp_dir().join(format!("ansor-crash-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (full, boundaries) = reference(&dir);
    assert!(
        boundaries.len() >= 2,
        "need multiple rounds to test boundaries, got {}",
        boundaries.len()
    );
    let models: Vec<ModelCheckpoint> = boundaries
        .iter()
        .map(|(path, _)| {
            let ck = TuneCheckpoint::load(path).expect("checkpoint loads");
            ck.single.expect("single-op checkpoint").model
        })
        .collect();
    assert!(
        models[..models.len() - 1].iter().any(lags),
        "no kill boundary falls between two retrains"
    );
    assert!(full.best_seconds.is_finite());
    for (k, (path, pre_events)) in boundaries.iter().enumerate() {
        let resumed = resume_from(path);
        assert_eq!(
            resumed.best_seconds,
            full.best_seconds,
            "best seconds diverged resuming after round {}",
            k + 1
        );
        assert_eq!(
            resumed.best_steps,
            full.best_steps,
            "best program diverged resuming after round {}",
            k + 1
        );
        assert_eq!(
            resumed.log,
            full.log,
            "record log diverged resuming after round {}",
            k + 1
        );
        assert_eq!(resumed.trials, full.trials);
        assert_eq!(resumed.sim_fault_nanos, full.sim_fault_nanos);
        // Pre-crash trace segment + post-resume trace = uninterrupted trace.
        let stitched: Vec<String> = full.trace[..*pre_events]
            .iter()
            .cloned()
            .chain(resumed.trace.iter().cloned())
            .collect();
        assert_eq!(
            stitched,
            full.trace,
            "trace diverged resuming after round {}",
            k + 1
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Whether a checkpointed model is trained on fewer records than it holds:
/// the update before the checkpoint did not retrain.
fn lags(model: &ModelCheckpoint) -> bool {
    model.trained_on.expect("written with the trained prefix") < model.records.len()
}
