//! Crash/resume soundness for a `TaskScheduler`, whose tasks share one cost
//! model: a run resumed from the checkpoint of a unit that ended between
//! two retrains of that model (it lags its records) must continue
//! bit-identically — same history, same best latencies, same trace.

use std::sync::Arc;

use ansor::core::{ModelCheckpoint, SchedulerRecord, TuneCheckpoint, CHECKPOINT_VERSION};
use ansor::prelude::*;
use telemetry::{canonical_events, read_trace, SharedBuf, Telemetry};

fn matmul(name: &str, n: i64) -> SearchTask {
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[n, n]);
    let w = b.constant("B", &[n, n]);
    b.compute_reduce("C", &[n, n], &[n], Reducer::Sum, |ax| {
        Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
            * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
    });
    SearchTask::new(
        name,
        Arc::new(b.build().unwrap()),
        HardwareTarget::intel_20core(),
    )
}

/// Canonical trace lines (wall-clock `PhaseProfile` events stripped).
fn trace_lines(buf: &SharedBuf, tel: &Telemetry) -> Vec<String> {
    tel.flush();
    let (lines, skipped) = read_trace(buf.contents().as_slice()).expect("readable trace");
    assert_eq!(skipped, 0);
    canonical_events(&lines)
}

/// Whether a checkpointed model is trained on fewer records than it holds:
/// the update before the checkpoint did not retrain.
fn lags(model: &ModelCheckpoint) -> bool {
    model.trained_on.expect("written with the trained prefix") < model.records.len()
}

fn scheduler(tel: &Telemetry) -> TaskScheduler {
    let tasks = [("crash_resume:mm64", 64), ("crash_resume:mm96", 96)]
        .into_iter()
        .map(|(name, n)| TuneTask {
            task: matmul(name, n),
            weight: 1.0,
            dnn: 0,
        })
        .collect();
    TaskScheduler::new(
        tasks,
        Objective::WeightedSum,
        TuningOptions {
            measures_per_round: 8,
            init_population: 12,
            evolution: EvolutionConfig {
                population: 16,
                generations: 1,
                ..Default::default()
            },
            seed: 0x5CED,
            telemetry: tel.clone(),
            ..Default::default()
        },
        TaskSchedulerConfig::default(),
    )
}

const UNITS: usize = 9;

struct SchedulerRun {
    history: Vec<SchedulerRecord>,
    latencies: Vec<f64>,
    trace: Vec<String>,
}

/// Runs the scheduler to `UNITS` units, from `resume` if given; returns
/// the run and, per unit, its checkpoint (through a JSON round trip, as
/// from a file) and the trace length so far.
fn scheduled(resume: Option<&TuneCheckpoint>) -> (SchedulerRun, Vec<(TuneCheckpoint, usize)>) {
    let buf = SharedBuf::new();
    let tel = Telemetry::to_writer(Box::new(buf.clone()));
    let mut sched = scheduler(&tel);
    let mut measurer = Measurer::new(HardwareTarget::intel_20core());
    measurer.set_telemetry(tel.clone());
    if let Some(ck) = resume {
        let sc = ck.scheduler.as_ref().expect("scheduler checkpoint");
        sched.restore(sc).expect("scheduler restores");
        measurer.restore_accounting(ck.measurer_trials, ck.sim_fault_nanos);
    }
    let mut boundaries = Vec::new();
    while sched.history.len() < UNITS {
        sched.step(&mut measurer).expect("a task can make progress");
        let ck = TuneCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: "crash_resume:scheduler".into(),
            measurer_trials: measurer.trials(),
            sim_fault_nanos: measurer.sim_fault_nanos(),
            records_flushed: 0,
            single: None,
            scheduler: Some(sched.checkpoint()),
        };
        let json = serde_json::to_string(&ck).expect("checkpoint serializes");
        let ck = serde_json::from_str(&json).expect("checkpoint parses");
        boundaries.push((ck, trace_lines(&buf, &tel).len()));
    }
    let run = SchedulerRun {
        history: sched.history.clone(),
        latencies: sched.best_latencies(),
        trace: trace_lines(&buf, &tel),
    };
    (run, boundaries)
}

#[test]
fn a_scheduler_resumed_between_two_retrains_of_its_shared_model_is_bit_identical() {
    let (full, boundaries) = scheduled(None);
    let between: Vec<usize> = (0..UNITS - 1)
        .filter(|&k| lags(&boundaries[k].0.scheduler.as_ref().expect("scheduler").model))
        .collect();
    assert!(!between.is_empty(), "no unit ends between two retrains");
    for k in between {
        let (ck, pre_events) = &boundaries[k];
        let (resumed, _) = scheduled(Some(ck));
        let unit = k + 1;
        assert_eq!(resumed.history, full.history, "after unit {unit}");
        assert_eq!(resumed.latencies, full.latencies, "after unit {unit}");
        let stitched: Vec<String> = full.trace[..*pre_events]
            .iter()
            .chain(&resumed.trace)
            .cloned()
            .collect();
        assert_eq!(stitched, full.trace, "after unit {unit}");
    }
}
