//! Crash/resume soundness for a `TaskScheduler`, whose tasks share one cost
//! model: a run resumed from the checkpoint of a unit that ended between
//! two retrains of that model (it lags its records) must continue
//! bit-identically — same history, same best latencies, same trace. The
//! order the model received its records in is not in the checkpoint: it
//! follows from the scheduler's history, whatever order the record log
//! holds them in.

use std::sync::Arc;

use ansor::core::{
    load_records, CheckpointFile, SchedulerCheckpoint, SchedulerRecord, TuneCheckpoint,
};
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

/// Whether a checkpointed model is trained on fewer records than it holds
/// (every valid record of the policies' logs): the update before the
/// checkpoint did not retrain.
fn lags(ck: &SchedulerCheckpoint) -> bool {
    let logs = ck.policies.iter().flat_map(|p| &p.log);
    ck.model.trained_on < logs.filter(|r| r.is_valid()).count()
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
        measurer.restore_accounting(ck.sim_fault_nanos);
    }
    let mut boundaries = Vec::new();
    while sched.history.len() < UNITS {
        sched.step(&mut measurer).expect("a task can make progress");
        let ck = TuneCheckpoint {
            fingerprint: "crash_resume:scheduler".into(),
            sim_fault_nanos: measurer.sim_fault_nanos(),
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
        .filter(|&k| lags(boundaries[k].0.scheduler.as_ref().expect("scheduler")))
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

#[test]
fn a_save_covering_two_units_out_of_measurement_order_resumes_bit_identically() {
    let (full, boundaries) = scheduled(None);
    // A save appends each task's new records in task order: skipping the
    // save of a unit of the second task that a unit of the first follows
    // leaves the log's last records out of measurement order.
    let tasks: Vec<usize> = full.history.iter().map(|r| r.chosen_task).collect();
    let skipped = (0..UNITS - 2)
        .find(|&k| tasks[k] > tasks[k + 1])
        .expect("a unit of the first task follows one of the second");
    let dir = std::env::temp_dir().join(format!("ansor-skipped-save-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sched.ckpt");
    let mut file = CheckpointFile::create(&path, None).unwrap();
    for (k, (ck, _)) in boundaries[..=skipped + 1].iter().enumerate() {
        if k != skipped {
            file.save(ck.clone()).expect("checkpoint saves");
        }
    }

    let (log, _) = load_records(file.log()).unwrap();
    let trials = |k: usize| full.history[k].total_trials as usize;
    let before = skipped.checked_sub(1).map_or(0, trials);
    let (late, early) = log[before..].split_at(trials(skipped + 1) - trials(skipped));
    assert!(
        late.iter().all(|r| r.task == "crash_resume:mm64")
            && early.iter().all(|r| r.task == "crash_resume:mm96"),
        "the later unit's records come first in the log"
    );
    let (ck, _, _) = CheckpointFile::load(&path).expect("checkpoint loads");
    let (resumed, _) = scheduled(Some(&ck));
    assert_eq!(resumed.history, full.history);
    assert_eq!(resumed.latencies, full.latencies);
    let pre_events = boundaries[skipped + 1].1;
    let stitched: Vec<String> = full.trace[..pre_events]
        .iter()
        .chain(&resumed.trace)
        .cloned()
        .collect();
    assert_eq!(stitched, full.trace);
    std::fs::remove_dir_all(&dir).unwrap();
}
