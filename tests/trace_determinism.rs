//! Two tuning runs with the same seed must emit identical trace event
//! sequences, attribution events included. Wall-clock data (`t_ms`,
//! `PhaseProfile` snapshots) is excluded from the comparison — see
//! docs/TELEMETRY.md.

use ansor::prelude::*;
use std::sync::Arc;
use telemetry::{canonical_events, read_trace, SharedBuf, Telemetry, TraceEvent, TraceLine};

fn matmul_task() -> SearchTask {
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[128, 128]);
    let w = b.constant("B", &[128, 128]);
    b.compute_reduce("C", &[128, 128], &[128], Reducer::Sum, |ax| {
        Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
            * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
    });
    SearchTask::new(
        "matmul:determinism",
        Arc::new(b.build().unwrap()),
        HardwareTarget::intel_20core(),
    )
}

/// Runs one short traced tuning session — three rounds, so the model
/// trains and calibrates — and returns its trace.
fn traced_run(seed: u64) -> Vec<TraceLine> {
    let buf = SharedBuf::new();
    let tel = Telemetry::to_writer(Box::new(buf.clone()));
    let task = matmul_task();
    let options = TuningOptions {
        num_measure_trials: 48,
        measures_per_round: 16,
        init_population: 32,
        seed,
        telemetry: tel.clone(),
        ..Default::default()
    };
    let mut measurer = Measurer::new(task.target.clone());
    measurer.set_telemetry(tel.clone());
    let mut model = LearnedCostModel::new();
    model.set_telemetry(tel.clone());
    let result = auto_schedule_with_model(&task, options, &mut measurer, &mut model);
    assert!(result.best_seconds.is_finite());
    tel.flush();
    let (lines, skipped) = read_trace(buf.contents().as_slice()).expect("readable trace");
    assert_eq!(skipped, 0, "trace must be fully parseable");
    lines
}

#[test]
fn same_seed_runs_emit_identical_traces() {
    let (a, b) = (traced_run(11), traced_run(11));
    let canonical = canonical_events(&a);
    assert_eq!(
        canonical,
        canonical_events(&b),
        "same-seed traces must match event for event"
    );
    let a: Vec<TraceEvent> = a.into_iter().map(|l| l.event).collect();
    assert!(!canonical.is_empty(), "trace must contain events");
    assert!(
        a.iter()
            .any(|e| matches!(e, TraceEvent::MeasureBatch { .. })),
        "trace must contain measurement batches"
    );

    // The attribution events ride the same comparison: they must be
    // present, so it is not vacuous for them, and consistent.
    let count = |name: &str| {
        a.iter()
            .filter(|e| {
                matches!(
                    (name, e),
                    ("origin", TraceEvent::CandidateOrigin { .. })
                        | ("improve", TraceEvent::ImprovementAttributed { .. })
                        | ("opstats", TraceEvent::OperatorStats { .. })
                        | ("calibration", TraceEvent::ModelCalibration { .. })
                )
            })
            .count()
    };
    assert!(count("origin") >= 32, "one origin per measurement");
    assert!(count("improve") >= 1, "some trial must improve");
    assert!(count("opstats") >= 2, "one stats event per round");
    assert!(
        count("calibration") >= 1,
        "rounds after the first retrain must calibrate the model"
    );
    // Every attributed improvement refers to a candidate whose origin was
    // recorded in the same trace.
    let origin_sigs: std::collections::HashSet<u64> = a
        .iter()
        .filter_map(|e| match e {
            TraceEvent::CandidateOrigin { sig, .. } => Some(*sig),
            _ => None,
        })
        .collect();
    for e in &a {
        if let TraceEvent::ImprovementAttributed { sig, .. } = e {
            assert!(origin_sigs.contains(sig), "improvement without an origin");
        }
    }
}

#[test]
fn different_seed_runs_differ() {
    // Sanity check that the comparison is not vacuous: a different seed
    // explores differently, so some event payload must change.
    let a = canonical_events(&traced_run(11));
    let b = canonical_events(&traced_run(12));
    assert_ne!(a, b, "different seeds should diverge somewhere");
}
