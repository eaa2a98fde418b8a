//! **Table 2**: objective functions for tuning multiple neural networks.
//!
//! Demonstrates all four objectives on a pair of small DNNs:
//!
//! - `f₁` — total weighted latency of both DNNs;
//! - `f₂` — latency requirements: a DNN that already meets its requirement
//!   receives no more tuning time;
//! - `f₃` — geometric-mean speedup against reference latencies;
//! - `f₄` — early stopping: a task whose latency has stagnated is frozen.
//!
//! The table shows, per objective, the final allocation vector and the
//! per-DNN latencies, making the scheduling behavior visible.
//!
//! Run: `cargo run -p ansor-bench --release --bin table2_objectives`

use ansor_bench::{fmt_seconds, maybe_dump_json, print_table, Args};
use ansor_core::{
    Objective, SearchTask, TaskScheduler, TaskSchedulerConfig, TuneTask, TuningOptions,
};
use ansor_workloads::ops;
use hwsim::{HardwareTarget, Measurer};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    objective: String,
    allocations: Vec<u64>,
    dnn_latencies: Vec<f64>,
    objective_value: f64,
}

fn tasks() -> Vec<TuneTask> {
    let target = HardwareTarget::intel_20core();
    // DNN 0: one medium matmul; DNN 1: one large conv — the conv DNN is the
    // bottleneck under f1.
    vec![
        TuneTask {
            task: SearchTask::new("matmul:dnn0", ops::gmm(1, 256, 256, 256), target.clone()),
            weight: 2.0,
            dnn: 0,
        },
        TuneTask {
            task: SearchTask::new("conv2d:dnn1", ops::conv2d(1, 128, 128, 28, 3, 1, 1), target),
            weight: 4.0,
            dnn: 1,
        },
    ]
}

fn main() {
    let args = Args::parse();
    let tel = args.telemetry();
    let units = args.pick(6, 24, 60);
    let mut rows = Vec::new();

    // References for f2/f3: a quick warm-up run's latencies.
    let refs = {
        let mut sched = TaskScheduler::new(
            tasks(),
            Objective::WeightedSum,
            options(),
            TaskSchedulerConfig::default(),
        );
        let mut m = Measurer::new(HardwareTarget::intel_20core());
        sched.tune(4, &mut m);
        sched.dnn_latencies()
    };

    let objectives = vec![
        ("f1 weighted sum", Objective::WeightedSum),
        (
            // DNN 0's requirement is already met by the warm-up level;
            // DNN 1 must keep improving.
            "f2 latency requirement",
            Objective::LatencyRequirement(vec![refs[0] * 4.0, refs[1] / 16.0]),
        ),
        (
            "f3 geomean speedup",
            Objective::GeoMeanSpeedup(refs.clone()),
        ),
        (
            "f4 early stopping",
            Objective::EarlyStopping { patience: 4 },
        ),
    ];

    for (name, obj) in objectives {
        let mut opts = options();
        opts.telemetry = tel.clone();
        let mut sched = TaskScheduler::new(
            tasks(),
            obj,
            opts,
            TaskSchedulerConfig {
                eps: 0.0,
                ..Default::default()
            },
        );
        let mut m = Measurer::new(HardwareTarget::intel_20core());
        m.set_telemetry(tel.clone());
        sched.tune(units, &mut m);
        sched.finish();
        let d = sched.dnn_latencies();
        eprintln!("{name}: allocations {:?}", sched.allocations);
        rows.push(Row {
            objective: name.to_string(),
            allocations: sched.allocations.clone(),
            objective_value: sched
                .history
                .last()
                .map(|r| r.objective)
                .unwrap_or(f64::NAN),
            dnn_latencies: d,
        });
    }

    if args.tables_enabled() {
        print_table(
            "Table 2: multi-DNN objectives (allocation of tuning units)",
            &[
                "objective",
                "units (matmul, conv)",
                "DNN0 latency",
                "DNN1 latency",
                "f value",
            ],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.objective.clone(),
                        format!("{:?}", r.allocations),
                        fmt_seconds(r.dnn_latencies[0]),
                        fmt_seconds(r.dnn_latencies[1]),
                        format!("{:.4}", r.objective_value),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }
    println!(
        "\nExpected: f1 pours units into the bottleneck DNN 1; f2 starves\n\
         DNN 0 (its requirement is already met); f3 balances both; f4\n\
         freezes tasks whose latency stagnates."
    );
    maybe_dump_json(&args, &rows);
    args.finish_telemetry(&tel);
}

fn options() -> TuningOptions {
    TuningOptions {
        measures_per_round: 16,
        seed: 21,
        ..Default::default()
    }
}
