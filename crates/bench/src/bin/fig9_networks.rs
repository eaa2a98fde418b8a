//! **Figure 9**: end-to-end network inference benchmark on three simulated
//! platforms — Intel CPU (batch 1/16), NVIDIA GPU (batch 1/16) and ARM CPU
//! (batch 1) — for ResNet-50, MobileNet-V2, 3D-ResNet-18, DCGAN and BERT.
//!
//! Frameworks: the vendor-library stand-in (collapsing PyTorch/TensorFlow/
//! TensorRT/TF-Lite, which are all static kernel libraries on these
//! platforms), AutoTVM-like template search with a fixed per-task budget,
//! and Ansor with its gradient-descent task scheduler under the same total
//! budget. End-to-end latency is the weighted sum of best subgraph
//! latencies (§6).
//!
//! Run: `cargo run -p ansor-bench --release --bin fig9_networks`

use ansor_baselines::{autotvm::AutoTvm, vendor::vendor_seconds, SearchFramework};
use ansor_bench::{
    check_claims, fmt_seconds, maybe_dump_json, normalize_to_best, print_table, Args, Claim, Scale,
};
use ansor_core::{
    Objective, SearchTask, TaskScheduler, TaskSchedulerConfig, TuneTask, TuningOptions,
};
use ansor_workloads::{all_networks, network};
use hwsim::{HardwareTarget, Measurer, TargetKind};
use serde::Serialize;

#[derive(Serialize)]
struct NetResult {
    network: String,
    target: String,
    batch: i64,
    vendor_s: f64,
    autotvm_s: f64,
    ansor_s: f64,
}

/// Vendor, AutoTVM and Ansor throughput, normalized to the best of the three.
fn normalized(r: &NetResult) -> Vec<f64> {
    normalize_to_best(&[1.0 / r.vendor_s, 1.0 / r.autotvm_s, 1.0 / r.ansor_s])
}

fn main() {
    let args = Args::parse();
    let tel = args.telemetry();
    // The paper gives each framework 1000×n trials for a network with n
    // subgraphs; scaled down by default.
    let trials_per_task = args.pick(16, 100, 1000);
    let nets: Vec<&str> = if args.scale == Scale::Smoke {
        vec!["dcgan"]
    } else {
        all_networks().to_vec()
    };
    let platforms: Vec<(HardwareTarget, Vec<i64>)> = if args.scale == Scale::Smoke {
        vec![(HardwareTarget::intel_20core(), vec![1])]
    } else {
        vec![
            (HardwareTarget::intel_20core(), vec![1, 16]),
            (HardwareTarget::nvidia_v100(), vec![1, 16]),
            (HardwareTarget::arm_4core(), vec![1]),
        ]
    };

    let mut results: Vec<NetResult> = Vec::new();
    for (target, batches) in &platforms {
        for &batch in batches {
            for &net in &nets {
                let tasks = network(net, batch).expect("known network");
                let n = tasks.len();
                let budget = trials_per_task * n;

                // Vendor library: weighted sum of static kernels.
                let vendor_target =
                    if target.kind == TargetKind::Cpu && target.name.starts_with("intel") {
                        HardwareTarget::intel_20core_avx512()
                    } else {
                        target.clone()
                    };
                let vendor_s: f64 = tasks
                    .iter()
                    .map(|t| {
                        let st = SearchTask::new(t.name.clone(), t.dag.clone(), target.clone());
                        t.weight * vendor_seconds(&st, &vendor_target)
                    })
                    .sum();

                // AutoTVM: fixed budget per task, sequential.
                let autotvm_s: f64 = tasks
                    .iter()
                    .map(|t| {
                        let st = SearchTask::new(t.name.clone(), t.dag.clone(), target.clone());
                        t.weight * AutoTvm.tune(&st, trials_per_task, 5).best_seconds
                    })
                    .sum();

                // Ansor: task scheduler over the same total budget.
                let tune_tasks: Vec<TuneTask> = tasks
                    .iter()
                    .map(|t| TuneTask {
                        task: SearchTask::new(t.name.clone(), t.dag.clone(), target.clone()),
                        weight: t.weight,
                        dnn: 0,
                    })
                    .collect();
                let round = 32.min(trials_per_task.max(8));
                let options = TuningOptions {
                    measures_per_round: round,
                    seed: 9,
                    telemetry: tel.clone(),
                    ..Default::default()
                };
                let mut sched = TaskScheduler::new(
                    tune_tasks,
                    Objective::WeightedSum,
                    options,
                    TaskSchedulerConfig::default(),
                );
                let mut measurer = Measurer::new(target.clone());
                measurer.set_telemetry(tel.clone());
                // At least one warm-up unit per task.
                let units = (budget / round).max(n);
                sched.tune(units, &mut measurer);
                sched.finish();
                let ansor_s = sched.dnn_latencies()[0];

                eprintln!(
                    "{net} @{} b{batch}: vendor {} | autotvm {} | ansor {}",
                    target.name,
                    fmt_seconds(vendor_s),
                    fmt_seconds(autotvm_s),
                    fmt_seconds(ansor_s)
                );
                results.push(NetResult {
                    network: net.to_string(),
                    target: target.name.clone(),
                    batch,
                    vendor_s,
                    autotvm_s,
                    ansor_s,
                });
            }
        }
    }

    for (target, batches) in platforms.iter().filter(|_| args.tables_enabled()) {
        for &batch in batches {
            let rows: Vec<Vec<String>> = results
                .iter()
                .filter(|r| r.target == target.name && r.batch == batch)
                .map(|r| {
                    let norm = normalized(r);
                    vec![
                        r.network.clone(),
                        format!("{:.2}", norm[0]),
                        format!("{:.2}", norm[1]),
                        format!("{:.2}", norm[2]),
                        fmt_seconds(r.ansor_s),
                    ]
                })
                .collect();
            if rows.is_empty() {
                continue;
            }
            print_table(
                &format!(
                    "Figure 9: {} batch={batch} (normalized throughput, 1.00 = best)",
                    target.name
                ),
                &["network", "Vendor", "AutoTVM", "Ansor", "Ansor latency"],
                &rows,
            );
        }
    }
    let count = |pred: fn(&NetResult) -> bool| results.iter().filter(|r| pred(r)).count() as f64;
    let wins = count(|r| normalized(r)[2] >= 0.999);
    let parity = count(|r| r.ansor_s <= r.autotvm_s);
    let n = results.len();
    let best =
        format!("cases of {n} where Ansor is best or tied (within 0.1 %; Known deviation 6)");
    let matched = format!("cases of {n} where Ansor matches or beats AutoTVM (Known deviation 6)");
    let (floor_best, floor_matched) = args.pick((0.0, 1.0), (17.0, 22.0), (17.0, 22.0));
    maybe_dump_json(&args, &results);
    args.finish_telemetry(&tel);
    check_claims(&[
        Claim::at_least(best, "24 of 25", wins, floor_best),
        Claim::at_least(matched, "25 of 25", parity, floor_matched),
    ]);
}
