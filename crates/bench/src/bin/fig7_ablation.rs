//! **Figure 7**: ablation study of four variants of Ansor on a single
//! convolution operator (the last conv2d of ResNet-50, batch 16).
//!
//! Variants: full Ansor, beam search (early pruning of incomplete
//! programs), no fine-tuning (random sampling only), and limited space
//! (manual-template-like). The y-axis is throughput relative to the best
//! program found by any variant; each curve is the median of several runs.
//!
//! Run: `cargo run -p ansor-bench --release --bin fig7_ablation`

use ansor_baselines::{beam::HalideBeam, SearchFramework};
use ansor_bench::{check_claims, fmt_seconds, maybe_dump_json, median, print_table, Args, Claim};
use ansor_core::{auto_schedule, PolicyVariant, SearchTask, TuningOptions, TuningRecord};
use hwsim::{HardwareTarget, Measurer};
use serde::Serialize;

#[derive(Serialize)]
struct Curve {
    variant: String,
    /// `(trial, relative performance)` samples.
    points: Vec<(u64, f64)>,
}

#[derive(Serialize)]
struct Record {
    curves: Vec<Curve>,
    /// Best program found by any variant (the 1.0 line).
    best_seconds: f64,
    /// The untransformed program.
    naive_seconds: f64,
    /// `naive_seconds / best_seconds`.
    speedup: f64,
}

/// A named tuning-history producer for one ablation variant.
type VariantRunner<'a> = Box<dyn Fn(u64) -> Vec<TuningRecord> + 'a>;

fn best_at(history: &[TuningRecord], trial: u64) -> f64 {
    history
        .iter()
        .take_while(|r| r.trial <= trial)
        .map(|r| r.best_seconds)
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let args = Args::parse();
    let tel = args.telemetry();
    let trials = args.pick(96, 500, 1000);
    let runs = args.pick(1, 3, 5);
    // The last convolution of ResNet-50: 7x7, 512->512 channels, batch 16.
    let dag = ansor_workloads::build_case("C2D", 3, 16).expect("case exists");
    let task = SearchTask::new("conv2d:resnet50-last", dag, HardwareTarget::intel_20core());

    let variants: Vec<(&str, VariantRunner)> = vec![
        (
            "Ansor (ours)",
            // Only the full variant writes the tuning trace.
            Box::new(|seed| run_variant(&task, trials, seed, PolicyVariant::Full, &tel)),
        ),
        (
            "Beam search",
            Box::new(|seed| HalideBeam::default().tune(&task, trials, seed).history),
        ),
        (
            "No fine-tuning",
            Box::new(|seed| {
                let off = telemetry::Telemetry::disabled();
                run_variant(&task, trials, seed, PolicyVariant::NoFineTuning, &off)
            }),
        ),
        (
            "Limited space",
            Box::new(|seed| {
                let off = telemetry::Telemetry::disabled();
                run_variant(&task, trials, seed, PolicyVariant::LimitedSpace, &off)
            }),
        ),
    ];

    let mut histories: Vec<(String, Vec<Vec<TuningRecord>>)> = Vec::new();
    for (name, f) in &variants {
        let hs: Vec<Vec<TuningRecord>> = (0..runs as u64).map(|s| f(s * 31 + 1)).collect();
        histories.push((name.to_string(), hs));
    }

    // Global best across all runs defines the 1.0 line.
    let global_best = histories
        .iter()
        .flat_map(|(_, hs)| hs.iter())
        .flat_map(|h| h.iter())
        .map(|r| r.best_seconds)
        .fold(f64::INFINITY, f64::min);

    let checkpoints: Vec<u64> = (1..=10).map(|i| (trials as u64) * i / 10).collect();
    let mut curves = Vec::new();
    let mut rows = Vec::new();
    for (name, hs) in &histories {
        let mut points = Vec::new();
        let mut row = vec![name.clone()];
        for &cp in &checkpoints {
            let rel = median(
                hs.iter()
                    .map(|h| global_best / best_at(h, cp))
                    .collect::<Vec<_>>(),
            );
            points.push((cp, rel));
            row.push(format!("{rel:.2}"));
        }
        rows.push(row);
        curves.push(Curve {
            variant: name.clone(),
            points,
        });
    }

    if args.tables_enabled() {
        let mut headers: Vec<String> = vec!["variant".into()];
        headers.extend(checkpoints.iter().map(|c| format!("@{c}")));
        let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        print_table(
            "Figure 7: ablation on conv2d (relative performance vs. measurement trials)",
            &headers_ref,
            &rows,
        );
    }
    let naive = {
        let mut m = Measurer::new(task.target.clone());
        m.measure(&tensor_ir::State::new(task.dag.clone())).seconds
    };
    let record = Record {
        curves,
        best_seconds: global_best,
        naive_seconds: naive,
        speedup: naive / global_best,
    };
    println!(
        "(best found: {}, naive schedule: {}, speedup {:.0}x)",
        fmt_seconds(record.best_seconds),
        fmt_seconds(record.naive_seconds),
        record.speedup
    );
    maybe_dump_json(&args, &record);
    args.finish_telemetry(&tel);
    // Each ablated variant plateaus below full Ansor.
    let last = |c: &Curve| c.points.last().expect("ten checkpoints").1;
    let (ansor, ablated) = record.curves.split_first().expect("Ansor is first");
    let below_ansor = |c: &Curve| {
        let text = format!("{} ÷ Ansor, final", c.variant);
        Claim::below(text, "< 1", last(c) / last(ansor), 1.0)
    };
    check_claims(&ablated.iter().map(below_ansor).collect::<Vec<_>>());
}

fn run_variant(
    task: &SearchTask,
    trials: usize,
    seed: u64,
    variant: PolicyVariant,
    tel: &telemetry::Telemetry,
) -> Vec<TuningRecord> {
    let options = TuningOptions {
        num_measure_trials: trials,
        variant,
        seed,
        telemetry: tel.clone(),
        ..Default::default()
    };
    let mut measurer = Measurer::new(task.target.clone());
    measurer.set_telemetry(tel.clone());
    auto_schedule(task, options, &mut measurer).history
}
