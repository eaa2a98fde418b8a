//! Extra ablations of design choices called out in DESIGN.md (beyond the
//! paper's Figure 7/10 variants):
//!
//! 1. node-based **crossover on vs. off** in evolutionary search;
//! 2. **learned cost model vs. random scoring** for candidate selection;
//! 3. **ε-greedy exploration on vs. off**.
//!
//! Each ablation tunes the same conv2d task with the same budget and seeds
//! and reports final best latency (median over runs).
//!
//! Run: `cargo run -p ansor-bench --release --bin ablation_extras`

use ansor_bench::{check_claims, fmt_seconds, maybe_dump_json, median, print_table, Args, Claim};
use ansor_core::{
    auto_schedule_with_model, CostModel, EvolutionConfig, LearnedCostModel, RandomModel,
    SearchTask, TuningOptions,
};
use hwsim::{HardwareTarget, Measurer};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    ablation: String,
    best_seconds: f64,
    vs_baseline: f64,
}

fn main() {
    let args = Args::parse();
    let tel = args.telemetry();
    let trials = args.pick(64, 300, 1000);
    let runs = args.pick(1, 3, 5);
    let dag = ansor_workloads::build_case("C2D", 3, 16).expect("case");
    let task = SearchTask::new("conv2d:ablation", dag, HardwareTarget::intel_20core());

    let tune = |crossover: f64, learned: bool, eps: f64, seed: u64| -> f64 {
        let options = TuningOptions {
            num_measure_trials: trials,
            eps_random: eps,
            evolution: EvolutionConfig {
                crossover_prob: crossover,
                ..Default::default()
            },
            seed,
            telemetry: tel.clone(),
            ..Default::default()
        };
        let mut measurer = Measurer::new(task.target.clone());
        measurer.set_telemetry(tel.clone());
        if learned {
            let mut model = LearnedCostModel::new();
            model.set_telemetry(tel.clone());
            auto_schedule_with_model(&task, options, &mut measurer, &mut model).best_seconds
        } else {
            let mut model: Box<dyn CostModel> = Box::new(RandomModel::new(seed));
            auto_schedule_with_model(&task, options, &mut measurer, model.as_mut()).best_seconds
        }
    };

    let configs: Vec<(&str, f64, bool, f64)> = vec![
        ("baseline (crossover, learned model, eps)", 0.15, true, 0.05),
        ("no crossover", 0.0, true, 0.05),
        ("random cost model", 0.15, false, 0.05),
        ("no eps-greedy exploration", 0.15, true, 0.0),
    ];
    let mut rows = Vec::new();
    let mut baseline = f64::NAN;
    for (name, cx, learned, eps) in configs {
        let best = median(
            (0..runs as u64)
                .map(|r| tune(cx, learned, eps, r * 17 + 2))
                .collect(),
        );
        if name.starts_with("baseline") {
            baseline = best;
        }
        eprintln!("{name}: {}", fmt_seconds(best));
        rows.push(Row {
            ablation: name.to_string(),
            best_seconds: best,
            vs_baseline: best / baseline,
        });
    }

    if args.tables_enabled() {
        print_table(
            "Extra ablations on conv2d (lower is better)",
            &["ablation", "best", "slowdown vs baseline"],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.ablation.clone(),
                        fmt_seconds(r.best_seconds),
                        format!("{:.2}x", r.vs_baseline),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }
    // Slowdowns, in the order run: no crossover, random cost model, no ε.
    let [crossover, random, eps] = [1, 2, 3].map(|i| rows[i].vs_baseline);
    let most = "random cost model ÷ the worst other ablation (Known deviation 7)";
    let (learned, worst) = args.pick((0.13, 0.13), (1.0, 0.1), (1.0, 0.1));
    maybe_dump_json(&args, &rows);
    args.finish_telemetry(&tel);
    check_claims(&[
        Claim::at_least("latency, random ÷ learned model", "> 1", random, learned),
        Claim::at_least(most, "≥ 1", random / crossover.max(eps), worst),
    ]);
}
