//! **Figure 10** (+ §7.3 "search time"): network-level tuning curves.
//!
//! Left panel: MobileNet-V2 alone. Right panel: MobileNet-V2 + ResNet-50
//! jointly. Variants: full Ansor, "No task scheduler" (round-robin),
//! "No fine-tuning" (random sampling), and "Limited space". The objective
//! is f₃ — geometric-mean speedup against AutoTVM's final result as the
//! reference latency B (the paper's y-axis is "speedup relative to
//! AutoTVM").
//!
//! The binary also reports the measurement-trial count at which Ansor first
//! matches AutoTVM's final performance (the paper's ~10× search-time
//! claim). f₃ is defined only once every subgraph has been measured, after
//! one 16-trial unit each, so that count is the warm-up floor: the parity
//! claim checks Ansor's speedup there instead.
//!
//! Run: `cargo run -p ansor-bench --release --bin fig10_scheduler`

use ansor_baselines::{autotvm::AutoTvm, SearchFramework};
use ansor_bench::{check_claims, maybe_dump_json, print_table, Args, Claim, Scale};
use ansor_core::{
    Objective, PolicyVariant, SearchTask, Strategy, TaskScheduler, TaskSchedulerConfig, TuneTask,
    TuningOptions,
};
use ansor_workloads::network;
use hwsim::{HardwareTarget, Measurer};
use serde::Serialize;

#[derive(Serialize)]
struct Curve {
    panel: String,
    variant: String,
    points: Vec<(u64, f64)>,
    match_autotvm_at: Option<u64>,
    /// Trials AutoTVM measured for the panel's reference latencies.
    autotvm_trials: u64,
}

struct Panel {
    name: &'static str,
    nets: Vec<&'static str>,
}

fn main() {
    let args = Args::parse();
    let tel = args.telemetry();
    let autotvm_per_task = args.pick(24, 150, 1000);
    let ansor_round = 16usize;
    let panels = if args.scale == Scale::Smoke {
        vec![Panel {
            name: "DCGAN (smoke)",
            nets: vec!["dcgan"],
        }]
    } else {
        vec![
            Panel {
                name: "MobileNet-V2",
                nets: vec!["mobilenet_v2"],
            },
            Panel {
                name: "MobileNet-V2 + ResNet-50",
                nets: vec!["mobilenet_v2", "resnet50"],
            },
        ]
    };
    let target = HardwareTarget::intel_20core();
    let batch = 1;

    let mut curves = Vec::new();
    for panel in &panels {
        // Build the joint task list and per-DNN AutoTVM references.
        let mut tune_tasks = Vec::new();
        let mut autotvm_ref = Vec::new();
        let mut autotvm_trials_total = 0u64;
        for (dnn, net) in panel.nets.iter().enumerate() {
            let tasks = network(net, batch).expect("known network");
            let mut lat = 0.0;
            for t in &tasks {
                let st = SearchTask::new(t.name.clone(), t.dag.clone(), target.clone());
                let r = AutoTvm.tune(&st, autotvm_per_task, 5);
                lat += t.weight * r.best_seconds;
                autotvm_trials_total += r.history.len() as u64;
                tune_tasks.push(TuneTask {
                    task: st,
                    weight: t.weight,
                    dnn,
                });
            }
            autotvm_ref.push(lat);
            eprintln!(
                "AutoTVM reference for {net}: {}",
                ansor_bench::fmt_seconds(lat)
            );
        }
        let n_tasks = tune_tasks.len();
        let units = ((autotvm_per_task * n_tasks) / ansor_round).max(n_tasks);

        let variants: Vec<(&str, PolicyVariant, Strategy)> = vec![
            (
                "Ansor (ours)",
                PolicyVariant::Full,
                Strategy::GradientDescent,
            ),
            (
                "No task scheduler",
                PolicyVariant::Full,
                Strategy::RoundRobin,
            ),
            (
                "No fine-tuning",
                PolicyVariant::NoFineTuning,
                Strategy::GradientDescent,
            ),
            (
                "Limited space",
                PolicyVariant::LimitedSpace,
                Strategy::GradientDescent,
            ),
        ];
        for (vname, variant, strategy) in variants {
            // Only the full-Ansor variant writes the tuning trace: one
            // traced run per panel keeps the trace readable.
            let traced = vname == "Ansor (ours)";
            let options = TuningOptions {
                measures_per_round: ansor_round,
                variant,
                seed: 13,
                telemetry: if traced {
                    tel.clone()
                } else {
                    Default::default()
                },
                ..Default::default()
            };
            let cfg = TaskSchedulerConfig {
                strategy,
                ..Default::default()
            };
            let mut sched = TaskScheduler::new(
                tune_tasks.clone(),
                Objective::GeoMeanSpeedup(autotvm_ref.clone()),
                options,
                cfg,
            );
            let mut measurer = Measurer::new(target.clone());
            if traced {
                measurer.set_telemetry(tel.clone());
            }
            sched.tune(units, &mut measurer);
            if traced {
                sched.finish();
            }
            // Speedup curve: f3 = -(geomean speedup).
            let points: Vec<(u64, f64)> = sched
                .history
                .iter()
                .map(|r| (r.total_trials, -r.objective))
                .collect();
            let match_at = points.iter().find(|(_, sp)| *sp >= 1.0).map(|(t, _)| *t);
            eprintln!(
                "{} / {vname}: final speedup {:.2}x, matches AutoTVM at {:?} trials \
                 (AutoTVM used {autotvm_trials_total})",
                panel.name,
                points.last().map(|p| p.1).unwrap_or(0.0),
                match_at
            );
            curves.push(Curve {
                panel: panel.name.to_string(),
                variant: vname.to_string(),
                points,
                match_autotvm_at: match_at,
                autotvm_trials: autotvm_trials_total,
            });
        }
    }

    for panel in panels.iter().filter(|_| args.tables_enabled()) {
        let panel_curves: Vec<&Curve> = curves.iter().filter(|c| c.panel == panel.name).collect();
        let max_trials = panel_curves
            .iter()
            .flat_map(|c| c.points.last())
            .map(|p| p.0)
            .max()
            .unwrap_or(0);
        let checkpoints: Vec<u64> = (1..=8).map(|i| max_trials * i / 8).collect();
        let mut rows = Vec::new();
        for c in &panel_curves {
            let mut row = vec![c.variant.clone()];
            for &cp in &checkpoints {
                let sp = c
                    .points
                    .iter()
                    .take_while(|(t, _)| *t <= cp)
                    .map(|(_, s)| *s)
                    .fold(0.0, f64::max);
                row.push(format!("{sp:.2}"));
            }
            row.push(
                c.match_autotvm_at
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "-".into()),
            );
            rows.push(row);
        }
        let mut headers: Vec<String> = vec!["variant".into()];
        headers.extend(checkpoints.iter().map(|c| format!("@{c}")));
        headers.push("matches AutoTVM at".into());
        let href: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        print_table(
            &format!(
                "Figure 10: {} — geomean speedup vs. AutoTVM ({} trials) over trials",
                panel.name,
                panel_curves.first().map_or(0, |c| c.autotvm_trials)
            ),
            &href,
            &rows,
        );
    }
    // Over the panels, whose curves run in the order above: best speedups
    // over AutoTVM, and Ansor's at f₃'s first defined point, the warm-up floor.
    let best = |c: &Curve| c.points.iter().fold(0.0, |b, p| f64::max(b, p.1));
    let (mut no_fine_tuning, mut limited) = (0.0f64, 0.0f64);
    let (mut scheduler, mut parity) = (f64::INFINITY, f64::INFINITY);
    let mut floors = Vec::new();
    for p in curves.chunks(4) {
        let (ansor, round_robin, random, limited_space) = (&p[0], &p[1], &p[2], &p[3]);
        scheduler = scheduler.min(best(ansor) / best(round_robin));
        no_fine_tuning = no_fine_tuning.max(best(random));
        limited = limited.max(best(limited_space) / best(ansor));
        let &(trials, speedup) = ansor.points.iter().find(|p| p.1 > 0.0).expect("f₃ defined");
        parity = parity.min(speedup);
        let autotvm = ansor.autotvm_trials;
        floors.push(format!("{trials} of AutoTVM's {autotvm} trials"));
    }
    let floors = format!(
        "Ansor ÷ AutoTVM at the warm-up floor ({})",
        floors.join("; ")
    );
    let rr = "Ansor ÷ No task scheduler (Known deviation 3)";
    let (random_cap, rr_floor) = args.pick((1.03, 1.0), (1.0, 0.93), (1.0, 0.93));
    maybe_dump_json(&args, &curves);
    args.finish_telemetry(&tel);
    check_claims(&[
        Claim::below(
            "No fine-tuning ÷ AutoTVM",
            "< 1",
            no_fine_tuning,
            random_cap,
        ),
        Claim::below("Limited space ÷ Ansor", "< 1", limited, 1.0),
        Claim::at_least(rr, "> 1", scheduler, rr_floor),
        Claim::at_least(floors, "≥ 1 at ~1/10 the trials", parity, 1.0),
    ]);
}
