//! **Figure 3**: pairwise comparison accuracy and top-k recall of a cost
//! model (trained on complete programs) evaluated on *incomplete* programs,
//! as a function of the programs' completion rate.
//!
//! Reproduces the paper's case study: a GBDT cost model is trained on
//! random complete programs from the matmul+relu search space; test
//! programs are then masked to fractions of their rewriting steps and the
//! model must predict their *final* performance.
//!
//! Run: `cargo run -p ansor-bench --release --bin fig3_incomplete`

use std::sync::Arc;

use ansor_bench::{check_claims, maybe_dump_json, print_table, Args, Claim};
use ansor_core::annotate::{sample_program, AnnotationConfig};
use ansor_core::{generate_sketches, CostModel, LearnedCostModel, SearchTask};
use hwsim::{HardwareTarget, Measurer};
use rand::prelude::*;
use serde::Serialize;
use tensor_ir::{DagBuilder, Expr, Reducer, State};

#[derive(Serialize)]
struct Row {
    completion_rate: f64,
    pairwise_accuracy: f64,
    topk_recall: f64,
}

fn matmul_relu_task() -> SearchTask {
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[512, 512]);
    let w = b.constant("B", &[512, 512]);
    let c = b.compute_reduce("C", &[512, 512], &[512], Reducer::Sum, |ax| {
        Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
            * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
    });
    b.compute("D", &[512, 512], |ax| {
        Expr::max(
            Expr::load(c, vec![ax[0].clone(), ax[1].clone()]),
            Expr::float(0.0),
        )
    });
    SearchTask::new(
        "matmul_relu:512",
        Arc::new(b.build().unwrap()),
        HardwareTarget::intel_20core(),
    )
}

fn main() {
    let args = Args::parse();
    let tel = args.telemetry();
    // The paper uses 20,000 random programs; scaled here (--full = 4000).
    let n_programs = args.pick(200, 1200, 4000);
    let task = matmul_relu_task();
    let sketches = generate_sketches(&task);
    let cfg = AnnotationConfig::default();
    let mut rng = StdRng::seed_from_u64(3);
    let measurer = Measurer::new(task.target.clone());

    println!("sampling {n_programs} random complete programs...");
    let mut programs: Vec<State> = Vec::with_capacity(n_programs);
    while programs.len() < n_programs {
        let sk = &sketches[rng.gen_range(0..sketches.len())];
        if let Some(s) = sample_program(sk, &task, &cfg, &mut rng) {
            programs.push(s);
        }
    }
    let seconds: Vec<f64> = programs
        .iter()
        .map(|s| measurer.time_only(&tensor_ir::lower(s).expect("lowerable")))
        .collect();

    // Train on the first half, evaluate on the second half.
    let half = n_programs / 2;
    let mut model = LearnedCostModel::new();
    model.set_telemetry(tel.clone());
    model.update(&task, &programs[..half], &seconds[..half]);

    let test = &programs[half..];
    let test_secs = &seconds[half..];
    let k = (test.len() / 10).max(1);
    // Ground-truth top-k set (fastest programs).
    let mut order: Vec<usize> = (0..test.len()).collect();
    order.sort_by(|&a, &b| test_secs[a].partial_cmp(&test_secs[b]).unwrap());
    let truth_topk: std::collections::HashSet<usize> = order[..k].iter().copied().collect();

    let mut rows = Vec::new();
    for step in 0..=10 {
        let rate = step as f64 / 10.0;
        // Mask each test program to the first `rate` fraction of its steps.
        let masked: Vec<State> = test
            .iter()
            .map(|s| {
                let n = ((s.steps.len() as f64) * rate).round() as usize;
                State::replay(task.dag.clone(), &s.steps[..n]).expect("prefix replays")
            })
            .collect();
        let pred = model.predict(&task, &masked);
        // Pairwise accuracy on a subsample of pairs.
        let mut correct = 0u64;
        let mut total = 0u64;
        let mut pair_rng = StdRng::seed_from_u64(7);
        for _ in 0..20_000 {
            let i = pair_rng.gen_range(0..test.len());
            let j = pair_rng.gen_range(0..test.len());
            if i == j || (test_secs[i] / test_secs[j] - 1.0).abs() < 1e-6 {
                continue;
            }
            total += 1;
            if (pred[i] > pred[j]) == (test_secs[i] < test_secs[j]) {
                correct += 1;
            }
        }
        let acc = correct as f64 / total.max(1) as f64;
        // Top-k recall.
        let mut pred_order: Vec<usize> = (0..test.len()).collect();
        pred_order.sort_by(|&a, &b| pred[b].partial_cmp(&pred[a]).unwrap());
        let hits = pred_order[..k]
            .iter()
            .filter(|i| truth_topk.contains(i))
            .count();
        let recall = hits as f64 / k as f64;
        rows.push(Row {
            completion_rate: rate,
            pairwise_accuracy: acc,
            topk_recall: recall,
        });
    }

    if args.tables_enabled() {
        print_table(
            "Figure 3: cost-model accuracy vs. program completion rate",
            &["completion", "pairwise acc", "top-k recall"],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        format!("{:.1}", r.completion_rate),
                        format!("{:.3}", r.pairwise_accuracy),
                        format!("{:.3}", r.topk_recall),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }
    // The curves "go up quickly as the programs become complete": the best
    // value at a completion ≤ 0.8 stays below the value at 1.0.
    let early = |f: fn(&Row) -> f64| rows[..9].iter().map(f).fold(0.0, f64::max) / f(&rows[10]);
    let (acc, recall) = (early(|r| r.pairwise_accuracy), early(|r| r.topk_recall));
    maybe_dump_json(&args, &rows);
    args.finish_telemetry(&tel);
    check_claims(&[
        Claim::below("pairwise accuracy, best ≤ 0.8 ÷ at 1.0", "< 1", acc, 1.0),
        Claim::below("top-k recall, best ≤ 0.8 ÷ at 1.0", "< 1", recall, 1.0),
    ]);
}
