//! Quickstart: define a computation, auto-schedule it, inspect the result.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use ansor::prelude::*;

fn main() {
    // 1. Define the computation declaratively (paper Figure 1):
    //    C[i, j] = sum_k A[i, k] * B[k, j];  D = relu(C).
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
    let dag = Arc::new(b.build().expect("valid computation"));
    println!("FLOPs per run: {:.2e}", dag.flop_count());

    // 2. Create a search task on the simulated 20-core CPU and tune.
    let task = SearchTask::new(
        "matmul_relu:512",
        dag.clone(),
        HardwareTarget::intel_20core(),
    );
    let mut measurer = Measurer::new(task.target.clone());
    let options = TuningOptions {
        num_measure_trials: 256,
        ..Default::default()
    };
    println!(
        "tuning with {} measurement trials...",
        options.num_measure_trials
    );
    let result = auto_schedule(&task, options, &mut measurer);
    let best = result.best.expect("found a schedule");

    // 3. Report and pretty-print the best program.
    println!(
        "best: {:.3} ms  ({:.1} GFLOP/s)",
        result.best_seconds * 1e3,
        dag.flop_count() / result.best_seconds / 1e9
    );
    let program = lower(&best.state).expect("lowerable");
    println!("\n--- best program ---\n{}", print_program(&program));

    // 4. Verify functional correctness against the naive program.
    // Scheduling may insert stages; `run_scheduled` keys the buffers by the
    // original DAG's node ids all the same.
    let inputs = interp::random_inputs(&dag, 0);
    let reference = interp::run_naive(&dag, &inputs).expect("reference run");
    let bufs = interp::run_scheduled(&dag, &program, &inputs).expect("tuned program runs");
    let d = dag.node_id("D").expect("output");
    let (tuned, naive) = (bufs.get(d), reference.get(d));
    assert_eq!(tuned.len(), naive.len(), "output length");
    let max_err = tuned
        .iter()
        .zip(naive)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max);
    println!("max |tuned - naive| = {max_err:.2e}");
    assert!(max_err < 1e-2, "tuned program must compute the same values");
    println!("functional check passed.");
}
