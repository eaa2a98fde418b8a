//! Reproduces Figure 5: prints the generated sketches and a few randomly
//! annotated complete programs for the paper's two example inputs.
//!
//! ```sh
//! cargo run --release --example sketches
//! ```

use std::sync::Arc;

use ansor::prelude::*;
use rand::prelude::*;
use tensor_ir::CmpOp;

/// Example input 1: C = A·B (512³), D = relu(C).
fn example_input_1() -> Arc<ComputeDag> {
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[512, 512]);
    let w = b.placeholder("B", &[512, 512]);
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
    Arc::new(b.build().unwrap())
}

/// Example input 2: B = relu(A); C = pad(B) to 512; E = C·D (8×4 output).
fn example_input_2() -> Arc<ComputeDag> {
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[8, 400]);
    let d = b.placeholder("D", &[512, 4]);
    let relu = b.compute("B", &[8, 400], |ax| {
        Expr::max(
            Expr::load(a, vec![ax[0].clone(), ax[1].clone()]),
            Expr::float(0.0),
        )
    });
    let pad = b.compute("C", &[8, 512], |ax| {
        Expr::select(
            Expr::cmp(CmpOp::Lt, ax[1].clone(), Expr::int(400)),
            Expr::load(relu, vec![ax[0].clone(), ax[1].clone()]),
            Expr::float(0.0),
        )
    });
    b.compute_reduce("E", &[8, 4], &[512], Reducer::Sum, |ax| {
        Expr::load(pad, vec![ax[0].clone(), ax[2].clone()])
            * Expr::load(d, vec![ax[2].clone(), ax[1].clone()])
    });
    Arc::new(b.build().unwrap())
}

fn show(task_name: &str, dag: Arc<ComputeDag>) {
    println!("\n################ {task_name} ################");
    let task = SearchTask::new(task_name, dag.clone(), HardwareTarget::intel_20core());
    let sketches = generate_sketches(&task);
    println!("{} sketches generated", sketches.len());
    let mut rng = StdRng::seed_from_u64(42);
    let cfg = AnnotationConfig::default();
    for (k, sk) in sketches.iter().enumerate() {
        println!("\n=== sketch {k} (structural steps) ===");
        let skeleton = sk.replay(dag.clone()).expect("sketch replays");
        let program = lower(&skeleton).expect("sketch lowers");
        println!("{}", print_program(&program));
        if let Some(state) = sample_program(sk, &task, &cfg, &mut rng) {
            println!("--- a sampled complete program from sketch {k} ---");
            let program = lower(&state).expect("sample lowers");
            println!("{}", print_program(&program));
        }
    }
}

fn main() {
    show("example input 1 (matmul + relu)", example_input_1());
    show("example input 2 (relu -> pad -> matmul)", example_input_2());
}
