//! Auto-scheduling a *novel* operator with a user-defined sketch rule.
//!
//! The paper's pitch: Ansor extends to new operators without manual
//! templates, and users can register custom derivation rules for special
//! algorithms. Here we define a "shifted scaled matmul" operator no
//! library ships a kernel for, tune it out of the box, and then add a
//! custom rule that forces an extra-aggressive unroll pragma on
//! data-reuse nodes.
//!
//! ```sh
//! cargo run --release --example custom_operator
//! ```

use std::sync::Arc;

use ansor::core::sketch::{generate_sketches_with_rules, RuleResult, SketchRule, Working};
use ansor::prelude::*;

/// A computation nobody has a hand-written kernel for:
/// `O[i, j] = sum_k |A[i, k] - B[k, j]| * S[j]` (a scaled L1 distance).
fn novel_operator() -> Arc<ComputeDag> {
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[256, 128]);
    let w = b.placeholder("B", &[128, 256]);
    let s = b.constant("S", &[256]);
    let d = b.compute_reduce("Dist", &[256, 256], &[128], Reducer::Sum, |ax| {
        Expr::unary(
            tensor_ir::UnOp::Abs,
            Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
                - Expr::load(w, vec![ax[2].clone(), ax[1].clone()]),
        )
    });
    b.compute("O", &[256, 256], |ax| {
        Expr::load(d, vec![ax[0].clone(), ax[1].clone()]) * Expr::load(s, vec![ax[1].clone()])
    });
    Arc::new(b.build().unwrap())
}

/// A user rule (the "User Defined Rule" row of Table 1): pin a large
/// unroll pragma on every data-reuse node before the built-in rules run.
struct AggressiveUnrollRule;

impl SketchRule for AggressiveUnrollRule {
    fn name(&self) -> &'static str {
        "aggressive-unroll"
    }

    fn apply(&self, ws: &Working, _task: &SearchTask) -> RuleResult {
        let i = ws.i as usize;
        if !ws.state.dag.has_data_reuse(i) {
            return RuleResult::Pass;
        }
        // Only fire once per node: skip if the pragma is already set.
        let name = ws.state.dag.name_of(i);
        let already = ws
            .state
            .steps
            .iter()
            .any(|s| matches!(s, Step::Pragma { node, .. } if *node == name));
        if already {
            return RuleResult::Pass;
        }
        let mut next = ws.clone();
        next.state
            .apply(Step::Pragma {
                node: name,
                max_unroll: 512,
            })
            .expect("pragma always applies");
        // Do not consume the node: let the built-in rules tile it.
        RuleResult::Apply(vec![next])
    }
}

fn main() {
    let dag = novel_operator();
    let task = SearchTask::new("novel:l1dist", dag.clone(), HardwareTarget::intel_20core());

    // Out-of-the-box: no template needed.
    let sketches = generate_sketches(&task);
    println!(
        "built-in rules generated {} sketches for the novel operator",
        sketches.len()
    );

    // With the user rule the sketch list grows.
    let with_user = generate_sketches_with_rules(&task, &[&AggressiveUnrollRule]);
    println!(
        "with the user-defined rule: {} sketches (extra pragma branches)",
        with_user.len()
    );
    assert!(with_user.len() >= sketches.len());

    // Tune it.
    let mut measurer = Measurer::new(task.target.clone());
    let options = TuningOptions {
        num_measure_trials: 128,
        ..Default::default()
    };
    let result = auto_schedule(&task, options, &mut measurer);
    println!(
        "tuned novel operator: {:.3} ms ({:.1} GFLOP/s)",
        result.best_seconds * 1e3,
        dag.flop_count() / result.best_seconds / 1e9
    );
    let naive = {
        let mut m = Measurer::new(task.target.clone());
        m.measure(&State::new(dag.clone())).seconds
    };
    println!(
        "naive program: {:.3} ms  (speedup {:.0}x)",
        naive * 1e3,
        naive / result.best_seconds
    );
}
