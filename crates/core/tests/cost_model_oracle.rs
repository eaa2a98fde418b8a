//! The cost-model oracle: one `LearnedCostModel` is fed hwsim-measured
//! samples of three operators in batches (an `update` per batch, as under
//! a `TaskScheduler`; the model that scores is the one over every record)
//! and then scores held-out samples. `tests/golden/cost_model.predictions` holds each
//! score's bit pattern, written with the GBDT trainer this repository had
//! before `TrainPass`; any trainer must reproduce every line.

use std::fmt::Write as _;

use ansor_core::annotate::{sample_program, AnnotationConfig};
use ansor_core::{generate_sketches, CostModel, LearnedCostModel, SearchTask};
use ansor_workloads::build_case;
use hwsim::{HardwareTarget, Measurer};
use rand::prelude::*;
use tensor_ir::State;

const PREDICTIONS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/cost_model.predictions"
);

fn sample_states(task: &SearchTask, n: usize, seed: u64) -> Vec<State> {
    let sketches = generate_sketches(task);
    let cfg = AnnotationConfig::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    while out.len() < n {
        let sketch = &sketches[rng.gen_range(0..sketches.len())];
        out.extend(sample_program(sketch, task, &cfg, &mut rng));
    }
    out
}

fn held_out_predictions() -> String {
    let mut model = LearnedCostModel::new();
    let mut held_out = Vec::new();
    let tasks: Vec<SearchTask> = ["C2D", "GMM", "NRM"]
        .iter()
        .map(|op| {
            let dag = build_case(op, 0, 1).expect("shape 0 exists");
            SearchTask::new(format!("{op}:s0b1"), dag, HardwareTarget::intel_20core())
        })
        .collect();
    for round in 0..4 {
        for (t, task) in tasks.iter().enumerate() {
            let states = sample_states(task, 16, 100 * round + t as u64);
            let seconds: Vec<f64> = Measurer::new(task.target.clone())
                .measure_batch(&states)
                .iter()
                .map(|r| r.seconds)
                .collect();
            model.update(task, &states, &seconds);
        }
    }
    for (t, task) in tasks.iter().enumerate() {
        held_out.push((task, sample_states(task, 16, 9000 + t as u64)));
    }
    let mut out = String::new();
    for (task, states) in held_out {
        for score in model.predict(task, &states) {
            writeln!(out, "{} {:016x}", task.name, score.to_bits()).expect("writing to a String");
        }
    }
    out
}

#[test]
fn retrained_model_reproduces_the_committed_predictions() {
    let golden = std::fs::read_to_string(PREDICTIONS).expect("fixture is committed");
    let now = held_out_predictions();
    assert_eq!(golden.lines().count(), 48);
    for (n, (want, got)) in golden.lines().zip(now.lines()).enumerate() {
        assert_eq!(want, got, "held-out state {n} scores differently");
    }
    assert_eq!(golden.lines().count(), now.lines().count());
}

/// `cargo test -p ansor-core --test cost_model_oracle -- --ignored bless`
/// rewrites the fixture; only a deliberate change of what the cost model
/// learns justifies it.
#[test]
#[ignore]
fn bless_held_out_predictions() {
    std::fs::write(PREDICTIONS, held_out_predictions()).expect("fixture is writable");
}
