//! The first reader of a round trains the model, whichever thread it is:
//! readers racing on a model that is still pending see one training pass
//! and the same scores. `CostModel` is `Sync`, so a model may be read
//! from several threads at once.

use std::collections::HashMap;
use std::sync::Barrier;

use ansor_core::annotate::{sample_program, AnnotationConfig};
use ansor_core::{generate_sketches, CostModel, LearnedCostModel, SearchTask};
use ansor_workloads::build_case;
use hwsim::{HardwareTarget, Measurer};
use rand::prelude::*;
use tensor_ir::State;

const READERS: usize = 8;

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

/// What one reader saw: a batch's scores, or one state's per-node scores
/// in name order, as bit patterns.
type Seen = Vec<(String, u64)>;

fn per_node(scores: HashMap<String, f64>) -> Seen {
    let mut seen: Seen = scores
        .into_iter()
        .map(|(node, s)| (node, s.to_bits()))
        .collect();
    seen.sort();
    seen
}

fn batch(scores: Vec<f64>) -> Seen {
    scores
        .into_iter()
        .map(|s| (String::new(), s.to_bits()))
        .collect()
}

/// `READERS` threads released together onto a model whose retrain is
/// pending, even ones asking for per-node scores and odd ones for a batch.
/// Returns what the first of each kind saw, having checked the rest agree.
fn race(task: &SearchTask, train: &[State], seconds: &[f64], probe: &[State]) -> (Seen, Seen) {
    let tel = telemetry::Telemetry::with_metrics();
    let mut model = LearnedCostModel::new();
    model.set_telemetry(tel.clone());
    model.update(task, train, seconds);
    assert_eq!(tel.counter_value("gbdt/train_passes"), 0);
    let refs: Vec<&State> = probe.iter().collect();
    let barrier = Barrier::new(READERS);
    let seen: Vec<Seen> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|k| {
                let (model, barrier, refs) = (&model, &barrier, &refs);
                scope.spawn(move || {
                    barrier.wait();
                    if k % 2 == 0 {
                        per_node(model.predict_per_node(task, &probe[0]))
                    } else {
                        batch(model.predict_refs(task, refs))
                    }
                })
            })
            .collect();
        readers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(tel.counter_value("gbdt/train_passes"), 1);
    for (k, s) in seen.iter().enumerate() {
        assert_eq!(s, &seen[k % 2], "reader {k}");
    }
    (seen[0].clone(), seen[1].clone())
}

#[test]
fn racing_first_readers_train_once_and_agree() {
    let dag = build_case("C2D", 0, 1).expect("shape 0 exists");
    let task = SearchTask::new("C2D:s0b1", dag, HardwareTarget::intel_20core());
    // Enough rows for the binned path.
    let train = sample_states(&task, 160, 31);
    let seconds: Vec<f64> = Measurer::new(task.target.clone())
        .measure_batch(&train)
        .iter()
        .map(|r| r.seconds)
        .collect();
    let probe = sample_states(&task, 12, 32);

    let seen = race(&task, &train, &seconds, &probe);
    // A second model on the same records races to the same scores.
    assert_eq!(race(&task, &train, &seconds, &probe), seen);
    // Scores of a trained model, not twelve zeros.
    assert!(seen.0.iter().any(|(_, s)| *s != 0));
    let distinct: std::collections::HashSet<u64> = seen.1.iter().map(|(_, s)| *s).collect();
    assert!(distinct.len() > 1);
}
