//! Integration tests on the search machinery: crossover offspring are
//! semantically correct programs, annotation policy produces sane
//! distributions, and the policy never re-measures a program.

use std::sync::Arc;

use ansor_core::annotate::{sample_program, AnnotationConfig};
use ansor_core::{
    crossover, generate_sketches, CostModel, Individual, LearnedCostModel, SearchTask,
    SketchPolicy, TuningOptions,
};
use hwsim::{HardwareTarget, Measurer};
use rand::prelude::*;
use tensor_ir::{interp, lower, Annotation, ComputeDag, DagBuilder, Expr, Reducer, State};

fn matmul_relu(n: i64) -> Arc<ComputeDag> {
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[n, n]);
    let w = b.constant("B", &[n, n]);
    let c = b.compute_reduce("C", &[n, n], &[n], Reducer::Sum, |ax| {
        Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
            * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
    });
    b.compute("D", &[n, n], |ax| {
        Expr::max(
            Expr::load(c, vec![ax[0].clone(), ax[1].clone()]),
            Expr::float(0.0),
        )
    });
    Arc::new(b.build().unwrap())
}

#[test]
fn crossover_offspring_compute_correct_results() {
    let dag = matmul_relu(16);
    let task = SearchTask::new("xover", dag.clone(), HardwareTarget::intel_20core());
    let sketches = generate_sketches(&task);
    let cfg = AnnotationConfig::default();
    let mut rng = StdRng::seed_from_u64(5);
    let inputs = interp::random_inputs(&dag, 5);
    let reference = interp::run_naive(&dag, &inputs).unwrap();
    let d = dag.node_id("D").unwrap();

    // Train a tiny model so per-node scores are meaningful.
    let mut pop = Vec::new();
    while pop.len() < 10 {
        let id = rng.gen_range(0..sketches.len());
        if let Some(state) = sample_program(&sketches[id], &task, &cfg, &mut rng) {
            pop.push(Individual::new(state, id));
        }
    }
    let mut model = LearnedCostModel::new();
    let mut measurer = Measurer::new(task.target.clone());
    let states: Vec<State> = pop.iter().map(|p| State::clone(&p.state)).collect();
    let secs: Vec<f64> = states.iter().map(|s| measurer.measure(s).seconds).collect();
    model.update(&task, &states, &secs);

    let mut verified = 0;
    for i in 0..pop.len() {
        for j in 0..pop.len() {
            if i == j || pop[i].sketch != pop[j].sketch {
                continue;
            }
            let Some(child) = crossover(&task, &pop[i], &pop[j], &model) else {
                continue;
            };
            let program = lower(&child.state).expect("offspring lowers");
            let bufs = interp::run_scheduled(&dag, &program, &inputs).expect("offspring runs");
            let (out, want) = (bufs.get(d), reference.get(d));
            assert_eq!(out.len(), want.len(), "offspring computes another shape");
            for (a, b) in out.iter().zip(want) {
                assert!((a - b).abs() < 1e-3, "offspring computes wrong values");
            }
            verified += 1;
        }
    }
    assert!(verified >= 3, "verified only {verified} offspring");
}

#[test]
fn annotation_policy_produces_parallel_and_vectorized_programs() {
    let task = SearchTask::new("dist", matmul_relu(64), HardwareTarget::intel_20core());
    let sketches = generate_sketches(&task);
    let cfg = AnnotationConfig::default();
    let mut rng = StdRng::seed_from_u64(6);
    let mut parallel = 0;
    let mut vectorized = 0;
    let mut pragmas = 0;
    let total = 60;
    for i in 0..total {
        let sk = &sketches[i % sketches.len()];
        let Some(state) = sample_program(sk, &task, &cfg, &mut rng) else {
            continue;
        };
        let program = lower(&state).unwrap();
        let an = tensor_ir::analysis::analyze(&program);
        if an.iter().any(|s| s.parallel_extent() > 1) {
            parallel += 1;
        }
        if an
            .iter()
            .any(|s| s.loops.iter().any(|l| l.ann == Annotation::Vectorize))
        {
            vectorized += 1;
        }
        if an.iter().any(|s| s.pragma_unroll > 0) {
            pragmas += 1;
        }
    }
    // The policy's probabilities are 0.9 / 0.85 / 0.75 respectively; with
    // 60 samples these bounds are loose enough to be deterministic.
    assert!(parallel > total / 2, "only {parallel} parallel programs");
    assert!(
        vectorized > total / 2,
        "only {vectorized} vectorized programs"
    );
    assert!(pragmas > total / 4, "only {pragmas} programs with pragmas");
}

#[test]
fn policy_never_measures_the_same_program_twice() {
    let task = SearchTask::new("dedup", matmul_relu(32), HardwareTarget::intel_20core());
    let options = TuningOptions {
        num_measure_trials: 64,
        measures_per_round: 16,
        ..Default::default()
    };
    let mut policy = SketchPolicy::new(task.clone(), options);
    let mut model = LearnedCostModel::new();
    let mut measurer = Measurer::new(task.target.clone());
    while policy.tune_round(&mut model, &mut measurer) > 0 {}
    let mut seen = std::collections::HashSet::new();
    for rec in &policy.log {
        let sig = format!("{:?}", rec.steps);
        assert!(seen.insert(sig), "program measured twice");
    }
}

#[test]
fn learned_model_outscores_random_on_holdout_ranking() {
    // Sanity: after training, the learned model's ranking correlates with
    // ground truth much better than chance on fresh samples.
    let task = SearchTask::new("rank", matmul_relu(64), HardwareTarget::intel_20core());
    let sketches = generate_sketches(&task);
    let cfg = AnnotationConfig::default();
    let mut rng = StdRng::seed_from_u64(8);
    let sample = |n: usize, rng: &mut StdRng| {
        let mut out = Vec::new();
        while out.len() < n {
            let id = rng.gen_range(0..sketches.len());
            if let Some(s) = sample_program(&sketches[id], &task, &cfg, rng) {
                out.push(s);
            }
        }
        out
    };
    let train = sample(80, &mut rng);
    let mut measurer = Measurer::new(task.target.clone());
    let train_secs: Vec<f64> = train.iter().map(|s| measurer.measure(s).seconds).collect();
    let mut model = LearnedCostModel::new();
    model.update(&task, &train, &train_secs);

    let test = sample(40, &mut rng);
    let test_secs: Vec<f64> = test.iter().map(|s| measurer.measure(s).seconds).collect();
    let pred = model.predict(&task, &test);
    let mut correct = 0;
    let mut total = 0;
    for i in 0..test.len() {
        for j in i + 1..test.len() {
            if (test_secs[i] / test_secs[j]).ln().abs() < 0.3 {
                continue;
            }
            total += 1;
            if (pred[i] > pred[j]) == (test_secs[i] < test_secs[j]) {
                correct += 1;
            }
        }
    }
    let acc = correct as f64 / total.max(1) as f64;
    assert!(acc > 0.7, "holdout pairwise accuracy {acc}");
}
