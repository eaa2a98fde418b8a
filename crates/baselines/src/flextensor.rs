//! FlexTensor-like general-template search (reference \[53\]).
//!
//! FlexTensor generalizes templates across operators but (per §7.1/§7.2 of
//! the paper) its templates target single operators: they cannot fuse
//! element-wise consumers into the tiled nest, do not move the computation
//! location of padding, and use a fixed unrolling policy. We model it as
//! Ansor's machinery over a no-fusion, no-structural-rule sketch set with a
//! pinned unroll policy, searched with a light local search (FlexTensor
//! uses simulated annealing / RL over its parameter space).

use ansor_core::annotate::AnnotationConfig;
use ansor_core::{
    generate_sketches_full, EvolutionConfig, RuleSet, SearchTask, SketchPolicy, TuningOptions,
};
use hwsim::Measurer;

use crate::{FrameworkResult, SearchFramework};

/// The FlexTensor-like baseline.
pub struct FlexTensor;

impl SearchFramework for FlexTensor {
    fn name(&self) -> &'static str {
        "FlexTensor"
    }

    fn tune(&self, task: &SearchTask, trials: usize, seed: u64) -> FrameworkResult {
        // No fusion, no cache/rfactor stages.
        let sketches = generate_sketches_full(
            task,
            &[],
            RuleSet {
                fusion: false,
                structural: false,
            },
        );
        let annotation = AnnotationConfig {
            // Fixed unrolling policy and fixed computation locations.
            unroll_pragma_choices: vec![16],
            unroll_prob: 0.0,
            location_mutation_prob: 0.0,
            ..Default::default()
        };
        let options = TuningOptions {
            num_measure_trials: trials,
            evolution: EvolutionConfig {
                population: 96,
                generations: 1, // light local search (SA-like)
                crossover_prob: 0.0,
                annotation: annotation.clone(),
            },
            init_population: 96,
            seed,
            ..Default::default()
        };
        let mut policy = SketchPolicy::with_sketches(task.clone(), options, sketches);
        let mut model = ansor_core::LearnedCostModel::new();
        let mut measurer = Measurer::new(task.target.clone());
        while policy.run_round(&mut model, &mut measurer) > 0 {}
        let result = policy.into_result();
        FrameworkResult {
            best_seconds: result.best_seconds,
            history: result.history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::small_matmul_task;
    use std::sync::Arc;
    use tensor_ir::{DagBuilder, Expr, Reducer, Step};

    #[test]
    fn flextensor_never_fuses() {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[64, 64]);
        let w = b.constant("B", &[64, 64]);
        let c = b.compute_reduce("C", &[64, 64], &[64], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
                * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
        });
        b.compute("D", &[64, 64], |ax| {
            Expr::max(
                Expr::load(c, vec![ax[0].clone(), ax[1].clone()]),
                Expr::float(0.0),
            )
        });
        let task = SearchTask::new(
            "mm_relu",
            Arc::new(b.build().unwrap()),
            hwsim::HardwareTarget::intel_20core(),
        );
        let sketches = generate_sketches_full(
            &task,
            &[],
            RuleSet {
                fusion: false,
                structural: false,
            },
        );
        for s in &sketches {
            assert!(!s
                .steps
                .iter()
                .any(|st| matches!(st, Step::ComputeAt { .. })));
        }
    }

    #[test]
    fn flextensor_finds_valid_programs() {
        let task = small_matmul_task();
        let r = FlexTensor.tune(&task, 24, 2);
        assert!(r.best_seconds.is_finite());
    }
}
