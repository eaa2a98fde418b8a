//! Property-based tests on the core invariants:
//!
//! - split/fuse/reorder preserve the iteration volume;
//! - replaying a program's steps reproduces it exactly;
//! - tile-size mutation preserves validity;
//! - the measurer is deterministic.

use std::sync::Arc;

use ansor::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small random matmul(+relu) DAG parameterized by divisor-rich shapes.
fn small_dag(n: i64, m: i64, k: i64, relu: bool) -> Arc<ComputeDag> {
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[n, k]);
    let w = b.constant("B", &[k, m]);
    let c = b.compute_reduce("C", &[n, m], &[k], Reducer::Sum, |ax| {
        Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
            * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
    });
    if relu {
        b.compute("D", &[n, m], |ax| {
            Expr::max(
                Expr::load(c, vec![ax[0].clone(), ax[1].clone()]),
                Expr::float(0.0),
            )
        });
    }
    Arc::new(b.build().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn splits_preserve_iteration_volume(
        l1 in prop::sample::select(vec![1i64, 2, 4, 8]),
        l2 in prop::sample::select(vec![1i64, 2, 4]),
        pos in 0usize..3,
    ) {
        prop_assume!(16 % (l1 * l2) == 0);
        let dag = small_dag(16, 16, 16, false);
        let mut st = State::new(dag);
        let axis = ["i", "j", "k"][pos];
        st.apply(Step::Split {
            node: "C".into(),
            iter: axis.into(),
            lengths: vec![l1, l2],
        }).unwrap();
        let sid = st.stage_by_node_name("C").unwrap();
        prop_assert_eq!(st.stages[sid].loop_volume(), 16 * 16 * 16);
        st.validate().unwrap();
    }

    #[test]
    fn replay_is_exact(
        seed in 0u64..500,
    ) {
        let dag = small_dag(16, 8, 8, true);
        let task = SearchTask::new("prop", dag.clone(), HardwareTarget::intel_20core());
        let sketches = generate_sketches(&task);
        let cfg = AnnotationConfig::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let idx = (seed as usize) % sketches.len();
        if let Some(state) = sample_program(&sketches[idx], &task, &cfg, &mut rng) {
            let replayed = State::replay(dag, &state.steps).unwrap();
            prop_assert_eq!(replayed.stages, state.stages);
        }
    }

    #[test]
    fn tile_mutation_yields_valid_programs(
        seed in 0u64..500,
    ) {
        let dag = small_dag(16, 16, 16, true);
        let task = SearchTask::new("prop", dag.clone(), HardwareTarget::intel_20core());
        let sketches = generate_sketches(&task);
        let cfg = AnnotationConfig::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let idx = (seed as usize) % sketches.len();
        if let Some(state) = sample_program(&sketches[idx], &task, &cfg, &mut rng) {
            let parent = Individual::new(state, idx);
            for _ in 0..4 {
                if let Some(child) =
                    ansor::core::evolution::mutate(&task, &sketches, &parent, &cfg, &mut rng)
                {
                    child.state.validate().unwrap();
                    lower(&child.state).unwrap();
                }
            }
        }
    }

    #[test]
    fn measurer_is_deterministic(
        seed in 0u64..200,
    ) {
        let dag = small_dag(16, 16, 16, false);
        let task = SearchTask::new("prop", dag.clone(), HardwareTarget::intel_20core());
        let sketches = generate_sketches(&task);
        let cfg = AnnotationConfig::default();
        let mut rng = StdRng::seed_from_u64(seed);
        if let Some(state) = sample_program(&sketches[0], &task, &cfg, &mut rng) {
            let mut m1 = Measurer::new(task.target.clone());
            let mut m2 = Measurer::new(task.target.clone());
            prop_assert_eq!(m1.measure(&state).seconds, m2.measure(&state).seconds);
        }
    }
}
