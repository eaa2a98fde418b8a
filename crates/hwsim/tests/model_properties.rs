//! Property tests on the analytical machine model: the simulated hardware
//! must respond monotonically to resources, or the search would chase
//! artifacts.

use std::sync::Arc;

use hwsim::{estimate_seconds, HardwareTarget};
use proptest::prelude::*;
use tensor_ir::{lower, Annotation, DagBuilder, Expr, Reducer, State, Step};

fn matmul_state(n: i64, steps: &[Step]) -> State {
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[n, n]);
    let w = b.placeholder("B", &[n, n]);
    b.compute_reduce("C", &[n, n], &[n], Reducer::Sum, |ax| {
        Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
            * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
    });
    let dag = Arc::new(b.build().unwrap());
    State::replay(dag, steps).unwrap()
}

fn parallel_vectorized(n: i64) -> State {
    matmul_state(
        n,
        &[
            Step::Split {
                node: "C".into(),
                iter: "j".into(),
                lengths: vec![8],
            },
            Step::Reorder {
                node: "C".into(),
                order: vec!["i".into(), "j.0".into(), "k".into(), "j.1".into()],
            },
            Step::Annotate {
                node: "C".into(),
                iter: "i".into(),
                ann: Annotation::Parallel,
            },
            Step::Annotate {
                node: "C".into(),
                iter: "j.1".into(),
                ann: Annotation::Vectorize,
            },
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn more_cores_never_slower(extra in 1u32..64) {
        let base = HardwareTarget::intel_20core();
        let more = HardwareTarget { num_cores: base.num_cores + extra, ..base.clone() };
        let prog = lower(&parallel_vectorized(256)).unwrap();
        let t_base = estimate_seconds(&prog, &base);
        let t_more = estimate_seconds(&prog, &more);
        prop_assert!(t_more <= t_base * 1.0001, "{t_more} vs {t_base}");
    }

    #[test]
    fn wider_vectors_never_slower(lanes in prop::sample::select(vec![4u32, 8, 16, 32])) {
        let base = HardwareTarget { vector_lanes: 4, ..HardwareTarget::intel_20core() };
        let wide = HardwareTarget { vector_lanes: lanes, ..base.clone() };
        let prog = lower(&parallel_vectorized(256)).unwrap();
        prop_assert!(
            estimate_seconds(&prog, &wide) <= estimate_seconds(&prog, &base) * 1.0001
        );
    }

    #[test]
    fn bigger_caches_never_slower(factor in prop::sample::select(vec![2i64, 4, 8])) {
        let base = HardwareTarget::intel_20core();
        let big = HardwareTarget {
            l1_bytes: base.l1_bytes * factor,
            l2_bytes: base.l2_bytes * factor,
            l3_bytes: base.l3_bytes * factor,
            ..base.clone()
        };
        let prog = lower(&matmul_state(512, &[])).unwrap();
        prop_assert!(
            estimate_seconds(&prog, &big) <= estimate_seconds(&prog, &base) * 1.0001
        );
    }

    #[test]
    fn higher_frequency_never_slower(ghz in 1.0f64..6.0) {
        let base = HardwareTarget::intel_20core();
        let fast = HardwareTarget { freq_ghz: base.freq_ghz + ghz, ..base.clone() };
        let prog = lower(&parallel_vectorized(128)).unwrap();
        prop_assert!(
            estimate_seconds(&prog, &fast) <= estimate_seconds(&prog, &base) * 1.0001
        );
    }

    #[test]
    fn time_scales_with_problem_size(n in prop::sample::select(vec![64i64, 128, 256])) {
        let t = HardwareTarget::intel_20core();
        let small = estimate_seconds(&lower(&matmul_state(n, &[])).unwrap(), &t);
        let big = estimate_seconds(&lower(&matmul_state(n * 2, &[])).unwrap(), &t);
        // Doubling n multiplies work by 8; allow wide tolerance for cache
        // effects but demand clear growth.
        prop_assert!(big > small * 3.0, "{big} vs {small}");
    }
}

#[test]
fn estimates_are_strictly_positive_and_finite() {
    let t = HardwareTarget::intel_20core();
    for n in [2i64, 16, 64] {
        let prog = lower(&matmul_state(n, &[])).unwrap();
        let s = estimate_seconds(&prog, &t);
        assert!(s.is_finite() && s > 0.0);
    }
}

#[test]
fn gpu_and_cpu_models_rank_big_parallel_work_differently() {
    // A well-parallelized large matmul should be faster on the V100 model
    // than on the ARM model.
    let prog = lower(&parallel_vectorized(512)).unwrap();
    let arm = estimate_seconds(&prog, &HardwareTarget::arm_4core());
    let intel = estimate_seconds(&prog, &HardwareTarget::intel_20core());
    assert!(intel < arm);
}
