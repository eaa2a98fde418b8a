//! Vendor kernel library stand-in (PyTorch/MKL-DNN, CuDNN, Eigen, …).
//!
//! Real vendor libraries ship kernels hand-tuned offline by experts; at
//! deployment time they perform no search. We model this as a small,
//! fixed, deterministic offline tuning pass: a few dozen schedule
//! candidates drawn from expert heuristics, evaluated once, best kept.
//! These offline evaluations are *not* counted as measurement trials —
//! exactly as PyTorch's MKL-DNN calls cost the paper's baselines nothing.
//!
//! Per §7.1, the MKL-DNN baseline uses AVX-512 while search frameworks had
//! it disabled; pass [`hwsim::HardwareTarget::intel_20core_avx512`] as the
//! vendor target to reproduce that asymmetry.

use ansor_core::annotate::{sample_program, AnnotationConfig};
use ansor_core::{generate_sketches_full, Individual, RuleSet, SearchTask};
use hwsim::{HardwareTarget, Measurer};
use rand::prelude::*;

/// Number of offline candidates the "expert" evaluates per kernel.
const OFFLINE_CANDIDATES: usize = 48;

/// Returns the vendor library's execution time for a task on the given
/// target (usually the AVX-512 variant of the search targets' CPU).
pub fn vendor_seconds(task: &SearchTask, target: &HardwareTarget) -> f64 {
    let vendor_task = SearchTask {
        target: target.clone(),
        ..task.clone()
    };
    vendor_best(&vendor_task).1
}

/// Offline expert tuning: deterministic, small, heuristic-biased.
/// Returns the best `(schedule, seconds)`.
pub fn vendor_best(task: &SearchTask) -> (Option<Individual>, f64) {
    // Expert kernels use classic tiling + fusion structures; Ansor's novel
    // structural rewrites (cache stages, rfactor) are exactly what the
    // paper shows vendor libraries and templates miss.
    let sketches = generate_sketches_full(
        task,
        &[],
        RuleSet {
            fusion: true,
            structural: false,
        },
    );
    if sketches.is_empty() {
        return (None, f64::INFINITY);
    }
    // Expert heuristics: always vectorize, always parallelize, moderate
    // unrolling — i.e. the annotation policy with its probabilistic knobs
    // pinned to "expert" values.
    let cfg = AnnotationConfig {
        parallel_prob: 1.0,
        vectorize_prob: 1.0,
        unroll_prob: 0.5,
        unroll_pragma_choices: vec![64],
        location_mutation_prob: 0.0,
        ..Default::default()
    };
    let mut measurer = Measurer::new(task.target.clone());
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let mut best: (Option<Individual>, f64) = (None, f64::INFINITY);
    for i in 0..OFFLINE_CANDIDATES {
        let k = i % sketches.len();
        let Some(state) = sample_program(&sketches[k], task, &cfg, &mut rng) else {
            continue;
        };
        let res = measurer.measure(&state);
        if res.is_valid() && res.seconds < best.1 {
            best = (Some(Individual::new(state, k)), res.seconds);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::small_matmul_task;

    #[test]
    fn vendor_is_deterministic() {
        let task = small_matmul_task();
        let a = vendor_best(&task).1;
        let b = vendor_best(&task).1;
        assert_eq!(a, b);
        assert!(a.is_finite());
    }

    #[test]
    fn avx512_vendor_never_loses_to_avx2_vendor() {
        // Wider SIMD can only help; it helps strictly when the chosen
        // kernel's vector extent exceeds 8 lanes, so assert non-strictly
        // here and strictly on a wide, deliberately vectorized schedule.
        let task = small_matmul_task();
        let avx2 = vendor_seconds(&task, &HardwareTarget::intel_20core());
        let avx512 = vendor_seconds(&task, &HardwareTarget::intel_20core_avx512());
        assert!(avx512 <= avx2, "avx512 {avx512} vs avx2 {avx2}");

        let mut st = tensor_ir::State::new(task.dag.clone());
        for step in [
            tensor_ir::Step::Split {
                node: "C".into(),
                iter: "j".into(),
                lengths: vec![16],
            },
            tensor_ir::Step::Reorder {
                node: "C".into(),
                order: vec!["i".into(), "j.0".into(), "k".into(), "j.1".into()],
            },
            tensor_ir::Step::Annotate {
                node: "C".into(),
                iter: "j.1".into(),
                ann: tensor_ir::Annotation::Vectorize,
            },
        ] {
            st.apply(step).unwrap();
        }
        let prog = tensor_ir::lower(&st).unwrap();
        let t2 = hwsim::estimate_seconds(&prog, &HardwareTarget::intel_20core());
        let t512 = hwsim::estimate_seconds(&prog, &HardwareTarget::intel_20core_avx512());
        assert!(t512 < t2, "16-lane schedule must run faster with AVX-512");
    }

    #[test]
    fn vendor_beats_naive_schedule() {
        let task = small_matmul_task();
        let vendor = vendor_best(&task).1;
        let mut m = Measurer::new(task.target.clone());
        let naive = m.measure(&tensor_ir::State::new(task.dag.clone())).seconds;
        assert!(vendor * 3.0 < naive, "vendor {vendor} vs naive {naive}");
    }
}
