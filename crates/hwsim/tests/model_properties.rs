//! Property tests on the analytical machine model: the simulated hardware
//! must respond monotonically to resources, or the search would chase
//! artifacts.

use std::sync::Arc;

use hwsim::{estimate_seconds, Footprint, Footprints, HardwareTarget};
use proptest::prelude::*;
use rand::prelude::*;
use tensor_ir::{
    lower, AccessType, Annotation, BufferAccess, DagBuilder, Expr, IterKind, LoopCtx, OpCounts,
    Reducer, State, Step, StoreAnalysis,
};

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

/// A statement of up to 24 loops and 8 accesses drawn from `seed`:
/// extents up to 64 while the whole nest stays below 2^40 iterations,
/// strides negative, zero and up to 4 096, buffers from one element up
/// (so footprints are capped), and packed accesses.
fn random_statement(seed: u64) -> StoreAnalysis {
    let mut rng = StdRng::seed_from_u64(seed);
    let depth = rng.gen_range(0..=24usize);
    let mut trips = 1i64;
    let loops: Vec<LoopCtx> = (0..depth)
        .map(|var| {
            let mut extent = *[1i64, 2, 3, 4, 7, 8, 16, 64]
                .choose(&mut rng)
                .expect("non-empty");
            if trips * extent >= 1 << 40 {
                extent = 1;
            }
            trips *= extent;
            LoopCtx {
                var: var as u32,
                extent,
                ann: Annotation::None,
                kind: IterKind::Space,
            }
        })
        .collect();
    let accesses = (0..rng.gen_range(1..=8))
        .map(|node| BufferAccess {
            node,
            access: *[AccessType::Read, AccessType::Write, AccessType::ReadWrite]
                .choose(&mut rng)
                .expect("non-empty"),
            strides: (0..depth)
                .map(|_| match rng.gen_range(0..4) {
                    0 => 0,
                    1 => -rng.gen_range(1..=64i64),
                    _ => rng.gen_range(1..=4096i64),
                })
                .collect(),
            count: rng.gen_range(1..=3),
            buffer_elems: if rng.gen_bool(0.3) {
                rng.gen_range(1..=256)
            } else {
                rng.gen_range(1..=1i64 << 30)
            },
            packed: rng.gen_bool(0.25),
        })
        .collect();
    StoreAnalysis {
        buffer: 0,
        loops,
        ops: OpCounts::default(),
        reduce: None,
        accesses,
        pragma_unroll: 0,
        guard_vars: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The machine model's one-pass footprint table holds, at every level
    /// of every access, exactly (bit for bit) what the per-level
    /// definitions on `BufferAccess` compute, on the line sizes of a CPU
    /// and a GPU target; one table refilled from statement to statement
    /// holds what a fresh one does.
    #[test]
    fn footprint_table_equals_the_per_level_definitions(seed in any::<u64>()) {
        let s = random_statement(seed);
        let mut reused = Footprints::default();
        reused.fill(&random_statement(seed ^ 1), 16);
        for target in [HardwareTarget::intel_20core(), HardwareTarget::nvidia_v100()] {
            let line_elems = target.line_elems();
            let mut table = Footprints::default();
            table.fill(&s, line_elems);
            reused.fill(&s, line_elems);
            for (k, a) in s.accesses.iter().enumerate() {
                let mut outer = 1.0f64;
                for lvl in 0..=s.loops.len() {
                    let cell = table.at(k, lvl);
                    let want = Footprint {
                        elems: a.touched_elems(lvl, &s.loops),
                        min_stride: a.min_stride(lvl).unwrap_or(0),
                        lines: a.touched_lines(lvl, &s.loops, line_elems),
                        outer,
                    };
                    let bits = |f: Footprint| {
                        (f.elems.to_bits(), f.min_stride, f.lines.to_bits(), f.outer.to_bits())
                    };
                    prop_assert_eq!(bits(cell), bits(want), "access {} level {}", k, lvl);
                    prop_assert_eq!(bits(reused.at(k, lvl)), bits(want));
                    if lvl < s.loops.len() && a.strides[lvl] != 0 {
                        outer *= s.loops[lvl].extent as f64;
                    }
                }
            }
        }
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
