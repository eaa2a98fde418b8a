//! Integration and property tests for the tensor IR: scheduling algebra,
//! lowering/interpreter agreement, printer output, and analysis edge cases.

use std::sync::Arc;

use proptest::prelude::*;
use rand::prelude::*;
use tensor_ir::{
    analysis, interp, lower, print_program, simplify, AccessType, Annotation, BinOp, BufferAccess,
    CmpOp, ComputeDag, DagBuilder, Expr, Footprint, Footprints, IterKind, LoopCtx, Name, OpCounts,
    Reducer, State, Step, StoreAnalysis, UnOp,
};

fn matmul(n: i64, m: i64, k: i64) -> Arc<ComputeDag> {
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[n, k]);
    let w = b.placeholder("B", &[k, m]);
    b.compute_reduce("C", &[n, m], &[k], Reducer::Sum, |ax| {
        Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
            * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
    });
    Arc::new(b.build().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Split followed by fusing the parts back is the identity on loop
    /// volume and on program semantics.
    #[test]
    fn split_then_fuse_roundtrip(inner in prop::sample::select(vec![2i64, 4, 8])) {
        let dag = matmul(16, 16, 16);
        let inputs = interp::random_inputs(&dag, 1);
        let reference = interp::run_naive(&dag, &inputs).unwrap();

        let mut st = State::new(dag.clone());
        st.apply(Step::Split { node: "C".into(), iter: "i".into(), lengths: vec![inner] }).unwrap();
        st.apply(Step::Fuse { node: "C".into(), iters: vec!["i.0".into(), "i.1".into()] }).unwrap();
        let sid = st.stage_by_node_name("C").unwrap();
        prop_assert_eq!(st.stages[sid].loop_volume(), 16 * 16 * 16);
        let bufs = interp::run(&lower(&st).unwrap(), &inputs).unwrap();
        prop_assert_eq!(bufs.get(2), reference.get(2));
    }

    /// Any reorder of the matmul loops preserves the result (addition order
    /// changes are exact here because the values are summed in f32 but the
    /// partial order within each (i, j) cell is preserved by pure loop
    /// permutation of a single reduction axis).
    #[test]
    fn reorder_preserves_semantics(perm in prop::sample::select(vec![
        vec![0usize, 1, 2], vec![0, 2, 1], vec![1, 0, 2],
        vec![1, 2, 0], vec![2, 0, 1], vec![2, 1, 0],
    ])) {
        let dag = matmul(8, 8, 8);
        let inputs = interp::random_inputs(&dag, 2);
        let reference = interp::run_naive(&dag, &inputs).unwrap();
        let mut st = State::new(dag);
        let names = ["i", "j", "k"];
        let order: Vec<Name> = perm.iter().map(|&p| names[p].into()).collect();
        st.apply(Step::Reorder { node: "C".into(), order }).unwrap();
        let bufs = interp::run(&lower(&st).unwrap(), &inputs).unwrap();
        for (a, b) in bufs.get(2).iter().zip(reference.get(2)) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// Compute-at with any matching prefix preserves semantics.
    #[test]
    fn compute_at_any_prefix_is_correct(prefix in 1usize..=4) {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[8, 8]);
        let w = b.placeholder("B", &[8, 8]);
        let c = b.compute_reduce("C", &[8, 8], &[8], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
                * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
        });
        b.compute("D", &[8, 8], |ax| {
            Expr::max(Expr::load(c, vec![ax[0].clone(), ax[1].clone()]), Expr::float(0.0))
        });
        let dag = Arc::new(b.build().unwrap());
        let inputs = interp::random_inputs(&dag, 3);
        let reference = interp::run_naive(&dag, &inputs).unwrap();

        let mut st = State::new(dag);
        // Tile both stages identically with 2-level tiles (2, 2).
        for node in ["C", "D"] {
            for ax in ["i", "j"] {
                st.apply(Step::Split { node: node.into(), iter: ax.into(), lengths: vec![2] }).unwrap();
            }
            st.apply(Step::Reorder {
                node: node.into(),
                order: ["i.0", "j.0", "i.1", "j.1"]
                    .iter()
                    .chain(if node == "C" { &["k"][..] } else { &[] })
                    .map(|&s| s.into())
                    .collect(),
            }).unwrap();
        }
        st.apply(Step::ComputeAt { node: "C".into(), target: "D".into(), prefix_len: prefix }).unwrap();
        let bufs = interp::run(&lower(&st).unwrap(), &inputs).unwrap();
        prop_assert_eq!(bufs.get(3), reference.get(3));
    }
}

/// A random walk over the step kinds, structural ones included. Steps that
/// do not apply (a dead iterator, an rfactor after a cache-write) are
/// dropped, which is also what a failed mutation does.
fn random_walk(dag: &Arc<ComputeDag>, seed: u64) -> State {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut st = State::new(dag.clone());
    for _ in 0..rng.gen_range(0..10) {
        let node = Name::new(["C", "C.cache", "C.rf"].choose(&mut rng).unwrap());
        let iter = Name::new(
            ["i", "j", "k", "i.0", "j.1", "k_o"]
                .choose(&mut rng)
                .unwrap(),
        );
        let step = match rng.gen_range(0..6) {
            0 | 1 => Step::Split {
                node,
                iter,
                lengths: vec![if rng.gen_bool(0.5) { 2 } else { 4 }],
            },
            2 => Step::Annotate {
                node,
                iter,
                ann: Annotation::Unroll,
            },
            3 => Step::Pragma {
                node,
                max_unroll: 16,
            },
            4 => Step::CacheWrite { node: "C".into() },
            _ => Step::Rfactor {
                node: "C".into(),
                factor: 4,
            },
        };
        let before = st.signature();
        if st.apply(step).is_err() {
            assert_eq!(
                st.signature(),
                before,
                "a refused step must not be folded in"
            );
        }
    }
    st
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The carried signature against its from-scratch oracle (replay), and
    /// the sharing rules of the DAG: the task's own `Arc` until a
    /// structural step, the state's `Arc` in the lowered program.
    #[test]
    fn signature_and_dag_sharing_invariants(seed in any::<u64>()) {
        let dag = matmul(16, 16, 16);
        let st = random_walk(&dag, seed);
        let replayed = State::replay(dag.clone(), &st.steps).unwrap();
        prop_assert_eq!(st.signature(), replayed.signature());
        prop_assert_eq!(&st, &replayed);
        prop_assert_eq!(st.clone().signature(), st.signature());
        let structural = st.steps.iter().any(Step::is_structural);
        prop_assert_eq!(Arc::ptr_eq(&st.dag, &dag), !structural);
        prop_assert!(Arc::ptr_eq(&lower(&st).unwrap().dag, &st.dag));
        // One more step, one more fold: never the same name again.
        let mut next = st.clone();
        next.apply(Step::Pragma { node: "C".into(), max_unroll: 64 }).unwrap();
        prop_assert!(next.signature() != st.signature());
    }

    /// Copy-on-write: a structural step on a clone leaves the sibling's
    /// and the task's DAG as they were.
    #[test]
    fn structural_step_on_a_clone_copies_the_dag(seed in any::<u64>(), cache in any::<bool>()) {
        let dag = matmul(16, 16, 16);
        let pristine = (*dag).clone();
        let sibling = random_walk(&dag, seed);
        let sibling_dag = (*sibling.dag).clone();
        let mut clone = sibling.clone();
        prop_assert!(Arc::ptr_eq(&clone.dag, &sibling.dag));
        let step = if cache {
            Step::CacheWrite { node: "C".into() }
        } else {
            Step::Rfactor { node: "C".into(), factor: 2 }
        };
        if clone.apply(step).is_ok() {
            prop_assert!(!Arc::ptr_eq(&clone.dag, &sibling.dag));
            prop_assert!(clone.dag.nodes.len() == sibling.dag.nodes.len() + 1);
        }
        prop_assert_eq!(&*sibling.dag, &sibling_dag);
        prop_assert_eq!(&*dag, &pristine);
        prop_assert_eq!(dag.fingerprint(), pristine.fingerprint());
        sibling.validate().unwrap();
    }
}

/// The rule table `simplify` had as one `Expr::map` pass before `lower`
/// began building indices through the per-node rule: the reference the
/// rule is held to, kept nowhere else.
fn simplify_by_the_old_table(e: &Expr) -> Expr {
    e.map(&mut |e| match e {
        Expr::Binary { op, lhs, rhs } => match (op, lhs.as_ref(), rhs.as_ref()) {
            (BinOp::Mul, x, Expr::IntConst(1)) | (BinOp::Add, x, Expr::IntConst(0)) => x.clone(),
            (BinOp::Mul, Expr::IntConst(1), x) | (BinOp::Add, Expr::IntConst(0), x) => x.clone(),
            (BinOp::Mul, _, Expr::IntConst(0)) | (BinOp::Mul, Expr::IntConst(0), _) => {
                Expr::IntConst(0)
            }
            (BinOp::Div, x, Expr::IntConst(1)) => x.clone(),
            (BinOp::Mod, _, Expr::IntConst(1)) => Expr::IntConst(0),
            (op, Expr::IntConst(a), Expr::IntConst(b)) => match op {
                BinOp::Add => Expr::IntConst(a + b),
                BinOp::Sub => Expr::IntConst(a - b),
                BinOp::Mul => Expr::IntConst(a * b),
                BinOp::Div if *b != 0 => Expr::IntConst(a / b),
                BinOp::Mod if *b != 0 => Expr::IntConst(a % b),
                _ => Expr::Binary { op, lhs, rhs },
            },
            _ => Expr::Binary { op, lhs, rhs },
        },
        other => other,
    })
}

/// A random index expression: small constants (so `* 1`, `1 *`, `+ 0`,
/// `* 0`, `/ 1`, `% 1`, `/ 0` and constant folds all come up), loop
/// variables, every binary operator, nested loads and the node kinds the
/// rules pass through.
fn random_index_expr(rng: &mut StdRng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.25) {
        return if rng.gen_bool(0.6) {
            Expr::IntConst(*[0i64, 0, 1, 1, 2, 3, -1].choose(rng).unwrap())
        } else {
            Expr::LoopVar(rng.gen_range(0..3))
        };
    }
    let sub = |rng: &mut StdRng| random_index_expr(rng, depth - 1);
    match rng.gen_range(0..12) {
        0 => Expr::load(rng.gen_range(0..3), vec![sub(rng), sub(rng)]),
        1 => Expr::unary(UnOp::Neg, sub(rng)),
        2 => Expr::cmp(CmpOp::Lt, sub(rng), sub(rng)),
        3 => Expr::select(sub(rng), sub(rng), sub(rng)),
        _ => {
            let op = [
                BinOp::Add,
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Mod,
                BinOp::Min,
                BinOp::Max,
            ];
            Expr::binary(*op.choose(rng).unwrap(), sub(rng), sub(rng))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `simplify` equals the old rule table on random index expressions,
    /// and simplifying twice changes nothing — what lets `lower` build an
    /// index simplified from simplified parts.
    #[test]
    fn simplify_equals_the_old_rule_table(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = random_index_expr(&mut rng, 5);
        let simplified = simplify(&e);
        prop_assert_eq!(&simplified, &simplify_by_the_old_table(&e));
        prop_assert_eq!(&simplify(&simplified), &simplified);
    }
}

#[test]
fn simplify_leaves_division_by_zero_unfolded() {
    let by_zero = Expr::binary(BinOp::Div, Expr::int(6), Expr::int(0));
    assert_eq!(simplify(&by_zero), by_zero);
    let rem_zero = Expr::binary(BinOp::Mod, Expr::int(6), Expr::int(0));
    assert_eq!(simplify(&rem_zero), rem_zero);
    // A load nested in a load index is simplified through.
    let nested = Expr::load(
        0,
        vec![Expr::load(1, vec![Expr::LoopVar(0) * Expr::int(1)])],
    );
    assert_eq!(
        simplify(&nested),
        Expr::load(0, vec![Expr::load(1, vec![Expr::LoopVar(0)])])
    );
}

#[test]
fn printer_matches_expected_structure() {
    let dag = matmul(4, 4, 4);
    let mut st = State::new(dag);
    st.apply(Step::Annotate {
        node: "C".into(),
        iter: "i".into(),
        ann: Annotation::Parallel,
    })
    .unwrap();
    let text = print_program(&lower(&st).unwrap());
    let expect = "\
parallel i in range(4):
  for j in range(4):
    C[i, j] = 0.0
parallel i in range(4):
  for j in range(4):
    for k in range(4):
      C[i, j] += (A[i, k] * B[k, j])
";
    assert_eq!(text, expect);
}

#[test]
fn interpreter_rejects_out_of_bounds() {
    // A deliberately broken DAG: loads beyond the buffer.
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[4]);
    b.compute("C", &[4], |ax| {
        Expr::load(a, vec![ax[0].clone() + Expr::int(10)])
    });
    let dag = Arc::new(b.build().unwrap());
    let st = State::new(dag.clone());
    let program = lower(&st).unwrap();
    let inputs = interp::random_inputs(&dag, 0);
    assert!(interp::run(&program, &inputs).is_err());
}

#[test]
fn guard_fold_factor_depends_on_unrolling() {
    // T2D-like guarded statement: guards over the kernel loop.
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[16]);
    b.compute_reduce("C", &[16], &[4], Reducer::Sum, |ax| {
        Expr::select(
            Expr::cmp(
                CmpOp::Eq,
                Expr::binary(tensor_ir::BinOp::Mod, ax[1].clone(), Expr::int(2)),
                Expr::int(0),
            ),
            Expr::load(a, vec![ax[0].clone()]),
            Expr::float(0.0),
        )
    });
    let dag = Arc::new(b.build().unwrap());
    // Without unrolling: no folding.
    let st = State::new(dag.clone());
    let an = analysis::analyze(&lower(&st).unwrap());
    let stmt = an.iter().find(|s| s.reduce.is_some()).unwrap();
    assert_eq!(stmt.guard_fold_factor(), 1.0);
    // With the guard loop unrolled: folded.
    let mut st = State::new(dag);
    st.apply(Step::Annotate {
        node: "C".into(),
        iter: "k".into(),
        ann: Annotation::Unroll,
    })
    .unwrap();
    let an = analysis::analyze(&lower(&st).unwrap());
    let stmt = an.iter().find(|s| s.reduce.is_some()).unwrap();
    assert!(stmt.guard_fold_factor() < 1.0);
}

#[test]
fn pragma_unroll_reaches_analysis() {
    let dag = matmul(8, 8, 8);
    let mut st = State::new(dag);
    st.apply(Step::Pragma {
        node: "C".into(),
        max_unroll: 64,
    })
    .unwrap();
    let an = analysis::analyze(&lower(&st).unwrap());
    assert!(an.iter().any(|s| s.pragma_unroll == 64));
}

#[test]
fn layout_rewrite_marks_const_accesses_packed() {
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[8, 8]);
    let w = b.constant("W", &[8, 8]);
    b.compute_reduce("C", &[8, 8], &[8], Reducer::Sum, |ax| {
        Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
            * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
    });
    let dag = Arc::new(b.build().unwrap());
    let mut st = State::new(dag);
    st.apply(Step::LayoutRewrite { node: "C".into() }).unwrap();
    let an = analysis::analyze(&lower(&st).unwrap());
    let stmt = an.iter().find(|s| s.reduce.is_some()).unwrap();
    let w_access = stmt.accesses.iter().find(|x| x.node == 1).unwrap();
    assert!(w_access.packed);
    let a_access = stmt.accesses.iter().find(|x| x.node == 0).unwrap();
    assert!(!a_access.packed, "non-const inputs are never packed");
}

#[test]
fn multi_reduce_axes_tile_and_run() {
    // conv-like: two reduction axes, full tiling pipeline.
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[4, 6, 6]);
    let w = b.placeholder("W", &[4, 3, 3]);
    b.compute_reduce("C", &[4, 4, 4], &[4, 3, 3], Reducer::Sum, |ax| {
        Expr::load(
            a,
            vec![
                ax[3].clone(),
                ax[1].clone() + ax[4].clone(),
                ax[2].clone() + ax[5].clone(),
            ],
        ) * Expr::load(w, vec![ax[3].clone(), ax[4].clone(), ax[5].clone()])
    });
    let dag = Arc::new(b.build().unwrap());
    let inputs = interp::random_inputs(&dag, 4);
    let reference = interp::run_naive(&dag, &inputs).unwrap();
    let mut st = State::new(dag);
    st.apply(Step::Split {
        node: "C".into(),
        iter: "j".into(),
        lengths: vec![2],
    })
    .unwrap();
    st.apply(Step::Split {
        node: "C".into(),
        iter: "k".into(),
        lengths: vec![2],
    })
    .unwrap();
    let bufs = interp::run(&lower(&st).unwrap(), &inputs).unwrap();
    for (x, y) in bufs.get(2).iter().zip(reference.get(2)) {
        assert!((x - y).abs() < 1e-4);
    }
}

// ---------------------------------------------------------------------
// The footprint table against the per-level definitions.
// ---------------------------------------------------------------------

/// Distinct elements the loops at levels `lvl..` touch (one full execution
/// of the sub-nest rooted at `lvl`), capped by the buffer's size, taking
/// the product outer to inner.
fn touched_elems(a: &BufferAccess, lvl: usize, loops: &[LoopCtx]) -> f64 {
    let mut n = 1.0f64;
    for (i, lp) in loops.iter().enumerate().skip(lvl) {
        if a.strides[i] != 0 {
            n *= lp.extent as f64;
        }
    }
    n.min(a.buffer_elems as f64)
}

/// Smallest non-zero absolute stride among levels `lvl..`; `None` when the
/// access is invariant in the sub-nest.
fn min_stride(a: &BufferAccess, lvl: usize) -> Option<i64> {
    a.strides[lvl..]
        .iter()
        .filter(|&&s| s != 0)
        .map(|s| s.abs())
        .min()
}

/// Distinct cache lines the sub-nest at `lvl` touches, `line_elems`
/// elements to a line, with one walk of the nest per call.
fn touched_lines(a: &BufferAccess, lvl: usize, loops: &[LoopCtx], line_elems: i64) -> f64 {
    let stride = if a.packed {
        1
    } else {
        min_stride(a, lvl).unwrap_or(0)
    };
    if stride == 0 {
        return 1.0;
    }
    let per_line = (line_elems as f64 / stride as f64).clamp(1.0, line_elems as f64);
    (touched_elems(a, lvl, loops) / per_line).max(1.0)
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

    /// The one-pass footprint table holds, at every level of every access,
    /// exactly (bit for bit) what the per-level definitions compute, on
    /// the lines of a CPU and a GPU target (64 and 128 bytes of `f32`);
    /// one table refilled from statement to statement holds what a fresh
    /// one does.
    #[test]
    fn footprint_table_equals_the_per_level_definitions(seed in any::<u64>()) {
        let s = random_statement(seed);
        let mut reused = Footprints::default();
        reused.fill(&random_statement(seed ^ 1), 16);
        for line_elems in [16, 32] {
            let mut table = Footprints::default();
            table.fill(&s, line_elems);
            reused.fill(&s, line_elems);
            for (k, a) in s.accesses.iter().enumerate() {
                let mut outer = 1.0f64;
                for lvl in 0..=s.loops.len() {
                    let cell = table.at(k, lvl);
                    let want = Footprint {
                        elems: touched_elems(a, lvl, &s.loops),
                        min_stride: min_stride(a, lvl).unwrap_or(0),
                        lines: touched_lines(a, lvl, &s.loops, line_elems),
                        outer,
                    };
                    prop_assert_eq!(bits(cell), bits(want), "access {} level {}", k, lvl);
                    prop_assert_eq!(bits(reused.at(k, lvl)), bits(want));
                    if lvl < s.loops.len() && a.strides[lvl] != 0 {
                        outer *= s.loops[lvl].extent as f64;
                    }
                }
            }
            let mut iterations = 1.0f64;
            for (i, l) in s.loops.iter().enumerate() {
                iterations *= l.extent as f64;
                prop_assert_eq!(table.iterations(i).to_bits(), iterations.to_bits());
            }
        }
    }
}

/// A footprint's fields, its floats as bits.
fn bits(f: Footprint) -> (u64, i64, u64, u64) {
    (
        f.elems.to_bits(),
        f.min_stride,
        f.lines.to_bits(),
        f.outer.to_bits(),
    )
}

#[test]
fn a_nested_footprint_table_leaves_the_outer_one_intact() {
    let (outer, inner) = (random_statement(3), random_statement(4));
    assert!(outer.loops.len() != inner.loops.len() || outer.accesses.len() != inner.accesses.len());
    let mut fresh = Footprints::default();
    fresh.fill(&outer, 16);
    analysis::with_footprints(|table| {
        table.fill(&outer, 16);
        analysis::with_footprints(|nested| nested.fill(&inner, 32));
        for k in 0..outer.accesses.len() {
            for lvl in 0..=outer.loops.len() {
                assert_eq!(bits(table.at(k, lvl)), bits(fresh.at(k, lvl)));
            }
        }
    });
}

// ---------------------------------------------------------------------
// `analyze_state` against its reference, `analyze(&lower(state)?)`.
// ---------------------------------------------------------------------

/// Both paths on one state, results and errors alike.
fn analysed_both_ways(st: &State) -> Result<Vec<analysis::StoreAnalysis>, tensor_ir::Error> {
    let from_program = lower(st).map(|p| analysis::analyze(&p));
    let from_state = analysis::analyze_state(st);
    assert_eq!(from_state, from_program, "steps {:?}", st.steps);
    from_state
}

/// A padded input (inlinable, select-guarded), a matmul-like reduction over
/// it with a constant weight, and an element-wise consumer.
fn padded_matmul() -> Arc<ComputeDag> {
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[16, 14]);
    let w = b.constant("W", &[16, 16]);
    let p = b.compute("P", &[16, 16], |ax| {
        Expr::select(
            Expr::cmp(CmpOp::Ge, ax[1].clone(), Expr::int(1)),
            Expr::load(a, vec![ax[0].clone(), ax[1].clone() - Expr::int(1)]),
            Expr::float(0.0),
        )
    });
    let c = b.compute_reduce("C", &[16, 16], &[16], Reducer::Sum, |ax| {
        Expr::load(p, vec![ax[0].clone(), ax[2].clone()])
            * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
    });
    b.compute("D", &[16, 16], |ax| {
        Expr::max(
            Expr::load(c, vec![ax[0].clone(), ax[1].clone()]),
            Expr::float(0.0),
        )
    });
    Arc::new(b.build().unwrap())
}

/// A random schedule over every kind of step: splits (length-one parts
/// included), fuses of adjacent loops (the div/mod path; a space ⊗ reduce
/// fuse leaves the init nest an iterator without a value, so errors are
/// compared too), reorders, compute-at under matching tiles, inlining,
/// cache-write, rfactor, annotations, pragmas and layout rewrites. Steps
/// that do not apply are dropped.
fn random_schedule(dag: &Arc<ComputeDag>, seed: u64) -> State {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut st = State::new(dag.clone());
    let name_of = |st: &State, sid: usize, it: usize| st.stages[sid].iters[it].name;
    for _ in 0..rng.gen_range(0..14) {
        // A stage that computes (placeholders have no loops).
        let computing: Vec<usize> = (0..st.stages.len())
            .filter(|&s| !st.stages[s].loop_order.is_empty())
            .collect();
        let sid = *computing.choose(&mut rng).unwrap();
        let node = st.dag.name_of(st.stages[sid].node);
        let order = st.stages[sid].loop_order.clone();
        let at = rng.gen_range(0..order.len());
        let step = match rng.gen_range(0..12) {
            0..=2 => Step::Split {
                node,
                iter: name_of(&st, sid, order[at]),
                lengths: (0..rng.gen_range(1..4))
                    .map(|_| *[1i64, 2, 2, 4].choose(&mut rng).unwrap())
                    .collect(),
            },
            3 if at + 1 < order.len() => Step::Fuse {
                node,
                iters: vec![
                    name_of(&st, sid, order[at]),
                    name_of(&st, sid, order[at + 1]),
                ],
            },
            4 => {
                let mut shuffled = order.clone();
                shuffled.shuffle(&mut rng);
                Step::Reorder {
                    node,
                    order: shuffled.iter().map(|&i| name_of(&st, sid, i)).collect(),
                }
            }
            5 => {
                // Tile producer and consumer alike, then attach.
                let factor = *[2i64, 4].choose(&mut rng).unwrap();
                for n in ["C", "D"] {
                    for ax in ["i", "j"] {
                        let _ = st.apply(Step::Split {
                            node: n.into(),
                            iter: ax.into(),
                            lengths: vec![factor],
                        });
                    }
                    let mut tiled: Vec<Name> = ["i.0", "j.0", "i.1", "j.1"].map(Name::new).to_vec();
                    if n == "C" {
                        tiled.push("k".into());
                    }
                    let _ = st.apply(Step::Reorder {
                        node: n.into(),
                        order: tiled,
                    });
                }
                Step::ComputeAt {
                    node: "C".into(),
                    target: "D".into(),
                    prefix_len: rng.gen_range(1..=4),
                }
            }
            6 => Step::ComputeInline { node: "P".into() },
            7 => Step::CacheWrite { node: "C".into() },
            8 => Step::Rfactor {
                node: "C".into(),
                factor: *[2i64, 4].choose(&mut rng).unwrap(),
            },
            9 => Step::Annotate {
                node,
                iter: name_of(&st, sid, order[at]),
                ann: *[
                    Annotation::Unroll,
                    Annotation::Vectorize,
                    Annotation::Parallel,
                ]
                .choose(&mut rng)
                .unwrap(),
            },
            10 => Step::Pragma {
                node,
                max_unroll: *[0i64, 16, 64].choose(&mut rng).unwrap(),
            },
            _ => Step::LayoutRewrite { node },
        };
        let _ = st.apply(step);
    }
    st
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever the schedule, the state analyses to what its program does —
    /// or fails to lower with the same error.
    #[test]
    fn analysis_of_a_state_equals_analysis_of_its_program(seed in any::<u64>()) {
        let st = random_schedule(&padded_matmul(), seed);
        let _ = analysed_both_ways(&st);
    }
}

/// The random schedules above do reach what they are there for.
#[test]
fn random_schedules_cover_every_kind_of_step_and_both_outcomes() {
    let dag = padded_matmul();
    // Analysed; refused by `validate`; refused where a value was needed.
    let (mut ok, mut invalid, mut valueless) = (0, 0, 0);
    let mut kinds = std::collections::BTreeSet::new();
    for seed in 0..400 {
        let st = random_schedule(&dag, seed);
        for step in &st.steps {
            let debug = format!("{step:?}");
            kinds.insert(debug.split([' ', '{']).next().unwrap().to_string());
        }
        match analysed_both_ways(&st) {
            Ok(_) => ok += 1,
            Err(e) if e.to_string().contains("has no value") => valueless += 1,
            Err(e) => {
                assert!(e.to_string().contains("invalid transform"), "{e}");
                invalid += 1;
            }
        }
    }
    assert_eq!(kinds.len(), 10, "{kinds:?}");
    assert!(
        ok > 200 && invalid > 2 && valueless > 2,
        "{ok} analysed, {invalid} invalid, {valueless} without a value"
    );
}

/// `C[i] = A[<index>]` over `A[8]`, `B[8]`: the one statement's analysis.
fn analysed_gather(index: impl FnOnce(&Expr, usize) -> Expr) -> analysis::StoreAnalysis {
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[8]);
    let idx = b.placeholder("B", &[8]);
    b.compute("C", &[8], |ax| Expr::load(a, vec![index(&ax[0], idx)]));
    let st = State::new(Arc::new(b.build().unwrap()));
    analysed_both_ways(&st).unwrap().remove(0)
}

#[test]
fn an_operand_dropped_from_an_index_takes_its_loads_ops_and_guards_along() {
    let nodes =
        |s: &analysis::StoreAnalysis| -> Vec<usize> { s.accesses.iter().map(|a| a.node).collect() };
    // Kept: the indirect load is an access of its own, after A's.
    let kept = analysed_gather(|i, b| Expr::load(b, vec![i.clone()]) + i.clone());
    assert_eq!(nodes(&kept), vec![2, 0, 1]);
    assert_eq!((kept.ops.loads, kept.ops.int_ops), (2, 1));
    // `x * 0`, `0 * x`, `x % 1`: the index is `i`, and B is not read.
    type Drop = fn(Expr) -> Expr;
    let drops: [Drop; 3] = [
        |x| x * Expr::int(0),
        |x| Expr::int(0) * x,
        |x| Expr::binary(BinOp::Mod, x, Expr::int(1)),
    ];
    for drop in drops {
        let s = analysed_gather(|i, b| {
            // The dropped operand: a load, index arithmetic and a guard.
            let x = Expr::select(
                Expr::cmp(CmpOp::Lt, i.clone(), Expr::int(4)),
                Expr::load(b, vec![i.clone() + Expr::int(1)]),
                Expr::int(2),
            );
            drop(x) + i.clone()
        });
        assert_eq!(nodes(&s), vec![2, 0]);
        assert_eq!(s.accesses[1].strides, vec![1]);
        assert_eq!(
            (s.ops.loads, s.ops.int_ops, s.ops.selects),
            (1, 0, 0),
            "{:?}",
            s.ops
        );
        assert!(s.guard_vars.is_empty(), "{:?}", s.guard_vars);
    }
    // A guard that survives next to one that is dropped.
    let s = analysed_gather(|i, b| {
        let guarded = |v: Expr| {
            Expr::select(
                Expr::cmp(CmpOp::Lt, i.clone(), Expr::int(4)),
                v,
                Expr::int(0),
            )
        };
        guarded(Expr::load(b, vec![i.clone()])) * Expr::int(0) + guarded(i.clone())
    });
    assert_eq!(nodes(&s), vec![2, 0]);
    assert_eq!(s.guard_vars, vec![0]);
    assert_eq!((s.ops.selects, s.ops.int_ops), (1, 1));
}

#[test]
fn accesses_come_in_visit_order_and_merge_on_first_match() {
    // C[i] = A[B[i]] + B[i]: A's access precedes that of the load in its
    // own index, and B's two equal accesses are one entry.
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[8]);
    let idx = b.placeholder("B", &[8]);
    b.compute("C", &[8], |ax| {
        Expr::load(a, vec![Expr::load(idx, vec![ax[0].clone()])])
            + Expr::load(idx, vec![ax[0].clone()])
    });
    let st = State::new(Arc::new(b.build().unwrap()));
    let s = analysed_both_ways(&st).unwrap().remove(0);
    let seen: Vec<(usize, u32, &[i64])> = s
        .accesses
        .iter()
        .map(|x| (x.node, x.count, &x.strides[..]))
        .collect();
    // A's index is a load: it evaluates to 0 under every assignment.
    assert_eq!(seen, vec![(2, 1, &[1][..]), (0, 1, &[0]), (1, 2, &[1])]);
    // In[i] += In[i]-style: a read of the stored buffer with the store's
    // strides merges into it as a read-write.
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[8]);
    let c = b.compute("C", &[8], |ax| Expr::load(a, vec![ax[0].clone()]));
    b.compute("D", &[8], |ax| {
        Expr::load(c, vec![ax[0].clone()]) + Expr::load(c, vec![ax[0].clone()])
    });
    let mut st = State::new(Arc::new(b.build().unwrap()));
    // Inlined by hand: D reads A twice where it read C.
    st.stages[1].loc = tensor_ir::ComputeLoc::Inlined;
    let s = analysed_both_ways(&st).unwrap().remove(0);
    assert_eq!(s.accesses.len(), 2);
    assert_eq!((s.accesses[1].node, s.accesses[1].count), (0, 2));
}

#[test]
fn value_position_arithmetic_on_split_axes_is_float_work_and_never_folded() {
    // A padding guard on an axis split four ways, one part of length one:
    // in the guard the axis is `((i.0*4 + 0*2) + i.2*2) + i.3`-shaped, kept
    // as written and counted as float ops; in A's index it is simplified
    // and counted as integer ops.
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[16]);
    b.compute("C", &[16], |ax| {
        Expr::select(
            Expr::cmp(CmpOp::Ge, ax[0].clone(), Expr::int(1)),
            Expr::load(a, vec![ax[0].clone() - Expr::int(1)]),
            Expr::float(0.0),
        )
    });
    let mut st = State::new(Arc::new(b.build().unwrap()));
    st.apply(Step::Split {
        node: "C".into(),
        iter: "i".into(),
        lengths: vec![1, 2, 2],
    })
    .unwrap();
    let s = analysed_both_ways(&st).unwrap().remove(0);
    assert_eq!(s.loops.len(), 3, "the length-one part is pinned");
    // Guard: 3 multiplications (one of them `0 * 4`), 3 additions, 1 cmp.
    assert_eq!(
        (s.ops.float_mul, s.ops.float_add, s.ops.float_cmp),
        (3, 3, 1)
    );
    // Index: `i.0*4 + i.2*2 + i.3 - 1` — the pinned part is gone.
    assert_eq!(s.ops.int_ops, 5);
    assert_eq!(s.accesses[1].strides, vec![4, 2, 1]);
    assert_eq!(s.guard_vars, vec![0, 1, 2]);
}

#[test]
fn guard_variables_come_in_first_visit_order() {
    // The guard reads j before i; the loops are i (var 0) then j (var 1).
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[4, 4]);
    b.compute("C", &[4, 4], |ax| {
        Expr::select(
            Expr::cmp(CmpOp::Lt, ax[1].clone() + ax[0].clone(), Expr::int(4)),
            Expr::load(a, vec![ax[0].clone(), ax[1].clone()]),
            Expr::float(0.0),
        )
    });
    let st = State::new(Arc::new(b.build().unwrap()));
    let s = analysed_both_ways(&st).unwrap().remove(0);
    assert_eq!(s.guard_vars, vec![1, 0]);
}

#[test]
fn a_nest_of_any_depth_analyses() {
    // Six axes, each split four ways: 24 loops around one statement.
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[16; 6]);
    b.compute("C", &[16; 6], |ax| Expr::load(a, ax.to_vec()));
    let mut st = State::new(Arc::new(b.build().unwrap()));
    for axis in st.stages[1].root_iters.clone() {
        st.split(1, axis, &[2, 2, 2]).unwrap();
    }
    let s = analysed_both_ways(&st).unwrap().remove(0);
    assert_eq!(s.loops.len(), 24);
    let innermost_first: Vec<i64> = s.accesses[1].strides.iter().rev().copied().collect();
    let powers: Vec<i64> = (0..24).map(|k| 1 << k).collect();
    assert_eq!(innermost_first, powers);
}

#[test]
fn a_state_that_does_not_lower_fails_analysis_with_the_same_error() {
    // Fails `validate`: a loop is missing.
    let mut st = State::new(matmul(8, 8, 8));
    st.stages[2].loop_order.pop();
    let e = analysed_both_ways(&st).unwrap_err();
    assert!(
        e.to_string()
            .starts_with("lowering error: invalid transform: stage \"C\": loop volume"),
        "{e}"
    );
    // An iterator with no value: j is fused with the reduction axis, so
    // the init nest, which runs over spatial loops only, cannot index C.
    let mut st = State::new(matmul(8, 8, 8));
    st.apply(Step::Fuse {
        node: "C".into(),
        iters: vec!["j".into(), "k".into()],
    })
    .unwrap();
    let e = analysed_both_ways(&st).unwrap_err();
    assert_eq!(
        e.to_string(),
        "lowering error: iterator \"j@k\" has no value (neither live nor derived)"
    );
}

/// Records the bytes and words a `Hash` impl feeds its hasher.
#[derive(Default, PartialEq, Debug)]
struct Fed(Vec<u8>);

impl std::hash::Hasher for Fed {
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }
    fn finish(&self) -> u64 {
        0
    }
}

/// A string drawn from `seed`: up to 12 characters over an alphabet with
/// name punctuation, JSON escapes and multi-byte characters.
fn text_of(seed: u64) -> String {
    const ALPHABET: [char; 14] = [
        'i', 'k', 'C', '0', '7', '.', '@', '_', '"', '\\', '\n', ' ', 'é', '𝛼',
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rng.gen_range(0..=12))
        .map(|_| *ALPHABET.choose(&mut rng).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A `Name` is its string everywhere but equality: it feeds a hasher
    /// the same bytes (so signatures do not move), orders, prints and
    /// serialises the same, and reads back as the same handle.
    #[test]
    fn a_name_hashes_orders_prints_and_serialises_as_its_string(a in any::<u64>(), b in any::<u64>()) {
        use std::hash::{Hash, Hasher};
        let (text, other) = (text_of(a), text_of(b));
        let name = Name::new(&text);
        let (mut fed_name, mut fed_text) = (Fed::default(), Fed::default());
        name.hash(&mut fed_name);
        text.hash(&mut fed_text);
        prop_assert_eq!(fed_name, fed_text);
        let (mut h_name, mut h_text) = (
            std::collections::hash_map::DefaultHasher::new(),
            std::collections::hash_map::DefaultHasher::new(),
        );
        name.hash(&mut h_name);
        text.hash(&mut h_text);
        prop_assert_eq!(h_name.finish(), h_text.finish());
        prop_assert_eq!(name.cmp(&Name::new(&other)), text.cmp(&other));
        prop_assert_eq!(name == Name::new(&other), text == other);
        prop_assert_eq!(format!("{name}"), format!("{text}"));
        prop_assert_eq!(format!("{name:?}"), format!("{text:?}"));
        prop_assert_eq!(format!("{name:>16}|{name:<3}"), format!("{text:>16}|{text:<3}"));
        let json = serde_json::to_string(&name).unwrap();
        prop_assert_eq!(&json, &serde_json::to_string(&text).unwrap());
        let back: Name = serde_json::from_str(&json).unwrap();
        prop_assert!(back == name && std::ptr::eq(back.as_str(), name.as_str()));
    }
}
