//! Integration and property tests for the tensor IR: scheduling algebra,
//! lowering/interpreter agreement, printer output, and analysis edge cases.

use std::sync::Arc;

use proptest::prelude::*;
use rand::prelude::*;
use tensor_ir::{
    analysis, interp, lower, print_program, simplify, Annotation, BinOp, CmpOp, ComputeDag,
    DagBuilder, Expr, Reducer, State, Step, UnOp,
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
        let order: Vec<String> = perm.iter().map(|&p| names[p].to_string()).collect();
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
                    .map(|s| s.to_string())
                    .chain(if node == "C" { vec!["k".to_string()] } else { vec![] })
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
        let node = ["C", "C.cache", "C.rf"]
            .choose(&mut rng)
            .unwrap()
            .to_string();
        let iter = ["i", "j", "k", "i.0", "j.1", "k_o"]
            .choose(&mut rng)
            .unwrap()
            .to_string();
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
