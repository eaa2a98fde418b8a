//! Property and scenario tests for the Appendix-B feature extractor: every
//! feature finite, correct group activation across schedule variations,
//! and discrimination between good and bad schedules.

use std::sync::Arc;

use ansor_features::{feature_names, FeatureMatrix, ProgramFeatures, FEATURE_DIM};
use proptest::prelude::*;
use tensor_ir::{analyze, lower, Annotation, ComputeDag, DagBuilder, Expr, Reducer, State, Step};

fn matmul(n: i64) -> Arc<ComputeDag> {
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[n, n]);
    let w = b.constant("B", &[n, n]);
    b.compute_reduce("C", &[n, n], &[n], Reducer::Sum, |ax| {
        Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
            * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
    });
    Arc::new(b.build().unwrap())
}

/// The feature rows of the program `st` lowers to.
fn rows(st: &State) -> FeatureMatrix {
    ProgramFeatures::of_statements(&analyze(&lower(st).unwrap())).rows
}

fn slot(name: &str) -> usize {
    feature_names()
        .iter()
        .position(|n| n == name)
        .unwrap_or_else(|| panic!("unknown feature {name}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All features stay finite over randomized schedules.
    #[test]
    fn features_always_finite(
        li in prop::sample::select(vec![1i64, 2, 4, 8]),
        lj in prop::sample::select(vec![1i64, 2, 4, 8, 16]),
        lk in prop::sample::select(vec![1i64, 4, 16]),
        vectorize in any::<bool>(),
        parallel in any::<bool>(),
    ) {
        let dag = matmul(64);
        let mut st = State::new(dag);
        st.apply(Step::Split { node: "C".into(), iter: "i".into(), lengths: vec![li] }).unwrap();
        st.apply(Step::Split { node: "C".into(), iter: "j".into(), lengths: vec![lj] }).unwrap();
        st.apply(Step::Split { node: "C".into(), iter: "k".into(), lengths: vec![lk] }).unwrap();
        if vectorize && lj > 1 {
            st.apply(Step::Annotate {
                node: "C".into(), iter: "j.1".into(), ann: Annotation::Vectorize,
            }).unwrap();
        }
        if parallel {
            st.apply(Step::Annotate {
                node: "C".into(), iter: "i.0".into(), ann: Annotation::Parallel,
            }).unwrap();
        }
        let feats = rows(&st);
        prop_assert_eq!(feats.n_cols(), FEATURE_DIM);
        for (i, v) in feats.data().iter().enumerate() {
            prop_assert!(v.is_finite(), "feature {} not finite", i % FEATURE_DIM);
        }
    }
}

#[test]
fn unroll_group_activates_on_unrolled_loop() {
    let dag = matmul(32);
    let mut st = State::new(dag.clone());
    st.apply(Step::Split {
        node: "C".into(),
        iter: "k".into(),
        lengths: vec![4],
    })
    .unwrap();
    st.apply(Step::Annotate {
        node: "C".into(),
        iter: "k.1".into(),
        ann: Annotation::Unroll,
    })
    .unwrap();
    let feats = rows(&st);
    let compute = feats.row(1); // init stmt first, compute second
    assert!(compute[slot("unroll_len")] > 0.0);
    assert_eq!(compute[slot("unroll_num")], 1.0);
    assert_eq!(compute[slot("unroll_pos_none")], 0.0);
    // k.1 is the innermost reduce loop.
    assert_eq!(compute[slot("unroll_pos_inner_rd")], 1.0);
}

#[test]
fn gpu_binding_features_reflect_launch_shape() {
    let dag = matmul(64);
    let mut st = State::new(dag);
    st.apply(Step::Split {
        node: "C".into(),
        iter: "i".into(),
        lengths: vec![16],
    })
    .unwrap();
    st.apply(Step::Annotate {
        node: "C".into(),
        iter: "i.0".into(),
        ann: Annotation::BindBlock,
    })
    .unwrap();
    st.apply(Step::Annotate {
        node: "C".into(),
        iter: "i.1".into(),
        ann: Annotation::BindThread,
    })
    .unwrap();
    let feats = rows(&st);
    let compute = feats.row(1);
    assert!((compute[slot("gpu_blocks")] - (1.0f32 + 4.0).log2()).abs() < 1e-6);
    assert!((compute[slot("gpu_threads")] - (1.0f32 + 16.0).log2()).abs() < 1e-6);
    assert_eq!(compute[slot("gpu_has_b")], 1.0);
    assert_eq!(compute[slot("gpu_has_t")], 1.0);
    // 16 threads of a 32-wide warp → 0.5 efficiency.
    assert!((compute[slot("gpu_warp_eff")] - 0.5).abs() < 1e-6);
}

#[test]
fn pragma_feature_tracks_value() {
    let dag = matmul(16);
    let mut st = State::new(dag);
    st.apply(Step::Pragma {
        node: "C".into(),
        max_unroll: 512,
    })
    .unwrap();
    let feats = rows(&st);
    let compute = feats.row(1);
    assert!((compute[slot("pragma_unroll")] - (513.0f32).log2()).abs() < 1e-5);
}

#[test]
fn stride_feature_distinguishes_transposed_access() {
    // Row-major read vs column-major read of the same buffer.
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[64, 64]);
    b.compute("R", &[64, 64], |ax| {
        Expr::load(a, vec![ax[0].clone(), ax[1].clone()])
    });
    b.compute("T", &[64, 64], |ax| {
        Expr::load(a, vec![ax[1].clone(), ax[0].clone()])
    });
    let dag = Arc::new(b.build().unwrap());
    let st = State::new(dag);
    let feats = rows(&st);
    // Statement 0 = R (stride-1 load), statement 1 = T (stride-64 load).
    // buf1 is the loaded input for both (buf0 is the store).
    let stride = slot("buf1_stride");
    assert!(feats.row(0)[stride] < feats.row(1)[stride]);
}

#[test]
fn feature_names_are_unique() {
    let names = feature_names();
    let set: std::collections::HashSet<&String> = names.iter().collect();
    assert_eq!(set.len(), names.len());
}

#[test]
fn reduction_flag_separates_init_from_compute() {
    let feats = rows(&State::new(matmul(16)));
    let is_reduce = slot("is_reduce");
    assert_eq!(feats.row(0)[is_reduce], 0.0); // init
    assert_eq!(feats.row(1)[is_reduce], 1.0); // accumulation
}
