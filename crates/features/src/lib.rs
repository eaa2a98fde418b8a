//! Program feature extraction (Appendix B of the paper).
//!
//! The learned cost model predicts a score for every *innermost non-loop
//! statement* in the context of the full program; per-statement feature
//! vectors are extracted here. Each vector has [`FEATURE_DIM`] = 164
//! entries, matching the paper's dimensionality, and covers the same groups:
//! arithmetic features, vectorization / unrolling / parallelization
//! features, GPU thread-binding features, the arithmetic-intensity curve
//! (10 interpolated samples), per-buffer access features for up to five
//! buffers, allocation features, and outer-loop features.
//!
//! The exact slot assignment inside the 164 entries follows this crate's
//! layout (documented per group below) rather than TVM's private layout;
//! the information content is the same.
//!
//! Magnitudes are `log2(1 + x)`-scaled, as in the reference implementation.
//!
//! The arithmetic-intensity curve and the buffer-access features read the
//! statement's footprint table (`tensor_ir::analysis::Footprints`), filled
//! at a 16-element cache line: the table `hwsim`'s machine model prices
//! the statement from.

#![warn(missing_docs)]

mod matrix;

pub use matrix::FeatureMatrix;

use tensor_ir::analysis::{
    lines_spanned, with_footprints, AccessType, BufferAccess, Footprint, Footprints, LoopCtx,
    StoreAnalysis,
};
use tensor_ir::{Annotation, IterKind, NodeId};

/// Number of entries in one statement's feature vector.
pub const FEATURE_DIM: usize = 164;

/// Number of buffer-access slots (statements touching more buffers have the
/// smallest buffers dropped; fewer are zero-padded).
pub const N_BUFFER_SLOTS: usize = 5;

const BUFFER_FEATURES: usize = 18;

/// The cache line the buffer features count in, in elements (64 bytes of
/// `f32`).
const LINE_ELEMS: i64 = 16;

/// log2(1 + x), the standard magnitude squashing for features. Many
/// features are 0, and log2(1) is exactly +0: those skip the call.
fn lg(x: f64) -> f32 {
    if x > 0.0 {
        (1.0 + x).log2() as f32
    } else {
        0.0
    }
}

/// One program's features as the cost model caches them: the packed
/// per-statement rows and, row for row, the buffer each statement stores to
/// (what a per-node score breakdown groups by). Built from one analysis at
/// exact capacity — a cache holds thousands of these.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramFeatures {
    /// Single-segment matrix, one [`FEATURE_DIM`]-wide row per statement.
    pub rows: FeatureMatrix,
    /// `buffers[r]` is the DAG node row `r`'s statement stores to.
    pub buffers: Vec<NodeId>,
}

impl ProgramFeatures {
    /// Featurizes a program's analyzed statements, one row each, written in
    /// place into the packed block from each statement's footprint table.
    pub fn of_statements(analyses: &[StoreAnalysis]) -> ProgramFeatures {
        let mut data = vec![0.0; analyses.len() * FEATURE_DIM];
        let depth = analyses.iter().map(|s| s.loops.len()).max().unwrap_or(0);
        let mut levels = Vec::with_capacity(depth + 1);
        with_footprints(|table| {
            for (s, row) in analyses.iter().zip(data.chunks_exact_mut(FEATURE_DIM)) {
                table.fill(s, LINE_ELEMS);
                write_row(&mut Row { f: row, at: 0 }, s, table, &mut levels);
            }
        });
        ProgramFeatures {
            rows: FeatureMatrix::from_packed(data, FEATURE_DIM),
            buffers: analyses.iter().map(|s| s.buffer).collect(),
        }
    }
}

/// Featurizes one schedule state as [`ProgramFeatures::of_statements`]
/// featurizes the analysis of the program it lowers to, from the state's
/// analysis alone — no `Program` is built. The error is the lowering
/// failure's message.
pub fn extract_state_features(state: &tensor_ir::State) -> Result<ProgramFeatures, String> {
    tensor_ir::with_analysis(state, ProgramFeatures::of_statements).map_err(|e| e.to_string())
}

/// [`extract_state_features`] without the per-row buffers: just the packed
/// single-segment matrix.
pub fn extract_state_matrix(state: &tensor_ir::State) -> Result<FeatureMatrix, String> {
    extract_state_features(state).map(|f| f.rows)
}

/// One feature row being written left to right into its slice of the
/// packed block, which starts zeroed: a slot left at 0 is skipped.
struct Row<'a> {
    f: &'a mut [f32],
    at: usize,
}

impl Row<'_> {
    fn push(&mut self, v: f32) {
        self.f[self.at] = v;
        self.at += 1;
    }

    /// Leaves the next `n` slots at 0.
    fn skip(&mut self, n: usize) {
        self.at += n;
    }

    /// `n` slots, of which slot `hot` is 1.
    fn one_hot(&mut self, n: usize, hot: usize) {
        self.f[self.at + hot] = 1.0;
        self.at += n;
    }
}

/// What a statement's sub-nest rooted at one loop level does: how often it
/// runs its body, the bytes its accesses touch, and the intensity-curve
/// point of that level.
#[derive(Clone, Copy, Default)]
struct Level {
    /// Product of the extents of the loops at and below the level.
    trips: f64,
    /// Σ over the statement's accesses, in order, of their footprints'
    /// `elems · 4` at the level.
    bytes: f64,
    /// `lg(flops / max(bytes, 4))` of the sub-nest.
    intensity: f32,
}

/// Fills `levels[lvl]` for every level `0..=loops.len()` of `s` from the
/// innermost, reading the bytes off its footprint table.
fn fill_levels(levels: &mut Vec<Level>, s: &StoreAnalysis, table: &Footprints, flops: f64) {
    let n = s.loops.len();
    levels.resize(n + 1, Level::default());
    let mut trips = 1.0f64;
    for lvl in (0..=n).rev() {
        if lvl < n {
            trips *= s.loops[lvl].extent as f64;
        }
        let bytes = (0..s.accesses.len()).fold(0.0, |b, k| b + table.at(k, lvl).elems * 4.0);
        levels[lvl] = Level {
            trips,
            bytes,
            intensity: lg(flops * trips / bytes.max(4.0)),
        };
    }
}

/// Writes one analyzed statement's [`FEATURE_DIM`] features into `f`,
/// from `table`, filled for it; `levels` is scratch.
fn write_row(f: &mut Row, s: &StoreAnalysis, table: &Footprints, levels: &mut Vec<Level>) {
    let flops_per_iter = s.flops_per_iter();
    fill_levels(levels, s, table, flops_per_iter);

    // --- Arithmetic features (10) ---
    let trips = s.trip_count();
    f.push(lg(s.ops.float_add as f64 * trips));
    f.push(lg(s.ops.float_sub as f64 * trips));
    f.push(lg(s.ops.float_mul as f64 * trips));
    f.push(lg(s.ops.float_div as f64 * trips));
    f.push(lg(s.ops.float_mod as f64 * trips));
    f.push(lg(s.ops.float_cmp as f64 * trips));
    f.push(lg(s.ops.math_calls as f64 * trips));
    f.push(lg(s.ops.int_ops as f64 * trips));
    f.push(lg(s.ops.selects as f64 * trips));
    f.push(lg(s.ops.loads as f64 * trips));

    // --- Statement features (4) ---
    f.push(if s.reduce.is_some() { 1.0 } else { 0.0 });
    f.push(lg(trips));
    f.push(lg(flops_per_iter));
    f.push(lg(flops_per_iter * trips));

    // --- Vectorize / unroll / parallel groups (3 × 11) ---
    annotation_group(f, s, Annotation::Vectorize);
    annotation_group(f, s, Annotation::Unroll);
    annotation_group(f, s, Annotation::Parallel);

    // --- GPU thread binding features (7) ---
    let blocks = s.extent_product(Annotation::BindBlock);
    let threads = s.extent_product(Annotation::BindThread);
    f.push(lg(blocks));
    f.push(lg(threads));
    f.push(lg(s.extent_product(Annotation::BindVthread)));
    f.push(lg(blocks * threads));
    let warp_eff = if threads > 1.0 {
        (threads / ((threads / 32.0).ceil() * 32.0)) as f32
    } else {
        0.0
    };
    f.push(warp_eff);
    f.push(if blocks > 1.0 { 1.0 } else { 0.0 });
    f.push(if threads > 1.0 { 1.0 } else { 0.0 });

    // --- Arithmetic intensity curve (10 samples) ---
    intensity_curve(f, levels);

    // --- Allocation features (2) ---
    let out_bytes = s
        .accesses
        .first()
        .map(|a| a.buffer_elems as f64 * 4.0)
        .unwrap_or(0.0);
    f.push(lg(out_bytes));
    f.push(1.0); // one allocation per statement's output buffer

    // --- Other features (8) ---
    f.push(s.loops.len() as f32);
    f.push(lg(trips));
    f.push(lg(s.pragma_unroll as f64));
    f.push(s.loops.iter().filter(|l| l.kind == IterKind::Space).count() as f32);
    f.push(s.loops.iter().filter(|l| l.kind != IterKind::Space).count() as f32);
    f.push(lg(s.loops.last().map(|l| l.extent as f64).unwrap_or(1.0)));
    f.push(lg(s.parallel_extent() as f64));
    f.push(lg(s.independent_accumulators().min(1e6)));

    // --- Buffer access features (5 × 18) ---
    // The largest accesses by bytes × count, ties in access order (a
    // stable descending sort's first slots), picked by insertion.
    let key = |a: &BufferAccess| a.buffer_elems * a.count as i64;
    let mut top = [0usize; N_BUFFER_SLOTS];
    let mut kept = 0;
    for (i, a) in s.accesses.iter().enumerate() {
        let at = top[..kept]
            .iter()
            .position(|&j| key(&s.accesses[j]) < key(a))
            .unwrap_or(kept);
        if at < N_BUFFER_SLOTS {
            let end = kept.min(N_BUFFER_SLOTS - 1);
            top.copy_within(at..end, at + 1);
            top[at] = i;
            kept = (kept + 1).min(N_BUFFER_SLOTS);
        }
    }
    for &k in &top[..kept] {
        buffer_group(f, s, k, table.at(k, 0), levels);
    }
    f.skip((N_BUFFER_SLOTS - kept) * BUFFER_FEATURES);

    debug_assert_eq!(f.at, FEATURE_DIM);
}

/// The 11 features of one annotation kind: innermost annotated length,
/// position one-hot (8), product of annotated lengths, count.
fn annotation_group(f: &mut Row, s: &StoreAnalysis, ann: Annotation) {
    let mut innermost = None;
    let mut count = 0;
    for (pos, l) in s.loops.iter().enumerate().filter(|(_, l)| l.ann == ann) {
        innermost = Some((pos, l));
        count += 1;
    }
    f.push(lg(innermost.map(|(_, l)| l.extent as f64).unwrap_or(0.0)));
    // Position one-hot: InnerSpatial, MiddleSpatial, OuterSpatial,
    // InnerReduce, MiddleReduce, OuterReduce, Mixed, None.
    let slot = match innermost {
        None => 7,
        Some((pos, l)) => match l.kind {
            IterKind::Space | IterKind::Reduce => {
                let base = if l.kind == IterKind::Space { 0 } else { 3 };
                let same_kind = |x: &LoopCtx| x.kind == l.kind;
                if Some(pos) == s.loops.iter().rposition(same_kind) {
                    base // inner
                } else if Some(pos) == s.loops.iter().position(same_kind) {
                    base + 2 // outer
                } else {
                    base + 1 // middle
                }
            }
            IterKind::Mixed => 6,
        },
    };
    f.one_hot(8, slot);
    let product = if count == 0 {
        0.0
    } else {
        s.extent_product(ann)
    };
    f.push(lg(product));
    f.push(count as f32);
}

/// Ten samples of the arithmetic-intensity curve over loop levels
/// (flops ÷ bytes of the sub-nest at each level, log-scaled, linearly
/// interpolated onto a fixed grid from the innermost statement to the
/// whole nest).
fn intensity_curve(f: &mut Row, levels: &[Level]) {
    let n = levels.len() - 1;
    // Point k of the curve is level n − k.
    let point = |k: usize| levels[n - k].intensity;
    for i in 0..10 {
        let t = i as f64 / 9.0 * n as f64;
        let lo = t.floor() as usize;
        let hi = t.ceil() as usize;
        let frac = (t - lo as f64) as f32;
        f.push(point(lo) * (1.0 - frac) + point(hi) * frac);
    }
}

/// The 18 features of access `k`, whose footprint over the whole nest is
/// `nest`.
fn buffer_group(f: &mut Row, s: &StoreAnalysis, k: usize, nest: Footprint, levels: &[Level]) {
    let a = &s.accesses[k];
    let trips = s.trip_count();
    // Access type one-hot.
    let access = match a.access {
        AccessType::Read => 0,
        AccessType::Write => 1,
        AccessType::ReadWrite => 2,
    };
    f.one_hot(3, access);
    let bytes = trips * a.count as f64 * 4.0;
    let unique_bytes = nest.elems * 4.0;
    let lines = lines_spanned(trips * a.count as f64, nest.min_stride.max(1), LINE_ELEMS);
    let unique_lines = nest.lines;
    f.push(lg(bytes));
    f.push(lg(unique_bytes));
    f.push(lg(lines));
    f.push(lg(unique_lines));
    // Reuse classification: (one-hot slot, distance in iterations, in
    // bytes, reuse counter).
    let invariant_lvl = a.strides.iter().rposition(|&st| st == 0);
    let (reuse, dist_iters, dist_bytes, counter) = match invariant_lvl {
        // LoopMultipleRead: the loop at `lvl` re-reads the same region.
        Some(lvl) => (
            0,
            levels[lvl + 1].trips,
            levels[lvl + 1].bytes,
            s.loops[lvl].extent as f64,
        ),
        None if a.count > 1 => (1, 1.0, 0.0, a.count as f64),
        None => (2, 0.0, 0.0, 1.0),
    };
    f.one_hot(3, reuse);
    f.push(lg(dist_iters));
    f.push(lg(dist_bytes));
    f.push(lg(counter));
    f.push(lg(a.innermost_stride().unsigned_abs() as f64));
    f.push(lg(bytes / counter));
    f.push(lg(unique_bytes / counter));
    f.push(lg(lines / counter));
    f.push(lg(unique_lines / counter));
}

/// Human-readable names of all 164 features (for debugging and importances).
pub fn feature_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "f_add",
        "f_sub",
        "f_mul",
        "f_div",
        "f_mod",
        "f_cmp",
        "f_math",
        "i_ops",
        "selects",
        "loads",
        "is_reduce",
        "trips",
        "flops_iter",
        "flops_total",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for g in ["vec", "unroll", "par"] {
        names.push(format!("{g}_len"));
        for p in [
            "inner_sp", "mid_sp", "outer_sp", "inner_rd", "mid_rd", "outer_rd", "mixed", "none",
        ] {
            names.push(format!("{g}_pos_{p}"));
        }
        names.push(format!("{g}_prod"));
        names.push(format!("{g}_num"));
    }
    for n in [
        "gpu_blocks",
        "gpu_threads",
        "gpu_vthreads",
        "gpu_total",
        "gpu_warp_eff",
        "gpu_has_b",
        "gpu_has_t",
    ] {
        names.push(n.to_string());
    }
    for i in 0..10 {
        names.push(format!("ai_{i}"));
    }
    names.push("alloc_bytes".into());
    names.push("alloc_count".into());
    for n in [
        "n_loops",
        "outer_prod",
        "pragma_unroll",
        "n_space",
        "n_reduce",
        "inner_extent",
        "par_extent",
        "indep_acc",
    ] {
        names.push(n.to_string());
    }
    for b in 0..N_BUFFER_SLOTS {
        for n in [
            "rd",
            "wr",
            "rw",
            "bytes",
            "ubytes",
            "lines",
            "ulines",
            "reuse_loop",
            "reuse_serial",
            "reuse_none",
            "rdist_it",
            "rdist_b",
            "rctr",
            "stride",
            "b_per_r",
            "ub_per_r",
            "l_per_r",
            "ul_per_r",
        ] {
            names.push(format!("buf{b}_{n}"));
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tensor_ir::{analyze, lower, DagBuilder, Expr, Reducer, State, Step};

    fn matmul_features(steps: &[Step]) -> FeatureMatrix {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[64, 64]);
        let w = b.placeholder("B", &[64, 64]);
        b.compute_reduce("C", &[64, 64], &[64], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
                * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
        });
        let dag = Arc::new(b.build().unwrap());
        let st = State::replay(dag, steps).unwrap();
        ProgramFeatures::of_statements(&analyze(&lower(&st).unwrap())).rows
    }

    #[test]
    fn dimension_is_exactly_164() {
        let feats = matmul_features(&[]);
        assert_eq!(feats.n_rows(), 2); // init + compute statements
        assert_eq!(feats.n_cols(), FEATURE_DIM);
        assert_eq!(feature_names().len(), FEATURE_DIM);
    }

    #[test]
    fn vectorize_changes_the_vector_group() {
        let base = matmul_features(&[]);
        let vect = matmul_features(&[
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
                iter: "j.1".into(),
                ann: Annotation::Vectorize,
            },
        ]);
        // The compute statement is the one with a reduction flag set.
        let names = feature_names();
        let vec_len = names.iter().position(|n| n == "vec_len").unwrap();
        let base_c = base.row(1);
        let vect_c = vect.row(1);
        assert_eq!(base_c[vec_len], 0.0);
        assert!((vect_c[vec_len] - lg(8.0)).abs() < 1e-6);
        let pos_none = names.iter().position(|n| n == "vec_pos_none").unwrap();
        assert_eq!(base_c[pos_none], 1.0);
        assert_eq!(vect_c[pos_none], 0.0);
        let pos_inner = names.iter().position(|n| n == "vec_pos_inner_sp").unwrap();
        assert_eq!(vect_c[pos_inner], 1.0);
    }

    #[test]
    fn buffer_reuse_classification() {
        let feats = matmul_features(&[]);
        let names = feature_names();
        let compute = feats.row(1);
        // All three big buffers (C store, A, B) show loop reuse: each has an
        // invariant loop in the naive matmul nest.
        for b in 0..3 {
            let slot = names
                .iter()
                .position(|n| n == &format!("buf{b}_reuse_loop"))
                .unwrap();
            assert_eq!(compute[slot], 1.0, "buffer {b}");
        }
        // Slot 4/5 are padding (only 3 buffers accessed).
        let pad = names.iter().position(|n| n == "buf4_bytes").unwrap();
        assert_eq!(compute[pad], 0.0);
    }

    #[test]
    fn parallel_annotation_sets_parallel_extent() {
        let feats = matmul_features(&[Step::Annotate {
            node: "C".into(),
            iter: "i".into(),
            ann: Annotation::Parallel,
        }]);
        let names = feature_names();
        let pe = names.iter().position(|n| n == "par_extent").unwrap();
        assert!((feats.row(1)[pe] - lg(64.0)).abs() < 1e-6);
    }

    #[test]
    fn intensity_curve_is_monotone_for_matmul() {
        // Matmul's arithmetic intensity grows with sub-nest size.
        let feats = matmul_features(&[]);
        let names = feature_names();
        let ai0 = names.iter().position(|n| n == "ai_0").unwrap();
        let c = feats.row(1);
        assert!(c[ai0 + 9] >= c[ai0], "{:?}", &c[ai0..ai0 + 10]);
    }

    #[test]
    fn state_extraction_matches_program_extraction() {
        // Oracle: featurizing a state from its analysis gives exactly what
        // featurizing the program it lowers to gives.
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[64, 64]);
        let w = b.placeholder("B", &[64, 64]);
        b.compute_reduce("C", &[64, 64], &[64], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
                * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
        });
        let dag = Arc::new(b.build().unwrap());
        let st = State::replay(dag, &[]).unwrap();
        let features = ProgramFeatures::of_statements(&analyze(&lower(&st).unwrap()));
        assert_eq!(features.rows.n_cols(), FEATURE_DIM);
        assert_eq!(features.rows.n_segments(), 1);
        // Init and compute statements both store to C.
        assert_eq!(features.buffers, vec![2, 2]);
        assert_eq!(extract_state_features(&st).unwrap(), features);
        assert_eq!(extract_state_matrix(&st).unwrap(), features.rows);
    }

    #[test]
    fn features_are_finite() {
        for (i, v) in matmul_features(&[]).data().iter().enumerate() {
            assert!(v.is_finite(), "feature {} = {v}", i % FEATURE_DIM);
        }
    }
}
