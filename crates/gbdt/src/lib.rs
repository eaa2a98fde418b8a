//! Gradient-boosted regression trees, implemented from scratch.
//!
//! This is the model family the paper uses for its learned cost model
//! (§5.2: "We train a gradient boosting decision tree as the underlying
//! model f"), with the weighted squared-error loss the paper specifies:
//! `loss(f, P, y) = y · (Σ_{s∈S(P)} f(s) − y)²` — faster programs carry
//! more weight. The per-statement summation lives in `ansor-core`'s cost
//! model; this crate provides the generic weighted GBDT.
//!
//! # Examples
//!
//! ```
//! use gbdt::{Gbdt, GbdtParams, Matrix};
//!
//! // y = 2·x₀ + x₁, uniformly weighted; 200 rows of 2 columns, packed.
//! let x: Vec<f32> = (0..200)
//!     .flat_map(|i| [(i % 20) as f32, (i / 20) as f32])
//!     .collect();
//! let y: Vec<f32> = x.chunks(2).map(|v| 2.0 * v[0] + v[1]).collect();
//! let w = vec![1.0; y.len()];
//! let tel = telemetry::Telemetry::disabled();
//! let model = Gbdt::train_matrix(Matrix::new(&x, 2), &y, &w, &GbdtParams::default(), &tel);
//! let err = (model.predict(&[10.0, 5.0]) - 25.0).abs();
//! assert!(err < 2.0, "{err}");
//! ```

#![warn(missing_docs)]

pub mod binned;
pub mod tree;

use serde::{Deserialize, Serialize};

pub use binned::{BinnedDataset, MAX_BINS};
pub use tree::{RegressionTree, TreeNode, TreeParams};

/// Borrowed row-major matrix view over packed training data: `n_rows`
/// feature vectors of `n_cols` entries each in one contiguous slice. The
/// zero-copy bridge between a packed feature store (e.g. the cost model's
/// `FeatureMatrix`) and training/prediction.
#[derive(Debug, Clone, Copy)]
pub struct Matrix<'a> {
    data: &'a [f32],
    n_cols: usize,
}

impl<'a> Matrix<'a> {
    /// Wraps a packed row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `n_cols`.
    pub fn new(data: &'a [f32], n_cols: usize) -> Matrix<'a> {
        assert_eq!(
            data.len() % n_cols.max(1),
            0,
            "packed buffer is not whole rows"
        );
        Matrix { data, n_cols }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.data.len().checked_div(self.n_cols).unwrap_or(0)
    }

    /// Row width.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// One row as a slice.
    pub fn row(&self, i: usize) -> &'a [f32] {
        &self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// One entry.
    #[inline]
    pub fn get(&self, i: usize, f: usize) -> f32 {
        self.data[i * self.n_cols + f]
    }
}

/// How tree growth searches for splits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SplitStrategy {
    /// Exact scan at every node: the node's rows bucketed by value rank,
    /// every boundary between two distinct values considered.
    Exact,
    /// Histogram scan over pre-binned features at every node (equivalence
    /// tests and benchmarks force this).
    Histogram,
    /// Histogram scan for large datasets/nodes, exact scan for small ones
    /// where binning overhead would dominate. The default.
    #[default]
    Auto,
}

/// Under [`SplitStrategy::Auto`], datasets with fewer rows than this get no
/// bins: the pass still ranks their values, but histograms would cost more
/// than the exact scans they replace.
const AUTO_BINNED_MIN_ROWS: usize = 256;

/// Under [`SplitStrategy::Auto`], nodes with fewer samples than this fall
/// back to the exact scan: a ≤256-bin histogram is mostly empty there.
const AUTO_EXACT_NODE_ROWS: usize = 64;

/// Hyper-parameters of the boosted ensemble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GbdtParams {
    /// Number of boosting rounds.
    pub n_trees: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f32,
    /// Fraction of features each tree may split on (1.0 = all). Subsets are
    /// drawn deterministically per tree.
    pub colsample: f64,
    /// Split-search strategy (see [`SplitStrategy`]).
    #[serde(default)]
    pub split: SplitStrategy,
    /// Maximum bins per feature on the histogram path (clamped to
    /// [`MAX_BINS`]).
    #[serde(default)]
    pub max_bins: usize,
    /// Per-tree growth parameters.
    pub tree: TreeParams,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            n_trees: 50,
            learning_rate: 0.3,
            colsample: 1.0,
            split: SplitStrategy::Auto,
            max_bins: MAX_BINS,
            tree: TreeParams::default(),
        }
    }
}

/// The deterministic per-round feature subset for column subsampling: an
/// LCG keyed on the round index, identical across runs.
fn colsample_subset(round: usize, n_features: usize, colsample: f64) -> Vec<usize> {
    let keep = ((n_features as f64 * colsample).ceil() as usize).max(1);
    let mut s = 0x2545_F491_4F6C_DD1Du64.wrapping_mul(round as u64 + 1);
    let mut subset: Vec<usize> = Vec::with_capacity(keep);
    while subset.len() < keep {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let f = (s >> 33) as usize % n_features;
        if !subset.contains(&f) {
            subset.push(f);
        }
    }
    subset
}

/// Resolves the split strategy for one training pass: the binned dataset
/// to use (if any) and the node-size floor below which nodes fall back to
/// the exact scan.
fn binned_for(x: Matrix<'_>, w: &[f32], params: &GbdtParams) -> Option<(BinnedDataset, usize)> {
    let max_bins = if params.max_bins == 0 {
        MAX_BINS
    } else {
        params.max_bins
    };
    match params.split {
        SplitStrategy::Exact => None,
        SplitStrategy::Histogram => Some((BinnedDataset::build(x, w, max_bins), 0)),
        SplitStrategy::Auto if x.n_rows() >= AUTO_BINNED_MIN_ROWS => {
            Some((BinnedDataset::build(x, w, max_bins), AUTO_EXACT_NODE_ROWS))
        }
        SplitStrategy::Auto => None,
    }
}

/// A trained gradient-boosted regression model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gbdt {
    base: f32,
    trees: Vec<RegressionTree>,
    learning_rate: f32,
}

impl Gbdt {
    /// Trains on `(x, y)` with per-sample weights `w` (weighted squared
    /// error), `x` a packed row-major matrix view: [`Gbdt::fit`] under
    /// [`Gbdt::traced_pass`]'s telemetry.
    ///
    /// # Panics
    ///
    /// Panics if `x`, `y` and `w` have different lengths.
    pub fn train_matrix(
        x: Matrix<'_>,
        y: &[f32],
        w: &[f32],
        params: &GbdtParams,
        tel: &telemetry::Telemetry,
    ) -> Gbdt {
        Self::traced_pass(x, y, w, tel, || Self::fit(x, y, w, params), |m| m)
    }

    /// The telemetry of one training pass on `(x, y, w)` around `fit`,
    /// which yields the model — or a handle on it, which `model` reads.
    /// Times the pass under the `gbdt_train` phase, counts training
    /// passes/samples/trees, and emits one `GbdtRound` trace event
    /// summarizing the pass (number of the training invocation, trees fit,
    /// final weighted training MSE). `fit` may recall the model an
    /// identical pass fitted before: such a pass is traced and counted
    /// exactly as the one that fitted it.
    ///
    /// # Panics
    ///
    /// Panics if `x`, `y` and `w` have different lengths.
    pub fn traced_pass<M>(
        x: Matrix<'_>,
        y: &[f32],
        w: &[f32],
        tel: &telemetry::Telemetry,
        fit: impl FnOnce() -> M,
        model: impl Fn(&M) -> &Gbdt,
    ) -> M {
        assert_eq!(x.n_rows(), y.len());
        assert_eq!(x.n_rows(), w.len());
        let _phase = tel.span("gbdt_train");
        tel.incr("gbdt/train_passes", 1);
        tel.incr("gbdt/train_samples", x.n_rows() as u64);
        let fitted = fit();
        let trained = model(&fitted);
        tel.incr("gbdt/trees_fit", trained.trees.len() as u64);
        if tel.is_tracing() {
            let round = tel.counter_value("gbdt/train_passes");
            let train_loss = trained.weighted_mse_matrix(x, y, w);
            tel.emit(|| telemetry::TraceEvent::GbdtRound {
                round,
                trees: trained.trees.len() as u64,
                train_loss,
            });
        }
        fitted
    }

    /// The fit itself, without telemetry: a pure function of its
    /// arguments (no RNG state crosses calls), so equal arguments give a
    /// bit-identical model. Each boosting round fits a tree to the current
    /// residuals.
    pub fn fit(x: Matrix<'_>, y: &[f32], w: &[f32], params: &GbdtParams) -> Gbdt {
        let wsum: f64 = w.iter().map(|&v| v as f64).sum();
        let base = if wsum > 0.0 {
            (y.iter()
                .zip(w)
                .map(|(&yi, &wi)| (yi * wi) as f64)
                .sum::<f64>()
                / wsum) as f32
        } else {
            0.0
        };
        let mut residual: Vec<f32> = y.iter().map(|&yi| yi - base).collect();
        let mut trees = Vec::with_capacity(params.n_trees);
        let n_features = x.n_cols();
        // Ranks and bins depend only on (x, row mask), so one sort per
        // column is shared by every boosting round; without bins the pass
        // ranks only.
        let binned = binned_for(x, w, params);
        let binned = binned.as_ref().map(|(b, cutoff)| (b, *cutoff));
        let mut pass = tree::TrainPass::new(x, w, binned);
        for round in 0..params.n_trees {
            let mut tp = params.tree.clone();
            if params.colsample < 1.0 && n_features > 0 {
                tp.feature_subset = colsample_subset(round, n_features, params.colsample);
            }
            let tree = pass.grow(&residual, &tp);
            if tree.num_nodes() <= 1 {
                // No useful split left; residuals are (weighted-)constant.
                let leaf = tree.predict(&[]);
                if leaf.abs() < 1e-12 {
                    break;
                }
            }
            pass.apply(&tree, &mut residual, params.learning_rate);
            trees.push(tree);
        }
        Gbdt {
            base,
            trees,
            learning_rate: params.learning_rate,
        }
    }

    /// Predicts one feature vector.
    pub fn predict(&self, x: &[f32]) -> f32 {
        let mut v = self.base;
        for t in &self.trees {
            v += self.learning_rate * t.predict(x);
        }
        v
    }

    /// Predicts every row of a packed matrix view, in row order — the
    /// batch-inference path over a packed feature store.
    pub fn predict_matrix(&self, x: Matrix<'_>) -> Vec<f32> {
        (0..x.n_rows()).map(|i| self.predict(x.row(i))).collect()
    }

    /// Weighted mean squared error on a dataset.
    pub fn weighted_mse_matrix(&self, x: Matrix<'_>, y: &[f32], w: &[f32]) -> f64 {
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for i in 0..x.n_rows() {
            let d = (self.predict(x.row(i)) - y[i]) as f64;
            num += w[i] as f64 * d * d;
            den += w[i] as f64;
        }
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }

    /// Number of trees actually fit.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(x: Matrix<'_>, y: &[f32], w: &[f32], params: &GbdtParams) -> Gbdt {
        Gbdt::train_matrix(x, y, w, params, &telemetry::Telemetry::disabled())
    }

    /// `n` packed rows of 3 columns, targets and unit weights.
    fn toy_dataset(n: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let x: Vec<f32> = (0..n)
            .flat_map(|i| {
                let a = (i % 17) as f32;
                let b = ((i * 7) % 13) as f32;
                [a, b, (i % 3) as f32]
            })
            .collect();
        let y: Vec<f32> = x
            .chunks(3)
            .map(|v| v[0] * v[0] * 0.1 + 2.0 * v[1])
            .collect();
        let w = vec![1.0; n];
        (x, y, w)
    }

    #[test]
    fn boosting_reduces_training_error_monotonically() {
        let (x, y, w) = toy_dataset(300);
        let x = Matrix::new(&x, 3);
        let mut prev = f64::INFINITY;
        for n_trees in [1, 5, 20, 60] {
            let m = train(
                x,
                &y,
                &w,
                &GbdtParams {
                    n_trees,
                    ..Default::default()
                },
            );
            let mse = m.weighted_mse_matrix(x, &y, &w);
            assert!(mse <= prev + 1e-9, "mse {mse} should be <= {prev}");
            prev = mse;
        }
        assert!(prev < 1.0, "final mse {prev}");
    }

    #[test]
    fn ranking_is_preserved_on_train_data() {
        let (x, y, w) = toy_dataset(200);
        let x = Matrix::new(&x, 3);
        let m = train(x, &y, &w, &GbdtParams::default());
        // Pairwise comparison accuracy must be well above chance.
        let pred = m.predict_matrix(x);
        let mut correct = 0;
        let mut total = 0;
        for i in (0..200).step_by(7) {
            for j in (1..200).step_by(11) {
                if (y[i] - y[j]).abs() > 1e-6 {
                    total += 1;
                    if (pred[i] > pred[j]) == (y[i] > y[j]) {
                        correct += 1;
                    }
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.9, "pairwise accuracy {acc}");
    }

    #[test]
    fn high_weight_samples_fit_better() {
        // Two contradictory regimes; weights decide which one wins.
        let x: Vec<f32> = (0..100).map(|i| (i % 10) as f32).collect();
        let y: Vec<f32> = (0..100).map(|i| if i < 50 { 1.0 } else { -1.0 }).collect();
        // Same features repeat in both halves; weight the first half high.
        let w: Vec<f32> = (0..100).map(|i| if i < 50 { 10.0 } else { 0.1 }).collect();
        let m = train(Matrix::new(&x, 1), &y, &w, &GbdtParams::default());
        let p = m.predict(&[5.0]);
        assert!(p > 0.8, "prediction {p} should lean toward heavy samples");
    }

    #[test]
    fn serde_roundtrip() {
        let (x, y, w) = toy_dataset(50);
        let m = train(Matrix::new(&x, 3), &y, &w, &GbdtParams::default());
        let json = serde_json::to_string(&m).unwrap();
        let back: Gbdt = serde_json::from_str(&json).unwrap();
        assert_eq!(back.predict(&x[..3]), m.predict(&x[..3]));
    }

    #[test]
    fn empty_dataset_predicts_zero() {
        let m = train(Matrix::new(&[], 0), &[], &[], &GbdtParams::default());
        assert_eq!(m.predict(&[1.0, 2.0]), 0.0);
    }
}
