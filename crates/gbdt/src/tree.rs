//! Weighted regression trees: the weak learner of the boosting ensemble.
//!
//! One grower, `TrainPass`, built once per retrain and reused by every
//! boosting round. Two split searches run inside it and grow structurally
//! identical trees, both over the retrain's one sort per column
//! ([`crate::binned`]):
//!
//! - **exact**: per candidate feature, add each of the node's rows into the
//!   bucket of its value's rank and scan the boundaries between the ranks
//!   present, in ascending order;
//! - **histogram**: per candidate feature, accumulate per-bin `(Σw, Σw·y)`
//!   sums over pre-quantized codes and scan the ≤255 bin boundaries. A
//!   node's histogram is either accumulated fresh or derived from its
//!   parent's by the subtraction trick: the smaller child is accumulated,
//!   the larger child is `parent − smaller`.
//!
//! Every f64 sum is accumulated serially in ascending row order — a node's
//! totals, a bin, a rank's bucket — and a boundary's left side is the sum of
//! the bins or buckets below it, added in ascending order. Boundaries fold
//! in candidate order with a strict-greater comparison, so the chosen split
//! — gain ties included — is identical on both split paths. What the
//! pass saves over growing each node from scratch (columns that cannot
//! split dropped, twins dropped, per-node live lists, pooled histograms,
//! node-local scans, residuals by leaf) changes no operand and no order of
//! any of those sums, and skips only candidates that cannot win: see
//! docs/COST_MODEL.md.

use std::borrow::Cow;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::binned::BinnedDataset;
use crate::Matrix;

/// One node of a regression tree, stored in a flat arena.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TreeNode {
    /// Internal split: `x[feature] < threshold` goes left, else right.
    Split {
        /// Feature index.
        feature: usize,
        /// Split threshold.
        threshold: f32,
        /// Arena index of the left child.
        left: usize,
        /// Arena index of the right child.
        right: usize,
        /// Variance reduction achieved by this split (for importances).
        gain: f64,
    },
    /// Leaf prediction.
    Leaf {
        /// Predicted value.
        value: f32,
    },
}

/// A binary regression tree fit to weighted squared error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<TreeNode>,
}

/// Hyper-parameters for growing one tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum total sample weight in a leaf.
    pub min_child_weight: f64,
    /// Minimum gain (weighted variance reduction) for a split to be kept.
    pub min_gain: f64,
    /// When non-empty, only these feature indices are considered for
    /// splits (per-tree column subsampling).
    pub feature_subset: Vec<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 6,
            min_child_weight: 1e-6,
            min_gain: 1e-12,
            feature_subset: Vec::new(),
        }
    }
}

impl RegressionTree {
    /// Fits a tree on `(x, y, w)` triples, `x` a packed row-major matrix
    /// view; rows with non-positive weight are ignored. When
    /// `binned = Some((dataset, exact_below))`, nodes with at least
    /// `exact_below` samples use histogram split search over `dataset`, and
    /// smaller nodes the exact scan over its ranks; `dataset` must have
    /// been built with the same `w > 0` mask. With `binned = None` every
    /// node uses the exact scan, over ranks from a pass of this call's own
    /// that sorts each column once and builds no bins.
    pub fn fit_view(
        x: Matrix<'_>,
        y: &[f32],
        w: &[f32],
        params: &TreeParams,
        binned: Option<(&BinnedDataset, usize)>,
    ) -> RegressionTree {
        TrainPass::new(x, w, binned).grow(y, params)
    }

    /// Predicts one sample.
    pub fn predict(&self, x: &[f32]) -> f32 {
        let mut node = 0;
        loop {
            match &self.nodes[node] {
                TreeNode::Leaf { value } => return *value,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    node = if x.get(*feature).copied().unwrap_or(0.0) < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of nodes in the tree.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

struct Split {
    feature: usize,
    threshold: f32,
    gain: f64,
}

/// `[Σw, Σw·y]`: of one row, of one histogram bin, or of a whole node.
type Pair = [f64; 2];

/// Histograms of every candidate feature at one node, end to end:
/// candidate `c`'s bins are `offsets[c]..offsets[c + 1]`.
type NodeHist = Vec<Pair>;

/// The grower: everything about one retrain that does not depend on the
/// boosting round is computed once here, and every buffer a tree or a node
/// needs is kept for the next one.
pub(crate) struct TrainPass<'a> {
    x: Matrix<'a>,
    w: &'a [f32],
    /// The retrain's one sort per column: ranks for the exact scan, and
    /// bins when nodes of `exact_below` rows or more take the histogram
    /// path; `exact_below` is `None` when none does.
    data: Cow<'a, BinnedDataset>,
    exact_below: Option<usize>,
    /// Rows with `w ≤ 0` (or NaN), ascending: no node holds them.
    excluded: Vec<usize>,
    /// Per row, `[w as f64, (w·y) as f64]`; the second half is rewritten
    /// for every tree.
    grad: Vec<Pair>,

    // The tree being grown.
    max_depth: usize,
    min_child_weight: f64,
    min_gain: f64,
    /// Candidate features, in the order gain ties are broken, as a stack
    /// of lists: the tree's own first — the one a [`NodeHist`] has bins
    /// for — then, per exact-scan node on the path being grown, the
    /// candidates its children can still split on.
    candidates: Vec<usize>,
    /// Where each of the tree's candidates' bins start in a [`NodeHist`],
    /// then the total; just `[0]` when no node takes the histogram path.
    offsets: Vec<usize>,
    /// The included rows, partitioned in place as nodes split: a node is a
    /// range of this buffer, ascending.
    rows: Vec<usize>,
    /// `(lo, hi, value)` of every leaf: its range of `rows` and prediction.
    leaves: Vec<(usize, usize, f32)>,

    // Scratch kept across nodes and trees.
    /// Per column, whether a tree's candidate list already holds its twin.
    twin_listed: Vec<bool>,
    spill: Vec<usize>,
    free_hists: Vec<NodeHist>,
    /// The exact scan's buckets, one per rank, and a bit per rank marking
    /// the ones a candidate's rows filled: all zero between candidates.
    buckets: Vec<Pair>,
    present: Vec<u64>,
}

impl<'a> TrainPass<'a> {
    pub(crate) fn new(
        x: Matrix<'a>,
        w: &'a [f32],
        binned: Option<(&'a BinnedDataset, usize)>,
    ) -> TrainPass<'a> {
        assert_eq!(x.n_rows(), w.len());
        let (data, exact_below) = match binned {
            Some((data, exact_below)) => (Cow::Borrowed(data), Some(exact_below)),
            None => (Cow::Owned(BinnedDataset::ranks_only(x, w)), None),
        };
        let (included, excluded): (Vec<usize>, Vec<usize>) =
            (0..w.len()).partition(|&i| w[i] > 0.0);
        assert!(
            data.n_rows() == w.len() && data.included() == included,
            "the dataset was built with another row mask"
        );
        let n_ranks = data.max_ranks();
        TrainPass {
            x,
            w,
            data,
            exact_below,
            excluded,
            buckets: vec![[0.0; 2]; n_ranks],
            present: vec![0; n_ranks.div_ceil(64)],
            grad: w.iter().map(|&wi| [wi as f64, 0.0]).collect(),
            max_depth: 0,
            min_child_weight: 0.0,
            min_gain: 0.0,
            candidates: Vec::new(),
            offsets: Vec::new(),
            rows: Vec::new(),
            leaves: Vec::new(),
            twin_listed: Vec::new(),
            spill: Vec::new(),
            free_hists: Vec::new(),
        }
    }

    /// Grows one tree on targets `y` (the current residuals).
    pub(crate) fn grow(&mut self, y: &[f32], params: &TreeParams) -> RegressionTree {
        assert_eq!(self.w.len(), y.len());
        self.start_tree(y, params);
        let mut tree = RegressionTree { nodes: Vec::new() };
        if self.rows.is_empty() {
            tree.nodes.push(TreeNode::Leaf { value: 0.0 });
        } else {
            let live = 0..self.candidates.len();
            self.grow_node(&mut tree, 0, self.rows.len(), 0, None, live);
        }
        tree
    }

    /// Subtracts `lr · tree(row)` from every residual, `tree` being the one
    /// [`TrainPass::grow`] returned last: a row that went into a leaf's
    /// range passed exactly the `x[feature] < threshold` tests `predict`
    /// would apply, so it takes that leaf's value; rows outside the tree's
    /// training set are walked down it.
    pub(crate) fn apply(&self, tree: &RegressionTree, residual: &mut [f32], lr: f32) {
        for &(lo, hi, value) in &self.leaves {
            for &i in &self.rows[lo..hi] {
                residual[i] -= lr * value;
            }
        }
        for &i in &self.excluded {
            residual[i] -= lr * tree.predict(self.x.row(i));
        }
    }

    fn start_tree(&mut self, y: &[f32], params: &TreeParams) {
        self.max_depth = params.max_depth;
        self.min_child_weight = params.min_child_weight;
        self.min_gain = params.min_gain;
        let data = &self.data;
        // A column that varies, unless its twin is listed before it: twins
        // offer every boundary with the same sums, and the fold's strict `>`
        // keeps the first.
        let listed = &mut self.twin_listed;
        listed.clear();
        listed.resize(self.x.n_cols(), false);
        let can_win =
            |f: &usize| data.varies(*f) && !std::mem::replace(&mut listed[data.twin(*f)], true);
        self.candidates.clear();
        if params.feature_subset.is_empty() {
            self.candidates.extend((0..self.x.n_cols()).filter(can_win));
        } else {
            let subset = params.feature_subset.iter().copied();
            self.candidates.extend(subset.filter(can_win));
        }
        self.offsets.clear();
        self.offsets.push(0);
        if self.exact_below.is_some() {
            let mut end = 0;
            for &f in &self.candidates {
                end += data.n_bins(f);
                self.offsets.push(end);
            }
        }
        self.rows.clear();
        self.rows.extend_from_slice(data.included());
        for &i in data.included() {
            self.grad[i][1] = (self.w[i] * y[i]) as f64;
        }
        self.leaves.clear();
    }

    /// Grows the subtree over `rows[lo..hi]` and returns its arena slot.
    /// `hist` carries this node's histogram when the parent derived it;
    /// `live` is the node's list, the top of the `candidates` stack.
    fn grow_node(
        &mut self,
        tree: &mut RegressionTree,
        lo: usize,
        hi: usize,
        depth: usize,
        mut hist: Option<NodeHist>,
        live: Range<usize>,
    ) -> usize {
        let total = self.node_total(lo, hi);
        let value = if total[0] > 0.0 {
            (total[1] / total[0]) as f32
        } else {
            0.0
        };
        let node_id = tree.nodes.len();
        tree.nodes.push(TreeNode::Leaf { value });
        let n = hi - lo;
        // A histogram node hands its children its own list, since one bin
        // can hold several ranks. Its parent is a histogram node too, so
        // that list is the tree's, which its histogram has bins for.
        let mut children = live.clone();
        let best = if depth >= self.max_depth || n < 2 || total[0] < 2.0 * self.min_child_weight {
            None
        } else if self.exact_below.is_some_and(|exact_below| n >= exact_below) {
            let own = hist.get_or_insert_with(|| self.fresh_hist(lo, hi));
            self.scan_hist(own, total)
        } else {
            let best = self.best_split_exact(lo, hi, total, live.clone());
            children = live.end..self.candidates.len();
            best
        };
        let Some(best) = best else {
            self.candidates.truncate(live.end);
            self.free_hists.extend(hist);
            self.leaves.push((lo, hi, value));
            return node_id;
        };
        let mid = self.partition(lo, hi, &best);
        let (left_hist, right_hist) = self.child_hists(hist, depth, lo, mid, hi);
        let left = self.grow_node(tree, lo, mid, depth + 1, left_hist, children.clone());
        let right = self.grow_node(tree, mid, hi, depth + 1, right_hist, children);
        self.candidates.truncate(live.end);
        tree.nodes[node_id] = TreeNode::Split {
            feature: best.feature,
            threshold: best.threshold,
            left,
            right,
            gain: best.gain,
        };
        node_id
    }

    /// `[Σw, Σw·y]` over `rows[lo..hi]`, accumulated in row order — the same
    /// association on both split paths.
    fn node_total(&self, lo: usize, hi: usize) -> Pair {
        let mut total = [0.0f64; 2];
        for &i in &self.rows[lo..hi] {
            total[0] += self.grad[i][0];
            total[1] += self.grad[i][1];
        }
        total
    }

    /// Splits `rows[lo..hi]` in place into `lo..mid` (left) and `mid..hi`
    /// and returns `mid`. Order-preserving — the left rows are compacted,
    /// the right ones spilled and copied back — so both children stay
    /// ascending and their accumulation order deterministic.
    fn partition(&mut self, lo: usize, hi: usize, split: &Split) -> usize {
        self.spill.clear();
        let mut mid = lo;
        for k in lo..hi {
            let i = self.rows[k];
            if self.x.get(i, split.feature) < split.threshold {
                self.rows[mid] = i;
                mid += 1;
            } else {
                self.spill.push(i);
            }
        }
        self.rows[mid..hi].copy_from_slice(&self.spill);
        mid
    }

    /// The subtraction trick: accumulate the smaller child's histogram
    /// fresh and turn the parent's buffer into the larger child's as
    /// `parent − smaller` (ties go to the left child, deterministically).
    /// Skipped when the children are leaves-to-be or too small to take the
    /// histogram path.
    fn child_hists(
        &mut self,
        parent: Option<NodeHist>,
        depth: usize,
        lo: usize,
        mid: usize,
        hi: usize,
    ) -> (Option<NodeHist>, Option<NodeHist>) {
        let (Some(mut parent), Some(exact_below)) = (parent, self.exact_below) else {
            return (None, None);
        };
        let larger_is_left = mid - lo >= hi - mid;
        let (small, large) = if larger_is_left {
            (mid..hi, mid - lo)
        } else {
            (lo..mid, hi - mid)
        };
        let floor = exact_below.max(2);
        if depth + 1 >= self.max_depth || large < floor {
            self.free_hists.push(parent);
            return (None, None);
        }
        let small_hist = self.fresh_hist(small.start, small.end);
        for (p, s) in parent.iter_mut().zip(&small_hist) {
            p[0] -= s[0];
            p[1] -= s[1];
        }
        let small_hist = if small.len() >= floor {
            Some(small_hist)
        } else {
            self.free_hists.push(small_hist);
            None
        };
        if larger_is_left {
            (Some(parent), small_hist)
        } else {
            (small_hist, Some(parent))
        }
    }

    /// The tree's own candidate list, which a [`NodeHist`] has bins for.
    fn hist_candidates(&self) -> &[usize] {
        &self.candidates[..self.offsets.len() - 1]
    }

    /// Accumulates the histogram of `rows[lo..hi]` into a pooled, zeroed
    /// buffer. A candidate's bins are filled from its column of codes over
    /// the node's rows in ascending order, four candidates to a sweep of
    /// the rows ([`fill_four`]).
    fn fresh_hist(&mut self, lo: usize, hi: usize) -> NodeHist {
        let binned = &self.data;
        let mut hist = self.free_hists.pop().unwrap_or_default();
        hist.clear();
        let (rows, grad, offsets) = (&self.rows[lo..hi], &self.grad, &self.offsets);
        let candidates = self.hist_candidates();
        hist.resize(offsets[candidates.len()], [0.0; 2]);
        let quads = candidates.len() / 4 * 4;
        for c in (0..quads).step_by(4) {
            let codes = [0, 1, 2, 3].map(|k| binned.codes(candidates[c + k]));
            let widths = [0, 1, 2].map(|k| offsets[c + k + 1] - offsets[c + k]);
            let bins = &mut hist[offsets[c]..offsets[c + 4]];
            fill_four(codes, rows, grad, bins, widths);
        }
        for c in quads..candidates.len() {
            let bins = &mut hist[offsets[c]..offsets[c + 1]];
            fill_one(binned.codes(candidates[c]), rows, grad, bins);
        }
        hist
    }

    /// Scans the bin boundaries of every candidate feature, folding in
    /// candidate order with a strict-greater comparison (first best wins),
    /// like the exact path. An empty bin is skipped: its boundary has the
    /// sums, hence the gain, of the one before it, which `>` never prefers.
    fn scan_hist(&self, hist: &[Pair], total: Pair) -> Option<Split> {
        let whole = unsplit_term(total);
        let mut best: Option<Split> = None;
        for (c, &f) in self.hist_candidates().iter().enumerate() {
            let mut left = [0.0f64; 2];
            for (bin, &cut) in hist[self.offsets[c]..].iter().zip(self.data.cuts(f)) {
                if *bin == [0.0; 2] {
                    continue;
                }
                left[0] += bin[0];
                left[1] += bin[1];
                self.consider(&mut best, total, whole, left, f, cut);
            }
        }
        best
    }

    /// Exact split search, per candidate feature: each of the node's rows
    /// adds its `[w, w·y]` into the bucket of its value's rank, in row
    /// order; then the ranks present are visited in ascending order, and
    /// the boundary between consecutive ones `r < r'` — every boundary
    /// between distinct values, in value order — has the buckets up to `r`
    /// on its left, added in that order, and the threshold
    /// `(value[r] + value[r']) * 0.5`. Boundaries fold like
    /// [`TrainPass::scan_hist`]; a candidate constant over the node has one
    /// rank present and no boundary. Visiting a rank empties its bucket and
    /// clears its bit, so the scratch is all zero for the next candidate.
    ///
    /// The candidates are `candidates[live]`; those with more than one rank
    /// present are pushed onto that stack in order, the list of the node's
    /// children: a candidate constant over a node is constant below it.
    fn best_split_exact(
        &mut self,
        lo: usize,
        hi: usize,
        total: Pair,
        live: Range<usize>,
    ) -> Option<Split> {
        let mut buckets = std::mem::take(&mut self.buckets);
        let mut present = std::mem::take(&mut self.present);
        let mut candidates = std::mem::take(&mut self.candidates);
        let rows = &self.rows[lo..hi];
        let whole = unsplit_term(total);
        let mut best: Option<Split> = None;
        for k in live {
            let f = candidates[k];
            let (lowest, highest) =
                self.data
                    .bucket_rows(f, rows, &self.grad, &mut buckets, &mut present);
            if lowest < highest {
                candidates.push(f);
            }
            let values = self.data.values(f);
            let mut left = [0.0f64; 2];
            let mut below: Option<f32> = None;
            let words = &mut present[lowest / 64..=highest / 64];
            for (word, bits) in (lowest / 64..).zip(words) {
                let mut bits = std::mem::take(bits);
                while bits != 0 {
                    let r = word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if let Some(v) = below {
                        self.consider(&mut best, total, whole, left, f, (v + values[r]) * 0.5);
                    }
                    add(&mut left, std::mem::take(&mut buckets[r]));
                    below = Some(values[r]);
                }
            }
        }
        self.buckets = buckets;
        self.present = present;
        self.candidates = candidates;
        best
    }

    /// Folds the boundary with `left` on its left side into `best`; `whole`
    /// is the node's [`unsplit_term`].
    #[inline]
    fn consider(
        &self,
        best: &mut Option<Split>,
        total: Pair,
        whole: f64,
        left: Pair,
        feature: usize,
        threshold: f32,
    ) {
        let [lw, lwy] = left;
        let (rw, rwy) = (total[0] - lw, total[1] - lwy);
        if lw < self.min_child_weight || rw < self.min_child_weight {
            return;
        }
        // Variance reduction ∝ (Σwy)²/Σw for each side.
        let gain = lwy * lwy / lw + rwy * rwy / rw - whole;
        if gain > self.min_gain && best.as_ref().map(|b| gain > b.gain).unwrap_or(true) {
            *best = Some(Split {
                feature,
                threshold,
                gain,
            });
        }
    }
}

/// `(Σwy)²/Σw` of a whole node: what every boundary's gain subtracts, so it
/// is computed once per node rather than once per boundary.
fn unsplit_term(total: Pair) -> f64 {
    total[1] * total[1] / total[0]
}

/// Adds every row's pair to the bin its code names, in the order of `rows`.
fn fill_one(codes: &[u8], rows: &[usize], grad: &[Pair], bins: &mut [Pair]) {
    for &i in rows {
        add(&mut bins[codes[i] as usize], grad[i]);
    }
}

#[inline]
fn add(bin: &mut Pair, pair: Pair) {
    bin[0] += pair[0];
    bin[1] += pair[1];
}

/// [`fill_one`] for four candidates in one sweep of `rows`: `bins` holds
/// their four histograms end to end, the first three `widths` wide, and a
/// row's pair is loaded once for all four. The four ranges are disjoint and
/// each still receives the rows in order, so every bin ends up with the sum
/// — operands and order — that four separate sweeps give it.
fn fill_four(
    codes: [&[u8]; 4],
    rows: &[usize],
    grad: &[Pair],
    bins: &mut [Pair],
    widths: [usize; 3],
) {
    let (b0, rest) = bins.split_at_mut(widths[0]);
    let (b1, rest) = rest.split_at_mut(widths[1]);
    let (b2, b3) = rest.split_at_mut(widths[2]);
    let [c0, c1, c2, c3] = codes;
    for &i in rows {
        let pair = grad[i];
        add(&mut b0[c0[i] as usize], pair);
        add(&mut b1[c1[i] as usize], pair);
        add(&mut b2[c2[i] as usize], pair);
        add(&mut b3[c3[i] as usize], pair);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact-scan fit on a single-column dataset.
    fn exact_fit(x: &[f32], y: &[f32], w: &[f32], params: &TreeParams) -> RegressionTree {
        RegressionTree::fit_view(Matrix::new(x, 1), y, w, params, None)
    }

    #[test]
    fn fits_a_step_function() {
        let x: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let y: Vec<f32> = (0..100).map(|i| if i < 50 { 1.0 } else { 3.0 }).collect();
        let w = vec![1.0; 100];
        let tree = exact_fit(&x, &y, &w, &TreeParams::default());
        assert!((tree.predict(&[10.0]) - 1.0).abs() < 1e-5);
        assert!((tree.predict(&[90.0]) - 3.0).abs() < 1e-5);
    }

    #[test]
    fn histogram_fit_matches_exact_fit_on_a_step_function() {
        let n = 100;
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let y: Vec<f32> = (0..n).map(|i| if i < 50 { 1.0 } else { 3.0 }).collect();
        let w = vec![1.0; n];
        let xm = Matrix::new(&x, 1);
        let binned = BinnedDataset::build(xm, &w, 256);
        let exact = RegressionTree::fit_view(xm, &y, &w, &TreeParams::default(), None);
        let hist = RegressionTree::fit_view(xm, &y, &w, &TreeParams::default(), Some((&binned, 0)));
        for row in x.chunks(1) {
            assert_eq!(
                exact.predict(row).to_bits(),
                hist.predict(row).to_bits(),
                "at {row:?}"
            );
        }
        assert_eq!(exact.num_nodes(), hist.num_nodes());
    }

    #[test]
    fn respects_max_depth() {
        let x: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let y = x.clone();
        let w = vec![1.0; 64];
        let params = TreeParams {
            max_depth: 1,
            ..Default::default()
        };
        let tree = exact_fit(&x, &y, &w, &params);
        // Depth 1 → at most 3 nodes.
        assert!(tree.num_nodes() <= 3);
    }

    #[test]
    fn weights_shift_the_split() {
        // Two clusters; the heavier cluster dominates the leaf values.
        let x = [0.0, 1.0];
        let y = vec![0.0, 10.0];
        let w = vec![1.0, 100.0];
        let tree = exact_fit(&x, &y, &w, &TreeParams::default());
        assert!((tree.predict(&[0.0]) - 0.0).abs() < 1e-5);
        assert!((tree.predict(&[1.0]) - 10.0).abs() < 1e-5);
    }

    #[test]
    fn zero_weight_rows_are_ignored() {
        let x = [0.0, 1.0, 2.0];
        let y = vec![5.0, 7.0, 1000.0];
        let w = vec![1.0, 1.0, 0.0];
        let tree = exact_fit(&x, &y, &w, &TreeParams::default());
        assert!(tree.predict(&[2.0]) <= 7.0 + 1e-5);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let x: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let y = vec![2.5; 10];
        let w = vec![1.0; 10];
        let tree = exact_fit(&x, &y, &w, &TreeParams::default());
        assert_eq!(tree.num_nodes(), 1);
        assert!((tree.predict(&[3.0]) - 2.5).abs() < 1e-6);
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// `n × 8` packed rows, targets and weights: columns 2 and 5 constant,
    /// column 7 continuous, the rest on `levels` values; every ninth row at
    /// weight 0. With `dyadic`, everything is a small multiple of 0.25, so
    /// every f64 sum over it is exact.
    fn dataset(n: usize, seed: u64, dyadic: bool) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut s = seed | 1;
        let (mut x, mut y, mut w) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..n {
            let start = x.len();
            for c in 0..8 {
                x.push(match c {
                    2 | 5 => c as f32,
                    7 if !dyadic => lcg(&mut s) as f32 / 1e6,
                    _ => (lcg(&mut s) % 12) as f32 * if dyadic { 0.25 } else { 0.3 },
                });
            }
            let noise = (lcg(&mut s) % 8) as f32 * 0.25;
            y.push(x[start] * 0.5 + x[start + 3] * x[start + 6] * 0.25 + noise);
            let failed = i % 9 == 4;
            w.push(if failed {
                0.0
            } else {
                (lcg(&mut s) % 4 + 1) as f32 * 0.25
            });
            if !dyadic {
                y[i] *= 0.37;
            }
        }
        (x, y, w)
    }

    /// The three ways a node picks its split search.
    fn cutoffs(binned: &BinnedDataset) -> [Option<(&BinnedDataset, usize)>; 3] {
        [None, Some((binned, 0)), Some((binned, 64))]
    }

    #[test]
    fn apply_equals_walking_every_row_down_the_tree() {
        let (x, y, w) = dataset(400, 11, false);
        let xm = Matrix::new(&x, 8);
        let binned = BinnedDataset::build(xm, &w, 256);
        for cutoff in cutoffs(&binned) {
            let mut pass = TrainPass::new(xm, &w, cutoff);
            let mut residual = y.clone();
            for _round in 0..3 {
                let tree = pass.grow(&residual, &TreeParams::default());
                assert!(tree.num_nodes() > 3);
                let walked: Vec<u32> = (0..residual.len())
                    .map(|i| (residual[i] - 0.25 * tree.predict(xm.row(i))).to_bits())
                    .collect();
                pass.apply(&tree, &mut residual, 0.25);
                let applied: Vec<u32> = residual.iter().map(|r| r.to_bits()).collect();
                assert_eq!(applied, walked);
            }
        }
    }

    #[test]
    fn interleaved_constant_columns_change_no_split() {
        let (x, y, w) = dataset(400, 12, false);
        // Column `f` moves to `2f + 1`, between columns that never vary.
        let wide: Vec<f32> = x
            .chunks(8)
            .flat_map(|row| {
                (0..17).map(|c| {
                    if c % 2 == 1 {
                        row[c / 2]
                    } else {
                        c as f32 - 3.0
                    }
                })
            })
            .collect();
        let (xm, wm) = (Matrix::new(&x, 8), Matrix::new(&wide, 17));
        let (binned, wide_binned) = (
            BinnedDataset::build(xm, &w, 256),
            BinnedDataset::build(wm, &w, 256),
        );
        for subset in [vec![], vec![6, 0, 7, 3, 2]] {
            let params = TreeParams {
                feature_subset: subset.clone(),
                ..Default::default()
            };
            let wide_params = TreeParams {
                feature_subset: subset.iter().map(|f| 2 * f + 1).collect(),
                ..Default::default()
            };
            for (cutoff, wide_cutoff) in cutoffs(&binned).into_iter().zip(cutoffs(&wide_binned)) {
                let mut tree = RegressionTree::fit_view(xm, &y, &w, &params, cutoff);
                let wide_tree = RegressionTree::fit_view(wm, &y, &w, &wide_params, wide_cutoff);
                assert!(tree.num_nodes() > 3);
                for node in &mut tree.nodes {
                    if let TreeNode::Split { feature, .. } = node {
                        *feature = 2 * *feature + 1;
                    }
                }
                // `gain` and `threshold` compare as floats: equal, not close.
                assert_eq!(tree, wide_tree);
            }
        }
    }

    #[test]
    fn derived_histograms_equal_fresh_ones_where_sums_are_exact() {
        let (x, y, w) = dataset(600, 13, true);
        let xm = Matrix::new(&x, 8);
        let binned = BinnedDataset::build(xm, &w, 256);
        let mut pass = TrainPass::new(xm, &w, Some((&binned, 0)));
        pass.start_tree(&y, &TreeParams::default());
        let n = pass.rows.len();
        // Two levels: the root's children, then the left child's.
        let mut node = (0, n, pass.fresh_hist(0, n));
        for depth in 0..2 {
            let (lo, hi, hist) = node;
            let split = pass
                .scan_hist(&hist, pass.node_total(lo, hi))
                .expect("splits");
            let mid = pass.partition(lo, hi, &split);
            let (left, right) = pass.child_hists(Some(hist), depth, lo, mid, hi);
            let (left, right) = (left.expect("large enough"), right.expect("large enough"));
            assert_eq!(left, pass.fresh_hist(lo, mid));
            assert_eq!(right, pass.fresh_hist(mid, hi));
            node = (lo, mid, left);
        }
    }

    #[test]
    fn four_candidates_a_sweep_fill_what_one_a_sweep_fills() {
        let (x, y, w) = dataset(500, 15, false);
        let xm = Matrix::new(&x, 8);
        let binned = BinnedDataset::build(xm, &w, 256);
        let mut pass = TrainPass::new(xm, &w, Some((&binned, 0)));
        // Every remainder of four; a repeated candidate is listed once.
        let order = [7, 0, 3, 6, 1, 4, 7, 3, 0];
        for n_subset in 1..=order.len() {
            let params = TreeParams {
                feature_subset: order[..n_subset].to_vec(),
                ..Default::default()
            };
            pass.start_tree(&y, &params);
            let n_candidates = n_subset.min(6);
            assert_eq!(pass.candidates, order[..n_candidates]);
            let n = pass.rows.len();
            // The root, and a node that is a sub-range of `rows`.
            for (lo, hi) in [(0, n), (n / 3, n / 3 + 131)] {
                let mut one_by_one = vec![[0.0; 2]; pass.offsets[n_candidates]];
                for (c, &f) in pass.candidates.iter().enumerate() {
                    fill_one(
                        binned.codes(f),
                        &pass.rows[lo..hi],
                        &pass.grad,
                        &mut one_by_one[pass.offsets[c]..pass.offsets[c + 1]],
                    );
                }
                assert!(one_by_one.iter().filter(|bin| bin[0] > 0.0).count() > n_candidates);
                assert_eq!(pass.fresh_hist(lo, hi), one_by_one);
            }
        }
    }

    #[test]
    fn a_twin_is_listed_only_where_its_first_is_not_before_it() {
        let (x, y, w) = dataset(300, 16, false);
        // Columns 8–10: column 0 copied, raised by a strictly increasing
        // map, and negated (not a twin: its ranks run the other way).
        let wide: Vec<f32> = x
            .chunks(8)
            .flat_map(|row| {
                let v = row[0];
                row.iter().copied().chain([v, v * 3.0 + 1.0, -v])
            })
            .collect();
        let xm = Matrix::new(&wide, 11);
        let binned = BinnedDataset::build(xm, &w, 256);
        for cutoff in cutoffs(&binned) {
            let mut pass = TrainPass::new(xm, &w, cutoff);
            for (subset, listed) in [
                (vec![], vec![0, 1, 3, 4, 6, 7, 10]),
                (vec![9, 10, 0, 8, 6], vec![9, 10, 6]),
                (vec![8, 3, 9, 0], vec![8, 3]),
            ] {
                let params = TreeParams {
                    feature_subset: subset,
                    ..Default::default()
                };
                let tree = pass.grow(&y, &params);
                assert!(tree.num_nodes() > 3);
                // Every node's live list is popped once its subtree is grown.
                assert_eq!(pass.candidates, listed);
            }
        }
    }

    #[test]
    fn pooled_histograms_carry_nothing_from_tree_to_tree() {
        let (x, y, w) = dataset(500, 14, false);
        let xm = Matrix::new(&x, 8);
        let binned = BinnedDataset::build(xm, &w, 256);
        // Different candidates, so different histogram layouts, back to back.
        let subsets = [vec![7, 1, 3], vec![0, 4, 6, 1], vec![7]];
        let params = subsets.map(|feature_subset| TreeParams {
            feature_subset,
            ..Default::default()
        });
        for cutoff in cutoffs(&binned) {
            let mut shared = TrainPass::new(xm, &w, cutoff);
            for tp in &params {
                let fresh = TrainPass::new(xm, &w, cutoff).grow(&y, tp);
                assert_eq!(shared.grow(&y, tp), fresh);
                assert!(fresh.num_nodes() > 3);
            }
        }
    }
}
