//! The exact scan's oracle: trees grown over value ranks against reference
//! growers kept here, which gather and order a node's rows themselves.
//!
//! - On dyadic data every `f64` sum is exact, so every summation order
//!   gives the same bits: the trees are `==` those of the sort-based scan
//!   (`Order::Sorted`: the node's rows sorted by value, added one at a
//!   time) — on the exact path and on the histogram path.
//! - On data whose sums round, the trees are `==` those of a reference that
//!   sums in the documented bucket order (`Order::Buckets`: per distinct
//!   value, its rows in row order; the sums in ascending value order), and
//!   the sort-based trees differ — the data is what it claims to be.
//!
//! The references scan every candidate at every node. The trainer skips
//! a column whose twin (same ranks and codes) it lists earlier, and below
//! an exact-scan node a candidate with one rank in that node: on sets with
//! copies and monotone transforms of columns its trees stay `==` theirs.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use gbdt::{
    BinnedDataset, Gbdt, GbdtParams, Matrix, RegressionTree, SplitStrategy, TreeNode, TreeParams,
};
use serde::Serialize;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// How the reference adds up a boundary's left side on the exact path.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Order {
    /// The node's rows sorted by value (ties in row order) and added one at
    /// a time; a boundary wherever the next value is greater.
    Sorted,
    /// Per distinct value (`==`), the sum of its rows in row order; the
    /// sums added in ascending value order, a boundary between each two.
    Buckets,
}

struct Split {
    feature: usize,
    threshold: f32,
    gain: f64,
}

/// A grower that keeps each node's rows in a `Vec` of its own.
struct Reference<'a> {
    x: Matrix<'a>,
    grad: Vec<[f64; 2]>,
    params: &'a TreeParams,
    bins: Option<(&'a BinnedDataset, usize)>,
    order: Order,
    candidates: Vec<usize>,
    /// Exact searches on a node of two rows, and candidates that took one
    /// value over a node of more: what the data must exercise.
    two_row_nodes: Cell<usize>,
    node_constant: Cell<usize>,
    /// The feature of every split, in the order they were chosen.
    split_features: RefCell<Vec<usize>>,
}

#[derive(Serialize)]
struct Nodes {
    nodes: Vec<TreeNode>,
}

impl<'a> Reference<'a> {
    fn new(
        x: Matrix<'a>,
        y: &[f32],
        w: &[f32],
        params: &'a TreeParams,
        bins: Option<(&'a BinnedDataset, usize)>,
        order: Order,
    ) -> Reference<'a> {
        let included: Vec<usize> = (0..w.len()).filter(|&i| w[i] > 0.0).collect();
        let varies = |f: &usize| {
            *f < x.n_cols()
                && included
                    .iter()
                    .any(|&i| x.get(i, *f) != x.get(included[0], *f))
        };
        let candidates = if params.feature_subset.is_empty() {
            (0..x.n_cols()).filter(varies).collect()
        } else {
            params
                .feature_subset
                .iter()
                .copied()
                .filter(varies)
                .collect()
        };
        Reference {
            x,
            grad: (0..w.len())
                .map(|i| [w[i] as f64, (w[i] * y[i]) as f64])
                .collect(),
            params,
            bins,
            order,
            candidates,
            two_row_nodes: Cell::new(0),
            node_constant: Cell::new(0),
            split_features: RefCell::new(Vec::new()),
        }
    }

    fn tree(&self) -> RegressionTree {
        let included: Vec<usize> = (0..self.grad.len())
            .filter(|&i| self.grad[i][0] > 0.0)
            .collect();
        let mut nodes = Vec::new();
        if included.is_empty() {
            nodes.push(TreeNode::Leaf { value: 0.0 });
        } else {
            self.grow(&mut nodes, included, 0);
        }
        serde_json::from_value(&serde_json::to_value(&Nodes { nodes })).expect("a tree")
    }

    fn grow(&self, nodes: &mut Vec<TreeNode>, rows: Vec<usize>, depth: usize) -> usize {
        let total = rows.iter().fold([0.0f64; 2], |t, &i| {
            [t[0] + self.grad[i][0], t[1] + self.grad[i][1]]
        });
        let value = if total[0] > 0.0 {
            (total[1] / total[0]) as f32
        } else {
            0.0
        };
        let id = nodes.len();
        nodes.push(TreeNode::Leaf { value });
        let p = self.params;
        if depth >= p.max_depth || rows.len() < 2 || total[0] < 2.0 * p.min_child_weight {
            return id;
        }
        let split = match self.bins {
            Some((bins, exact_below)) if rows.len() >= exact_below => {
                self.histogram_split(bins, &rows, total)
            }
            _ => self.exact_split(&rows, total),
        };
        let Some(Split {
            feature,
            threshold,
            gain,
        }) = split
        else {
            return id;
        };
        self.split_features.borrow_mut().push(feature);
        let (l, r): (Vec<usize>, Vec<usize>) = rows
            .into_iter()
            .partition(|&i| self.x.get(i, feature) < threshold);
        let left = self.grow(nodes, l, depth + 1);
        let right = self.grow(nodes, r, depth + 1);
        nodes[id] = TreeNode::Split {
            feature,
            threshold,
            left,
            right,
            gain,
        };
        id
    }

    fn exact_split(&self, rows: &[usize], total: [f64; 2]) -> Option<Split> {
        if rows.len() == 2 {
            self.two_row_nodes.set(self.two_row_nodes.get() + 1);
        }
        let mut best = None;
        for &f in &self.candidates {
            let value = |i: usize| self.x.get(i, f);
            if rows.len() > 2 && rows.iter().all(|&i| value(i) == value(rows[0])) {
                self.node_constant.set(self.node_constant.get() + 1);
            }
            let mut left = [0.0f64; 2];
            match self.order {
                Order::Sorted => {
                    let mut sorted = rows.to_vec();
                    sorted.sort_by(|&a, &b| value(a).partial_cmp(&value(b)).expect("no NaN"));
                    for pair in sorted.windows(2) {
                        left[0] += self.grad[pair[0]][0];
                        left[1] += self.grad[pair[0]][1];
                        let (xv, xn) = (value(pair[0]), value(pair[1]));
                        if xn > xv {
                            self.consider(&mut best, total, left, f, (xv + xn) * 0.5);
                        }
                    }
                }
                Order::Buckets => {
                    // Keyed by the value's place in ascending order; `+ 0.0`
                    // turns `-0.0` into `0.0`, which `==` it.
                    let mut buckets: BTreeMap<i64, (f32, [f64; 2])> = BTreeMap::new();
                    for &i in rows {
                        let v = value(i);
                        let bucket = buckets.entry(ascending(v + 0.0)).or_insert((v, [0.0; 2]));
                        bucket.1[0] += self.grad[i][0];
                        bucket.1[1] += self.grad[i][1];
                    }
                    let mut below: Option<f32> = None;
                    for (v, sum) in buckets.into_values() {
                        if let Some(lower) = below {
                            self.consider(&mut best, total, left, f, (lower + v) * 0.5);
                        }
                        left[0] += sum[0];
                        left[1] += sum[1];
                        below = Some(v);
                    }
                }
            }
        }
        best
    }

    fn histogram_split(
        &self,
        bins: &BinnedDataset,
        rows: &[usize],
        total: [f64; 2],
    ) -> Option<Split> {
        let mut best = None;
        for &f in &self.candidates {
            let mut hist = vec![[0.0f64; 2]; bins.n_bins(f)];
            for &i in rows {
                let bin = &mut hist[bins.code(i, f)];
                bin[0] += self.grad[i][0];
                bin[1] += self.grad[i][1];
            }
            let mut left = [0.0f64; 2];
            for (bin, &cut) in hist.iter().zip(bins.cuts(f)) {
                if *bin == [0.0; 2] {
                    continue;
                }
                left[0] += bin[0];
                left[1] += bin[1];
                self.consider(&mut best, total, left, f, cut);
            }
        }
        best
    }

    fn consider(
        &self,
        best: &mut Option<Split>,
        total: [f64; 2],
        left: [f64; 2],
        feature: usize,
        threshold: f32,
    ) {
        let [lw, lwy] = left;
        let (rw, rwy) = (total[0] - lw, total[1] - lwy);
        if lw < self.params.min_child_weight || rw < self.params.min_child_weight {
            return;
        }
        let gain = lwy * lwy / lw + rwy * rwy / rw - total[1] * total[1] / total[0];
        if gain > self.params.min_gain && best.as_ref().map(|b| gain > b.gain).unwrap_or(true) {
            *best = Some(Split {
                feature,
                threshold,
                gain,
            });
        }
    }
}

/// An integer that orders like the (non-NaN) value.
fn ascending(v: f32) -> i64 {
    let bits = v.to_bits() as i64;
    if v.is_sign_negative() {
        -(bits & 0x7fff_ffff)
    } else {
        bits
    }
}

#[derive(Serialize)]
struct Model {
    base: f32,
    trees: Vec<RegressionTree>,
    learning_rate: f32,
}

/// The columns boosting round `round` may split on under `colsample`, as
/// `GbdtParams::colsample` documents them: `ceil(n_features · colsample)`
/// distinct columns drawn by an LCG keyed on the round, in draw order.
fn colsample_subset(round: usize, n_features: usize, colsample: f64) -> Vec<usize> {
    let keep = ((n_features as f64 * colsample).ceil() as usize).max(1);
    let mut s = 0x2545_F491_4F6C_DD1Du64.wrapping_mul(round as u64 + 1);
    let mut subset = Vec::new();
    while subset.len() < keep {
        let f = lcg(&mut s) as usize % n_features;
        if !subset.contains(&f) {
            subset.push(f);
        }
    }
    subset
}

/// `Gbdt::train_matrix`, each tree grown by the reference; `Auto` takes
/// the documented thresholds (bins from 256 rows, the exact scan below 64
/// rows a node).
fn reference_model(x: Matrix<'_>, y: &[f32], w: &[f32], params: &GbdtParams, order: Order) -> Gbdt {
    let binned = BinnedDataset::build(x, w, params.max_bins);
    let bins = match params.split {
        SplitStrategy::Exact => None,
        SplitStrategy::Histogram => Some((&binned, 0)),
        SplitStrategy::Auto if x.n_rows() >= 256 => Some((&binned, 64)),
        SplitStrategy::Auto => None,
    };
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
    let mut trees = Vec::new();
    for round in 0..params.n_trees {
        let mut tp = params.tree.clone();
        if params.colsample < 1.0 {
            tp.feature_subset = colsample_subset(round, x.n_cols(), params.colsample);
        }
        let tree = Reference::new(x, &residual, w, &tp, bins, order).tree();
        if tree.num_nodes() <= 1 && tree.predict(&[]).abs() < 1e-12 {
            break;
        }
        for (i, r) in residual.iter_mut().enumerate() {
            *r -= params.learning_rate * tree.predict(x.row(i));
        }
        trees.push(tree);
    }
    let model = Model {
        base,
        trees,
        learning_rate: params.learning_rate,
    };
    serde_json::from_value(&serde_json::to_value(&model)).expect("a model")
}

struct Set {
    x: Vec<f32>,
    y: Vec<f32>,
    w: Vec<f32>,
}

const DYADIC_COLS: usize = 8;

impl Set {
    fn view(&self) -> Matrix<'_> {
        Matrix::new(&self.x, self.x.len() / self.y.len())
    }
}

/// `n` rows on the dyadic grid: every value a multiple of 0.25, small
/// enough that no `f64` sum over them rounds. Columns: 0, the signal at 16
/// levels; 1, `-0.25 / -0.0 / 0.0 / 0.5`; 2, constant but on rows of
/// weight 0; 3, constant where column 0 is below 2 — so constant within
/// the nodes a split on column 0 makes; 4, a distinct value per row (more
/// ranks than a `u8` holds from 257 included rows); 5–7, 2–9 levels. Every
/// seventh row has weight 0.
fn dyadic(n: usize, seed: u64) -> Set {
    let mut s = seed | 1;
    let mut set = Set {
        x: Vec::new(),
        y: Vec::new(),
        w: Vec::new(),
    };
    for i in 0..n {
        let w = if i % 7 == 3 {
            0.0
        } else {
            (lcg(&mut s) % 4 + 1) as f32 * 0.25
        };
        let x0 = (lcg(&mut s) % 16) as f32 * 0.25;
        let row = [
            x0,
            [-0.25, -0.0, 0.0, 0.5][lcg(&mut s) as usize % 4],
            if w > 0.0 {
                1.5
            } else {
                (lcg(&mut s) % 8) as f32
            },
            if x0 < 2.0 {
                0.75
            } else {
                (lcg(&mut s) % 4) as f32 * 0.25
            },
            ((i * 7919) % n) as f32 * 0.25,
            (lcg(&mut s) % 2) as f32 * 0.25,
            (lcg(&mut s) % 5) as f32 * 0.5,
            (lcg(&mut s) % 9) as f32 * 0.25,
        ];
        let noise = (lcg(&mut s) % 8) as f32 * 0.25;
        set.y
            .push(row[0] * 0.5 + row[1] * 2.0 + row[3] * row[6] + row[7] * 0.25 + noise);
        set.x.extend(row);
        set.w.push(w);
    }
    set
}

/// `n` rows whose sums round: weights spread over twelve decades, targets
/// over six, values on 2–12 levels of a non-dyadic step.
fn rounding(n: usize, seed: u64) -> Set {
    let mut s = seed | 1;
    let mut set = Set {
        x: Vec::new(),
        y: Vec::new(),
        w: Vec::new(),
    };
    let decade = |s: &mut u64, lo: i32, decades: u64| {
        10f32.powi(lo + (lcg(s) % decades) as i32) * (1.0 + (lcg(s) % 997) as f32 / 997.0)
    };
    for i in 0..n {
        let row: Vec<f32> = (0..6)
            .map(|c| (lcg(&mut s) % (2 + 2 * c as u64)) as f32 * 0.3 + 0.1)
            .collect();
        set.y.push(row[0] * decade(&mut s, -3, 6) - row[3]);
        set.w.push(if i % 9 == 4 {
            0.0
        } else {
            decade(&mut s, -6, 12)
        });
        set.x.extend(row);
    }
    set
}

/// Columns appended to a set, in order: 8 (`ADJACENT`), column 0 with
/// 1.25 moved to the float after 1.0 — the same ranks, but the midpoint of
/// that pair rounds onto 1.0, so it is no cut and the codes differ; 9
/// (`COPY`), column 0 again; 10, column 4 · 3 + 1 and 11, column 7 squared
/// — strictly increasing, so the same ranks under other thresholds; 12,
/// 3.75 − column 0 and 13, −column 6 — strictly decreasing, so no twins.
/// The targets gain a step where column 0 passes 1.0, so the split at the
/// cut that column 8 lacks is worth taking.
fn with_twins(set: Set) -> Set {
    let n_cols = set.x.len() / set.y.len();
    let near_one = f32::from_bits(1.0f32.to_bits() + 1);
    let mut x = Vec::with_capacity(set.x.len() + set.y.len() * 6);
    for row in set.x.chunks(n_cols) {
        let v = row[0];
        x.extend_from_slice(row);
        x.extend([
            if v == 1.25 { near_one } else { v },
            v,
            row[4] * 3.0 + 1.0,
            row[7] * row[7],
            3.75 - v,
            -row[6],
        ]);
    }
    let y = (set.x.chunks(n_cols).zip(&set.y))
        .map(|(row, &y)| if row[0] > 1.0 { y + 8.0 } else { y })
        .collect();
    Set { x, y, w: set.w }
}

const ADJACENT: usize = 8;
const COPY: usize = 9;

fn params(max_depth: usize, feature_subset: Vec<usize>) -> TreeParams {
    TreeParams {
        max_depth,
        min_child_weight: 1e-6,
        min_gain: 1e-12,
        feature_subset,
    }
}

#[test]
fn rank_buckets_grow_the_sort_based_trees_on_dyadic_data() {
    let (mut two_row_nodes, mut node_constant) = (0, 0);
    // A small set grows down to nodes of two rows; 5 000 rows × 8 columns
    // is a large root.
    for (n, seed) in [(23, 1), (40, 2), (300, 3), (5000, 4)] {
        let set = dyadic(n, seed);
        let x = set.view();
        assert_eq!(x.n_cols(), DYADIC_COLS);
        let bins = [256, 16].map(|max_bins| BinnedDataset::build(x, &set.w, max_bins));
        let mut cutoffs = vec![None];
        for b in &bins {
            cutoffs.extend([Some((b, 0)), Some((b, 64))]);
        }
        for tp in [params(12, vec![]), params(6, vec![4, 0, 9, 3, 1, 2, 0, 7])] {
            for &cutoff in &cutoffs {
                let reference = Reference::new(x, &set.y, &set.w, &tp, cutoff, Order::Sorted);
                let want = reference.tree();
                two_row_nodes += reference.two_row_nodes.get();
                node_constant += reference.node_constant.get();
                assert!(want.num_nodes() > 3);
                let got = RegressionTree::fit_view(x, &set.y, &set.w, &tp, cutoff);
                assert_eq!(got, want, "{n} rows, {tp:?}");
            }
        }
    }
    assert!(two_row_nodes > 0 && node_constant > 0);
}

#[test]
fn ranks_wider_than_sixteen_bits_do_not_wrap() {
    // One column of 70 000 distinct values, each row's rank its value's.
    let n = 70_000;
    let x: Vec<f32> = (0..n).map(|i| ((i * 7919) % n) as f32 * 0.25).collect();
    let y: Vec<f32> = x
        .iter()
        .map(|&v| if v % 64.0 < 16.0 { 1.0 } else { 0.25 })
        .collect();
    let w = vec![0.5; n];
    let xm = Matrix::new(&x, 1);
    let tp = params(4, vec![]);
    let want = Reference::new(xm, &y, &w, &tp, None, Order::Sorted).tree();
    assert!(want.num_nodes() > 3);
    assert_eq!(RegressionTree::fit_view(xm, &y, &w, &tp, None), want);
}

#[test]
fn rank_buckets_sum_in_the_documented_order() {
    let mut sort_differs = false;
    for (n, seed) in [(60, 5), (200, 6)] {
        let set = rounding(n, seed);
        let x = set.view();
        for tp in [params(8, vec![]), params(6, vec![5, 2, 0, 2])] {
            let got = RegressionTree::fit_view(x, &set.y, &set.w, &tp, None);
            let buckets = Reference::new(x, &set.y, &set.w, &tp, None, Order::Buckets).tree();
            assert_eq!(got, buckets, "{n} rows, {tp:?}");
            let sorted = Reference::new(x, &set.y, &set.w, &tp, None, Order::Sorted).tree();
            sort_differs |= sorted != got;
        }
        // Boosting: the residuals are what the trees before left.
        for split in [SplitStrategy::Exact, SplitStrategy::Auto] {
            let gp = GbdtParams {
                n_trees: 6,
                split,
                tree: params(6, vec![]),
                ..Default::default()
            };
            let tel = telemetry::Telemetry::disabled();
            let got = Gbdt::train_matrix(x, &set.y, &set.w, &gp, &tel);
            assert_eq!(got.num_trees(), 6);
            assert_eq!(got, reference_model(x, &set.y, &set.w, &gp, Order::Buckets));
        }
    }
    assert!(
        sort_differs,
        "no sum rounded: the data does not test the order"
    );
}

#[test]
fn twins_and_node_constant_candidates_are_skipped_without_changing_a_tree() {
    let mut chosen = [0usize; 14];
    for (n, seed) in [(40, 7), (300, 8), (2000, 9)] {
        let set = with_twins(dyadic(n, seed));
        let x = set.view();
        let bins = [256, 16].map(|max_bins| BinnedDataset::build(x, &set.w, max_bins));
        let mut cutoffs = vec![None];
        for b in &bins {
            cutoffs.extend([Some((b, 0)), Some((b, 64))]);
        }
        let no_min_weight = TreeParams {
            min_child_weight: 0.0,
            ..params(10, vec![12, 0, COPY, ADJACENT, 11, 7, 5])
        };
        for tp in [
            params(12, vec![]),
            params(8, vec![ADJACENT, COPY, 0, 12, 10, 4, 1, 13, 11, 7, 3]),
            params(6, vec![11, COPY, 7, ADJACENT, 0, 4, 10, 13, 6]),
            no_min_weight,
        ] {
            for &cutoff in &cutoffs {
                let reference = Reference::new(x, &set.y, &set.w, &tp, cutoff, Order::Sorted);
                let want = reference.tree();
                for &f in reference.split_features.borrow().iter() {
                    chosen[f] += 1;
                }
                assert!(want.num_nodes() > 3);
                let got = RegressionTree::fit_view(x, &set.y, &set.w, &tp, cutoff);
                assert_eq!(got, want, "{n} rows, {tp:?}");
            }
        }
        for (split, colsample, min_child_weight) in [
            (SplitStrategy::Exact, 0.5, 1e-6),
            (SplitStrategy::Histogram, 0.4, 0.0),
            (SplitStrategy::Auto, 0.7, 1e-6),
            (SplitStrategy::Auto, 1.0, 0.0),
        ] {
            let gp = GbdtParams {
                n_trees: 8,
                colsample,
                split,
                max_bins: 16,
                tree: TreeParams {
                    min_child_weight,
                    ..params(6, vec![])
                },
                ..Default::default()
            };
            let tel = telemetry::Telemetry::disabled();
            let got = Gbdt::train_matrix(x, &set.y, &set.w, &gp, &tel);
            assert!(got.num_trees() > 1);
            let want = reference_model(x, &set.y, &set.w, &gp, Order::Sorted);
            assert_eq!(got, want, "{n} rows, {gp:?}");
        }
    }
    // The copy wins where it is listed before column 0, and so do the
    // column with a cut fewer, the increasing maps and a decreasing one.
    for f in [ADJACENT, COPY, 10, 11, 12] {
        assert!(chosen[f] > 0, "column {f} never split a node: {chosen:?}");
    }
}
