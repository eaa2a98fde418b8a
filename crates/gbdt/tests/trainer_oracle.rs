//! The trainer oracle: `tests/golden/models.fingerprints` holds one
//! FNV-1a-64 of `serde_json::to_string(&model)` per case below, written by
//! the per-node-`Vec` grower this crate had before `TrainPass`. Any trainer
//! must reproduce every line: the same trees, thresholds, gains and leaf
//! values, bit for bit.
//!
//! The sets are shaped like the cost model's real ones (164 columns, 157 /
//! 725 / 2 148 rows): ~45 % of the columns constant, most of the rest at
//! 2–16 distinct values, a few at 17–256, six continuous (quantile cuts),
//! exact and scaled copies of columns (gain ties between candidates),
//! records of 1–4 rows sharing a label and a weight, and failed records at
//! weight 0 — including a column that varies only on those rows and one
//! that is constant except for `-0.0` against `0.0`. On the same sets, the
//! cuts and codes `BinnedDataset::build` derives from its ranks must be
//! those a sort of each column's values gives.

use std::fmt::Write as _;

use gbdt::{BinnedDataset, Gbdt, GbdtParams, Matrix, RegressionTree, SplitStrategy, TreeParams};

const N_COLS: usize = 164;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Distinct values column `c` takes over the included rows; 0 = continuous.
fn cardinality(c: usize) -> usize {
    match (c, c % 9, c % 27) {
        (5 | 6, _, _) => 1,
        (_, 0 | 2 | 4 | 7, _) => 1,
        (_, _, 10) => 0,
        (_, _, 12) => 17 + (c * 7) % 240,
        _ => 2 + (c * 5) % 15,
    }
}

struct Set {
    x: Vec<f32>,
    y: Vec<f32>,
    w: Vec<f32>,
}

impl Set {
    fn view(&self) -> Matrix<'_> {
        Matrix::new(&self.x, N_COLS)
    }
}

fn realistic(n_rows: usize, seed: u64) -> Set {
    let mut s = seed | 1;
    let mut set = Set {
        x: Vec::with_capacity(n_rows * N_COLS),
        y: Vec::with_capacity(n_rows),
        w: Vec::with_capacity(n_rows),
    };
    let mut record = 0usize;
    while set.y.len() < n_rows {
        let rows = (1 + lcg(&mut s) as usize % 4).min(n_rows - set.y.len());
        let failed = matches!(record % 11, 0);
        let mut label = 0.0f32;
        for r in 0..rows {
            let row = set.x.len() / N_COLS;
            // `u[c]` ∈ [0, 1): where the row sits in column `c`'s range.
            let mut u = [0.0f32; N_COLS];
            for (c, u) in u.iter_mut().enumerate() {
                let k = cardinality(c);
                let v = match (c, c % 27) {
                    // Varies only where the weight is 0.
                    (5, _) => 1.5 + if failed { (record % 5) as f32 } else { 0.0 },
                    (6, _) => [0.0, -0.0][(row % 7 == 3) as usize],
                    // Copies of the column before: equal gains, first wins.
                    (_, 15) => set.x[set.x.len() - 1],
                    (_, 24) => 2.0 * set.x[set.x.len() - 1] + 1.0,
                    _ if k == 1 => c as f32 * 0.5,
                    _ if k == 0 => {
                        *u = (lcg(&mut s) % 1_000_003) as f32 / 1_000_003.0;
                        *u * 37.3 + c as f32
                    }
                    _ => {
                        let j = lcg(&mut s) as usize % k;
                        *u = j as f32 / k as f32;
                        j as f32 * 0.3 + c as f32 * 0.01
                    }
                };
                set.x.push(v);
            }
            if r == 0 {
                let noise = (lcg(&mut s) % 1000) as f32 / 1000.0;
                let t = 0.3 * u[1]
                    + 0.2 * u[3] * u[10]
                    + 0.2 * (u[12] > 0.5) as u8 as f32
                    + 0.15 * u[37]
                    + 0.1 * u[14] * u[23]
                    + 0.05 * noise;
                label = t.clamp(0.02, 1.0);
            }
        }
        for _ in 0..rows {
            set.y.push(if failed { 0.0 } else { label / rows as f32 });
            set.w.push(if failed { 0.0 } else { label.max(1e-3) });
        }
        record += 1;
    }
    set
}

/// The parameters `LearnedCostModel::new` trains with.
fn cost_model_params() -> GbdtParams {
    GbdtParams {
        n_trees: 25,
        learning_rate: 0.25,
        colsample: 0.4,
        tree: TreeParams {
            max_depth: 6,
            min_child_weight: 1e-4,
            min_gain: 1e-12,
            feature_subset: vec![],
        },
        ..Default::default()
    }
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn model_fingerprints() -> String {
    let tel = telemetry::Telemetry::disabled();
    let sets = [realistic(157, 1), realistic(725, 2), realistic(2148, 3)];
    let mut out = String::new();
    let mut case = |name: &str, set: &Set, params: &GbdtParams| {
        let model = Gbdt::train_matrix(set.view(), &set.y, &set.w, params, &tel);
        assert!(model.num_trees() > 0, "{name}: nothing was learned");
        let json = serde_json::to_string(&model).expect("a model serializes");
        writeln!(
            out,
            "{name} rows={} trees={} {:016x}",
            set.y.len(),
            model.num_trees(),
            fnv1a(&json)
        )
        .expect("writing to a String");
    };
    let base = cost_model_params();
    for set in &sets {
        case("cost-model", set, &base);
        let all_columns = GbdtParams {
            colsample: 1.0,
            ..base.clone()
        };
        case("colsample-1.0", set, &all_columns);
    }
    for (split, name) in [
        (SplitStrategy::Exact, "exact"),
        (SplitStrategy::Histogram, "histogram"),
    ] {
        for colsample in [0.4, 1.0] {
            let params = GbdtParams {
                split,
                colsample,
                n_trees: 8,
                ..base.clone()
            };
            case(&format!("{name}-{colsample}"), &sets[1], &params);
        }
    }
    // Few bins: every column above 16 distinct values takes quantile cuts.
    let coarse = GbdtParams {
        split: SplitStrategy::Histogram,
        max_bins: 16,
        ..base.clone()
    };
    case("histogram-16-bins", &sets[2], &coarse);
    // A floor on a child's weight that vetoes most deep splits (a set's
    // total weight is about a quarter of its rows).
    let mut veto = base.clone();
    veto.tree.min_child_weight = 12.0;
    case("min-child-weight-12", &sets[1], &veto);
    veto.colsample = 1.0;
    case("min-child-weight-12-all-columns", &sets[2], &veto);
    case("defaults", &sets[0], &GbdtParams::default());
    case("defaults", &sets[1], &GbdtParams::default());

    // One tree through `fit_view`, with a candidate list that repeats a
    // column and names one past the matrix.
    let set = &sets[1];
    let tp = TreeParams {
        feature_subset: vec![37, 3, 200, 12, 3, 5, 6, 0, 10, 1, 14, 15, 23, 24],
        ..base.tree.clone()
    };
    let binned = BinnedDataset::build(set.view(), &set.w, 256);
    for (name, binned) in [
        ("tree-exact", None),
        ("tree-auto", Some((&binned, 64))),
        ("tree-histogram", Some((&binned, 0))),
    ] {
        let tree = RegressionTree::fit_view(set.view(), &set.y, &set.w, &tp, binned);
        let json = serde_json::to_string(&tree).expect("a tree serializes");
        writeln!(
            out,
            "{name} rows={} nodes={} {:016x}",
            set.y.len(),
            tree.num_nodes(),
            fnv1a(&json)
        )
        .expect("writing to a String");
    }
    out
}

/// The reference bins: per column, the included values sorted with
/// `total_cmp`, cuts from them, and every row's code a binary search over
/// the cuts.
fn sorted_bins(x: Matrix<'_>, w: &[f32], max_bins: usize) -> Vec<(Vec<f32>, Vec<u8>)> {
    let included: Vec<usize> = (0..x.n_rows()).filter(|&i| w[i] > 0.0).collect();
    (0..x.n_cols())
        .map(|f| {
            let mut values: Vec<f32> = included.iter().map(|&i| x.get(i, f)).collect();
            values.sort_unstable_by(f32::total_cmp);
            let cuts = sorted_cuts(&values, max_bins.clamp(2, 256));
            let codes = (0..x.n_rows())
                .map(|i| cuts.partition_point(|c| *c <= x.get(i, f)) as u8)
                .collect();
            (cuts, codes)
        })
        .collect()
}

/// The cut rule over one column's sorted values: every distinct midpoint
/// when they fit, else the midpoints at `max_bins`-quantile positions.
fn sorted_cuts(sorted: &[f32], max_bins: usize) -> Vec<f32> {
    let mut distinct: Vec<f32> = Vec::new();
    for &v in sorted {
        if distinct.last() != Some(&v) {
            distinct.push(v);
        }
    }
    let mut cuts = Vec::new();
    let mut push = |lo: f32, hi: f32| {
        let mid = (lo + hi) * 0.5;
        if mid > lo && mid.is_finite() && cuts.last() != Some(&mid) {
            cuts.push(mid);
        }
    };
    if distinct.len() <= max_bins {
        for pair in distinct.windows(2) {
            push(pair[0], pair[1]);
        }
    } else {
        let n = sorted.len();
        for j in 1..max_bins {
            let pos = j * n / max_bins;
            if pos > 0 && sorted[pos] > sorted[pos - 1] {
                push(sorted[pos - 1], sorted[pos]);
            }
        }
    }
    cuts
}

fn assert_bins_are_the_sorted_ones(x: Matrix<'_>, w: &[f32], max_bins: usize) -> BinnedDataset {
    let built = BinnedDataset::build(x, w, max_bins);
    for (f, (cuts, codes)) in sorted_bins(x, w, max_bins).iter().enumerate() {
        assert_eq!(built.cuts(f), &cuts[..], "column {f}, {max_bins} bins");
        assert_eq!(built.codes(f), &codes[..], "column {f}, {max_bins} bins");
    }
    built
}

#[test]
fn bins_from_ranks_are_the_bins_of_a_sort_per_column() {
    for (n, seed) in [(157, 1), (725, 2), (2148, 3)] {
        let set = realistic(n, seed);
        for max_bins in [256, 16, 2] {
            assert_bins_are_the_sorted_ones(set.view(), &set.w, max_bins);
        }
    }
}

#[test]
fn columns_that_cannot_split_skip_the_sort_and_change_nothing() {
    // Per row: constant, NaN, two-valued, continuous, constant on the
    // included rows only, `-0.0`/`0.0` (equal, so constant too).
    let n = 300;
    let mut s = 7u64;
    let w: Vec<f32> = (0..n).map(|i| if i % 7 == 3 { 0.0 } else { 0.5 }).collect();
    let data: Vec<f32> = (0..n)
        .flat_map(|i| {
            [
                4.25,
                f32::NAN,
                (i % 2) as f32,
                lcg(&mut s) as f32 / 1e6,
                if w[i] > 0.0 { 1.0 } else { i as f32 },
                if i % 3 == 0 { -0.0 } else { 0.0 },
            ]
        })
        .collect();
    let x = Matrix::new(&data, 6);
    for weights in [w.clone(), vec![0.0; n], vec![1.0; n]] {
        for max_bins in [256, 16] {
            assert_bins_are_the_sorted_ones(x, &weights, max_bins);
        }
    }
    // The fixture is what it says: with `w`, columns 2 and 3 split and
    // a zero-weight row of column 4 still gets its (only) code.
    let built = BinnedDataset::build(x, &w, 256);
    let bins: Vec<usize> = (0..6).map(|f| built.n_bins(f)).collect();
    assert_eq!(bins[..3], [1, 1, 2]);
    assert!(bins[3] > 100);
    assert_eq!(bins[4..], [1, 1]);
}

const FINGERPRINTS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/models.fingerprints"
);

#[test]
fn sets_have_the_shape_of_real_ones() {
    let set = realistic(725, 2);
    let included: Vec<usize> = (0..725).filter(|&i| set.w[i] > 0.0).collect();
    assert!(included.len() < 725 && included[0] > 0);
    let distinct = |c: usize, rows: &[usize]| {
        let mut v: Vec<u32> = rows
            .iter()
            .map(|&i| set.view().get(i, c).to_bits())
            .collect();
        v.sort_unstable();
        v.dedup();
        v.len()
    };
    let all: Vec<usize> = (0..725).collect();
    let constant = (0..N_COLS)
        .filter(|&c| {
            included
                .iter()
                .all(|&i| set.view().get(i, c) == set.view().get(included[0], c))
        })
        .count();
    assert!((66..=82).contains(&constant), "{constant} constant columns");
    assert_eq!(distinct(5, &included), 1);
    assert!(distinct(5, &all) > 1, "varies on zero-weight rows only");
    assert_eq!(distinct(6, &included), 2, "-0.0 and 0.0");
    assert_eq!(
        (0..N_COLS)
            .filter(|&c| distinct(c, &included) > 256)
            .count(),
        6
    );
    assert!((0..N_COLS).any(|c| (17..=256).contains(&distinct(c, &included))));
}

#[test]
fn training_reproduces_the_committed_fingerprints() {
    let golden = std::fs::read_to_string(FINGERPRINTS).expect("fixture is committed");
    let now = model_fingerprints();
    for (want, got) in golden.lines().zip(now.lines()) {
        assert_eq!(want, got, "this case trains a different model");
    }
    assert_eq!(golden.lines().count(), now.lines().count());
}

/// `cargo test -p gbdt --test trainer_oracle -- --ignored bless` rewrites
/// the fixture; only a deliberate change of what training produces
/// justifies it.
#[test]
#[ignore]
fn bless_model_fingerprints() {
    std::fs::write(FINGERPRINTS, model_fingerprints()).expect("fixture is writable");
}
