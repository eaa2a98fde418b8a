//! Feature quantization for histogram-based split search.
//!
//! Before boosting starts, every feature column is bucketed into at most
//! [`MAX_BINS`] bins delimited by deterministic cut thresholds; each sample's
//! column value is replaced by a `u8` bin code. Tree growth then builds
//! per-node *gradient histograms* — per bin, the sums `Σw` and `Σw·y` — and
//! scans the ≤255 bin boundaries instead of sorting the node's samples at
//! every depth. Bins depend only on `x` and the row-inclusion mask, so one
//! [`BinnedDataset`] is reused by every tree of a training pass.
//!
//! Determinism contract (docs/PARALLELISM.md): cuts are a pure function of
//! the included values in row order; per-feature work (cut construction,
//! code assignment, histogram accumulation) is serial in row order and only
//! *across* features does it run on the parallel runtime, so the result is
//! bit-identical at every thread count.
//!
//! Cut semantics: cuts are strictly ascending; `bin(x)` is the number of
//! cuts `≤ x`. Splitting at boundary `b` routes `bin(x) ≤ b` left, which is
//! exactly `x < cuts[b]` — the same `x[feature] < threshold` rule the tree
//! uses at prediction time, so a split learned on bin codes and a split
//! stored as a float threshold route every sample identically.

use crate::Matrix;

/// Upper bound on bins per feature (bin codes are `u8`).
pub const MAX_BINS: usize = 256;

/// Quantized view of a training matrix: per-feature cut thresholds plus
/// column-major `u8` bin codes for every sample.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedDataset {
    /// Column-major codes: feature `f`'s codes are
    /// `codes[f*n_rows .. (f+1)*n_rows]`.
    codes: Vec<u8>,
    n_rows: usize,
    n_cols: usize,
    /// Per-feature strictly-ascending cut thresholds; feature `f` has
    /// `cuts[f].len() + 1` bins.
    cuts: Vec<Vec<f32>>,
}

impl BinnedDataset {
    /// Quantizes `x` into at most `max_bins` bins per feature. Cuts are
    /// derived only from rows with `w > 0` (excluded rows still receive
    /// codes so any row can be routed). Features are processed on the
    /// parallel runtime; each feature's work is serial in row order.
    pub fn build(x: Matrix<'_>, w: &[f32], max_bins: usize) -> BinnedDataset {
        let max_bins = max_bins.clamp(2, MAX_BINS);
        let (n_rows, n_cols) = (x.n_rows(), x.n_cols());
        let included: Vec<usize> = (0..n_rows).filter(|&i| w[i] > 0.0).collect();
        let per_feature = |f: usize| -> (Vec<f32>, Vec<u8>) {
            // A column that takes one value over the included rows cannot
            // split: no cuts, all-zero codes, and nothing to gather or sort.
            // (`==`, so a NaN column takes the full path.)
            let first = included.first().map(|&i| x.get(i, f));
            if included.iter().all(|&i| Some(x.get(i, f)) == first) {
                (Vec::new(), vec![0u8; n_rows])
            } else {
                quantize_column(x, &included, f, max_bins)
            }
        };
        let per_col: Vec<(Vec<f32>, Vec<u8>)> =
            if n_rows.saturating_mul(n_cols) >= crate::tree::PARALLEL_SPLIT_WORK {
                let features: Vec<usize> = (0..n_cols).collect();
                ansor_runtime::parallel_map_indexed(&features, |_, &f| per_feature(f))
            } else {
                (0..n_cols).map(per_feature).collect()
            };
        let mut codes = Vec::with_capacity(n_rows * n_cols);
        let mut cuts = Vec::with_capacity(n_cols);
        for (c, col) in per_col {
            cuts.push(c);
            codes.extend_from_slice(&col);
        }
        BinnedDataset {
            codes,
            n_rows,
            n_cols,
            cuts,
        }
    }

    /// Bin code of sample `i`'s feature `f`.
    #[inline]
    pub fn code(&self, i: usize, f: usize) -> usize {
        self.codes[f * self.n_rows + i] as usize
    }

    /// Bin codes of feature `f`, one per sample.
    pub fn codes(&self, f: usize) -> &[u8] {
        &self.codes[f * self.n_rows..(f + 1) * self.n_rows]
    }

    /// Cut thresholds of feature `f`; boundary `b` splits at `cuts[b]`.
    pub fn cuts(&self, f: usize) -> &[f32] {
        &self.cuts[f]
    }

    /// Number of bins of feature `f`.
    pub fn n_bins(&self, f: usize) -> usize {
        self.cuts[f].len() + 1
    }

    /// Number of rows quantized.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }
}

/// Cuts and codes of feature `f`: cuts from its values over the `included`
/// rows, a code for every row.
fn quantize_column(
    x: Matrix<'_>,
    included: &[usize],
    f: usize,
    max_bins: usize,
) -> (Vec<f32>, Vec<u8>) {
    let mut values: Vec<f32> = included.iter().map(|&i| x.get(i, f)).collect();
    values.sort_unstable_by(f32::total_cmp);
    let cuts = build_cuts(&values, max_bins);
    let codes = if cuts.is_empty() {
        vec![0u8; x.n_rows()]
    } else {
        (0..x.n_rows())
            .map(|i| cuts.partition_point(|c| *c <= x.get(i, f)) as u8)
            .collect()
    };
    (cuts, codes)
}

/// Builds strictly-ascending cut thresholds from one feature's included
/// values, pre-sorted ascending (duplicates retained).
///
/// With at most `max_bins` distinct values every adjacent distinct pair
/// gets a cut at its midpoint — the same `(lo + hi) * 0.5` threshold the
/// exact sort-based scan produces, which is what makes the binned and exact
/// paths agree exactly in that regime. Otherwise cuts are placed at
/// `max_bins`-quantile ranks of the value distribution (duplicates weight
/// their value's rank, as in LightGBM), again at adjacent-value midpoints.
fn build_cuts(sorted: &[f32], max_bins: usize) -> Vec<f32> {
    if sorted.is_empty() {
        return Vec::new();
    }
    let mut distinct: Vec<f32> = Vec::new();
    for &v in sorted {
        if distinct.last() != Some(&v) {
            distinct.push(v);
        }
    }
    let mut cuts = Vec::new();
    let mut push = |lo: f32, hi: f32| {
        let mid = (lo + hi) * 0.5;
        // A midpoint that rounds onto `lo` (adjacent floats) or out of the
        // finite range cannot separate the pair; drop the boundary — both
        // the binning rule and threshold routing then merge the two bins
        // consistently.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix_of(rows: &[Vec<f32>]) -> (Vec<f32>, usize) {
        let n_cols = rows.first().map(|r| r.len()).unwrap_or(0);
        (rows.iter().flatten().copied().collect(), n_cols)
    }

    #[test]
    fn few_distinct_values_get_midpoint_cuts() {
        let rows: Vec<Vec<f32>> = [0.0f32, 1.0, 3.0, 1.0, 0.0]
            .iter()
            .map(|&v| vec![v])
            .collect();
        let (data, n_cols) = matrix_of(&rows);
        let x = Matrix::new(&data, n_cols);
        let b = BinnedDataset::build(x, &[1.0; 5], 256);
        assert_eq!(b.cuts(0), &[0.5, 2.0]);
        assert_eq!(b.n_bins(0), 3);
        let codes: Vec<usize> = (0..5).map(|i| b.code(i, 0)).collect();
        assert_eq!(codes, vec![0, 1, 2, 1, 0]);
    }

    #[test]
    fn bin_routing_matches_threshold_routing() {
        // bin(x) <= b  ⟺  x < cuts[b], for every value and boundary.
        let vals: Vec<f32> = (0..40).map(|i| ((i * 7) % 13) as f32 * 0.25).collect();
        let rows: Vec<Vec<f32>> = vals.iter().map(|&v| vec![v]).collect();
        let (data, n_cols) = matrix_of(&rows);
        let x = Matrix::new(&data, n_cols);
        let b = BinnedDataset::build(x, &vec![1.0; vals.len()], 8);
        for (i, &v) in vals.iter().enumerate() {
            for (bi, &cut) in b.cuts(0).iter().enumerate() {
                assert_eq!(b.code(i, 0) <= bi, v < cut, "value {v} boundary {cut}");
            }
        }
    }

    #[test]
    fn quantile_path_caps_bin_count() {
        let rows: Vec<Vec<f32>> = (0..1000).map(|i| vec![i as f32]).collect();
        let (data, n_cols) = matrix_of(&rows);
        let x = Matrix::new(&data, n_cols);
        let b = BinnedDataset::build(x, &vec![1.0; 1000], 16);
        assert!(b.n_bins(0) <= 16, "{} bins", b.n_bins(0));
        assert!(b.n_bins(0) >= 8, "{} bins", b.n_bins(0));
        // Codes are monotone in the value.
        for i in 1..1000 {
            assert!(b.code(i, 0) >= b.code(i - 1, 0));
        }
    }

    #[test]
    fn zero_weight_rows_do_not_shape_cuts_but_still_code() {
        let rows: Vec<Vec<f32>> = [0.0f32, 1.0, 100.0].iter().map(|&v| vec![v]).collect();
        let (data, n_cols) = matrix_of(&rows);
        let x = Matrix::new(&data, n_cols);
        let b = BinnedDataset::build(x, &[1.0, 1.0, 0.0], 256);
        // Only {0, 1} shape the cuts; 100.0 codes into the top bin.
        assert_eq!(b.cuts(0), &[0.5]);
        assert_eq!(b.code(2, 0), 1);
    }

    #[test]
    fn columns_that_cannot_split_skip_the_sort_and_change_nothing() {
        // Per row: constant, NaN, two-valued, continuous, constant on the
        // included rows only, `-0.0`/`0.0` (equal, so constant too).
        let n = 300;
        let mut s = 7u64;
        let mut lcg = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as f32
        };
        let w: Vec<f32> = (0..n).map(|i| if i % 7 == 3 { 0.0 } else { 0.5 }).collect();
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                vec![
                    4.25,
                    f32::NAN,
                    (i % 2) as f32,
                    lcg() / 1e6,
                    if w[i] > 0.0 { 1.0 } else { i as f32 },
                    if i % 3 == 0 { -0.0 } else { 0.0 },
                ]
            })
            .collect();
        let (data, n_cols) = matrix_of(&rows);
        let x = Matrix::new(&data, n_cols);
        for weights in [w.clone(), vec![0.0; n], vec![1.0; n]] {
            for max_bins in [256, 16] {
                let built = BinnedDataset::build(x, &weights, max_bins);
                let included: Vec<usize> = (0..n).filter(|&i| weights[i] > 0.0).collect();
                let (mut cuts, mut codes) = (Vec::new(), Vec::new());
                for f in 0..n_cols {
                    let (c, col) = quantize_column(x, &included, f, max_bins);
                    cuts.push(c);
                    codes.extend(col);
                }
                let reference = BinnedDataset {
                    codes,
                    n_rows: n,
                    n_cols,
                    cuts,
                };
                assert_eq!(built, reference);
            }
        }
        // The fixture is what it says: with `w`, columns 2 and 3 split and
        // a zero-weight row of column 4 still gets its (only) code.
        let built = BinnedDataset::build(x, &w, 256);
        let bins: Vec<usize> = (0..n_cols).map(|f| built.n_bins(f)).collect();
        assert_eq!(bins[..3], [1, 1, 2]);
        assert!(bins[3] > 100);
        assert_eq!(bins[4..], [1, 1]);
    }

    #[test]
    fn constant_feature_has_one_bin() {
        let rows: Vec<Vec<f32>> = (0..10).map(|_| vec![2.5]).collect();
        let (data, n_cols) = matrix_of(&rows);
        let x = Matrix::new(&data, n_cols);
        let b = BinnedDataset::build(x, &[1.0; 10], 256);
        assert_eq!(b.n_bins(0), 1);
        assert!(b.cuts(0).is_empty());
    }
}
