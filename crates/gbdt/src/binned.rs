//! The quantization pass: one sort per varying column per retrain.
//!
//! Before boosting starts, each column that takes more than one value over
//! the included rows (`w > 0`) is sorted once. From that one sort the pass
//! keeps, per column:
//!
//! - per included row, the *rank* of its value among the column's distinct
//!   included values, and per rank its value. The exact scan of a small
//!   node buckets the node's rows by rank instead of sorting them
//!   (`crate::tree`). Ranks are stored in the narrowest unsigned type that
//!   holds every rank of the dataset, so they never wrap;
//! - when the pass is binned ([`BinnedDataset::build`]), at most
//!   [`MAX_BINS`] bins delimited by deterministic cut thresholds, and each
//!   row's `u8` bin code: a per-rank lookup for an included row. Tree
//!   growth then builds per-node *gradient histograms* — per bin, the sums
//!   `Σw` and `Σw·y` — and scans the ≤255 bin boundaries.
//!
//! A column that takes one value over the included rows can never split a
//! node: it is not sorted, has no ranks and no cuts, and its codes are 0.
//! Everything here depends only on `x` and the row-inclusion mask, so one
//! [`BinnedDataset`] is reused by every tree of a training pass.
//!
//! Each varying column also gets a *twin*: the first column whose included
//! rows have the same ranks and, when binned, the same codes — itself if no
//! earlier one does. Twins put the same rows in the same bucket or bin at
//! every node, so they offer the same boundaries with the same sums; only
//! their thresholds differ (a column and a strictly increasing transform of
//! it, or an exact copy).
//!
//! Rank semantics: values are ordered by `f32::total_cmp`, and a new rank
//! starts wherever a value is not `==` the current rank's first value. So
//! `-0.0` and `0.0` share a rank — as `==` and the exact scan's boundaries
//! between distinct values treat them — and every NaN row has a rank of its
//! own.
//!
//! Ranks, cuts and codes are a pure function of the included values,
//! appended column by column.
//!
//! Cut semantics: cuts are strictly ascending; `bin(x)` is the number of
//! cuts `≤ x`. Splitting at boundary `b` routes `bin(x) ≤ b` left, which is
//! exactly `x < cuts[b]` — the same `x[feature] < threshold` rule the tree
//! uses at prediction time, so a split learned on bin codes and a split
//! stored as a float threshold route every sample identically.

use crate::Matrix;

/// Upper bound on bins per feature (bin codes are `u8`).
pub const MAX_BINS: usize = 256;

/// The one sort per varying column of a training matrix: per-row ranks and
/// per-rank values for the exact scan, and — when binned — per-feature cut
/// thresholds plus column-major `u8` bin codes for every sample.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedDataset {
    n_rows: usize,
    n_cols: usize,
    /// Rows with `w > 0`, ascending: the rows that are ranked and shape
    /// the cuts.
    included: Vec<usize>,
    /// The values of every sorted column's ranks, ascending, column after
    /// column: column `f`'s are `values[value_ends[f]..value_ends[f + 1]]`
    /// (none for a column that was not sorted).
    values: Vec<f32>,
    value_ends: Vec<usize>,
    /// One rank per row for every sorted column, `n_rows` at a time; an
    /// excluded row's rank is 0 and never read.
    ranks: Ranks,
    /// Where each column's ranks start in `ranks` (sorted columns only).
    rank_starts: Vec<usize>,
    /// Column-major codes: feature `f`'s codes are
    /// `codes[f*n_rows .. (f+1)*n_rows]`. Empty when the pass keeps ranks
    /// only.
    codes: Vec<u8>,
    /// Strictly-ascending cut thresholds, column after column: feature `f`
    /// has `cut_ends[f + 1] - cut_ends[f] + 1` bins.
    cuts: Vec<f32>,
    cut_ends: Vec<usize>,
    /// Per column, its twin; a column that does not vary is its own.
    twins: Vec<usize>,
}

impl BinnedDataset {
    /// Quantizes `x` into at most `max_bins` bins per feature. Ranks and
    /// cuts are derived only from rows with `w > 0` (excluded rows still
    /// receive codes so any row can be routed).
    pub fn build(x: Matrix<'_>, w: &[f32], max_bins: usize) -> BinnedDataset {
        Self::pass(x, w, Some(max_bins.clamp(2, MAX_BINS)))
    }

    /// The pass without bins: what a training pass that has no histogram
    /// node needs.
    pub(crate) fn ranks_only(x: Matrix<'_>, w: &[f32]) -> BinnedDataset {
        Self::pass(x, w, None)
    }

    fn pass(x: Matrix<'_>, w: &[f32], max_bins: Option<usize>) -> BinnedDataset {
        let (n_rows, n_cols) = (x.n_rows(), x.n_cols());
        assert_eq!(n_rows, w.len());
        // A sort entry packs the row index into 32 bits.
        assert!(u32::try_from(n_rows).is_ok(), "too many rows to rank");
        let included: Vec<usize> = (0..n_rows).filter(|&i| w[i] > 0.0).collect();
        // The columns that take more than one value over the included rows
        // (`==`, so a NaN column is sorted).
        let sorted_cols: Vec<bool> = (0..n_cols)
            .map(|f| {
                let first = included.first().map(|&i| x.get(i, f));
                !included.iter().all(|&i| Some(x.get(i, f)) == first)
            })
            .collect();
        let n_sorted = sorted_cols.iter().filter(|&&s| s).count();
        let mut data = BinnedDataset {
            n_rows,
            n_cols,
            included: Vec::new(),
            values: Vec::new(),
            value_ends: Vec::with_capacity(n_cols + 1),
            ranks: Ranks::new(included.len(), n_sorted * n_rows),
            rank_starts: Vec::with_capacity(n_cols),
            codes: match max_bins {
                Some(_) => vec![0; n_rows * n_cols],
                None => Vec::new(),
            },
            cuts: Vec::new(),
            cut_ends: Vec::with_capacity(n_cols + 1),
            twins: Vec::with_capacity(n_cols),
        };
        data.value_ends.push(0);
        data.cut_ends.push(0);
        // One column's buffers, reused by the next.
        let mut column = Column::default();
        for (f, &sort) in sorted_cols.iter().enumerate() {
            if sort {
                column.fill(x, w, &included, f, max_bins);
            }
            data.push_column(f, sort.then_some(&column));
        }
        data.included = included;
        // The first match is the first of its kind: sharing splits is an
        // equivalence.
        for f in 0..n_cols {
            let twin = if data.varies(f) {
                (0..f).find(|&g| data.same_splits(g, f)).unwrap_or(f)
            } else {
                f
            };
            data.twins.push(twin);
        }
        data
    }

    /// Whether column `g` puts every included row in the same rank as the
    /// varying column `f` and, when binned, in the same bin.
    fn same_splits(&self, g: usize, f: usize) -> bool {
        let n = self.n_rows;
        let codes = |f: usize| &self.codes[f * n..(f + 1) * n];
        self.values(g).len() == self.values(f).len()
            && self.ranks.same(self.rank_starts[g], self.rank_starts[f], n)
            && (self.codes.is_empty() || self.included.iter().all(|&i| codes(g)[i] == codes(f)[i]))
    }

    /// Appends feature `f`'s share of the pass: `column`, or nothing for a
    /// column that was not sorted.
    fn push_column(&mut self, f: usize, column: Option<&Column>) {
        self.rank_starts.push(self.ranks.len());
        if let Some(column) = column {
            self.ranks.push(&column.ranks, column.values.len());
            self.values.extend_from_slice(&column.values);
            self.cuts.extend_from_slice(&column.cuts);
            if !column.cuts.is_empty() {
                let n = self.n_rows;
                self.codes[f * n..(f + 1) * n].copy_from_slice(&column.codes);
            }
        }
        self.value_ends.push(self.values.len());
        self.cut_ends.push(self.cuts.len());
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
        &self.cuts[self.cut_ends[f]..self.cut_ends[f + 1]]
    }

    /// Number of bins of feature `f`.
    pub fn n_bins(&self, f: usize) -> usize {
        self.cuts(f).len() + 1
    }

    /// Number of rows quantized.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Rows with `w > 0`, ascending.
    pub(crate) fn included(&self) -> &[usize] {
        &self.included
    }

    /// The values of feature `f`'s ranks, ascending.
    pub(crate) fn values(&self, f: usize) -> &[f32] {
        &self.values[self.value_ends[f]..self.value_ends[f + 1]]
    }

    /// Whether `f` names a column with more than one rank. One that has
    /// fewer can never split a node — it has no cut on the histogram path
    /// and no boundary between ranks on the exact one — so no tree lists
    /// it as a candidate.
    pub(crate) fn varies(&self, f: usize) -> bool {
        f < self.n_cols && self.values(f).len() > 1
    }

    /// Feature `f`'s twin: the first column that splits every node as `f`
    /// does (see the module docs).
    pub(crate) fn twin(&self, f: usize) -> usize {
        self.twins[f]
    }

    /// The most ranks any column has.
    pub(crate) fn max_ranks(&self) -> usize {
        (0..self.n_cols)
            .map(|f| self.values(f).len())
            .max()
            .unwrap_or(0)
    }

    /// Adds `grad[i]` into `buckets[rank of row i in feature f]` for every
    /// row of `rows`, in that order, and sets the rank's bit in `present`
    /// (bit `r % 64` of word `r / 64`). Returns the lowest and highest rank
    /// seen. `f` must have been sorted and `rows` be non-empty and included.
    pub(crate) fn bucket_rows(
        &self,
        f: usize,
        rows: &[usize],
        grad: &[[f64; 2]],
        buckets: &mut [[f64; 2]],
        present: &mut [u64],
    ) -> (usize, usize) {
        let start = self.rank_starts[f];
        let end = start + self.n_rows;
        match &self.ranks {
            Ranks::U8(r) => bucket(&r[start..end], rows, grad, buckets, present),
            Ranks::U16(r) => bucket(&r[start..end], rows, grad, buckets, present),
            Ranks::U32(r) => bucket(&r[start..end], rows, grad, buckets, present),
        }
    }
}

/// `v`'s place in `f32::total_cmp` order, as an unsigned integer.
fn order_key(v: f32) -> u64 {
    let bits = v.to_bits();
    (if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    }) as u64
}

/// The value whose [`order_key`] is in the top half of a sort entry.
fn entry_value(entry: u64) -> f32 {
    let key = (entry >> 32) as u32;
    f32::from_bits(if key >> 31 == 1 {
        key & !(1 << 31)
    } else {
        !key
    })
}

/// The ranks of every sorted column, in the narrowest type that holds
/// every rank of the dataset.
#[derive(Debug, Clone, PartialEq)]
enum Ranks {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
}

impl Ranks {
    /// Room for `len` ranks below `n_included`, the most a column can have.
    fn new(n_included: usize, len: usize) -> Ranks {
        if n_included <= 1 << 8 {
            Ranks::U8(Vec::with_capacity(len))
        } else if n_included <= 1 << 16 {
            Ranks::U16(Vec::with_capacity(len))
        } else {
            Ranks::U32(Vec::with_capacity(len))
        }
    }

    fn len(&self) -> usize {
        match self {
            Ranks::U8(r) => r.len(),
            Ranks::U16(r) => r.len(),
            Ranks::U32(r) => r.len(),
        }
    }

    /// Whether the `n` ranks from `a` are the `n` from `b`.
    fn same(&self, a: usize, b: usize, n: usize) -> bool {
        match self {
            Ranks::U8(r) => r[a..a + n] == r[b..b + n],
            Ranks::U16(r) => r[a..a + n] == r[b..b + n],
            Ranks::U32(r) => r[a..a + n] == r[b..b + n],
        }
    }

    /// Appends one column's ranks, all below `n_ranks`.
    fn push(&mut self, column: &[u32], n_ranks: usize) {
        let fits = match self {
            Ranks::U8(_) => n_ranks <= 1 << 8,
            Ranks::U16(_) => n_ranks <= 1 << 16,
            Ranks::U32(_) => true,
        };
        assert!(fits, "{n_ranks} ranks do not fit the rank type");
        match self {
            Ranks::U8(r) => r.extend(column.iter().map(|&k| k as u8)),
            Ranks::U16(r) => r.extend(column.iter().map(|&k| k as u16)),
            Ranks::U32(r) => r.extend_from_slice(column),
        }
    }
}

/// One column's share of the pass, and the buffers it is built in.
#[derive(Default)]
struct Column {
    /// `(order key << 32) | row` of each included row, sorted.
    sorted: Vec<u64>,
    /// Per row, the rank of its value; 0 for an excluded row.
    ranks: Vec<u32>,
    /// Per rank, its value, ascending.
    values: Vec<f32>,
    /// Cut thresholds (binned only).
    cuts: Vec<f32>,
    /// Per rank, then per row, the bin code (binned, with cuts, only).
    rank_codes: Vec<u8>,
    codes: Vec<u8>,
}

impl Column {
    /// Sorts feature `f`'s values over the `included` rows once and keeps
    /// what the pass keeps; bins only with `max_bins`.
    fn fill(
        &mut self,
        x: Matrix<'_>,
        w: &[f32],
        included: &[usize],
        f: usize,
        max_bins: Option<usize>,
    ) {
        let sorted = &mut self.sorted;
        sorted.clear();
        sorted.extend(
            included
                .iter()
                .map(|&i| (order_key(x.get(i, f)) << 32) | i as u64),
        );
        // By key only, so that a run of one value sorts as one: its rows
        // share a rank whatever their order. NaNs, a rank each, are ordered
        // by row too; they lie at the two ends.
        sorted.sort_unstable_by_key(|&entry| entry >> 32);
        let is_nan = |entry: &&u64| entry_value(**entry).is_nan();
        let head = sorted.iter().take_while(is_nan).count();
        sorted[..head].sort_unstable();
        let tail = sorted.len() - sorted[head..].iter().rev().take_while(is_nan).count();
        sorted[tail..].sort_unstable();
        // A new rank wherever the value is not `==` the current rank's
        // first.
        self.ranks.resize(x.n_rows(), 0);
        self.values.clear();
        let (mut rank, mut first) = (0, entry_value(sorted[0]));
        self.values.push(first);
        self.ranks[sorted[0] as u32 as usize] = 0;
        for &entry in &sorted[1..] {
            let v = entry_value(entry);
            if v != first {
                rank += 1;
                first = v;
                self.values.push(v);
            }
            self.ranks[entry as u32 as usize] = rank;
        }
        self.cuts.clear();
        self.codes.clear();
        let Some(max_bins) = max_bins else {
            return;
        };
        push_cuts(&mut self.cuts, &self.values, sorted, max_bins);
        if self.cuts.is_empty() {
            return;
        }
        let cuts = &self.cuts;
        let bin = |v: f32| cuts.partition_point(|c| *c <= v) as u8;
        self.rank_codes.clear();
        self.rank_codes.extend(self.values.iter().map(|&v| bin(v)));
        let (ranks, rank_codes) = (&self.ranks, &self.rank_codes);
        self.codes.extend((0..x.n_rows()).map(|i| {
            if w[i] > 0.0 {
                rank_codes[ranks[i] as usize]
            } else {
                bin(x.get(i, f))
            }
        }));
    }
}

/// [`BinnedDataset::bucket_rows`] over one column of ranks.
fn bucket<R: Copy + Into<u32>>(
    ranks: &[R],
    rows: &[usize],
    grad: &[[f64; 2]],
    buckets: &mut [[f64; 2]],
    present: &mut [u64],
) -> (usize, usize) {
    let (mut lowest, mut highest) = (usize::MAX, 0);
    for &i in rows {
        let r = ranks[i].into() as usize;
        let bucket = &mut buckets[r];
        bucket[0] += grad[i][0];
        bucket[1] += grad[i][1];
        present[r / 64] |= 1 << (r % 64);
        lowest = lowest.min(r);
        highest = highest.max(r);
    }
    (lowest, highest)
}

/// Appends the strictly-ascending cut thresholds of one column to the
/// empty `cuts`: `distinct` holds its rank values, `sorted` its sort
/// entries (every included row, duplicates retained).
///
/// With at most `max_bins` distinct values every adjacent distinct pair
/// gets a cut at its midpoint — the same `(lo + hi) * 0.5` threshold the
/// exact scan produces, which is what makes the binned and exact paths
/// agree exactly in that regime. Otherwise cuts are placed at
/// `max_bins`-quantile ranks of the value distribution (duplicates weight
/// their value's rank, as in LightGBM), again at adjacent-value midpoints.
fn push_cuts(cuts: &mut Vec<f32>, distinct: &[f32], sorted: &[u64], max_bins: usize) {
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
            let (lo, hi) = (entry_value(sorted[pos - 1]), entry_value(sorted[pos]));
            if hi > lo {
                push(lo, hi);
            }
        }
    }
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
    fn order_keys_sort_like_total_cmp_and_decode_to_the_value() {
        let mut values = vec![
            f32::NEG_INFINITY,
            -3.5,
            -f32::MIN_POSITIVE,
            -0.0,
            0.0,
            1e-45,
            2.25,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        for v in &values {
            assert_eq!(
                entry_value((order_key(*v) << 32) | 7).to_bits(),
                v.to_bits()
            );
        }
        let mut by_key = values.clone();
        by_key.sort_by_key(|v| order_key(*v));
        values.sort_by(f32::total_cmp);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&by_key), bits(&values));
    }

    #[test]
    fn ranks_follow_the_value_order_and_equal_values_share_one() {
        // Per row: `-0.0`/`0.0`, NaN, a value repeated out of order; row 4
        // is excluded.
        let rows = [
            [0.0, f32::NAN, 3.0],
            [-0.0, 1.0, -1.0],
            [-0.0, f32::NAN, 3.0],
            [2.0, 1.0, 0.5],
            [-5.0, -7.0, 99.0],
        ];
        let data: Vec<f32> = rows.iter().flatten().copied().collect();
        let x = Matrix::new(&data, 3);
        let w = [1.0, 0.5, 2.0, 1.0, 0.0];
        let ranked = BinnedDataset::ranks_only(x, &w);
        assert_eq!(ranked.included(), &[0, 1, 2, 3]);
        assert!(ranked.codes.is_empty() && ranked.cuts.is_empty());
        let grad: Vec<[f64; 2]> = w.iter().map(|&wi| [wi as f64, 1.0]).collect();
        let ranks_of = |f: usize| -> Vec<usize> {
            (0..4)
                .map(|i| {
                    let mut buckets = vec![[0.0; 2]; ranked.max_ranks()];
                    let mut present = vec![0; 1];
                    ranked
                        .bucket_rows(f, &[i], &grad, &mut buckets, &mut present)
                        .0
                })
                .collect()
        };
        assert_eq!(ranks_of(0), [0, 0, 0, 1]);
        assert_eq!(ranked.values(0)[0].to_bits(), (-0.0f32).to_bits());
        assert_eq!(ranks_of(1), [1, 0, 2, 0]);
        assert_eq!(ranks_of(2), [2, 0, 2, 1]);
        assert_eq!(ranked.values(2), &[-1.0, 0.5, 3.0]);
        // Two rows of rank 2 land in one bucket, in row order.
        let mut buckets = vec![[0.0; 2]; ranked.max_ranks()];
        let mut present = vec![0; 1];
        let seen = ranked.bucket_rows(2, &[0, 2, 3], &grad, &mut buckets, &mut present);
        assert_eq!(seen, (1, 2));
        assert_eq!(present, [0b110]);
        assert_eq!(buckets[..3], [[0.0; 2], [1.0, 1.0], [3.0, 2.0]]);
    }

    #[test]
    fn every_nan_row_has_a_rank_of_its_own_in_row_order() {
        // NaN of both signs on every third row, four values between them:
        // enough rows that the sort partitions rather than inserts.
        let data: Vec<f32> = (0..300)
            .map(|i| match i % 6 {
                0 => f32::NAN,
                3 => -f32::NAN,
                k => k as f32,
            })
            .collect();
        let ranked = BinnedDataset::ranks_only(Matrix::new(&data, 1), &[1.0; 300]);
        let grad = vec![[1.0, 0.0]; 300];
        let mut buckets = vec![[0.0; 2]; ranked.max_ranks()];
        let mut present = vec![0; ranked.max_ranks().div_ceil(64)];
        let mut rank_of = |i: usize| {
            let (r, _) = ranked.bucket_rows(0, &[i], &grad, &mut buckets, &mut present);
            buckets[r] = [0.0; 2];
            present[r / 64] = 0;
            r
        };
        let negative: Vec<usize> = (3..300).step_by(6).map(&mut rank_of).collect();
        let values: Vec<usize> = [1, 2, 4, 5].into_iter().map(&mut rank_of).collect();
        let positive: Vec<usize> = (0..300).step_by(6).map(&mut rank_of).collect();
        assert_eq!(negative, (0..50).collect::<Vec<_>>());
        assert_eq!(values, [50, 51, 52, 53]);
        assert_eq!(positive, (54..104).collect::<Vec<_>>());
        assert_eq!(ranked.max_ranks(), 104);
    }

    #[test]
    fn rank_type_is_the_narrowest_that_holds_every_rank() {
        for (n, bits) in [(256, 8), (257, 16), (1 << 16, 16), ((1 << 16) + 1, 32)] {
            let data: Vec<f32> = (0..n).map(|i| (n - i) as f32).collect();
            let ranked = BinnedDataset::ranks_only(Matrix::new(&data, 1), &vec![1.0; n]);
            let width = match ranked.ranks {
                Ranks::U8(_) => 8,
                Ranks::U16(_) => 16,
                Ranks::U32(_) => 32,
            };
            assert_eq!(width, bits, "{n} rows");
            assert_eq!(ranked.values(0).len(), n);
            assert_eq!(ranked.max_ranks(), n);
            // The last row holds the smallest value, the first the largest.
            let mut buckets = vec![[0.0; 2]; n];
            let mut present = vec![0; n.div_ceil(64)];
            let grad = vec![[1.0, 0.0]; n];
            let seen = ranked.bucket_rows(0, &[n - 1, 0], &grad, &mut buckets, &mut present);
            assert_eq!(seen, (0, n - 1));
        }
    }

    #[test]
    fn twins_share_ranks_and_codes_over_the_included_rows() {
        // Column 0 over 1.0..=3.5 on row 3's weight 0; 1, a copy; 2, a
        // strictly increasing map of it; 3, its negation; 4, the same ranks
        // with 1.0 and 1.5 moved to adjacent floats, whose midpoint rounds
        // onto the lower one and is no cut; 5, column 0 but for the excluded
        // row; 6, constant.
        let near = f32::from_bits(1.0f32.to_bits() + 1);
        let data: Vec<f32> = [1.0f32, 2.0, 1.5, 9.0, 3.5, 1.0]
            .iter()
            .enumerate()
            .flat_map(|(i, &v)| {
                let moved = if v == 1.5 { near } else { v };
                let other = if i == 3 { -4.0 } else { v };
                [v, v, v * v + 1.0, -v, moved, other, 7.0]
            })
            .collect();
        let x = Matrix::new(&data, 7);
        let w = [1.0, 0.5, 1.0, 0.0, 2.0, 1.0];
        let binned = BinnedDataset::build(x, &w, 256);
        let twins: Vec<usize> = (0..7).map(|f| binned.twin(f)).collect();
        assert_eq!(twins, [0, 0, 0, 3, 4, 0, 6]);
        assert_eq!(binned.cuts(4).len() + 1, binned.cuts(0).len());
        // Without bins only the ranks count.
        let ranked = BinnedDataset::ranks_only(x, &w);
        let twins: Vec<usize> = (0..7).map(|f| ranked.twin(f)).collect();
        assert_eq!(twins, [0, 0, 0, 3, 0, 0, 6]);
    }

    #[test]
    fn constant_feature_has_one_bin() {
        let rows: Vec<Vec<f32>> = (0..10).map(|_| vec![2.5]).collect();
        let (data, n_cols) = matrix_of(&rows);
        let x = Matrix::new(&data, n_cols);
        let b = BinnedDataset::build(x, &[1.0; 10], 256);
        assert_eq!(b.n_bins(0), 1);
        assert!(b.cuts(0).is_empty());
        assert!(b.values(0).is_empty());
    }
}
