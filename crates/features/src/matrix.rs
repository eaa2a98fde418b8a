//! Packed feature storage: one contiguous row-major buffer for many
//! programs' per-statement feature vectors.
//!
//! The legacy representation was `Vec<Vec<Vec<f32>>>` — per program, per
//! store statement, per feature — which scatters rows across the heap and
//! forces a clone of every row on each cost-model retrain. A
//! [`FeatureMatrix`] keeps every row in one `Vec<f32>` and delimits each
//! program's rows with *segment* offsets, so training can borrow the whole
//! buffer as a flat `(data, n_cols)` view and records can refer to their
//! rows by segment index instead of owning copies.
//!
//! Layout invariants:
//!
//! - `data.len()` is a multiple of `n_cols`; row `r` is
//!   `data[r*n_cols .. (r+1)*n_cols]`.
//! - `segments` holds prefix row offsets: `segments[0] == 0`,
//!   `segments.last() == n_rows`, and segment `s` spans rows
//!   `segments[s] .. segments[s+1]`. Empty segments are allowed (a program
//!   that failed to lower contributes zero rows).

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A packed row-major matrix of feature rows, partitioned into segments
/// (one segment per program).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureMatrix {
    data: Vec<f32>,
    n_cols: usize,
    /// Prefix row offsets; see the module docs for the invariants.
    segments: Vec<usize>,
}

impl FeatureMatrix {
    /// Creates an empty matrix whose rows will have `n_cols` entries.
    pub fn new(n_cols: usize) -> FeatureMatrix {
        FeatureMatrix {
            data: Vec::new(),
            n_cols,
            segments: vec![0],
        }
    }

    /// Wraps an already-packed row-major buffer as a single-segment matrix,
    /// taking the buffer as is — a caller that sized it exactly gets a
    /// matrix with no spare capacity.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `n_cols`.
    pub fn from_packed(data: Vec<f32>, n_cols: usize) -> FeatureMatrix {
        assert_eq!(
            data.len() % n_cols.max(1),
            0,
            "packed block is not whole rows"
        );
        let n_rows = data.len() / n_cols.max(1);
        FeatureMatrix {
            data,
            n_cols,
            segments: vec![0, n_rows],
        }
    }

    /// Row width.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Total number of rows across all segments.
    pub fn n_rows(&self) -> usize {
        self.data.len().checked_div(self.n_cols).unwrap_or(0)
    }

    /// Number of segments (programs).
    pub fn n_segments(&self) -> usize {
        self.segments.len() - 1
    }

    /// The contiguous row-major buffer backing all rows.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Resident size of the packed buffer in bytes.
    pub fn resident_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.n_cols..(r + 1) * self.n_cols]
    }

    /// The row range `segments[s] .. segments[s+1]` of segment `s`.
    pub fn segment_range(&self, s: usize) -> Range<usize> {
        self.segments[s]..self.segments[s + 1]
    }

    /// Number of rows in segment `s`.
    pub fn segment_len(&self, s: usize) -> usize {
        self.segments[s + 1] - self.segments[s]
    }

    /// Segment `s` as one contiguous row-major slice.
    pub fn segment_slice(&self, s: usize) -> &[f32] {
        let r = self.segment_range(s);
        &self.data[r.start * self.n_cols..r.end * self.n_cols]
    }

    /// Iterates the rows of segment `s`.
    pub fn segment_rows(&self, s: usize) -> impl Iterator<Item = &[f32]> {
        self.segment_slice(s).chunks_exact(self.n_cols.max(1))
    }

    /// Appends one segment from individual rows; returns its index.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `n_cols`.
    pub fn push_segment<R: AsRef<[f32]>>(&mut self, rows: impl IntoIterator<Item = R>) -> usize {
        for row in rows {
            let row = row.as_ref();
            assert_eq!(row.len(), self.n_cols, "feature row width mismatch");
            self.data.extend_from_slice(row);
        }
        self.end_segment()
    }

    /// Appends one segment from an already-packed row-major block (e.g.
    /// another single-segment matrix's [`FeatureMatrix::data`]); returns
    /// the new segment's index. The block is one `memcpy`.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of `n_cols`.
    pub fn push_packed_segment(&mut self, rows: &[f32]) -> usize {
        assert_eq!(
            rows.len() % self.n_cols.max(1),
            0,
            "packed block is not whole rows"
        );
        self.data.extend_from_slice(rows);
        self.end_segment()
    }

    /// Appends an empty segment (a program with no feature rows, e.g. one
    /// that failed to lower); returns its index.
    pub fn push_empty_segment(&mut self) -> usize {
        self.end_segment()
    }

    fn end_segment(&mut self) -> usize {
        self.segments.push(self.data.len() / self.n_cols.max(1));
        self.segments.len() - 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FeatureMatrix {
        let mut m = FeatureMatrix::new(3);
        m.push_segment([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]);
        m.push_empty_segment();
        m.push_segment([[7.0, 8.0, 9.0]]);
        m
    }

    #[test]
    fn layout_and_accessors() {
        let m = sample();
        assert_eq!(m.n_cols(), 3);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_segments(), 3);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.segment_range(0), 0..2);
        assert_eq!(m.segment_len(1), 0);
        assert_eq!(m.segment_range(2), 2..3);
        assert_eq!(m.segment_slice(0), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(
            m.segment_rows(2).collect::<Vec<_>>(),
            vec![&[7.0, 8.0, 9.0]]
        );
        assert_eq!(m.resident_bytes(), 9 * 4);
    }

    #[test]
    fn packed_append_matches_row_append() {
        let block = sample();
        let mut a = FeatureMatrix::new(3);
        let s = a.push_packed_segment(block.segment_slice(0));
        assert_eq!(s, 0);
        let mut b = FeatureMatrix::new(3);
        b.push_segment(block.segment_rows(0).collect::<Vec<_>>());
        assert_eq!(a, b);
    }

    #[test]
    fn from_packed_is_one_exact_segment() {
        let block = sample();
        let m = FeatureMatrix::from_packed(block.segment_slice(0).to_vec(), 3);
        let mut pushed = FeatureMatrix::new(3);
        pushed.push_packed_segment(block.segment_slice(0));
        assert_eq!(m, pushed);
        assert_eq!(m.n_segments(), 1);
        assert_eq!(m.segment_len(0), 2);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn ragged_rows_are_rejected() {
        let mut m = FeatureMatrix::new(3);
        m.push_segment([vec![1.0, 2.0]]);
    }

    #[test]
    fn serde_round_trip() {
        let m = sample();
        let json = serde_json::to_string(&m).unwrap();
        let back: FeatureMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
