//! Compressed sparse column (CSC) storage for the revised simplex.
//!
//! The slot-indexed LP is extremely sparse: a `y_{jil}` column carries one
//! entry for its request's start-once row (Eq. 9) plus at most `L` entries
//! for the prefix rows of its station (Eq. 10/23) — five-ish nonzeros out
//! of hundreds of rows. The dense tableau pays `O(m · n)` per pivot to
//! ignore that structure; [`crate::revised`] walks columns through this
//! matrix instead, so pricing costs `O(nnz)`, and an FTRAN against the
//! refactorized basis reads its structural columns from here too. A
//! [`crate::Problem`] holds its structural columns in one.

/// An `m × n` sparse matrix in compressed-sparse-column form.
///
/// Row indices within a column are stored in strictly increasing order, as
/// `u32`: half the bytes of a `usize` on every pass over the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    m: usize,
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Wraps raw CSC arrays: column `j` holds `row_idx[col_ptr[j]..col_ptr[j + 1]]`
    /// with the matching `values`, rows strictly ascending within it.
    pub(crate) fn from_parts(
        m: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert!(!col_ptr.is_empty(), "col_ptr holds n + 1 offsets");
        debug_assert_eq!(col_ptr.last(), Some(&row_idx.len()));
        debug_assert_eq!(row_idx.len(), values.len());
        debug_assert!(
            col_ptr.windows(2).all(|w| {
                let rows = &row_idx[w[0]..w[1]];
                rows.windows(2).all(|r| r[0] < r[1]) && rows.iter().all(|&r| (r as usize) < m)
            }),
            "rows must ascend within each column and stay below {m}"
        );
        Self {
            m,
            n: col_ptr.len() - 1,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Gives the arrays back, `(col_ptr, row_idx, values)`, so a caller can
    /// refill them.
    pub(crate) fn into_parts(self) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
        (self.col_ptr, self.row_idx, self.values)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.n
    }

    /// Total stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(row, value)` entries of column `j`, rows ascending.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn column(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        self.row_idx[lo..hi]
            .iter()
            .map(|&r| r as usize)
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Column `j`'s row indices and values, rows ascending.
    pub(crate) fn column_parts(&self, j: usize) -> (&[u32], &[f64]) {
        let span = self.col_ptr[j]..self.col_ptr[j + 1];
        (&self.row_idx[span.clone()], &self.values[span])
    }

    /// Whether both matrices hold the same entries, values compared bit
    /// for bit.
    pub fn bit_eq(&self, other: &Self) -> bool {
        self.m == other.m
            && self.col_ptr == other.col_ptr
            && self.row_idx == other.row_idx
            && self.values.len() == other.values.len()
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Fused pricing sweep: `red[j] = cost[j] - yᵀ·a_j` for every column
    /// `j < red.len()`, writing `0.0` where `skip[j]` (basic columns).
    ///
    /// One pass over the raw CSC arrays, without per-column iterator
    /// setup, which dominates when columns hold only a handful of
    /// nonzeros.
    ///
    /// # Panics
    ///
    /// Panics if `red` is longer than the column count or `cost`/`skip`
    /// are shorter than `red`.
    pub fn price_into(&self, y: &[f64], cost: &[f64], skip: &[bool], red: &mut [f64]) {
        assert!(red.len() <= self.n, "red longer than column count");
        for (j, out) in red.iter_mut().enumerate() {
            if skip[j] {
                *out = 0.0;
                continue;
            }
            let lo = self.col_ptr[j];
            let hi = self.col_ptr[j + 1];
            let mut acc = cost[j];
            for k in lo..hi {
                acc -= y[self.row_idx[k] as usize] * self.values[k];
            }
            *out = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        CscMatrix::from_parts(
            3,
            vec![0, 2, 3, 5],
            vec![0, 2, 1, 0, 2],
            vec![1.0, 4.0, 3.0, 2.0, 5.0],
        )
    }

    #[test]
    fn shape_and_nnz() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.column(1).count(), 1);
        assert_eq!(m.column(2).collect::<Vec<_>>(), vec![(0, 2.0), (2, 5.0)]);
        assert_eq!(m.column_parts(0), (&[0u32, 2][..], &[1.0, 4.0][..]));
    }

    #[test]
    fn pricing_sweep() {
        let m = sample();
        let mut red = vec![9.0; 3];
        m.price_into(
            &[1.0, 2.0, 0.5],
            &[10.0, 10.0, 10.0],
            &[false, true, false],
            &mut red,
        );
        assert_eq!(red, vec![10.0 - 1.0 - 2.0, 0.0, 10.0 - 2.0 - 2.5]);
    }

    #[test]
    fn bit_equality_tells_zero_signs_apart() {
        let m = sample();
        assert!(m.bit_eq(&sample()));
        let (col_ptr, row_idx, mut values) = sample().into_parts();
        values[0] = -values[0];
        assert!(!m.bit_eq(&CscMatrix::from_parts(
            3,
            col_ptr.clone(),
            row_idx.clone(),
            values
        )));
        let zero = |v: f64| CscMatrix::from_parts(1, vec![0, 1], vec![0], vec![v]);
        assert!(zero(0.0) == zero(-0.0) && !zero(0.0).bit_eq(&zero(-0.0)));
    }

    #[test]
    fn parts_round_trip() {
        let (col_ptr, row_idx, values) = sample().into_parts();
        assert_eq!(CscMatrix::from_parts(3, col_ptr, row_idx, values), sample());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rows must ascend")]
    fn descending_rows_rejected() {
        CscMatrix::from_parts(3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rows must ascend")]
    fn row_bounds_checked() {
        CscMatrix::from_parts(2, vec![0, 1], vec![5], vec![1.0]);
    }
}
