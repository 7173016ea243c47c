//! Compressed sparse column (CSC) storage for the revised simplex.
//!
//! The slot-indexed LP is extremely sparse: a `y_{jil}` column carries one
//! entry for its request's start-once row (Eq. 9) plus at most `L` entries
//! for the prefix rows of its station (Eq. 10/23) — five-ish nonzeros out
//! of hundreds of rows. The dense tableau pays `O(m · n)` per pivot to
//! ignore that structure; [`crate::revised`] walks columns through this
//! matrix instead, so pricing costs `O(nnz)`, and an FTRAN against the
//! refactorized basis reads its structural columns from here too.

/// An `m × n` sparse matrix in compressed-sparse-column form.
///
/// Row indices within a column are stored in strictly increasing order.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    m: usize,
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Wraps raw CSC arrays: column `j` holds `row_idx[col_ptr[j]..col_ptr[j + 1]]`
    /// with the matching `values`, rows strictly ascending within it.
    pub(crate) fn from_parts(
        m: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert!(!col_ptr.is_empty(), "col_ptr holds n + 1 offsets");
        debug_assert_eq!(col_ptr.last(), Some(&row_idx.len()));
        debug_assert_eq!(row_idx.len(), values.len());
        debug_assert!(
            col_ptr.windows(2).all(|w| {
                let rows = &row_idx[w[0]..w[1]];
                rows.windows(2).all(|r| r[0] < r[1]) && rows.iter().all(|&r| r < m)
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
    pub(crate) fn into_parts(self) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
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
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Number of nonzeros in column `j`.
    pub fn column_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// Sparse dot product `yᵀ · a_j`.
    pub fn dot_column(&self, y: &[f64], j: usize) -> f64 {
        debug_assert_eq!(y.len(), self.m);
        self.column(j).map(|(r, v)| y[r] * v).sum()
    }

    /// Scatters column `j` into a dense vector (`out` must be zeroed by
    /// the caller where it matters).
    pub fn scatter_column(&self, j: usize, out: &mut [f64]) {
        for (r, v) in self.column(j) {
            out[r] += v;
        }
    }

    /// Fused pricing sweep: `red[j] = cost[j] - yᵀ·a_j` for every column
    /// `j < red.len()`, writing `0.0` where `skip[j]` (basic columns).
    ///
    /// One pass over the raw CSC arrays — equivalent to `red.len()` calls
    /// to [`Self::dot_column`] but without per-column iterator setup,
    /// which dominates when columns hold only a handful of nonzeros.
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
                acc -= y[self.row_idx[k]] * self.values[k];
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
        assert_eq!(m.column_nnz(0), 2);
        assert_eq!(m.column_nnz(1), 1);
        assert_eq!(m.column(2).collect::<Vec<_>>(), vec![(0, 2.0), (2, 5.0)]);
    }

    #[test]
    fn dot_and_scatter() {
        let m = sample();
        assert_eq!(m.dot_column(&[1.0, 1.0, 1.0], 0), 5.0);
        assert_eq!(m.dot_column(&[0.0, 2.0, 0.0], 1), 6.0);
        let mut out = vec![0.0; 3];
        m.scatter_column(2, &mut out);
        assert_eq!(out, vec![2.0, 0.0, 5.0]);
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
