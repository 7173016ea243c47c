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
/// Row indices within a column are stored in strictly increasing order;
/// duplicate entries are coalesced at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    m: usize,
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

/// Incremental column-by-column builder for a [`CscMatrix`].
#[derive(Debug, Clone)]
pub struct CscBuilder {
    m: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
    scratch: Vec<(usize, f64)>,
}

impl CscBuilder {
    /// Starts a builder for a matrix with `m` rows and roughly `nnz_hint`
    /// nonzeros.
    pub fn new(m: usize, nnz_hint: usize) -> Self {
        Self {
            m,
            col_ptr: vec![0],
            row_idx: Vec::with_capacity(nnz_hint),
            values: Vec::with_capacity(nnz_hint),
            scratch: Vec::new(),
        }
    }

    /// Appends one column given its `(row, value)` entries in any order;
    /// duplicates are summed, exact zeros dropped.
    ///
    /// # Panics
    ///
    /// Panics if a row index is out of range.
    pub fn push_column(&mut self, entries: &[(usize, f64)]) {
        self.scratch.clear();
        self.scratch.extend_from_slice(entries);
        self.scratch.sort_unstable_by_key(|&(r, _)| r);
        let mut last: Option<usize> = None;
        for &(r, v) in &self.scratch {
            assert!(r < self.m, "row {r} out of range ({} rows)", self.m);
            if last == Some(r) {
                *self.values.last_mut().expect("entry just pushed") += v;
            } else if v != 0.0 {
                self.row_idx.push(r);
                self.values.push(v);
                last = Some(r);
            }
        }
        self.col_ptr.push(self.row_idx.len());
    }

    /// Appends a unit column `e_row` (slack / artificial) scaled by `sign`.
    pub fn push_unit(&mut self, row: usize, sign: f64) {
        assert!(row < self.m, "row {row} out of range ({} rows)", self.m);
        self.row_idx.push(row);
        self.values.push(sign);
        self.col_ptr.push(self.row_idx.len());
    }

    /// Finishes the matrix.
    pub fn finish(self) -> CscMatrix {
        CscMatrix {
            m: self.m,
            n: self.col_ptr.len() - 1,
            col_ptr: self.col_ptr,
            row_idx: self.row_idx,
            values: self.values,
        }
    }
}

impl CscMatrix {
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
        let mut b = CscBuilder::new(3, 5);
        b.push_column(&[(0, 1.0), (2, 4.0)]);
        b.push_column(&[(1, 3.0)]);
        b.push_column(&[(2, 5.0), (0, 2.0)]);
        b.finish()
    }

    #[test]
    fn shape_and_nnz() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.column_nnz(0), 2);
        assert_eq!(m.column_nnz(1), 1);
    }

    #[test]
    fn columns_sorted_and_coalesced() {
        let mut b = CscBuilder::new(2, 4);
        b.push_column(&[(1, 2.0), (0, 1.0), (1, 3.0)]);
        let m = b.finish();
        let col: Vec<_> = m.column(0).collect();
        assert_eq!(col, vec![(0, 1.0), (1, 5.0)]);
    }

    #[test]
    fn zero_entries_dropped() {
        let mut b = CscBuilder::new(2, 2);
        b.push_column(&[(0, 0.0), (1, 7.0)]);
        let m = b.finish();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.column(0).collect::<Vec<_>>(), vec![(1, 7.0)]);
    }

    #[test]
    fn unit_columns() {
        let mut b = CscBuilder::new(3, 2);
        b.push_unit(1, 1.0);
        b.push_unit(2, -1.0);
        let m = b.finish();
        assert_eq!(m.column(0).collect::<Vec<_>>(), vec![(1, 1.0)]);
        assert_eq!(m.column(1).collect::<Vec<_>>(), vec![(2, -1.0)]);
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
    #[should_panic(expected = "out of range")]
    fn row_bounds_checked() {
        let mut b = CscBuilder::new(2, 1);
        b.push_column(&[(5, 1.0)]);
    }
}
