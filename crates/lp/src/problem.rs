//! Typed LP problem builder.

use crate::simplex::{self, SimplexConfig};
use crate::solution::{LpError, Solution};
use crate::sparse::CscMatrix;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

/// Identifier of a decision variable within a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The variable's dense index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sense {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Cmp {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

/// A linear program over non-negative variables with optional finite upper
/// bounds.
///
/// All variables satisfy `x ≥ 0`; an upper bound set via
/// [`Problem::set_upper_bound`] is enforced as an internal `x ≤ u` row
/// during solving.
///
/// The constraint matrix is held flat, in both orientations. The rows are
/// CSR, each row's entries in the order they were stated; the dense
/// tableau, the revised simplex's pivot-row pass and [`Self::is_feasible`]
/// read them. The structural columns are CSC over the same rows, rows
/// ascending and exact zeros dropped; the revised simplex prices, factors
/// and solves against them. A caller that already knows every column's rows
/// writes them with [`Self::set_columns`], so no solve transposes anything;
/// otherwise [`Self::columns`] transposes the rows once, on first use, and
/// keeps the result until a row or variable is added.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Problem {
    sense: Sense,
    objective: Vec<f64>,
    /// Variable `i`'s bound, if it has one; variables past the end have
    /// none, so a problem without bounds stores nothing here.
    upper_bounds: Vec<Option<f64>>,
    /// Row `r` holds `row_cols[row_start[r]..row_start[r + 1]]` with the
    /// matching `row_vals`; variable indices are `u32`, like the columns'
    /// row indices.
    row_start: Vec<usize>,
    row_cols: Vec<u32>,
    row_vals: Vec<f64>,
    cmps: Vec<Cmp>,
    rhs: Vec<f64>,
    /// The structural columns, written by [`Self::set_columns`] or
    /// transposed from the rows on first use.
    #[serde(skip)]
    columns: OnceLock<CscMatrix>,
}

/// Two problems are equal when they state the same program: the column
/// copy is derived from the rows, so it takes no part.
impl PartialEq for Problem {
    fn eq(&self, other: &Self) -> bool {
        self.sense == other.sense
            && self.objective == other.objective
            && self.stated_bounds() == other.stated_bounds()
            && self.row_start == other.row_start
            && self.row_cols == other.row_cols
            && self.row_vals == other.row_vals
            && self.cmps == other.cmps
            && self.rhs == other.rhs
    }
}

impl Problem {
    /// Creates an empty problem with the given optimization sense.
    pub fn new(sense: Sense) -> Self {
        Self {
            sense,
            objective: Vec::new(),
            upper_bounds: Vec::new(),
            row_start: vec![0],
            row_cols: Vec::new(),
            row_vals: Vec::new(),
            cmps: Vec::new(),
            rhs: Vec::new(),
            columns: OnceLock::new(),
        }
    }

    /// Removes every variable and constraint, keeping the sense and the
    /// capacity of the objective, the bounds and the row arrays, so a
    /// problem rebuilt in place reuses them. The column arrays are dropped;
    /// take them first with [`Self::take_columns`] to keep theirs.
    pub fn clear(&mut self) {
        self.objective.clear();
        self.upper_bounds.clear();
        self.row_start.clear();
        self.row_start.push(0);
        self.row_cols.clear();
        self.row_vals.clear();
        self.cmps.clear();
        self.rhs.clear();
        self.columns = OnceLock::new();
    }

    /// Adds a variable `x ≥ 0` with the given objective coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `obj_coeff` is not finite.
    pub fn add_var(&mut self, obj_coeff: f64) -> VarId {
        assert!(
            obj_coeff.is_finite(),
            "objective coefficient must be finite"
        );
        let id = VarId(self.objective.len());
        assert!(id.0 < INDEX_LIMIT, "too many variables");
        self.objective.push(obj_coeff);
        self.forget_columns();
        id
    }

    /// Sets a finite upper bound `x ≤ upper` on a variable.
    ///
    /// # Panics
    ///
    /// Panics if `upper` is negative or not finite, or `var` is unknown.
    pub fn set_upper_bound(&mut self, var: VarId, upper: f64) {
        assert!(
            upper.is_finite() && upper >= 0.0,
            "upper bound must be finite and non-negative"
        );
        assert!(var.0 < self.objective.len(), "unknown variable {var}");
        if self.upper_bounds.len() <= var.0 {
            self.upper_bounds.resize(var.0 + 1, None);
        }
        self.upper_bounds[var.0] = Some(upper);
    }

    /// Adds a constraint `Σ coeffs · x  cmp  rhs`.
    ///
    /// Duplicate variable entries are summed. Entries whose ids strictly
    /// increase are stored as given in `O(k)`; any other order takes the
    /// `O(k²)` merge.
    ///
    /// # Panics
    ///
    /// Panics if any coefficient or the rhs is not finite, or a variable is
    /// unknown.
    pub fn add_constraint(&mut self, coeffs: Vec<(VarId, f64)>, cmp: Cmp, rhs: f64) {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        for &(v, c) in &coeffs {
            assert!(c.is_finite(), "constraint coefficient must be finite");
            assert!(v.0 < self.objective.len(), "unknown variable {v}");
        }
        if strictly_increasing(&coeffs) {
            self.add_row_with(cmp, rhs, |row| {
                for (v, c) in coeffs {
                    row.push(v, c);
                }
            });
            return;
        }
        let start = self.row_cols.len();
        for (v, c) in coeffs {
            match self.row_cols[start..]
                .iter()
                .position(|&idx| idx as usize == v.0)
            {
                Some(k) => self.row_vals[start + k] += c,
                None => {
                    self.row_cols.push(v.0 as u32);
                    self.row_vals.push(c);
                }
            }
        }
        self.close_row(cmp, rhs);
    }

    /// Reserves room for `vars` more variables and `entries` more
    /// constraint entries, exactly: a problem assembled in one pass
    /// allocates each array once, at its final size.
    pub fn reserve(&mut self, vars: usize, entries: usize) {
        self.objective.reserve_exact(vars);
        self.row_cols.reserve_exact(entries);
        self.row_vals.reserve_exact(entries);
    }

    /// Adds variables `x ≥ 0` with the given objective coefficients in one
    /// step, returning the first one's id; the others follow it in order.
    ///
    /// # Panics
    ///
    /// Panics if any coefficient is not finite.
    pub fn add_vars(&mut self, obj_coeffs: &[f64]) -> VarId {
        assert!(
            obj_coeffs.iter().all(|c| c.is_finite()),
            "objective coefficient must be finite"
        );
        let first = VarId(self.objective.len());
        assert!(
            first.0 + obj_coeffs.len() <= INDEX_LIMIT,
            "too many variables"
        );
        self.objective.extend_from_slice(obj_coeffs);
        self.forget_columns();
        first
    }

    /// Adds a constraint `Σ coeffs · x  cmp  rhs` whose entries `write`
    /// appends in bulk through a [`RowWriter`], variable ids strictly
    /// increasing: the assembly path for generated rows, with no
    /// intermediate vector and no check per entry. Debug builds check the
    /// order, that every variable is known and that every value is finite.
    pub fn add_row_with(&mut self, cmp: Cmp, rhs: f64, write: impl FnOnce(&mut RowWriter<'_>)) {
        let start = self.row_cols.len();
        write(&mut RowWriter {
            cols: &mut self.row_cols,
            vals: &mut self.row_vals,
        });
        debug_assert!(rhs.is_finite(), "constraint rhs must be finite");
        debug_assert!(
            self.row_cols[start..].windows(2).all(|w| w[0] < w[1])
                && self.row_cols[start..]
                    .iter()
                    .all(|&v| (v as usize) < self.var_count())
                && self.row_vals[start..].iter().all(|c| c.is_finite()),
            "a written row takes known variables in strictly increasing order with finite values"
        );
        self.close_row(cmp, rhs);
    }

    /// Ends the row whose entries were pushed since the last one.
    fn close_row(&mut self, cmp: Cmp, rhs: f64) {
        assert!(self.cmps.len() < INDEX_LIMIT, "too many constraints");
        self.row_start.push(self.row_cols.len());
        self.cmps.push(cmp);
        self.rhs.push(rhs);
        self.forget_columns();
    }

    /// Drops the column arrays, which no longer match the rows.
    fn forget_columns(&mut self) {
        self.columns.take();
    }

    /// Moves the column arrays out, emptied but keeping their capacity, as
    /// `(col_start, row_idx, values)`: the buffers a caller refills for
    /// [`Self::set_columns`].
    pub fn take_columns(&mut self) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
        let (mut col_start, mut row_idx, mut values) = self
            .columns
            .take()
            .map(CscMatrix::into_parts)
            .unwrap_or_default();
        col_start.clear();
        row_idx.clear();
        values.clear();
        (col_start, row_idx, values)
    }

    /// Installs the structural columns in CSC, written by a caller that knows
    /// every column's rows, so no solve transposes the rows. Column `j` holds
    /// `row_idx[col_start[j]..col_start[j + 1]]`, rows strictly ascending,
    /// with the matching `values`.
    ///
    /// They must be exactly the rows' transpose with exact zeros dropped, the
    /// matrix [`Self::columns`] would otherwise compute; debug builds check
    /// that bit for bit.
    pub fn set_columns(&mut self, col_start: Vec<usize>, row_idx: Vec<u32>, values: Vec<f64>) {
        assert_eq!(
            col_start.len(),
            self.var_count() + 1,
            "one column per variable"
        );
        let csc = CscMatrix::from_parts(self.constraint_count(), col_start, row_idx, values);
        debug_assert!(
            csc.bit_eq(&self.transpose()),
            "the written columns are not the transpose of the rows"
        );
        self.columns = OnceLock::from(csc);
    }

    /// The structural columns in CSC over the explicit rows, rows ascending
    /// and exact zeros dropped: the ones [`Self::set_columns`] wrote, else
    /// the rows transposed once and kept.
    pub fn columns(&self) -> &CscMatrix {
        self.columns.get_or_init(|| self.transpose())
    }

    /// The rows transposed in one counting sort: count each column's
    /// nonzeros, prefix-sum the counts into column starts, then scatter the
    /// rows in order, so every column lists its rows ascending.
    fn transpose(&self) -> CscMatrix {
        let n = self.var_count();
        let mut col_start = vec![0; n + 1];
        for (&v, &c) in self.row_cols.iter().zip(&self.row_vals) {
            if c != 0.0 {
                col_start[v as usize + 1] += 1;
            }
        }
        for j in 0..n {
            col_start[j + 1] += col_start[j];
        }
        let nnz = col_start[n];
        let mut row_idx = vec![0; nnz];
        let mut values = vec![0.0; nnz];
        let mut fill = col_start[..n].to_vec();
        for r in 0..self.constraint_count() {
            let (cols, vals) = self.row(r);
            for (&v, &c) in cols.iter().zip(vals) {
                if c != 0.0 {
                    let v = v as usize;
                    row_idx[fill[v]] = r as u32;
                    values[fill[v]] = c;
                    fill[v] += 1;
                }
            }
        }
        CscMatrix::from_parts(self.constraint_count(), col_start, row_idx, values)
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.objective.len()
    }

    /// Number of stored constraint entries, as stated (exact zeros
    /// included).
    pub fn entry_count(&self) -> usize {
        self.row_cols.len()
    }

    /// Number of explicit constraints (upper bounds not included).
    pub fn constraint_count(&self) -> usize {
        self.cmps.len()
    }

    /// The optimization sense.
    pub const fn sense(&self) -> Sense {
        self.sense
    }

    /// The objective coefficient of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is unknown.
    pub fn objective_coeff(&self, var: VarId) -> f64 {
        self.objective[var.0]
    }

    pub(crate) fn objective_vec(&self) -> &[f64] {
        &self.objective
    }

    /// The variables' upper bounds by index; variables past its end have
    /// none.
    pub(crate) fn upper_bounds_vec(&self) -> &[Option<f64>] {
        &self.upper_bounds
    }

    /// The bounds up to the last variable that has one.
    fn stated_bounds(&self) -> &[Option<f64>] {
        let end = self
            .upper_bounds
            .iter()
            .rposition(Option::is_some)
            .map_or(0, |i| i + 1);
        &self.upper_bounds[..end]
    }

    /// Row `r`'s variable indices and coefficients, as stated.
    pub(crate) fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let span = self.row_start[r]..self.row_start[r + 1];
        (&self.row_cols[span.clone()], &self.row_vals[span])
    }

    /// Row `r`'s comparison and rhs.
    pub(crate) fn row_sense(&self, r: usize) -> (Cmp, f64) {
        (self.cmps[r], self.rhs[r])
    }

    /// Solves the problem with default simplex settings.
    ///
    /// # Errors
    ///
    /// Returns [`LpError`] when the problem is infeasible, unbounded, or the
    /// iteration limit is hit.
    pub fn solve(&self) -> Result<Solution, LpError> {
        simplex::solve(self, &SimplexConfig::default())
    }

    /// Solves with explicit simplex settings.
    ///
    /// # Errors
    ///
    /// Returns [`LpError`] when the problem is infeasible, unbounded, or the
    /// iteration limit is hit.
    pub fn solve_with(&self, config: &SimplexConfig) -> Result<Solution, LpError> {
        simplex::solve(self, config)
    }

    /// Evaluates the objective at a candidate point (useful in tests).
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != var_count()`.
    pub fn objective_at(&self, point: &[f64]) -> f64 {
        assert_eq!(point.len(), self.var_count(), "dimension mismatch");
        self.objective.iter().zip(point).map(|(c, x)| c * x).sum()
    }

    /// Checks whether a point satisfies every constraint and bound within
    /// `tol`.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != var_count()`.
    pub fn is_feasible(&self, point: &[f64], tol: f64) -> bool {
        assert_eq!(point.len(), self.var_count(), "dimension mismatch");
        if point.iter().any(|&x| x < -tol) {
            return false;
        }
        for (i, ub) in self.upper_bounds.iter().enumerate() {
            if let Some(u) = ub {
                if point[i] > u + tol {
                    return false;
                }
            }
        }
        (0..self.constraint_count()).all(|r| {
            let (cols, vals) = self.row(r);
            let lhs: f64 = cols
                .iter()
                .zip(vals)
                .map(|(&v, &c)| c * point[v as usize])
                .sum();
            let (cmp, rhs) = self.row_sense(r);
            match cmp {
                Cmp::Le => lhs <= rhs + tol,
                Cmp::Ge => lhs >= rhs - tol,
                Cmp::Eq => (lhs - rhs).abs() <= tol,
            }
        })
    }
}

/// Appends one row's entries to a [`Problem`]'s row arrays; see
/// [`Problem::add_row_with`].
#[derive(Debug)]
pub struct RowWriter<'a> {
    cols: &'a mut Vec<u32>,
    vals: &'a mut Vec<f64>,
}

impl RowWriter<'_> {
    /// Appends one entry.
    pub fn push(&mut self, var: VarId, coeff: f64) {
        self.cols.push(var.0 as u32);
        self.vals.push(coeff);
    }

    /// Appends the variables with indices `vars`, every one with `coeff`.
    pub fn push_span(&mut self, vars: Range<usize>, coeff: f64) {
        self.cols.extend(vars.map(|v| v as u32));
        self.vals.resize(self.cols.len(), coeff);
    }
}

/// Variable and row indices are stored as `u32`; a problem stays below
/// this many of each.
const INDEX_LIMIT: usize = u32::MAX as usize;

/// Whether the variable ids strictly increase, so no entry repeats.
fn strictly_increasing(coeffs: &[(VarId, f64)]) -> bool {
    coeffs.windows(2).all(|w| w[0].0 < w[1].0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row `r`'s entries as `(variable, coefficient)` pairs.
    fn coeffs(p: &Problem, r: usize) -> Vec<(usize, f64)> {
        let (cols, vals) = p.row(r);
        cols.iter()
            .map(|&v| v as usize)
            .zip(vals.iter().copied())
            .collect()
    }

    #[test]
    fn builder_accumulates() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0);
        let y = p.add_var(2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0), (x, 2.0)], Cmp::Le, 5.0);
        assert_eq!(p.var_count(), 2);
        assert_eq!(p.constraint_count(), 1);
        // duplicate x entries merged: 1 + 2 = 3
        assert_eq!(coeffs(&p, 0), vec![(0, 3.0), (1, 1.0)]);
        assert_eq!(p.objective_coeff(y), 2.0);
    }

    #[test]
    fn increasing_ids_are_stored_as_given() {
        let mut p = Problem::new(Sense::Maximize);
        let v: Vec<VarId> = (0..4).map(|_| p.add_var(1.0)).collect();
        let given = vec![(v[0], 0.5), (v[2], -1.0), (v[3], 0.0)];
        assert!(strictly_increasing(&given));
        p.add_constraint(given, Cmp::Le, 1.0);
        assert_eq!(coeffs(&p, 0), vec![(0, 0.5), (2, -1.0), (3, 0.0)]);
        // Empty and single-entry rows are trivially increasing.
        assert!(strictly_increasing(&[]));
        assert!(strictly_increasing(&[(v[1], 2.0)]));
    }

    #[test]
    fn repeated_or_decreasing_ids_still_merge() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0);
        let y = p.add_var(2.0);
        // Adjacent duplicates: not strictly increasing, summed in place.
        let adjacent = vec![(x, 1.0), (x, 2.0), (y, 1.0)];
        assert!(!strictly_increasing(&adjacent));
        p.add_constraint(adjacent, Cmp::Le, 5.0);
        assert_eq!(coeffs(&p, 0), vec![(0, 3.0), (1, 1.0)]);
        // Decreasing ids keep first-appearance order, exactly as
        // `builder_accumulates` expects of a scattered duplicate.
        let decreasing = vec![(y, 1.0), (x, 1.0), (y, 4.0)];
        assert!(!strictly_increasing(&decreasing));
        p.add_constraint(decreasing, Cmp::Le, 5.0);
        assert_eq!(coeffs(&p, 1), vec![(1, 5.0), (0, 1.0)]);
        let descending = vec![(y, 1.0), (x, 2.0)];
        assert!(!strictly_increasing(&descending));
        p.add_constraint(descending, Cmp::Le, 5.0);
        assert_eq!(coeffs(&p, 2), vec![(1, 1.0), (0, 2.0)]);
    }

    #[test]
    fn clear_keeps_sense_and_capacity() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(1.0);
        p.set_upper_bound(x, 2.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        let caps = (p.objective.capacity(), p.row_cols.capacity());
        p.clear();
        assert_eq!(p, Problem::new(Sense::Minimize));
        assert_eq!((p.objective.capacity(), p.row_cols.capacity()), caps);
    }

    /// The column copy is the rows' transpose, exact zeros dropped, and a
    /// new row or variable replaces it with the new transpose.
    #[test]
    fn columns_follow_the_rows() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0);
        let y = p.add_var(2.0);
        p.add_constraint(vec![(x, 1.0), (y, 0.0)], Cmp::Le, 4.0);
        p.add_constraint(vec![(y, 3.0), (x, -1.0)], Cmp::Ge, 1.0);
        let column = |p: &Problem, j| p.columns().column(j).collect::<Vec<_>>();
        assert_eq!(column(&p, 0), vec![(0, 1.0), (1, -1.0)]);
        assert_eq!(column(&p, 1), vec![(1, 3.0)]);
        p.add_constraint(vec![(y, 5.0)], Cmp::Le, 2.0);
        assert_eq!(column(&p, 1), vec![(1, 3.0), (2, 5.0)]);
        let z = p.add_var(0.5);
        assert_eq!(p.columns().cols(), 3);
        assert_eq!(column(&p, z.index()), vec![]);
    }

    /// Variables added in one step and rows written in bulk store what
    /// the one-at-a-time calls store, and columns written for them
    /// replace the transpose and hand their buffers back.
    #[test]
    fn bulk_assembly_matches_the_single_calls() {
        let mut single = Problem::new(Sense::Maximize);
        let v: Vec<VarId> = [1.0, 2.0, 3.0].iter().map(|&c| single.add_var(c)).collect();
        single.add_constraint(vec![(v[0], 1.0), (v[1], 1.0), (v[2], 1.0)], Cmp::Le, 1.0);
        single.add_constraint(vec![(v[1], 0.5), (v[2], 0.25)], Cmp::Le, 2.0);
        let mut bulk = Problem::new(Sense::Maximize);
        assert_eq!(bulk.add_vars(&[1.0, 2.0, 3.0]), v[0]);
        bulk.add_row_with(Cmp::Le, 1.0, |row| row.push_span(0..3, 1.0));
        bulk.add_row_with(Cmp::Le, 2.0, |row| {
            row.push(v[1], 0.5);
            row.push(v[2], 0.25);
        });
        assert_eq!(bulk, single);
        assert_eq!(bulk.entry_count(), 5);
        bulk.set_columns(
            vec![0, 1, 3, 5],
            vec![0, 0, 1, 0, 1],
            vec![1.0, 1.0, 0.5, 1.0, 0.25],
        );
        assert!(bulk.columns().bit_eq(single.columns()));
        let (col_start, row_idx, values) = bulk.take_columns();
        assert!(col_start.is_empty() && row_idx.is_empty() && values.is_empty());
        assert!(col_start.capacity() >= 4 && values.capacity() >= 5);
        // Taken, the columns are the transpose again.
        assert!(bulk.columns().bit_eq(single.columns()));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not the transpose")]
    fn written_columns_must_be_the_transpose() {
        let mut p = Problem::new(Sense::Maximize);
        p.add_vars(&[1.0, 1.0]);
        p.add_row_with(Cmp::Le, 1.0, |row| row.push_span(0..2, 1.0));
        p.set_columns(vec![0, 1, 2], vec![0, 0], vec![1.0, 2.0]);
    }

    #[test]
    fn feasibility_check() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0);
        p.set_upper_bound(x, 2.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        assert!(p.is_feasible(&[1.5], 1e-9));
        assert!(!p.is_feasible(&[0.5], 1e-9)); // violates >= 1
        assert!(!p.is_feasible(&[2.5], 1e-9)); // violates ub
        assert!(!p.is_feasible(&[-0.1], 1e-9)); // violates x >= 0
    }

    #[test]
    fn objective_at_point() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(3.0);
        let _y = p.add_var(-1.0);
        assert_eq!(p.objective_at(&[2.0, 4.0]), 2.0);
        assert_eq!(p.objective_coeff(x), 3.0);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn unknown_var_rejected() {
        let mut p = Problem::new(Sense::Maximize);
        let _x = p.add_var(1.0);
        p.add_constraint(vec![(VarId(5), 1.0)], Cmp::Le, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_coeff_rejected() {
        let mut p = Problem::new(Sense::Maximize);
        let _ = p.add_var(f64::NAN);
    }
}
