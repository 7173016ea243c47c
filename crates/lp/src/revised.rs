//! Two-phase **sparse revised simplex** with a product-form basis inverse
//! and warm-start support.
//!
//! Where [`crate::simplex`] rebuilds and eliminates a dense `m × n` tableau
//! on every pivot, this solver reads the problem's own constraint matrix,
//! which [`Problem`] holds in both orientations: its structural columns in
//! CSC ([`crate::sparse::CscMatrix`]) and its rows in CSR. It represents the
//! basis inverse as a refactorized basis `B₀` composed with an *eta file*
//! of rank-one pivot updates, each eta column stored as its nonzeros. `B₀`
//! is factored around its unit columns: every basic slack, surplus or
//! artificial covers its own row, so only the kernel of the `k` other
//! basic columns on the `k` uncovered rows is inverted, by a Gauss-Jordan
//! elimination that does work only on nonzeros, into a sparse `K⁻¹`. A
//! solve with `B₀` costs `O(nnz(K⁻¹) + nnz(B₀))`, and each eta its own
//! nonzeros. It carries the
//! reduced costs `d` from pivot to pivot instead of repricing every
//! column. Per iteration it scans `d` and the Devex weights for the
//! entering column (`O(n)`, no arithmetic on the matrix), runs one FTRAN
//! of that column and the ratio test, then one BTRAN for the leaving row
//! `ρ = e_rᵀB⁻¹`. It forms the pivot row `α_r = ρᵀA` from the problem's
//! CSR rows over the nonzeros of `ρ`, and updates `d` and the weights on
//! just the columns that row touches. A full
//! `O(nnz)` pricing sweep runs only at phase start, after each
//! refactorization, and when the carried `d` offers no entering column. So
//! optimality is always decided on fresh prices. On the slot-indexed LP
//! (`m ≈ hundreds`, `n ≈ tens of thousands`, a handful of nonzeros per
//! column, `ρ` a few dozen nonzeros) a pivot costs orders of magnitude less
//! than the tableau's `O(m · n)` row elimination.
//!
//! The standard-form construction, phase structure, pricing rule, and
//! tie-breaks deliberately mirror the dense solver: `≤` rows get slacks,
//! `≥` rows a surplus plus an artificial, `=` rows an artificial; rhs is
//! normalized non-negative; Devex pricing (`devex.rs`) picks the
//! largest `d_j²/w_j`, with the **lowest column index** on ties within
//! `eps`, degrading to Bland's rule after `bland_after` pivots; the ratio
//! test breaks ties toward the smallest basis index. The weights `w_j`
//! restart at 1 with each phase, on the columns then nonbasic (the
//! reference framework). Each pivot that brings `q` in on row `r` raises
//! the columns its row touches to `w_j = max(w_j, (α_rj/α_rq)²·w_q)` and
//! gives the leaving column `max(w_q/α_rq², 1)`, where `w_q` is the
//! entering column's exact reference norm, summed from its FTRAN column
//! over the rows whose basic column is in the framework. The dense
//! tableau computes the same quantities from its own rows and columns, so
//! the two almost always pivot identically; a near-tie within `eps` can
//! still break apart under their different rounding, and the objectives
//! agree either way. On `fig3_offline` (seed 1) Devex takes ~161 pivots a
//! cold solve where Dantzig took ~1 451.
//!
//! Warm starts: [`solve_with_basis`] accepts a [`BasisSnapshot`] from a
//! previous, structurally-similar problem. The snapshot is re-resolved
//! against the new column layout, refactorized, and validated (unique
//! columns, nonsingular, primal feasible, no loaded artificials); any
//! failure falls back to a cold start, so a stale basis costs one
//! factorization, never correctness.
//!
//! Buffers: the arrays that grow with the problem — the standard form's
//! unit columns (and its copy of the structural columns, for a problem
//! with a negated row or an upper bound), the per-column state of the
//! iteration and the phase cost vectors — live in a caller-held
//! [`Workspace`]. It carries capacity,
//! never values: each solve clears and re-sizes every buffer before
//! reading it, so a reused workspace solves exactly like a fresh one, and
//! a caller solving one LP per slot allocates those arrays once instead
//! of every slot. [`solve`] is the one-shot form with a fresh workspace.

use crate::devex;
use crate::problem::{Cmp, Problem, Sense};
use crate::simplex::{note_pivot, note_refactor};
use crate::solution::{LpError, Solution};
use crate::sparse::CscMatrix;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::ops::Range;

/// Which simplex implementation a caller wants.
///
/// `Dense` is the original tableau solver — kept as the correctness
/// oracle. `Revised` (the default) is this module's sparse solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SolverKind {
    /// Dense two-phase tableau simplex ([`crate::simplex`]).
    Dense,
    /// Sparse revised simplex with eta-file updates (this module).
    #[default]
    Revised,
}

impl std::str::FromStr for SolverKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "dense" => Ok(Self::Dense),
            "revised" => Ok(Self::Revised),
            other => Err(format!("unknown solver kind {other:?} (dense|revised)")),
        }
    }
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Dense => "dense",
            Self::Revised => "revised",
        })
    }
}

/// Tuning knobs for the revised simplex.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RevisedConfig {
    /// Hard cap on pivots per phase.
    pub max_iterations: usize,
    /// Pivot/zero tolerance.
    pub eps: f64,
    /// After this many pivots in a phase, switch from Devex to Bland's
    /// anti-cycling rule.
    pub bland_after: usize,
    /// Refactorize `B₀` (and drop the eta file) after this many etas.
    /// Bounds both per-FTRAN work and accumulated drift.
    pub refactor_every: usize,
    /// Primal feasibility tolerance for accepting a warm basis.
    pub feas_tol: f64,
}

impl Default for RevisedConfig {
    fn default() -> Self {
        Self {
            max_iterations: 50_000,
            eps: 1e-9,
            bland_after: 10_000,
            refactor_every: 64,
            feas_tol: 1e-7,
        }
    }
}

/// A basis member, named structurally so it survives re-indexing between
/// two problems that share row/variable *identities* but not positions.
///
/// Row indices refer to the solver's internal row order: explicit
/// constraints in insertion order, then upper-bound rows in variable order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BasisCol {
    /// Decision variable by dense index.
    Structural(usize),
    /// The slack of a `≤` row.
    Slack(usize),
    /// The surplus of a `≥` row.
    Surplus(usize),
    /// The artificial of a `≥`/`=` row.
    Artificial(usize),
}

/// The optimal basis of a solved problem — one [`BasisCol`] per internal
/// row, in row order. Feed it back via [`solve_with_basis`] to warm-start
/// a neighboring problem.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BasisSnapshot {
    /// `cols[r]` is the basic column of row `r`.
    pub cols: Vec<BasisCol>,
}

/// How a [`solve_with_basis`] call actually started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmOutcome {
    /// No snapshot was offered; cold start.
    Cold,
    /// The snapshot validated and phase 1 was skipped.
    Warm,
    /// A snapshot was offered but failed validation; cold start.
    FellBack,
}

/// Buffers a solve refills instead of allocating, kept by the caller from
/// one solve to the next.
///
/// It carries capacity, never values: a solve moves each buffer out,
/// clears and re-sizes it before reading it, and moves it back before
/// returning. A warm path that falls back cold hands its buffers on to the
/// cold start. An `Err` return may drop them; the next solve allocates
/// them again.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// The normalized copy of the structural columns, for a problem with a
    /// negated row or an upper bound.
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
    /// The unit columns' rows and signs.
    unit_row: Vec<u32>,
    unit_sign: Vec<f64>,
    /// The iteration's per-column state.
    d: Vec<f64>,
    inv_w: Vec<f64>,
    in_ref: Vec<bool>,
    alpha: Vec<f64>,
    in_row: Vec<bool>,
    touched: Vec<usize>,
    in_basis: Vec<bool>,
    /// The phase-1 and phase-2 cost vectors.
    c1: Vec<f64>,
    c2: Vec<f64>,
}

/// Moves `buf` out of its workspace slot, cleared and refilled with `len`
/// copies of `value`.
fn take_filled<T: Clone>(buf: &mut Vec<T>, len: usize, value: T) -> Vec<T> {
    let mut v = std::mem::take(buf);
    v.clear();
    v.resize(len, value);
    v
}

/// The standard form's constraint matrix: the structural columns, then one
/// unit column per slack, surplus and artificial.
struct StdMatrix<'a> {
    /// The problem's own CSC, borrowed; a copy only when a row was negated
    /// or an upper-bound row appended.
    structural: Cow<'a, CscMatrix>,
    /// The structural column count: unit column `c ≥ n` holds one entry,
    /// `unit_sign[c - n]` on row `unit_row[c - n]`.
    n: usize,
    unit_row: Vec<u32>,
    unit_sign: Vec<f64>,
}

impl StdMatrix<'_> {
    /// The `(row, value)` entries of column `c`, rows ascending.
    fn column(&self, c: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (rows, values) = match c.checked_sub(self.n) {
            None => self.structural.column_parts(c),
            Some(u) => (&self.unit_row[u..=u], &self.unit_sign[u..=u]),
        };
        rows.iter().map(|&r| r as usize).zip(values.iter().copied())
    }

    /// The row and sign of unit column `c ≥ n`.
    fn unit(&self, c: usize) -> (usize, f64) {
        (
            self.unit_row[c - self.n] as usize,
            self.unit_sign[c - self.n],
        )
    }

    /// Sparse dot product `yᵀ · a_c`.
    fn dot_column(&self, y: &[f64], c: usize) -> f64 {
        self.column(c).map(|(r, v)| y[r] * v).sum()
    }

    /// Adds column `c` into a dense vector.
    fn scatter_column(&self, c: usize, out: &mut [f64]) {
        for (r, v) in self.column(c) {
            out[r] += v;
        }
    }

    /// `red[j] = cost[j] - yᵀ·a_j` for every column `j < red.len()`,
    /// writing `0.0` where `skip[j]`: one pass over the structural CSC
    /// arrays, then one term per unit column.
    fn price_into(&self, y: &[f64], cost: &[f64], skip: &[bool], red: &mut [f64]) {
        let (structural, units) = red.split_at_mut(self.n.min(red.len()));
        self.structural.price_into(y, cost, skip, structural);
        for (u, out) in units.iter_mut().enumerate() {
            let j = self.n + u;
            *out = if skip[j] {
                0.0
            } else {
                let mut acc = cost[j];
                acc -= y[self.unit_row[u] as usize] * self.unit_sign[u];
                acc
            };
        }
    }
}

/// Standard form shared by both phases: normalized rows and the matrix
/// over structural + slack + surplus + artificial columns.
struct StdForm<'a> {
    n: usize,
    m: usize,
    art_start: usize,
    n_total: usize,
    matrix: StdMatrix<'a>,
    /// The problem, whose rows are read row-wise to form a pivot row.
    problem: &'a Problem,
    /// The variable of each upper-bound row, in row order after the
    /// explicit rows.
    bound_vars: Vec<u32>,
    rhs: Vec<f64>,
    negated: Vec<bool>,
    init_basis: Vec<usize>,
    slack_of_row: Vec<Option<usize>>,
    surplus_of_row: Vec<Option<usize>>,
    art_of_row: Vec<Option<usize>>,
    /// `unit_cols[c - n]` names unit column `c`: the inverse of the three
    /// `*_of_row` tables.
    unit_cols: Vec<BasisCol>,
}

impl<'a> StdForm<'a> {
    /// Builds the standard form of `problem` around the problem's own
    /// structural columns; the unit columns, and a normalized copy of the
    /// structural ones where the problem needs one, are refilled in the
    /// workspace's buffers, which [`Self::release`] hands back.
    fn build(problem: &'a Problem, ws: &mut Workspace) -> Self {
        let n = problem.var_count();
        let explicit = problem.constraint_count();
        let upper = problem.upper_bounds_vec();
        // Upper bounds become `x_i ≤ u` rows after the explicit ones.
        let bound_vars: Vec<u32> = (0..upper.len())
            .filter(|&i| upper[i].is_some())
            .map(|i| i as u32)
            .collect();

        // Normalize every rhs non-negative; a negated row flips its sense
        // and the sign of its coefficients.
        let m = explicit + bound_vars.len();
        let mut cmps = Vec::with_capacity(m);
        let mut rhs = Vec::with_capacity(m);
        let mut negated = Vec::with_capacity(m);
        let senses = (0..explicit).map(|r| problem.row_sense(r));
        let bounds = bound_vars
            .iter()
            .map(|&i| (Cmp::Le, upper[i as usize].unwrap_or(0.0)));
        for (cmp, b) in senses.chain(bounds) {
            let neg = b < 0.0;
            negated.push(neg);
            rhs.push(if neg { -b } else { b });
            cmps.push(match (neg, cmp) {
                (true, Cmp::Le) => Cmp::Ge,
                (true, Cmp::Ge) => Cmp::Le,
                _ => cmp,
            });
        }

        let n_slack = cmps.iter().filter(|&&c| c == Cmp::Le).count();
        let n_surplus = cmps.iter().filter(|&&c| c == Cmp::Ge).count();
        let n_art = m - n_slack;
        let art_start = n + n_slack + n_surplus;
        let n_total = art_start + n_art;

        let columns = problem.columns();
        let structural = if bound_vars.is_empty() && !negated.contains(&true) {
            Cow::Borrowed(columns)
        } else {
            Cow::Owned(normalized(columns, &negated, &bound_vars, m, ws))
        };

        // Unit columns come after the structural block, grouped slack /
        // surplus / artificial exactly like the dense solver, so the column
        // numbering matches the dense tableau's layout.
        let mut unit_row = take_filled(&mut ws.unit_row, n_total - n, 0);
        let mut unit_sign = take_filled(&mut ws.unit_sign, n_total - n, 0.0);
        let mut init_basis = vec![0; m];
        let mut slack_of_row = vec![None; m];
        let mut surplus_of_row = vec![None; m];
        let mut art_of_row = vec![None; m];
        let mut unit_cols = vec![BasisCol::Slack(0); n_total - n];
        let mut unit = |c: usize, r: usize, sign: f64, name: BasisCol| {
            unit_row[c - n] = r as u32;
            unit_sign[c - n] = sign;
            unit_cols[c - n] = name;
        };
        let mut next_slack = n;
        let mut next_surplus = n + n_slack;
        let mut next_art = art_start;
        for (r, &cmp) in cmps.iter().enumerate() {
            match cmp {
                Cmp::Le => {
                    slack_of_row[r] = Some(next_slack);
                    unit(next_slack, r, 1.0, BasisCol::Slack(r));
                    init_basis[r] = next_slack;
                    next_slack += 1;
                }
                Cmp::Ge => {
                    surplus_of_row[r] = Some(next_surplus);
                    art_of_row[r] = Some(next_art);
                    unit(next_surplus, r, -1.0, BasisCol::Surplus(r));
                    unit(next_art, r, 1.0, BasisCol::Artificial(r));
                    init_basis[r] = next_art;
                    next_surplus += 1;
                    next_art += 1;
                }
                Cmp::Eq => {
                    art_of_row[r] = Some(next_art);
                    unit(next_art, r, 1.0, BasisCol::Artificial(r));
                    init_basis[r] = next_art;
                    next_art += 1;
                }
            }
        }

        Self {
            n,
            m,
            art_start,
            n_total,
            matrix: StdMatrix {
                structural,
                n,
                unit_row,
                unit_sign,
            },
            problem,
            bound_vars,
            rhs,
            negated,
            init_basis,
            slack_of_row,
            surplus_of_row,
            art_of_row,
            unit_cols,
        }
    }

    /// Moves the workspace's arrays back into it.
    fn release(self, ws: &mut Workspace) {
        let StdMatrix {
            structural,
            unit_row,
            unit_sign,
            ..
        } = self.matrix;
        if let Cow::Owned(copy) = structural {
            (ws.col_ptr, ws.row_idx, ws.values) = copy.into_parts();
        }
        ws.unit_row = unit_row;
        ws.unit_sign = unit_sign;
    }

    /// The coefficients of internal row `r` as the problem states them,
    /// before the rhs normalization: an explicit row's, else its
    /// upper-bound row's single `(variable, 1.0)`.
    fn row_coeffs(&self, r: usize) -> (&[u32], &[f64]) {
        match r.checked_sub(self.problem.constraint_count()) {
            None => self.problem.row(r),
            Some(b) => (std::slice::from_ref(&self.bound_vars[b]), &[1.0]),
        }
    }

    /// Maps a structural [`BasisCol`] to this problem's column index.
    fn resolve(&self, col: BasisCol) -> Option<usize> {
        match col {
            BasisCol::Structural(j) => (j < self.n).then_some(j),
            BasisCol::Slack(r) => self.slack_of_row.get(r).copied().flatten(),
            BasisCol::Surplus(r) => self.surplus_of_row.get(r).copied().flatten(),
            BasisCol::Artificial(r) => self.art_of_row.get(r).copied().flatten(),
        }
    }

    /// Inverse of [`StdForm::resolve`] for snapshot extraction.
    fn unresolve(&self, col: usize) -> BasisCol {
        match col.checked_sub(self.n) {
            None => BasisCol::Structural(col),
            Some(unit) => self.unit_cols[unit],
        }
    }
}

/// The structural columns over all `m` internal rows: `columns` with every
/// negated row's entries flipped and the `x ≤ u` row of each variable in
/// `bound_vars` (ascending) appended, in the workspace's buffers. Bound
/// rows follow the explicit ones, so each column's rows stay ascending.
fn normalized(
    columns: &CscMatrix,
    negated: &[bool],
    bound_vars: &[u32],
    m: usize,
    ws: &mut Workspace,
) -> CscMatrix {
    let mut col_ptr = take_filled(&mut ws.col_ptr, 1, 0);
    let mut row_idx = take_filled(&mut ws.row_idx, 0, 0);
    let mut values = take_filled(&mut ws.values, 0, 0.0);
    let mut bounds = bound_vars.iter().peekable();
    let mut bound_row = columns.rows();
    for j in 0..columns.cols() {
        let (rows, vals) = columns.column_parts(j);
        for (&r, &v) in rows.iter().zip(vals) {
            row_idx.push(r);
            values.push(if negated[r as usize] { -v } else { v });
        }
        if bounds.next_if(|&&b| b as usize == j).is_some() {
            row_idx.push(bound_row as u32);
            values.push(1.0);
            bound_row += 1;
        }
        col_ptr.push(row_idx.len());
    }
    CscMatrix::from_parts(m, col_ptr, row_idx, values)
}

/// One product-form update: the basis inverse gains a left factor `E`
/// equal to the identity with column `row` replaced by the eta column.
struct Eta {
    row: usize,
    /// The eta column's nonzeros as `(row, value)`, rows ascending; the
    /// entry at `row` holds `1/pivot`.
    col: Vec<(usize, f64)>,
}

/// Applies the eta file to `x` in pivot order (the FTRAN half that follows
/// the factor).
fn ftran_etas(etas: &[Eta], x: &mut [f64]) {
    for eta in etas {
        let t = x[eta.row];
        if t != 0.0 {
            for &(i, ei) in &eta.col {
                x[i] += ei * t;
            }
            // eta.col holds 1/pivot at row, and the loop above added
            // t·(1/pivot) on top of t itself; correct the pivot row.
            x[eta.row] -= t;
        }
    }
}

/// Applies the eta file to the row vector `y` in reverse pivot order (the
/// BTRAN half that precedes the factor).
fn btran_etas(etas: &[Eta], y: &mut [f64]) {
    for eta in etas.iter().rev() {
        let mut acc = 0.0;
        for &(i, ei) in &eta.col {
            acc += y[i] * ei;
        }
        y[eta.row] = acc;
    }
}

/// The basis factored around its unit columns.
///
/// Every basic slack (`+1`), surplus (`−1`) or artificial (`+1`) covers its
/// own row, so only the kernel `K = A[N, S]` needs an inverse: `S` lists the
/// `k` basis positions holding other (structural) columns and `N` the `k`
/// rows no unit covers. Solving `B x = a` takes `x_S = K⁻¹ a_N`, then each
/// unit at position `p` covering row `u` with sign `s` takes
/// `x_p = s·(a_u − Σ_q A[u, S_q]·x_{S_q})`; `yᵀB = cᵀ` runs the same steps
/// backwards. On the slot LP most basic columns are units, so `k` is a
/// fraction of `m`, and the kernel is so sparse that `K⁻¹` is too: both are
/// held as their nonzeros, and a refactorization, an FTRAN and a BTRAN
/// each cost time in proportion to the nonzeros they touch.
struct Factor {
    /// `(position, row, sign)` of each basic unit column.
    units: Vec<(usize, usize, f64)>,
    /// `S`: the basis position of each kernel column.
    kernel_pos: Vec<usize>,
    /// The matrix column at each position of `S`.
    kernel_cols: Vec<usize>,
    /// `N`: the uncovered rows, ascending.
    kernel_rows: Vec<usize>,
    /// `K⁻¹`: row `q` is position `S_q`, column `i` row `N_i`.
    kinv: KernelInverse,
}

impl Factor {
    /// Factors the basis of `std` whose position `p` holds column
    /// `basis[p]`. `Err` names a dependent position: the second of two
    /// units covering one row, or the kernel column with no pivot above
    /// `eps`.
    fn new(std: &StdForm, basis: &[usize], eps: f64) -> Result<Self, usize> {
        let (matrix, m) = (&std.matrix, std.m);
        let mut covered = vec![false; m];
        let mut units = Vec::new();
        let mut kernel_pos = Vec::new();
        let mut kernel_cols = Vec::new();
        for (p, &c) in basis.iter().enumerate() {
            if c < std.n {
                kernel_pos.push(p);
                kernel_cols.push(c);
                continue;
            }
            let (u, s) = matrix.unit(c);
            if std::mem::replace(&mut covered[u], true) {
                return Err(p);
            }
            units.push((p, u, s));
        }
        let kernel_rows: Vec<usize> = (0..m).filter(|&r| !covered[r]).collect();
        let k = kernel_pos.len();
        debug_assert_eq!(kernel_rows.len(), k, "one kernel row per kernel column");
        let mut kernel_index = vec![usize::MAX; m];
        for (i, &r) in kernel_rows.iter().enumerate() {
            kernel_index[r] = i;
        }
        // Kernel column `q` holds `entries[start[q]..start[q + 1]]`, its
        // `(kernel row, value)` pairs.
        let mut start = Vec::with_capacity(k + 1);
        start.push(0);
        let mut entries = Vec::new();
        for &c in &kernel_cols {
            for (r, v) in matrix.column(c) {
                let i = kernel_index[r];
                if i != usize::MAX {
                    entries.push((i, v));
                }
            }
            start.push(entries.len());
        }
        let kinv = invert(k, &start, &entries, eps).map_err(|q| kernel_pos[q])?;
        Ok(Self {
            units,
            kernel_pos,
            kernel_cols,
            kernel_rows,
            kinv,
        })
    }

    /// Solves `B x = a`, returning `x` by basis position; `a` is by row
    /// and is overwritten.
    fn ftran(&self, matrix: &StdMatrix, a: &mut [f64]) -> Vec<f64> {
        let mut xs = vec![0.0; self.kernel_pos.len()];
        for (i, &r) in self.kernel_rows.iter().enumerate() {
            let ar = a[r];
            if ar != 0.0 {
                for &(q, kq) in self.kinv.column(i) {
                    xs[q] += ar * kq;
                }
            }
        }
        let mut x = vec![0.0; a.len()];
        for ((&p, &c), &xq) in self.kernel_pos.iter().zip(&self.kernel_cols).zip(&xs) {
            x[p] = xq;
            if xq != 0.0 {
                // Take the kernel columns' share out of the covered rows;
                // what they leave in the kernel rows is never read again.
                for (r, v) in matrix.column(c) {
                    a[r] -= v * xq;
                }
            }
        }
        for &(p, u, s) in &self.units {
            x[p] = s * a[u];
        }
        x
    }

    /// Solves `yᵀB = cᵀ`, returning `y` by row; `c` is by basis position.
    fn btran(&self, matrix: &StdMatrix, c: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; c.len()];
        for &(p, u, s) in &self.units {
            y[u] = s * c[p];
        }
        // Kernel rows of y are still zero here, so a whole-column dot
        // subtracts the covered rows' share alone.
        let mut yn = vec![0.0; self.kernel_pos.len()];
        for (q, (&p, &col)) in self.kernel_pos.iter().zip(&self.kernel_cols).enumerate() {
            let w = c[p] - matrix.dot_column(&y, col);
            if w != 0.0 {
                for &(i, kq) in self.kinv.row(q) {
                    yn[i] += w * kq;
                }
            }
        }
        for (&r, &yi) in self.kernel_rows.iter().zip(&yn) {
            y[r] = yi;
        }
        y
    }
}

/// Revised simplex working state.
struct Rsx<'a> {
    std: StdForm<'a>,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    /// The basis as last refactorized, `B₀`; the eta file carries it to
    /// the current basis.
    factor: Factor,
    etas: Vec<Eta>,
    /// Current basic values `x_B = B⁻¹ b`, updated incrementally.
    xb: Vec<f64>,
    /// Reduced costs of the columns below `art_start` under the phase
    /// cost, carried across pivots; basic columns hold an exact 0.
    d: Vec<f64>,
    /// Devex reference weights of the same columns as reciprocals
    /// `1/w_j ≤ 1`: reset to 1 when [`Self::optimize`] starts, lowered as
    /// every pivot's row raises `w_j`.
    inv_w: Vec<f64>,
    /// The reference framework: the columns below `art_start` that were
    /// nonbasic when [`Self::optimize`] started.
    in_ref: Vec<bool>,
    /// The last pivot row `α_r` over the columns below `art_start`, dense;
    /// `touched` lists its nonzero positions once each, in any order
    /// (`in_row` marks them), so clearing and updating cost the row's
    /// size, not `n`.
    alpha: Vec<f64>,
    in_row: Vec<bool>,
    touched: Vec<usize>,
}

/// `K⁻¹` as its nonzeros, `(index, value)` pairs, held twice: by column
/// for FTRAN and by row for BTRAN. Skipping a zero term leaves every sum
/// the dense loops formed bit for bit as it was: each starts at `+0.0`,
/// which a zero term never moves.
struct KernelInverse {
    /// Column `i` holds `(q, K⁻¹[q][i])` in `cols[col_start[i]..col_start[i + 1]]`.
    col_start: Vec<usize>,
    cols: Vec<(usize, f64)>,
    /// Row `q` holds `(i, K⁻¹[q][i])` in `rows[row_start[q]..row_start[q + 1]]`.
    row_start: Vec<usize>,
    rows: Vec<(usize, f64)>,
}

impl KernelInverse {
    fn column(&self, i: usize) -> &[(usize, f64)] {
        &self.cols[self.col_start[i]..self.col_start[i + 1]]
    }

    fn row(&self, q: usize) -> &[(usize, f64)] {
        &self.rows[self.row_start[q]..self.row_start[q + 1]]
    }
}

/// Marks a row not yet pivoted on in [`GaussJordan::step_of`].
const UNPIVOTED: usize = usize::MAX;

/// The steps of a Gauss-Jordan elimination as it records them, and the
/// sparse vector it applies them to.
///
/// Step `c` pivots on row `pivot[c].0` with reciprocal `pivot[c].1` and
/// eliminates the pivot column's other nonzero rows with the multipliers
/// in its span of `elim`. Applied to one column, a step scales the pivot
/// row's entry, then takes `f` times it from each eliminated row: the dense
/// loop's operations on that column, which it makes at step `c` on every
/// column at once.
struct GaussJordan {
    pivot: Vec<(usize, f64)>,
    elim_start: Vec<usize>,
    elim: Vec<(usize, f64)>,
    /// The step pivoting on each row, or [`UNPIVOTED`].
    step_of: Vec<usize>,
    /// The column being transformed: dense values, the rows it may be
    /// nonzero on (marked in `in_w`), and the steps still to apply to it,
    /// one bit each.
    w: Vec<f64>,
    in_w: Vec<bool>,
    pattern: Vec<usize>,
    pending: Vec<u64>,
}

impl GaussJordan {
    fn new(k: usize) -> Self {
        Self {
            pivot: Vec::with_capacity(k),
            elim_start: vec![0],
            elim: Vec::with_capacity(2 * k),
            step_of: vec![UNPIVOTED; k],
            w: vec![0.0; k],
            in_w: vec![false; k],
            pattern: Vec::with_capacity(k),
            pending: vec![0; k.div_ceil(64)],
        }
    }

    /// Puts `v` into row `r` of the column, which must be zero there.
    fn load(&mut self, r: usize, v: f64) {
        self.w[r] = v;
        self.in_w[r] = true;
        self.pattern.push(r);
        self.queue(r, 0);
    }

    /// Queues the step pivoting on row `r` if it comes at or after `from`.
    fn queue(&mut self, r: usize, from: usize) {
        let c = self.step_of[r];
        if c != UNPIVOTED && c >= from {
            self.pending[c / 64] |= 1 << (c % 64);
        }
    }

    /// Applies every recorded step to the column, in step order. A step
    /// whose pivot row holds a zero changes no nonzero, so only the steps
    /// of rows the column reaches are queued; a step only queues later
    /// ones, so one sweep over the bits meets them all in order.
    fn transform(&mut self) {
        let mut word = 0;
        while word < self.pending.len() {
            let bits = self.pending[word];
            if bits == 0 {
                word += 1;
                continue;
            }
            self.pending[word] = bits & (bits - 1);
            let c = word * 64 + bits.trailing_zeros() as usize;
            let (p, pinv) = self.pivot[c];
            if self.w[p] == 0.0 {
                continue;
            }
            let v = self.w[p] * pinv;
            self.w[p] = v;
            for e in self.elim_start[c]..self.elim_start[c + 1] {
                let (r, f) = self.elim[e];
                self.w[r] -= f * v;
                if !self.in_w[r] {
                    // A row already in the column queued its step when it
                    // entered, if that step was still to come.
                    self.in_w[r] = true;
                    self.pattern.push(r);
                    self.queue(r, c + 1);
                }
            }
        }
    }

    /// Clears the column, handing each nonzero `(row, value)` to `keep`.
    fn drain(&mut self, mut keep: impl FnMut(usize, f64)) {
        for &r in &self.pattern {
            if self.w[r] != 0.0 {
                keep(r, self.w[r]);
            }
            self.w[r] = 0.0;
            self.in_w[r] = false;
        }
        self.pattern.clear();
    }
}

/// Inverts the `k × k` kernel whose column `q` holds the `(row, value)`
/// pairs `entries[start[q]..start[q + 1]]`, by Gauss-Jordan with partial
/// pivoting. `Err(col)` reports the first column with no usable pivot —
/// i.e. the (numerically) dependent basis position — so callers can repair
/// it.
///
/// It makes exactly the floating-point operations of the dense
/// elimination (row-major `[K | I]`, every row swapped, scaled and
/// eliminated whole) on nonzeros, in the same order, so `K⁻¹` matches it
/// bit for bit apart from the sign of zeros. The dense loop applies step
/// `c` to every column right of `c` at once; here each kernel column takes
/// all earlier steps when its turn comes, and each column of the identity
/// all steps once the last is recorded, every column meeting its steps in
/// the same order either way. Rows never move: `row_at` keeps the order the
/// dense row swaps would give, so the pivot search picks the same row, the
/// largest `|a|` of the transformed column among the rows not yet pivoted
/// on, and the last of them in that order on a tie. The work is the
/// nonzeros each step touches, plus a sweep over one bit per step for
/// each column.
fn invert(
    k: usize,
    start: &[usize],
    entries: &[(usize, f64)],
    eps: f64,
) -> Result<KernelInverse, usize> {
    let mut row_at: Vec<usize> = (0..k).collect();
    let mut order: Vec<usize> = (0..k).collect();
    let mut gj = GaussJordan::new(k);
    for col in 0..k {
        for &(r, v) in &entries[start[col]..start[col + 1]] {
            debug_assert!(v.is_finite(), "finite matrix entries");
            gj.load(r, v);
        }
        gj.transform();
        let mut p = row_at[col];
        let mut best = gj.w[p].abs();
        for &r in &gj.pattern {
            if order[r] >= col {
                let mag = gj.w[r].abs();
                if mag > best || (mag == best && order[r] > order[p]) {
                    p = r;
                    best = mag;
                }
            }
        }
        if best <= eps {
            return Err(col);
        }
        // The dense loop swaps the pivot row into position `col`.
        let displaced = row_at[col];
        row_at[order[p]] = displaced;
        order[displaced] = order[p];
        row_at[col] = p;
        order[p] = col;
        gj.pivot.push((p, 1.0 / gj.w[p]));
        gj.step_of[p] = col;
        let mut elim = std::mem::take(&mut gj.elim);
        gj.drain(|r, v| {
            if r != p {
                elim.push((r, v));
            }
        });
        gj.elim = elim;
        gj.elim_start.push(gj.elim.len());
    }
    // Column `j` of `K⁻¹` is column `j` of the identity under every step;
    // its row `r` lands at the position `order[r]` the swaps gave it.
    let mut col_start = Vec::with_capacity(k + 1);
    col_start.push(0);
    let mut cols = Vec::with_capacity(entries.len() + k);
    for j in 0..k {
        gj.load(j, 1.0);
        gj.transform();
        gj.drain(|r, v| cols.push((order[r], v)));
        col_start.push(cols.len());
    }
    // The rows by one counting sort of the columns.
    let mut row_start = vec![0; k + 1];
    for &(q, _) in &cols {
        row_start[q + 1] += 1;
    }
    for q in 0..k {
        row_start[q + 1] += row_start[q];
    }
    let mut fill = row_start[..k].to_vec();
    let mut rows = vec![(0, 0.0); cols.len()];
    for (i, span) in col_start.windows(2).enumerate() {
        for &(q, v) in &cols[span[0]..span[1]] {
            rows[fill[q]] = (i, v);
            fill[q] += 1;
        }
    }
    Ok(KernelInverse {
        col_start,
        cols,
        row_start,
        rows,
    })
}

/// The crash's greedy elimination: accepts each candidate `(column, row
/// the snapshot paired it with)` not `excluded` while it stays independent
/// of the columns accepted before it, and returns each accepted column
/// with the row it pivots on, in acceptance order.
///
/// Every accepted column is kept transformed by the ones before it and
/// owns its pivot row, where later candidates are eliminated. A candidate
/// pivots on its snapshot row if that row is free and strong enough,
/// otherwise on the free row of largest `|v|` (the highest such row on a
/// tie), and is dropped as dependent if no free row exceeds `eps`. The
/// elimination runs over each transformed column's nonzeros alone: against
/// a dense sweep it can only leave the sign of a zero different, and the
/// choices read `|v|` alone, so it accepts the same columns on the same
/// rows.
fn crash_pivots(
    std: &StdForm,
    candidates: &[(usize, usize)],
    excluded: &[bool],
    eps: f64,
) -> Vec<(usize, usize)> {
    let m = std.m;
    let mut accepted: Vec<(usize, usize)> = Vec::with_capacity(m);
    // The transformed columns' nonzeros, one range of `entries` each, and
    // each column's pivot value.
    let mut entries: Vec<(usize, f64)> = Vec::new();
    let mut ranges: Vec<Range<usize>> = Vec::with_capacity(m);
    let mut pivots: Vec<f64> = Vec::with_capacity(m);
    let mut row_pivoted = vec![false; m];
    // The candidate being eliminated: dense values and the rows it may be
    // nonzero on, marked in `in_v`; both are cleared after each candidate.
    let mut v = vec![0.0; m];
    let mut in_v = vec![false; m];
    let mut pattern: Vec<usize> = Vec::with_capacity(m);
    for &(c, snapshot_row) in candidates {
        if excluded[c] {
            continue;
        }
        for (i, a) in std.matrix.column(c) {
            v[i] = a;
            in_v[i] = true;
            pattern.push(i);
        }
        for ((&(_, pr), range), &pivot) in accepted.iter().zip(&ranges).zip(&pivots) {
            let f = v[pr] / pivot;
            if f != 0.0 {
                for &(i, t) in &entries[range.clone()] {
                    if !in_v[i] {
                        in_v[i] = true;
                        pattern.push(i);
                    }
                    v[i] -= f * t;
                }
            }
        }
        let preferred =
            (!row_pivoted[snapshot_row] && v[snapshot_row].abs() > eps).then_some(snapshot_row);
        let best = preferred.or_else(|| {
            let mut best: Option<usize> = None;
            for &i in &pattern {
                if row_pivoted[i] || v[i].abs() <= eps {
                    continue;
                }
                let stronger = best.is_none_or(|b| {
                    let (a, w) = (v[i].abs(), v[b].abs());
                    a > w || (a == w && i > b)
                });
                if stronger {
                    best = Some(i);
                }
            }
            best
        });
        if let Some(pr) = best {
            row_pivoted[pr] = true;
            let start = entries.len();
            entries.extend(pattern.iter().filter(|&&i| v[i] != 0.0).map(|&i| (i, v[i])));
            ranges.push(start..entries.len());
            pivots.push(v[pr]);
            accepted.push((c, pr));
        }
        // else: dependent on earlier candidates — drop.
        for &i in &pattern {
            v[i] = 0.0;
            in_v[i] = false;
        }
        pattern.clear();
    }
    accepted
}

impl<'a> Rsx<'a> {
    /// Working state for `basis` with its `factor`, basic values solved
    /// from the rhs, an empty eta file and unpriced reduced costs. Its
    /// per-column arrays are the workspace's buffers; [`Self::release`]
    /// hands them back.
    fn new(std: StdForm<'a>, basis: Vec<usize>, factor: Factor, ws: &mut Workspace) -> Self {
        let mut in_basis = take_filled(&mut ws.in_basis, std.n_total, false);
        for &c in &basis {
            in_basis[c] = true;
        }
        let priced = std.art_start;
        let mut touched = std::mem::take(&mut ws.touched);
        touched.clear();
        let mut rsx = Self {
            std,
            basis,
            in_basis,
            factor,
            etas: Vec::new(),
            xb: Vec::new(),
            d: take_filled(&mut ws.d, priced, 0.0),
            inv_w: take_filled(&mut ws.inv_w, priced, 1.0),
            in_ref: take_filled(&mut ws.in_ref, priced, false),
            alpha: take_filled(&mut ws.alpha, priced, 0.0),
            in_row: take_filled(&mut ws.in_row, priced, false),
            touched,
        };
        rsx.solve_xb();
        rsx
    }

    /// Moves the per-column arrays back into the workspace and returns the
    /// standard form, whose own arrays are still out.
    fn release(self, ws: &mut Workspace) -> StdForm<'a> {
        ws.in_basis = self.in_basis;
        ws.d = self.d;
        ws.inv_w = self.inv_w;
        ws.in_ref = self.in_ref;
        ws.alpha = self.alpha;
        ws.in_row = self.in_row;
        ws.touched = self.touched;
        self.std
    }

    /// Solves `x_B = B₀⁻¹ b` from the factor alone (the eta file must be
    /// empty), checking in debug builds that `B x_B` reproduces `b`.
    fn solve_xb(&mut self) {
        debug_assert!(self.etas.is_empty(), "x_B solved through a stale factor");
        let mut b = self.std.rhs.clone();
        self.xb = self.factor.ftran(&self.std.matrix, &mut b);
        if cfg!(debug_assertions) {
            let mut residual: Vec<f64> = self.std.rhs.iter().map(|&b| -b).collect();
            for (&c, &x) in self.basis.iter().zip(&self.xb) {
                for (r, v) in self.std.matrix.column(c) {
                    residual[r] += v * x;
                }
            }
            let worst = residual.iter().fold(0.0f64, |w, r| w.max(r.abs()));
            let scale = self.std.rhs.iter().fold(1.0f64, |w, b| w.max(b.abs()));
            debug_assert!(
                worst <= 1e-9 * scale,
                "basis solve residual {worst} exceeds 1e-9 of rhs scale {scale}"
            );
        }
    }

    /// Cold state: the all-slack/artificial basis, whose factor has an
    /// empty kernel.
    fn cold(std: StdForm<'a>, ws: &mut Workspace) -> Self {
        let basis = std.init_basis.clone();
        let factor =
            Factor::new(&std, &basis, 0.0).expect("one unit column per row is nonsingular");
        Self::new(std, basis, factor, ws)
    }

    /// Tries to install `cols` as a *rank-valid* starting basis of `std`;
    /// `Err` returns the standard form so the caller can start cold.
    ///
    /// A snapshot carried across a column delta is a *hint*, not a valid
    /// basis: surviving columns can have become linearly dependent (two
    /// columns of one request at the same station differ by a prefix-row
    /// unit, so a departed column's slack fallback completes a dependence
    /// in practice), and the implied vertex can have drifted primal
    /// infeasible.
    ///
    /// The cheap common case comes first: place each snapshot member
    /// directly at the row it was paired with (an exact re-solve then
    /// reproduces the basis verbatim), fill unresolved rows with their own
    /// unit column, and factorize once — the factorization itself is the
    /// rank check. A singular placement drops into the rank-revealing
    /// [`Self::crash_install`] repair. Either way the returned basis may
    /// be primal *infeasible* (negative basic values); the caller repairs
    /// that with dual pivots ([`Self::dual_repair`]) or falls back cold.
    // Err moves the StdForm back out so a fallback cold start reuses it
    // instead of rebuilding — a move, never a copy.
    #[allow(clippy::result_large_err)]
    fn try_warm(
        std: StdForm<'a>,
        cols: &[BasisCol],
        config: &RevisedConfig,
        ws: &mut Workspace,
    ) -> Result<Self, StdForm<'a>> {
        let m = std.m;
        if cols.len() != m || m == 0 {
            return Err(std);
        }
        // Resolve snapshot members against the new layout, keeping the
        // row each was paired with; duplicates collapse to one.
        let mut candidates: Vec<(usize, usize)> = Vec::with_capacity(m);
        let mut claimed = vec![false; std.n_total];
        for (r, &bc) in cols.iter().enumerate() {
            if let Some(c) = std.resolve(bc) {
                if !claimed[c] {
                    claimed[c] = true;
                    candidates.push((c, r));
                }
            }
        }

        // Fast path: direct row-keyed placement, one factorization.
        let mut basis = vec![usize::MAX; m];
        for &(c, r) in &candidates {
            basis[r] = c;
        }
        for (r, slot) in basis.iter_mut().enumerate() {
            if *slot == usize::MAX {
                let Some(unit) = Self::unit_fill(&std, r, &claimed) else {
                    return Err(std);
                };
                claimed[unit] = true;
                *slot = unit;
            }
        }
        if let Ok(factor) = Factor::new(&std, &basis, config.eps) {
            return Ok(Self::new(std, basis, factor, ws));
        }
        Self::crash_install(std, &candidates, config, ws)
    }

    /// Rank-revealing crash repair for a snapshot the direct placement
    /// could not install (dependent survivors).
    ///
    /// Greedily accepts candidate columns while they stay independent,
    /// fills every unpivoted row with its own unit column, and
    /// factorizes. A stray unit collision or a near-dependence the
    /// crash's eps missed bans the offender and reruns; the ban set only
    /// grows, so the loop cannot cycle. The returned basis is rank-valid
    /// but — like the fast path — may be primal infeasible; feasibility
    /// is the caller's dual-repair problem, not this installer's.
    #[allow(clippy::result_large_err)] // same Err-returns-ownership contract as try_warm
    fn crash_install(
        std: StdForm<'a>,
        candidates: &[(usize, usize)],
        config: &RevisedConfig,
        ws: &mut Workspace,
    ) -> Result<Self, StdForm<'a>> {
        let m = std.m;
        let validated = (|| {
            let mut excluded = vec![false; std.n_total];
            'round: for _round in 0..16 {
                let accepted = crash_pivots(&std, candidates, &excluded, config.eps);

                // Basis ordered by pivot row; unpivoted rows take their own
                // unit column (the cold choice for that row). A fill unit
                // already basic as a stray candidate gets banned instead,
                // freeing it for its home row next round.
                let mut basis = vec![usize::MAX; m];
                for &(c, pr) in &accepted {
                    basis[pr] = c;
                }
                let mut in_basis = vec![false; std.n_total];
                for (r, slot) in basis.iter_mut().enumerate() {
                    if *slot == usize::MAX {
                        let unit = std.slack_of_row[r].or(std.art_of_row[r])?;
                        if in_basis[unit] {
                            excluded[unit] = true;
                            continue 'round;
                        }
                        *slot = unit;
                    }
                    if in_basis[*slot] {
                        excluded[*slot] = true;
                        continue 'round;
                    }
                    in_basis[*slot] = true;
                }

                match Factor::new(&std, &basis, config.eps) {
                    Ok(factor) => return Some((basis, factor)),
                    Err(pos) => {
                        // Near-dependence the crash's eps missed: ban the
                        // offender and retry, unless it is already banned
                        // (then the factorization is truly stuck).
                        if excluded[basis[pos]] {
                            return None;
                        }
                        excluded[basis[pos]] = true;
                        continue 'round;
                    }
                }
            }
            None
        })();
        match validated {
            Some((basis, factor)) => Ok(Self::new(std, basis, factor, ws)),
            None => Err(std),
        }
    }

    /// The unit column (slack, else artificial) owning `row`, skipping any
    /// already marked used.
    fn unit_fill(std: &StdForm, row: usize, used: &[bool]) -> Option<usize> {
        [std.slack_of_row[row], std.art_of_row[row]]
            .into_iter()
            .flatten()
            .find(|&u| !used[u])
    }

    /// FTRAN: `B⁻¹ a_col` for a matrix column.
    fn ftran_col(&self, col: usize) -> Vec<f64> {
        let mut a = vec![0.0; self.std.m];
        self.std.matrix.scatter_column(col, &mut a);
        let mut x = self.factor.ftran(&self.std.matrix, &mut a);
        ftran_etas(&self.etas, &mut x);
        x
    }

    /// BTRAN: `yᵀ = y₀ᵀ B⁻¹` for a dense row vector.
    fn btran_vec(&self, mut y: Vec<f64>) -> Vec<f64> {
        btran_etas(&self.etas, &mut y);
        self.factor.btran(&self.std.matrix, &y)
    }

    /// The simplex multipliers `yᵀ = c_Bᵀ B⁻¹` for a phase cost vector.
    fn multipliers(&self, cost: &[f64]) -> Vec<f64> {
        let y0: Vec<f64> = self.basis.iter().map(|&c| cost[c]).collect();
        self.btran_vec(y0)
    }

    /// Refactors the current basis, clears the eta file and re-solves
    /// `x_B`.
    fn refactor(&mut self, config: &RevisedConfig) -> Result<(), LpError> {
        note_refactor();
        // A basis reached by valid pivots is nonsingular in exact
        // arithmetic; a singular factorization here means the eta file
        // drifted beyond repair.
        self.factor =
            Factor::new(&self.std, &self.basis, config.eps).map_err(|_| LpError::IterationLimit)?;
        self.etas.clear();
        self.solve_xb();
        Ok(())
    }

    /// One pivot: `col` enters at `row`; `d = B⁻¹ a_col` from the caller.
    /// Returns whether the eta file filled up and the basis was refactorized.
    fn pivot(
        &mut self,
        row: usize,
        col: usize,
        d: &[f64],
        config: &RevisedConfig,
    ) -> Result<bool, LpError> {
        let dr = d[row];
        debug_assert!(dr.abs() > 0.0, "zero pivot");
        let t = self.xb[row] / dr;
        for (i, (xi, &di)) in self.xb.iter_mut().zip(d).enumerate() {
            if i != row {
                *xi -= di * t;
            }
        }
        self.xb[row] = t;
        let inv = 1.0 / dr;
        let col_vec = d
            .iter()
            .enumerate()
            .map(|(i, &di)| (i, if i == row { inv } else { -di * inv }))
            .filter(|&(_, v)| v != 0.0)
            .collect();
        self.in_basis[self.basis[row]] = false;
        self.in_basis[col] = true;
        self.basis[row] = col;
        self.etas.push(Eta { row, col: col_vec });
        if self.etas.len() >= config.refactor_every {
            self.refactor(config)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Prices every column below `art_start` afresh, `d_j = c_j − yᵀa_j`
    /// with `yᵀ = c_Bᵀ B⁻¹`, writing an exact 0 on basic columns. With
    /// `carried`, `d` already holds this cost's pivot-updated values, and
    /// debug builds check them against the fresh ones.
    fn reprice(&mut self, cost: &[f64], carried: bool) {
        let y = self.multipliers(cost);
        let before = (cfg!(debug_assertions) && carried).then(|| self.d.clone());
        self.std
            .matrix
            .price_into(&y, cost, &self.in_basis, &mut self.d);
        for (j, (old, new)) in before.iter().flatten().zip(&self.d).enumerate() {
            debug_assert!(
                (old - new).abs() <= 1e-9 * new.abs().max(1.0),
                "carried reduced cost of column {j} drifted: {old} vs fresh {new}"
            );
        }
    }

    /// Forms row `r` of the tableau, `α_r = ρᵀA` with `ρ = e_rᵀB⁻¹`, over
    /// the columns below `art_start`: one BTRAN, then the problem's rows
    /// read row-wise over the nonzeros of `ρ`, each with the sign of its
    /// rhs normalization, plus each row's slack or surplus unit. Leaves it
    /// in `alpha`/`touched`. Call before the basis changes.
    fn pivot_row(&mut self, r: usize) {
        for &j in &self.touched {
            self.alpha[j] = 0.0;
            self.in_row[j] = false;
        }
        self.touched.clear();
        let mut e = vec![0.0; self.std.m];
        e[r] = 1.0;
        let rho = self.btran_vec(e);
        let std = &self.std;
        let (alpha, in_row, touched) = (&mut self.alpha, &mut self.in_row, &mut self.touched);
        let mut add = |j: usize, v: f64| {
            if !in_row[j] {
                in_row[j] = true;
                touched.push(j);
            }
            alpha[j] += v;
        };
        for (i, &p) in rho.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let w = if std.negated[i] { -p } else { p };
            let (cols, vals) = std.row_coeffs(i);
            for (&v, &c) in cols.iter().zip(vals) {
                add(v as usize, w * c);
            }
            if let Some(s) = std.slack_of_row[i] {
                add(s, p);
            } else if let Some(s) = std.surplus_of_row[i] {
                add(s, -p);
            }
        }
    }

    /// Carries `d` and the Devex weights across the pivot that brings `q`
    /// in at row `r`, from the row [`Self::pivot_row`] formed for it and
    /// the reference weight `wq` of `q`. On the nonbasic columns the row
    /// touches, `d_j −= θ·α_rj` with `θ = d_q / α_rq` and
    /// `w_j = max(w_j, (α_rj/α_rq)²·w_q)`; then `d_q = 0`, and the leaving
    /// column takes `−θ` and the weight `max(w_q/α_rq², 1)` (an artificial
    /// carries neither). Call before [`Self::pivot`].
    fn update_duals(&mut self, q: usize, r: usize, wq: f64) {
        let aq = self.alpha[q];
        let theta = self.d[q] / aq;
        let step = devex::Step::new(wq, aq);
        for &j in &self.touched {
            if !self.in_basis[j] {
                let a = self.alpha[j];
                self.d[j] -= theta * a;
                self.inv_w[j] = step.raise(self.inv_w[j], a);
            }
        }
        self.d[q] = 0.0;
        let leaving = self.basis[r];
        if leaving < self.d.len() {
            self.d[leaving] = -theta;
            self.inv_w[leaving] = step.leaving();
        }
    }

    /// The entering column by the carried `d` (artificials never
    /// re-enter): Devex picks the largest `d_j²/w_j` among columns pricing
    /// below `-eps`, lowest index on ties within eps — the same
    /// deterministic rule as the dense tableau — and Bland the lowest index
    /// pricing below `-eps`. Basic columns hold an exact 0, so neither needs the
    /// basis.
    fn entering(&self, bland: bool, eps: f64) -> Option<usize> {
        if bland {
            return self.d.iter().position(|&dj| dj < -eps);
        }
        devex::pick(&self.d, &self.inv_w, eps)
    }

    /// The Devex reference weight of entering column `q`, exact from its
    /// FTRAN column `α_q` (by basis position).
    fn entering_weight(&self, q: usize, alpha_q: &[f64]) -> f64 {
        let in_ref = |c: usize| self.in_ref.get(c).copied().unwrap_or(false);
        devex::entering_weight(
            in_ref(q),
            self.basis
                .iter()
                .zip(alpha_q)
                .map(|(&c, &a)| (in_ref(c), a)),
        )
    }

    /// Runs pivots on a phase cost until optimal / unbounded / cap.
    ///
    /// The reduced costs are priced fresh at the start, after every
    /// refactorization, and whenever the carried ones offer no entering
    /// column, so optimality is always decided on fresh values; between
    /// those, each pivot updates them from its pivot row. With `priced`,
    /// `d` already holds this basis's fresh prices under `cost` (a warm
    /// repair that made no pivot), and the start's pricing is skipped;
    /// debug builds check that it would have written the same bits. The
    /// start is also Devex's reference framework: every weight restarts
    /// at 1.
    fn optimize(
        &mut self,
        cost: &[f64],
        config: &RevisedConfig,
        priced: bool,
    ) -> Result<(), LpError> {
        if !priced {
            self.reprice(cost, false);
        } else if cfg!(debug_assertions) {
            let carried = self.d.clone();
            self.reprice(cost, false);
            debug_assert!(
                carried
                    .iter()
                    .zip(&self.d)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "skipped pricing would have moved d"
            );
        }
        self.inv_w.fill(1.0);
        for (in_ref, &basic) in self.in_ref.iter_mut().zip(&self.in_basis) {
            *in_ref = !basic;
        }
        for iter in 0..config.max_iterations {
            let bland = iter >= config.bland_after;
            let entering = self.entering(bland, config.eps).or_else(|| {
                self.reprice(cost, true);
                self.entering(bland, config.eps)
            });
            let Some(col) = entering else {
                return Ok(()); // optimal
            };
            let d = self.ftran_col(col);
            // Ratio test; ties toward the smallest basis index.
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for (r, &dr) in d.iter().enumerate() {
                if dr > config.eps {
                    let ratio = self.xb[r] / dr;
                    let better = ratio < best_ratio - config.eps
                        || (ratio < best_ratio + config.eps
                            && leave.is_some_and(|l| self.basis[r] < self.basis[l]));
                    if better {
                        best_ratio = ratio;
                        leave = Some(r);
                    }
                }
            }
            let Some(row) = leave else {
                return Err(LpError::Unbounded);
            };
            self.pivot_row(row);
            let wq = self.entering_weight(col, &d);
            self.update_duals(col, row, wq);
            if self.pivot(row, col, &d, config)? {
                self.reprice(cost, true);
            }
            note_pivot();
        }
        Err(LpError::IterationLimit)
    }

    /// Basic artificial mass (the phase-1 objective at the current point).
    fn artificial_mass(&self) -> f64 {
        self.basis
            .iter()
            .zip(&self.xb)
            .filter(|&(&c, _)| c >= self.std.art_start)
            .map(|(_, &v)| v)
            .sum()
    }

    /// Dual-simplex repair of primal infeasibility from a rank-valid warm
    /// basis: while some basic value is negative, that row leaves and the
    /// nonbasic column minimizing the dual ratio `max(d̄_j, 0) / −α_j`
    /// (lowest index on ties) enters.
    ///
    /// A warm basis carried across a small problem delta stays (near)
    /// dual feasible — it was optimal a moment ago — so a handful of dual
    /// pivots walks it back into the feasible region far cheaper than a
    /// cold phase 1. Because the start need not be exactly dual feasible
    /// (arriving columns can price negative), reduced costs are clamped
    /// at zero in the ratio and termination is not guaranteed; the pivot
    /// budget bounds the attempt and `false` tells the caller to start
    /// cold instead. Artificials never enter; they may leave. Each dual
    /// pivot costs one BTRAN for its row, whose `α_r` both runs the ratio
    /// test and carries the reduced costs over, as in [`Self::optimize`].
    /// Returns the number of dual pivots once the basis is primal
    /// feasible, `None` when the repair gives up.
    fn dual_repair(&mut self, cost: &[f64], config: &RevisedConfig) -> Option<usize> {
        let budget = (2 * self.std.m).max(64);
        self.reprice(cost, false);
        for pivots in 0..budget {
            // Leaving row: the most negative basic value.
            let mut pos = None;
            let mut most = -config.feas_tol;
            for (r, &v) in self.xb.iter().enumerate() {
                if v < most {
                    most = v;
                    pos = Some(r);
                }
            }
            let Some(pos) = pos else {
                return Some(pivots); // primal feasible
            };
            self.pivot_row(pos);
            // Only the columns the row touches can have `−α_j > eps`. The
            // nonbasic ones that do move to the front of `touched`, a
            // small share of it; sorted ascending, they meet the same ties
            // as a scan of all `n` columns.
            let mut k = 0;
            for i in 0..self.touched.len() {
                let j = self.touched[i];
                if -self.alpha[j] > config.eps && !self.in_basis[j] {
                    self.touched.swap(k, i);
                    k += 1;
                }
            }
            let candidates = &mut self.touched[..k];
            candidates.sort_unstable();
            let mut best: Option<(usize, f64)> = None;
            for &j in candidates.iter() {
                let ratio = self.d[j].max(0.0) / -self.alpha[j];
                if best.is_none_or(|(_, b)| ratio < b - config.eps) {
                    best = Some((j, ratio));
                }
            }
            let (col, _) = best?; // no dual step exists — give up, start cold
            let d = self.ftran_col(col);
            if d[pos] >= -config.eps {
                return None;
            }
            // The weights this raises restart before the next phase.
            self.update_duals(col, pos, 1.0);
            if self.pivot(pos, col, &d, config).ok()? {
                self.reprice(cost, true);
            }
            note_pivot();
        }
        None
    }

    /// Pivots degenerate basic artificials out where a usable column
    /// exists; all-zero rows are redundant and stay harmlessly basic.
    fn drive_out_artificials(&mut self, config: &RevisedConfig) -> Result<(), LpError> {
        for r in 0..self.std.m {
            if self.basis[r] < self.std.art_start {
                continue;
            }
            // Row r of the tableau is the one the dense solver scans; the
            // lowest-index usable entry enters. Basic columns are 0 there
            // up to rounding and must not enter a second time.
            self.pivot_row(r);
            let col = self
                .touched
                .iter()
                .copied()
                .filter(|&j| !self.in_basis[j] && self.alpha[j].abs() > config.eps)
                .min();
            if let Some(col) = col {
                let d = self.ftran_col(col);
                self.pivot(r, col, &d, config)?;
                note_pivot();
            }
        }
        Ok(())
    }
}

/// Solves `problem` cold with the revised simplex, in buffers of its own.
///
/// # Errors
///
/// [`LpError::Infeasible`], [`LpError::Unbounded`] (in the problem's own
/// sense), or [`LpError::IterationLimit`] (also on numerical breakdown).
pub fn solve(problem: &Problem, config: &RevisedConfig) -> Result<Solution, LpError> {
    solve_with_basis(problem, config, None, &mut Workspace::default()).map(|(sol, _, _)| sol)
}

/// Solves `problem`, optionally warm-starting from a prior basis, and
/// returns the solution together with the optimal basis snapshot and how
/// the solve actually started. The solve's arrays that grow with the
/// problem live in `ws`, whose capacity the next solve reuses.
///
/// # Errors
///
/// Same as [`solve`]. A rejected warm basis is not an error — the solver
/// silently falls back to a cold start and reports
/// [`WarmOutcome::FellBack`].
pub fn solve_with_basis(
    problem: &Problem,
    config: &RevisedConfig,
    warm: Option<&BasisSnapshot>,
    ws: &mut Workspace,
) -> Result<(Solution, BasisSnapshot, WarmOutcome), LpError> {
    let std_form = StdForm::build(problem, ws);
    let n = std_form.n;
    let n_total = std_form.n_total;
    let art_start = std_form.art_start;

    // Phase-2 cost up front — a warm basis is repaired against it.
    let sign = match problem.sense() {
        Sense::Maximize => -1.0,
        Sense::Minimize => 1.0,
    };
    let mut c2 = take_filled(&mut ws.c2, n_total, 0.0);
    for (j, &c) in problem.objective_vec().iter().enumerate() {
        c2[j] = sign * c;
    }

    // A warm install is rank-valid but possibly primal infeasible; dual
    // pivots walk it back into the feasible region. If that stalls, or
    // an artificial still carries weight (the old point violates a
    // `≥`/`=` row of the new problem), start cold instead.
    // A repair that made no pivot leaves `d` priced fresh under the phase-2
    // cost, so phase 2 starts without pricing again.
    let (mut rsx, outcome, priced) = match warm {
        Some(snap) => match Rsx::try_warm(std_form, &snap.cols, config, ws) {
            Ok(mut warm_rsx) => match warm_rsx.dual_repair(&c2, config) {
                Some(pivots) if warm_rsx.artificial_mass() <= config.feas_tol => {
                    (warm_rsx, WarmOutcome::Warm, pivots == 0)
                }
                _ => {
                    // Pivoting never touches the standard form, so the
                    // failed attempt's copy seeds the cold start.
                    let std_form = warm_rsx.release(ws);
                    (Rsx::cold(std_form, ws), WarmOutcome::FellBack, false)
                }
            },
            Err(std_form) => (Rsx::cold(std_form, ws), WarmOutcome::FellBack, false),
        },
        None => (Rsx::cold(std_form, ws), WarmOutcome::Cold, false),
    };

    // Phase 1 (cold starts with artificials only): minimize the artificial
    // sum to reach a basic feasible point. A validated warm basis is
    // already feasible with weightless artificials, so it skips straight
    // to phase 2.
    if outcome != WarmOutcome::Warm && n_total > art_start {
        let mut c1 = take_filled(&mut ws.c1, n_total, 0.0);
        c1[art_start..].fill(1.0);
        rsx.optimize(&c1, config, false)?;
        ws.c1 = c1;
        if rsx.artificial_mass() > config.feas_tol {
            return Err(LpError::Infeasible);
        }
        rsx.drive_out_artificials(config)?;
    }

    // Phase 2: minimize the sense-adjusted objective.
    rsx.optimize(&c2, config, priced)?;

    let mut x = vec![0.0; n];
    for (r, &c) in rsx.basis.iter().enumerate() {
        if c < n {
            x[c] = rsx.xb[r].max(0.0);
        }
    }
    let objective = problem.objective_at(&x);

    // Duals: the final multipliers are the internal row prices; translate
    // through the rhs-normalization flip and the sense flip, keeping only
    // explicit constraint rows (upper-bound rows were appended last).
    let y = rsx.multipliers(&c2);
    ws.c2 = c2;
    let explicit = problem.constraint_count();
    let mut duals = Vec::with_capacity(explicit);
    for (r, &yi) in y.iter().enumerate().take(explicit) {
        let unflip = if rsx.std.negated[r] { -1.0 } else { 1.0 };
        duals.push(sign * yi * unflip);
    }

    let snapshot = BasisSnapshot {
        cols: rsx.basis.iter().map(|&c| rsx.std.unresolve(c)).collect(),
    };
    let std_form = rsx.release(ws);
    std_form.release(ws);
    Ok((Solution::with_duals(objective, x, duals), snapshot, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Cmp, Problem, Sense, VarId};
    use proptest::prelude::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    fn cfg() -> RevisedConfig {
        RevisedConfig::default()
    }

    #[test]
    fn textbook_max() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → (2, 6), z=36.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(3.0);
        let y = p.add_var(5.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 4.0);
        p.add_constraint(vec![(y, 2.0)], Cmp::Le, 12.0);
        p.add_constraint(vec![(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let s = solve(&p, &cfg()).unwrap();
        assert_close(s.objective(), 36.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 6.0);
    }

    #[test]
    fn minimization_with_ge() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(2.0);
        let y = p.add_var(3.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        let s = solve(&p, &cfg()).unwrap();
        assert_close(s.objective(), 8.0);
        assert_close(s.value(x), 4.0);
    }

    #[test]
    fn equality_constraints() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 3.0);
        p.add_constraint(vec![(x, 1.0), (y, -1.0)], Cmp::Eq, 1.0);
        let s = solve(&p, &cfg()).unwrap();
        assert_close(s.objective(), 3.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 1.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 2.0);
        assert_eq!(solve(&p, &cfg()).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0);
        let y = p.add_var(0.0);
        p.add_constraint(vec![(x, -1.0), (y, 1.0)], Cmp::Le, 1.0);
        assert_eq!(solve(&p, &cfg()).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0);
        let y = p.add_var(0.0);
        p.add_constraint(vec![(x, 1.0), (y, -1.0)], Cmp::Le, -2.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 5.0);
        let s = solve(&p, &cfg()).unwrap();
        assert_close(s.objective(), 5.0);
        assert!(s.value(y) >= 7.0 - 1e-6);
    }

    #[test]
    fn upper_bounds_enforced() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0);
        p.set_upper_bound(x, 0.5);
        let s = solve(&p, &cfg()).unwrap();
        assert_close(s.objective(), 0.5);
    }

    #[test]
    fn degenerate_lp_terminates() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 1.0);
        p.add_constraint(vec![(y, 1.0)], Cmp::Le, 1.0);
        p.add_constraint(vec![(x, 2.0), (y, 1.0)], Cmp::Le, 2.0);
        let s = solve(&p, &cfg()).unwrap();
        assert_close(s.objective(), 1.0);
    }

    #[test]
    fn redundant_equality_rows() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0);
        let y = p.add_var(2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0);
        let s = solve(&p, &cfg()).unwrap();
        assert_close(s.objective(), 4.0);
        assert_close(s.value(y), 2.0);
    }

    #[test]
    fn drive_out_never_enters_a_basic_column() {
        // x + y = 2 twice and x ≥ 1: phase 1 ends at x = y = 1 with one
        // equality row's artificial basic at zero, the row redundant.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        let mut ws = Workspace::default();
        let mut rsx = Rsx::cold(StdForm::build(&p, &mut ws), &mut ws);
        let mut c1 = vec![0.0; rsx.std.n_total];
        c1[rsx.std.art_start..].fill(1.0);
        rsx.optimize(&c1, &cfg(), false).unwrap();
        assert!(rsx.in_basis[x.index()] && rsx.in_basis[y.index()]);
        let art_row = (0..rsx.std.m)
            .find(|&r| rsx.basis[r] >= rsx.std.art_start)
            .expect("a redundant artificial stays basic");
        let artificial = rsx.basis[art_row];
        // Rounding in B⁻¹ leaves that row a stray 1e-6 on the other
        // equality row of A, where only the basic x and y have entries: the
        // artificial's row of B⁻¹ reaches the kernel rows through
        // `w = −A[u, S] = (−1, −1)`, so one entry of K⁻¹ (and its
        // transpose) carries the error.
        rsx.refactor(&cfg()).unwrap();
        let f = &mut rsx.factor;
        let eq_row = f
            .kernel_rows
            .iter()
            .position(|&r| r < 2)
            .expect("one equality row stays in the kernel");
        let inv = &mut f.kinv;
        let (row, col) = (
            inv.row_start[0]..inv.row_start[1],
            inv.col_start[eq_row]..inv.col_start[eq_row + 1],
        );
        let in_row = row
            .clone()
            .find(|&e| inv.rows[e].0 == eq_row)
            .expect("K⁻¹ holds the entry");
        let in_col = col
            .clone()
            .find(|&e| inv.cols[e].0 == 0)
            .expect("K⁻¹ holds the entry");
        inv.rows[in_row].1 -= 1e-6;
        inv.cols[in_col].1 -= 1e-6;
        rsx.drive_out_artificials(&cfg()).unwrap();
        assert_eq!(rsx.basis[art_row], artificial);
        let mut seen = vec![false; rsx.std.n_total];
        for &c in &rsx.basis {
            assert!(
                !std::mem::replace(&mut seen[c], true),
                "column {c} basic twice"
            );
        }
        // Solved end to end, the redundant rows change nothing.
        assert_close(solve(&p, &cfg()).unwrap().objective(), 2.0);
    }

    #[test]
    fn zero_variable_problem() {
        let p = Problem::new(Sense::Maximize);
        let s = solve(&p, &cfg()).unwrap();
        assert_close(s.objective(), 0.0);
        assert!(s.values().is_empty());
    }

    #[test]
    fn duals_match_dense() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(3.0);
        let y = p.add_var(5.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 4.0);
        p.add_constraint(vec![(y, 2.0)], Cmp::Le, 12.0);
        p.add_constraint(vec![(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let dense = p.solve().unwrap();
        let revised = solve(&p, &cfg()).unwrap();
        assert_eq!(dense.duals().len(), revised.duals().len());
        for (d, r) in dense.duals().iter().zip(revised.duals()) {
            assert_close(*d, *r);
        }
    }

    #[test]
    fn frequent_refactorization_is_exact() {
        // refactor_every = 1 discards the eta file after every pivot; the
        // answer must not move.
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..8).map(|i| p.add_var(1.0 + 0.25 * i as f64)).collect();
        for k in 0..6 {
            let coeffs = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, ((i + k) % 4) as f64 + 0.5))
                .collect();
            p.add_constraint(coeffs, Cmp::Le, 9.0 + k as f64);
        }
        let baseline = solve(&p, &cfg()).unwrap();
        let eager = solve(
            &p,
            &RevisedConfig {
                refactor_every: 1,
                ..cfg()
            },
        )
        .unwrap();
        assert_close(baseline.objective(), eager.objective());
        assert!(p.is_feasible(eager.values(), 1e-6));
    }

    #[test]
    fn warm_restart_from_own_basis_skips_to_optimal() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(3.0);
        let y = p.add_var(5.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 4.0);
        p.add_constraint(vec![(y, 2.0)], Cmp::Le, 12.0);
        p.add_constraint(vec![(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let (cold, snap, how) =
            solve_with_basis(&p, &cfg(), None, &mut Workspace::default()).unwrap();
        assert_eq!(how, WarmOutcome::Cold);
        let before = crate::pivots_performed();
        let (warm, snap2, how2) =
            solve_with_basis(&p, &cfg(), Some(&snap), &mut Workspace::default()).unwrap();
        assert_eq!(how2, WarmOutcome::Warm);
        assert_eq!(
            crate::pivots_performed(),
            before,
            "warm re-solve of the same problem must pivot zero times"
        );
        assert_close(cold.objective(), warm.objective());
        assert_eq!(snap, snap2);
    }

    #[test]
    fn warm_restart_tracks_perturbed_rhs() {
        // Same structure, slightly different capacities: the old basis
        // stays feasible and the warm solve lands on the right optimum.
        let build = |cap: f64| {
            let mut p = Problem::new(Sense::Maximize);
            let x = p.add_var(3.0);
            let y = p.add_var(5.0);
            p.add_constraint(vec![(x, 1.0)], Cmp::Le, 4.0);
            p.add_constraint(vec![(y, 2.0)], Cmp::Le, 12.0);
            p.add_constraint(vec![(x, 3.0), (y, 2.0)], Cmp::Le, cap);
            p
        };
        let (_, snap, _) =
            solve_with_basis(&build(18.0), &cfg(), None, &mut Workspace::default()).unwrap();
        let p2 = build(19.0);
        let (warm, _, how) =
            solve_with_basis(&p2, &cfg(), Some(&snap), &mut Workspace::default()).unwrap();
        assert_eq!(how, WarmOutcome::Warm);
        let cold = solve(&p2, &cfg()).unwrap();
        assert_close(warm.objective(), cold.objective());
        assert!(p2.is_feasible(warm.values(), 1e-6));
    }

    #[test]
    fn stale_warm_basis_falls_back_cold() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 2.0);
        // Nonsense snapshot: wrong row count and duplicate columns.
        let bad = BasisSnapshot {
            cols: vec![BasisCol::Structural(7), BasisCol::Structural(7)],
        };
        let (sol, _, how) =
            solve_with_basis(&p, &cfg(), Some(&bad), &mut Workspace::default()).unwrap();
        assert_eq!(how, WarmOutcome::FellBack);
        assert_close(sol.objective(), 2.0);
    }

    #[test]
    fn infeasible_warm_basis_falls_back_cold() {
        // A basis whose B⁻¹b goes negative for the new rhs is rejected.
        let build = |rhs: f64| {
            let mut p = Problem::new(Sense::Maximize);
            let x = p.add_var(1.0);
            let y = p.add_var(2.0);
            p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, rhs);
            p.add_constraint(vec![(y, 1.0)], Cmp::Le, 3.0);
            p
        };
        let (_, snap, _) =
            solve_with_basis(&build(5.0), &cfg(), None, &mut Workspace::default()).unwrap();
        // Shrink the shared row so the old vertex (y=3, slack=2) flips the
        // slack negative.
        let p2 = build(1.0);
        let (sol, _, how) =
            solve_with_basis(&p2, &cfg(), Some(&snap), &mut Workspace::default()).unwrap();
        assert!(matches!(how, WarmOutcome::FellBack | WarmOutcome::Warm));
        let cold = solve(&p2, &cfg()).unwrap();
        assert_close(sol.objective(), cold.objective());
        assert!(p2.is_feasible(sol.values(), 1e-6));
    }

    #[test]
    fn agrees_with_dense_on_a_grid_of_instances() {
        for seed in 0..20u64 {
            let mut p = Problem::new(Sense::Maximize);
            let nv = 3 + (seed % 5) as usize;
            let nc = 2 + (seed % 4) as usize;
            let vars: Vec<_> = (0..nv)
                .map(|i| p.add_var(((seed * 7 + i as u64 * 3) % 11) as f64 * 0.5))
                .collect();
            for k in 0..nc {
                let coeffs: Vec<_> = vars
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (v, ((seed as usize + i * k) % 4) as f64 + 0.5))
                    .collect();
                p.add_constraint(coeffs, Cmp::Le, 5.0 + (seed % 7) as f64);
            }
            let dense = p.solve().unwrap();
            let revised = solve(&p, &cfg()).unwrap();
            assert_close(dense.objective(), revised.objective());
            assert!(p.is_feasible(revised.values(), 1e-6));
        }
    }

    #[test]
    fn std_form_transposes_rows_and_inverts_unit_columns() {
        // One row of every sense, a negated rhs and an upper bound.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(1.0);
        let y = p.add_var(2.0);
        let z = p.add_var(0.5);
        p.set_upper_bound(y, 3.0);
        p.add_constraint(vec![(x, 1.0), (z, 2.0)], Cmp::Ge, 1.0);
        p.add_constraint(vec![(x, 1.0), (y, -3.0)], Cmp::Le, -2.0);
        p.add_constraint(vec![(y, 1.0), (z, 0.0)], Cmp::Eq, 1.0);
        p.add_constraint(vec![(z, 4.0), (x, 2.0)], Cmp::Le, 4.0);
        let std = StdForm::build(&p, &mut Workspace::default());
        assert_eq!(std.m, 5);
        assert_eq!(std.negated, vec![false, true, false, false, false]);
        // Each structural column lists its rows ascending, negated rows
        // flipped and exact zeros dropped; the bound row comes last.
        let column = |j| std.matrix.column(j).collect::<Vec<_>>();
        assert_eq!(column(0), vec![(0, 1.0), (1, -1.0), (3, 2.0)]);
        assert_eq!(column(1), vec![(1, 3.0), (2, 1.0), (4, 1.0)]);
        assert_eq!(column(2), vec![(0, 2.0), (3, 4.0)]);
        for c in 0..std.n_total {
            assert_eq!(std.resolve(std.unresolve(c)), Some(c), "column {c}");
        }
    }

    #[test]
    fn solver_kind_parses_and_displays() {
        assert_eq!("dense".parse::<SolverKind>().unwrap(), SolverKind::Dense);
        assert_eq!(
            "Revised".parse::<SolverKind>().unwrap(),
            SolverKind::Revised
        );
        assert!("simplex".parse::<SolverKind>().is_err());
        assert_eq!(SolverKind::default(), SolverKind::Revised);
        assert_eq!(SolverKind::Dense.to_string(), "dense");
    }

    /// The full-pricing loops that carrying `d` replaced, kept as the
    /// reference it must reproduce pivot for pivot: every primal iteration
    /// recomputes the multipliers and prices every column, and every dual
    /// pivot prices twice, the phase cost and then the zero cost against
    /// row `pos` of `B⁻¹` for `−α`. Under [`Rule::Devex`] each primal
    /// pivot prices that zero cost too, for the row that raises the
    /// weights; [`Rule::Dantzig`] is the rule Devex replaced, kept to check
    /// that both reach the same optimum.
    mod full_pricing {
        use super::super::*;

        /// The primal pricing rule.
        #[derive(Debug, Clone, Copy)]
        pub(super) enum Rule {
            /// The largest `d_j²/w_j`, the solver's own rule.
            Devex,
            /// The most negative `d_j`, lowest index on ties within eps.
            Dantzig,
        }

        fn optimize(
            rsx: &mut Rsx,
            cost: &[f64],
            config: &RevisedConfig,
            rule: Rule,
        ) -> Result<(), LpError> {
            let (m, art_start) = (rsx.std.m, rsx.std.art_start);
            let zeros = vec![0.0; art_start];
            let mut red = vec![0.0; art_start];
            let mut neg_alpha = vec![0.0; art_start];
            let mut inv_w = vec![1.0; art_start];
            let in_ref: Vec<bool> = rsx.in_basis[..art_start].iter().map(|&b| !b).collect();
            for iter in 0..config.max_iterations {
                let bland = iter >= config.bland_after;
                let y = rsx.multipliers(cost);
                let mut entering: Option<usize> = None;
                if bland {
                    for (j, &cj) in cost.iter().enumerate().take(art_start) {
                        if !rsx.in_basis[j] && cj - rsx.std.matrix.dot_column(&y, j) < -config.eps {
                            entering = Some(j);
                            break;
                        }
                    }
                } else {
                    rsx.std.matrix.price_into(&y, cost, &rsx.in_basis, &mut red);
                    entering = match rule {
                        Rule::Devex => devex::pick(&red, &inv_w, config.eps),
                        Rule::Dantzig => {
                            let mut best = 0.0f64;
                            for &dj in &red {
                                if dj < best {
                                    best = dj;
                                }
                            }
                            if best < -config.eps {
                                (0..art_start)
                                    .find(|&j| !rsx.in_basis[j] && red[j] <= best + config.eps)
                            } else {
                                None
                            }
                        }
                    };
                }
                let Some(col) = entering else {
                    return Ok(());
                };
                let d = rsx.ftran_col(col);
                let mut leave: Option<usize> = None;
                let mut best_ratio = f64::INFINITY;
                for (r, &dr) in d.iter().enumerate() {
                    if dr > config.eps {
                        let ratio = rsx.xb[r] / dr;
                        let better = ratio < best_ratio - config.eps
                            || (ratio < best_ratio + config.eps
                                && leave.is_some_and(|l| rsx.basis[r] < rsx.basis[l]));
                        if better {
                            best_ratio = ratio;
                            leave = Some(r);
                        }
                    }
                }
                let Some(row) = leave else {
                    return Err(LpError::Unbounded);
                };
                if let Rule::Devex = rule {
                    let mut e = vec![0.0; m];
                    e[row] = 1.0;
                    let rho = rsx.btran_vec(e);
                    rsx.std
                        .matrix
                        .price_into(&rho, &zeros, &rsx.in_basis, &mut neg_alpha);
                    let is_ref = |c: usize| c < art_start && in_ref[c];
                    let wq = devex::entering_weight(
                        is_ref(col),
                        rsx.basis.iter().zip(&d).map(|(&c, &a)| (is_ref(c), a)),
                    );
                    let step = devex::Step::new(wq, -neg_alpha[col]);
                    for (j, &na) in neg_alpha.iter().enumerate() {
                        if !rsx.in_basis[j] {
                            inv_w[j] = step.raise(inv_w[j], -na);
                        }
                    }
                    if let Some(wp) = inv_w.get_mut(rsx.basis[row]) {
                        *wp = step.leaving();
                    }
                }
                rsx.pivot(row, col, &d, config)?;
                note_pivot();
            }
            Err(LpError::IterationLimit)
        }

        fn dual_repair(rsx: &mut Rsx, cost: &[f64], config: &RevisedConfig) -> bool {
            let m = rsx.std.m;
            let art_start = rsx.std.art_start;
            let zeros = vec![0.0; art_start];
            let mut red = vec![0.0; art_start];
            let mut neg_alpha = vec![0.0; art_start];
            for _ in 0..(2 * m).max(64) {
                let mut pos = None;
                let mut most = -config.feas_tol;
                for (r, &v) in rsx.xb.iter().enumerate() {
                    if v < most {
                        most = v;
                        pos = Some(r);
                    }
                }
                let Some(pos) = pos else {
                    return true;
                };
                let y = rsx.multipliers(cost);
                rsx.std.matrix.price_into(&y, cost, &rsx.in_basis, &mut red);
                let mut e = vec![0.0; m];
                e[pos] = 1.0;
                let beta = rsx.btran_vec(e);
                rsx.std
                    .matrix
                    .price_into(&beta, &zeros, &rsx.in_basis, &mut neg_alpha);
                let mut best: Option<(usize, f64)> = None;
                for (j, (&na, &dj)) in neg_alpha.iter().zip(&red).enumerate() {
                    if rsx.in_basis[j] || na <= config.eps {
                        continue;
                    }
                    let ratio = dj.max(0.0) / na;
                    if best.is_none_or(|(_, b)| ratio < b - config.eps) {
                        best = Some((j, ratio));
                    }
                }
                let Some((col, _)) = best else {
                    return false;
                };
                let d = rsx.ftran_col(col);
                if d[pos] >= -config.eps || rsx.pivot(pos, col, &d, config).is_err() {
                    return false;
                }
                note_pivot();
            }
            false
        }

        /// [`solve_with_basis`] driven by the loops above: the values,
        /// objective, final basis and how the solve started.
        pub(super) fn solve(
            problem: &Problem,
            config: &RevisedConfig,
            warm: Option<&BasisSnapshot>,
            rule: Rule,
        ) -> Result<(Vec<f64>, f64, BasisSnapshot, WarmOutcome), LpError> {
            let mut ws = Workspace::default();
            let std_form = StdForm::build(problem, &mut ws);
            let sign = match problem.sense() {
                Sense::Maximize => -1.0,
                Sense::Minimize => 1.0,
            };
            let mut c2 = vec![0.0; std_form.n_total];
            for (j, &c) in problem.objective_vec().iter().enumerate() {
                c2[j] = sign * c;
            }
            let (mut rsx, outcome) = match warm {
                Some(snap) => match Rsx::try_warm(std_form, &snap.cols, config, &mut ws) {
                    Ok(mut w) => {
                        if dual_repair(&mut w, &c2, config)
                            && w.artificial_mass() <= config.feas_tol
                        {
                            (w, WarmOutcome::Warm)
                        } else {
                            let std_form = w.release(&mut ws);
                            (Rsx::cold(std_form, &mut ws), WarmOutcome::FellBack)
                        }
                    }
                    Err(std_form) => (Rsx::cold(std_form, &mut ws), WarmOutcome::FellBack),
                },
                None => (Rsx::cold(std_form, &mut ws), WarmOutcome::Cold),
            };
            if outcome != WarmOutcome::Warm && rsx.std.n_total > rsx.std.art_start {
                let mut c1 = vec![0.0; rsx.std.n_total];
                for c in c1.iter_mut().skip(rsx.std.art_start) {
                    *c = 1.0;
                }
                optimize(&mut rsx, &c1, config, rule)?;
                if rsx.artificial_mass() > config.feas_tol {
                    return Err(LpError::Infeasible);
                }
                rsx.drive_out_artificials(config)?;
            }
            optimize(&mut rsx, &c2, config, rule)?;
            let mut x = vec![0.0; rsx.std.n];
            for (r, &c) in rsx.basis.iter().enumerate() {
                if c < rsx.std.n {
                    x[c] = rsx.xb[r].max(0.0);
                }
            }
            let snapshot = BasisSnapshot {
                cols: rsx.basis.iter().map(|&c| rsx.std.unresolve(c)).collect(),
            };
            Ok((x.clone(), problem.objective_at(&x), snapshot, outcome))
        }
    }

    /// A random program shaped like the slot LP: one start-once row
    /// `Σ y ≤ 1` per request, then per station the nested prefix rows
    /// `Σ_{l' ≤ l} w·y ≤ cap·l`, all `≤`. The structure and base values
    /// depend on `seed` alone; `shift` scales a second random stream into
    /// the rewards and capacities, so `shift = 0` is the base program and
    /// any other value a neighbour a warm start must repair into.
    fn slot_shaped(
        seed: u64,
        requests: usize,
        stations: usize,
        slots: usize,
        shift: f64,
    ) -> Problem {
        let mut base = seed;
        let mut moved = !seed;
        let next = |s: &mut u64| {
            *s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((*s >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let mut p = Problem::new(Sense::Maximize);
        // (request, station, weight, first column) per feasible pair.
        let mut runs = Vec::new();
        for j in 0..requests {
            let reward = 1.0 + 9.0 * next(&mut base);
            for s in 0..stations {
                let feasible = next(&mut base) < 0.7;
                let weight = 0.5 + 2.5 * next(&mut base);
                if !feasible {
                    continue;
                }
                let first = p.var_count();
                for l in 0..slots {
                    let wobble = 1.0 + shift * (2.0 * next(&mut moved) - 1.0);
                    p.add_var(reward * (1.0 - 0.15 * l as f64) * wobble);
                }
                runs.push((j, s, weight, first));
            }
        }
        for j in 0..requests {
            let coeffs: Vec<_> = runs
                .iter()
                .filter(|run| run.0 == j)
                .flat_map(|&(_, _, _, first)| (first..first + slots).map(|v| (VarId(v), 1.0)))
                .collect();
            if !coeffs.is_empty() {
                p.add_constraint(coeffs, Cmp::Le, 1.0);
            }
        }
        for s in 0..stations {
            let cap = (1.0 + 3.0 * next(&mut base)) * (1.0 - shift * next(&mut moved));
            for l in 0..slots {
                let coeffs: Vec<_> = runs
                    .iter()
                    .filter(|run| run.1 == s)
                    .flat_map(|&(_, _, w, first)| (first..=first + l).map(move |v| (VarId(v), w)))
                    .collect();
                if !coeffs.is_empty() {
                    p.add_constraint(coeffs, Cmp::Le, cap * (l + 1) as f64);
                }
            }
        }
        p
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Carrying the reduced costs by the pivot row walks exactly the
        /// full-pricing reference's path, cold and warm from a neighbour,
        /// with the default eta file and with one refactorized every three
        /// pivots: same start, final basis, pivot count, and bitwise the
        /// same point and objective.
        #[test]
        fn carried_pricing_pivots_like_full_pricing(
            seed in 0u64..u64::MAX,
            requests in 1usize..20,
            stations in 1usize..5,
            slots in 1usize..6,
            shift in 0.05f64..0.6,
        ) {
            let base = slot_shaped(seed, requests, stations, slots, 0.0);
            let moved = slot_shaped(seed, requests, stations, slots, shift);
            for config in [cfg(), RevisedConfig { refactor_every: 3, ..cfg() }] {
                let (_, snap, _) = solve_with_basis(&base, &config, None, &mut Workspace::default()).unwrap();
                for (problem, warm) in [(&base, None), (&moved, None), (&moved, Some(&snap))] {
                    let start = crate::pivots_performed();
                    let (sol, basis, how) = solve_with_basis(problem, &config, warm, &mut Workspace::default()).unwrap();
                    let mid = crate::pivots_performed();
                    let (x, objective, want_basis, want_how) =
                        full_pricing::solve(problem, &config, warm, full_pricing::Rule::Devex)
                            .unwrap();
                    let end = crate::pivots_performed();
                    prop_assert_eq!(how, want_how);
                    prop_assert_eq!(&basis, &want_basis);
                    prop_assert_eq!(mid - start, end - mid);
                    prop_assert_eq!(bits(sol.values()), bits(&x));
                    prop_assert_eq!(sol.objective().to_bits(), objective.to_bits());
                }
            }
        }

        /// Devex and the Dantzig rule it replaced reach the same optimum on
        /// slot-shaped programs and their neighbours, and on programs with
        /// `≥`, `=` and negated rows, and fail the same way where those
        /// are infeasible or unbounded.
        #[test]
        fn devex_reaches_dantzigs_optimum(
            seed in 0u64..u64::MAX,
            requests in 1usize..20,
            stations in 1usize..5,
            slots in 1usize..6,
            shift in 0.0f64..0.6,
            extra in 0usize..6,
        ) {
            let config = cfg();
            let problems = [
                slot_shaped(seed, requests, stations, slots, shift),
                mixed_rows(seed, requests, stations, slots, extra),
            ];
            for p in &problems {
                let devex = solve(p, &config).map(|sol| sol.objective());
                let dantzig = full_pricing::solve(p, &config, None, full_pricing::Rule::Dantzig)
                    .map(|(_, objective, _, _)| objective);
                match (devex, dantzig) {
                    (Ok(a), Ok(b)) => prop_assert!(
                        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
                        "Devex {} vs Dantzig {}", a, b
                    ),
                    (a, b) => prop_assert_eq!(a.err(), b.err()),
                }
            }
        }
    }

    /// A stream of uniforms in `[0, 1)` from `seed`.
    fn uniforms(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed;
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64) / ((1u64 << 53) as f64)
        }
    }

    /// The crash elimination over dense `m`-vectors that [`crash_pivots`]
    /// replaced, kept as the reference it must reproduce: each candidate
    /// is eliminated against every accepted column's whole transformed
    /// copy, and the strongest free row is the last maximum of a scan over
    /// all `m` rows.
    fn dense_crash_pivots(
        std: &StdForm,
        candidates: &[(usize, usize)],
        excluded: &[bool],
        eps: f64,
    ) -> Vec<(usize, usize)> {
        let m = std.m;
        let mut transformed: Vec<Vec<f64>> = Vec::with_capacity(m);
        let mut accepted: Vec<(usize, usize)> = Vec::with_capacity(m);
        let mut row_pivoted = vec![false; m];
        for &(c, snapshot_row) in candidates {
            if excluded[c] {
                continue;
            }
            let mut v = vec![0.0; m];
            std.matrix.scatter_column(c, &mut v);
            for (t, &(_, pr)) in transformed.iter().zip(&accepted) {
                let f = v[pr] / t[pr];
                if f != 0.0 {
                    for i in 0..m {
                        v[i] -= f * t[i];
                    }
                }
            }
            let preferred =
                (!row_pivoted[snapshot_row] && v[snapshot_row].abs() > eps).then_some(snapshot_row);
            let best = preferred.or_else(|| {
                (0..m)
                    .filter(|&i| !row_pivoted[i] && v[i].abs() > eps)
                    .max_by(|&a, &b| {
                        v[a].abs()
                            .partial_cmp(&v[b].abs())
                            .expect("finite eliminations")
                    })
            });
            if let Some(pr) = best {
                row_pivoted[pr] = true;
                transformed.push(v);
                accepted.push((c, pr));
            }
        }
        accepted
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The sparse crash elimination accepts the same columns on the
        /// same rows as the dense one, so the crash installs the same
        /// basis. The snapshots are a solved slot-shaped program's optimal
        /// basis with some members swapped for random columns (dependent
        /// survivors, as a column delta leaves them) and resolved against
        /// the program as `try_warm` does, under a random ban set.
        #[test]
        fn sparse_crash_matches_the_dense_elimination(
            seed in 0u64..u64::MAX,
            requests in 1usize..20,
            stations in 1usize..5,
            slots in 1usize..6,
            swap in 0.0f64..1.0,
            ban in 0.0f64..0.3,
        ) {
            let problem = slot_shaped(seed, requests, stations, slots, 0.0);
            let mut ws = Workspace::default();
            let (_, snap, _) = solve_with_basis(&problem, &cfg(), None, &mut ws).unwrap();
            let std = StdForm::build(&problem, &mut ws);
            let mut next = uniforms(seed ^ 0x5eed);
            let pick = |u: f64, len: usize| ((u * len as f64) as usize).min(len - 1);
            let mut claimed = vec![false; std.n_total];
            let mut candidates = Vec::new();
            for (r, &bc) in snap.cols.iter().enumerate() {
                let c = if next() < swap {
                    pick(next(), std.n_total)
                } else {
                    std.resolve(bc).unwrap()
                };
                if !std::mem::replace(&mut claimed[c], true) {
                    candidates.push((c, r));
                }
            }
            let excluded: Vec<bool> = (0..std.n_total).map(|_| next() < ban).collect();
            let eps = cfg().eps;
            prop_assert_eq!(
                crash_pivots(&std, &candidates, &excluded, eps),
                dense_crash_pivots(&std, &candidates, &excluded, eps)
            );
        }
    }

    /// [`slot_shaped`] plus `extra` rows of the other kinds the standard
    /// form handles: `≥` rows, `=` rows, and rows with a negative rhs in
    /// either sense, which the normalization negates. Two extra variables
    /// appear only in those rows with one column exactly twice the other,
    /// so a basis holding both is singular.
    fn mixed_rows(
        seed: u64,
        requests: usize,
        stations: usize,
        slots: usize,
        extra: usize,
    ) -> Problem {
        let mut p = slot_shaped(seed, requests, stations, slots, 0.0);
        let mut next = uniforms(!seed);
        let n = p.var_count();
        let twin = p.add_var(1.5);
        let double = p.add_var(2.0);
        for _ in 0..extra {
            let mut coeffs = Vec::new();
            for v in 0..n {
                if next() < 0.3 {
                    coeffs.push((VarId(v), 0.5 + 1.5 * next()));
                }
            }
            let a = 0.5 + next();
            coeffs.push((twin, a));
            coeffs.push((double, 2.0 * a));
            let b = 0.1 + next();
            let (cmp, rhs) = match (4.0 * next()) as usize {
                0 => (Cmp::Ge, b),
                1 => (Cmp::Eq, b),
                2 => (Cmp::Le, -b),
                _ => (Cmp::Ge, -b),
            };
            p.add_constraint(coeffs, cmp, rhs);
        }
        p
    }

    /// The dense Gauss-Jordan inverse of the basis, row-major: row `p` is
    /// basis position `p`.
    fn dense_inverse(std: &StdForm, basis: &[usize]) -> Result<Vec<f64>, usize> {
        let m = std.m;
        let mut b = vec![0.0; m * m];
        for (p, &c) in basis.iter().enumerate() {
            for (i, v) in std.matrix.column(c) {
                b[i * m + p] = v;
            }
        }
        dense_invert(b, m, cfg().eps)
    }

    /// The dense Gauss-Jordan inverse [`invert`] replaced, kept as its
    /// reference: a row-major `m × m` matrix in, its row-major inverse out,
    /// every row swap, normalization and elimination over whole rows.
    fn dense_invert(mut a: Vec<f64>, m: usize, eps: f64) -> Result<Vec<f64>, usize> {
        let mut inv = vec![0.0; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        for col in 0..m {
            let pivot_row = (col..m)
                .max_by(|&p, &q| {
                    a[p * m + col]
                        .abs()
                        .partial_cmp(&a[q * m + col].abs())
                        .expect("finite matrix entries")
                })
                .expect("non-empty pivot range");
            if a[pivot_row * m + col].abs() <= eps {
                return Err(col);
            }
            if pivot_row != col {
                for j in 0..m {
                    a.swap(col * m + j, pivot_row * m + j);
                    inv.swap(col * m + j, pivot_row * m + j);
                }
            }
            let p = a[col * m + col];
            let pinv = 1.0 / p;
            for j in 0..m {
                a[col * m + j] *= pinv;
                inv[col * m + j] *= pinv;
            }
            for r in 0..m {
                if r == col {
                    continue;
                }
                let f = a[r * m + col];
                if f != 0.0 {
                    for j in 0..m {
                        a[r * m + j] -= f * a[col * m + j];
                        inv[r * m + j] -= f * inv[col * m + j];
                    }
                }
            }
        }
        Ok(inv)
    }

    /// Whether two matrices hold bitwise the same values where either is
    /// nonzero: equal apart from the sign of zeros.
    fn same_nonzeros(got: &[f64], want: &[f64]) -> bool {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(g, w)| g.to_bits() == w.to_bits() || (*g == 0.0 && *w == 0.0))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The nonzero-pattern inverse makes the dense loops' operations on
        /// nonzeros: on random kernels, sparse like the slot LP's, dense, or
        /// made singular by a dependent column, it fails at the same column
        /// or returns `K⁻¹` and its transpose equal to the dense inverse
        /// bit for bit apart from the sign of zeros. Ties in `|a|`, which
        /// the search must break toward the same row, are common: values
        /// come from a short list.
        #[test]
        fn pattern_inverse_matches_the_dense_loops(
            seed in 0u64..u64::MAX,
            k in 1usize..24,
            density in 0.0f64..1.0,
            dependent in 0usize..3,
        ) {
            let mut next = uniforms(seed);
            let choices = [1.0, -1.0, 0.5, 2.0, -3.0, 0.25, 7.5];
            let mut dense = vec![0.0; k * k];
            for (i, row) in dense.chunks_exact_mut(k).enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    if i == j || next() < density {
                        *v = if next() < 0.5 {
                            choices[(next() * choices.len() as f64) as usize % choices.len()]
                        } else {
                            next() * 4.0 - 2.0
                        };
                    }
                }
            }
            if dependent > 0 && k >= 2 {
                // Column `b` becomes a multiple of column `a`, or a sum
                // with a third, so the kernel is singular in exact
                // arithmetic and usually below `eps` after elimination.
                let a = (next() * k as f64) as usize % k;
                let b = (a + 1 + (next() * (k - 1) as f64) as usize % (k - 1)) % k;
                let c = (b + 1) % k;
                for i in 0..k {
                    dense[i * k + b] = if dependent == 1 {
                        2.0 * dense[i * k + a]
                    } else {
                        dense[i * k + a] + dense[i * k + c]
                    };
                }
            }
            let mut start = vec![0];
            let mut entries = Vec::new();
            for j in 0..k {
                for i in 0..k {
                    if dense[i * k + j] != 0.0 {
                        entries.push((i, dense[i * k + j]));
                    }
                }
                start.push(entries.len());
            }
            let eps = cfg().eps;
            match (invert(k, &start, &entries, eps), dense_invert(dense, k, eps)) {
                (Ok(inv), Ok(want)) => {
                    // The columns and the rows each hold every nonzero of
                    // the dense inverse, bit for bit, and nothing else.
                    let mut by_cols = vec![0.0; k * k];
                    let mut by_rows = vec![0.0; k * k];
                    for x in 0..k {
                        for &(q, v) in inv.column(x) {
                            by_cols[q * k + x] = v;
                        }
                        for &(i, v) in inv.row(x) {
                            by_rows[x * k + i] = v;
                        }
                    }
                    prop_assert!(same_nonzeros(&by_cols, &want));
                    prop_assert!(same_nonzeros(&by_rows, &want));
                    prop_assert_eq!(inv.cols.len(), want.iter().filter(|v| **v != 0.0).count());
                }
                (got, want) => prop_assert_eq!(got.err(), want.err()),
            }
        }
    }

    fn assert_near(got: &[f64], want: &[f64]) {
        let scale = want.iter().fold(1.0f64, |w, v| w.max(v.abs()));
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() <= 1e-9 * scale, "entry {i}: {g} vs dense {w}");
        }
    }

    /// FTRAN/BTRAN over dense eta columns: the loops the sparse eta file
    /// must reproduce exactly.
    fn dense_ftran_etas(etas: &[(usize, Vec<f64>)], x: &mut [f64]) {
        for (row, col) in etas {
            let t = x[*row];
            if t != 0.0 {
                for (xi, &ei) in x.iter_mut().zip(col) {
                    *xi += ei * t;
                }
                x[*row] -= t;
            }
        }
    }

    fn dense_btran_etas(etas: &[(usize, Vec<f64>)], y: &mut [f64]) {
        for (row, col) in etas.iter().rev() {
            let mut acc = 0.0;
            for (&yi, &ei) in y.iter().zip(col) {
                acc += yi * ei;
            }
            y[*row] = acc;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The kernel factor solves `B x = a` and `yᵀB = cᵀ` like the
        /// dense inverse of the whole basis, and fails exactly when that
        /// inverse does. Bases mix structural, slack, surplus and
        /// artificial columns at random; some hold a row's surplus and its
        /// artificial together, some the two proportional columns.
        #[test]
        fn kernel_factor_solves_like_the_dense_inverse(
            seed in 0u64..u64::MAX,
            requests in 1usize..10,
            stations in 1usize..4,
            slots in 1usize..4,
            extra in 1usize..6,
            pair in 0usize..3,
        ) {
            let p = mixed_rows(seed, requests, stations, slots, extra);
            let std = StdForm::build(&p, &mut Workspace::default());
            let (m, n) = (std.m, std.n);
            let mut next = uniforms(seed ^ 0x5eed);
            let mut pick = |len: usize| ((next() * len as f64) as usize).min(len.max(1) - 1);
            // Start from one unit column per row, a random one of the
            // row's slack, surplus and artificial, then let random
            // structural columns replace positions where their FTRAN has a
            // clear pivot, so the basis stays nonsingular.
            let mut basis: Vec<usize> = (0..m)
                .map(|r| {
                    let units: Vec<usize> =
                        [std.slack_of_row[r], std.surplus_of_row[r], std.art_of_row[r]]
                            .into_iter()
                            .flatten()
                            .collect();
                    units[pick(units.len())]
                })
                .collect();
            for _ in 0..pick(m + 1) {
                let j = pick(n);
                if basis.contains(&j) {
                    continue;
                }
                let binv =
                    dense_inverse(&std, &basis).expect("exchanges keep the basis nonsingular");
                let mut a = vec![0.0; m];
                std.matrix.scatter_column(j, &mut a);
                let clear: Vec<usize> = (0..m)
                    .filter(|&p| (0..m).map(|i| binv[p * m + i] * a[i]).sum::<f64>().abs() > 0.1)
                    .collect();
                if let Some(&p) = clear.get(pick(clear.len())) {
                    basis[p] = j;
                }
            }
            // Force a known singularity into some bases.
            match pair {
                0 => {
                    // Units sit only at their own row's position, so this
                    // places each of the pair once.
                    if let Some(r) = (0..m).find(|&r| std.surplus_of_row[r].is_some()) {
                        basis[r] = std.surplus_of_row[r].unwrap();
                        basis[(r + 1 + pick(m - 1)) % m] = std.art_of_row[r].unwrap();
                    }
                }
                1 => {
                    let (twin, double) = (n - 2, n - 1);
                    if m >= 2 && !basis.contains(&twin) && !basis.contains(&double) {
                        basis[0] = twin;
                        basis[m - 1] = double;
                    }
                }
                _ => {}
            }

            let dense = dense_inverse(&std, &basis);
            let factor = Factor::new(&std, &basis, cfg().eps);
            prop_assert_eq!(factor.is_err(), dense.is_err(), "basis {:?}", basis);
            if let (Ok(factor), Ok(binv)) = (factor, dense) {
                // B⁻¹a by position, and cᵀB⁻¹ by row.
                let solve = |a: &[f64]| -> Vec<f64> {
                    (0..m).map(|p| (0..m).map(|i| binv[p * m + i] * a[i]).sum()).collect()
                };
                let solve_t = |c: &[f64]| -> Vec<f64> {
                    (0..m).map(|i| (0..m).map(|p| c[p] * binv[p * m + i]).sum()).collect()
                };
                let mut inputs: Vec<Vec<f64>> = (0..std.n_total)
                    .map(|c| {
                        let mut a = vec![0.0; m];
                        std.matrix.scatter_column(c, &mut a);
                        a
                    })
                    .collect();
                inputs.push(std.rhs.clone());
                inputs.push((0..m).map(|_| next() - 0.5).collect());
                for a in &inputs {
                    assert_near(&factor.ftran(&std.matrix, &mut a.clone()), &solve(a));
                    assert_near(&factor.btran(&std.matrix, a), &solve_t(a));
                }
            }
        }

        /// Sparse eta columns give the dense eta loops' FTRAN and BTRAN
        /// results exactly, over random pivot sequences.
        #[test]
        fn sparse_etas_match_the_dense_loops(
            seed in 0u64..u64::MAX,
            requests in 1usize..10,
            stations in 1usize..4,
            slots in 1usize..4,
            extra in 0usize..4,
            pivots in 1usize..40,
        ) {
            let p = mixed_rows(seed, requests, stations, slots, extra);
            let config = RevisedConfig { refactor_every: usize::MAX, ..cfg() };
            let mut ws = Workspace::default();
        let mut rsx = Rsx::cold(StdForm::build(&p, &mut ws), &mut ws);
            let m = rsx.std.m;
            let mut next = uniforms(seed ^ 0xe7a);
            let mut dense = Vec::new();
            for _ in 0..pivots {
                let priced = rsx.std.art_start;
                let col = ((next() * priced as f64) as usize).min(priced - 1);
                if rsx.in_basis[col] {
                    continue;
                }
                let d = rsx.ftran_col(col);
                let rows: Vec<usize> = (0..m).filter(|&r| d[r].abs() > 1e-3).collect();
                let Some(&row) = rows.get((next() * rows.len() as f64) as usize) else {
                    continue;
                };
                let inv = 1.0 / d[row];
                let mut dense_col: Vec<f64> = d.iter().map(|&di| -di * inv).collect();
                dense_col[row] = inv;
                dense.push((row, dense_col));
                rsx.pivot(row, col, &d, &config).unwrap();
            }
            prop_assert_eq!(rsx.etas.len(), dense.len());
            for _ in 0..8 {
                // Exact zeros in the input exercise FTRAN's skipped etas.
                let v: Vec<f64> = (0..m)
                    .map(|_| if next() < 0.4 { 0.0 } else { next() - 0.5 })
                    .collect();
                let (mut sparse_x, mut dense_x) = (v.clone(), v.clone());
                ftran_etas(&rsx.etas, &mut sparse_x);
                dense_ftran_etas(&dense, &mut dense_x);
                prop_assert_eq!(&sparse_x, &dense_x);
                let (mut sparse_y, mut dense_y) = (v.clone(), v);
                btran_etas(&rsx.etas, &mut sparse_y);
                dense_btran_etas(&dense, &mut dense_y);
                prop_assert_eq!(&sparse_y, &dense_y);
            }
        }
    }

    /// The transpose the standard form was first built with, kept as the
    /// reference for the problem's columns plus the standard form's unit
    /// columns: a counting sort into an `entries` temporary, then a column
    /// builder that copies, sorts and coalesces each column and drops exact
    /// zeros, with the unit columns appended after.
    mod old_transpose {
        use super::super::*;

        struct CscBuilder {
            m: usize,
            col_ptr: Vec<usize>,
            row_idx: Vec<u32>,
            values: Vec<f64>,
            scratch: Vec<(usize, f64)>,
        }

        impl CscBuilder {
            fn push_column(&mut self, entries: &[(usize, f64)]) {
                self.scratch.clear();
                self.scratch.extend_from_slice(entries);
                self.scratch.sort_unstable_by_key(|&(r, _)| r);
                let mut last: Option<usize> = None;
                for &(r, v) in &self.scratch {
                    assert!(r < self.m, "row {r} out of range ({} rows)", self.m);
                    if last == Some(r) {
                        *self.values.last_mut().expect("entry just pushed") += v;
                    } else if v != 0.0 {
                        self.row_idx.push(r as u32);
                        self.values.push(v);
                        last = Some(r);
                    }
                }
                self.col_ptr.push(self.row_idx.len());
            }

            fn push_unit(&mut self, row: usize, sign: f64) {
                self.row_idx.push(row as u32);
                self.values.push(sign);
                self.col_ptr.push(self.row_idx.len());
            }
        }

        pub(super) fn csc(problem: &Problem) -> CscMatrix {
            let n = problem.var_count();
            // Each explicit row as its entries, sense and rhs.
            type Stated = (Vec<(usize, f64)>, Cmp, f64);
            let explicit: Vec<Stated> = (0..problem.constraint_count())
                .map(|r| {
                    let (cols, vals) = problem.row(r);
                    let (cmp, rhs) = problem.row_sense(r);
                    (
                        cols.iter()
                            .map(|&v| v as usize)
                            .zip(vals.iter().copied())
                            .collect(),
                        cmp,
                        rhs,
                    )
                })
                .collect();
            let bound_rows: Vec<((usize, f64), f64)> = problem
                .upper_bounds_vec()
                .iter()
                .enumerate()
                .filter_map(|(i, ub)| ub.map(|u| ((i, 1.0), u)))
                .collect();
            let row_coeffs = |r: usize| -> Vec<(usize, f64)> {
                match explicit.get(r) {
                    Some(row) => row.0.clone(),
                    None => vec![bound_rows[r - explicit.len()].0],
                }
            };
            let m = explicit.len() + bound_rows.len();
            let senses = explicit.iter().map(|r| (r.1, r.2));
            let (cmps, negated): (Vec<Cmp>, Vec<bool>) = senses
                .chain(bound_rows.iter().map(|&(_, u)| (Cmp::Le, u)))
                .map(|(cmp, b)| match (b < 0.0, cmp) {
                    (true, Cmp::Le) => (Cmp::Ge, true),
                    (true, Cmp::Ge) => (Cmp::Le, true),
                    (neg, cmp) => (cmp, neg),
                })
                .unzip();
            let mut col_ptr = vec![0usize; n + 1];
            for r in 0..m {
                for &(v, _) in &row_coeffs(r) {
                    col_ptr[v + 1] += 1;
                }
            }
            for j in 0..n {
                col_ptr[j + 1] += col_ptr[j];
            }
            let mut fill = col_ptr.clone();
            let mut entries = vec![(0usize, 0.0f64); col_ptr[n]];
            for (r, &neg) in negated.iter().enumerate() {
                for &(v, c) in &row_coeffs(r) {
                    entries[fill[v]] = (r, if neg { -c } else { c });
                    fill[v] += 1;
                }
            }
            let mut csc = CscBuilder {
                m,
                col_ptr: vec![0],
                row_idx: Vec::new(),
                values: Vec::new(),
                scratch: Vec::new(),
            };
            for j in 0..n {
                csc.push_column(&entries[col_ptr[j]..col_ptr[j + 1]]);
            }
            for (kind, sign) in [(Cmp::Le, 1.0), (Cmp::Ge, -1.0)] {
                for (r, &cmp) in cmps.iter().enumerate() {
                    if cmp == kind {
                        csc.push_unit(r, sign);
                    }
                }
            }
            for (r, &cmp) in cmps.iter().enumerate() {
                if cmp != Cmp::Le {
                    csc.push_unit(r, 1.0);
                }
            }
            CscMatrix::from_parts(m, csc.col_ptr, csc.row_idx, csc.values)
        }
    }

    /// A random program over `n` variables and `m` rows with every feature
    /// the standard form handles: either sense, `≤`/`≥`/`=` rows, negative
    /// rhs, upper bounds, exact-zero coefficients, and duplicate entries
    /// that the problem merges, some to exactly zero. The structure depends
    /// on `seed` alone; `shift` moves the rhs and objective only.
    fn random_problem(seed: u64, n: usize, m: usize, shift: f64) -> Problem {
        let mut next = uniforms(seed);
        let mut moved = uniforms(!seed);
        let mut wobble = || 1.0 + shift * (2.0 * moved() - 1.0);
        let sense = if next() < 0.5 {
            Sense::Maximize
        } else {
            Sense::Minimize
        };
        let mut p = Problem::new(sense);
        let vars: Vec<VarId> = (0..n)
            .map(|_| {
                let c = if next() < 0.1 {
                    0.0
                } else {
                    -2.0 + 7.0 * next()
                };
                p.add_var(c * wobble())
            })
            .collect();
        for &v in &vars {
            if next() < 0.2 {
                p.set_upper_bound(v, 0.5 + 4.5 * next());
            }
        }
        for _ in 0..m {
            let mut coeffs = Vec::new();
            for &v in &vars {
                let u = next();
                if u < 0.1 {
                    coeffs.push((v, 0.0));
                } else if u < 0.2 {
                    // Listed twice: the problem sums them, here to zero.
                    let a = 0.5 + next();
                    coeffs.push((v, a));
                    coeffs.push((v, -a));
                } else if u < 0.3 {
                    coeffs.push((v, 0.5));
                    coeffs.push((v, 1.0));
                } else if u < 0.7 {
                    coeffs.push((v, -2.0 + 5.0 * next()));
                }
            }
            // Descending order takes the merging path even without repeats.
            if next() < 0.5 {
                coeffs.reverse();
            }
            let cmp = match (3.0 * next()) as usize {
                0 => Cmp::Le,
                1 => Cmp::Ge,
                _ => Cmp::Eq,
            };
            p.add_constraint(coeffs, cmp, (-3.0 + 9.0 * next()) * wobble());
        }
        p
    }

    /// Runs `solve`, returning its result with the pivots and
    /// refactorizations it took.
    fn counted<T>(solve: impl FnOnce() -> T) -> (T, u64, u64) {
        let (pivots, refactors) = (crate::pivots_performed(), crate::refactors_performed());
        let out = solve();
        (
            out,
            crate::pivots_performed() - pivots,
            crate::refactors_performed() - refactors,
        )
    }

    /// Every buffer of a workspace as `(address, capacity)`.
    fn buffers(ws: &Workspace) -> Vec<(usize, usize)> {
        fn at<T>(v: &[T], cap: usize) -> (usize, usize) {
            (v.as_ptr() as usize, cap)
        }
        vec![
            at(&ws.col_ptr, ws.col_ptr.capacity()),
            at(&ws.row_idx, ws.row_idx.capacity()),
            at(&ws.values, ws.values.capacity()),
            at(&ws.unit_row, ws.unit_row.capacity()),
            at(&ws.unit_sign, ws.unit_sign.capacity()),
            at(&ws.d, ws.d.capacity()),
            at(&ws.inv_w, ws.inv_w.capacity()),
            at(&ws.in_ref, ws.in_ref.capacity()),
            at(&ws.alpha, ws.alpha.capacity()),
            at(&ws.in_row, ws.in_row.capacity()),
            at(&ws.touched, ws.touched.capacity()),
            at(&ws.in_basis, ws.in_basis.capacity()),
            at(&ws.c1, ws.c1.capacity()),
            at(&ws.c2, ws.c2.capacity()),
        ]
    }

    #[test]
    fn same_shape_resolve_reuses_workspace_buffers() {
        // A `≥` row gives the cold solve a phase 1 and a negated row the
        // standard form its own normalized columns, so every buffer is used.
        let mut p = slot_shaped(3, 10, 3, 4, 0.0);
        p.add_constraint(vec![(VarId(0), 1.0)], Cmp::Ge, 0.1);
        p.add_constraint(vec![(VarId(1), -1.0)], Cmp::Le, -0.05);
        let mut ws = Workspace::default();
        let (_, snap, _) = solve_with_basis(&p, &cfg(), None, &mut ws).unwrap();
        let first = buffers(&ws);
        assert!(first.iter().all(|&(_, cap)| cap > 0), "{first:?}");
        for warm in [None, Some(&snap)] {
            let (_, _, how) = solve_with_basis(&p, &cfg(), warm, &mut ws).unwrap();
            assert_eq!(how == WarmOutcome::Warm, warm.is_some());
            assert_eq!(buffers(&ws), first, "warm: {}", warm.is_some());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The standard form's matrix, the problem's transposed columns
        /// (normalized where rows are negated or bounds appended) and the
        /// unit columns, holds exactly the matrix the old column builder
        /// wrote, bit for bit.
        #[test]
        fn std_form_csc_matches_the_column_builder(
            seed in 0u64..u64::MAX,
            n in 0usize..12,
            m in 0usize..10,
        ) {
            let p = random_problem(seed, n, m, 0.0);
            let want = old_transpose::csc(&p);
            let columns = |std: &StdForm| -> Vec<Vec<(usize, u64)>> {
                (0..std.n_total)
                    .map(|c| std.matrix.column(c).map(|(r, v)| (r, v.to_bits())).collect())
                    .collect()
            };
            let want_columns: Vec<Vec<(usize, u64)>> = (0..want.cols())
                .map(|c| want.column(c).map(|(r, v)| (r, v.to_bits())).collect())
                .collect();
            let mut ws = Workspace::default();
            let std = StdForm::build(&p, &mut ws);
            prop_assert_eq!(std.m, want.rows());
            prop_assert_eq!(columns(&std), want_columns.clone());
            // Refilled buffers give the same matrix again.
            std.release(&mut ws);
            prop_assert_eq!(columns(&StdForm::build(&p, &mut ws)), want_columns);
        }

        /// One workspace driven through a random sequence of problems —
        /// different shapes, infeasible and unbounded ones, and warm
        /// restarts of perturbed neighbours — solves each exactly like a
        /// fresh workspace: same result bit for bit, same basis and start,
        /// same pivot and refactorization counts.
        #[test]
        fn reused_workspace_solves_like_a_fresh_one(
            seed in 0u64..u64::MAX,
            steps in 1usize..10,
        ) {
            let config = RevisedConfig { refactor_every: 5, ..cfg() };
            let mut next = uniforms(seed ^ 0x0b5);
            let mut ws = Workspace::default();
            let mut last: Option<(u64, usize, usize, bool, BasisSnapshot)> = None;
            for step in 0..steps {
                let pick = |len: f64, u: f64| (u * len) as usize;
                let slot = next() < 0.4;
                let (structure, a, b) = match &last {
                    // Half the time, a perturbed neighbour of the last one.
                    Some((structure, a, b, was_slot, _)) if *was_slot == slot && next() < 0.5 => {
                        (*structure, *a, *b)
                    }
                    _ => (seed.wrapping_add(step as u64), 1 + pick(12.0, next()), pick(10.0, next())),
                };
                let shift = 0.3 * next();
                let p = if slot {
                    slot_shaped(structure, a, 1 + b % 3, 1 + b % 4, shift)
                } else {
                    random_problem(structure, a, b, shift)
                };
                let warm = last.as_ref().map(|l| &l.4).filter(|_| next() < 0.8);
                let (got, got_pivots, got_refactors) =
                    counted(|| solve_with_basis(&p, &config, warm, &mut ws));
                let (want, want_pivots, want_refactors) =
                    counted(|| solve_with_basis(&p, &config, warm, &mut Workspace::default()));
                prop_assert_eq!((got_pivots, got_refactors), (want_pivots, want_refactors));
                match (got, want) {
                    (Ok((sol, basis, how)), Ok((want_sol, want_basis, want_how))) => {
                        prop_assert_eq!(sol.values(), want_sol.values());
                        prop_assert_eq!(sol.duals(), want_sol.duals());
                        prop_assert_eq!(sol.objective().to_bits(), want_sol.objective().to_bits());
                        prop_assert_eq!(&basis, &want_basis);
                        prop_assert_eq!(how, want_how);
                        last = Some((structure, a, b, slot, basis));
                    }
                    (got, want) => prop_assert_eq!(got.err(), want.err()),
                }
            }
        }
    }
}
