//! Two-phase dense primal simplex.
//!
//! Internally everything is a *minimization* over `x ≥ 0` in standard form:
//! `≤` rows get slacks, `≥` rows get a surplus and an artificial, `=` rows
//! get an artificial. Phase 1 minimizes the artificial sum to find a basic
//! feasible point; phase 2 minimizes the (possibly negated) objective.
//! Pricing is Devex (`devex.rs`): the entering column maximizes
//! `d_j²/w_j` over reference weights that start at 1 with each phase and
//! that every pivot raises from its own tableau row,
//! `w_j = max(w_j, (α_rj/α_rq)²·w_q)`, the leaving column taking
//! `max(w_q/α_rq², 1)`, where `w_q` is the entering column's exact weight
//! read off its tableau column. The sparse revised simplex applies the same
//! rule to its pivot row and FTRAN column, so the two solvers walk the same
//! vertices up to rounding. After a configurable number of pivots, pricing
//! switches to Bland's rule to guarantee termination under degeneracy.

use crate::devex;
use crate::problem::{Cmp, Problem, Sense};
use crate::solution::{LpError, Solution};
use serde::{Deserialize, Serialize};

/// Tuning knobs for the simplex.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimplexConfig {
    /// Hard cap on pivots per phase.
    pub max_iterations: usize,
    /// Pivot/zero tolerance.
    pub eps: f64,
    /// After this many pivots in a phase, switch from Devex to Bland's
    /// anti-cycling rule.
    pub bland_after: usize,
    /// Drop provably-zero columns before building the tableau (sound for
    /// any problem; a large win on the slot-indexed LP, where a third of
    /// the `y` variables have zero reward).
    pub presolve: bool,
}

impl Default for SimplexConfig {
    fn default() -> Self {
        Self {
            max_iterations: 50_000,
            eps: 1e-9,
            bland_after: 10_000,
            presolve: true,
        }
    }
}

/// Dense tableau: `m` rows over `n_total` columns plus the rhs, a cost row,
/// and the current basis.
struct Tableau {
    m: usize,
    n_total: usize,
    /// First artificial column index; columns `>= art_start` never enter.
    art_start: usize,
    a: Vec<f64>, // m x n_total, row-major
    b: Vec<f64>,
    cost: Vec<f64>, // reduced costs, length n_total
    z: f64,         // current objective value (of the phase's cost)
    basis: Vec<usize>,
    /// Devex weights of the columns below `art_start`, as reciprocals.
    inv_w: Vec<f64>,
    /// Devex's reference framework: the columns below `art_start` that
    /// were nonbasic when the phase started.
    in_ref: Vec<bool>,
}

impl Tableau {
    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * self.n_total + c]
    }

    /// Installs a phase cost vector `c` and reduces it against the current
    /// basis so basic columns have zero reduced cost.
    fn install_cost(&mut self, c: &[f64]) {
        self.cost.clear();
        self.cost.extend_from_slice(c);
        self.cost.resize(self.n_total, 0.0);
        self.z = 0.0;
        for r in 0..self.m {
            let cb = self.cost[self.basis[r]];
            if cb != 0.0 {
                let row = &self.a[r * self.n_total..(r + 1) * self.n_total];
                for (j, cj) in self.cost.iter_mut().enumerate() {
                    *cj -= cb * row[j];
                }
                self.z -= cb * self.b[r];
            }
        }
    }

    /// One pivot on (row, col).
    fn pivot(&mut self, row: usize, col: usize) {
        let n = self.n_total;
        let pivot_val = self.at(row, col);
        debug_assert!(pivot_val.abs() > 0.0, "zero pivot");
        // Normalize the pivot row.
        {
            let r = &mut self.a[row * n..(row + 1) * n];
            let inv = 1.0 / pivot_val;
            for v in r.iter_mut() {
                *v *= inv;
            }
            self.b[row] *= inv;
        }
        // Eliminate the pivot column elsewhere.
        for k in 0..self.m {
            if k == row {
                continue;
            }
            let factor = self.at(k, col);
            if factor != 0.0 {
                let (head, tail) = self.a.split_at_mut(k.max(row) * n);
                let (src, dst) = if row < k {
                    (&head[row * n..row * n + n], &mut tail[..n])
                } else {
                    (&tail[..n], &mut head[k * n..k * n + n])
                };
                for (d, s) in dst.iter_mut().zip(src) {
                    *d -= factor * s;
                }
                self.b[k] -= factor * self.b[row];
            }
        }
        // Cost row.
        let factor = self.cost[col];
        if factor != 0.0 {
            let src = &self.a[row * n..(row + 1) * n];
            for (c, s) in self.cost.iter_mut().zip(src) {
                *c -= factor * s;
            }
            self.z -= factor * self.b[row];
        }
        self.basis[row] = col;
    }

    /// Raises the Devex weights from row `row` before `col` enters there:
    /// every column the row touches by the formula, then the leaving
    /// column afresh. Basic columns take stray updates too; a basic column's
    /// weight is never read, and it is set anew when the column leaves.
    fn update_weights(&mut self, row: usize, col: usize) {
        let n = self.n_total;
        let is_ref = |c: usize| c < self.art_start && self.in_ref[c];
        let wq = devex::entering_weight(
            is_ref(col),
            (0..self.m).map(|i| (is_ref(self.basis[i]), self.a[i * n + col])),
        );
        let pivot_row = &self.a[row * n..row * n + self.art_start];
        let step = devex::Step::new(wq, pivot_row[col]);
        for (inv_wj, &a) in self.inv_w.iter_mut().zip(pivot_row) {
            if a != 0.0 {
                *inv_wj = step.raise(*inv_wj, a);
            }
        }
        if let Some(inv_w) = self.inv_w.get_mut(self.basis[row]) {
            *inv_w = step.leaving();
        }
    }

    /// Runs pivots until optimal / unbounded / iteration cap.
    fn optimize(&mut self, config: &SimplexConfig) -> Result<(), LpError> {
        // The columns nonbasic at the phase's start are the reference
        // framework, every weight 1.
        self.inv_w.clear();
        self.inv_w.resize(self.art_start, 1.0);
        self.in_ref.clear();
        self.in_ref.resize(self.art_start, true);
        for &b in &self.basis {
            if let Some(r) = self.in_ref.get_mut(b) {
                *r = false;
            }
        }
        for iter in 0..config.max_iterations {
            let bland = iter >= config.bland_after;
            // Entering column: artificials never re-enter. Devex takes the
            // largest `d_j²/w_j`, the lowest index on ties within `eps`,
            // exactly as the revised solver does with its own reduced costs.
            let entering: Option<usize> = if bland {
                // Bland: first improving index.
                (0..self.art_start).find(|&j| self.cost[j] < -config.eps)
            } else {
                devex::pick(&self.cost[..self.art_start], &self.inv_w, config.eps)
            };
            let Some(col) = entering else {
                return Ok(()); // optimal
            };
            // Ratio test; ties broken by smallest basis index (lexical
            // safeguard that complements Bland's rule).
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..self.m {
                let a_rc = self.at(r, col);
                if a_rc > config.eps {
                    let ratio = self.b[r] / a_rc;
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
            self.update_weights(row, col);
            self.pivot(row, col);
            note_pivot();
        }
        Err(LpError::IterationLimit)
    }
}

thread_local! {
    /// Cumulative pivots performed on this thread, across both phases
    /// and branch-and-bound node relaxations. A pivot is O(m·n) dense
    /// row work, so the single cell increment is free by comparison and
    /// stays always-on.
    static PIVOTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

pub(crate) fn note_pivot() {
    PIVOTS.with(|c| c.set(c.get().wrapping_add(1)));
}

/// Total simplex pivots performed by the calling thread so far (a
/// monotonically increasing count; callers diff it around a solve to
/// attribute iterations to that solve).
pub fn pivots_performed() -> u64 {
    PIVOTS.with(std::cell::Cell::get)
}

thread_local! {
    /// Cumulative basis refactorizations on this thread (revised simplex
    /// only — the dense tableau never refactorizes). Same diff-around-a-
    /// solve contract as [`pivots_performed`].
    static REFACTORS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

pub(crate) fn note_refactor() {
    REFACTORS.with(|c| c.set(c.get().wrapping_add(1)));
}

/// Total basis refactorizations performed by the calling thread so far.
pub fn refactors_performed() -> u64 {
    REFACTORS.with(std::cell::Cell::get)
}

/// A variable can be fixed to 0 without losing optimality when it cannot
/// help the objective (sense-adjusted coefficient pulls the wrong way) and
/// cannot help feasibility: in every `≤` row (after rhs normalization) its
/// coefficient only consumes slack, and it does not appear in any `≥`/`=`
/// row. Returns the keep-mask.
fn presolve_mask(problem: &Problem) -> Vec<bool> {
    let n = problem.var_count();
    let helps_objective = |j: usize| match problem.sense() {
        Sense::Maximize => problem.objective_vec()[j] > 0.0,
        Sense::Minimize => problem.objective_vec()[j] < 0.0,
    };
    let mut keep: Vec<bool> = (0..n).map(helps_objective).collect();
    for r in 0..problem.constraint_count() {
        // Normalized cmp/coefficient signs (rhs < 0 flips both).
        let (row_cmp, rhs) = problem.row_sense(r);
        let flip = rhs < 0.0;
        let cmp = match (row_cmp, flip) {
            (Cmp::Le, false) | (Cmp::Ge, true) => Cmp::Le,
            (Cmp::Le, true) | (Cmp::Ge, false) => Cmp::Ge,
            (Cmp::Eq, _) => Cmp::Eq,
        };
        let (cols, vals) = problem.row(r);
        for (&v, &c) in cols.iter().zip(vals) {
            let c = if flip { -c } else { c };
            let blocks_drop = match cmp {
                Cmp::Le => c < 0.0,            // could relax the row: must keep
                Cmp::Ge | Cmp::Eq => c != 0.0, // could be needed for feasibility
            };
            if blocks_drop {
                keep[v as usize] = true;
            }
        }
    }
    keep
}

/// Solves `problem`, translating to/from the internal minimization form.
///
/// # Errors
///
/// [`LpError::Infeasible`], [`LpError::Unbounded`] (in the problem's own
/// sense), or [`LpError::IterationLimit`].
pub fn solve(problem: &Problem, config: &SimplexConfig) -> Result<Solution, LpError> {
    // Presolve: solve the column-reduced problem and scatter zeros back.
    if config.presolve {
        let keep = presolve_mask(problem);
        if keep.iter().any(|&k| !k) {
            let mut reduced = Problem::new(problem.sense());
            let mut map = vec![None; problem.var_count()];
            for (j, &k) in keep.iter().enumerate() {
                if k {
                    let v = reduced.add_var(problem.objective_vec()[j]);
                    if let Some(&Some(u)) = problem.upper_bounds_vec().get(j) {
                        reduced.set_upper_bound(v, u);
                    }
                    map[j] = Some(v);
                }
            }
            for r in 0..problem.constraint_count() {
                let (cols, vals) = problem.row(r);
                let coeffs: Vec<_> = cols
                    .iter()
                    .zip(vals)
                    .filter_map(|(&v, &c)| map[v as usize].map(|nv| (nv, c)))
                    .collect();
                // Dropped variables are fixed at 0, so the row carries over
                // with the surviving coefficients and the same rhs.
                let (cmp, rhs) = problem.row_sense(r);
                reduced.add_constraint(coeffs, cmp, rhs);
            }
            let inner = SimplexConfig {
                presolve: false,
                ..*config
            };
            let sol = solve(&reduced, &inner)?;
            let mut values = vec![0.0; problem.var_count()];
            for (j, m) in map.iter().enumerate() {
                if let Some(v) = m {
                    values[j] = sol.value(*v);
                }
            }
            let duals = sol.duals().to_vec();
            return Ok(Solution::with_duals(sol.objective(), values, duals));
        }
    }

    let n = problem.var_count();

    // Collect rows: explicit constraints plus upper-bound rows.
    struct NormRow {
        coeffs: Vec<(usize, f64)>,
        cmp: Cmp,
        rhs: f64,
    }
    let mut rows: Vec<NormRow> = (0..problem.constraint_count())
        .map(|r| {
            let (cols, vals) = problem.row(r);
            let (cmp, rhs) = problem.row_sense(r);
            NormRow {
                coeffs: cols
                    .iter()
                    .map(|&v| v as usize)
                    .zip(vals.iter().copied())
                    .collect(),
                cmp,
                rhs,
            }
        })
        .collect();
    for (i, ub) in problem.upper_bounds_vec().iter().enumerate() {
        if let Some(u) = ub {
            rows.push(NormRow {
                coeffs: vec![(i, 1.0)],
                cmp: Cmp::Le,
                rhs: *u,
            });
        }
    }
    // Normalize to rhs >= 0, remembering which rows flipped (their dual
    // values flip back at extraction).
    let mut negated = vec![false; rows.len()];
    for (r, row) in rows.iter_mut().enumerate() {
        if row.rhs < 0.0 {
            negated[r] = true;
            row.rhs = -row.rhs;
            for c in &mut row.coeffs {
                c.1 = -c.1;
            }
            row.cmp = match row.cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
        }
    }

    let m = rows.len();
    let n_slack = rows.iter().filter(|r| r.cmp == Cmp::Le).count();
    let n_surplus = rows.iter().filter(|r| r.cmp == Cmp::Ge).count();
    let n_art = rows.iter().filter(|r| r.cmp != Cmp::Le).count();
    let art_start = n + n_slack + n_surplus;
    let n_total = art_start + n_art;

    let mut t = Tableau {
        m,
        n_total,
        art_start,
        a: vec![0.0; m * n_total],
        b: vec![0.0; m],
        cost: Vec::new(),
        z: 0.0,
        basis: vec![0; m],
        inv_w: Vec::new(),
        in_ref: Vec::new(),
    };

    let mut next_slack = n;
    let mut next_surplus = n + n_slack;
    let mut next_art = art_start;
    // Per row: the auxiliary column whose phase-2 reduced cost encodes the
    // row's dual value, and the sign relating it to `y_i` (internal min
    // convention).
    let mut dual_col: Vec<(usize, f64)> = Vec::with_capacity(m);
    for (r, row) in rows.iter().enumerate() {
        for &(v, c) in &row.coeffs {
            t.a[r * n_total + v] += c;
        }
        t.b[r] = row.rhs;
        match row.cmp {
            Cmp::Le => {
                t.a[r * n_total + next_slack] = 1.0;
                t.basis[r] = next_slack;
                // d_slack = 0 - y·e_i = -y_i.
                dual_col.push((next_slack, -1.0));
                next_slack += 1;
            }
            Cmp::Ge => {
                t.a[r * n_total + next_surplus] = -1.0;
                t.a[r * n_total + next_art] = 1.0;
                t.basis[r] = next_art;
                // d_surplus = 0 - y·(-e_i) = +y_i.
                dual_col.push((next_surplus, 1.0));
                next_surplus += 1;
                next_art += 1;
            }
            Cmp::Eq => {
                t.a[r * n_total + next_art] = 1.0;
                t.basis[r] = next_art;
                // d_art = 0 - y·e_i = -y_i (artificials cost 0 in phase 2).
                dual_col.push((next_art, -1.0));
                next_art += 1;
            }
        }
    }

    // Phase 1: minimize the artificial sum.
    if n_art > 0 {
        let mut c1 = vec![0.0; n_total];
        for c in c1.iter_mut().skip(art_start) {
            *c = 1.0;
        }
        t.install_cost(&c1);
        t.optimize(config)?;
        // install_cost tracked -z; phase-1 objective is c1·x = -t.z? No:
        // we maintained z as the *negated* accumulation; recompute the
        // artificial mass directly from the basis for clarity.
        let art_mass: f64 = (0..t.m)
            .filter(|&r| t.basis[r] >= art_start)
            .map(|r| t.b[r])
            .sum();
        if art_mass > 1e-7 {
            return Err(LpError::Infeasible);
        }
        // Drive remaining (degenerate) artificials out of the basis where a
        // non-zero non-artificial pivot exists; all-zero rows are redundant
        // and stay harmlessly basic at value 0.
        for r in 0..t.m {
            if t.basis[r] >= art_start {
                if let Some(col) = (0..art_start).find(|&j| t.at(r, j).abs() > config.eps) {
                    t.pivot(r, col);
                    note_pivot();
                }
            }
        }
    }

    // Phase 2: minimize the (sense-adjusted) objective.
    let sign = match problem.sense() {
        Sense::Maximize => -1.0,
        Sense::Minimize => 1.0,
    };
    let mut c2 = vec![0.0; n_total];
    for (j, &c) in problem.objective_vec().iter().enumerate() {
        c2[j] = sign * c;
    }
    t.install_cost(&c2);
    // Unbounded in the internal minimization is unbounded in the user's
    // sense as well, so errors pass through unchanged.
    t.optimize(config)?;

    let mut x = vec![0.0; n];
    for r in 0..t.m {
        let v = t.basis[r];
        if v < n {
            // Numerical dust below zero is clamped.
            x[v] = t.b[r].max(0.0);
        }
    }
    let objective = problem.objective_at(&x);

    // Dual values: the phase-2 reduced cost of each row's auxiliary column
    // encodes y_i in the internal minimization; translate back through the
    // rhs-normalization flip and the sense flip, and keep only the
    // explicit constraint rows (upper-bound rows were appended last).
    let explicit = problem.constraint_count();
    let mut duals = Vec::with_capacity(explicit);
    for (r, &(col, to_y)) in dual_col.iter().enumerate().take(explicit) {
        let y_internal = t.cost[col] * to_y;
        let unflip = if negated[r] { -1.0 } else { 1.0 };
        duals.push(sign * y_internal * unflip);
    }
    Ok(Solution::with_duals(objective, x, duals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Cmp, Problem, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn presolve_drops_useless_columns_without_changing_the_optimum() {
        // max 3x + 0y - z  s.t. x + y + z <= 4: y and z can never help.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(3.0);
        let y = p.add_var(0.0);
        let z = p.add_var(-1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0), (z, 1.0)], Cmp::Le, 4.0);
        let keep = super::presolve_mask(&p);
        assert_eq!(keep, vec![true, false, false]);
        let with = p.solve_with(&SimplexConfig::default()).unwrap();
        let without = p
            .solve_with(&SimplexConfig {
                presolve: false,
                ..Default::default()
            })
            .unwrap();
        assert_close(with.objective(), 12.0);
        assert_close(with.objective(), without.objective());
        assert_eq!(with.value(y), 0.0);
        assert_eq!(with.value(z), 0.0);
        assert_eq!(with.duals().len(), 1);
        assert_close(with.duals()[0], without.duals()[0]);
    }

    #[test]
    fn presolve_keeps_columns_needed_for_feasibility() {
        // min y s.t. x + y >= 3, x <= 1: y has cost but is needed; x is
        // free to use (cost 0) but appears in a >= row, so it must stay.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0);
        let y = p.add_var(1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 3.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 1.0);
        let keep = super::presolve_mask(&p);
        assert_eq!(keep, vec![true, true]);
        let s = p.solve().unwrap();
        assert_close(s.objective(), 2.0);
    }

    #[test]
    fn presolve_respects_negative_rhs_flips() {
        // x - y <= -2 normalizes to y - x >= 2: x (cost 0) participates in
        // a (normalized) >= row and must be kept.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0);
        let y = p.add_var(-1.0);
        p.add_constraint(vec![(x, 1.0), (y, -1.0)], Cmp::Le, -2.0);
        let keep = super::presolve_mask(&p);
        assert_eq!(keep, vec![true, true]);
        let s = p.solve().unwrap();
        // Optimum: y = 2, x = 0 → objective -2.
        assert_close(s.objective(), -2.0);
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
        let s = p.solve().unwrap();
        assert_close(s.objective(), 36.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 6.0);
    }

    #[test]
    fn minimization_with_ge() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1 → (4, 0)? cost 8 vs (1,3):
        // 2+9=11; optimum x=4,y=0 → 8.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(2.0);
        let y = p.add_var(3.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        let s = p.solve().unwrap();
        assert_close(s.objective(), 8.0);
        assert_close(s.value(x), 4.0);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y = 3, x - y = 1 → (2, 1), z = 3.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 3.0);
        p.add_constraint(vec![(x, 1.0), (y, -1.0)], Cmp::Eq, 1.0);
        let s = p.solve().unwrap();
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
        assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0);
        let y = p.add_var(0.0);
        p.add_constraint(vec![(x, -1.0), (y, 1.0)], Cmp::Le, 1.0);
        assert_eq!(p.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x - y <= -2 with max x + 0y, x <= 5 → x + ... need y >= x + 2;
        // y unbounded? y has no cost; max x s.t. y >= x + 2, x <= 5 → x = 5.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0);
        let y = p.add_var(0.0);
        p.add_constraint(vec![(x, 1.0), (y, -1.0)], Cmp::Le, -2.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 5.0);
        let s = p.solve().unwrap();
        assert_close(s.objective(), 5.0);
        assert!(s.value(y) >= 7.0 - 1e-6);
    }

    #[test]
    fn upper_bounds_enforced() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0);
        p.set_upper_bound(x, 0.5);
        let s = p.solve().unwrap();
        assert_close(s.objective(), 0.5);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degeneracy: multiple constraints active at the optimum.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 1.0);
        p.add_constraint(vec![(y, 1.0)], Cmp::Le, 1.0);
        p.add_constraint(vec![(x, 2.0), (y, 1.0)], Cmp::Le, 2.0);
        let s = p.solve().unwrap();
        assert_close(s.objective(), 1.0);
    }

    #[test]
    fn zero_variable_problem() {
        let p = Problem::new(Sense::Maximize);
        let s = p.solve().unwrap();
        assert_close(s.objective(), 0.0);
        assert!(s.values().is_empty());
    }

    #[test]
    fn redundant_equality_rows() {
        // x + y = 2 twice: redundant artificial row must not break phase 2.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0);
        let y = p.add_var(2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0);
        let s = p.solve().unwrap();
        assert_close(s.objective(), 4.0);
        assert_close(s.value(y), 2.0);
    }

    #[test]
    fn solution_is_feasible_for_random_like_instance() {
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..6).map(|i| p.add_var(1.0 + i as f64 * 0.3)).collect();
        for k in 0..4 {
            let coeffs = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, ((i + k) % 3) as f64 + 0.5))
                .collect();
            p.add_constraint(coeffs, Cmp::Le, 10.0 + k as f64);
        }
        let s = p.solve().unwrap();
        assert!(p.is_feasible(s.values(), 1e-6));
    }

    #[test]
    fn pivot_counter_advances_across_a_solve() {
        let before = pivots_performed();
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(3.0);
        let y = p.add_var(2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 2.0);
        p.solve().unwrap();
        let delta = pivots_performed() - before;
        assert!(delta > 0, "a non-trivial solve must pivot at least once");
        assert!(delta < 1_000, "tiny LP cannot need {delta} pivots");
    }
}
