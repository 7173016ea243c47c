//! Typed LP problem builder.

use crate::simplex::{self, SimplexConfig};
use crate::solution::{LpError, Solution};
use serde::{Deserialize, Serialize};
use std::fmt;

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

/// One linear constraint row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Row {
    pub coeffs: Vec<(usize, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// A linear program over non-negative variables with optional finite upper
/// bounds.
///
/// All variables satisfy `x ≥ 0`; an upper bound set via
/// [`Problem::set_upper_bound`] is enforced as an internal `x ≤ u` row
/// during solving.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Problem {
    sense: Sense,
    objective: Vec<f64>,
    upper_bounds: Vec<Option<f64>>,
    rows: Vec<Row>,
}

impl Problem {
    /// Creates an empty problem with the given optimization sense.
    pub fn new(sense: Sense) -> Self {
        Self {
            sense,
            objective: Vec::new(),
            upper_bounds: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Removes every variable and constraint, keeping the sense and the
    /// capacity of the objective, the bounds and the row list, so a
    /// problem rebuilt in place reuses them.
    pub fn clear(&mut self) {
        self.objective.clear();
        self.upper_bounds.clear();
        self.rows.clear();
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
        self.objective.push(obj_coeff);
        self.upper_bounds.push(None);
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
        self.upper_bounds[var.0] = Some(upper);
    }

    /// Adds a constraint `Σ coeffs · x  cmp  rhs`.
    ///
    /// Duplicate variable entries are summed. Entries whose ids strictly
    /// increase, as every generated row supplies them, are stored as given
    /// in `O(k)`; any other order takes the `O(k²)` merge.
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
        let dense: Vec<(usize, f64)> = if strictly_increasing(&coeffs) {
            coeffs.into_iter().map(|(v, c)| (v.0, c)).collect()
        } else {
            let mut merged: Vec<(usize, f64)> = Vec::with_capacity(coeffs.len());
            for (v, c) in coeffs {
                if let Some(slot) = merged.iter_mut().find(|(idx, _)| *idx == v.0) {
                    slot.1 += c;
                } else {
                    merged.push((v.0, c));
                }
            }
            merged
        };
        self.rows.push(Row {
            coeffs: dense,
            cmp,
            rhs,
        });
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.objective.len()
    }

    /// Number of explicit constraints (upper bounds not included).
    pub fn constraint_count(&self) -> usize {
        self.rows.len()
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

    pub(crate) fn upper_bounds_vec(&self) -> &[Option<f64>] {
        &self.upper_bounds
    }

    pub(crate) fn rows_vec(&self) -> &[Row] {
        &self.rows
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
        self.rows.iter().all(|row| {
            let lhs: f64 = row.coeffs.iter().map(|&(v, c)| c * point[v]).sum();
            match row.cmp {
                Cmp::Le => lhs <= row.rhs + tol,
                Cmp::Ge => lhs >= row.rhs - tol,
                Cmp::Eq => (lhs - row.rhs).abs() <= tol,
            }
        })
    }
}

/// Whether the variable ids strictly increase, so no entry repeats.
fn strictly_increasing(coeffs: &[(VarId, f64)]) -> bool {
    coeffs.windows(2).all(|w| w[0].0 < w[1].0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0);
        let y = p.add_var(2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0), (x, 2.0)], Cmp::Le, 5.0);
        assert_eq!(p.var_count(), 2);
        assert_eq!(p.constraint_count(), 1);
        // duplicate x entries merged: 1 + 2 = 3
        assert_eq!(p.rows_vec()[0].coeffs, vec![(0, 3.0), (1, 1.0)]);
        assert_eq!(p.objective_coeff(y), 2.0);
    }

    #[test]
    fn increasing_ids_are_stored_as_given() {
        let mut p = Problem::new(Sense::Maximize);
        let v: Vec<VarId> = (0..4).map(|_| p.add_var(1.0)).collect();
        let coeffs = vec![(v[0], 0.5), (v[2], -1.0), (v[3], 0.0)];
        assert!(strictly_increasing(&coeffs));
        p.add_constraint(coeffs, Cmp::Le, 1.0);
        assert_eq!(p.rows_vec()[0].coeffs, vec![(0, 0.5), (2, -1.0), (3, 0.0)]);
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
        assert_eq!(p.rows_vec()[0].coeffs, vec![(0, 3.0), (1, 1.0)]);
        // Decreasing ids keep first-appearance order, exactly as
        // `builder_accumulates` expects of a scattered duplicate.
        let decreasing = vec![(y, 1.0), (x, 1.0), (y, 4.0)];
        assert!(!strictly_increasing(&decreasing));
        p.add_constraint(decreasing, Cmp::Le, 5.0);
        assert_eq!(p.rows_vec()[1].coeffs, vec![(1, 5.0), (0, 1.0)]);
        let descending = vec![(y, 1.0), (x, 2.0)];
        assert!(!strictly_increasing(&descending));
        p.add_constraint(descending, Cmp::Le, 5.0);
        assert_eq!(p.rows_vec()[2].coeffs, vec![(1, 1.0), (0, 2.0)]);
    }

    #[test]
    fn clear_keeps_sense_and_capacity() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(1.0);
        p.set_upper_bound(x, 2.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        let caps = (p.objective.capacity(), p.rows.capacity());
        p.clear();
        assert_eq!(p, Problem::new(Sense::Minimize));
        assert_eq!((p.objective.capacity(), p.rows.capacity()), caps);
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
