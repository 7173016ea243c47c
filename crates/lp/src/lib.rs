//! # mec-lp
//!
//! Linear-programming substrate for the ICDCS'21 reproduction. The paper's
//! `Appro`/`Heu` algorithms solve a slot-indexed LP relaxation and its exact
//! baseline solves an ILP; no off-the-shelf solver is available offline, so
//! this crate implements:
//!
//! * a typed [`Problem`] builder (maximize/minimize, `≤ / ≥ / =` rows,
//!   optional upper bounds),
//! * a **two-phase dense primal simplex** ([`simplex`]) with Devex pricing
//!   and a Bland anti-cycling fallback,
//! * a **sparse revised simplex** ([`revised`]) over CSC columns
//!   ([`sparse`]) with an eta-file basis inverse, periodic
//!   refactorization, and warm starts from a [`BasisSnapshot`] — the fast
//!   path for the slot-indexed LP; the dense tableau stays the oracle,
//! * a **branch-and-bound** solver ([`branch_bound`]) for problems with
//!   binary variables.
//!
//! ## Example
//!
//! ```
//! use mec_lp::{Problem, Sense, Cmp};
//!
//! // max 3x + 2y  s.t.  x + y <= 4,  x <= 2,  x,y >= 0
//! let mut p = Problem::new(Sense::Maximize);
//! let x = p.add_var(3.0);
//! let y = p.add_var(2.0);
//! p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
//! p.add_constraint(vec![(x, 1.0)], Cmp::Le, 2.0);
//! let sol = p.solve().unwrap();
//! assert!((sol.objective() - 10.0).abs() < 1e-6);
//! assert!((sol.value(x) - 2.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod branch_bound;
mod devex;
pub mod problem;
pub mod revised;
pub mod simplex;
pub mod solution;
pub mod sparse;

pub use branch_bound::{solve_binary, BranchBoundConfig};
pub use problem::{Cmp, Problem, Sense, VarId};
pub use revised::{BasisCol, BasisSnapshot, RevisedConfig, SolverKind, WarmOutcome};
pub use simplex::{pivots_performed, refactors_performed};
pub use solution::{LpError, Solution, Status};
