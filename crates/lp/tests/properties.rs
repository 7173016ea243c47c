//! Property-based tests for the LP substrate.
//!
//! The centerpiece is **strong duality**: for random bounded-feasible
//! primal programs, the solver must produce primal and dual optima with
//! equal objectives — a property that catches almost any pivoting or
//! bookkeeping bug.

use mec_lp::{revised, solve_binary, BranchBoundConfig, Cmp, Problem, RevisedConfig, Sense, VarId};
use proptest::prelude::*;

/// Builds `max c·x  s.t.  A x ≤ b, x ≥ 0` (feasible at x = 0).
fn primal(a: &[Vec<f64>], b: &[f64], c: &[f64]) -> (Problem, Vec<VarId>) {
    let mut p = Problem::new(Sense::Maximize);
    let vars: Vec<VarId> = c.iter().map(|&cj| p.add_var(cj)).collect();
    for (row, &rhs) in a.iter().zip(b) {
        p.add_constraint(
            vars.iter().zip(row).map(|(&v, &coef)| (v, coef)).collect(),
            Cmp::Le,
            rhs,
        );
    }
    (p, vars)
}

/// Builds the dual `min b·y  s.t.  Aᵀ y ≥ c, y ≥ 0`.
fn dual(a: &[Vec<f64>], b: &[f64], c: &[f64]) -> Problem {
    let mut p = Problem::new(Sense::Minimize);
    let ys: Vec<VarId> = b.iter().map(|&bi| p.add_var(bi)).collect();
    for (j, &cj) in c.iter().enumerate() {
        p.add_constraint(
            ys.iter().enumerate().map(|(i, &y)| (y, a[i][j])).collect(),
            Cmp::Ge,
            cj,
        );
    }
    p
}

fn matrix(m: usize, n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.05f64..3.0, n), m)
}

/// A uniform in `[0, 1)` from a linear congruential stream.
fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 33) as f64) / ((1u64 << 31) as f64)
}

/// A small minimization whose rows cycle through `≥`, `=` and `≤` by
/// seed, so a cold solve starts on artificials; `rhs_scale[k]` scales row
/// `k`'s rhs and leaves everything else as `seed` makes it.
fn mixed_sense_program(seed: u64, rhs_scale: &[f64]) -> Problem {
    let mut s = seed;
    let nv = 4 + (seed % 3) as usize;
    let nc = 3 + (seed % 3) as usize;
    let mut p = Problem::new(Sense::Minimize);
    let vars: Vec<_> = (0..nv)
        .map(|_| p.add_var(0.5 + lcg(&mut s) * 3.0))
        .collect();
    for k in 0..nc {
        let coeffs: Vec<_> = vars.iter().map(|&v| (v, lcg(&mut s) * 2.0)).collect();
        let cmp = match (seed as usize + k) % 3 {
            0 => Cmp::Ge,
            1 => Cmp::Eq,
            _ => Cmp::Le,
        };
        let base = 1.0 + lcg(&mut s) * 4.0;
        p.add_constraint(coeffs, cmp, base * rhs_scale.get(k).copied().unwrap_or(1.0));
    }
    p
}

/// A warm start from a basis that carries artificials, re-aimed at the
/// same program with every rhs rescaled, lands where a cold solve does and
/// stays feasible, or fails exactly when the cold solve fails, over 2 000
/// seeds.
#[test]
fn warm_with_artificials_stays_feasible() {
    let cfg = RevisedConfig::default();
    let mut bad = 0;
    let mut ws = revised::Workspace::default();
    for seed in 0..2000u64 {
        let ones = vec![1.0; 8];
        let p1 = mixed_sense_program(seed, &ones);
        let Ok((_, snap, _)) = revised::solve_with_basis(&p1, &cfg, None, &mut ws) else {
            continue;
        };
        let mut s = seed ^ 0xDEAD;
        let scale: Vec<f64> = (0..8).map(|_| 0.5 + lcg(&mut s)).collect();
        let p2 = mixed_sense_program(seed, &scale);
        let cold = revised::solve(&p2, &cfg);
        let warm = revised::solve_with_basis(&p2, &cfg, Some(&snap), &mut ws);
        match (cold, warm) {
            (Ok(c), Ok((w, _, how))) => {
                let feas = p2.is_feasible(w.values(), 1e-5);
                let agree = (c.objective() - w.objective()).abs() < 1e-5;
                if !feas || !agree {
                    bad += 1;
                    eprintln!(
                        "seed {seed} how {how:?}: feas={feas} cold={} warm={}",
                        c.objective(),
                        w.objective()
                    );
                }
            }
            (Ok(c), Err(e)) => {
                bad += 1;
                eprintln!("seed {seed}: cold ok ({}) warm err {e:?}", c.objective());
            }
            (Err(ce), Ok((w, _, how))) => {
                bad += 1;
                eprintln!(
                    "seed {seed} how {how:?}: cold err {ce:?} warm ok {}",
                    w.objective()
                );
            }
            _ => {}
        }
    }
    assert_eq!(bad, 0, "{bad} divergent seeds");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Strong duality: primal and dual optimal objectives coincide.
    #[test]
    fn strong_duality(
        a in matrix(4, 5),
        b in prop::collection::vec(0.5f64..10.0, 4),
        c in prop::collection::vec(-2.0f64..5.0, 5),
    ) {
        let (p, _) = primal(&a, &b, &c);
        let d = dual(&a, &b, &c);
        let ps = p.solve().expect("primal feasible at origin, bounded (A > 0)");
        let ds = d.solve().expect("dual feasible because primal bounded");
        prop_assert!((ps.objective() - ds.objective()).abs() < 1e-5,
            "duality gap: {} vs {}", ps.objective(), ds.objective());
        prop_assert!(p.is_feasible(ps.values(), 1e-6));
        prop_assert!(d.is_feasible(ds.values(), 1e-6));
    }

    /// The solver's extracted duals are themselves a dual-feasible vector
    /// whose value matches the primal optimum (complementary slackness in
    /// aggregate), and they price the rows correctly: y ≥ 0, Aᵀy ≥ c,
    /// bᵀy = cᵀx*.
    #[test]
    fn extracted_duals_certify_optimality(
        a in matrix(4, 5),
        b in prop::collection::vec(0.5f64..10.0, 4),
        c in prop::collection::vec(-2.0f64..5.0, 5),
    ) {
        let (p, _) = primal(&a, &b, &c);
        let ps = p.solve().expect("feasible and bounded");
        let y = ps.duals();
        prop_assert_eq!(y.len(), 4);
        // Dual feasibility for a max/<= program: y >= 0 and A'y >= c.
        for (i, &yi) in y.iter().enumerate() {
            prop_assert!(yi >= -1e-7, "dual {i} negative: {yi}");
        }
        for j in 0..5 {
            let col: f64 = (0..4).map(|i| a[i][j] * y[i]).sum();
            prop_assert!(col >= c[j] - 1e-6,
                "dual infeasible at column {j}: {col} < {}", c[j]);
        }
        // Strong duality through the certificate.
        let by: f64 = b.iter().zip(y).map(|(bi, yi)| bi * yi).sum();
        prop_assert!((by - ps.objective()).abs() < 1e-5,
            "certificate value {} vs primal {}", by, ps.objective());
        // Complementary slackness: slack rows have zero dual.
        for i in 0..4 {
            let ax: f64 = a[i].iter().zip(ps.values()).map(|(aij, xj)| aij * xj).sum();
            let slack = b[i] - ax;
            prop_assert!(slack * y[i] < 1e-5,
                "row {i}: slack {slack} with dual {}", y[i]);
        }
    }

    /// The LP optimum never falls below the value of any feasible point we
    /// can construct by scaling a random direction into the polytope.
    #[test]
    fn dominates_feasible_points(
        a in matrix(3, 4),
        b in prop::collection::vec(0.5f64..10.0, 3),
        c in prop::collection::vec(0.0f64..5.0, 4),
        dir in prop::collection::vec(0.0f64..1.0, 4),
    ) {
        let (p, _) = primal(&a, &b, &c);
        let s = p.solve().expect("feasible and bounded");
        // Scale `dir` until every row holds: t = min_i b_i / (A_i · dir).
        let mut t = f64::INFINITY;
        for (row, &rhs) in a.iter().zip(&b) {
            let dot: f64 = row.iter().zip(&dir).map(|(x, y)| x * y).sum();
            if dot > 1e-12 {
                t = t.min(rhs / dot);
            }
        }
        if t.is_finite() {
            let point: Vec<f64> = dir.iter().map(|&d| d * t).collect();
            prop_assert!(p.is_feasible(&point, 1e-9));
            let val: f64 = c.iter().zip(&point).map(|(x, y)| x * y).sum();
            prop_assert!(s.objective() >= val - 1e-6,
                "optimum {} below feasible value {}", s.objective(), val);
        }
    }

    /// Presolve never changes the optimum: random mixed-sign objectives over
    /// `≤` constraints solve identically with and without column dropping.
    #[test]
    fn presolve_equivalence(
        a in matrix(4, 6),
        b in prop::collection::vec(0.5f64..10.0, 4),
        c in prop::collection::vec(-3.0f64..5.0, 6),
    ) {
        use mec_lp::simplex::SimplexConfig;
        let (p, _) = primal(&a, &b, &c);
        let with = p.solve_with(&SimplexConfig::default()).expect("solves");
        let without = p
            .solve_with(&SimplexConfig { presolve: false, ..Default::default() })
            .expect("solves");
        prop_assert!((with.objective() - without.objective()).abs() < 1e-6,
            "presolve changed the optimum: {} vs {}", with.objective(), without.objective());
        prop_assert!(p.is_feasible(with.values(), 1e-6));
        for (dw, dn) in with.duals().iter().zip(without.duals()) {
            prop_assert!((dw - dn).abs() < 1e-6, "presolve changed a dual");
        }
    }

    /// The sparse revised simplex agrees with the dense tableau on random
    /// programs: same objective (within 1e-6) and a feasible point.
    #[test]
    fn revised_matches_dense(
        a in matrix(4, 6),
        b in prop::collection::vec(0.5f64..10.0, 4),
        c in prop::collection::vec(-2.0f64..5.0, 6),
    ) {
        let (p, _) = primal(&a, &b, &c);
        let dense = p.solve().expect("feasible at origin, bounded");
        let rev = revised::solve(&p, &RevisedConfig::default()).expect("revised solves");
        prop_assert!((dense.objective() - rev.objective()).abs() < 1e-6,
            "dense {} vs revised {}", dense.objective(), rev.objective());
        prop_assert!(p.is_feasible(rev.values(), 1e-6));
    }

    /// Warm-starting from a neighbouring problem's optimal basis never
    /// changes the answer: after a random rhs perturbation, the warm solve
    /// matches a cold solve of the same program and stays feasible.
    #[test]
    fn warm_restart_matches_cold(
        a in matrix(4, 6),
        b in prop::collection::vec(0.5f64..10.0, 4),
        c in prop::collection::vec(-2.0f64..5.0, 6),
        scale in prop::collection::vec(0.6f64..1.4, 4),
    ) {
        let cfg = RevisedConfig::default();
        let (p, _) = primal(&a, &b, &c);
        let mut ws = revised::Workspace::default();
        let (_, snap, _) =
            revised::solve_with_basis(&p, &cfg, None, &mut ws).expect("cold solve");
        let b2: Vec<f64> = b.iter().zip(&scale).map(|(x, s)| x * s).collect();
        let (p2, _) = primal(&a, &b2, &c);
        let (warm, _, _) =
            revised::solve_with_basis(&p2, &cfg, Some(&snap), &mut ws).expect("warm solve");
        let cold = revised::solve(&p2, &cfg).expect("cold solve of perturbed program");
        prop_assert!((warm.objective() - cold.objective()).abs() < 1e-6,
            "warm {} vs cold {}", warm.objective(), cold.objective());
        prop_assert!(p2.is_feasible(warm.values(), 1e-6));
    }

    /// Branch-and-bound on random knapsacks matches exhaustive search, and
    /// is never better than the LP relaxation.
    #[test]
    fn branch_bound_vs_brute_force(
        values in prop::collection::vec(0.5f64..10.0, 6),
        weights in prop::collection::vec(0.5f64..5.0, 6),
        frac in 0.2f64..0.8,
    ) {
        let cap = weights.iter().sum::<f64>() * frac;
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<VarId> = values.iter().map(|&v| p.add_var(v)).collect();
        p.add_constraint(
            vars.iter().zip(&weights).map(|(&v, &w)| (v, w)).collect(),
            Cmp::Le,
            cap,
        );
        let ilp = solve_binary(&p, &vars, &BranchBoundConfig::default()).expect("feasible");

        // Brute force.
        let n = values.len();
        let mut best = 0.0f64;
        for mask in 0u32..(1 << n) {
            let (mut v, mut w) = (0.0, 0.0);
            for i in 0..n {
                if mask & (1 << i) != 0 {
                    v += values[i];
                    w += weights[i];
                }
            }
            if w <= cap + 1e-12 {
                best = best.max(v);
            }
        }
        prop_assert!((ilp.objective() - best).abs() < 1e-6,
            "bb {} vs brute {}", ilp.objective(), best);

        // LP relaxation upper-bounds the ILP.
        let mut relax = p.clone();
        for &v in &vars {
            relax.set_upper_bound(v, 1.0);
        }
        let lp = relax.solve().expect("relaxation feasible");
        prop_assert!(lp.objective() >= ilp.objective() - 1e-6);
    }
}
