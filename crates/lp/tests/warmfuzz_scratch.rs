use mec_lp::{revised, Cmp, Problem, RevisedConfig, Sense};

fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 33) as f64) / ((1u64 << 31) as f64)
}

fn build(seed: u64, rhs_scale: &[f64]) -> Problem {
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

#[test]
fn warm_with_artificials_stays_feasible() {
    let cfg = RevisedConfig::default();
    let mut bad = 0;
    let mut ws = revised::Workspace::default();
    for seed in 0..2000u64 {
        let ones = vec![1.0; 8];
        let p1 = build(seed, &ones);
        let Ok((_, snap, _)) = revised::solve_with_basis(&p1, &cfg, None, &mut ws) else {
            continue;
        };
        let mut s = seed ^ 0xDEAD;
        let scale: Vec<f64> = (0..8).map(|_| 0.5 + lcg(&mut s)).collect();
        let p2 = build(seed, &scale);
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
