//! Per-figure experiment drivers.
//!
//! Every function returns [`Table`]s whose columns mirror the series in the
//! paper's plots, and the binaries write them to `results/*.csv`.

use crate::parallel::{mean_rows, parallel_seeds};
use crate::params::Defaults;
use crate::table::Table;
use mec_bandit::{ArmId, BanditPolicy, ConfidenceSchedule, LipschitzDomain, SuccessiveElimination};
use mec_core::appro::solve_relaxation;
use mec_core::model::Realizations;
use mec_core::{
    policy_from_name, Appro, DynamicRr, DynamicRrConfig, Exact, Greedy, Heu, HeuKkt, Ocorp,
    OfflineAlgorithm, POLICY_NAMES,
};
use mec_sim::{Engine, Metrics};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The offline contenders of Fig 3/5, in the paper's legend order.
fn offline_algorithms(seed: u64) -> Vec<Box<dyn OfflineAlgorithm>> {
    vec![
        Box::new(Appro::new(seed)),
        Box::new(Heu::new(seed)),
        Box::new(HeuKkt::new()),
        Box::new(Ocorp::new()),
        Box::new(Greedy::new()),
    ]
}

/// Names for the offline series.
pub const OFFLINE_NAMES: [&str; 5] = ["Appro", "Heu", "HeuKKT", "OCORP", "Greedy"];

/// Averaged (reward, latency ms) of one online policy over `runs` seeds.
/// `burst` switches to the offline-comparable all-at-once arrival world.
fn online_point_with(d: &Defaults, name: &str, burst: bool) -> (f64, f64) {
    let rows = parallel_seeds(d.runs, |seed| {
        let (topo, requests, cfg) = if burst {
            d.online_world_burst(seed)
        } else {
            d.online_world(seed)
        };
        let paths = topo.shortest_paths();
        let mut engine = Engine::new(&topo, &paths, requests, cfg);
        let mut policy = policy_from_name(name, cfg.horizon).expect("name from POLICY_NAMES");
        let m: Metrics = engine
            .run(policy.as_mut())
            .expect("built-in policies produce legal schedules");
        vec![m.total_reward(), m.avg_latency_ms()]
    });
    let mean = mean_rows(&rows);
    (mean[0], mean[1])
}

/// Averaged (reward, latency ms) in the streaming-arrival world.
fn online_point(d: &Defaults, name: &str) -> (f64, f64) {
    online_point_with(d, name, false)
}

/// Fig 3(a-c): offline total reward, average latency, and running time as
/// `|R|` grows.
pub fn fig3(d: &Defaults, request_counts: &[usize]) -> (Table, Table, Table) {
    let mut headers = vec!["|R|"];
    headers.extend(OFFLINE_NAMES);
    let mut reward = Table::new("Fig 3(a): total reward vs |R| (offline)", &headers);
    let mut latency = Table::new("Fig 3(b): average latency (ms) vs |R| (offline)", &headers);
    let mut runtime = Table::new("Fig 3(c): running time (ms) vs |R| (offline)", &headers);
    for &n in request_counts {
        let dn = Defaults { requests: n, ..*d };
        let per_seed = parallel_seeds(d.runs, |seed| {
            let (instance, realized) = dn.offline_instance(seed);
            let mut row = Vec::with_capacity(OFFLINE_NAMES.len() * 3);
            for algo in offline_algorithms(seed) {
                let out = algo
                    .solve(&instance, &realized)
                    .expect("offline algorithms succeed on well-formed instances");
                row.push(out.metrics().total_reward());
                row.push(out.metrics().avg_latency_ms());
                row.push(out.runtime().as_secs_f64() * 1000.0);
            }
            row
        });
        let mean = mean_rows(&per_seed);
        let k_names = OFFLINE_NAMES.len();
        let rew: Vec<f64> = (0..k_names).map(|k| mean[k * 3]).collect();
        let lat: Vec<f64> = (0..k_names).map(|k| mean[k * 3 + 1]).collect();
        let run: Vec<f64> = (0..k_names).map(|k| mean[k * 3 + 2]).collect();
        let row = |vals: &[f64]| {
            let mut cells = vec![n.to_string()];
            cells.extend(vals.iter().map(|v| format!("{v:.1}")));
            cells
        };
        reward.push(row(&rew));
        latency.push(row(&lat));
        runtime.push(row(&run));
    }
    (reward, latency, runtime)
}

/// Fig 4(a-b): online total reward and average latency as `|R|` grows.
pub fn fig4(d: &Defaults, request_counts: &[usize]) -> (Table, Table) {
    let mut headers = vec!["|R|"];
    headers.extend(POLICY_NAMES);
    let mut reward = Table::new("Fig 4(a): total reward vs |R| (online)", &headers);
    let mut latency = Table::new("Fig 4(b): average latency (ms) vs |R| (online)", &headers);
    for &n in request_counts {
        let dn = Defaults { requests: n, ..*d };
        let mut rew_cells = vec![n.to_string()];
        let mut lat_cells = vec![n.to_string()];
        for name in POLICY_NAMES {
            let (r, l) = online_point(&dn, name);
            rew_cells.push(format!("{r:.1}"));
            lat_cells.push(format!("{l:.1}"));
        }
        reward.push(rew_cells);
        latency.push(lat_cells);
    }
    (reward, latency)
}

/// Fig 5(a-b): reward and latency for all six algorithms as `|BS|` grows
/// (offline algorithms on the offline instance, `DynamicRR` in its online
/// setting, exactly as the paper plots them together).
pub fn fig5(d: &Defaults, station_counts: &[usize]) -> (Table, Table) {
    let headers = [
        "|BS|",
        "Appro",
        "Heu",
        "DynamicRR",
        "HeuKKT",
        "OCORP",
        "Greedy",
    ];
    let mut reward = Table::new("Fig 5(a): total reward vs |BS|", &headers);
    let mut latency = Table::new("Fig 5(b): average latency (ms) vs |BS|", &headers);
    for &s in station_counts {
        let ds = Defaults { stations: s, ..*d };
        let per_seed = parallel_seeds(d.runs, |seed| {
            let (instance, realized) = ds.offline_instance(seed);
            let mut row = Vec::with_capacity(10);
            for algo in offline_algorithms(seed) {
                let out = algo
                    .solve(&instance, &realized)
                    .expect("offline algorithms succeed");
                row.push(out.metrics().total_reward());
                row.push(out.metrics().avg_latency_ms());
            }
            row
        });
        let mean = mean_rows(&per_seed);
        let rew: Vec<f64> = (0..5).map(|k| mean[k * 2]).collect();
        let lat: Vec<f64> = (0..5).map(|k| mean[k * 2 + 1]).collect();
        // Burst arrivals and a short horizon: the offline-comparable
        // setting (see `Defaults::online_world_burst`) — the horizon is
        // sized so small networks cannot drain the whole burst, making
        // reward capacity-bound like the offline algorithms.
        let ds_burst = Defaults {
            sim_horizon: 150,
            ..ds
        };
        let (dyn_r, dyn_l) = online_point_with(&ds_burst, "DynamicRR", true);
        // Order: Appro, Heu, DynamicRR, HeuKKT, OCORP, Greedy.
        let rew_cells = vec![
            s.to_string(),
            format!("{:.1}", rew[0]),
            format!("{:.1}", rew[1]),
            format!("{dyn_r:.1}"),
            format!("{:.1}", rew[2]),
            format!("{:.1}", rew[3]),
            format!("{:.1}", rew[4]),
        ];
        let lat_cells = vec![
            s.to_string(),
            format!("{:.1}", lat[0]),
            format!("{:.1}", lat[1]),
            format!("{dyn_l:.1}"),
            format!("{:.1}", lat[2]),
            format!("{:.1}", lat[3]),
            format!("{:.1}", lat[4]),
        ];
        reward.push(rew_cells);
        latency.push(lat_cells);
    }
    (reward, latency)
}

/// Fig 6(a-b): online reward and latency as the maximum data rate grows
/// (rate band `[10, max]` MB/s, matching the paper's 15→35 sweep).
pub fn fig6(d: &Defaults, max_rates: &[f64]) -> (Table, Table) {
    let mut headers = vec!["maxRate"];
    headers.extend(POLICY_NAMES);
    let mut reward = Table::new("Fig 6(a): total reward vs max data rate (online)", &headers);
    let mut latency = Table::new(
        "Fig 6(b): average latency (ms) vs max data rate (online)",
        &headers,
    );
    for &hi in max_rates {
        // The lighter 10-35 MB/s band needs a heavier request mix to reach
        // saturation, where the policies differentiate (the paper keeps
        // |R| at its online default but its absolute load is unknowable;
        // this preserves the knee position instead).
        let dh = Defaults {
            rate_lo: 10.0,
            rate_hi: hi,
            requests: d.requests.max(450),
            ..*d
        };
        let mut rew_cells = vec![format!("{hi:.0}")];
        let mut lat_cells = vec![format!("{hi:.0}")];
        for name in POLICY_NAMES {
            let (r, l) = online_point(&dh, name);
            rew_cells.push(format!("{r:.1}"));
            lat_cells.push(format!("{l:.1}"));
        }
        reward.push(rew_cells);
        latency.push(lat_cells);
    }
    (reward, latency)
}

/// Theorem-3 check, part 1: synthetic Lipschitz-bandit regret curve vs the
/// `√(κ T log T) + T·η·ε` bound.
///
/// The environment's expected reward over the continuous arm value `v ∈
/// [0, 1]` is the η-Lipschitz unimodal `f(v) = 0.9 − η·|v − 0.63|`;
/// rewards are Bernoulli. Reported: measured cumulative pseudo-regret at
/// checkpoints against the (unit-constant) bound.
pub fn regret_curve(kappa: usize, horizon: u64, eta: f64, seed: u64) -> Table {
    let domain = LipschitzDomain::new(0.0, 1.0, kappa);
    let peak = 0.63;
    let f = |v: f64| (0.9 - eta * (v - peak).abs()).clamp(0.0, 1.0);
    let best_discrete = domain.values().into_iter().map(f).fold(f64::MIN, f64::max);
    let mut policy = SuccessiveElimination::new(kappa, ConfidenceSchedule::Horizon(horizon));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut table = Table::new(
        format!("Theorem 3 regret (κ={kappa}, η={eta})"),
        &["T", "regret", "bound", "regret/bound"],
    );
    let mut pseudo_regret = 0.0;
    let continuous_best = 0.9;
    for t in 1..=horizon {
        let arm = policy.select();
        let mean = f(domain.value(arm));
        let r = if rng.gen::<f64>() < mean { 1.0 } else { 0.0 };
        policy.update(arm, r);
        pseudo_regret += continuous_best - mean;
        if t.is_power_of_two() || t == horizon {
            let bound = domain.regret_bound(eta, t);
            table.push(vec![
                t.to_string(),
                format!("{pseudo_regret:.1}"),
                format!("{bound:.1}"),
                format!("{:.3}", pseudo_regret / bound),
            ]);
        }
    }
    let _ = best_discrete;
    table
}

/// Theorem-3 check, part 2: end-to-end `DynamicRR` against every fixed
/// threshold (the best fixed arm is the oracle of the regret definition).
pub fn regret_end_to_end(d: &Defaults) -> Table {
    let mut table = Table::new(
        "DynamicRR vs fixed thresholds (end-to-end)",
        &["threshold (MHz)", "reward"],
    );
    let cfg = DynamicRrConfig::default();
    let domain = LipschitzDomain::new(cfg.threshold_lo_mhz, cfg.threshold_hi_mhz, cfg.kappa);
    let mut best_fixed = f64::MIN;
    for i in 0..cfg.kappa {
        let v = domain.value(ArmId(i));
        let mut reward = 0.0;
        for seed in 0..d.runs {
            let (topo, requests, slot_cfg) = d.online_world(seed);
            let paths = topo.shortest_paths();
            let mut engine = Engine::new(&topo, &paths, requests, slot_cfg);
            let mut policy = DynamicRr::new(DynamicRrConfig {
                threshold_lo_mhz: v,
                threshold_hi_mhz: v,
                kappa: 1,
                horizon_hint: slot_cfg.horizon,
                ..Default::default()
            });
            reward += engine
                .run(&mut policy)
                .expect("fixed-threshold runs are legal")
                .total_reward()
                / d.runs as f64;
        }
        best_fixed = best_fixed.max(reward);
        table.push(vec![format!("{v:.0}"), format!("{reward:.1}")]);
    }
    let mut learner_reward = 0.0;
    for seed in 0..d.runs {
        let (topo, requests, slot_cfg) = d.online_world(seed);
        let paths = topo.shortest_paths();
        let mut engine = Engine::new(&topo, &paths, requests, slot_cfg);
        let mut policy = DynamicRr::new(DynamicRrConfig {
            horizon_hint: slot_cfg.horizon,
            ..Default::default()
        });
        learner_reward += engine
            .run(&mut policy)
            .expect("DynamicRR runs are legal")
            .total_reward()
            / d.runs as f64;
    }
    table.push(vec![
        "DynamicRR (learned)".into(),
        format!("{learner_reward:.1}"),
    ]);
    table.push(vec![
        "regret vs best fixed".into(),
        format!("{:.1}", best_fixed - learner_reward),
    ]);
    table
}

/// Theorem-1 check: `Appro` restricted to one rounding round (the verbatim
/// paper algorithm) against the exact expected optimum, on small instances.
///
/// Reports per-seed `E[Appro] / Opt`; Theorem 1 promises ≥ 1/8.
pub fn approx_ratio(seeds: u64, trials_per_seed: u64) -> Table {
    let mut table = Table::new(
        "Theorem 1: E[Appro (1 round)] / Opt on small instances",
        &["seed", "opt", "appro", "ratio"],
    );
    let mut worst: f64 = f64::INFINITY;
    for seed in 0..seeds {
        let d = Defaults {
            stations: 3,
            requests: 8,
            runs: 1,
            ..Defaults::paper()
        };
        let (instance, _) = d.offline_instance(seed);
        let (opt, _) = Exact::new().solve_ilp(&instance).expect("small ILPs solve");
        let frac = solve_relaxation(&instance).expect("LP solves");
        let mut mean = 0.0;
        for trial in 0..trials_per_seed {
            let realized = Realizations::draw(&instance, seed * 10_000 + trial);
            let out = Appro::new(seed * 131 + trial)
                .rounds(1)
                .round(&instance, &realized, &frac)
                .expect("appro succeeds");
            mean += out.metrics().total_reward() / trials_per_seed as f64;
        }
        let ratio = mean / opt.max(1e-9);
        worst = worst.min(ratio);
        table.push(vec![
            seed.to_string(),
            format!("{opt:.1}"),
            format!("{mean:.1}"),
            format!("{ratio:.3}"),
        ]);
    }
    table.push(vec![
        "worst".into(),
        String::new(),
        String::new(),
        format!("{worst:.3}"),
    ]);
    table
}

/// Convenience used by binaries: environment-variable override for the
/// number of runs per point (`MEC_BENCH_RUNS`).
pub fn runs_from_env(default: u64) -> u64 {
    std::env::var("MEC_BENCH_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Defaults {
        Defaults {
            stations: 4,
            requests: 12,
            runs: 1,
            sim_horizon: 80,
            arrival_horizon: 40,
            duration: (10, 20),
            ..Defaults::paper()
        }
    }

    #[test]
    fn fig3_produces_full_tables() {
        let (r, l, t) = fig3(&tiny(), &[8, 12]);
        assert_eq!(r.len(), 2);
        assert_eq!(l.len(), 2);
        assert_eq!(t.len(), 2);
        // Reward cells parse as positive floats.
        let v: f64 = r.cell(0, 1).parse().unwrap();
        assert!(v > 0.0);
    }

    #[test]
    fn fig4_produces_full_tables() {
        let (r, l) = fig4(&tiny(), &[10]);
        assert_eq!(r.len(), 1);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn fig5_has_six_series() {
        let (r, _) = fig5(&tiny(), &[4]);
        assert_eq!(r.len(), 1);
        // |BS| column + 6 algorithms.
        for col in 1..=6 {
            let v: f64 = r.cell(0, col).parse().unwrap();
            assert!(v >= 0.0);
        }
    }

    #[test]
    fn fig6_sweeps_rates() {
        let (r, l) = fig6(&tiny(), &[15.0, 25.0]);
        assert_eq!(r.len(), 2);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn regret_curve_stays_under_constant_times_bound() {
        let table = regret_curve(8, 4000, 0.5, 7);
        // Last checkpoint: regret / bound comfortably below a small
        // constant (the bound has unit constant).
        let last = table.len() - 1;
        let ratio: f64 = table.cell(last, 3).parse().unwrap();
        assert!(ratio < 3.0, "regret/bound = {ratio}");
    }

    #[test]
    fn approx_ratio_exceeds_eighth() {
        let table = approx_ratio(3, 10);
        let worst: f64 = table.cell(table.len() - 1, 3).parse().unwrap();
        assert!(worst >= 0.125, "worst ratio {worst} below 1/8");
    }

    #[test]
    fn runs_env_default() {
        assert_eq!(runs_from_env(7), 7);
    }
}
