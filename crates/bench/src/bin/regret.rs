//! Theorem-3 regret experiment:
//!
//! 1. Synthetic Lipschitz bandit: cumulative pseudo-regret vs the
//!    `√(κ T log T) + T·η·ε` bound, for several `κ`.
//! 2. End-to-end: `DynamicRR` against every fixed threshold (the regret
//!    oracle).
//!
//! Usage: `cargo run -p mec-bench --release --bin regret`
//! (set `MEC_BENCH_RUNS` to change the end-to-end repetitions, default 3).

use mec_bench::figures::{regret_curve, regret_end_to_end, runs_from_env};
use mec_bench::Defaults;

fn main() {
    mec_bench::reject_args("regret [MEC_BENCH_RUNS=<n> sets the end-to-end runs, default 3]");
    for &kappa in &[4usize, 9, 16] {
        let table = regret_curve(kappa, 20_000, 0.5, 11);
        print!("{}", table.render());
        let path = format!("results/regret_kappa{kappa}.csv");
        table.write_csv(&path).expect("write csv");
        println!("  -> {path}\n");
    }

    // The threshold only matters under saturation (Fig 4's |R| = 300
    // operating point); the unsaturated default would make every arm
    // equally good.
    let d = Defaults {
        runs: runs_from_env(3),
        requests: 300,
        ..Defaults::paper()
    };
    let table = regret_end_to_end(&d);
    print!("{}", table.render());
    table
        .write_csv("results/regret_end_to_end.csv")
        .expect("write csv");
    println!("  -> results/regret_end_to_end.csv");
}
