//! Regenerates Fig 6(a-b): online total reward and average latency of
//! `DynamicRR`, `HeuKKT`, `OCORP`, `Greedy` as the maximum data rate grows
//! from 15 to 35 MB/s (band `[10, max]`).
//!
//! Usage: `cargo run -p mec-bench --release --bin fig6`

use mec_bench::figures::{fig6, runs_from_env};
use mec_bench::Defaults;

fn main() {
    mec_bench::reject_args("fig6 [MEC_BENCH_RUNS=<n> sets the runs per point, default 5]");
    let d = Defaults {
        runs: runs_from_env(5),
        ..Defaults::paper()
    };
    let rates = [15.0, 20.0, 25.0, 30.0, 35.0];
    let (reward, latency) = fig6(&d, &rates);
    for (table, path) in [
        (&reward, "results/fig6a_reward.csv"),
        (&latency, "results/fig6b_latency.csv"),
    ] {
        print!("{}", table.render());
        table.write_csv(path).expect("write csv");
        println!("  -> {path}\n");
    }
}
