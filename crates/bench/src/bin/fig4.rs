//! Regenerates Fig 4(a-b): online total reward and average latency of
//! `DynamicRR`, `HeuKKT`, `OCORP`, `Greedy` as the number of requests
//! grows from 100 to 300.
//!
//! Usage: `cargo run -p mec-bench --release --bin fig4`

use mec_bench::figures::{fig4, runs_from_env};
use mec_bench::Defaults;

fn main() {
    mec_bench::reject_args("fig4 [MEC_BENCH_RUNS=<n> sets the runs per point, default 5]");
    let d = Defaults {
        runs: runs_from_env(5),
        ..Defaults::paper()
    };
    let counts = [100, 150, 200, 250, 300];
    let (reward, latency) = fig4(&d, &counts);
    for (table, path) in [
        (&reward, "results/fig4a_reward.csv"),
        (&latency, "results/fig4b_latency.csv"),
    ] {
        print!("{}", table.render());
        table.write_csv(path).expect("write csv");
        println!("  -> {path}\n");
    }
}
