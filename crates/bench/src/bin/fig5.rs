//! Regenerates Fig 5(a-b): total reward and average latency of all six
//! algorithms as the number of base stations grows from 10 to 50
//! (`|R| = 150`).
//!
//! Usage: `cargo run -p mec-bench --release --bin fig5`

use mec_bench::figures::{fig5, runs_from_env};
use mec_bench::Defaults;

fn main() {
    mec_bench::reject_args("fig5 [MEC_BENCH_RUNS=<n> sets the runs per point, default 5]");
    let d = Defaults {
        runs: runs_from_env(5),
        ..Defaults::paper()
    };
    let stations = [10, 20, 30, 40, 50];
    let (reward, latency) = fig5(&d, &stations);
    for (table, path) in [
        (&reward, "results/fig5a_reward.csv"),
        (&latency, "results/fig5b_latency.csv"),
    ] {
        print!("{}", table.render());
        table.write_csv(path).expect("write csv");
        println!("  -> {path}\n");
    }
}
