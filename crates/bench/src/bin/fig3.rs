//! Regenerates Fig 3(a-c): offline total reward, average latency, and
//! running time of `Appro`, `Heu`, `HeuKKT`, `OCORP`, `Greedy` as the
//! number of requests grows from 100 to 300.
//!
//! Usage: `cargo run -p mec-bench --release --bin fig3`
//! (set `MEC_BENCH_RUNS` to change the per-point repetitions, default 5).

use mec_bench::figures::{fig3, runs_from_env};
use mec_bench::Defaults;

fn main() {
    mec_bench::reject_args("fig3 [MEC_BENCH_RUNS=<n> sets the runs per point, default 5]");
    let d = Defaults {
        runs: runs_from_env(5),
        ..Defaults::paper()
    };
    let counts = [100, 150, 200, 250, 300];
    let (reward, latency, runtime) = fig3(&d, &counts);
    for (table, path) in [
        (&reward, "results/fig3a_reward.csv"),
        (&latency, "results/fig3b_latency.csv"),
        (&runtime, "results/fig3c_runtime.csv"),
    ] {
        print!("{}", table.render());
        table.write_csv(path).expect("write csv");
        println!("  -> {path}\n");
    }
}
