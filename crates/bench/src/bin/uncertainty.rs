//! Price of uncertainty: every algorithm against the clairvoyant hindsight
//! bound (the LP relaxation of the realized assignment problem — an upper
//! bound no policy can beat). The gap to it is what the paper's
//! slot-indexed design is trying to shrink.
//!
//! Usage: `cargo run -p mec-bench --release --bin uncertainty`

use mec_bench::figures::runs_from_env;
use mec_bench::{Defaults, Table};
use mec_core::{hindsight_bound, Appro, Greedy, Heu, HeuKkt, Ocorp, OfflineAlgorithm};

fn main() {
    mec_bench::reject_args("uncertainty [MEC_BENCH_RUNS=<n> sets the runs, default 5]");
    let d = Defaults {
        runs: runs_from_env(5),
        requests: 300,
        ..Defaults::paper()
    };
    let mut table = Table::new(
        "Price of uncertainty (|R| = 300, clairvoyant LP bound = 100%)",
        &["algorithm", "reward", "% of hindsight"],
    );
    let mut bound_total = 0.0;
    let mut rewards = [0.0f64; 5];
    for seed in 0..d.runs {
        let (instance, realized) = d.offline_instance(seed);
        bound_total += hindsight_bound(&instance, &realized).expect("bound LP solves");
        let algos: Vec<Box<dyn OfflineAlgorithm>> = vec![
            Box::new(Appro::new(seed)),
            Box::new(Heu::new(seed)),
            Box::new(HeuKkt::new()),
            Box::new(Ocorp::new()),
            Box::new(Greedy::new()),
        ];
        for (k, algo) in algos.iter().enumerate() {
            rewards[k] += algo
                .solve(&instance, &realized)
                .expect("solve succeeds")
                .metrics()
                .total_reward();
        }
    }
    table.push(vec![
        "hindsight (bound)".into(),
        format!("{:.1}", bound_total / d.runs as f64),
        "100.0%".into(),
    ]);
    for (k, name) in ["Appro", "Heu", "HeuKKT", "OCORP", "Greedy"]
        .iter()
        .enumerate()
    {
        table.push(vec![
            name.to_string(),
            format!("{:.1}", rewards[k] / d.runs as f64),
            format!("{:.1}%", 100.0 * rewards[k] / bound_total),
        ]);
    }
    print!("{}", table.render());
    table
        .write_csv("results/uncertainty.csv")
        .expect("write csv");
    println!("  -> results/uncertainty.csv");
}
