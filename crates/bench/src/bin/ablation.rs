//! Ablation study of the design choices documented in DESIGN.md §6:
//! threshold learner, grid width κ, `Appro` rounding rounds, and the
//! per-slot assignment path.
//!
//! Usage: `cargo run -p mec-bench --release --bin ablation`

use mec_bench::ablations::{
    assignment_ablation, continuity_extension, kappa_ablation, learner_ablation, rounds_ablation,
    slot_size_ablation,
};
use mec_bench::figures::runs_from_env;
use mec_bench::Defaults;

fn main() {
    mec_bench::reject_args("ablation [MEC_BENCH_RUNS=<n> sets the runs per point, default 3]");
    let d = Defaults {
        runs: runs_from_env(3),
        requests: 300, // the saturated operating point, where choices matter
        ..Defaults::paper()
    };

    let tables = [
        (learner_ablation(&d), "results/ablation_learner.csv"),
        (kappa_ablation(&d), "results/ablation_kappa.csv"),
        (rounds_ablation(&d), "results/ablation_rounds.csv"),
        (assignment_ablation(), "results/ablation_assignment.csv"),
        (slot_size_ablation(&d), "results/ablation_slot_size.csv"),
        (
            continuity_extension(&d, 0.5, 4),
            "results/extension_continuity.csv",
        ),
    ];
    for (table, path) in tables {
        print!("{}", table.render());
        table.write_csv(path).expect("write csv");
        println!("  -> {path}\n");
    }
}
