//! Theorem-1 experiment: the expected reward of the verbatim (single
//! rounding round) `Appro` against the exact ILP-RM optimum on small
//! instances — the paper proves the ratio is at least 1/8.
//!
//! Usage: `cargo run -p mec-bench --release --bin ratio`

use mec_bench::figures::approx_ratio;

fn main() {
    mec_bench::reject_args("ratio (takes no arguments)");
    let table = approx_ratio(10, 40);
    print!("{}", table.render());
    table
        .write_csv("results/approx_ratio.csv")
        .expect("write csv");
    println!("  -> results/approx_ratio.csv");
}
