//! # mec-bench
//!
//! The experiment harness: one driver per figure of the paper's evaluation
//! (§VI), plus the Theorem-1 approximation-ratio and Theorem-3 regret
//! checks. Each driver prints the series the paper plots and writes a CSV
//! under `results/`.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig3` | Fig 3(a-c): offline reward / latency / running time vs `\|R\|` |
//! | `fig4` | Fig 4(a-b): online reward / latency vs `\|R\|` |
//! | `fig5` | Fig 5(a-b): reward / latency vs `\|BS\|` |
//! | `fig6` | Fig 6(a-b): online reward / latency vs max data rate |
//! | `regret` | Theorem 3: cumulative regret vs `O(√(κT log T) + Tηε)` |
//! | `ratio` | Theorem 1: `Appro` (1 round) vs exact optimum ≥ 1/8 |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod figures;
pub mod gate;
pub mod parallel;
pub mod params;
pub mod table;

pub use params::Defaults;
pub use table::Table;

/// Exits with status 2 and `usage` on stderr if the binary was given any
/// argument. The figure drivers take none (`MEC_BENCH_RUNS` sets the
/// repetitions), so a stray one — a typo, a retired flag — must not
/// silently start a minutes-long run.
pub fn reject_args(usage: &str) {
    if let Some(arg) = std::env::args_os().nth(1) {
        eprintln!("unexpected argument {arg:?}\nusage: {usage}");
        std::process::exit(2);
    }
}
