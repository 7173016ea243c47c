//! The mec-ar benchmark: three workloads, end-to-end metrics from untraced
//! runs, and a per-layer table from a separate traced run.
//!
//! ```text
//! perfbench --workload <serve_steady|dynrr_lp|fig3_offline> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every metric is printed on its own line with its unit and sample count;
//! the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0 when
//! every check passed, 1 when one failed, 2 on a bad command line. See README.md for the
//! workloads, the metric definitions and the layer map.

mod dynrr_lp;
mod fig3_offline;
mod host;
mod report;
mod seeds;
mod serve_steady;
mod stats;
mod trace;

use report::Report;
use std::process::ExitCode;
use std::time::Duration;

/// The workloads, in the order README.md lists them.
const WORKLOADS: [&str; 3] = ["serve_steady", "dynrr_lp", "fig3_offline"];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = seeds::DEFAULT;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; accepted: {}",
            WORKLOADS.join(", ")
        ));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let machine = host::Machine::detect();
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={} cpu={:?}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        machine.nproc,
        machine.cpu_model
    );
    let mut report = Report::new(machine.nproc);
    let run = match args.workload.as_str() {
        "serve_steady" => serve_steady::run,
        "dynrr_lp" => dynrr_lp::run,
        _ => fig3_offline::run,
    };
    run(args.seed, args.seconds, args.trace, &mut report);
    report.add(
        "peak_rss_mb",
        host::peak_rss_mb(),
        "MB",
        None,
        report::Scope::EndToEnd,
    );
    // A failed check still prints its result, then exits non-zero.
    if report.print(args.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
