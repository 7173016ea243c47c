//! Perf-regression gate: diff freshly generated `BENCH_*.json` results
//! against committed baselines.
//!
//! ```text
//! mec-bench-gate --baseline results --current /tmp/bench-now
//! mec-bench-gate --baseline results --current results --inject-slowdown 2.0
//! ```
//!
//! Exit code 0 when every benchmark stays within its threshold, 1 on
//! any regression, 2 on usage or IO errors.

use mec_bench::gate::{compare, load_dir, Thresholds};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
mec-bench-gate: perf-regression gate over BENCH_*.json result files

USAGE:
    mec-bench-gate --baseline DIR --current DIR [OPTIONS]

OPTIONS:
    --baseline <DIR>          directory holding the committed baselines
    --current <DIR>           directory holding the fresh results
    --default-threshold <F>   relative slowdown allowed before failing
                              [default: 0.5, i.e. +50%]
    --threshold <NAME=F>      per-benchmark override; NAME matches a full
                              result label (e.g. solve/120) or a bench
                              file name (e.g. handoff_stall); repeatable
    --inject-slowdown <F>     scale current medians by F before comparing
                              (CI negative test: 2.0 must FAIL the gate)
    --update-baselines        after printing the comparison, copy every
                              current BENCH_*.json over its baseline and
                              exit 0 (refreshing committed baselines)
    --help                    print this help
";

struct Args {
    baseline: PathBuf,
    current: PathBuf,
    thresholds: Thresholds,
    slowdown: f64,
    update_baselines: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut baseline, mut current) = (None, None);
    let mut thresholds = Thresholds::default();
    let mut slowdown = 1.0f64;
    let mut update_baselines = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n\n{USAGE}"))
        };
        match flag.as_str() {
            "--baseline" => baseline = Some(PathBuf::from(value("--baseline")?)),
            "--current" => current = Some(PathBuf::from(value("--current")?)),
            "--default-threshold" => {
                thresholds.default = parse_frac(&value("--default-threshold")?)?;
            }
            "--threshold" => {
                let spec = value("--threshold")?;
                let (name, frac) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--threshold wants NAME=FRACTION, got {spec:?}"))?;
                thresholds
                    .overrides
                    .insert(name.to_string(), parse_frac(frac)?);
            }
            "--inject-slowdown" => {
                slowdown = value("--inject-slowdown")?
                    .parse()
                    .map_err(|_| "could not parse --inject-slowdown".to_string())?;
                if slowdown <= 0.0 {
                    return Err("--inject-slowdown must be positive".to_string());
                }
            }
            "--update-baselines" => update_baselines = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n\n{USAGE}")),
        }
    }
    Ok(Args {
        baseline: baseline.ok_or(format!("--baseline is required\n\n{USAGE}"))?,
        current: current.ok_or(format!("--current is required\n\n{USAGE}"))?,
        thresholds,
        slowdown,
        update_baselines,
    })
}

/// Copies every `BENCH_*.json` in `current` over `baseline`, returning the
/// refreshed file names.
fn refresh_baselines(baseline: &Path, current: &Path) -> Result<Vec<String>, String> {
    let mut copied = Vec::new();
    let entries =
        std::fs::read_dir(current).map_err(|e| format!("read {}: {e}", current.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", current.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let dst = baseline.join(&name);
        std::fs::copy(entry.path(), &dst).map_err(|e| format!("copy {name}: {e}"))?;
        copied.push(name);
    }
    copied.sort();
    Ok(copied)
}

fn parse_frac(s: &str) -> Result<f64, String> {
    let f: f64 = s
        .parse()
        .map_err(|_| format!("could not parse threshold {s:?}"))?;
    if !(0.0..=100.0).contains(&f) {
        return Err(format!("threshold {f} out of range"));
    }
    Ok(f)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let (baselines, currents) = match (load_dir(&args.baseline), load_dir(&args.current)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if baselines.is_empty() {
        eprintln!(
            "no BENCH_*.json baselines in {}; nothing to gate",
            args.baseline.display()
        );
        return ExitCode::from(2);
    }
    if args.slowdown != 1.0 {
        eprintln!(
            "note: scaling current medians by {} (injected slowdown)",
            args.slowdown
        );
    }
    let outcome = compare(&baselines, &currents, &args.thresholds, args.slowdown);
    print!("{}", outcome.render());
    if args.update_baselines {
        match refresh_baselines(&args.baseline, &args.current) {
            Ok(copied) => {
                for name in &copied {
                    println!("refreshed {name}");
                }
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
    }
    if outcome.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
