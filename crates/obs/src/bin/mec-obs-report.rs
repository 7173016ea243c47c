//! Renders a post-hoc run report from a `mec-serve --trace-out` JSONL
//! trace: admission funnel, request lifecycles, arm-elimination
//! timeline, learning and flight-recorder sections, fault/restart log,
//! per-shard latency histograms, final bandit state.
//!
//! ```text
//! mec-obs-report events.jsonl
//! mec-serve --trace-out - ... | mec-obs-report -
//! ```
//!
//! A truncated final line (the writer was killed mid-flush) does not
//! hide the rest of the run: the report is rendered from the complete
//! lines, the truncation is diagnosed on stderr, and the exit code is
//! nonzero so scripts still notice. A file whose lines are not trace
//! events (no `slot` or `kind`) is refused with the first such line's
//! number.

use std::io::{BufRead, BufReader, Read};
use std::process::ExitCode;

const USAGE: &str = "\
mec-obs-report: render a run report from a mec-serve trace

USAGE:
    mec-obs-report <TRACE.jsonl>    read a trace ('-' for stdin)
    mec-obs-report --help           print this help
";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let path = match args.next() {
        Some(p) if p == "--help" || p == "-h" => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
        Some(p) => p,
        None => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.next().is_some() {
        eprintln!("too many arguments\n\n{USAGE}");
        return ExitCode::from(2);
    }

    let reader: Box<dyn Read> = if path == "-" {
        Box::new(std::io::stdin())
    } else {
        match std::fs::File::open(&path) {
            Ok(f) => Box::new(f),
            Err(e) => {
                eprintln!("cannot open trace {path:?}: {e}");
                return ExitCode::from(2);
            }
        }
    };

    let mut lines = Vec::new();
    for line in BufReader::new(reader).lines() {
        match line {
            Ok(line) => lines.push(line),
            Err(e) => {
                eprintln!("cannot read trace {path:?}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    // 1-based number of the last non-blank line: an error exactly there
    // is (very likely) a truncated final write, not a corrupt stream.
    let last_line_no = lines
        .iter()
        .rposition(|l| !l.trim().is_empty())
        .map(|i| i + 1);
    let Some(last_line_no) = last_line_no else {
        eprintln!("trace {path:?} is empty: no events to report");
        return ExitCode::FAILURE;
    };

    match mec_obs::build_report(&lines) {
        Ok(report) => {
            print!("{}", report.render());
            ExitCode::SUCCESS
        }
        // A last line that is not even JSON is a torn write; one that is
        // JSON but no trace event says the file is not a trace.
        Err((line_no, e))
            if line_no == last_line_no
                && mec_obs::json::parse_flat_object(&lines[line_no - 1]).is_err() =>
        {
            // Salvage everything before the torn tail.
            match mec_obs::build_report(&lines[..line_no - 1]) {
                Ok(report) => {
                    print!("{}", report.render());
                    eprintln!(
                        "trace {path:?}: last line {line_no} is truncated ({e}); \
                         reported the {} complete event(s) before it",
                        report.events
                    );
                    ExitCode::FAILURE
                }
                Err((line_no, e)) => {
                    eprintln!("trace {path:?} line {line_no}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err((line_no, e)) => {
            eprintln!("trace {path:?} line {line_no}: {e}");
            ExitCode::FAILURE
        }
    }
}
