//! Plain-text workload exchange.
//!
//! Experiments should be reproducible outside this process: the codec
//! writes a request set to a self-describing CSV dialect and reads it back
//! bit-exactly (f64 values round-trip through Rust's shortest-repr
//! formatting). One row per request:
//!
//! ```text
//! id,home,arrival,duration,deadline_ms,tasks,demand
//! 0,bs3,0,40,200,render:100:2|track:64:1,30:0.5:400|40:0.3:500
//! ```
//!
//! `tasks` is `kind:output_kb:complexity` pipe-joined; `demand` is
//! `rate:prob:reward` pipe-joined.

use crate::demand::{DemandDistribution, DemandOutcome};
use crate::request::{Request, RequestId};
use crate::task::{Task, TaskKind};
use mec_topology::units::{DataRate, Latency};
use std::fmt;

/// Errors reading a workload file.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The header line did not match the expected columns.
    BadHeader(String),
    /// A row had the wrong number of columns.
    BadRow {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadHeader(h) => write!(f, "unexpected header: {h}"),
            CodecError::BadRow { line, reason } => write!(f, "line {line}: {reason}"),
        }
    }
}

impl std::error::Error for CodecError {}

const HEADER: &str = "id,home,arrival,duration,deadline_ms,tasks,demand";

fn kind_name(kind: TaskKind) -> &'static str {
    match kind {
        TaskKind::Render => "render",
        TaskKind::Track => "track",
        TaskKind::UpdateWorld => "update-world",
        TaskKind::Recognize => "recognize",
        TaskKind::Generic => "generic",
    }
}

fn kind_of(name: &str) -> Option<TaskKind> {
    Some(match name {
        "render" => TaskKind::Render,
        "track" => TaskKind::Track,
        "update-world" => TaskKind::UpdateWorld,
        "recognize" => TaskKind::Recognize,
        "generic" => TaskKind::Generic,
        _ => return None,
    })
}

/// Serializes a request set.
pub fn write_requests(requests: &[Request]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(HEADER);
    out.push('\n');
    for r in requests {
        let tasks: Vec<String> = r
            .tasks()
            .iter()
            .map(|t| {
                format!(
                    "{}:{}:{}",
                    kind_name(t.kind()),
                    t.output_kb(),
                    t.complexity()
                )
            })
            .collect();
        let demand: Vec<String> = r
            .demand()
            .outcomes()
            .iter()
            .map(|o| format!("{}:{}:{}", o.rate.as_mbps(), o.prob, o.reward))
            .collect();
        let _ = writeln!(
            out,
            "{},bs{},{},{},{},{},{}",
            r.id().index(),
            r.home().index(),
            r.arrival_slot(),
            r.duration_slots(),
            r.deadline().as_ms(),
            tasks.join("|"),
            demand.join("|")
        );
    }
    out
}

fn row_err(line: usize, reason: impl Into<String>) -> CodecError {
    CodecError::BadRow {
        line,
        reason: reason.into(),
    }
}

/// Parses a finite, non-negative number: every real-valued field of a row
/// is one, and the constructors it feeds assert so.
fn non_negative(line: usize, field: &str, what: &str) -> Result<f64, CodecError> {
    field
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite() && *v >= 0.0)
        .ok_or_else(|| row_err(line, format!("bad {what} '{field}'")))
}

/// Parses a request set written by [`write_requests`].
///
/// # Errors
///
/// Returns [`CodecError`] on any malformed header, row, task, or demand
/// entry (including demand distributions that fail validation, and any
/// real-valued field that is not a finite, non-negative number): a
/// malformed file is an error, never a panic.
pub fn parse_requests(text: &str) -> Result<Vec<Request>, CodecError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.trim() == HEADER => {}
        Some((_, h)) => return Err(CodecError::BadHeader(h.to_string())),
        None => return Err(CodecError::BadHeader(String::new())),
    }
    let mut requests = Vec::new();
    for (idx, raw) in lines {
        let line = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let cols: Vec<&str> = raw.split(',').collect();
        if cols.len() != 7 {
            return Err(row_err(
                line,
                format!("expected 7 columns, got {}", cols.len()),
            ));
        }
        let id: usize = cols[0]
            .parse()
            .map_err(|_| row_err(line, "bad request id"))?;
        let home: usize = cols[1]
            .strip_prefix("bs")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| row_err(line, "bad home station"))?;
        let arrival: u64 = cols[2].parse().map_err(|_| row_err(line, "bad arrival"))?;
        let duration: u64 = cols[3].parse().map_err(|_| row_err(line, "bad duration"))?;
        let deadline = non_negative(line, cols[4], "deadline")?;
        let tasks: Vec<Task> = cols[5]
            .split('|')
            .map(|t| {
                let parts: Vec<&str> = t.split(':').collect();
                if parts.len() != 3 {
                    return Err(row_err(line, format!("bad task entry '{t}'")));
                }
                let kind = kind_of(parts[0])
                    .ok_or_else(|| row_err(line, format!("bad task kind '{}'", parts[0])))?;
                let size = non_negative(line, parts[1], "task size")?;
                let complexity = non_negative(line, parts[2], "task complexity")?;
                Ok(Task::new(kind, size, complexity))
            })
            .collect::<Result<_, _>>()?;
        let outcomes: Vec<DemandOutcome> = cols[6]
            .split('|')
            .map(|o| {
                let parts: Vec<&str> = o.split(':').collect();
                if parts.len() != 3 {
                    return Err(row_err(line, format!("bad demand entry '{o}'")));
                }
                let rate = non_negative(line, parts[0], "rate")?;
                let prob = non_negative(line, parts[1], "prob")?;
                let reward = non_negative(line, parts[2], "reward")?;
                Ok(DemandOutcome {
                    rate: DataRate::mbps(rate),
                    prob,
                    reward,
                })
            })
            .collect::<Result<_, _>>()?;
        let demand = DemandDistribution::new(outcomes)
            .map_err(|e| row_err(line, format!("invalid demand: {e}")))?;
        requests.push(Request::new(
            RequestId(id),
            home.into(),
            arrival,
            duration,
            tasks,
            demand,
            Latency::ms(deadline),
        ));
    }
    Ok(requests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadBuilder;
    use mec_topology::TopologyBuilder;

    #[test]
    fn roundtrip_is_exact() {
        let topo = TopologyBuilder::new(6).seed(9).build();
        let requests = WorkloadBuilder::new(&topo).seed(9).count(25).build();
        let text = write_requests(&requests);
        let back = parse_requests(&text).unwrap();
        assert_eq!(requests, back);
    }

    #[test]
    fn empty_set_roundtrips() {
        let text = write_requests(&[]);
        assert_eq!(parse_requests(&text).unwrap(), Vec::new());
    }

    #[test]
    fn header_checked() {
        assert!(matches!(
            parse_requests("nope\n"),
            Err(CodecError::BadHeader(_))
        ));
        assert!(matches!(parse_requests(""), Err(CodecError::BadHeader(_))));
    }

    #[test]
    fn malformed_rows_rejected() {
        let bad_cols = format!("{HEADER}\n1,2,3\n");
        assert!(matches!(
            parse_requests(&bad_cols),
            Err(CodecError::BadRow { line: 2, .. })
        ));
        let bad_demand = format!("{HEADER}\n0,bs0,0,10,200,render:64:1,30:0.5:100\n");
        // Probabilities don't sum to 1.
        let err = parse_requests(&bad_demand).unwrap_err();
        assert!(matches!(err, CodecError::BadRow { line: 2, .. }));
        assert!(err.to_string().contains("invalid demand"));
    }

    #[test]
    fn negative_or_non_finite_numbers_rejected() {
        for row in [
            "0,bs0,0,10,-5,render:64:1,30:1:100",
            "0,bs0,0,10,NaN,render:64:1,30:1:100",
            "0,bs0,0,10,inf,render:64:1,30:1:100",
            "0,bs0,0,10,200,render:-1:1,30:1:100",
            "0,bs0,0,10,200,render:64:-2,30:1:100",
            "0,bs0,0,10,200,render:64:1,NaN:1:100",
            "0,bs0,0,10,200,render:64:1,30:NaN:100",
            "0,bs0,0,10,200,render:64:1,30:1:inf",
        ] {
            let err = parse_requests(&format!("{HEADER}\n{row}\n")).unwrap_err();
            assert!(matches!(err, CodecError::BadRow { line: 2, .. }), "{row}");
        }
    }

    #[test]
    fn blank_lines_skipped() {
        let topo = TopologyBuilder::new(3).seed(1).build();
        let requests = WorkloadBuilder::new(&topo).seed(1).count(2).build();
        let mut text = write_requests(&requests);
        text.push('\n');
        assert_eq!(parse_requests(&text).unwrap().len(), 2);
    }
}
