//! A live terminal view of a running `mec-serve --metrics-addr` server.
//!
//! Scrapes `/healthz`, `/metrics.json`, `/slo.json`, and `/learning.json`
//! over plain TCP and renders one compact frame: run header (uptime,
//! slot), the admission funnel with rates, the per-shard work vs
//! barrier-wait split, fine-grained latency quantiles, live SLO
//! burn-rate state, and — when a learner probe is attached — a learner
//! panel with one sparkline of arm means per shard, eliminated arms
//! marked `·`, and live cumulative regret.
//!
//! ```text
//! mec-obs-top                          # watch 127.0.0.1:9464, 1s cadence
//! mec-obs-top --addr 127.0.0.1:9000 --interval-ms 500
//! mec-obs-top --once                   # one frame, no screen clear (CI smoke)
//! ```
//!
//! Purely an observer: nothing about a run's determinism depends on
//! whether (or how often) this tool scrapes it.

use mec_obs::json::{parse_json, JsonValue};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
mec-obs-top: live terminal view of a mec-serve metrics endpoint

USAGE:
    mec-obs-top [OPTIONS]

OPTIONS:
    --addr HOST:PORT     endpoint to scrape [default: 127.0.0.1:9464]
    --interval-ms MS     refresh cadence [default: 1000]
    --once               render a single frame and exit (no screen clear)
    --help               print this help
";

struct Args {
    addr: String,
    interval_ms: u64,
    once: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:9464".to_string(),
        interval_ms: 1000,
        once: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => args.addr = it.next().ok_or("--addr needs HOST:PORT")?,
            "--interval-ms" => {
                args.interval_ms = it
                    .next()
                    .ok_or("--interval-ms needs a value")?
                    .parse()
                    .map_err(|e| format!("--interval-ms: {e}"))?;
            }
            "--once" => args.once = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// One `GET path` against `addr`; returns the body on a 200, `None` on
/// any other status or transport error.
fn get(addr: &str, path: &str) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .ok()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).ok()?;
    let (head, body) = raw.split_once("\r\n\r\n")?;
    head.starts_with("HTTP/1.1 200").then(|| body.to_string())
}

/// A histogram series pulled out of `/metrics.json`.
struct Hist {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
}

impl Hist {
    fn from_obj(obj: &BTreeMap<String, JsonValue>) -> Option<Self> {
        let arr = |key: &str| -> Option<&[JsonValue]> { obj.get(key)?.as_arr() };
        let bounds: Vec<f64> = arr("bounds")?
            .iter()
            .filter_map(JsonValue::as_f64)
            .collect();
        let counts: Vec<u64> = arr("counts")?
            .iter()
            .filter_map(JsonValue::as_u64)
            .collect();
        (counts.len() == bounds.len() + 1).then(|| Self {
            bounds,
            counts,
            count: obj.get("count").and_then(JsonValue::as_u64).unwrap_or(0),
        })
    }

    fn merge(&mut self, other: &Hist) {
        if other.bounds == self.bounds {
            for (c, o) in self.counts.iter_mut().zip(&other.counts) {
                *c += o;
            }
            self.count += other.count;
        }
    }

    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            }
        }
        f64::INFINITY
    }
}

/// The flat `/metrics.json` object, indexed by full series key
/// (`name{labels}`).
struct Metrics(BTreeMap<String, JsonValue>);

impl Metrics {
    fn scalar(&self, key: &str) -> f64 {
        self.0.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
    }

    /// Sums every series of `name` across label sets (e.g. per-shard
    /// counters).
    fn sum(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| series_name(k) == name)
            .filter_map(|(_, v)| v.as_f64())
            .sum()
    }

    /// Per-shard values of `name`, keyed by the `shard` label.
    fn per_shard(&self, name: &str) -> BTreeMap<u64, f64> {
        self.0
            .iter()
            .filter(|(k, _)| series_name(k) == name)
            .filter_map(|(k, v)| Some((shard_label(k)?, v.as_f64()?)))
            .collect()
    }

    /// All histogram series of `name`, merged across label sets.
    fn histogram(&self, name: &str) -> Option<Hist> {
        let mut merged: Option<Hist> = None;
        for (_, v) in self.0.iter().filter(|(k, _)| series_name(k) == name) {
            let h = Hist::from_obj(v.as_obj()?)?;
            match &mut merged {
                Some(m) => m.merge(&h),
                None => merged = Some(h),
            }
        }
        merged
    }
}

fn series_name(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

fn shard_label(key: &str) -> Option<u64> {
    let (_, rest) = key.split_once("shard=\"")?;
    rest.split('"').next()?.parse().ok()
}

fn fmt_quantile(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "+Inf".to_string()
    }
}

/// One glyph per arm: the empirical mean scaled into `▁..█` across the
/// shard's currently active arms; eliminated arms render as `·`.
fn spark(arms: &[(f64, bool)]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(mean, active) in arms {
        if active && mean.is_finite() {
            lo = lo.min(mean);
            hi = hi.max(mean);
        }
    }
    arms.iter()
        .map(|&(mean, active)| {
            if !active {
                '·'
            } else if !mean.is_finite() || hi <= lo {
                GLYPHS[3]
            } else {
                let t = (mean - lo) / (hi - lo);
                GLYPHS[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

fn render(
    addr: &str,
    health: Option<&str>,
    metrics: Option<&Metrics>,
    slo: Option<&str>,
    learning: Option<&str>,
) -> String {
    let mut out = String::new();
    let push = |out: &mut String, line: String| {
        out.push_str(&line);
        out.push('\n');
    };

    match health {
        Some(body) => {
            let (uptime, scrapes) = parse_json(body).ok().map_or((0.0, 0.0), |v| {
                let get = |k: &str| v.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
                (get("uptime_ms"), get("scrapes"))
            });
            push(
                &mut out,
                format!(
                    "mec-obs-top — {addr}  up {:.0}s  scrapes {scrapes:.0}",
                    uptime / 1e3
                ),
            );
        }
        None => {
            push(&mut out, format!("mec-obs-top — {addr}  (unreachable)"));
            return out;
        }
    }

    let Some(m) = metrics else {
        push(&mut out, "  /metrics.json unavailable".to_string());
        return out;
    };

    let slot = m.scalar("mec_serve_slot");
    let admitted = m.scalar("mec_serve_admitted_total");
    let completed = m.sum("mec_serve_completed_total");
    let expired = m.sum("mec_serve_expired_total");
    let aborted = m.sum("mec_serve_aborted_total");
    let shed = m.scalar("mec_serve_shed_total") + m.scalar("mec_serve_shed_while_down_total");
    let spilled = m.scalar("mec_serve_spilled_total");
    let backlog: f64 = m.per_shard("mec_serve_backlog").values().sum();
    push(&mut out, format!("slot {slot:.0}  backlog {backlog:.0}"));
    push(
        &mut out,
        format!(
            "funnel  admitted {admitted:.0}  completed {completed:.0}  expired {expired:.0}  \
             aborted {aborted:.0}  shed {shed:.0}  spilled {spilled:.0}"
        ),
    );

    // Fine-grained latency quantiles (log-linear buckets, all shards).
    if let Some(h) = m.histogram("mec_serve_latency_fine_ms") {
        if h.count > 0 {
            push(
                &mut out,
                format!(
                    "latency (ms, n={})  p50 {}  p95 {}  p99 {}  p99.9 {}",
                    h.count,
                    fmt_quantile(h.quantile(0.50)),
                    fmt_quantile(h.quantile(0.95)),
                    fmt_quantile(h.quantile(0.99)),
                    fmt_quantile(h.quantile(0.999)),
                ),
            );
        }
    }

    // Per-shard work vs mailbox vs watermark-wait split (always-on stall
    // gauges).
    let work = m.per_shard("mec_serve_work_ms_total");
    let mbox = m.per_shard("mec_serve_mailbox_wait_ms_total");
    let wait = m.per_shard("mec_serve_watermark_wait_ms_total");
    if !work.is_empty() {
        push(
            &mut out,
            "shard  work-ms     mbox-ms     wmark-ms    work%".to_string(),
        );
        for (shard, w) in &work {
            let mb = mbox.get(shard).copied().unwrap_or(0.0);
            let idle = wait.get(shard).copied().unwrap_or(0.0);
            let total = w + mb + idle;
            let share = if total > 0.0 { 100.0 * w / total } else { 0.0 };
            let bar = "#".repeat((share / 5.0).round() as usize);
            push(
                &mut out,
                format!("{shard:>5}  {w:>10.0}  {mb:>10.0}  {idle:>10.0}  {share:>5.1} {bar}"),
            );
        }
    }

    // Learner panel: per-shard arm sparkline + live regret, fed by the
    // `/learning.json` document the serve runtime publishes when a
    // learner probe is attached (`--learner-events`).
    if let Some(doc) = learning.and_then(|body| parse_json(body).ok()) {
        let shards = doc.get("shards").and_then(JsonValue::as_arr).unwrap_or(&[]);
        if !shards.is_empty() {
            push(
                &mut out,
                "learner  (arm means ▁..█, · = eliminated)".to_string(),
            );
            for row in shards {
                let f = |k: &str| row.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
                let arms = row.get("arms").and_then(JsonValue::as_arr).unwrap_or(&[]);
                let states: Vec<(f64, bool)> = arms
                    .iter()
                    .map(|arm| {
                        (
                            arm.get("mean").and_then(JsonValue::as_f64).unwrap_or(0.0),
                            matches!(arm.get("active"), Some(JsonValue::Bool(true))),
                        )
                    })
                    .collect();
                let active_n = states.iter().filter(|(_, a)| *a).count();
                let drift = f("drift_suspected");
                let drift_tag = if drift > 0.0 {
                    format!("  drift x{drift:.0}")
                } else {
                    String::new()
                };
                push(
                    &mut out,
                    format!(
                        "{:>5}  {} {active_n:>3}/{:<3} active  regret {:>9.3}  steps {:.0}{drift_tag}",
                        f("shard"),
                        spark(&states),
                        states.len(),
                        f("regret"),
                        f("steps"),
                    ),
                );
            }
        }
    }

    match slo.and_then(|body| parse_json(body).ok()) {
        Some(doc) => {
            let rows = doc.get("slos").and_then(JsonValue::as_arr).unwrap_or(&[]);
            if !rows.is_empty() {
                push(&mut out, "slo".to_string());
                for row in rows {
                    let s = |k: &str| row.get(k).and_then(JsonValue::as_str).unwrap_or("?");
                    let f = |k: &str| row.get(k).and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
                    let state = match row.get("breached") {
                        Some(JsonValue::Bool(true)) => "BREACHED",
                        Some(JsonValue::Bool(false)) => "ok",
                        _ => "?",
                    };
                    push(
                        &mut out,
                        format!(
                            "  {:<32} {state:>8}  value {:.4}  burn {:.2}/{:.2}  breaches {:.0}",
                            s("spec"),
                            f("value"),
                            f("burn_fast"),
                            f("burn_slow"),
                            f("breaches"),
                        ),
                    );
                }
            }
        }
        None => push(&mut out, "slo: (no engine attached)".to_string()),
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("{msg}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    loop {
        let health = get(&args.addr, "/healthz");
        let metrics = get(&args.addr, "/metrics.json")
            .and_then(|body| parse_json(&body).ok())
            .and_then(|v| match v {
                JsonValue::Obj(map) => Some(Metrics(map)),
                _ => None,
            });
        let slo = get(&args.addr, "/slo.json");
        let learning = get(&args.addr, "/learning.json");

        let frame = render(
            &args.addr,
            health.as_deref(),
            metrics.as_ref(),
            slo.as_deref(),
            learning.as_deref(),
        );
        if args.once {
            print!("{frame}");
            if health.is_none() {
                eprintln!("cannot reach {}", args.addr);
                return ExitCode::from(1);
            }
            return ExitCode::SUCCESS;
        }
        // Clear screen + home, then the frame.
        print!("\x1b[2J\x1b[H{frame}");
        let _ = std::io::stdout().flush();
        std::thread::sleep(Duration::from_millis(args.interval_ms.max(50)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spark_scales_means_and_marks_eliminated() {
        let s = spark(&[(0.1, true), (0.5, true), (0.9, true), (0.7, false)]);
        let glyphs: Vec<char> = s.chars().collect();
        assert_eq!(glyphs.len(), 4);
        assert_eq!(glyphs[0], '▁', "lowest active mean maps to the floor");
        assert_eq!(glyphs[2], '█', "highest active mean maps to the cap");
        assert_eq!(glyphs[3], '·', "eliminated arm renders as a dot");
        // Flat field (single distinct mean) stays mid-glyph, no div-by-zero.
        assert_eq!(spark(&[(0.4, true), (0.4, true)]), "▄▄");
        assert_eq!(spark(&[]), "");
    }

    #[test]
    fn learner_panel_renders_from_learning_doc() {
        let health = r#"{"uptime_ms":1000,"scrapes":3}"#;
        let learning = r#"{"slot":42,"shards":[
            {"shard":0,"regret":1.25,"steps":40,"drift_suspected":2,
             "arms":[{"arm":0,"mean":0.2,"active":true},
                     {"arm":1,"mean":0.8,"active":true},
                     {"arm":2,"mean":0.1,"active":false}]}]}"#;
        let m = Metrics(BTreeMap::new());
        let frame = render("x:1", Some(health), Some(&m), None, Some(learning));
        assert!(frame.contains("learner"), "panel header missing:\n{frame}");
        assert!(frame.contains("2/3"), "active-arm ratio missing:\n{frame}");
        assert!(
            frame.contains("regret     1.250"),
            "regret missing:\n{frame}"
        );
        assert!(frame.contains("drift x2"), "drift tag missing:\n{frame}");
        assert!(frame.contains('·'), "eliminated mark missing:\n{frame}");
        // No learning doc → no panel, frame still renders.
        let bare = render("x:1", Some(health), Some(&m), None, None);
        assert!(!bare.contains("learner"));
    }
}
