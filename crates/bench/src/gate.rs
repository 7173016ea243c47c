//! Perf-regression gate over normalized `BENCH_*.json` result files.
//!
//! The vendored criterion shim writes one `BENCH_<target>.json` per
//! bench target under `results/` (median / p95 nanoseconds per labelled
//! benchmark). This module diffs a *current* directory of such files
//! against a committed *baseline* directory: a benchmark regresses when
//! its current median exceeds the baseline median by more than its
//! relative-noise threshold. Speedups, new benchmarks, and benchmarks
//! missing from one side never fail the gate — only slowdowns do.
//!
//! Thresholds are deliberately loose by default (50% — micro-benchmarks
//! on shared CI runners are noisy); per-benchmark overrides use
//! `--threshold name=frac` where `name` matches a full result label or
//! a bench file name.

use mec_obs::json::{parse_json, JsonValue};
use std::collections::BTreeMap;

/// One benchmark's numbers from a `BENCH_*.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Full label, `group/function/param`.
    pub name: String,
    /// Median nanoseconds per iteration (the gated statistic).
    pub median_ns: u64,
    /// 95th-percentile nanoseconds per iteration (reported, not gated).
    pub p95_ns: u64,
}

/// One parsed `BENCH_<bench>.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// The bench target name (`handoff_stall`, `obs_registry`, ...).
    pub bench: String,
    /// Per-benchmark timings.
    pub entries: Vec<BenchEntry>,
}

/// Parses the normalized result JSON written by the criterion shim.
///
/// # Errors
///
/// Returns a message describing the first structural problem: invalid
/// JSON, wrong `schema`, or a result missing `name`/`median_ns`.
pub fn parse_report(text: &str) -> Result<BenchReport, String> {
    let value = parse_json(text).map_err(|e| e.to_string())?;
    let obj = value.as_obj().ok_or("top level is not an object")?;
    let schema = obj.get("schema").and_then(JsonValue::as_u64);
    if schema != Some(1) {
        return Err(format!("unsupported schema {schema:?} (expected 1)"));
    }
    let bench = obj
        .get("bench")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"bench\" name")?
        .to_string();
    let results = obj
        .get("results")
        .and_then(JsonValue::as_arr)
        .ok_or("missing \"results\" array")?;
    let mut entries = Vec::with_capacity(results.len());
    for (i, r) in results.iter().enumerate() {
        let robj = r
            .as_obj()
            .ok_or_else(|| format!("results[{i}] is not an object"))?;
        let field = |key: &str| {
            robj.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("results[{i}] missing numeric \"{key}\""))
        };
        entries.push(BenchEntry {
            name: robj
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("results[{i}] missing \"name\""))?
                .to_string(),
            median_ns: field("median_ns")?,
            p95_ns: field("p95_ns")?,
        });
    }
    Ok(BenchReport { bench, entries })
}

/// Relative-noise thresholds, keyed by result label or bench name.
#[derive(Debug, Clone)]
pub struct Thresholds {
    /// Fallback fraction when no override matches.
    pub default: f64,
    /// `label -> fraction` overrides (full result label wins over the
    /// bench file name).
    pub overrides: BTreeMap<String, f64>,
}

impl Default for Thresholds {
    fn default() -> Self {
        Self {
            // Generous on purpose: medians of 10-sample micro-benches on
            // a busy CI runner routinely wobble by tens of percent.
            default: 0.5,
            overrides: BTreeMap::new(),
        }
    }
}

impl Thresholds {
    /// The fraction applied to one benchmark of one bench target.
    pub fn for_bench(&self, bench: &str, label: &str) -> f64 {
        self.overrides
            .get(label)
            .or_else(|| self.overrides.get(bench))
            .copied()
            .unwrap_or(self.default)
    }
}

/// The verdict on one benchmark present in the baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within threshold (or faster).
    Pass,
    /// Slower than `baseline * (1 + threshold)`.
    Regressed,
    /// Present in the baseline but absent from the current run.
    Missing,
}

/// One compared benchmark.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Bench target the benchmark belongs to.
    pub bench: String,
    /// Full result label.
    pub name: String,
    /// Baseline median ns.
    pub baseline_ns: u64,
    /// Current median ns (0 when missing).
    pub current_ns: u64,
    /// Threshold fraction that applied.
    pub threshold: f64,
    /// The verdict.
    pub verdict: Verdict,
}

impl Comparison {
    /// Current-over-baseline ratio (1.0 = unchanged).
    pub fn ratio(&self) -> f64 {
        if self.baseline_ns == 0 {
            return 1.0;
        }
        self.current_ns as f64 / self.baseline_ns as f64
    }
}

/// The gate's full output.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    /// One row per baseline benchmark.
    pub comparisons: Vec<Comparison>,
    /// Labels present only in the current run (informational).
    pub new_benchmarks: Vec<String>,
}

impl GateOutcome {
    /// True when no benchmark regressed.
    pub fn passed(&self) -> bool {
        self.comparisons
            .iter()
            .all(|c| c.verdict != Verdict::Regressed)
    }

    /// Number of regressions.
    pub fn regressions(&self) -> usize {
        self.comparisons
            .iter()
            .filter(|c| c.verdict == Verdict::Regressed)
            .count()
    }

    /// Renders the human-readable table the gate binary prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.comparisons {
            let status = match c.verdict {
                Verdict::Pass => "ok  ",
                Verdict::Regressed => "FAIL",
                Verdict::Missing => "miss",
            };
            out.push_str(&format!(
                "{status}  {}/{}: {} -> {} ns ({:+.1}%, allowed +{:.0}%)\n",
                c.bench,
                c.name,
                c.baseline_ns,
                c.current_ns,
                (c.ratio() - 1.0) * 100.0,
                c.threshold * 100.0,
            ));
        }
        for name in &self.new_benchmarks {
            out.push_str(&format!("new   {name} (no baseline)\n"));
        }
        let verdict = if self.passed() { "PASS" } else { "FAIL" };
        out.push_str(&format!(
            "gate: {verdict} ({} compared, {} regressed, {} new)\n",
            self.comparisons.len(),
            self.regressions(),
            self.new_benchmarks.len(),
        ));
        out
    }
}

/// Diffs current reports against baselines.
///
/// `slowdown` scales every current median before comparison; `1.0` is a
/// plain diff, while CI's negative test passes `2.0` to prove the gate
/// would catch a uniform 2× slowdown.
pub fn compare(
    baselines: &[BenchReport],
    currents: &[BenchReport],
    thresholds: &Thresholds,
    slowdown: f64,
) -> GateOutcome {
    let current_index: BTreeMap<(String, String), u64> = currents
        .iter()
        .flat_map(|r| {
            r.entries.iter().map(|e| {
                let scaled = (e.median_ns as f64 * slowdown).round() as u64;
                ((r.bench.clone(), e.name.clone()), scaled)
            })
        })
        .collect();
    let mut outcome = GateOutcome::default();
    let mut seen = std::collections::BTreeSet::new();
    for base in baselines {
        for e in &base.entries {
            let key = (base.bench.clone(), e.name.clone());
            seen.insert(key.clone());
            let threshold = thresholds.for_bench(&base.bench, &e.name);
            let (current_ns, verdict) = match current_index.get(&key) {
                None => (0, Verdict::Missing),
                Some(&cur) => {
                    let limit = e.median_ns as f64 * (1.0 + threshold);
                    if cur as f64 > limit {
                        (cur, Verdict::Regressed)
                    } else {
                        (cur, Verdict::Pass)
                    }
                }
            };
            outcome.comparisons.push(Comparison {
                bench: base.bench.clone(),
                name: e.name.clone(),
                baseline_ns: e.median_ns,
                current_ns,
                threshold,
                verdict,
            });
        }
    }
    for (bench, name) in current_index.keys() {
        if !seen.contains(&(bench.clone(), name.clone())) {
            outcome.new_benchmarks.push(format!("{bench}/{name}"));
        }
    }
    outcome
}

/// Loads every `BENCH_*.json` in a directory.
///
/// # Errors
///
/// Returns a message when the directory cannot be read, a file cannot
/// be read, or a file fails to parse. An empty directory yields an
/// empty list (the caller decides whether that is fatal).
pub fn load_dir(dir: &std::path::Path) -> Result<Vec<BenchReport>, String> {
    let mut reports = Vec::new();
    let mut names: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    names.sort();
    for path in names {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        reports.push(parse_report(&text).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(bench: &str, medians: &[(&str, u64)]) -> BenchReport {
        BenchReport {
            bench: bench.to_string(),
            entries: medians
                .iter()
                .map(|&(name, median_ns)| BenchEntry {
                    name: name.to_string(),
                    median_ns,
                    p95_ns: median_ns * 2,
                })
                .collect(),
        }
    }

    #[test]
    fn parses_shim_output() {
        let text = criterion::render_report(
            "demo",
            &[criterion::BenchStats {
                name: "g/f/10".into(),
                samples: 5,
                mean_ns: 120,
                median_ns: 100,
                p95_ns: 180,
                throughput_iters_per_sec: 8.3e6,
            }],
        );
        let parsed = parse_report(&text).unwrap();
        assert_eq!(parsed.bench, "demo");
        assert_eq!(
            parsed.entries,
            vec![BenchEntry {
                name: "g/f/10".into(),
                median_ns: 100,
                p95_ns: 180,
            }]
        );
    }

    #[test]
    fn rejects_wrong_schema_and_garbage() {
        assert!(parse_report("{\"schema\":2,\"bench\":\"x\",\"results\":[]}").is_err());
        assert!(parse_report("not json").is_err());
        assert!(parse_report("{\"schema\":1,\"results\":[]}").is_err());
    }

    #[test]
    fn identical_runs_pass() {
        let base = vec![report("lp", &[("solve/10", 1000), ("solve/20", 5000)])];
        let outcome = compare(&base, &base, &Thresholds::default(), 1.0);
        assert!(outcome.passed());
        assert_eq!(outcome.comparisons.len(), 2);
        assert!(outcome.new_benchmarks.is_empty());
    }

    #[test]
    fn noise_within_threshold_passes_but_2x_slowdown_fails() {
        let base = vec![report("lp", &[("solve/10", 1000)])];
        let wobbly = vec![report("lp", &[("solve/10", 1400)])];
        let t = Thresholds::default();
        assert!(compare(&base, &wobbly, &t, 1.0).passed(), "+40% is noise");
        // The CI negative test: an injected uniform 2x slowdown must trip
        // the gate even though the rerun itself was clean.
        let outcome = compare(&base, &base, &t, 2.0);
        assert!(!outcome.passed());
        assert_eq!(outcome.regressions(), 1);
        assert!(outcome.render().contains("FAIL"));
    }

    #[test]
    fn per_bench_threshold_overrides_apply() {
        let base = vec![report("lp", &[("solve/10", 1000)])];
        let cur = vec![report("lp", &[("solve/10", 1200)])];
        let mut t = Thresholds::default();
        t.overrides.insert("solve/10".into(), 0.1);
        assert!(!compare(&base, &cur, &t, 1.0).passed(), "label override");
        t.overrides.clear();
        t.overrides.insert("lp".into(), 0.1);
        assert!(!compare(&base, &cur, &t, 1.0).passed(), "bench override");
        t.overrides.insert("solve/10".into(), 0.5);
        assert!(compare(&base, &cur, &t, 1.0).passed(), "label beats bench");
    }

    #[test]
    fn missing_and_new_benchmarks_do_not_fail() {
        let base = vec![report("lp", &[("gone/1", 1000)])];
        let cur = vec![report("lp", &[("fresh/1", 1000)])];
        let outcome = compare(&base, &cur, &Thresholds::default(), 1.0);
        assert!(outcome.passed());
        assert_eq!(outcome.comparisons[0].verdict, Verdict::Missing);
        assert_eq!(outcome.new_benchmarks, vec!["lp/fresh/1".to_string()]);
    }

    #[test]
    fn speedups_always_pass() {
        let base = vec![report("lp", &[("solve/10", 10_000)])];
        let fast = vec![report("lp", &[("solve/10", 100)])];
        assert!(compare(&base, &fast, &Thresholds::default(), 1.0).passed());
    }
}
