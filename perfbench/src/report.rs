//! Metric collection, correctness accounting and the output format.
//!
//! The human-readable lines come first: one per metric with its unit and
//! sample count, one per failed check. The last line is the JSON result.
//! The JSON carries exactly the metrics named in `BENCHMARK.json`: the
//! end-to-end set for untraced runs, the per-layer set for traced runs.

use crate::host::Cost;
use crate::trace::Tracer;
use mec_sim::Metrics;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// End-to-end metrics, as listed in `BENCHMARK.json`. Every workload
/// reports each of them from its untraced run.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "req_per_cpu_s",
    "served_frac",
    "reward_per_req",
    "resp_p99_ms",
    "peak_rss_mb",
];

/// Per-layer metrics, as listed in `BENCHMARK.json`. A traced run reports
/// each of them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("topology.build_ms", "ms"),
    ("topology.paths_ms", "ms"),
    ("workload.build_ms", "ms"),
    ("workload.loadgen_ms", "ms"),
    ("workload.instance_ms", "ms"),
    ("sim.step_ms", "ms"),
    ("sim.step_calls", "count"),
    ("sim.self_ms", "ms"),
    ("sim.jobs_mean", "count"),
    ("sim.step_p50_ms", "ms"),
    ("sim.step_p99_ms", "ms"),
    ("core.schedule_ms", "ms"),
    ("core.observe_ms", "ms"),
    ("core.appro_ms", "ms"),
    ("core.heu_ms", "ms"),
    ("core.round_ms", "ms"),
    ("lp.solves", "count"),
    ("lp.pivots", "count"),
    ("lp.pivots_per_solve", "count"),
    ("lp.warm_hits", "count"),
    ("lp.warm_fallbacks", "count"),
    ("lp.cold_starts", "count"),
    ("lp.warm_hit_ratio", "ratio"),
    ("lp.refactorizations", "count"),
    ("lp.build_ms", "ms"),
    ("lp.solve_ms", "ms"),
    ("lp.solve_p99_ms", "ms"),
    ("bandit.active_arms", "count"),
    ("bandit.threshold_mhz", "MHz"),
    ("serve.driver_wall_ms", "ms"),
    ("serve.dispatch_ms", "ms"),
    ("serve.fold_ms", "ms"),
    ("serve.recovery_ms", "ms"),
    ("serve.remainder_ms", "ms"),
    ("serve.shard_work_ms", "ms"),
    ("serve.mailbox_wait_ms", "ms"),
    ("serve.watermark_wait_ms", "ms"),
    ("serve.wait_share", "ratio"),
    ("serve.admitted", "count"),
    ("serve.shed", "count"),
    ("serve.slots", "count"),
    ("host.cpu_ms", "ms"),
    ("host.runq_wait_ms", "ms"),
    ("host.threads_max", "count"),
    ("host.nproc", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.passes", "count"),
];

/// Where a metric belongs in the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Reported by untraced runs (and gated by the benchmark's bounds).
    EndToEnd,
    /// Reported by traced runs.
    Layer,
    /// Printed for the reader only; not part of the JSON result.
    Info,
}

#[derive(Debug, Clone)]
struct Metric {
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
    scope: Scope,
    note: Option<String>,
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Report {
    nproc: usize,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: BTreeMap<String, Metric>,
}

impl Report {
    pub fn new(nproc: usize) -> Self {
        Self {
            nproc,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: BTreeMap::new(),
        }
    }

    pub fn nproc(&self) -> usize {
        self.nproc
    }

    /// Counts `n` more operations the run attempted.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records one correctness check; a failed check is a failed
    /// operation and makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records a failed operation (an error the program returned).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    pub fn add(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: Option<usize>,
        scope: Scope,
    ) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
                scope,
                note: None,
            },
        );
    }

    /// Adds a per-layer metric with the unit `BENCHMARK.json` gives it.
    pub fn layer(&mut self, name: &str, value: f64, samples: Option<usize>) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.add(name, value, unit, samples, Scope::Layer);
    }

    /// Adds the `q` percentile of `samples`, or refuses it: a percentile
    /// needs at least [`crate::stats::MIN_BEYOND`] samples beyond it.
    /// A refused end-to-end percentile fails the run (the workload is
    /// sized too small); a refused per-layer one reads 0 with a note.
    pub fn percentile(
        &mut self,
        name: &str,
        samples: &[f64],
        q: f64,
        unit: &'static str,
        scope: Scope,
    ) {
        match crate::stats::percentile(samples, q) {
            Ok(v) => self.add(name, v, unit, Some(samples.len()), scope),
            Err(why) => {
                if scope == Scope::EndToEnd {
                    self.fail(format!("{name}: {why}"));
                }
                self.add(name, 0.0, unit, Some(samples.len()), scope);
                self.note(name, format!("refused: {why}"));
            }
        }
    }

    /// Builds a workload's inputs [`SETUPS`] times and records the median
    /// on-CPU time of one build as `setup_s` (set-up runs on this thread
    /// alone). In a traced run the first build is traced and its spans give
    /// the set-up layers. Returns the last build.
    pub fn setup<T>(&mut self, traced: bool, mut build: impl FnMut(Option<&Tracer>) -> T) -> T {
        let tracer = Tracer::new();
        let mut secs = Vec::with_capacity(SETUPS);
        let mut built = None;
        for rep in 0..SETUPS {
            let tr = (traced && rep == 0).then_some(&tracer);
            let cpu0 = crate::host::cpu_ms();
            built = Some(build(tr));
            secs.push((crate::host::cpu_ms() - cpu0) / 1e3);
        }
        let median = crate::stats::median(&secs);
        self.add("setup_s", median, "s", Some(SETUPS), Scope::EndToEnd);
        let totals = tracer.totals();
        for (span, metric) in [
            ("topology.build", "topology.build_ms"),
            ("topology.paths", "topology.paths_ms"),
            ("workload.build", "workload.build_ms"),
            ("workload.loadgen", "workload.loadgen_ms"),
            ("workload.instance", "workload.instance_ms"),
        ] {
            if let Some(t) = totals.get(span) {
                self.layer(metric, t.total_ms, Some(t.count));
            }
        }
        built.expect("SETUPS is at least 1")
    }

    /// Throughput of the timed calls: offered requests per second of
    /// on-CPU time (gated), and per wall second (printed only).
    pub fn throughput(&mut self, offered: usize, cost: Cost, calls: usize) {
        let offered = offered as f64;
        let scope = Scope::EndToEnd;
        self.add(
            "req_per_cpu_s",
            offered / (cost.cpu_ms / 1e3),
            "req/s",
            Some(calls),
            scope,
        );
        let wall = offered / (cost.wall_ms / 1e3);
        self.add("req_per_s", wall, "req/s", Some(calls), Scope::Info);
        self.add(
            "cpu_per_wall",
            cost.cpu_ms / cost.wall_ms,
            "ratio",
            None,
            Scope::Info,
        );
    }

    /// Decision quality of one work set: `served` of `offered` requests,
    /// with the reward and latencies in `metrics`.
    pub fn quality(&mut self, served: usize, offered: usize, metrics: &Metrics) {
        let total = offered as f64;
        let scope = Scope::EndToEnd;
        self.add(
            "served_frac",
            served as f64 / total,
            "ratio",
            Some(offered),
            scope,
        );
        let reward = metrics.total_reward() / total;
        self.add("reward_per_req", reward, "reward", Some(offered), scope);
        self.percentile("resp_p99_ms", metrics.latencies_ms(), 0.99, "ms", scope);
    }

    pub fn note(&mut self, name: &str, text: String) {
        if let Some(m) = self.metrics.get_mut(name) {
            m.note = Some(text);
        }
    }

    /// Prints the human-readable table, then the JSON result line, and
    /// returns whether the run was correct.
    pub fn print(&mut self, traced: bool) -> bool {
        if traced {
            for (name, unit) in PER_LAYER {
                if !self.metrics.contains_key(name) {
                    self.add(name, 0.0, unit, None, Scope::Layer);
                    self.note(name, "not exercised by this workload".to_string());
                }
            }
        }
        for name in END_TO_END {
            if !traced && !self.metrics.contains_key(name) {
                self.fail(format!("{name}: not measured"));
            }
        }
        for (name, m) in &self.metrics {
            if !m.value.is_finite() {
                self.failed += 1;
                self.failures.push(format!("{name}: non-finite value"));
            }
        }
        let wanted = |m: &Metric| match m.scope {
            Scope::EndToEnd => !traced,
            Scope::Layer => traced,
            Scope::Info => true,
        };
        for (name, m) in self.metrics.iter().filter(|(_, m)| wanted(m)) {
            let kind = match m.scope {
                Scope::EndToEnd => "e2e",
                Scope::Layer => "layer",
                Scope::Info => "info",
            };
            let mut line = format!("{kind:5} {name:26} {:>16.6} {:6}", m.value, m.unit);
            if let Some(n) = m.samples {
                let _ = write!(line, " n={n}");
            }
            if let Some(note) = &m.note {
                let _ = write!(line, " ({note})");
            }
            println!("{line}");
        }
        for f in &self.failures {
            println!("FAILED {f}");
        }
        let correct = self.failed == 0 && self.attempted > 0;
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        let json_scope = if traced {
            Scope::Layer
        } else {
            Scope::EndToEnd
        };
        let mut first = true;
        for (name, m) in self.metrics.iter().filter(|(_, m)| m.scope == json_scope) {
            if !first {
                json.push_str(", ");
            }
            first = false;
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
        correct
    }
}
