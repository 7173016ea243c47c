//! What the host looked like during a run: CPU count and model, peak
//! memory, and per-thread scheduler figures from `/proc`.
//!
//! On-CPU time and run-queue wait come from `/proc/self/task/*/schedstat`
//! and tell host contention apart from a change in the program: when the
//! wall time moves but on-CPU time and run-queue wait do not explain it,
//! the host ran slower.

use std::collections::BTreeMap;
use std::os::raw::{c_int, c_long};

/// The machine a run executed on.
#[derive(Debug, Clone)]
pub struct Machine {
    pub nproc: usize,
    pub cpu_model: String,
}

impl Machine {
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self { nproc, cpu_model }
    }
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// On-CPU time of this process so far, in ms: every thread, live or
/// exited, at nanosecond resolution. Time the hypervisor steals from the
/// vCPUs is not in it.
pub fn cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs, the
    // layout of the platform C library) for the whole call, and the call
    // writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Wall and on-CPU time of some work, in ms.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub wall_ms: f64,
    pub cpu_ms: f64,
}

impl Cost {
    pub fn add(&mut self, other: Cost) {
        self.wall_ms += other.wall_ms;
        self.cpu_ms += other.cpu_ms;
    }
}

/// Runs `f` and measures its wall and on-CPU time.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let cpu0 = cpu_ms();
    let t0 = std::time::Instant::now();
    let out = f();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cost = Cost {
        wall_ms,
        cpu_ms: cpu_ms() - cpu0,
    };
    (out, cost)
}

/// (on-CPU ns, run-queue wait ns) of every live thread of this process.
fn task_schedstats() -> BTreeMap<u64, (u64, u64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let Ok(text) = std::fs::read_to_string(entry.path().join("schedstat")) else {
            continue;
        };
        let mut fields = text
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        let run = fields.next().unwrap_or(0);
        let wait = fields.next().unwrap_or(0);
        out.insert(tid, (run, wait));
    }
    out
}

/// Accumulates scheduler figures over a phase. Threads that exit during
/// the phase keep the figures of their last [`HostSampler::sample`].
#[derive(Debug)]
pub struct HostSampler {
    base: BTreeMap<u64, (u64, u64)>,
    last: BTreeMap<u64, (u64, u64)>,
    threads_max: usize,
}

/// Scheduler figures of one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostFigures {
    pub cpu_ms: f64,
    pub runq_wait_ms: f64,
    pub threads_max: usize,
}

impl HostSampler {
    pub fn start() -> Self {
        let base = task_schedstats();
        Self {
            threads_max: base.len(),
            last: base.clone(),
            base,
        }
    }

    /// Reads every live thread's figures.
    pub fn sample(&mut self) {
        let now = task_schedstats();
        self.threads_max = self.threads_max.max(now.len());
        self.last.extend(now);
    }

    pub fn finish(mut self) -> HostFigures {
        self.sample();
        let (mut run, mut wait) = (0u64, 0u64);
        for (tid, (r, w)) in &self.last {
            let (r0, w0) = self.base.get(tid).copied().unwrap_or((0, 0));
            run += r.saturating_sub(r0);
            wait += w.saturating_sub(w0);
        }
        HostFigures {
            cpu_ms: run as f64 / 1e6,
            runq_wait_ms: wait as f64 / 1e6,
            threads_max: self.threads_max,
        }
    }
}

impl HostFigures {
    /// Records the figures and fails the run if it used more threads than
    /// the host has CPUs.
    pub fn record(&self, report: &mut crate::report::Report, scope: crate::report::Scope) {
        let nproc = report.nproc();
        report.check(self.threads_max <= nproc, || {
            format!("thread limit: {} threads on {nproc} CPUs", self.threads_max)
        });
        report.add("host.cpu_ms", self.cpu_ms, "ms", None, scope);
        report.add("host.runq_wait_ms", self.runq_wait_ms, "ms", None, scope);
        let threads = self.threads_max as f64;
        report.add("host.threads_max", threads, "count", None, scope);
        report.add("host.nproc", nproc as f64, "count", None, scope);
    }
}
