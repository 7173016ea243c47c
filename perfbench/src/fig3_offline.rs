//! `fig3_offline`: the offline `Appro` and `Heu` at the Fig. 3 point
//! |R| = 300, 20 stations, on one thread.
//!
//! The same LP layer as `dynrr_lp`, used differently: one large cold solve
//! per instance instead of many small warm re-solves. A run's work set is
//! [`INSTANCES`] instances drawn from the run seed; each is solved by both
//! algorithms.

use crate::dynrr_lp::{add_stats, record_lp_counts};
use crate::host::{self, Cost};
use crate::report::{Report, Scope};
use crate::trace::{span, Tracer};
use crate::{seeds, stats};
use mec_core::slotlp::{SlotLp, Truncation};
use mec_core::{
    Appro, Heu, Instance, InstanceParams, OfflineAlgorithm, OffloadOutcome, Realizations,
    SlotLpSolver, SolverKind, SolverStats,
};
use mec_sim::Metrics;
use mec_topology::{Latency, TopologyBuilder};
use mec_workload::WorkloadBuilder;
use std::time::{Duration, Instant};

const STATIONS: usize = 20;
const REQUESTS: usize = 300;
/// Instances per work set: about 2500 admitted requests, enough for a
/// latency p99 that is steady across seeds.
const INSTANCES: usize = 16;

struct Case {
    seed: u64,
    instance: Instance,
    realized: Realizations,
}

impl Case {
    fn build(seed: u64, tr: Option<&Tracer>) -> Self {
        let topo = span(tr, "topology.build", || {
            TopologyBuilder::new(STATIONS).seed(seed).build()
        });
        let requests = span(tr, "workload.build", || {
            WorkloadBuilder::new(&topo)
                .seed(seed)
                .count(REQUESTS)
                .rate_range(30.0, 50.0)
                .levels(5)
                .decay(0.75)
                .deadline(Latency::ms(200.0))
                .build()
        });
        let (instance, realized) = span(tr, "workload.instance", || {
            let instance = Instance::new(topo, requests, InstanceParams::default());
            let realized = Realizations::draw(&instance, seed);
            (instance, realized)
        });
        Self {
            seed,
            instance,
            realized,
        }
    }
}

/// The two algorithms of one instance, in a fixed order.
fn algorithms(seed: u64) -> [(&'static str, Box<dyn OfflineAlgorithm>); 2] {
    [
        ("core.appro", Box::new(Appro::new(seed))),
        ("core.heu", Box::new(Heu::new(seed))),
    ]
}

/// Every admitted request must sit on a station that meets its latency
/// requirement (Theorem 2 for `Heu`).
fn feasible(case: &Case, out: &OffloadOutcome) -> bool {
    out.assignment()
        .iter()
        .enumerate()
        .all(|(j, a)| a.is_none_or(|s| case.instance.offline_feasible(j, s)))
}

/// Builds and solves the LP that `Appro` and `Heu` both solve first,
/// directly, so its cost splits from the rounding.
fn probe_lp(case: &Case, tracer: &Tracer) -> Result<SolverStats, String> {
    let n = case.instance.request_count();
    let subset: Vec<usize> = (0..n).collect();
    let lp = tracer.span("lp.build", || {
        SlotLp::build(&case.instance, &subset, Truncation::Standard)
    });
    let mut solver = SlotLpSolver::new(SolverKind::default());
    tracer
        .span("lp.solve", || solver.solve(&lp, n))
        .map_err(|e| e.to_string())?;
    Ok(solver.stats())
}

pub fn run(seed: u64, seconds: Duration, traced: bool, report: &mut Report) {
    let cases: Vec<Case> = report.setup(traced, |tr| {
        (0..INSTANCES)
            .map(|i| Case::build(seeds::derive(seed, i), tr))
            .collect()
    });

    let calls_per_pass = INSTANCES * 2;
    let mut reference: Vec<Option<OffloadOutcome>> = (0..calls_per_pass).map(|_| None).collect();
    let tracer = Tracer::new();
    let mut timed = Cost::default();
    let mut calls = 0usize;
    let mut untraced_pass_cpu = Vec::new();
    let mut traced_pass_cpu = Vec::new();
    // On-CPU time of the traced Appro calls and of the direct LP calls.
    let (mut appro_cpu, mut lp_cpu) = (0.0, 0.0);
    let mut lp = SolverStats::default();
    let sampler = host::HostSampler::start();
    let started = Instant::now();
    'passes: loop {
        let mut pass_cpu = 0.0;
        let mut pass_traced_cpu = 0.0;
        for (c, case) in cases.iter().enumerate() {
            for (a, (name, algo)) in algorithms(case.seed).into_iter().enumerate() {
                report.attempt(1);
                let (result, cost) = host::measure(|| algo.solve(&case.instance, &case.realized));
                let out = match result {
                    Ok(out) => out,
                    Err(e) => {
                        report.fail(format!("instance {c}: {name}: {e}"));
                        break 'passes;
                    }
                };
                timed.add(cost);
                calls += 1;
                pass_cpu += cost.cpu_ms;
                report.check(feasible(case, &out), || {
                    format!("instance {c}: {name} admitted an infeasible assignment")
                });
                if traced {
                    report.attempt(1);
                    let (again, cost) = host::measure(|| {
                        tracer.span(name, || algo.solve(&case.instance, &case.realized))
                    });
                    pass_traced_cpu += cost.cpu_ms;
                    let same = again.as_ref().ok().map(OffloadOutcome::assignment)
                        == Some(out.assignment());
                    report.check(same, || {
                        format!("instance {c}: {name} traced run decided differently")
                    });
                    if a == 0 {
                        appro_cpu += cost.cpu_ms;
                        let (probe, cost) = host::measure(|| probe_lp(case, &tracer));
                        lp_cpu += cost.cpu_ms;
                        match probe {
                            Ok(s) if traced_pass_cpu.is_empty() => add_stats(&mut lp, &s),
                            Ok(_) => {}
                            Err(e) => report.fail(format!("instance {c}: direct LP: {e}")),
                        }
                    }
                }
                let k = 2 * c + a;
                match &reference[k] {
                    Some(first) => report.check(first.assignment() == out.assignment(), || {
                        format!("instance {c}: {name} repeated run decided differently")
                    }),
                    None => reference[k] = Some(out),
                }
                let pass_done = reference.iter().all(Option::is_some);
                if !traced && pass_done && started.elapsed() >= seconds {
                    break 'passes;
                }
            }
        }
        untraced_pass_cpu.push(pass_cpu);
        if traced {
            traced_pass_cpu.push(pass_traced_cpu);
        }
        if started.elapsed() >= seconds {
            break;
        }
    }
    let figures = sampler.finish();
    let first: Vec<&OffloadOutcome> = reference.iter().flatten().collect();
    if first.len() < calls_per_pass {
        return;
    }

    if !traced {
        let mut quality = Metrics::new();
        for o in &first {
            quality.merge(o.metrics());
        }
        let admitted = first.iter().map(|o| o.admitted()).sum();
        report.throughput(REQUESTS * calls, timed, calls);
        report.quality(admitted, REQUESTS * calls_per_pass, &quality);
        figures.record(report, Scope::Info);
        return;
    }

    figures.record(report, Scope::Layer);
    let passes = traced_pass_cpu.len().max(1) as f64;
    let totals = tracer.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (appro, heu) = (get("core.appro"), get("core.heu"));
    let (build, solve) = (get("lp.build"), get("lp.solve"));
    report.layer("core.appro_ms", appro.total_ms / passes, Some(appro.count));
    report.layer("core.heu_ms", heu.total_ms / passes, Some(heu.count));
    report.layer("lp.build_ms", build.total_ms / passes, Some(build.count));
    report.layer("lp.solve_ms", solve.total_ms / passes, Some(solve.count));
    let solves = tracer.durations_ms("lp.solve");
    report.percentile("lp.solve_p99_ms", &solves, 0.99, "ms", Scope::Layer);
    record_lp_counts(&lp, report);
    // Appro = its LP build + its LP solve + rounding, on the same instance.
    // The LP runs in a call of its own, so the split uses on-CPU time:
    // time stolen from the vCPU in one call and not the other would
    // otherwise read as rounding.
    report.layer(
        "core.round_ms",
        (appro_cpu - lp_cpu) / passes,
        Some(appro.count),
    );
    // Reconciliation: the LP measured alone must fit inside the Appro call
    // that contains it, to within 5% of that call.
    let unattributed = (lp_cpu - appro_cpu).max(0.0) / appro_cpu;
    report.layer("trace.unattributed_frac", unattributed, None);
    report.check(unattributed <= 0.05, || {
        format!("reconciliation: Appro ({appro_cpu:.0} ms CPU) is shorter than its LP ({lp_cpu:.0} ms CPU)")
    });
    let overhead = stats::median(&traced_pass_cpu) / stats::median(&untraced_pass_cpu) - 1.0;
    report.layer("trace.overhead_frac", overhead, Some(traced_pass_cpu.len()));
    report.layer("trace.spans", tracer.span_count() as f64 / passes, None);
    report.layer("trace.passes", passes, None);
}
