//! `dynrr_lp`: the paper's Algorithm 3 with LP-PT (`DynamicRr::with_lp`)
//! stepped slot by slot through `Engine::step` on one thread, at the
//! heaviest Fig. 4 point: |R| = 300, 20 stations, a 400-slot horizon.
//!
//! The warm-started revised simplex and the bandit do the work here; the
//! serving runtime is absent. A run's work set is [`EPISODES`] episodes,
//! each its own online world drawn from the run seed.

use crate::host::{self, Cost};
use crate::report::{Report, Scope};
use crate::trace::{span, Traced, Tracer};
use crate::{seeds, stats};
use mec_core::{DynamicRr, DynamicRrConfig, Instance, InstanceParams, SolverStats};
use mec_sim::{Engine, Metrics, SlotConfig, SlotPolicy};
use mec_topology::{Latency, PathTable, Topology, TopologyBuilder};
use mec_workload::{ArrivalProcess, Request, WorkloadBuilder};
use std::time::{Duration, Instant};

const STATIONS: usize = 20;
const REQUESTS: usize = 300;
const HORIZON: u64 = 400;
/// Arrivals spread over the first half of the horizon (the Fig. 4 world).
const ARRIVAL_HORIZON: u64 = 200;
/// Episodes per work set: 8 × 400 = 3200 timed slots and 2400 offered
/// requests, enough for a p99 and a steady quality median across seeds.
const EPISODES: usize = 8;

/// One online world, built before the timed phase.
struct Episode {
    topo: Topology,
    paths: PathTable,
    requests: Vec<Request>,
    instance: Instance,
    cfg: SlotConfig,
}

impl Episode {
    fn build(seed: u64, tr: Option<&Tracer>) -> Self {
        let topo = span(tr, "topology.build", || {
            TopologyBuilder::new(STATIONS).seed(seed).build()
        });
        let paths = span(tr, "topology.paths", || topo.shortest_paths());
        let requests = span(tr, "workload.build", || {
            WorkloadBuilder::new(&topo)
                .seed(seed)
                .count(REQUESTS)
                .rate_range(30.0, 50.0)
                .levels(5)
                .decay(0.75)
                .deadline(Latency::ms(200.0))
                .duration_range(60, 120)
                .arrivals(ArrivalProcess::UniformOver {
                    horizon: ARRIVAL_HORIZON,
                })
                .build()
        });
        let params = InstanceParams::default();
        let instance = span(tr, "workload.instance", || {
            Instance::new(topo.clone(), requests.clone(), params)
        });
        let cfg = SlotConfig {
            slot_ms: params.slot_ms,
            horizon: HORIZON,
            c_unit: params.c_unit,
            seed,
            ..SlotConfig::default()
        };
        Self {
            topo,
            paths,
            requests,
            instance,
            cfg,
        }
    }

    fn engine(&self) -> Engine<'_> {
        Engine::new(&self.topo, &self.paths, self.requests.clone(), self.cfg)
    }

    fn policy(&self) -> DynamicRr {
        DynamicRr::with_lp(
            self.instance.clone(),
            DynamicRrConfig {
                horizon_hint: HORIZON,
                ..DynamicRrConfig::default()
            },
        )
    }
}

/// What one episode produced. Everything but the timings is deterministic.
struct Outcome {
    metrics: Metrics,
    lp: SolverStats,
    active_arms: usize,
    threshold_mhz: f64,
    /// Wall time of each `Engine::step`, ms.
    step_ms: Vec<f64>,
    /// Wall and on-CPU time of the whole step loop.
    cost: Cost,
    /// LP solve times drained from the policy (traced runs only), ms.
    solve_ms: Vec<f64>,
    /// Sum over slots of the job-table length before the step.
    jobs_sum: usize,
}

impl Outcome {
    fn same_decisions(&self, other: &Self) -> bool {
        self.metrics == other.metrics
            && self.lp == other.lp
            && self.active_arms == other.active_arms
            && self.threshold_mhz.to_bits() == other.threshold_mhz.to_bits()
    }
}

fn run_episode(ep: &Episode, tr: Option<&Tracer>) -> Result<Outcome, String> {
    let mut engine = ep.engine();
    let mut policy = ep.policy();
    let mut step_ms = Vec::with_capacity(HORIZON as usize);
    let mut solve_ms = Vec::new();
    let mut jobs_sum = 0;
    let cpu0 = host::cpu_ms();
    let started = Instant::now();
    match tr {
        None => {
            for _ in 0..HORIZON {
                let t0 = Instant::now();
                engine.step(&mut policy).map_err(|e| e.to_string())?;
                step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        Some(tracer) => {
            policy.set_probe(true);
            for _ in 0..HORIZON {
                jobs_sum += engine.jobs().len();
                let mut traced = Traced {
                    inner: &mut policy,
                    tracer,
                };
                tracer
                    .span("sim.step", || engine.step(&mut traced))
                    .map_err(|e| e.to_string())?;
                solve_ms.extend(policy.drain_solve_times_ms());
            }
        }
    }
    let cost = Cost {
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        cpu_ms: host::cpu_ms() - cpu0,
    };
    Ok(Outcome {
        metrics: engine.finish(),
        lp: policy.solver_stats(),
        active_arms: policy.active_arms(),
        threshold_mhz: policy.learned_threshold(),
        step_ms,
        cost,
        solve_ms,
        jobs_sum,
    })
}

pub fn add_stats(total: &mut SolverStats, s: &SolverStats) {
    total.solves += s.solves;
    total.warm_hits += s.warm_hits;
    total.warm_fallbacks += s.warm_fallbacks;
    total.cold_starts += s.cold_starts;
    total.pivots += s.pivots;
    total.refactorizations += s.refactorizations;
}

pub fn run(seed: u64, seconds: Duration, traced: bool, report: &mut Report) {
    let episodes: Vec<Episode> = report.setup(traced, |tr| {
        (0..EPISODES)
            .map(|i| {
                let ep = Episode::build(seeds::derive(seed, i), tr);
                // Engine and policy construction is set-up work too.
                std::hint::black_box((ep.engine(), ep.policy()));
                ep
            })
            .collect()
    });

    let mut reference: Vec<Option<Outcome>> = (0..EPISODES).map(|_| None).collect();
    let tracer = Tracer::new();
    let mut step_ms = Vec::new();
    let mut timed = Cost::default();
    let mut episodes_run = 0usize;
    let mut untraced_pass_cpu = Vec::new();
    let mut traced_pass_cpu = Vec::new();
    let mut traced_loop = Cost::default();
    let mut traced_outcomes: Vec<Outcome> = Vec::new();
    let sampler = host::HostSampler::start();
    let started = Instant::now();
    'passes: loop {
        let mut pass_cpu = 0.0;
        let mut pass_traced_cpu = 0.0;
        for (i, ep) in episodes.iter().enumerate() {
            report.attempt(HORIZON);
            let out = match run_episode(ep, None) {
                Ok(out) => out,
                Err(e) => {
                    report.fail(format!("episode {i}: Engine::step: {e}"));
                    break 'passes;
                }
            };
            pass_cpu += out.cost.cpu_ms;
            timed.add(out.cost);
            episodes_run += 1;
            step_ms.extend_from_slice(&out.step_ms);
            if traced {
                report.attempt(HORIZON);
                match run_episode(ep, Some(&tracer)) {
                    Ok(t) => {
                        report.check(t.same_decisions(&out), || {
                            format!("episode {i}: the traced run decided differently")
                        });
                        pass_traced_cpu += t.cost.cpu_ms;
                        traced_loop.add(t.cost);
                        traced_outcomes.push(t);
                    }
                    Err(e) => {
                        report.fail(format!("episode {i}: traced Engine::step: {e}"));
                        break 'passes;
                    }
                }
            }
            match &reference[i] {
                Some(first) => report.check(first.same_decisions(&out), || {
                    format!("episode {i}: a repeated run decided differently")
                }),
                None => reference[i] = Some(out),
            }
            // An untraced run may stop mid-pass once a full pass is done.
            let pass_done = reference.iter().all(Option::is_some);
            if !traced && pass_done && started.elapsed() >= seconds {
                break 'passes;
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
    let first: Vec<&Outcome> = reference.iter().flatten().collect();
    if first.len() < EPISODES {
        return;
    }

    // Decision quality comes from the first pass and repeats exactly.
    let mut quality = Metrics::new();
    for o in &first {
        quality.merge(&o.metrics);
    }
    if !traced {
        report.throughput(REQUESTS * episodes_run, timed, step_ms.len());
        report.percentile("slot_p50_ms", &step_ms, 0.50, "ms", Scope::Info);
        report.percentile("slot_p99_ms", &step_ms, 0.99, "ms", Scope::Info);
        report.quality(quality.completed(), REQUESTS * EPISODES, &quality);
        figures.record(report, Scope::Info);
        return;
    }

    figures.record(report, Scope::Layer);
    let passes = traced_pass_cpu.len().max(1) as f64;
    let totals = tracer.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let step = get("sim.step");
    let schedule = get("core.schedule");
    let observe = get("core.observe");
    report.layer("sim.step_ms", step.total_ms / passes, Some(step.count));
    report.layer("sim.step_calls", step.count as f64 / passes, None);
    // Self time: the step minus its schedule and observe children.
    report.layer("sim.self_ms", step.self_ms / passes, None);
    let jobs: usize = traced_outcomes.iter().map(|o| o.jobs_sum).sum();
    let jobs_mean = jobs as f64 / step.count.max(1) as f64;
    report.layer("sim.jobs_mean", jobs_mean, Some(step.count));
    let steps = tracer.durations_ms("sim.step");
    report.percentile("sim.step_p50_ms", &steps, 0.50, "ms", Scope::Layer);
    report.percentile("sim.step_p99_ms", &steps, 0.99, "ms", Scope::Layer);
    report.layer(
        "core.schedule_ms",
        schedule.total_ms / passes,
        Some(schedule.count),
    );
    report.layer(
        "core.observe_ms",
        observe.total_ms / passes,
        Some(observe.count),
    );

    let mut lp = SolverStats::default();
    for o in &first {
        add_stats(&mut lp, &o.lp);
    }
    record_lp_counts(&lp, report);
    let solve_ms: Vec<f64> = traced_outcomes
        .iter()
        .flat_map(|o| o.solve_ms.iter().copied())
        .collect();
    let solve_total = solve_ms.iter().sum::<f64>() / passes;
    report.layer("lp.solve_ms", solve_total, Some(solve_ms.len()));
    report.percentile("lp.solve_p99_ms", &solve_ms, 0.99, "ms", Scope::Layer);
    report.layer("lp.build_ms", 0.0, None);
    report.note(
        "lp.build_ms",
        "inside core.schedule; not separable from outside".into(),
    );

    let n = first.len() as f64;
    let arms = first.iter().map(|o| o.active_arms as f64).sum::<f64>() / n;
    let threshold = first.iter().map(|o| o.threshold_mhz).sum::<f64>() / n;
    report.layer("bandit.active_arms", arms, Some(first.len()));
    report.layer("bandit.threshold_mhz", threshold, Some(first.len()));

    // Reconciliation: schedule + observe + self = step by construction;
    // the step spans must cover the timed loop's wall to within 5%.
    let unattributed = 1.0 - step.total_ms / traced_loop.wall_ms;
    report.layer("trace.unattributed_frac", unattributed, None);
    report.check(unattributed.abs() <= 0.05, || {
        let covered = 100.0 * (1.0 - unattributed);
        format!("reconciliation: steps cover {covered:.1}% of the loop")
    });
    let overhead = stats::median(&traced_pass_cpu) / stats::median(&untraced_pass_cpu) - 1.0;
    report.layer("trace.overhead_frac", overhead, Some(traced_pass_cpu.len()));
    report.layer("trace.spans", tracer.span_count() as f64 / passes, None);
    report.layer("trace.passes", traced_pass_cpu.len() as f64, None);
}

/// The exact LP counters of one work set.
pub fn record_lp_counts(lp: &SolverStats, report: &mut Report) {
    let solves = lp.solves.max(1) as f64;
    report.layer("lp.solves", lp.solves as f64, None);
    report.layer("lp.pivots", lp.pivots as f64, None);
    report.layer("lp.pivots_per_solve", lp.pivots as f64 / solves, None);
    report.layer("lp.warm_hits", lp.warm_hits as f64, None);
    report.layer("lp.warm_fallbacks", lp.warm_fallbacks as f64, None);
    report.layer("lp.cold_starts", lp.cold_starts as f64, None);
    report.layer("lp.warm_hit_ratio", lp.warm_hits as f64 / solves, None);
    report.layer("lp.refactorizations", lp.refactorizations as f64, None);
}
