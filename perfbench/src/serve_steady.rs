//! `serve_steady`: `mec_serve::serve` with `DynamicRR` (the water-filling
//! variant serve runs) on a 40-station topology, Poisson arrivals at
//! 100 requests/s on 50 ms slots, queue capacity 256, the default epoch
//! horizon and snapshot cadence, and one shard: the driver plus one worker
//! make two threads. Placement, chaos, the state directory and telemetry
//! sinks are off.
//!
//! `Engine::step` and the watermark fold do the work; the LP does none.
//! `Engine::step` walks every job ever injected, so the request count per
//! load is part of the workload's definition.

use crate::host::{self, Cost};
use crate::report::{Report, Scope};
use crate::trace::{span, Tracer};
use crate::{seeds, stats};
use mec_serve::{serve, LoadGen, ObsHub, ServeConfig, ServeOutcome, Snapshot};
use mec_sim::{Metrics, SlotConfig};
use mec_topology::{Topology, TopologyBuilder};
use mec_workload::WorkloadBuilder;
use std::sync::Arc;
use std::time::{Duration, Instant};

const STATIONS: usize = 40;
const REQUESTS: usize = 20_000;
const RPS: f64 = 100.0;
const SLOT_MS: f64 = 50.0;
/// Loads per work set, each its own population and arrival schedule.
const LOADS: usize = 6;

struct World {
    topo: Topology,
    loads: Vec<(u64, LoadGen)>,
}

impl World {
    fn build(seed: u64, tr: Option<&Tracer>) -> Self {
        let topo = span(tr, "topology.build", || {
            TopologyBuilder::new(STATIONS).seed(seed).build()
        });
        let loads = (0..LOADS)
            .map(|i| {
                let s = seeds::derive(seed, i);
                let population = span(tr, "workload.build", || {
                    WorkloadBuilder::new(&topo).seed(s).count(REQUESTS).build()
                });
                let load = span(tr, "workload.loadgen", || {
                    LoadGen::poisson(population, RPS, SLOT_MS, s)
                });
                (s, load)
            })
            .collect();
        Self { topo, loads }
    }
}

fn config(seed: u64, hub: Option<Arc<ObsHub>>) -> ServeConfig {
    ServeConfig {
        shards: 1,
        queue_capacity: 256,
        policy: "DynamicRR".to_string(),
        sim: SlotConfig {
            slot_ms: SLOT_MS,
            seed,
            ..SlotConfig::default()
        },
        obs: hub,
        ..ServeConfig::default()
    }
}

/// Conservation of the final snapshot: every offered request is admitted
/// or shed, and every admitted one ends in exactly one terminal state.
fn conserved(s: &Snapshot, offered: usize) -> Result<(), String> {
    if s.admitted + s.shed != offered as u64 {
        return Err(format!(
            "admitted {} + shed {} != offered {offered}",
            s.admitted, s.shed
        ));
    }
    let terminal = s.completed + s.expired + s.aborted + s.unserved;
    if terminal as u64 != s.admitted {
        return Err(format!(
            "completed + expired + aborted + unserved = {terminal} != admitted {}",
            s.admitted
        ));
    }
    Ok(())
}

/// One serve call, timed from outside. The load is cloned before the clock
/// starts; the host figures are sampled at each periodic snapshot, while
/// the worker thread is alive.
fn serve_once(
    world: &World,
    i: usize,
    hub: Option<Arc<ObsHub>>,
    sampler: &mut host::HostSampler,
) -> Result<(ServeOutcome, Cost), String> {
    let (seed, load) = &world.loads[i];
    let load = load.clone();
    let cfg = config(*seed, hub);
    let (out, cost) = host::measure(|| serve(&world.topo, load, &cfg, |_| sampler.sample()));
    Ok((out.map_err(|e| e.to_string())?, cost))
}

/// The serve runtime's own split of one traced call, read from its
/// always-on registry gauges.
#[derive(Debug, Default, Clone, Copy)]
struct Split {
    wall: f64,
    dispatch: f64,
    recovery: f64,
    fold: f64,
    work: f64,
    mailbox: f64,
    watermark: f64,
}

impl Split {
    fn read(hub: &ObsHub) -> Self {
        let r = hub.registry();
        let g = |name: &str| r.gauge(name, "", &[]).get();
        let s = |name: &str| r.gauge(name, "", &[("shard", "0")]).get();
        Self {
            wall: g("mec_serve_driver_wall_ms_total"),
            dispatch: g("mec_serve_driver_dispatch_ms_total"),
            recovery: g("mec_serve_driver_recovery_ms_total"),
            fold: g("mec_serve_driver_fold_ms_total"),
            work: s("mec_serve_work_ms_total"),
            mailbox: s("mec_serve_mailbox_wait_ms_total"),
            watermark: s("mec_serve_watermark_wait_ms_total"),
        }
    }

    fn add(&mut self, o: &Self) {
        self.wall += o.wall;
        self.dispatch += o.dispatch;
        self.recovery += o.recovery;
        self.fold += o.fold;
        self.work += o.work;
        self.mailbox += o.mailbox;
        self.watermark += o.watermark;
    }
}

pub fn run(seed: u64, seconds: Duration, traced: bool, report: &mut Report) {
    let world = report.setup(traced, |tr| World::build(seed, tr));

    let mut reference: Vec<Option<(String, Metrics)>> = (0..LOADS).map(|_| None).collect();
    let mut timed = Cost::default();
    let mut offered = 0usize;
    let mut calls = 0usize;
    let mut untraced_pass_cpu = Vec::new();
    let mut traced_pass_cpu = Vec::new();
    let mut split = Split::default();
    let mut traced_wall_ms = 0.0;
    let mut counts = (0u64, 0u64, 0u64);
    let mut sampler = host::HostSampler::start();
    let started = Instant::now();
    'passes: loop {
        let mut pass_cpu = 0.0;
        let mut pass_traced_cpu = 0.0;
        for i in 0..LOADS {
            let offered_here = world.loads[i].1.len();
            report.attempt(1);
            let (out, cost) = match serve_once(&world, i, None, &mut sampler) {
                Ok(r) => r,
                Err(e) => {
                    report.fail(format!("load {i}: serve: {e}"));
                    break 'passes;
                }
            };
            pass_cpu += cost.cpu_ms;
            timed.add(cost);
            offered += offered_here;
            calls += 1;
            let snap = out.final_snapshot.to_json();
            if let Err(e) = conserved(&out.final_snapshot, offered_here) {
                report.fail(format!("load {i}: conservation: {e}"));
            }
            if traced {
                report.attempt(1);
                let hub = Arc::new(ObsHub::new());
                match serve_once(&world, i, Some(Arc::clone(&hub)), &mut sampler) {
                    Ok((t, cost)) => {
                        report.check(t.final_snapshot.to_json() == snap, || {
                            format!("load {i}: the traced final snapshot differs")
                        });
                        split.add(&Split::read(&hub));
                        traced_wall_ms += cost.wall_ms;
                        pass_traced_cpu += cost.cpu_ms;
                        if traced_pass_cpu.is_empty() {
                            counts.0 += t.final_snapshot.admitted;
                            counts.1 += t.final_snapshot.shed;
                            counts.2 += t.slots_run;
                        }
                    }
                    Err(e) => {
                        report.fail(format!("load {i}: traced serve: {e}"));
                        break 'passes;
                    }
                }
            }
            match &reference[i] {
                Some((first, _)) => report.check(*first == snap, || {
                    format!("load {i}: a repeated run gave another final snapshot")
                }),
                None => reference[i] = Some((snap, out.metrics)),
            }
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
    let first: Vec<&Metrics> = reference.iter().flatten().map(|(_, m)| m).collect();
    if first.len() < LOADS {
        return;
    }

    if !traced {
        let mut quality = Metrics::new();
        for m in &first {
            quality.merge(m);
        }
        report.throughput(offered, timed, calls);
        report.quality(quality.completed(), REQUESTS * LOADS, &quality);
        figures.record(report, Scope::Info);
        return;
    }

    figures.record(report, Scope::Layer);
    let passes = traced_pass_cpu.len().max(1) as f64;
    let remainder = split.wall - split.dispatch - split.fold - split.recovery;
    report.layer("serve.driver_wall_ms", split.wall / passes, None);
    report.layer("serve.dispatch_ms", split.dispatch / passes, None);
    report.layer("serve.fold_ms", split.fold / passes, None);
    report.layer("serve.recovery_ms", split.recovery / passes, None);
    report.layer("serve.remainder_ms", remainder / passes, None);
    report.layer("serve.shard_work_ms", split.work / passes, None);
    report.layer("serve.mailbox_wait_ms", split.mailbox / passes, None);
    report.layer("serve.watermark_wait_ms", split.watermark / passes, None);
    let waits = split.mailbox + split.watermark;
    report.layer("serve.wait_share", waits / (split.work + waits), None);
    report.layer("serve.admitted", counts.0 as f64, None);
    report.layer("serve.shed", counts.1 as f64, None);
    report.layer("serve.slots", counts.2 as f64, None);

    // Reconciliation: dispatch + fold + recovery + remainder = driver wall
    // by construction; the driver wall must cover the serve call, timed
    // from outside, to within 5%.
    let unattributed = 1.0 - split.wall / traced_wall_ms;
    report.layer("trace.unattributed_frac", unattributed, None);
    report.check(unattributed.abs() <= 0.05, || {
        let missed = 100.0 * unattributed;
        format!("reconciliation: the driver wall misses {missed:.1}% of serve()")
    });
    let overhead = stats::median(&traced_pass_cpu) / stats::median(&untraced_pass_cpu) - 1.0;
    report.layer("trace.overhead_frac", overhead, Some(traced_pass_cpu.len()));
    report.layer("trace.passes", traced_pass_cpu.len() as f64, None);
}
