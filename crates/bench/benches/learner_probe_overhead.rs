//! Cost of the learner probe on the serving runtime: one full
//! virtual-clock replay per iteration at 4 shards under the DynamicRR
//! learner, with and without the probe attached. Both arms run the same
//! traced hub (so generic event tracing prices out of the diff) — the
//! comparison isolates the *attached* probe path (per-update lifecycle
//! events drained at every tick, driver-side regret and drift
//! accounting, flight-recorder ring upkeep, `/learning.json` rendering)
//! against the dormant one (the policy's `ArmProbe` stays detached, so
//! each learner update returns before reading any arm state). The slots
//! here are synthetic and near-empty, so the attached arm's streaming
//! cost (a few µs per shard-tick) reads as a large relative delta; the
//! perf gate holds each arm against its committed baseline rather than
//! capping the ratio.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mec_serve::{serve, LoadGen, ObsHub, ServeConfig};
use mec_topology::TopologyBuilder;
use mec_workload::WorkloadBuilder;
use std::sync::Arc;

fn run(topo: &mec_topology::Topology, probe: bool) -> mec_serve::ServeOutcome {
    let population = WorkloadBuilder::new(topo).seed(7).count(2_000).build();
    let load = LoadGen::poisson(population, 4_000.0, 50.0, 7);
    let hub = Arc::new(
        ObsHub::new()
            .with_probe(probe)
            .with_trace(mec_obs::TraceWriter::new(Box::new(std::io::sink()))),
    );
    let cfg = ServeConfig {
        shards: 4,
        queue_capacity: 128,
        snapshot_every: 0,
        policy: "DynamicRR".to_string(),
        obs: Some(hub),
        ..ServeConfig::default()
    };
    serve(topo, load, &cfg, |_| {}).expect("serving run completes")
}

fn learner_probe_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("learner_probe_overhead");
    group.sample_size(10);
    let topo = TopologyBuilder::new(32).seed(7).build();
    group.bench_with_input(BenchmarkId::new("detached", 4), &(), |b, ()| {
        b.iter(|| run(&topo, false))
    });
    group.bench_with_input(BenchmarkId::new("attached", 4), &(), |b, ()| {
        b.iter(|| run(&topo, true))
    });
    group.finish();
}

criterion_group!(benches, learner_probe_overhead);
criterion_main!(benches);
