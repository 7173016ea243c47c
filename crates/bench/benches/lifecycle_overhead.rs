//! Cost of the serving plane's event stream: one full virtual-clock
//! replay per iteration at 4 shards, with and without a trace sink
//! attached. The comparison prices the *attached* path (structured
//! events plus per-request lifecycle records drained at every watermark
//! fold, latency exemplars, id-map upkeep) against the detached one
//! (every record site stops at its sink's `enabled()` check and builds
//! no event). The arm names predate the merge of the lifecycle
//! stream into the trace and stay so the committed baseline keeps
//! gating them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mec_serve::{serve, LoadGen, ObsHub, ServeConfig};
use mec_topology::TopologyBuilder;
use mec_workload::WorkloadBuilder;
use std::sync::Arc;

fn run(topo: &mec_topology::Topology, hub: Option<Arc<ObsHub>>) -> mec_serve::ServeOutcome {
    let population = WorkloadBuilder::new(topo).seed(7).count(2_000).build();
    let load = LoadGen::poisson(population, 4_000.0, 50.0, 7);
    let cfg = ServeConfig {
        shards: 4,
        queue_capacity: 128,
        snapshot_every: 0,
        policy: "Greedy".to_string(),
        obs: hub,
        ..ServeConfig::default()
    };
    serve(topo, load, &cfg, |_| {}).expect("serving run completes")
}

fn lifecycle_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("lifecycle_overhead");
    group.sample_size(10);
    let topo = TopologyBuilder::new(32).seed(7).build();
    group.bench_with_input(BenchmarkId::new("detached", 4), &(), |b, ()| {
        b.iter(|| run(&topo, None))
    });
    group.bench_with_input(BenchmarkId::new("attached", 4), &(), |b, ()| {
        b.iter(|| {
            let hub = Arc::new(
                ObsHub::new().with_trace(mec_obs::TraceWriter::new(Box::new(std::io::sink()))),
            );
            run(&topo, Some(hub))
        })
    });
    group.finish();
}

criterion_group!(benches, lifecycle_overhead);
criterion_main!(benches);
