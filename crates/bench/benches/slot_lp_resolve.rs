//! Cost of re-solving the slot LP every slot: one LP-PT `DynamicRR`
//! episode (the paper's Algorithm 3, `DynamicRr::with_lp`) stepped slot
//! by slot through `Engine::step` on one thread. Each slot rebuilds the
//! slot LP in place and warm-starts the revised simplex from the previous
//! slot's basis, so the time is the LP's assembly, the warm install and
//! its kernel factorization, the pivots, and the bandit. Every iteration
//! replays the same episode from a fresh engine and policy, built before
//! the timed window, and must end with the same metrics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mec_core::{DynamicRr, DynamicRrConfig, Instance, InstanceParams};
use mec_sim::{Engine, SlotConfig};
use mec_topology::{Latency, TopologyBuilder};
use mec_workload::{ArrivalProcess, WorkloadBuilder};

const STATIONS: usize = 20;
const REQUESTS: usize = 300;
const HORIZON: u64 = 150;
const SAMPLES: usize = 10;

fn slot_lp_resolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("slot_lp_resolve");
    group.sample_size(SAMPLES);
    let topo = TopologyBuilder::new(STATIONS).seed(7).build();
    let paths = topo.shortest_paths();
    let requests = WorkloadBuilder::new(&topo)
        .seed(7)
        .count(REQUESTS)
        .rate_range(30.0, 50.0)
        .levels(5)
        .decay(0.75)
        .deadline(Latency::ms(200.0))
        .duration_range(60, 120)
        .arrivals(ArrivalProcess::UniformOver { horizon: 100 })
        .build();
    let params = InstanceParams::default();
    let instance = Instance::new(topo.clone(), requests.clone(), params);
    let cfg = SlotConfig {
        slot_ms: params.slot_ms,
        horizon: HORIZON,
        c_unit: params.c_unit,
        seed: 7,
        ..SlotConfig::default()
    };
    // One episode per timed iteration plus the warmup, built up front.
    let mut episodes: Vec<_> = (0..=SAMPLES)
        .map(|_| {
            let engine = Engine::new(&topo, &paths, requests.clone(), cfg);
            let policy = DynamicRr::with_lp(
                instance.clone(),
                DynamicRrConfig {
                    horizon_hint: HORIZON,
                    ..DynamicRrConfig::default()
                },
            );
            (engine, policy)
        })
        .collect();
    let mut first = None;
    group.bench_with_input(
        BenchmarkId::new("dynrr_lp", format!("{REQUESTS}x{STATIONS}")),
        &(),
        |b, ()| {
            b.iter(|| {
                let (mut engine, mut policy) = episodes.pop().expect("one episode per iteration");
                for _ in 0..HORIZON {
                    engine.step(&mut policy).expect("slot steps");
                }
                let metrics = engine.finish();
                assert_eq!(
                    first.get_or_insert_with(|| metrics.clone()),
                    &metrics,
                    "every replay of the episode decides the same"
                );
                metrics
            })
        },
    );
    group.finish();
}

criterion_group!(benches, slot_lp_resolve);
criterion_main!(benches);
