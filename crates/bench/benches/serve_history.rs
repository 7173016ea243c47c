//! CPU cost per request as a serving run grows: one shard, 40 stations,
//! `DynamicRR`, Poisson arrivals at 100 requests/s on 50 ms slots, the
//! default queue capacity and snapshot cadence (every 100 slots), at 20k
//! and 80k requests.
//!
//! Each sample runs whole `serve()` calls, at least [`SAMPLE_REQUESTS`]
//! requests' worth, measured in process CPU time (driver and worker
//! threads) and divided by the requests offered, so the reported "ns per
//! iteration" is CPU ns per request. A serving
//! plane whose per-request cost stays flat as the run ages reads the
//! same at both lengths; any work that re-reads the whole history at
//! every snapshot or slot shows as a rise from 20k to 80k.
//!
//! CPU time comes from the `utime` and `stime` fields of
//! `/proc/self/stat`, which count every thread the process ever ran
//! (the run's worker has exited by the time it is read) in clock ticks
//! of 10 ms: under 1% of a sample on a 2-vCPU x86-64 host.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mec_serve::{serve, LoadGen, ServeConfig};
use mec_sim::SlotConfig;
use mec_topology::TopologyBuilder;
use mec_workload::WorkloadBuilder;
use std::time::Duration;

const STATIONS: usize = 40;
const RPS: f64 = 100.0;
const SLOT_MS: f64 = 50.0;
const SEED: u64 = 7;
/// Run lengths, in requests offered.
const LENGTHS: &[usize] = &[20_000, 80_000];
/// Requests one sample serves at least, repeating shorter runs.
const SAMPLE_REQUESTS: usize = 80_000;
/// Linux's `USER_HZ`: the unit of `/proc/self/stat`'s CPU times.
const TICKS_PER_SEC: u64 = 100;

/// Process CPU time so far (user plus system, every thread).
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name in field 2 may hold spaces; fields after it do not.
    let after_name = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let ticks: u64 = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().expect("utime and stime are integers"))
        .sum();
    Duration::from_millis(ticks * 1_000 / TICKS_PER_SEC)
}

fn serve_history(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_history");
    group.sample_size(5);
    let topo = TopologyBuilder::new(STATIONS).seed(SEED).build();
    let cfg = ServeConfig {
        shards: 1,
        policy: "DynamicRR".to_string(),
        sim: SlotConfig {
            slot_ms: SLOT_MS,
            seed: SEED,
            ..SlotConfig::default()
        },
        ..ServeConfig::default()
    };
    for &requests in LENGTHS {
        let population = WorkloadBuilder::new(&topo)
            .seed(SEED)
            .count(requests)
            .build();
        let load = LoadGen::poisson(population, RPS, SLOT_MS, SEED);
        let repeats = SAMPLE_REQUESTS.div_ceil(requests);
        group.bench_with_input(
            BenchmarkId::new("cpu_per_request", requests),
            &load,
            |b, load| {
                b.iter_custom(|iters| {
                    let mut cpu = Duration::ZERO;
                    for _ in 0..iters * repeats as u64 {
                        let load = load.clone();
                        let start = process_cpu();
                        black_box(serve(&topo, load, &cfg, |_| {}).expect("serving run completes"));
                        cpu += process_cpu() - start;
                    }
                    cpu / (requests * repeats) as u32
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, serve_history);
criterion_main!(benches);
