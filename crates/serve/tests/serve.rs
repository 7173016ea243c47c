//! End-to-end tests of the sharded serving runtime: partition
//! invariants, load shedding under a full queue, conservation of
//! requests, and byte-identical determinism across runs.

use mec_serve::{partition, serve, ClockMode, LoadGen, Router, ServeConfig};
use mec_sim::SlotConfig;
use mec_topology::Topology;
use mec_topology::TopologyBuilder;
use mec_workload::{Request, WorkloadBuilder};

fn world(stations: usize, requests: usize, seed: u64) -> (Topology, Vec<Request>) {
    let topo = TopologyBuilder::new(stations).seed(seed).build();
    let population = WorkloadBuilder::new(&topo)
        .seed(seed)
        .count(requests)
        .build();
    (topo, population)
}

#[test]
fn partition_covers_every_station_exactly_once() {
    let (topo, _) = world(37, 0, 5);
    for shards in [1, 2, 3, 5, 8] {
        let plans = partition(&topo, shards);
        assert_eq!(plans.len(), shards);
        let mut owner = vec![None; topo.station_count()];
        for plan in &plans {
            assert!(
                !plan.stations.is_empty(),
                "shard {} owns nothing",
                plan.shard
            );
            for &g in &plan.stations {
                assert!(
                    owner[g.index()].replace(plan.shard).is_none(),
                    "{g} owned twice"
                );
            }
        }
        assert!(owner.iter().all(Option::is_some));
        // Routing agrees with ownership.
        let router = Router::new(shards, 16);
        assert!(router.consistent_with(&plans));
    }
}

#[test]
fn every_request_is_admitted_or_shed_never_lost() {
    let (topo, population) = world(24, 3_000, 11);
    let total = population.len() as u64;
    let load = LoadGen::poisson(population, 4_000.0, 50.0, 11);
    let cfg = ServeConfig {
        shards: 4,
        queue_capacity: 32,
        snapshot_every: 50,
        ..ServeConfig::default()
    };
    let outcome = serve(&topo, load, &cfg, |_| {}).unwrap();
    let snap = &outcome.final_snapshot;
    assert_eq!(snap.admitted + snap.shed, total);
    // Every admitted request reached a terminal phase.
    assert_eq!(
        (snap.completed + snap.expired + snap.aborted + snap.unserved) as u64,
        snap.admitted
    );
    // The run drained: no shard ended with queued work.
    assert!(
        snap.queue_depths.iter().all(|&d| d == 0),
        "{:?}",
        snap.queue_depths
    );
}

#[test]
fn full_queues_shed_load() {
    // One tiny shard, a huge burst: capacity 4 cannot hold 500 requests
    // arriving at 100k rps, so most of the load must shed.
    let (topo, population) = world(6, 500, 3);
    let load = LoadGen::poisson(population, 100_000.0, 50.0, 3);
    let cfg = ServeConfig {
        shards: 1,
        queue_capacity: 4,
        snapshot_every: 0,
        ..ServeConfig::default()
    };
    let outcome = serve(&topo, load, &cfg, |_| {}).unwrap();
    let snap = &outcome.final_snapshot;
    assert_eq!(snap.admitted + snap.shed, 500);
    assert!(
        snap.shed > 400,
        "expected heavy shedding, got {}",
        snap.shed
    );
    assert!(snap.admitted >= 4, "capacity worth of requests admitted");
}

#[test]
fn ample_capacity_sheds_nothing() {
    let (topo, population) = world(16, 800, 9);
    let load = LoadGen::poisson(population, 500.0, 50.0, 9);
    let cfg = ServeConfig {
        shards: 4,
        queue_capacity: 4_096,
        snapshot_every: 0,
        ..ServeConfig::default()
    };
    let outcome = serve(&topo, load, &cfg, |_| {}).unwrap();
    assert_eq!(outcome.final_snapshot.shed, 0);
    assert_eq!(outcome.final_snapshot.admitted, 800);
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let run = || {
        let (topo, population) = world(20, 2_000, 77);
        let load = LoadGen::poisson(population, 3_000.0, 50.0, 77);
        let cfg = ServeConfig {
            shards: 4,
            queue_capacity: 64,
            snapshot_every: 100,
            policy: "DynamicRR".to_string(),
            sim: SlotConfig {
                seed: 77,
                ..SlotConfig::default()
            },
            ..ServeConfig::default()
        };
        let mut periodic = Vec::new();
        let outcome = serve(&topo, load, &cfg, |snap| {
            // Strip the wall-clock field: periodic snapshots must agree on
            // everything else.
            let mut s = snap.clone();
            s.slots_per_sec = None;
            periodic.push(s.to_json());
        })
        .unwrap();
        (
            periodic,
            outcome.final_snapshot.to_json(),
            outcome.slots_run,
        )
    };
    let (periodic_a, final_a, slots_a) = run();
    let (periodic_b, final_b, slots_b) = run();
    assert_eq!(slots_a, slots_b);
    assert_eq!(periodic_a, periodic_b);
    assert_eq!(final_a, final_b, "final snapshots must be byte-identical");
    assert!(!periodic_a.is_empty(), "expected periodic snapshots");
}

#[test]
fn shard_count_changes_results_but_not_conservation() {
    let totals: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|shards| {
            let (topo, population) = world(12, 600, 21);
            let load = LoadGen::poisson(population, 2_000.0, 50.0, 21);
            let cfg = ServeConfig {
                shards,
                queue_capacity: 128,
                snapshot_every: 0,
                ..ServeConfig::default()
            };
            let snap = serve(&topo, load, &cfg, |_| {}).unwrap().final_snapshot;
            assert_eq!(snap.admitted + snap.shed, 600, "shards={shards}");
            snap
        })
        .collect();
    // All shard counts conserve requests; rewards are positive everywhere.
    for snap in &totals {
        assert!(snap.total_reward > 0.0);
    }
}

#[test]
fn paced_clock_matches_virtual_decisions() {
    // A short run paced at a tiny slot length must make exactly the same
    // decisions as the virtual-clock run.
    let run = |clock: ClockMode| {
        let (topo, population) = world(8, 120, 13);
        let load = LoadGen::poisson(population, 5_000.0, 50.0, 13);
        let cfg = ServeConfig {
            shards: 2,
            queue_capacity: 64,
            snapshot_every: 0,
            clock,
            ..ServeConfig::default()
        };
        serve(&topo, load, &cfg, |_| {})
            .unwrap()
            .final_snapshot
            .to_json()
    };
    assert_eq!(
        run(ClockMode::Virtual),
        run(ClockMode::Paced { slot_ms: 0.05 })
    );
}

#[test]
fn unknown_policy_fails_before_spawning() {
    let (topo, population) = world(8, 10, 1);
    let load = LoadGen::replay(population);
    let cfg = ServeConfig {
        shards: 2,
        policy: "Oracle".to_string(),
        ..ServeConfig::default()
    };
    let err = serve(&topo, load, &cfg, |_| {}).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("Oracle"), "{msg}");
    assert!(msg.contains("DynamicRR"), "{msg}");
}
