//! Pins one small saturated `DynamicRR` LP-PT episode to figures recorded
//! before the slot LP's linear-time assembly, so a later LP change cannot
//! shift pivots or decisions silently. The solver counters were
//! re-recorded when the slot LP stopped building reward-free columns: the
//! warm repairs pivot differently, the decisions did not move. Also checks
//! that the solver's start-kind counters partition its solves after every
//! slot.

use mec_core::model::{Instance, InstanceParams};
use mec_core::{DynamicRr, DynamicRrConfig, SolverStats};
use mec_sim::{Engine, Metrics, SlotConfig};
use mec_topology::TopologyBuilder;
use mec_workload::{ArrivalProcess, WorkloadBuilder};

const STATIONS: usize = 8;
const REQUESTS: usize = 200;
const HORIZON: u64 = 160;
const SEED: u64 = 2;

/// Steps the pinned episode, calling `each_slot` with the solver counters
/// after every slot.
fn episode(mut each_slot: impl FnMut(SolverStats)) -> (Metrics, SolverStats) {
    let topo = TopologyBuilder::new(STATIONS).seed(SEED).build();
    let requests = WorkloadBuilder::new(&topo)
        .seed(SEED)
        .count(REQUESTS)
        .rate_range(30.0, 50.0)
        .arrivals(ArrivalProcess::UniformOver {
            horizon: HORIZON / 2,
        })
        .build();
    let params = InstanceParams::default();
    let paths = topo.shortest_paths();
    let cfg = SlotConfig {
        horizon: HORIZON,
        c_unit: params.c_unit,
        slot_ms: params.slot_ms,
        seed: SEED,
        ..Default::default()
    };
    let instance = Instance::new(topo.clone(), requests.clone(), params);
    let mut policy = DynamicRr::with_lp(
        instance,
        DynamicRrConfig {
            horizon_hint: HORIZON,
            ..Default::default()
        },
    );
    let mut engine = Engine::new(&topo, &paths, requests, cfg);
    for _ in 0..HORIZON {
        engine.step(&mut policy).expect("slot steps");
        each_slot(policy.solver_stats());
    }
    (engine.finish(), policy.solver_stats())
}

/// FNV-1a over the latency samples' bits.
fn latency_digest(metrics: &Metrics) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in metrics.latencies_ms() {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[test]
fn start_kinds_partition_every_solve() {
    let mut slots = 0;
    let (_, stats) = episode(|s| {
        slots += 1;
        assert_eq!(
            s.warm_hits + s.warm_fallbacks + s.cold_starts,
            s.solves,
            "slot {slots}: {s:?}"
        );
    });
    assert!(stats.solves > 0 && stats.warm_fallbacks > 0, "{stats:?}");
}

#[test]
fn pinned_episode_matches_recorded_figures() {
    let (metrics, stats) = episode(|_| {});
    assert_eq!(
        stats,
        SolverStats {
            solves: 160,
            warm_hits: 151,
            warm_fallbacks: 8,
            cold_starts: 1,
            pivots: 2823,
            refactorizations: 21,
        }
    );
    assert_eq!(
        (
            metrics.completed(),
            metrics.expired(),
            metrics.unserved(),
            metrics.aborted()
        ),
        (110, 2, 88, 0)
    );
    assert_eq!(metrics.total_reward().to_bits(), 0x40e8_a7f4_0272_ad0a);
    assert_eq!(metrics.latencies_ms().len(), 198);
    assert_eq!(latency_digest(&metrics), 0x0c4e_3f11_f41e_36ff);
}
