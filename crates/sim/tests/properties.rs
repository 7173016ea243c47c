//! Property-based tests of the slot engine: a randomized-but-legal fuzz
//! policy must never trip validation, and the accounting invariants must
//! hold for any workload.

use mec_sim::{Allocation, Engine, Event, Phase, SlotConfig, SlotContext, SlotPolicy};
use mec_topology::units::{Compute, DataRate, Latency};
use mec_topology::TopologyBuilder;
use mec_workload::{ArrivalProcess, WorkloadBuilder};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Allocates random fractions of each station's capacity to random
/// schedulable jobs — legal by construction (capacity tracked, deadline
/// checked, no duplicates).
struct FuzzPolicy {
    rng: ChaCha8Rng,
}

impl SlotPolicy for FuzzPolicy {
    fn schedule(&mut self, ctx: &SlotContext<'_>) -> Vec<Allocation> {
        let mut remaining: Vec<f64> = ctx
            .topo
            .stations()
            .iter()
            .map(|s| s.capacity().as_mhz())
            .collect();
        let mut out = Vec::new();
        for view in &ctx.views {
            if !view.schedulable() || self.rng.gen::<f64>() < 0.3 {
                continue;
            }
            // Random feasible station for a first service; any station
            // afterwards.
            let stations: Vec<_> = ctx
                .topo
                .station_ids()
                .filter(|&s| {
                    view.job.realized().is_some()
                        || view.job.request().meets_deadline_at(
                            ctx.topo,
                            ctx.paths,
                            s,
                            view.job.waiting_slots(ctx.slot),
                            ctx.config.slot_ms,
                        )
                })
                .collect();
            if stations.is_empty() {
                continue;
            }
            let s = stations[self.rng.gen_range(0..stations.len())];
            let grant = remaining[s.index()] * self.rng.gen_range(0.0..0.4);
            if grant > 1.0 {
                remaining[s.index()] -= grant;
                out.push(Allocation {
                    request: view.job.id(),
                    station: s,
                    compute: Compute::mhz(grant),
                });
            }
        }
        out
    }

    fn name(&self) -> &str {
        "fuzz"
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A legal-by-construction policy never triggers a SimError, and the
    /// final accounting conserves requests.
    #[test]
    fn fuzz_policy_runs_clean(
        seed in 0u64..2000,
        n in 1usize..40,
        stations in 1usize..8,
        horizon in 1u64..120,
    ) {
        let topo = TopologyBuilder::new(stations).seed(seed).build();
        let requests = WorkloadBuilder::new(&topo)
            .seed(seed)
            .count(n)
            .duration_range(5, 30)
            .arrivals(ArrivalProcess::UniformOver { horizon: horizon.max(2) / 2 + 1 })
            .build();
        let paths = topo.shortest_paths();
        let cfg = SlotConfig { horizon, seed, ..Default::default() };
        let mut engine = Engine::new(&topo, &paths, requests.clone(), cfg);
        engine.enable_trace(usize::MAX);
        let metrics = engine
            .run(&mut FuzzPolicy { rng: ChaCha8Rng::seed_from_u64(seed) })
            .expect("legal policy must not trip validation");
        prop_assert_eq!(
            metrics.completed() + metrics.expired() + metrics.unserved(),
            n
        );
        // Utilization is a valid fraction everywhere.
        for u in engine.utilization() {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&u));
        }
        // Reward only comes from completed jobs, each crediting the reward
        // of the demand outcome its first service realized.
        let mut started_rate = vec![None; n];
        let mut expected = 0.0;
        for traced in engine.trace().unwrap().events() {
            match traced.event {
                Event::Started { request, rate_mbps, .. } => {
                    started_rate[request.index()] = Some(rate_mbps);
                }
                Event::Completed { request, reward } => {
                    let rate = started_rate[request.index()];
                    prop_assert!(rate.is_some(), "{} completed unstarted", request);
                    prop_assert!(requests[request.index()]
                        .demand()
                        .outcomes()
                        .iter()
                        .any(|o| Some(o.rate.as_mbps()) == rate && o.reward == reward));
                    expected += reward;
                }
                _ => {}
            }
        }
        prop_assert!((metrics.total_reward() - expected).abs() < 1e-6);
    }

    /// Served jobs always meet their deadline (the engine's own
    /// enforcement, validated from the outside).
    #[test]
    fn served_jobs_meet_deadlines(seed in 0u64..500) {
        let topo = TopologyBuilder::new(5).seed(seed).build();
        let requests = WorkloadBuilder::new(&topo)
            .seed(seed)
            .count(25)
            .arrivals(ArrivalProcess::UniformOver { horizon: 40 })
            .build();
        let paths = topo.shortest_paths();
        let cfg = SlotConfig { horizon: 100, seed, ..Default::default() };
        let mut engine = Engine::new(&topo, &paths, requests.clone(), cfg);
        engine.enable_trace(usize::MAX);
        engine
            .run(&mut FuzzPolicy { rng: ChaCha8Rng::seed_from_u64(seed ^ 7) })
            .expect("legal policy");
        // Every first service, read off the trace: Eq. 2's latency at the
        // traced station and slot is within the request's deadline.
        for traced in engine.trace().unwrap().events() {
            if let Event::Started { request, station, .. } = traced.event {
                let r = &requests[request.index()];
                let waiting = traced.slot - r.arrival_slot();
                let lat = r
                    .experienced_latency(&topo, &paths, station, waiting, cfg.slot_ms)
                    .unwrap();
                prop_assert!(lat.as_ms() <= r.deadline().as_ms() + 1e-6);
            }
        }
    }

    /// Work conservation: the data processed per job never exceeds what
    /// its realized stream contained.
    #[test]
    fn processed_work_bounded(seed in 0u64..500) {
        use mec_workload::demand::DemandDistribution;
        use mec_workload::request::{Request, RequestId};
        use mec_workload::task::Task;

        let topo = TopologyBuilder::new(3).seed(seed).build();
        let requests: Vec<Request> = (0..6)
            .map(|i| {
                Request::new(
                    RequestId(i),
                    (i % 3).into(),
                    0,
                    10,
                    Task::reference_pipeline(),
                    DemandDistribution::deterministic(DataRate::mbps(40.0), 100.0),
                    Latency::ms(200.0),
                )
            })
            .collect();
        let paths = topo.shortest_paths();
        let cfg = SlotConfig { horizon: 60, seed, ..Default::default() };
        let mut engine = Engine::new(&topo, &paths, requests, cfg);
        engine
            .run(&mut FuzzPolicy { rng: ChaCha8Rng::seed_from_u64(seed ^ 99) })
            .expect("legal policy");
        for job in engine.jobs() {
            if let Some(outcome) = job.realized() {
                let total =
                    outcome.rate.as_mbps() * job.request().duration_slots() as f64 * 0.05;
                if job.phase() == Phase::Running {
                    prop_assert!(job.remaining_mb() > 0.0 && job.remaining_mb() <= total + 1e-9);
                }
            }
        }
    }

    /// The engine holds only live jobs: after every step the checkpoint
    /// carries exactly the backlog, every job in it is waiting or running,
    /// and ids ascend below the next id to issue.
    #[test]
    fn checkpoint_holds_only_live_jobs(
        seed in 0u64..1000,
        n in 1usize..40,
        stations in 1usize..6,
        slots in 1u64..120,
    ) {
        let topo = TopologyBuilder::new(stations).seed(seed).build();
        let requests = WorkloadBuilder::new(&topo)
            .seed(seed)
            .count(n)
            .duration_range(5, 20)
            .arrivals(ArrivalProcess::UniformOver { horizon: slots / 2 + 1 })
            .build();
        let paths = topo.shortest_paths();
        let cfg = SlotConfig { horizon: slots, seed, ..Default::default() };
        let mut engine = Engine::new(&topo, &paths, requests, cfg);
        let mut policy = FuzzPolicy { rng: ChaCha8Rng::seed_from_u64(seed ^ 3) };
        for _ in 0..slots {
            engine.step(&mut policy).expect("legal policy");
            let state = engine.checkpoint();
            prop_assert_eq!(state.jobs.len(), engine.backlog());
            for job in &state.jobs {
                prop_assert!(matches!(job.phase(), Phase::Waiting | Phase::Running));
                prop_assert!(job.id().index() < state.next_id);
            }
            prop_assert!(state.jobs.windows(2).all(|w| w[0].id() < w[1].id()));
        }
        let m = engine.finish();
        prop_assert_eq!(m.completed() + m.expired() + m.unserved(), n);
    }

    /// Checkpoint/restore round-trips the engine state after an arbitrary
    /// slot prefix, and a restored engine is indistinguishable from the
    /// original under any further schedule: stepping both with identical
    /// policies yields identical checkpoints again.
    #[test]
    fn checkpoint_restore_round_trips_any_prefix(
        seed in 0u64..1000,
        n in 1usize..30,
        stations in 1usize..6,
        prefix in 0u64..60,
        suffix in 1u64..40,
    ) {
        let topo = TopologyBuilder::new(stations).seed(seed).build();
        let requests = WorkloadBuilder::new(&topo)
            .seed(seed)
            .count(n)
            .duration_range(5, 20)
            .arrivals(ArrivalProcess::UniformOver { horizon: prefix + suffix / 2 + 1 })
            .build();
        let paths = topo.shortest_paths();
        let cfg = SlotConfig { horizon: prefix + suffix, seed, ..Default::default() };
        let mut engine = Engine::new(&topo, &paths, requests, cfg);
        let mut warmup = FuzzPolicy { rng: ChaCha8Rng::seed_from_u64(seed ^ 1) };
        for _ in 0..prefix {
            engine.step(&mut warmup).expect("legal policy");
        }
        let state = engine.checkpoint();
        // Round trip: a fresh engine restored to the state re-checkpoints
        // to exactly the same state.
        let mut restored = Engine::new(&topo, &paths, Vec::new(), cfg);
        restored.restore(state.clone());
        prop_assert_eq!(restored.checkpoint(), state);
        // Continuation: original and restored diverge nowhere under an
        // identical (fresh) policy stream.
        let mut cont_a = FuzzPolicy { rng: ChaCha8Rng::seed_from_u64(seed ^ 2) };
        let mut cont_b = FuzzPolicy { rng: ChaCha8Rng::seed_from_u64(seed ^ 2) };
        for _ in 0..suffix {
            engine.step(&mut cont_a).expect("legal policy");
            restored.step(&mut cont_b).expect("legal policy");
        }
        prop_assert_eq!(engine.checkpoint(), restored.checkpoint());
    }
}
