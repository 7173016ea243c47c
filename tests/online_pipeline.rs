//! End-to-end online pipeline: streaming arrivals through the slot engine
//! under every policy, with conservation and ordering invariants.

use mec_ar::prelude::*;
use mec_ar::sim::Event;

fn world(n: usize, stations: usize, seed: u64) -> (Topology, Vec<Request>, SlotConfig) {
    let topo = TopologyBuilder::new(stations).seed(seed).build();
    let params = InstanceParams::default();
    let requests = WorkloadBuilder::new(&topo)
        .seed(seed)
        .count(n)
        .duration_range(60, 120)
        .arrivals(ArrivalProcess::UniformOver { horizon: 200 })
        .build();
    let cfg = SlotConfig {
        horizon: 400,
        c_unit: params.c_unit,
        slot_ms: params.slot_ms,
        seed,
        ..Default::default()
    };
    (topo, requests, cfg)
}

fn policies(horizon: u64) -> Vec<Box<dyn SlotPolicy>> {
    vec![
        Box::new(DynamicRr::new(DynamicRrConfig {
            horizon_hint: horizon,
            ..Default::default()
        })),
        Box::new(OnlineHeuKkt::new()),
        Box::new(OnlineOcorp::new()),
        Box::new(OnlineGreedy::new()),
    ]
}

#[test]
fn conservation_under_every_policy() {
    let (topo, requests, cfg) = world(80, 8, 3);
    let paths = topo.shortest_paths();
    for mut policy in policies(cfg.horizon) {
        let mut engine = Engine::new(&topo, &paths, requests.clone(), cfg);
        engine.enable_trace(usize::MAX);
        let metrics = engine.run(policy.as_mut()).unwrap();
        assert_eq!(
            metrics.completed() + metrics.expired() + metrics.unserved(),
            requests.len(),
            "{} lost requests",
            policy.name()
        );
        // Completed jobs earned exactly their realized rewards: the reward
        // of the demand outcome whose rate their first service traced.
        let mut started_rate = vec![None; requests.len()];
        let mut credited = 0.0;
        for traced in engine.trace().unwrap().events() {
            match traced.event {
                Event::Started {
                    request, rate_mbps, ..
                } => started_rate[request.index()] = Some(rate_mbps),
                Event::Completed { request, reward } => {
                    let rate = started_rate[request.index()].expect("completed after start");
                    assert!(
                        requests[request.index()]
                            .demand()
                            .outcomes()
                            .iter()
                            .any(|o| o.rate.as_mbps() == rate && o.reward == reward),
                        "{}: {request} credited a reward it did not realize",
                        policy.name()
                    );
                    credited += reward;
                }
                _ => {}
            }
        }
        assert!(
            (credited - metrics.total_reward()).abs() < 1e-6,
            "{} reward mismatch",
            policy.name()
        );
    }
}

#[test]
fn every_served_job_met_its_deadline() {
    let (topo, requests, cfg) = world(100, 10, 9);
    let paths = topo.shortest_paths();
    for mut policy in policies(cfg.horizon) {
        let mut engine = Engine::new(&topo, &paths, requests.clone(), cfg);
        engine.enable_trace(usize::MAX);
        let _ = engine.run(policy.as_mut()).unwrap();
        // Eq. 2's latency at each traced first service (station and slot).
        for traced in engine.trace().unwrap().events() {
            if let Event::Started {
                request, station, ..
            } = traced.event
            {
                let r = &requests[request.index()];
                let waiting = traced.slot - r.arrival_slot();
                let latency = r
                    .experienced_latency(&topo, &paths, station, waiting, cfg.slot_ms)
                    .unwrap();
                assert!(
                    latency.as_ms() <= r.deadline().as_ms() + 1e-6,
                    "{}: job {request} served late ({latency})",
                    policy.name(),
                );
            }
        }
    }
}

#[test]
fn dynamic_rr_wins_under_saturation() {
    // Fig 4's |R| = 300 operating point, averaged over seeds.
    let mut rewards = [0.0f64; 4];
    let seeds = 3;
    for seed in 0..seeds {
        let (topo, requests, cfg) = world(300, 20, seed);
        let paths = topo.shortest_paths();
        for (k, mut policy) in policies(cfg.horizon).into_iter().enumerate() {
            let mut engine = Engine::new(&topo, &paths, requests.clone(), cfg);
            rewards[k] += engine.run(policy.as_mut()).unwrap().total_reward();
        }
    }
    let [dynrr, heukkt, ocorp, greedy] = rewards;
    assert!(
        dynrr > heukkt,
        "DynamicRR ({dynrr}) must beat HeuKKT ({heukkt})"
    );
    assert!(
        dynrr > ocorp,
        "DynamicRR ({dynrr}) must beat OCORP ({ocorp})"
    );
    assert!(
        dynrr > greedy,
        "DynamicRR ({dynrr}) must beat Greedy ({greedy})"
    );
}

#[test]
fn unsaturated_world_completes_nearly_everything() {
    let (topo, requests, cfg) = world(40, 12, 2);
    let paths = topo.shortest_paths();
    for mut policy in policies(cfg.horizon) {
        let mut engine = Engine::new(&topo, &paths, requests.clone(), cfg);
        let metrics = engine.run(policy.as_mut()).unwrap();
        assert!(
            metrics.completed() >= 38,
            "{} completed only {}",
            policy.name(),
            metrics.completed()
        );
    }
}

#[test]
fn utilization_and_trace_are_consistent() {
    let (topo, requests, cfg) = world(60, 6, 11);
    let paths = topo.shortest_paths();
    let mut engine = Engine::new(&topo, &paths, requests.clone(), cfg);
    engine.enable_trace(100_000);
    let metrics = engine
        .run(&mut DynamicRr::new(DynamicRrConfig {
            horizon_hint: cfg.horizon,
            ..Default::default()
        }))
        .unwrap();

    // Utilization fractions are valid and positive somewhere.
    let util = engine.utilization();
    assert_eq!(util.len(), topo.station_count());
    assert!(util.iter().all(|&u| (0.0..=1.0 + 1e-9).contains(&u)));
    assert!(engine.avg_utilization() > 0.0);

    // The trace agrees with the metrics: one Arrived per request, one
    // Completed per completion, one Expired per expiry.
    let trace = engine.trace().unwrap();
    assert_eq!(trace.dropped(), 0, "trace capacity too small for the test");
    let count = |f: &dyn Fn(&Event) -> bool| trace.events().iter().filter(|e| f(&e.event)).count();
    assert_eq!(
        count(&|e| matches!(e, Event::Arrived { .. })),
        requests.len()
    );
    assert_eq!(
        count(&|e| matches!(e, Event::Completed { .. })),
        metrics.completed()
    );
    assert_eq!(
        count(&|e| matches!(e, Event::Expired { .. })),
        metrics.expired()
    );
    // Started events equal the number of jobs that ever realized: each
    // request starts at most once, and each started job books exactly one
    // latency sample (on completion, abort, or as unserved at the end).
    let mut started: Vec<usize> = trace
        .events()
        .iter()
        .filter_map(|e| match e.event {
            Event::Started { request, .. } => Some(request.index()),
            _ => None,
        })
        .collect();
    let starts = started.len();
    started.sort_unstable();
    started.dedup();
    assert_eq!(started.len(), starts, "a request started twice");
    assert_eq!(starts, metrics.latencies_ms().len());
}

#[test]
fn engine_runs_are_reproducible_per_policy() {
    let (topo, requests, cfg) = world(60, 6, 4);
    let paths = topo.shortest_paths();
    for make in 0..4usize {
        let run = |requests: Vec<Request>| {
            let mut engine = Engine::new(&topo, &paths, requests, cfg);
            let mut policy = policies(cfg.horizon).remove(make);
            engine.run(policy.as_mut()).unwrap()
        };
        let a = run(requests.clone());
        let b = run(requests.clone());
        assert_eq!(a, b);
    }
}
