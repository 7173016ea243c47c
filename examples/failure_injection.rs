//! Failure injection: what the engine and solvers refuse to accept.
//!
//! The slot engine validates every schedule a policy emits — this example
//! deliberately builds misbehaving policies and broken programs to show
//! each rejection path, the way an integrator would probe the system's
//! guardrails.
//!
//! Run with: `cargo run --release --example failure_injection`
//!
//! The example also crashes a shard inside the traced serving runtime
//! and prints the fault/restart log plus the admission funnel recovered
//! from the event stream.

use mec_ar::lp::{Cmp, Problem, Sense};
use mec_ar::prelude::*;
use mec_ar::sim::SimError;

fn world() -> (Topology, Vec<Request>, SlotConfig) {
    let topo = TopologyBuilder::new(4).seed(1).build();
    let requests = WorkloadBuilder::new(&topo).seed(1).count(5).build();
    let cfg = SlotConfig {
        horizon: 20,
        ..Default::default()
    };
    (topo, requests, cfg)
}

struct OverCommitter;
impl SlotPolicy for OverCommitter {
    fn schedule(&mut self, ctx: &SlotContext<'_>) -> Vec<Allocation> {
        // Grants every job 10x a station's capacity.
        ctx.views
            .iter()
            .map(|v| Allocation {
                request: v.job.id(),
                station: 0.into(),
                compute: Compute::mhz(33_000.0),
            })
            .collect()
    }
    fn name(&self) -> &str {
        "over-committer"
    }
}

struct Duplicator;
impl SlotPolicy for Duplicator {
    fn schedule(&mut self, ctx: &SlotContext<'_>) -> Vec<Allocation> {
        ctx.views
            .iter()
            .flat_map(|v| {
                let a = Allocation {
                    request: v.job.id(),
                    station: 0.into(),
                    compute: Compute::mhz(10.0),
                };
                [a, a]
            })
            .collect()
    }
    fn name(&self) -> &str {
        "duplicator"
    }
}

struct GhostScheduler;
impl SlotPolicy for GhostScheduler {
    fn schedule(&mut self, _ctx: &SlotContext<'_>) -> Vec<Allocation> {
        vec![Allocation {
            request: RequestId(999),
            station: 0.into(),
            compute: Compute::mhz(10.0),
        }]
    }
    fn name(&self) -> &str {
        "ghost-scheduler"
    }
}

fn probe(policy: &mut dyn SlotPolicy) -> SimError {
    let (topo, requests, cfg) = world();
    let paths = topo.shortest_paths();
    let mut engine = Engine::new(&topo, &paths, requests, cfg);
    engine
        .run(policy)
        .expect_err("the engine must reject this policy")
}

fn main() {
    println!("== engine guardrails ==");
    for policy in [
        &mut OverCommitter as &mut dyn SlotPolicy,
        &mut Duplicator,
        &mut GhostScheduler,
    ] {
        let err = probe(policy);
        println!("{:<16} -> {err}", policy.name());
        match policy.name() {
            "over-committer" => assert!(matches!(err, SimError::CapacityExceeded { .. })),
            "duplicator" => assert!(matches!(err, SimError::DuplicateAllocation(_))),
            _ => assert!(matches!(err, SimError::UnknownRequest(_))),
        }
    }

    println!("\n== solver guardrails ==");
    // Infeasible program: 1 <= x <= 0.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var(1.0);
    p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
    p.add_constraint(vec![(x, 1.0)], Cmp::Le, 0.0);
    println!("infeasible LP   -> {}", p.solve().unwrap_err());

    // Unbounded program: max x with no ceiling.
    let mut p = Problem::new(Sense::Maximize);
    let _ = p.add_var(1.0);
    println!("unbounded LP    -> {}", p.solve().unwrap_err());

    // Demand distributions validate their probabilities.
    let bad = DemandDistribution::new(vec![DemandOutcome {
        rate: DataRate::mbps(30.0),
        prob: 0.7,
        reward: 100.0,
    }]);
    println!("bad demand      -> {}", bad.unwrap_err());

    println!("\nall injected failures were caught");

    traced_fault_summary();
}

/// Crashes a shard mid-run under tracing and summarizes the fault,
/// restart, and funnel events the runtime recorded about it.
fn traced_fault_summary() {
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Default)]
    struct Captured(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for Captured {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let topo = TopologyBuilder::new(8).seed(1).build();
    let population = WorkloadBuilder::new(&topo).seed(1).count(300).build();
    let load = LoadGen::poisson(population, 2_000.0, 50.0, 1);
    let sink = Captured::default();
    let hub = ObsHub::new().with_trace(mec_ar::obs::TraceWriter::new(Box::new(sink.clone())));
    let chaos = mec_ar::serve::ChaosSpec::parse("crash:shard=1@slot=30,recover@slot=40")
        .expect("chaos grammar");
    let cfg = ServeConfig {
        shards: 2,
        queue_capacity: 64,
        snapshot_every: 0,
        chaos,
        obs: Some(Arc::new(hub)),
        ..ServeConfig::default()
    };
    serve(&topo, load, &cfg, |_| {}).expect("chaos serve run");
    if let Some(hub) = &cfg.obs {
        hub.flush();
    }

    let bytes = sink.0.lock().unwrap();
    let text = String::from_utf8_lossy(&bytes);
    let report = mec_ar::obs::build_report(text.lines()).expect("well-formed trace");
    println!("\n== traced shard crash ==");
    println!("events captured: {}", report.events);
    let offered: u64 = report.funnel.values().sum();
    print!("funnel: offered {offered}");
    for key in ["admitted", "buffered", "spilled", "shed", "shed_down"] {
        print!(" | {key} {}", report.funnel.get(key).copied().unwrap_or(0));
    }
    println!();
    for (slot, shard, kind) in &report.faults_injected {
        println!("  slot {slot:>5}  shard {shard}  injected: {kind}");
    }
    for (slot, shard, reason) in &report.faults_detected {
        println!("  slot {slot:>5}  shard {shard}  detected: {reason}");
    }
    for r in &report.restarts {
        println!(
            "  slot {:>5}  shard {}  restart {}: {} arrival(s) replayed, outage {} slot(s)",
            r.slot,
            r.shard,
            if r.ok { "recovered" } else { "failed" },
            r.replayed,
            r.latency_slots
        );
    }
    assert!(
        !report.faults_injected.is_empty(),
        "the scripted crash must appear in the trace"
    );
}
