//! Threshold learning, inside-out: watch `DynamicRR`'s Lipschitz bandit
//! discretize the threshold interval, explore the arms, and eliminate the
//! dominated ones — then compare the learned threshold's reward against
//! every fixed threshold (the regret oracle of Theorem 3).
//!
//! Run with: `cargo run --release --example threshold_learning`
//!
//! With `--features obs` the example also drives the same workload
//! through the traced serving runtime and prints a mini admission
//! funnel + elimination summary from the captured event stream.

use mec_ar::prelude::*;

fn run_once(
    topo: &Topology,
    requests: &[Request],
    cfg: SlotConfig,
    lo: f64,
    hi: f64,
    kappa: usize,
) -> (f64, f64, usize) {
    let paths = topo.shortest_paths();
    let mut engine = Engine::new(topo, &paths, requests.to_vec(), cfg);
    let mut policy = DynamicRr::new(DynamicRrConfig {
        threshold_lo_mhz: lo,
        threshold_hi_mhz: hi,
        kappa,
        horizon_hint: cfg.horizon,
        ..Default::default()
    });
    let metrics = engine.run(&mut policy).expect("legal schedules");
    (
        metrics.total_reward(),
        policy.learned_threshold(),
        policy.active_arms(),
    )
}

fn main() {
    let topo = TopologyBuilder::new(20).seed(3).build();
    let params = InstanceParams::default();
    // Saturated load: the threshold choice actually matters here.
    let requests = WorkloadBuilder::new(&topo)
        .seed(3)
        .count(300)
        .duration_range(60, 120)
        .arrivals(ArrivalProcess::UniformOver { horizon: 200 })
        .build();
    let cfg = SlotConfig {
        horizon: 400,
        c_unit: params.c_unit,
        slot_ms: params.slot_ms,
        seed: 3,
        ..Default::default()
    };

    // Every fixed threshold (κ = 1 collapses the bandit to one arm).
    let domain = LipschitzDomain::new(100.0, 1000.0, 9);
    println!("{:<22} {:>10}", "threshold (MHz)", "reward $");
    let mut best = f64::MIN;
    for v in domain.values() {
        let (reward, _, _) = run_once(&topo, &requests, cfg, v, v, 1);
        best = best.max(reward);
        println!("{:<22.0} {:>10.1}", v, reward);
    }

    // The learner over the full interval.
    let (reward, learned, active) = run_once(&topo, &requests, cfg, 100.0, 1000.0, 9);
    println!("\nDynamicRR learned threshold {learned:.0} MHz ({active} arms still active)");
    println!("DynamicRR reward {reward:.1} vs best fixed {best:.1}");
    println!("end-to-end regret: {:.1}", best - reward);

    // Theorem 3's tradeoff: finer grids shrink the discretization error
    // but raise the bandit term.
    println!("\nregret-bound tradeoff (T = 400, eta = 0.5):");
    for kappa in [3usize, 9, 27, 81] {
        let d = LipschitzDomain::new(100.0, 1000.0, kappa);
        println!(
            "  kappa {:>3}: eps = {:>6.1} MHz, bound = {:.0}",
            kappa,
            d.epsilon(),
            d.regret_bound(0.5, 400)
        );
    }

    #[cfg(feature = "obs")]
    traced_serve_summary();
}

/// Replays a small traced serving run of the same kind of workload and
/// folds its event stream into a funnel + elimination summary.
#[cfg(feature = "obs")]
fn traced_serve_summary() {
    use std::sync::{Arc, Mutex};

    // An in-memory byte sink for the trace: the report is built straight
    // from the captured lines, no temp file involved.
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

    let topo = TopologyBuilder::new(12).seed(3).build();
    let population = WorkloadBuilder::new(&topo).seed(3).count(400).build();
    let load = LoadGen::poisson(population, 2_000.0, 50.0, 3);
    let sink = Captured::default();
    let hub = ObsHub::new()
        .with_trace(mec_ar::obs::TraceWriter::new(Box::new(sink.clone())))
        .with_telemetry_every(25)
        // Eliminations are the arm probe's lifecycle events.
        .with_probe(true);
    let cfg = ServeConfig {
        shards: 2,
        queue_capacity: 64,
        snapshot_every: 0,
        obs: Some(Arc::new(hub)),
        ..ServeConfig::default()
    };
    serve(&topo, load, &cfg, |_| {}).expect("traced serve run");
    if let Some(hub) = &cfg.obs {
        hub.flush();
    }

    let bytes = sink.0.lock().unwrap();
    let text = String::from_utf8_lossy(&bytes);
    let report = mec_ar::obs::build_report(text.lines()).expect("well-formed trace");
    println!("\n== traced serving run (--features obs) ==");
    println!("events captured: {}", report.events);
    let offered: u64 = report.funnel.values().sum();
    print!("funnel: offered {offered}");
    for key in ["admitted", "buffered", "spilled", "shed"] {
        print!(" | {key} {}", report.funnel.get(key).copied().unwrap_or(0));
    }
    println!();
    println!(
        "arm eliminations observed: {} across {} shard(s)",
        report.eliminations.len(),
        cfg.shards
    );
    for (slot, shard, arm, value_mhz, left) in report.eliminations.iter().take(5) {
        println!(
            "  slot {slot:>5}  shard {shard}  arm {arm} ({value_mhz:.0} MHz) out, {left} left"
        );
    }
}
