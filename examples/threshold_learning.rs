//! Threshold learning, inside-out: watch `DynamicRR`'s Lipschitz bandit
//! discretize the threshold interval and explore its arms, then compare
//! the learned threshold's reward against every fixed threshold (the
//! regret oracle of Theorem 3).
//!
//! No arm is eliminated at this horizon, and the output says why.
//! Successive elimination drops an arm once its upper confidence bound
//! falls below another arm's lower one, with radius `sqrt(2 ln T / n)`.
//! At T = 400 and about 44 pulls an arm that radius is about 0.5, while
//! every fixed threshold earns within 1% of the best: the arms are far
//! closer together than 400 slots can tell apart.
//!
//! The example also drives a small workload through the traced serving
//! runtime and prints its admission funnel and each shard's final arm
//! table from the captured event stream.
//!
//! Run with: `cargo run --release --example threshold_learning`

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
    let (mut best, mut worst) = (f64::MIN, f64::MAX);
    for v in domain.values() {
        let (reward, _, _) = run_once(&topo, &requests, cfg, v, v, 1);
        best = best.max(reward);
        worst = worst.min(reward);
        println!("{:<22.0} {:>10.1}", v, reward);
    }

    // The learner over the full interval.
    let arms = domain.values().len();
    let (reward, learned, active) = run_once(&topo, &requests, cfg, 100.0, 1000.0, arms);
    println!(
        "\nDynamicRR learned threshold {learned:.0} MHz ({active} of {arms} arms still active)"
    );
    println!("DynamicRR reward {reward:.1} vs best fixed {best:.1}");
    println!("end-to-end regret: {:.1}", best - reward);
    if active == arms {
        let pulls = cfg.horizon as f64 / arms as f64;
        let radius = (2.0 * (cfg.horizon as f64).ln() / pulls).sqrt();
        println!(
            "no arm eliminated: the radius sqrt(2 ln T / n) at T = {}, n = {pulls:.0} is \
             {radius:.2}, while the fixed thresholds' rewards span {:.2}% of the best",
            cfg.horizon,
            100.0 * (best - worst) / best
        );
    }

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

    traced_serve_summary();
}

/// Replays a small traced serving run of the same kind of workload and
/// folds its event stream into a funnel and per-shard arm tables.
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
        // Every 25 slots each shard sweeps its arms into `arm_state` events.
        .with_telemetry_every(25);
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
    println!("\n== traced serving run ==");
    println!("events captured: {}", report.events);
    let offered: u64 = report.funnel.values().sum();
    print!("funnel: offered {offered}");
    for key in ["admitted", "buffered", "spilled", "shed"] {
        print!(" | {key} {}", report.funnel.get(key).copied().unwrap_or(0));
    }
    println!();
    for (shard, arms) in &report.arms {
        let as_of = report.arms_as_of.get(shard).copied().unwrap_or(0);
        println!("shard {shard} arm table at slot {as_of}:");
        println!("  arm   MHz  pulls    mean     lcb     ucb  active");
        for row in arms.values() {
            println!(
                "  {:>3} {:>5.0} {:>6} {:>7.3} {:>7.3} {:>7.3}  {}",
                row.arm, row.value_mhz, row.pulls, row.mean, row.lcb, row.ucb, row.active
            );
        }
    }
}
