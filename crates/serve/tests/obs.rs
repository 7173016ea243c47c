//! Observability integration tests: trace determinism across same-seed chaos runs and epoch
//! horizons, metrics-page content, learner telemetry and flight dumps in
//! the one event stream, and the snapshot recovery percentiles.

use mec_serve::{serve, ChaosSpec, LoadGen, ObsHub, ServeConfig};
use mec_sim::SlotConfig;
use mec_topology::{Topology, TopologyBuilder};
use mec_workload::{Request, WorkloadBuilder};
use std::collections::HashMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

fn world(stations: usize, requests: usize, seed: u64) -> (Topology, Vec<Request>) {
    let topo = TopologyBuilder::new(stations).seed(seed).build();
    let population = WorkloadBuilder::new(&topo)
        .seed(seed)
        .count(requests)
        .build();
    (topo, population)
}

fn chaos_cfg(seed: u64, chaos: &str) -> ServeConfig {
    ServeConfig {
        shards: 4,
        queue_capacity: 4_096,
        snapshot_every: 0,
        policy: "DynamicRR".to_string(),
        sim: SlotConfig {
            seed,
            ..SlotConfig::default()
        },
        chaos: ChaosSpec::parse(chaos).unwrap(),
        ..ServeConfig::default()
    }
}

/// A `Write` sink the test can read back after the hub is done with it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One traced chaos run; returns (trace JSONL, hub, final snapshot).
fn traced_run(seed: u64, chaos: &str) -> (String, Arc<ObsHub>, mec_serve::Snapshot) {
    let (topo, population) = world(20, 2_500, seed);
    let load = LoadGen::poisson(population, 1_500.0, 50.0, seed);
    let buf = SharedBuf::default();
    let hub = Arc::new(
        ObsHub::new()
            .with_trace(mec_obs::TraceWriter::new(Box::new(buf.clone())))
            .with_telemetry_every(5),
    );
    let cfg = ServeConfig {
        obs: Some(Arc::clone(&hub)),
        ..chaos_cfg(seed, chaos)
    };
    let snap = serve(&topo, load, &cfg, |_| {}).unwrap().final_snapshot;
    (buf.contents(), hub, snap)
}

#[test]
fn same_seed_chaos_runs_trace_byte_identically() {
    let chaos = "crash:shard=1@slot=10,recover@slot=22";
    let (trace_a, hub_a, _) = traced_run(77, chaos);
    let (trace_b, _, _) = traced_run(77, chaos);
    assert!(!trace_a.is_empty());
    assert_eq!(
        trace_a, trace_b,
        "a traced run replayed with the same seed must yield an identical event stream"
    );
    assert_eq!(hub_a.trace_written(), trace_a.lines().count() as u64);
    // The stream carries the whole story: run boundaries, the injected
    // crash (written by the worker before it panicked), its detection,
    // the recovery, admission funnels, and learner state sweeps.
    for kind in [
        "\"kind\":\"run_start\"",
        "\"kind\":\"fault_injected\"",
        "\"kind\":\"fault_detected\"",
        "\"kind\":\"restart\"",
        "\"kind\":\"admission\"",
        "\"kind\":\"served\"",
        "\"kind\":\"arm_state\"",
        "\"kind\":\"run_end\"",
    ] {
        assert!(trace_a.contains(kind), "trace lacks {kind}");
    }
    assert!(trace_a.contains("\"fault\":\"crash\""), "{chaos}");
    assert!(trace_a.contains("\"reason\":\"disconnect\""));
    assert!(trace_a.contains("\"ok\":true"));
}

#[test]
fn report_renders_the_trace() {
    let (trace, _, _) = traced_run(42, "crash:shard=2@slot=8,recover@slot=15");
    let report = mec_obs::build_report(trace.lines()).expect("trace must parse");
    let rendered = report.render();
    assert!(rendered.contains("arm-elimination timeline"), "{rendered}");
    assert!(rendered.contains("admission funnel"), "{rendered}");
    assert!(rendered.contains("replayed"), "{rendered}");
}

#[test]
fn metrics_page_exposes_restarts_and_arm_pulls() {
    let (_, hub, snap) = traced_run(42, "crash:shard=2@slot=8,recover@slot=15");
    let page = hub.registry().render_prometheus();
    assert!(
        page.contains("mec_serve_restarts_total{shard=\"2\"} 1"),
        "{page}"
    );
    assert!(
        page.contains("mec_serve_restarts_total{shard=\"0\"} 0"),
        "{page}"
    );
    assert!(page.contains("mec_bandit_arm_pulls{"), "{page}");
    assert!(page.contains("mec_serve_latency_ms_bucket{"), "{page}");
    // Registry counters and the snapshot shim agree by construction.
    assert!(snap.faults.restarts >= 1, "{:?}", snap.faults);
    let json = hub.registry().render_json();
    assert!(json.contains("mec_serve_admitted_total"), "{json}");
}

/// One probed, traced chaos run at the given epoch horizon; returns
/// (the one JSONL stream, hub, final snapshot).
fn probed_run_at(
    seed: u64,
    chaos: &str,
    horizon: u64,
) -> (String, Arc<ObsHub>, mec_serve::Snapshot) {
    let (topo, population) = world(20, 2_500, seed);
    let load = LoadGen::poisson(population, 1_500.0, 50.0, seed);
    let buf = SharedBuf::default();
    let hub = Arc::new(
        ObsHub::new()
            .with_trace(mec_obs::TraceWriter::new(Box::new(buf.clone())))
            .with_probe(true)
            .with_telemetry_every(5),
    );
    let cfg = ServeConfig {
        obs: Some(Arc::clone(&hub)),
        epoch_horizon: horizon,
        ..chaos_cfg(seed, chaos)
    };
    let snap = serve(&topo, load, &cfg, |_| {}).unwrap().final_snapshot;
    (buf.contents(), hub, snap)
}

fn probed_run(seed: u64, chaos: &str) -> (String, Arc<ObsHub>, mec_serve::Snapshot) {
    probed_run_at(seed, chaos, ServeConfig::default().epoch_horizon)
}

/// Pulls the value of `"key":` out of one JSON line (bare integers or
/// quoted ASCII identifiers).
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\":");
    let rest = &line[line.find(&tag).unwrap() + tag.len()..];
    rest.split([',', '}']).next().unwrap()
}

#[test]
fn probed_run_streams_learner_events_and_dumps_flight_on_crash() {
    let chaos = "crash:shard=1@slot=40,recover@slot=52";
    let (trace, hub, _) = probed_run(9, chaos);
    for kind in ["\"kind\":\"arm_lifecycle\"", "\"kind\":\"learning_state\""] {
        assert!(trace.contains(kind), "trace lacks {kind}");
    }
    // The learning plane's gauges register only while the probe is on.
    let page = hub.registry().render_prometheus();
    assert!(page.contains("mec_learn_regret{"), "{page}");
    assert!(page.contains("mec_learn_steps{"), "{page}");
    // The live /learning.json document carries per-arm state.
    let doc = hub.learning_doc().lock().unwrap().clone();
    assert!(doc.contains("\"arms\""), "{doc}");
    assert!(doc.contains("\"regret\""), "{doc}");
    assert!(doc.contains("\"radius\""), "{doc}");
    // The crash tripped a flight dump into the same stream, and every
    // dump section ends on its own triggering slot (snapshots are
    // sorted).
    assert!(
        trace.contains("\"trigger\":\"crash\""),
        "crash must dump the flight recorder"
    );
    let lines: Vec<&str> = trace
        .lines()
        .filter(|l| l.contains("\"kind\":\"flight_dump\"") || l.contains("\"kind\":\"flight\""))
        .collect();
    let mut dumps = 0;
    for (i, line) in lines.iter().enumerate() {
        if !line.contains("\"kind\":\"flight_dump\"") {
            continue;
        }
        dumps += 1;
        let section_end = lines[i + 1..]
            .iter()
            .position(|l| l.contains("\"kind\":\"flight_dump\""))
            .map_or(lines.len() - 1, |off| i + off);
        assert_eq!(
            field(lines[section_end], "slot"),
            field(line, "slot"),
            "dump at line {i} must end on its triggering slot"
        );
    }
    assert!(dumps >= 1);
    assert_eq!(hub.trace_written(), trace.lines().count() as u64);
}

#[test]
fn probe_observes_without_perturbing_the_run() {
    // The probe is telemetry-only: a probed run and a probe-detached run
    // with the same seed and chaos must land on identical final
    // snapshots (same decisions, rewards, and fault accounting).
    let chaos = "crash:shard=1@slot=10,recover@slot=22";
    let (_, _, probed) = probed_run(77, chaos);
    let (_, _, detached) = traced_run(77, chaos);
    assert_eq!(probed.to_json(), detached.to_json());
}

#[test]
fn recovery_percentiles_populate_under_chaos() {
    // One restart with a pinned 12-slot outage: every percentile is 12.
    let (_, _, snap) = traced_run(77, "crash:shard=1@slot=10,recover@slot=22");
    assert_eq!(snap.faults.recovery_latency_slots, 12, "{:?}", snap.faults);
    assert_eq!(snap.faults.recovery_p50_slots, 12);
    assert_eq!(snap.faults.recovery_p95_slots, 12);
    assert_eq!(snap.faults.recovery_max_slots, 12);
}

#[test]
fn one_stream_is_identical_across_horizons_and_reruns() {
    // Genesis replay (no checkpoints) keeps recovery exact for the
    // stateful DynamicRR learner, so the crash cannot fork decisions.
    let chaos = "crash:shard=1@slot=10,recover@slot=22";
    let (lockstep, _, snap) = probed_run_at(77, chaos, 1);
    let (leased, _, leased_snap) = probed_run_at(77, chaos, 8);
    let (rerun, _, _) = probed_run_at(77, chaos, 8);
    assert_eq!(snap.to_json(), leased_snap.to_json());
    assert!(snap.faults.restarts >= 1, "{:?}", snap.faults);
    assert!(
        lockstep == leased,
        "the stream must not depend on the epoch horizon"
    );
    assert!(
        lockstep == rerun,
        "same-seed runs must stream identical bytes"
    );
    for kind in ["lifecycle", "arm_lifecycle", "flight_dump", "restart"] {
        let tag = format!("\"kind\":\"{kind}\"");
        assert!(lockstep.contains(&tag), "stream lacks {tag}");
    }

    // Every admitted request ends in exactly one terminal record, the
    // crashed shard's replay included.
    let mut admitted: HashMap<u64, u32> = HashMap::new();
    let mut terminal: HashMap<u64, u32> = HashMap::new();
    for line in lockstep
        .lines()
        .filter(|l| l.contains("\"kind\":\"lifecycle\""))
    {
        let id: u64 = field(line, "id").parse().unwrap();
        match field(line, "stage") {
            "\"admit\"" | "\"spill\"" | "\"buffer\"" => *admitted.entry(id).or_default() += 1,
            "\"complete\"" | "\"expire\"" | "\"abort\"" => *terminal.entry(id).or_default() += 1,
            _ => {}
        }
    }
    assert_eq!(admitted.len() as u64, snap.admitted);
    assert_eq!(snap.unserved, 0, "every admitted request must finish");
    for (id, n) in &admitted {
        assert_eq!(*n, 1, "request {id} admitted {n} times");
        assert_eq!(
            terminal.get(id),
            Some(&1),
            "request {id} needs exactly one terminal record"
        );
    }
    assert_eq!(
        terminal.len(),
        admitted.len(),
        "terminal records for unadmitted ids"
    );
}
