//! Request-lifecycle tracing integration tests: `lifecycle` records in the trace keep id continuity
//! across crash+restart and drain handoffs, the stream is deterministic,
//! and attaching (or detaching) the trace never changes a run's
//! deterministic snapshot.

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

// Stateless policy (Greedy) so checkpoint replay is exact — the
// duplicate-free lifecycle guarantee inherits the recovery contract:
// genesis replay is exact for every policy, checkpoint replay only for
// stateless ones (a stateful policy restarts with fresh internal state
// and may schedule the replayed tail differently).
fn base_cfg(seed: u64, chaos: &str) -> ServeConfig {
    ServeConfig {
        shards: 4,
        queue_capacity: 4_096,
        snapshot_every: 0,
        policy: "Greedy".to_string(),
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

/// One run with the trace attached; returns (its `lifecycle` records as
/// JSONL, final snapshot).
fn lifecycle_run(seed: u64, chaos: &str, checkpoint_every: u64) -> (String, mec_serve::Snapshot) {
    let (topo, population) = world(20, 2_500, seed);
    let load = LoadGen::poisson(population, 1_500.0, 50.0, seed);
    let buf = SharedBuf::default();
    let hub = Arc::new(ObsHub::new().with_trace(mec_obs::TraceWriter::new(Box::new(buf.clone()))));
    let mut cfg = ServeConfig {
        obs: Some(hub),
        ..base_cfg(seed, chaos)
    };
    cfg.faults.checkpoint_every = checkpoint_every;
    let snap = serve(&topo, load, &cfg, |_| {}).unwrap().final_snapshot;
    let records = buf
        .contents()
        .lines()
        .filter(|l| l.contains("\"kind\":\"lifecycle\""))
        .map(|l| format!("{l}\n"))
        .collect();
    (records, snap)
}

/// Pulls `"key":value` out of one JSON line (values here are bare
/// integers or quoted ASCII identifiers).
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\":");
    let rest = &line[line.find(&tag).unwrap() + tag.len()..];
    rest.split([',', '}']).next().unwrap()
}

#[test]
fn same_seed_crash_runs_yield_identical_lifecycle_streams() {
    let chaos = "crash:shard=1@slot=10,recover@slot=22";
    let (stream_a, snap_a) = lifecycle_run(77, chaos, 4);
    let (stream_b, snap_b) = lifecycle_run(77, chaos, 4);
    assert!(!stream_a.is_empty());
    assert_eq!(
        stream_a, stream_b,
        "same-seed chaos runs must emit byte-identical lifecycle streams"
    );
    assert_eq!(snap_a.to_json(), snap_b.to_json());
    for stage in [
        "\"stage\":\"admit\"",
        "\"stage\":\"start\"",
        "\"stage\":\"complete\"",
    ] {
        assert!(stream_a.contains(stage), "stream lacks {stage}");
    }
}

#[test]
fn crash_replay_never_duplicates_terminal_records() {
    // Checkpointed crash+restart: the replacement worker replays from the
    // checkpoint, so without `life_from` suppression every record from
    // the checkpoint slot to the crash slot would appear twice.
    let (stream, snap) = lifecycle_run(77, "crash:shard=1@slot=10,recover@slot=22", 4);
    assert!(snap.faults.restarts >= 1, "{:?}", snap.faults);
    let mut admits: HashMap<u64, u32> = HashMap::new();
    let mut terminal: HashMap<u64, u32> = HashMap::new();
    for line in stream.lines() {
        let id: u64 = field(line, "id").parse().unwrap();
        match field(line, "stage") {
            "\"admit\"" | "\"spill\"" | "\"buffer\"" => *admits.entry(id).or_default() += 1,
            "\"complete\"" | "\"expire\"" | "\"abort\"" => *terminal.entry(id).or_default() += 1,
            _ => {}
        }
    }
    assert!(!terminal.is_empty());
    let trail = |id: u64| -> String {
        stream
            .lines()
            .filter(|l| field(l, "id") == id.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    for (id, n) in &admits {
        assert_eq!(*n, 1, "request {id} admitted {n} times:\n{}", trail(*id));
    }
    for (id, n) in &terminal {
        assert_eq!(
            *n,
            1,
            "request {id} reached a terminal stage {n} times:\n{}",
            trail(*id)
        );
        assert!(admits.contains_key(id), "request {id} finished unadmitted");
    }
}

#[test]
fn drain_handoff_preserves_global_ids() {
    // Drain a busy station: its in-flight jobs move to the takeover shard
    // mid-run. Every handed-off id must stay attributable — admitted
    // before the move, and (when it finishes in time) exactly one
    // terminal record after it, from the shard it moved to.
    let (stream, snap) = lifecycle_run(31, "drain:station=2@slot=10@window=2", 0);
    assert!(snap.placement.handoffs >= 1, "{:?}", snap.placement);
    let mut handed: Vec<u64> = Vec::new();
    let mut admitted: Vec<u64> = Vec::new();
    let mut terminal: HashMap<u64, u32> = HashMap::new();
    for line in stream.lines() {
        let id: u64 = field(line, "id").parse().unwrap();
        match field(line, "stage") {
            "\"handoff\"" => handed.push(id),
            "\"admit\"" | "\"spill\"" | "\"buffer\"" => admitted.push(id),
            "\"complete\"" | "\"expire\"" | "\"abort\"" => *terminal.entry(id).or_default() += 1,
            _ => {}
        }
    }
    assert!(
        !handed.is_empty(),
        "the drained station moved no jobs; pick a busier slot"
    );
    for id in &handed {
        assert!(
            admitted.contains(id),
            "handed-off id {id} was never admitted"
        );
        assert!(
            terminal.get(id).is_none_or(|n| *n == 1),
            "handed-off id {id} finished {:?} times",
            terminal.get(id)
        );
    }
    for (id, n) in &terminal {
        assert_eq!(*n, 1, "request {id} reached a terminal stage {n} times");
    }
}

#[test]
fn lifecycle_attachment_never_perturbs_the_run() {
    let chaos = "crash:shard=1@slot=10,recover@slot=22";
    let plain = {
        let (topo, population) = world(20, 2_500, 77);
        let load = LoadGen::poisson(population, 1_500.0, 50.0, 77);
        let mut cfg = base_cfg(77, chaos);
        cfg.faults.checkpoint_every = 4;
        serve(&topo, load, &cfg, |_| {})
            .unwrap()
            .final_snapshot
            .to_json()
    };
    let (stream, traced) = lifecycle_run(77, chaos, 4);
    assert!(!stream.is_empty());
    assert_eq!(
        plain,
        traced.to_json(),
        "attaching lifecycle tracing must not change the deterministic snapshot"
    );
}
