//! Long-running sharded serving binary.
//!
//! Generates (or loads) an AR request population, re-times it as an
//! open-loop Poisson stream, and drives it through the sharded runtime,
//! printing one JSON snapshot per line to stdout and a human summary to
//! stderr.
//!
//! ```text
//! mec-serve --stations 100 --requests 100000 --shards 4 --rps 2000
//! mec-serve --chaos crash:shard=1@slot=50,recover@slot=60 --seed 7
//! ```

use mec_core::{UnknownPolicy, POLICY_NAMES};
use mec_placement::{EvictionPolicy, OpsLog, PlacementConfig};
use mec_serve::{serve, ChaosSpec, ClockMode, DegradedPolicy, LoadGen, ServeConfig};
use mec_topology::TopologyBuilder;
use mec_workload::WorkloadBuilder;
use std::process::ExitCode;

struct Args {
    stations: usize,
    requests: usize,
    shards: usize,
    policy: String,
    rps: f64,
    seed: u64,
    snapshot_every: u64,
    queue_capacity: usize,
    epoch_horizon: u64,
    slot_ms: f64,
    drain_slots: u64,
    paced: bool,
    trace: Option<String>,
    chaos: ChaosSpec,
    tick_timeout_ms: u64,
    checkpoint_every: u64,
    degraded: DegradedPolicy,
    max_restarts: u64,
    metrics_addr: Option<String>,
    trace_out: Option<String>,
    telemetry_every: Option<u64>,
    hold_metrics_ms: u64,
    services: usize,
    cache_capacity: u32,
    eviction: EvictionPolicy,
    ops: OpsLog,
    ops_journal_out: Option<String>,
    state_dir: Option<String>,
    slo: Vec<mec_obs::SloSpec>,
    stall_events: bool,
    learner_events: bool,
}

impl Default for Args {
    fn default() -> Self {
        let faults = mec_serve::FaultConfig::default();
        let placement = PlacementConfig::default();
        Self {
            stations: 100,
            requests: 100_000,
            shards: 4,
            policy: "DynamicRR".to_string(),
            rps: 2_000.0,
            seed: 0,
            snapshot_every: 100,
            queue_capacity: 256,
            epoch_horizon: mec_serve::ServeConfig::default().epoch_horizon,
            slot_ms: 50.0,
            drain_slots: 1_000,
            paced: false,
            trace: None,
            chaos: ChaosSpec::default(),
            tick_timeout_ms: faults.tick_timeout_ms,
            checkpoint_every: faults.checkpoint_every,
            degraded: faults.degraded,
            max_restarts: faults.max_restarts,
            metrics_addr: None,
            trace_out: None,
            telemetry_every: None,
            hold_metrics_ms: 0,
            services: placement.services,
            cache_capacity: placement.cache_capacity,
            eviction: placement.eviction,
            ops: OpsLog::default(),
            ops_journal_out: None,
            state_dir: None,
            slo: Vec::new(),
            stall_events: false,
            learner_events: false,
        }
    }
}

const USAGE: &str = "\
mec-serve: sharded long-running AR offload serving runtime

USAGE:
    mec-serve [OPTIONS]

OPTIONS:
    --stations <N>        base stations in the topology [default: 100]
    --requests <N>        requests to generate [default: 100000]
    --shards <N>          shard worker threads [default: 4]
    --policy <NAME>       scheduling policy [default: DynamicRR]
    --rps <F>             offered load, requests per second [default: 2000]
    --seed <N>            run seed (topology, workload, demand) [default: 0]
    --snapshot-every <N>  slots between JSON snapshots; 0 = none [default: 100]
    --queue-capacity <N>  per-shard backlog cap before shedding [default: 256]
    --epoch-horizon <N>   run-ahead lease span in slots; 1 = lockstep
                          (same results for every value) [default: 8]
    --slot-ms <F>         slot length in milliseconds [default: 50]
    --drain-slots <N>     slots allowed after the last arrival [default: 1000]
    --paced               pace ticks to wall time instead of virtual time
    --trace <PATH>        replay a mec-workload CSV trace instead of generating
    --chaos <SPEC>        inject scripted faults and reconfigurations, e.g.
                          crash:shard=1@slot=50,recover@slot=60
                          (fault kinds: crash, stall, slow:...@ms=M;
                          reconfig kinds: join/leave:station=K@slot=N,
                          drain:station=K@slot=N[@window=W];
                          disk faults, need --state-dir:
                          truncate/corrupt:shard=K@slot=N@target=
                          journal|ckpt[@bytes=B], slowdisk:...@ms=M)
    --chaos-script <PATH> same grammar from a file; one or more directives
                          per line, '#' comments
    --help                print this help

PLACEMENT AND RECONFIGURATION:
    --services <N>        size of the service catalog; 0 disables
                          placement-aware routing [default: 0]
    --cache-capacity <N>  per-station cache capacity in footprint units
                          [default: 8]
    --eviction <POLICY>   cache eviction policy: lru | lfu [default: lru]
    --ops-script <PATH>   replay a topology reconfiguration journal (JSONL
                          of join/leave/drain ops; '#' comments), merged
                          with any --chaos reconfig directives
    --ops-journal-out <PATH>
                          write the normalized ops journal the run applied
                          (replayable via --ops-script)
    --tick-timeout-ms <N> per-slot reply deadline before a shard counts as
                          stalled; 0 = wait forever [default: 5000]
    --checkpoint-every <N> checkpoint shard engines every N slots; 0 =
                          recover by replaying from genesis; composes
                          with --ops-script [default: 0]
    --state-dir <DIR>     mirror arrival journals and checkpoints to DIR
                          as CRC-framed files (verified on recovery;
                          required by disk-fault chaos specs)
    --degraded <POLICY>   routing while a shard is down: buffer | shed |
                          spill [default: buffer]
    --max-restarts <N>    restart attempts per shard before giving up
                          [default: 8]

OBSERVABILITY:
    --metrics-addr <ADDR> serve GET /metrics (Prometheus text) and
                          /metrics.json on this address, e.g. 127.0.0.1:9100
                          (port 0 picks a free port, printed to stderr)
    --trace-out <PATH>    write the run's one event stream to PATH as JSON
                          lines: structured events, a lifecycle record per
                          request stage (admit, start, complete, handoff,
                          ...), and flight-recorder dumps (feed it to
                          mec-obs-report)
    --telemetry-every <N> poll shard learners for per-arm telemetry every
                          N slots; 0 = off [default: 25]
    --hold-metrics-ms <N> keep the metrics endpoint up N ms after the run
                          finishes, for a final scrape [default: 0]
    --slo <SPEC>          evaluate a service-level objective every slot and
                          emit slo_breach / slo_recovered trace events plus
                          burn-rate gauges and GET /slo.json; repeatable.
                          Grammar: deadline_hit_rate>=0.95@512 or
                          p99_latency<=250@512 (p50/p95/p99/p999; @N is the
                          sliding window in slots)
    --stall-events        emit run-end stall_shard / stall_driver trace
                          events (wall-clock payloads; off by default so
                          same-seed traces stay byte-identical)
    --learner-events      attach the learner probe: per-arm lifecycle
                          trace events, live regret gauges, drift
                          detection, flight-recorder dumps into the
                          --trace-out stream, and GET /learning.json +
                          /flight.json (emits for learning policies,
                          i.e. DynamicRR)
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--stations" => args.stations = parse(&value("--stations")?)?,
            "--requests" => args.requests = parse(&value("--requests")?)?,
            "--shards" => args.shards = parse(&value("--shards")?)?,
            "--policy" => args.policy = value("--policy")?,
            "--rps" => args.rps = parse(&value("--rps")?)?,
            "--seed" => args.seed = parse(&value("--seed")?)?,
            "--snapshot-every" => args.snapshot_every = parse(&value("--snapshot-every")?)?,
            "--queue-capacity" => args.queue_capacity = parse(&value("--queue-capacity")?)?,
            "--epoch-horizon" => args.epoch_horizon = parse(&value("--epoch-horizon")?)?,
            "--slot-ms" => args.slot_ms = parse(&value("--slot-ms")?)?,
            "--drain-slots" => args.drain_slots = parse(&value("--drain-slots")?)?,
            "--paced" => args.paced = true,
            "--trace" => args.trace = Some(value("--trace")?),
            "--chaos" => {
                args.chaos = ChaosSpec::parse(&value("--chaos")?).map_err(|e| e.to_string())?;
            }
            "--chaos-script" => {
                let path = value("--chaos-script")?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read chaos script {path:?}: {e}"))?;
                args.chaos = ChaosSpec::parse_script(&text).map_err(|e| e.to_string())?;
            }
            "--tick-timeout-ms" => args.tick_timeout_ms = parse(&value("--tick-timeout-ms")?)?,
            "--checkpoint-every" => args.checkpoint_every = parse(&value("--checkpoint-every")?)?,
            "--degraded" => {
                let name = value("--degraded")?;
                args.degraded = DegradedPolicy::from_name(&name).ok_or_else(|| {
                    format!("unknown degraded policy {name:?}; accepted: buffer, shed, spill")
                })?;
            }
            "--max-restarts" => args.max_restarts = parse(&value("--max-restarts")?)?,
            "--services" => args.services = parse(&value("--services")?)?,
            "--cache-capacity" => args.cache_capacity = parse(&value("--cache-capacity")?)?,
            "--eviction" => {
                args.eviction = match value("--eviction")?.as_str() {
                    "lru" => EvictionPolicy::Lru,
                    "lfu" => EvictionPolicy::Lfu,
                    other => {
                        return Err(format!(
                            "unknown eviction policy {other:?}; accepted: lru, lfu"
                        ))
                    }
                };
            }
            "--ops-script" => {
                let path = value("--ops-script")?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read ops script {path:?}: {e}"))?;
                args.ops = OpsLog::parse_jsonl(&text).map_err(|e| e.to_string())?;
            }
            "--ops-journal-out" => args.ops_journal_out = Some(value("--ops-journal-out")?),
            "--state-dir" => args.state_dir = Some(value("--state-dir")?),
            "--metrics-addr" => args.metrics_addr = Some(value("--metrics-addr")?),
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--telemetry-every" => {
                args.telemetry_every = Some(parse(&value("--telemetry-every")?)?);
            }
            "--hold-metrics-ms" => args.hold_metrics_ms = parse(&value("--hold-metrics-ms")?)?,
            "--slo" => args.slo.push(
                mec_obs::SloSpec::parse(&value("--slo")?).map_err(|e| format!("--slo: {e}"))?,
            ),
            "--stall-events" => args.stall_events = true,
            "--learner-events" => args.learner_events = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n\n{USAGE}")),
        }
    }
    if !POLICY_NAMES.contains(&args.policy.as_str()) {
        return Err(UnknownPolicy { name: args.policy }.to_string());
    }
    if args.shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    if args.shards > args.stations {
        return Err(format!(
            "--shards {} exceeds --stations {}: every shard needs at least one station",
            args.shards, args.stations
        ));
    }
    if args.queue_capacity == 0 {
        return Err("--queue-capacity must be at least 1".to_string());
    }
    if let Some(max) = args.chaos.max_shard() {
        if max >= args.shards {
            return Err(format!(
                "chaos spec targets shard {max} but --shards is {}",
                args.shards
            ));
        }
    }
    if let Some(max) = args.ops.max_station().max(args.chaos.max_station()) {
        if max >= args.stations {
            return Err(format!(
                "reconfiguration op targets station {max} but --stations is {}",
                args.stations
            ));
        }
    }
    if !args.chaos.disk_faults.is_empty() && args.state_dir.is_none() {
        return Err("disk fault injection needs a state directory (--state-dir)".to_string());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("could not parse {s:?}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let topo = TopologyBuilder::new(args.stations).seed(args.seed).build();
    let population = match &args.trace {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("cannot read trace {path:?}: {e}");
                    return ExitCode::from(2);
                }
            };
            let requests = match mec_workload::codec::parse_requests(&text) {
                Ok(requests) => requests,
                Err(e) => {
                    eprintln!("cannot parse trace {path:?}: {e}");
                    return ExitCode::from(2);
                }
            };
            if let Some(r) = requests.iter().find(|r| r.home().index() >= args.stations) {
                eprintln!(
                    "trace {path:?}: request {} is homed at bs{} but --stations is {}",
                    r.id().index(),
                    r.home().index(),
                    args.stations
                );
                return ExitCode::from(2);
            }
            requests
        }
        None => WorkloadBuilder::new(&topo)
            .seed(args.seed)
            .count(args.requests)
            .build(),
    };
    let total = population.len();
    // A trace already carries its arrival schedule (e.g. from mec-loadgen);
    // generated populations are re-timed to the requested rate.
    let load = if args.trace.is_some() {
        LoadGen::replay(population)
    } else {
        LoadGen::poisson(population, args.rps, args.slot_ms, args.seed)
    };

    // Observability attachment: built only when a flag asks for it, so a
    // plain run keeps a private registry and builds no trace events.
    let hub = if args.metrics_addr.is_some()
        || args.trace_out.is_some()
        || args.telemetry_every.is_some()
        || args.hold_metrics_ms > 0
        || !args.slo.is_empty()
        || args.stall_events
        || args.learner_events
    {
        let mut hub = mec_serve::ObsHub::new().with_probe(args.learner_events);
        if let Some(path) = &args.trace_out {
            let file = match std::fs::File::create(path) {
                Ok(file) => file,
                Err(e) => {
                    eprintln!("cannot create trace file {path:?}: {e}");
                    return ExitCode::from(2);
                }
            };
            hub = hub.with_trace(mec_obs::TraceWriter::new(Box::new(
                std::io::BufWriter::new(file),
            )));
        }
        if let Some(every) = args.telemetry_every {
            hub = hub.with_telemetry_every(every);
        }
        hub = hub.with_stall_events(args.stall_events);
        Some(std::sync::Arc::new(hub))
    } else {
        None
    };
    let _metrics_server = match (&args.metrics_addr, &hub) {
        (Some(addr), Some(hub)) => {
            // Live documents attach only when their producer is
            // configured: /slo.json whenever SLO specs exist, and
            // /learning.json + /flight.json whenever the probe is on.
            let mut docs = Vec::new();
            if !args.slo.is_empty() {
                docs.push(("/slo.json", hub.slo_doc()));
            }
            if args.learner_events {
                docs.push(("/learning.json", hub.learning_doc()));
                docs.push(("/flight.json", hub.flight_doc()));
            }
            match mec_obs::MetricsServer::bind_with_docs(
                addr,
                std::sync::Arc::clone(hub.registry()),
                docs,
            ) {
                Ok(server) => {
                    eprintln!("metrics: GET http://{}/metrics", server.local_addr());
                    Some(server)
                }
                Err(e) => {
                    eprintln!("cannot bind metrics server on {addr}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        _ => None,
    };

    let cfg = ServeConfig {
        shards: args.shards,
        queue_capacity: args.queue_capacity,
        snapshot_every: args.snapshot_every,
        epoch_horizon: args.epoch_horizon,
        policy: args.policy.clone(),
        sim: mec_sim::SlotConfig {
            slot_ms: args.slot_ms,
            seed: args.seed,
            ..mec_sim::SlotConfig::default()
        },
        drain_slots: args.drain_slots,
        clock: if args.paced {
            ClockMode::Paced {
                slot_ms: args.slot_ms,
            }
        } else {
            ClockMode::Virtual
        },
        faults: mec_serve::FaultConfig {
            tick_timeout_ms: args.tick_timeout_ms,
            checkpoint_every: args.checkpoint_every,
            degraded: args.degraded,
            max_restarts: args.max_restarts,
            ..mec_serve::FaultConfig::default()
        },
        chaos: args.chaos.clone(),
        obs: hub.clone(),
        placement: PlacementConfig {
            services: args.services,
            cache_capacity: args.cache_capacity,
            eviction: args.eviction,
            seed: args.seed,
        },
        ops: args.ops.clone(),
        state_dir: args.state_dir.as_ref().map(std::path::PathBuf::from),
        slo: args.slo.clone(),
    };

    eprintln!(
        "serving {total} requests at {} rps across {} shards ({} stations, policy {})",
        args.rps, args.shards, args.stations, args.policy
    );
    if !args.chaos.is_empty() {
        eprintln!(
            "chaos: {} scripted fault(s) armed, degraded policy {:?}",
            args.chaos.faults.len(),
            args.degraded
        );
    }
    if args.services > 0 {
        eprintln!(
            "placement: {} service(s), cache capacity {}, eviction {:?}",
            args.services, args.cache_capacity, args.eviction
        );
    }
    {
        let ops = args.ops.len() + args.chaos.ops.len();
        if ops > 0 {
            eprintln!("reconfiguration: {ops} op(s) scheduled");
        }
    }
    let outcome = match serve(&topo, load, &cfg, |snap| println!("{}", snap.to_json())) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("serve failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("{}", outcome.final_snapshot.to_json());
    eprintln!(
        "done: {} slots in {:.2}s ({:.0} slots/s) | admitted {} / shed {} | {}",
        outcome.slots_run,
        outcome.wall_secs,
        outcome.slots_run as f64 / outcome.wall_secs.max(1e-9),
        outcome.final_snapshot.admitted,
        outcome.final_snapshot.shed,
        outcome.metrics,
    );
    let placement = &outcome.final_snapshot.placement;
    if !placement.is_quiet() {
        eprintln!(
            "placement: {} hit(s) / {} miss(es), {} redirect(s), {} rehomed, \
             {} install(s) ({} warm), {} held, {} shed | \
             {} join(s), {} leave(s), {} drain(s), {} handoff(s), {} entr(ies) migrated",
            placement.hits,
            placement.misses,
            placement.redirects,
            placement.rehomed,
            placement.installs_warm + placement.installs_cold,
            placement.installs_warm,
            placement.held,
            placement.placement_shed,
            placement.joins,
            placement.leaves,
            placement.drains,
            placement.handoffs,
            placement.migrated,
        );
    }
    if let Some(path) = &args.ops_journal_out {
        // Plain JSONL (replayable via --ops-script), but written through
        // the journal writer so the bytes are buffered, synced, and any
        // io error surfaces instead of vanishing.
        let write =
            mec_serve::JournalWriter::create(std::path::Path::new(path)).and_then(|mut w| {
                w.write_raw(outcome.ops_journal.as_bytes())?;
                w.sync()
            });
        if let Err(e) = write {
            eprintln!("cannot write ops journal {path:?}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("ops journal: written to {path}");
    }
    let faults = &outcome.final_snapshot.faults;
    if !faults.is_quiet() {
        eprintln!(
            "faults: {} restart(s), {} arrival(s) replayed, {} spilled, \
             {} shed while down, {} degraded shard-slot(s), recovery latency {} slot(s)",
            faults.restarts,
            faults.replayed_arrivals,
            faults.spilled,
            faults.shed_while_down,
            faults.degraded_slots,
            faults.recovery_latency_slots,
        );
    }
    if let (Some(hub), Some(path)) = (&hub, &args.trace_out) {
        hub.flush();
        if let Some(e) = hub.trace_error() {
            eprintln!("cannot write trace {path:?}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("trace: {} event(s) written to {path}", hub.trace_written());
    }
    if args.hold_metrics_ms > 0 {
        eprintln!("metrics: holding endpoint for {} ms", args.hold_metrics_ms);
        std::thread::sleep(std::time::Duration::from_millis(args.hold_metrics_ms));
    }
    ExitCode::SUCCESS
}
