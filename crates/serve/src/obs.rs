//! Observability wiring for the serving runtime: the [`ObsHub`]
//! attachment operators hand to [`crate::ServeConfig`], and the
//! driver-side [`ObsState`] that owns every metric handle and emits the
//! structured trace.
//!
//! The metrics [`Registry`] is **always on**: the supervision loop
//! sources its snapshot fault counters from registry atomics whether or
//! not a hub is attached, so the counters the operator scrapes and the
//! counters the snapshot serializes can never disagree. Event *tracing*
//! is gated when the run starts instead: every [`mec_obs::event!`] asks
//! its sink whether a trace is attached and builds nothing when none
//! is, so an untraced run pays one check per event site.
//!
//! ## Determinism
//!
//! Everything that can reach a snapshot or the trace derives from
//! virtual slots, event counts, and rewards. Wall-clock quantities
//! (`mec_serve_step_ms`) live only in the registry for live scraping.
//! Worker-side events — fault injections and per-request lifecycle
//! records — go through per-shard [`TraceRing`]s that the driver drains
//! at each watermark fold in shard order; driver-side events, lifecycle
//! records, and flight-recorder dumps go straight to the one
//! [`TraceWriter`]. A traced run replayed with the same seed therefore
//! yields a byte-identical event stream.

use crate::chaos::{DiskFaultKind, DiskFaultSpec, DiskTarget};
use crate::journal::DiskIncidents;
use crate::router::Router;
use crate::shard::ShardTick;
use crate::snapshot::{FaultStats, PlacementStats};
use mec_core::RegretAccountant;
use mec_obs::{
    Counter, DecisionSnapshot, EventSink, FlightRecorder, FlightTrigger, Gauge, Histogram,
    PageHinkley, Registry, SharedDoc, SloEngine, SloTransition, TraceEvent, TraceRing, TraceWriter,
    LATENCY_MS_BOUNDS, STEP_MS_BOUNDS,
};
use mec_placement::{InstallDone, PlacementState, ReconfigOp};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Capacity of each worker's event ring. Lifecycle records are per
/// request (start/complete/expire/abort), so the ring is sized for a
/// burst of several slots' worth of terminal events between watermark
/// folds; the buffer only grows as far as a burst actually needs.
const RING_CAP: usize = 65_536;

/// Shard field of a lifecycle record the driver emits.
pub(crate) const DRIVER: i64 = -1;

/// Base-station field of a lifecycle record with no station involved.
pub(crate) const NO_BS: i64 = -1;

/// Install latencies are a handful of slots (warm 1–2, cold 2–5), so the
/// buckets hug the small integers.
const INSTALL_SLOT_BOUNDS: &[f64] = &[1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 13.0];

/// Observability attachment for a serving run: a shared metrics
/// registry (scrape it with [`mec_obs::MetricsServer`]), an optional
/// JSONL trace sink — the run's one event stream, carrying structured
/// events, request-lifecycle records, and flight-recorder dumps — and
/// the learner-telemetry polling interval.
///
/// The hub outlives the run: registry counters accumulate across every
/// run attached to the same hub (Prometheus semantics). Runs without a
/// hub get a private registry, so determinism tests are unaffected.
pub struct ObsHub {
    registry: Arc<Registry>,
    trace: Option<Mutex<TraceWriter>>,
    /// Set once the trace sink has kept an error: every later event would
    /// be dropped, so producers stop building them.
    trace_failed: AtomicBool,
    slo_doc: SharedDoc,
    learning_doc: SharedDoc,
    flight_doc: SharedDoc,
    probe: bool,
    stall_events: bool,
    telemetry_every: u64,
}

impl fmt::Debug for ObsHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObsHub")
            .field("tracing", &self.trace.is_some())
            .field("probe", &self.probe)
            .field("stall_events", &self.stall_events)
            .field("telemetry_every", &self.telemetry_every)
            .finish_non_exhaustive()
    }
}

impl Default for ObsHub {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsHub {
    /// A hub with a fresh registry, no trace sink, and learner telemetry
    /// polled every 25 slots.
    pub fn new() -> Self {
        Self {
            registry: Arc::new(Registry::new()),
            trace: None,
            trace_failed: AtomicBool::new(false),
            slo_doc: Arc::new(Mutex::new(String::new())),
            learning_doc: Arc::new(Mutex::new(String::new())),
            flight_doc: Arc::new(Mutex::new(String::new())),
            probe: false,
            stall_events: false,
            telemetry_every: 25,
        }
    }

    /// Attaches a JSONL trace sink; structured events, per-request
    /// `lifecycle` records (admit, start, complete, ...), and — with the
    /// probe attached — flight-recorder dumps are appended to it as the
    /// run executes.
    #[must_use]
    pub fn with_trace(mut self, writer: TraceWriter) -> Self {
        self.trace = Some(Mutex::new(writer));
        self
    }

    /// Attaches the learner probe: every shard policy streams arm-
    /// lifecycle events and decision records to the driver, feeding the regret accountant, drift detectors, flight
    /// recorder, and the `/learning.json` document. Off by default —
    /// with the probe detached policies take the exact pre-probe code
    /// paths, so snapshots stay byte-identical.
    #[must_use]
    pub fn with_probe(mut self, on: bool) -> Self {
        self.probe = on;
        self
    }

    /// Emits run-end `stall_shard` / `stall_driver` events into the
    /// trace. Off by default because their payloads are wall-clock
    /// measurements, which would break trace byte-identity across
    /// same-seed runs.
    #[must_use]
    pub fn with_stall_events(mut self, on: bool) -> Self {
        self.stall_events = on;
        self
    }

    /// Sets how often (in slots) shard learners are polled for
    /// telemetry; 0 disables polling.
    #[must_use]
    pub fn with_telemetry_every(mut self, every: u64) -> Self {
        self.telemetry_every = every;
        self
    }

    /// The hub's registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Whether a trace sink is attached.
    pub fn has_trace(&self) -> bool {
        self.trace.is_some()
    }

    /// Whether run-end stall events were requested.
    pub fn stall_events(&self) -> bool {
        self.stall_events
    }

    /// The live SLO state document served at `/slo.json` — hand it to
    /// [`mec_obs::MetricsServer::bind_with_docs`]; the runtime overwrites
    /// it every slot while an SLO engine is configured.
    pub fn slo_doc(&self) -> SharedDoc {
        Arc::clone(&self.slo_doc)
    }

    /// The live learner state document served at `/learning.json` —
    /// hand it to [`mec_obs::MetricsServer::bind_with_docs`]; the
    /// runtime overwrites it at every learner-telemetry sweep while the
    /// probe is attached.
    pub fn learning_doc(&self) -> SharedDoc {
        Arc::clone(&self.learning_doc)
    }

    /// The on-demand flight-recorder document served at `/flight.json` —
    /// hand it to [`mec_obs::MetricsServer::bind_with_docs`]; the runtime
    /// overwrites it with the current decision rings (JSONL, sorted by
    /// slot then shard) at every learner-telemetry sweep while the probe
    /// is attached. Reading it never counts as a dump.
    pub fn flight_doc(&self) -> SharedDoc {
        Arc::clone(&self.flight_doc)
    }

    /// Whether the learner probe was requested.
    pub fn probe(&self) -> bool {
        self.probe
    }

    /// Events the trace sink accepted so far (see
    /// [`TraceWriter::written`]).
    pub fn trace_written(&self) -> u64 {
        self.trace.as_ref().map_or(0, |w| {
            w.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .written()
        })
    }

    /// The trace sink's first write or flush error, rendered; `None`
    /// while every event so far reached it. Check after
    /// [`ObsHub::flush`].
    pub fn trace_error(&self) -> Option<String> {
        self.trace.as_ref().and_then(|w| {
            w.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .error()
                .map(ToString::to_string)
        })
    }

    /// Whether the trace sink has kept a write or flush error, after
    /// which it drops every event. A cheap read of [`Self::trace_error`]'s
    /// condition for the per-event gate.
    pub(crate) fn trace_failed(&self) -> bool {
        self.trace_failed.load(Ordering::Relaxed)
    }

    /// Appends one event to the trace sink, if any.
    pub(crate) fn write_event(&self, event: &TraceEvent) {
        self.with_writer(|w| w.write(event));
    }

    /// Flushes the trace sink, if any.
    pub fn flush(&self) {
        self.with_writer(TraceWriter::flush);
    }

    /// Runs `op` on the trace sink, if any, and notes whether the sink
    /// has failed.
    fn with_writer(&self, op: impl FnOnce(&mut TraceWriter)) {
        if let Some(writer) = &self.trace {
            let mut writer = writer
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            op(&mut writer);
            if writer.error().is_some() {
                self.trace_failed.store(true, Ordering::Relaxed);
            }
        }
    }
}

/// Always-on wall-clock stall instrumentation a worker carries: the
/// cumulative work / mailbox-wait / watermark-wait gauges (ms) behind
/// the stall attribution, plus a per-grant wait histogram. Gauges are
/// cumulative across restarts because a replacement worker re-reads
/// them at spawn.
#[derive(Clone, Debug)]
pub struct StallProbe {
    /// Cumulative wall-clock ms executing leased slots (engine steps
    /// plus checkpoint/telemetry/event assembly).
    pub(crate) work_ms: Arc<Gauge>,
    /// Cumulative wall-clock ms handling cross-shard mailbox traffic
    /// (inject / extract / absorb) between grants.
    pub(crate) mailbox_ms: Arc<Gauge>,
    /// Cumulative wall-clock ms blocked on the mailbox waiting for the
    /// coordinator to advance the watermark and extend the lease.
    pub(crate) watermark_ms: Arc<Gauge>,
    /// Per-grant watermark-wait distribution (slots inside a multi-slot
    /// lease wait zero — that is the point of run-ahead).
    pub(crate) wait_hist: Arc<Histogram>,
}

/// Per-shard learner gauges, with per-arm series grown on first sight.
struct BanditGauges {
    threshold_mhz: Arc<Gauge>,
    active_arms: Arc<Gauge>,
    regret_proxy: Arc<Gauge>,
    total_pulls: Arc<Gauge>,
    per_arm: Vec<ArmGauges>,
}

struct ArmGauges {
    pulls: Arc<Counter>,
    mean: Arc<Gauge>,
    ucb: Arc<Gauge>,
    lcb: Arc<Gauge>,
    active: Arc<Gauge>,
}

/// Per-arm drift-detector state: the Page–Hinkley statistic plus the
/// SLO-style suspected/cleared transition flag.
struct ArmDrift {
    ph: PageHinkley,
    suspected: bool,
}

/// Per-shard regret gauges (built only while the probe is attached, so
/// a probe-detached run's exposition is unchanged).
struct LearnGauges {
    regret: Arc<Gauge>,
    cum_reward: Arc<Gauge>,
    oracle: Arc<Gauge>,
    steps: Arc<Gauge>,
    drift_total: Arc<Counter>,
}

/// Renders a float for the learning document; non-finite values (an
/// unpulled arm's infinite radius) become JSON `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Driver-side learning plane: per-shard regret accountants fed from
/// `sample` probe events, per-arm Page–Hinkley drift detectors, the
/// decision flight recorder, and every gauge they feed. Present only
/// while the hub requested the probe.
struct LearnPlane {
    regret: Vec<RegretAccountant>,
    drift: Vec<Vec<ArmDrift>>,
    gauges: Vec<LearnGauges>,
    /// Last solver sweep per shard (rides along in decision snapshots).
    lp_last: Vec<mec_sim::SolverTelemetry>,
    /// Last telemetry-sweep arm views per shard, behind `/learning.json`.
    last_arms: Vec<Vec<mec_sim::ArmTelemetry>>,
    probe_drop_counter: Arc<Counter>,
    recorder: FlightRecorder,
    /// Last slot the flight document was rendered at. Sweeps arrive once
    /// per shard per interval, but the decision rings they render are
    /// driver-side and shared — rendering the (string-heavy) flight
    /// JSONL once per sweep slot loses nothing and divides its cost by
    /// the shard count.
    doc_slot: u64,
}

impl LearnPlane {
    fn new(shards: usize, r: &Arc<Registry>) -> Self {
        let gauges = (0..shards)
            .map(|s| {
                let l: &[(&str, &str)] = &[("shard", &s.to_string())];
                LearnGauges {
                    regret: r.gauge(
                        "mec_learn_regret",
                        "cumulative regret vs the per-step hindsight oracle",
                        l,
                    ),
                    cum_reward: r.gauge(
                        "mec_learn_cum_reward",
                        "cumulative realized normalized reward",
                        l,
                    ),
                    oracle: r.gauge("mec_learn_oracle", "cumulative per-step oracle bound", l),
                    steps: r.gauge("mec_learn_steps", "learner updates folded into regret", l),
                    drift_total: r.counter(
                        "mec_learn_drift_suspected_total",
                        "Page-Hinkley drift firings",
                        l,
                    ),
                }
            })
            .collect();
        Self {
            regret: vec![RegretAccountant::new(); shards],
            drift: (0..shards).map(|_| Vec::new()).collect(),
            gauges,
            lp_last: vec![mec_sim::SolverTelemetry::default(); shards],
            last_arms: vec![Vec::new(); shards],
            probe_drop_counter: r.counter(
                "mec_obs_probe_dropped_total",
                "learner-probe events lost at the policy's bounded recorder",
                &[],
            ),
            recorder: FlightRecorder::new(mec_obs::flight::DEFAULT_FLIGHT_CAPACITY),
            doc_slot: u64::MAX,
        }
    }

    /// Renders the `/learning.json` document: per-shard regret
    /// accounting, drift firings, and the last-swept arm views with
    /// confidence radii.
    fn render_doc(&self, slot: u64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{{\"slot\":{slot},\"shards\":[");
        for (shard, a) in self.regret.iter().enumerate() {
            if shard > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"shard\":{shard},\"regret\":{},\"cum_reward\":{},\"oracle\":{},\
                 \"steps\":{},\"drift_suspected\":{},\"arms\":[",
                json_f64(a.regret()),
                json_f64(a.cumulative_reward()),
                json_f64(a.oracle_total()),
                a.steps(),
                self.gauges[shard].drift_total.get(),
            );
            for (i, arm) in self.last_arms[shard].iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let radius = (arm.ucb - arm.lcb) / 2.0;
                let _ = write!(
                    out,
                    "{{\"arm\":{},\"value\":{},\"mean\":{},\"radius\":{},\"pulls\":{},\
                     \"active\":{}}}",
                    arm.arm,
                    json_f64(arm.value),
                    json_f64(arm.mean),
                    json_f64(radius.max(0.0)),
                    arm.pulls,
                    arm.active,
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}\n");
        out
    }
}

/// Driver-side observability state: one per [`crate::serve`] call. Owns
/// every metric handle (so the hot path never takes the registry lock),
/// the per-shard worker trace rings, and the recovery-latency samples
/// behind the snapshot percentiles.
pub(crate) struct ObsState {
    hub: Option<Arc<ObsHub>>,
    registry: Arc<Registry>,
    restarts: Vec<Arc<Counter>>,
    checkpoints: Vec<Arc<Counter>>,
    replayed: Vec<Arc<Counter>>,
    degraded: Vec<Arc<Counter>>,
    recovery_total: Arc<Counter>,
    admitted: Arc<Counter>,
    shed: Arc<Counter>,
    spilled: Arc<Counter>,
    shed_while_down: Arc<Counter>,
    journal_dropped: Arc<Counter>,
    completed: Vec<Arc<Counter>>,
    expired: Vec<Arc<Counter>>,
    aborted: Vec<Arc<Counter>>,
    backlog: Vec<Arc<Gauge>>,
    slot: Arc<Gauge>,
    latency: Vec<Arc<Histogram>>,
    step: Vec<Arc<Histogram>>,
    bandit: Vec<BanditGauges>,
    place_hits: Arc<Counter>,
    place_misses: Arc<Counter>,
    place_evictions: Arc<Counter>,
    install_latency: Arc<Histogram>,
    disk_corrupt_records: Arc<Counter>,
    disk_salvaged_bytes: Arc<Counter>,
    disk_fallbacks: Arc<Counter>,
    disk_retries: Arc<Counter>,
    checkpoint_bytes: Arc<Counter>,
    moved_state_bytes: Arc<Counter>,
    /// Per-BS cache occupancy gauges, grown lazily to the fleet size.
    occupancy: Vec<Arc<Gauge>>,
    rings: Vec<Option<TraceRing>>,
    /// Per-shard holdback of worker trace events whose slot is past the
    /// fold watermark: a run-ahead worker may ring events for slots the
    /// coordinator has not folded yet, and emitting them early would make
    /// the trace depend on wall-clock scheduling. Drained in slot order
    /// as the watermark advances.
    held_events: Vec<std::collections::VecDeque<TraceEvent>>,
    /// Whether a trace sink is attached (see [`ObsState::tracing`]).
    tracing: bool,
    /// Per-shard work/mailbox/watermark stall probes (always on, like
    /// the registry).
    stall: Vec<StallProbe>,
    /// Fine-grained (log-linear) all-shard latency histogram; carries
    /// the request-id exemplars when lifecycle tracking is active.
    latency_fine: Arc<Histogram>,
    /// Per-spec SLO gauges (value, burn fast/slow, breached), built on
    /// the first `note_slo` call.
    slo_gauges: Vec<[Arc<Gauge>; 4]>,
    /// Driver phase totals: wall, dispatch, recovery, fold (ms).
    driver_stall: [Arc<Gauge>; 4],
    telemetry_every: u64,
    /// Outage length of every successful restart, in slots (feeds the
    /// snapshot's recovery percentiles; driver-local, reset per run).
    recovery_samples: Vec<u64>,
    /// Learning plane — regret, drift, flight recorder. `None` unless
    /// the hub requested the learner probe.
    learn: Option<LearnPlane>,
}

impl EventSink for ObsState {
    fn record(&self, event: TraceEvent) {
        if let Some(hub) = &self.hub {
            hub.write_event(&event);
        }
    }

    /// A trace sink is attached and has not failed: after a write error
    /// the sink drops every event, so none is built.
    fn enabled(&self) -> bool {
        self.tracing && self.hub.as_ref().is_some_and(|h| !h.trace_failed())
    }
}

/// The exact quantile formula [`crate::LatencyStats`] uses, over integer
/// slot samples: `sorted[round(frac * (n - 1))]`.
fn slot_quantiles(samples: &[u64]) -> (u64, u64, u64) {
    if samples.is_empty() {
        return (0, 0, 0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let q = |frac: f64| sorted[((frac * (n - 1) as f64).round()) as usize];
    (q(0.50), q(0.95), sorted[n - 1])
}

impl ObsState {
    pub(crate) fn new(shards: usize, hub: Option<Arc<ObsHub>>) -> Self {
        let registry = hub
            .as_ref()
            .map_or_else(|| Arc::new(Registry::new()), |h| Arc::clone(h.registry()));
        let telemetry_every = hub.as_ref().map_or(0, |h| h.telemetry_every);
        let tracing = hub.as_ref().is_some_and(|h| h.has_trace());
        let fine_bounds = mec_obs::log_linear_bounds(1.0, 100_000.0, 9);
        let r = &registry;
        let per_shard = |name: &str, help: &str| -> Vec<Arc<Counter>> {
            (0..shards)
                .map(|s| r.counter(name, help, &[("shard", &s.to_string())]))
                .collect()
        };
        let bandit = (0..shards)
            .map(|s| {
                let l: &[(&str, &str)] = &[("shard", &s.to_string())];
                BanditGauges {
                    threshold_mhz: r.gauge(
                        "mec_bandit_threshold_mhz",
                        "learner's current best threshold estimate",
                        l,
                    ),
                    active_arms: r.gauge("mec_bandit_active_arms", "non-eliminated arms", l),
                    regret_proxy: r.gauge(
                        "mec_bandit_regret_proxy",
                        "running regret vs the empirical-best arm",
                        l,
                    ),
                    total_pulls: r.gauge("mec_bandit_total_pulls", "learner updates so far", l),
                    per_arm: Vec::new(),
                }
            })
            .collect();
        Self {
            restarts: per_shard("mec_serve_restarts_total", "shard worker restarts"),
            checkpoints: per_shard("mec_serve_checkpoints_total", "engine checkpoints adopted"),
            replayed: per_shard(
                "mec_serve_replayed_arrivals_total",
                "journal entries replayed during recovery",
            ),
            degraded: per_shard(
                "mec_serve_degraded_slots_total",
                "barriered slots a shard missed",
            ),
            recovery_total: r.counter(
                "mec_serve_recovery_latency_slots_total",
                "summed outage length across restarts",
                &[],
            ),
            admitted: r.counter("mec_serve_admitted_total", "requests admitted", &[]),
            shed: r.counter("mec_serve_shed_total", "requests shed", &[]),
            spilled: r.counter(
                "mec_serve_spilled_total",
                "requests rerouted while their home shard was down",
                &[],
            ),
            shed_while_down: r.counter(
                "mec_serve_shed_while_down_total",
                "requests shed because their shard was down",
                &[],
            ),
            journal_dropped: r.counter(
                "mec_serve_journal_dropped_total",
                "journal entries evicted by the cap",
                &[],
            ),
            completed: per_shard("mec_serve_completed_total", "requests completed"),
            expired: per_shard("mec_serve_expired_total", "requests expired unserved"),
            aborted: per_shard("mec_serve_aborted_total", "streams aborted"),
            backlog: (0..shards)
                .map(|s| {
                    r.gauge(
                        "mec_serve_backlog",
                        "waiting + running jobs",
                        &[("shard", &s.to_string())],
                    )
                })
                .collect(),
            slot: r.gauge("mec_serve_slot", "virtual slots executed", &[]),
            latency: (0..shards)
                .map(|s| {
                    r.histogram(
                        "mec_serve_latency_ms",
                        "served-request response latency",
                        &[("shard", &s.to_string())],
                        LATENCY_MS_BOUNDS,
                    )
                })
                .collect(),
            step: (0..shards)
                .map(|s| {
                    r.histogram(
                        "mec_serve_step_ms",
                        "wall-clock engine step time (live only, never snapshotted)",
                        &[("shard", &s.to_string())],
                        STEP_MS_BOUNDS,
                    )
                })
                .collect(),
            bandit,
            place_hits: r.counter(
                "mec_placement_cache_hits_total",
                "arrivals whose home station held their service",
                &[],
            ),
            place_misses: r.counter(
                "mec_placement_cache_misses_total",
                "arrivals whose home station lacked their service",
                &[],
            ),
            place_evictions: r.counter(
                "mec_placement_evictions_total",
                "residents evicted to make room for installs",
                &[],
            ),
            install_latency: r.histogram(
                "mec_placement_install_latency_slots",
                "slots from install decision to residency",
                &[],
                INSTALL_SLOT_BOUNDS,
            ),
            disk_corrupt_records: r.counter(
                "mec_serve_recovery_corrupt_records_total",
                "CRC-failed journal/checkpoint records detected on disk",
                &[],
            ),
            disk_salvaged_bytes: r.counter(
                "mec_serve_recovery_salvaged_bytes_total",
                "bytes truncated away while salvaging torn journal tails",
                &[],
            ),
            disk_fallbacks: r.counter(
                "mec_serve_recovery_disk_fallbacks_total",
                "recoveries that distrusted disk and fell back to memory",
                &[],
            ),
            disk_retries: r.counter(
                "mec_serve_recovery_disk_retries_total",
                "disk read retries and write errors absorbed during recovery",
                &[],
            ),
            checkpoint_bytes: r.counter(
                "mec_serve_recovery_checkpoint_bytes_total",
                "framed bytes written across all checkpoint mirrors",
                &[],
            ),
            moved_state_bytes: r.counter(
                "mec_serve_recovery_moved_state_bytes_total",
                "encoded station-slice bytes shipped by drain/leave handoffs",
                &[],
            ),
            occupancy: Vec::new(),
            rings: (0..shards)
                .map(|_| tracing.then(|| TraceRing::with_capacity(RING_CAP)))
                .collect(),
            held_events: (0..shards)
                .map(|_| std::collections::VecDeque::new())
                .collect(),
            tracing,
            stall: (0..shards)
                .map(|s| {
                    let l: &[(&str, &str)] = &[("shard", &s.to_string())];
                    StallProbe {
                        work_ms: r.gauge(
                            "mec_serve_work_ms_total",
                            "cumulative wall-clock ms executing leased slots (live only)",
                            l,
                        ),
                        mailbox_ms: r.gauge(
                            "mec_serve_mailbox_wait_ms_total",
                            "cumulative wall-clock ms handling mailbox traffic (live only)",
                            l,
                        ),
                        watermark_ms: r.gauge(
                            "mec_serve_watermark_wait_ms_total",
                            "cumulative wall-clock ms blocked awaiting a lease (live only)",
                            l,
                        ),
                        wait_hist: r.histogram(
                            "mec_serve_watermark_wait_ms",
                            "per-grant wall-clock wait for the watermark (live only)",
                            l,
                            STEP_MS_BOUNDS,
                        ),
                    }
                })
                .collect(),
            latency_fine: r.histogram(
                "mec_serve_latency_fine_ms",
                "all-shard response latency on log-linear buckets",
                &[],
                &fine_bounds,
            ),
            slo_gauges: Vec::new(),
            driver_stall: [
                ("mec_serve_driver_wall_ms_total", "serve-loop wall time"),
                ("mec_serve_driver_dispatch_ms_total", "arrival dispatch"),
                ("mec_serve_driver_recovery_ms_total", "fault recovery"),
                ("mec_serve_driver_fold_ms_total", "watermark folds"),
            ]
            .map(|(name, what)| {
                r.gauge(
                    name,
                    &format!("cumulative ms the driver spent on {what}"),
                    &[],
                )
            }),
            telemetry_every,
            recovery_samples: Vec::new(),
            learn: hub
                .as_ref()
                .is_some_and(|h| h.probe())
                .then(|| LearnPlane::new(shards, r)),
            registry,
            hub,
        }
    }

    /// Whether the learner probe should be attached to shard policies.
    pub(crate) fn probe(&self) -> bool {
        self.learn.is_some()
    }

    /// The worker trace ring for `shard` (shared across restarts, so a
    /// replacement worker writes into the same stream).
    pub(crate) fn ring(&self, shard: usize) -> Option<TraceRing> {
        self.rings[shard].clone()
    }

    /// The worker's wall-clock step-timing histogram for `shard`.
    pub(crate) fn step_hist(&self, shard: usize) -> Option<Arc<Histogram>> {
        Some(Arc::clone(&self.step[shard]))
    }

    /// Whether a trace sink is attached, so events and request-lifecycle
    /// records are written. Gates the id bookkeeping lifecycle records
    /// need, so untraced runs skip it.
    pub(crate) fn tracing(&self) -> bool {
        self.tracing
    }

    /// Records one driver-side request-lifecycle stage straight into the
    /// trace. The driver runs between watermark folds, so its records
    /// are already deterministically ordered relative to the worker-ring
    /// drains.
    pub(crate) fn note_life(&self, slot: u64, id: u64, stage: &str, shard: i64, bs: i64) {
        mec_obs::event!(
            self,
            slot,
            "lifecycle",
            id = id,
            stage = stage,
            shard = shard,
            bs = bs
        );
    }

    /// The worker's stall probe for `shard`.
    pub(crate) fn stall_probe(&self, shard: usize) -> StallProbe {
        self.stall[shard].clone()
    }

    /// The fine-grained latency histogram (for worker-side exemplars).
    pub(crate) fn latency_fine(&self) -> Arc<Histogram> {
        Arc::clone(&self.latency_fine)
    }

    /// Whether run-end stall events were requested on the hub.
    pub(crate) fn stall_events(&self) -> bool {
        self.hub.as_ref().is_some_and(|h| h.stall_events())
    }

    pub(crate) fn telemetry_every(&self) -> u64 {
        self.telemetry_every
    }

    /// Folds one tick reply into metrics and (with a trace attached)
    /// the trace: backlog gauge, per-sample latency, cumulative shard
    /// counters, checkpoint count, and the learner-telemetry sweep.
    pub(crate) fn note_tick(&mut self, tick: &ShardTick) {
        let shard = tick.shard;
        let slot = tick.report.slot;
        self.backlog[shard].set(tick.backlog as f64);
        self.completed[shard].store(tick.completed as u64);
        self.expired[shard].store(tick.expired as u64);
        self.aborted[shard].store(tick.aborted as u64);
        for &lat in &tick.new_latencies {
            self.latency[shard].observe(lat);
            self.latency_fine.observe(lat);
            mec_obs::event!(self, slot, "served", shard = shard, lat_ms = lat);
        }
        if tick.checkpoint.is_some() {
            self.checkpoints[shard].inc();
            mec_obs::event!(
                self,
                slot,
                "checkpoint",
                shard = shard,
                next_slot = slot + 1
            );
        }
        if let Some(telemetry) = &tick.telemetry {
            self.note_telemetry(slot, shard, telemetry);
            self.note_learn_sweep(slot, shard, telemetry);
        }
        self.note_learner(tick);
    }

    /// Folds one probed tick into the learning plane: `arm_lifecycle`
    /// trace events, regret accounting against the per-step oracle,
    /// per-arm Page–Hinkley drift detection (with a flight dump on
    /// firing), decision-ring capture, and LP solve timings. No-op
    /// while the probe is detached.
    fn note_learner(&mut self, tick: &ShardTick) {
        let Some(mut learn) = self.learn.take() else {
            return;
        };
        let shard = tick.shard;
        let slot = tick.report.slot;
        let mut drift_fired = false;
        for ev in &tick.learner_events {
            mec_obs::event!(
                self,
                slot,
                "arm_lifecycle",
                shard = shard,
                arm = ev.arm,
                event = ev.kind,
                pulls = ev.pulls,
                mean = ev.mean,
                radius = ev.radius,
                value_mhz = ev.value,
            );
            let (Some(reward), Some(oracle)) = (ev.reward, ev.oracle) else {
                continue;
            };
            learn.regret[shard].record(reward, oracle);
            let arms = &mut learn.drift[shard];
            while arms.len() <= ev.arm {
                arms.push(ArmDrift {
                    ph: PageHinkley::default(),
                    suspected: false,
                });
            }
            let d = &mut arms[ev.arm];
            // The detector resets when it fires, so snapshot the
            // statistic the event should carry before feeding it.
            let (pre_mean, pre_score) = (d.ph.mean(), d.ph.score());
            if d.ph.observe(reward) {
                d.suspected = true;
                drift_fired = true;
                learn.gauges[shard].drift_total.inc();
                mec_obs::event!(
                    self,
                    slot,
                    "drift_suspected",
                    shard = shard,
                    arm = ev.arm,
                    mean = pre_mean,
                    score = pre_score,
                );
            } else if d.suspected && d.ph.samples() >= mec_obs::drift::DEFAULT_MIN_SAMPLES {
                // A warm-up's worth of fresh evidence without re-firing:
                // the stream looks stationary again.
                d.suspected = false;
                mec_obs::event!(
                    self,
                    slot,
                    "drift_cleared",
                    shard = shard,
                    arm = ev.arm,
                    mean = d.ph.mean(),
                    score = d.ph.score(),
                );
            }
        }
        learn.probe_drop_counter.add(tick.probe_dropped);
        if let Some(d) = &tick.decision {
            let lp = &learn.lp_last[shard];
            learn.recorder.record(DecisionSnapshot {
                shard,
                slot: d.slot,
                arm: d.arm,
                value: d.value,
                active_arms: d.active_arms,
                best_arm: d.best_arm,
                best_mean: d.best_mean,
                granted: d.granted,
                granted_mhz: d.granted_mhz,
                assign_digest: d.assign_digest,
                lp_solves: lp.solves,
                lp_warm_hits: lp.warm_hits,
                lp_pivots: lp.pivots,
            });
        }
        let a = &learn.regret[shard];
        let g = &learn.gauges[shard];
        g.regret.set(a.regret());
        g.cum_reward.set(a.cumulative_reward());
        g.oracle.set(a.oracle_total());
        g.steps.set(a.steps() as f64);
        self.learn = Some(learn);
        if drift_fired {
            self.dump_flight(FlightTrigger::Drift, slot);
        }
    }

    /// Learner-sweep bookkeeping while the probe is attached: caches
    /// the arm views behind `/learning.json` and the solver counters
    /// decision snapshots carry, and emits the `learning_state` event.
    fn note_learn_sweep(&mut self, slot: u64, shard: usize, t: &mec_sim::PolicyTelemetry) {
        let Some(mut learn) = self.learn.take() else {
            return;
        };
        learn.last_arms[shard] = t.arms.clone();
        {
            let a = &learn.regret[shard];
            mec_obs::event!(
                self,
                slot,
                "learning_state",
                shard = shard,
                cum_reward = a.cumulative_reward(),
                oracle = a.oracle_total(),
                regret = a.regret(),
                steps = a.steps(),
            );
        }
        if let Some(s) = &t.solver {
            learn.lp_last[shard] = *s;
        }
        let doc = learn.render_doc(slot);
        if let Some(hub) = &self.hub {
            *hub.learning_doc
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = doc;
            if learn.doc_slot != slot {
                learn.doc_slot = slot;
                *hub.flight_doc
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) =
                    learn.recorder.render_jsonl();
            }
        }
        self.learn = Some(learn);
    }

    /// Dumps the flight recorder's decision rings for `trigger` at
    /// `slot` into the trace, when a trace sink is attached. The dump
    /// flushes immediately — dumps fire on faults, and the run-end flush
    /// may never come.
    pub(crate) fn dump_flight(&mut self, trigger: FlightTrigger, slot: u64) {
        if !self.enabled() {
            return;
        }
        let (Some(hub), Some(learn)) = (&self.hub, &mut self.learn) else {
            return;
        };
        let events = learn.recorder.dump_events(trigger, slot);
        for event in &events {
            hub.write_event(event);
        }
        if !events.is_empty() {
            hub.flush();
        }
    }

    /// Publishes one learner-telemetry sweep: shard gauges, per-arm
    /// series and `arm_state` events. Eliminations are the arm probe's
    /// `arm_lifecycle` events, not this sweep's.
    fn note_telemetry(&mut self, slot: u64, shard: usize, t: &mec_sim::PolicyTelemetry) {
        let g = &mut self.bandit[shard];
        g.threshold_mhz.set(t.best_value);
        g.active_arms.set(t.active_arms() as f64);
        g.regret_proxy.set(t.regret_proxy);
        g.total_pulls.set(t.total_pulls as f64);
        while g.per_arm.len() < t.arms.len() {
            let arm = g.per_arm.len();
            let labels: &[(&str, &str)] =
                &[("shard", &shard.to_string()), ("arm", &arm.to_string())];
            g.per_arm.push(ArmGauges {
                pulls: self.registry.counter(
                    "mec_bandit_arm_pulls",
                    "times the arm was pulled",
                    labels,
                ),
                mean: self
                    .registry
                    .gauge("mec_bandit_arm_mean", "empirical mean reward", labels),
                ucb: self
                    .registry
                    .gauge("mec_bandit_arm_ucb", "upper confidence bound", labels),
                lcb: self
                    .registry
                    .gauge("mec_bandit_arm_lcb", "lower confidence bound", labels),
                active: self.registry.gauge(
                    "mec_bandit_arm_active",
                    "1 while the arm is in the active set",
                    labels,
                ),
            });
        }
        for (arm, view) in t.arms.iter().enumerate() {
            let h = &g.per_arm[arm];
            h.pulls.store(view.pulls);
            h.mean.set(view.mean);
            h.ucb.set(view.ucb);
            h.lcb.set(view.lcb);
            h.active.set(f64::from(u8::from(view.active)));
        }
        for (arm, view) in t.arms.iter().enumerate() {
            mec_obs::event!(
                self,
                slot,
                "arm_state",
                shard = shard,
                arm = arm,
                value_mhz = view.value,
                pulls = view.pulls,
                mean = view.mean,
                ucb = view.ucb,
                lcb = view.lcb,
                active = view.active,
            );
        }
    }

    /// Records a shard-failure detection (`reason` is `disconnect`,
    /// `timeout`, or `send_failed`) and dumps the flight recorder —
    /// the decisions leading up to a crash are exactly what it's for.
    pub(crate) fn note_detection(&mut self, slot: u64, shard: usize, reason: &str) {
        mec_obs::event!(self, slot, "fault_detected", shard = shard, reason = reason);
        self.dump_flight(FlightTrigger::Crash, slot);
    }

    /// Counts one restart attempt (successful or not).
    pub(crate) fn note_restart_attempt(&self, shard: usize) {
        self.restarts[shard].inc();
    }

    /// Records a successful restart: replayed-arrival and outage-length
    /// counters, the percentile sample, and the `restart` event.
    pub(crate) fn note_restart_ok(&mut self, slot: u64, shard: usize, replayed: u64, outage: u64) {
        self.replayed[shard].add(replayed);
        self.recovery_total.add(outage);
        self.recovery_samples.push(outage);
        mec_obs::event!(
            self,
            slot,
            "restart",
            shard = shard,
            replayed = replayed,
            latency_slots = outage,
            ok = true,
        );
    }

    /// Records a restart whose replacement worker died before reporting.
    pub(crate) fn note_restart_failed(&self, slot: u64, shard: usize) {
        mec_obs::event!(
            self,
            slot,
            "restart",
            shard = shard,
            replayed = 0u64,
            latency_slots = 0u64,
            ok = false,
        );
    }

    /// Counts one shard-slot spent unavailable.
    pub(crate) fn note_degraded(&self, shard: usize) {
        self.degraded[shard].inc();
    }

    /// Publishes the per-slot admission funnel (skipped when nothing was
    /// dispatched this slot, to keep traces proportional to activity).
    #[allow(clippy::similar_names, clippy::too_many_arguments)]
    pub(crate) fn note_admission(
        &self,
        slot: u64,
        injected: u64,
        buffered: u64,
        spilled: u64,
        shed: u64,
        shed_down: u64,
        held: u64,
    ) {
        if injected + buffered + spilled + shed + shed_down + held == 0 {
            return;
        }
        mec_obs::event!(
            self,
            slot,
            "admission",
            admitted = injected,
            buffered = buffered,
            spilled = spilled,
            shed = shed,
            shed_down = shed_down,
            held = held,
        );
    }

    /// Updates the slot gauge after each watermark fold.
    pub(crate) fn set_slot(&self, slot: u64) {
        self.slot.set(slot as f64);
    }

    /// Publishes one slot's placement routing delta (cache counters plus
    /// the `placement` trace event; skipped when nothing happened).
    pub(crate) fn note_placement(&self, slot: u64, delta: &PlacementStats) {
        if delta.is_quiet() {
            return;
        }
        self.place_hits.add(delta.hits);
        self.place_misses.add(delta.misses);
        self.place_evictions.add(delta.evictions);
        mec_obs::event!(
            self,
            slot,
            "placement",
            hits = delta.hits,
            misses = delta.misses,
            redirects = delta.redirects,
            rehomed = delta.rehomed,
            held = delta.held,
            shed = delta.placement_shed,
        );
    }

    /// Records a completed service install: the latency histogram and
    /// the `install` event.
    pub(crate) fn note_install_done(&self, slot: u64, done: &InstallDone) {
        self.install_latency.observe(done.latency as f64);
        mec_obs::event!(
            self,
            slot,
            "install",
            station = done.station,
            service = done.service.0,
            warm = done.warm,
            latency_slots = done.latency,
        );
    }

    /// Records a membership op the moment it applies.
    pub(crate) fn note_reconfig(&self, slot: u64, op: &ReconfigOp) {
        let kind = match op {
            ReconfigOp::BsJoin { .. } => "join",
            ReconfigOp::BsLeave { .. } => "leave",
            ReconfigOp::BsDrain { .. } => "drain",
        };
        mec_obs::event!(self, slot, "reconfig", op = kind, station = op.station());
    }

    /// Records a drain/leave handoff: which station left, who took its
    /// extracted in-flight slice, and how much state moved (jobs and
    /// encoded bytes — the per-handoff cost the recovery report plots).
    pub(crate) fn note_handoff(
        &self,
        slot: u64,
        station: usize,
        takeover: Option<usize>,
        migrated: u64,
        bytes: u64,
        leave: bool,
    ) {
        self.moved_state_bytes.add(bytes);
        mec_obs::event!(
            self,
            slot,
            "handoff",
            station = station,
            takeover = takeover.map_or(-1i64, |t| t as i64),
            migrated = migrated,
            bytes = bytes,
            leave = leave,
        );
    }

    /// Folds one shard's disk-recovery incident tally into the recovery
    /// counters and emits a `journal_salvage` event (skipped when the
    /// read-back was clean).
    pub(crate) fn note_disk_incidents(&self, slot: u64, shard: usize, inc: &DiskIncidents) {
        if inc.is_clean() {
            return;
        }
        self.disk_corrupt_records.add(inc.corrupt_records);
        self.disk_salvaged_bytes.add(inc.salvaged_bytes);
        self.disk_retries.add(inc.retries);
        self.disk_fallbacks.add(inc.checkpoint_fallbacks);
        mec_obs::event!(
            self,
            slot,
            "journal_salvage",
            shard = shard,
            corrupt_records = inc.corrupt_records,
            salvaged_bytes = inc.salvaged_bytes,
            retries = inc.retries,
            checkpoint_fallbacks = inc.checkpoint_fallbacks,
        );
    }

    /// Records a recovery that distrusted the disk mirror (read-back did
    /// not byte-match memory) and healed it from the in-memory truth.
    pub(crate) fn note_disk_fallback(&self, slot: u64, shard: usize) {
        self.disk_fallbacks.inc();
        mec_obs::event!(self, slot, "disk_fallback", shard = shard);
    }

    /// Records a checkpoint mirrored to disk and its framed byte size.
    pub(crate) fn note_checkpoint_write(&self, slot: u64, shard: usize, bytes: u64) {
        self.checkpoint_bytes.add(bytes);
        mec_obs::event!(self, slot, "checkpoint_write", shard = shard, bytes = bytes);
    }

    /// Records a disk write error absorbed without aborting the run
    /// (`op` is `append`, `checkpoint`, `prune`, `heal`, `flush`, or
    /// `fault`; `shard == usize::MAX` marks a store-wide operation).
    pub(crate) fn note_disk_write_error(
        &self,
        slot: u64,
        shard: usize,
        op: &str,
        e: &std::io::Error,
    ) {
        self.disk_retries.inc();
        let shard_id = if shard == usize::MAX {
            -1i64
        } else {
            shard as i64
        };
        mec_obs::event!(
            self,
            slot,
            "disk_error",
            shard = shard_id,
            op = op,
            error = e.to_string(),
        );
    }

    /// Records an injected disk fault the moment it lands on the store.
    pub(crate) fn note_disk_fault(&self, slot: u64, fault: &DiskFaultSpec, bytes: u64) {
        let target = match fault.target {
            DiskTarget::Journal => "journal",
            DiskTarget::Checkpoint => "ckpt",
        };
        let kind = match fault.kind {
            DiskFaultKind::Truncate { .. } => "truncate",
            DiskFaultKind::Corrupt { .. } => "corrupt",
            DiskFaultKind::SlowDisk { .. } => "slowdisk",
        };
        mec_obs::event!(
            self,
            slot,
            "disk_fault",
            shard = fault.shard,
            target = target,
            fault = kind,
            bytes = bytes,
        );
    }

    /// Mirrors per-BS cache occupancy into the registry, growing the
    /// gauge set to the fleet size on first call.
    pub(crate) fn sync_placement(&mut self, state: &PlacementState) {
        while self.occupancy.len() < state.stations() {
            let bs = self.occupancy.len();
            self.occupancy.push(self.registry.gauge(
                "mec_placement_bs_occupancy",
                "storage units used (residents + reservations)",
                &[("bs", &bs.to_string())],
            ));
        }
        for st in 0..state.stations() {
            self.occupancy[st].set(f64::from(state.occupancy(st)));
        }
    }

    /// Mirrors the router-owned totals into the registry.
    pub(crate) fn sync_router(&self, router: &Router) {
        self.admitted.store(router.admitted());
        self.shed.store(router.shed());
        self.spilled.store(router.spilled());
        self.shed_while_down.store(router.shed_while_down());
        self.journal_dropped.store(router.journal_dropped());
    }

    /// Drains worker rings into the trace, in shard order, emitting only
    /// events stamped at or below the fold watermark `through`. Called
    /// once per watermark fold so worker events interleave
    /// deterministically with driver events even when workers run ahead
    /// of the fold: events past the watermark are held back (worker
    /// streams are slot-nondecreasing) and emitted by a later fold. The
    /// run-end drain passes `u64::MAX` to flush every holdback.
    pub(crate) fn drain_rings_through(&mut self, through: u64) {
        for (shard, ring) in self.rings.iter().enumerate() {
            if let Some(ring) = ring {
                self.held_events[shard].extend(ring.drain());
            }
            while self.held_events[shard]
                .front()
                .is_some_and(|e| e.slot <= through)
            {
                let event = self.held_events[shard].pop_front().expect("checked front");
                if let Some(hub) = &self.hub {
                    hub.write_event(&event);
                }
            }
        }
    }

    /// Publishes one slot's SLO evaluation: per-spec gauges, breach /
    /// recovery trace events, and the live `/slo.json` document.
    pub(crate) fn note_slo(
        &mut self,
        slot: u64,
        engine: &SloEngine,
        transitions: &[SloTransition],
    ) {
        if engine.is_empty() {
            return;
        }
        if self.slo_gauges.is_empty() {
            for spec in engine.specs() {
                let l: &[(&str, &str)] = &[("slo", spec.label())];
                self.slo_gauges.push([
                    self.registry
                        .gauge("mec_slo_value", "windowed SLI value", l),
                    self.registry.gauge(
                        "mec_slo_burn_fast",
                        "fast-window error-budget burn rate",
                        l,
                    ),
                    self.registry.gauge(
                        "mec_slo_burn_slow",
                        "slow-window error-budget burn rate",
                        l,
                    ),
                    self.registry
                        .gauge("mec_slo_breached", "1 while the SLO is in breach", l),
                ]);
            }
        }
        for (i, gauges) in self.slo_gauges.iter().enumerate() {
            let status = engine.status(i);
            gauges[0].set(status.value);
            gauges[1].set(status.burn_fast);
            gauges[2].set(status.burn_slow);
            gauges[3].set(f64::from(u8::from(status.breached)));
        }
        for t in transitions {
            let spec = engine.specs()[t.index].label();
            let kind = if t.breached {
                "slo_breach"
            } else {
                "slo_recovered"
            };
            mec_obs::event!(
                self,
                slot,
                kind,
                slo = spec,
                value = t.value,
                burn_fast = t.burn_fast,
                burn_slow = t.burn_slow,
            );
        }
        if let Some(hub) = &self.hub {
            *hub.slo_doc
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = engine.render_json(slot);
        }
        if transitions.iter().any(|t| t.breached) {
            self.dump_flight(FlightTrigger::Slo, slot);
        }
    }

    /// Mirrors the driver's cumulative phase split into the registry.
    pub(crate) fn note_driver_stall(
        &self,
        wall_ms: f64,
        dispatch_ms: f64,
        recovery_ms: f64,
        fold_ms: f64,
    ) {
        for (gauge, v) in self
            .driver_stall
            .iter()
            .zip([wall_ms, dispatch_ms, recovery_ms, fold_ms])
        {
            gauge.set(v);
        }
    }

    /// Emits the run-end `stall_shard` / `stall_driver` trace events.
    /// Only called when the hub opted in with `--stall-events`: the
    /// payloads are wall-clock measurements, which would break trace
    /// byte-identity across same-seed runs.
    pub(crate) fn note_stall_summary(
        &self,
        slot: u64,
        wall_ms: f64,
        dispatch_ms: f64,
        recovery_ms: f64,
        fold_ms: f64,
        slots: u64,
    ) {
        for (shard, probe) in self.stall.iter().enumerate() {
            mec_obs::event!(
                self,
                slot,
                "stall_shard",
                shard = shard,
                work_ms = probe.work_ms.get(),
                mailbox_ms = probe.mailbox_ms.get(),
                watermark_ms = probe.watermark_ms.get(),
            );
        }
        mec_obs::event!(
            self,
            slot,
            "stall_driver",
            wall_ms = wall_ms,
            dispatch_ms = dispatch_ms,
            recovery_ms = recovery_ms,
            fold_ms = fold_ms,
            slots = slots,
        );
    }

    /// The snapshot-facing fault counters, sourced from the registry —
    /// the compatibility shim that keeps [`FaultStats`] byte-identical
    /// to the pre-registry implementation, plus the recovery-latency
    /// percentiles over this run's outage samples.
    pub(crate) fn fault_stats(&self) -> FaultStats {
        let sum = |v: &[Arc<Counter>]| v.iter().map(|c| c.get()).sum();
        let (p50, p95, max) = slot_quantiles(&self.recovery_samples);
        FaultStats {
            restarts: sum(&self.restarts),
            replayed_arrivals: sum(&self.replayed),
            spilled: self.spilled.get(),
            shed_while_down: self.shed_while_down.get(),
            degraded_slots: sum(&self.degraded),
            recovery_latency_slots: self.recovery_total.get(),
            checkpoints: sum(&self.checkpoints),
            journal_dropped: self.journal_dropped.get(),
            recovery_p50_slots: p50,
            recovery_p95_slots: p95,
            recovery_max_slots: max,
            disk_corrupt_records: self.disk_corrupt_records.get(),
            disk_salvaged_bytes: self.disk_salvaged_bytes.get(),
            disk_fallbacks: self.disk_fallbacks.get(),
            disk_retries: self.disk_retries.get(),
        }
    }

    /// Surfaces ring saturation, then flushes the hub's sink. A
    /// saturated ring means the trace — request journeys included — has
    /// gaps. Drop counts are deterministic (ring capacity vs per-slot
    /// event volume), so the drop event keeps byte-identity.
    pub(crate) fn flush(&self, slot: u64) {
        let dropped: u64 = self.rings.iter().flatten().map(TraceRing::dropped).sum();
        if dropped > 0 {
            self.registry
                .counter(
                    "mec_obs_trace_dropped_total",
                    "worker ring events lost to saturation",
                    &[],
                )
                .store(dropped);
            mec_obs::event!(self, slot, "trace_drops", count = dropped);
        }
        if let Some(learn) = &self.learn {
            let probe_dropped = learn.probe_drop_counter.get();
            if probe_dropped > 0 {
                mec_obs::event!(self, slot, "arm_lifecycle_drops", count = probe_dropped);
            }
        }
        if let Some(hub) = &self.hub {
            hub.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_quantiles_match_latency_stats_formula() {
        assert_eq!(slot_quantiles(&[]), (0, 0, 0));
        assert_eq!(slot_quantiles(&[12]), (12, 12, 12));
        let samples: Vec<u64> = (1..=100).collect();
        let (p50, p95, max) = slot_quantiles(&samples);
        assert_eq!(p50, 51); // round(0.5 * 99) = 50 -> sorted[50] = 51
        assert_eq!(p95, 95); // round(0.95 * 99) = 94 -> sorted[94] = 95
        assert_eq!(max, 100);
    }

    #[test]
    fn fresh_state_reports_quiet_faults() {
        let obs = ObsState::new(3, None);
        assert!(obs.fault_stats().is_quiet());
        assert!(obs.ring(0).is_none(), "no tracing without a hub");
        assert!(obs.step_hist(2).is_some());
    }

    #[test]
    fn restart_accounting_flows_into_fault_stats() {
        let mut obs = ObsState::new(2, None);
        obs.note_restart_attempt(1);
        obs.note_restart_ok(30, 1, 17, 12);
        obs.note_degraded(1);
        let stats = obs.fault_stats();
        assert_eq!(stats.restarts, 1);
        assert_eq!(stats.replayed_arrivals, 17);
        assert_eq!(stats.recovery_latency_slots, 12);
        assert_eq!(stats.degraded_slots, 1);
        assert_eq!(stats.recovery_p50_slots, 12);
        assert_eq!(stats.recovery_p95_slots, 12);
        assert_eq!(stats.recovery_max_slots, 12);
    }

    #[test]
    fn disk_incidents_flow_into_fault_stats() {
        let obs = ObsState::new(1, None);
        obs.note_disk_incidents(
            5,
            0,
            &DiskIncidents {
                corrupt_records: 2,
                salvaged_bytes: 64,
                retries: 3,
                checkpoint_fallbacks: 1,
            },
        );
        obs.note_disk_fallback(6, 0);
        let stats = obs.fault_stats();
        assert_eq!(stats.disk_corrupt_records, 2);
        assert_eq!(stats.disk_salvaged_bytes, 64);
        assert_eq!(stats.disk_retries, 3);
        assert_eq!(
            stats.disk_fallbacks, 2,
            "incident fallback + verify fallback"
        );
    }

    #[test]
    fn probe_drops_sum_across_a_restart() {
        let hub = Arc::new(ObsHub::new().with_probe(true));
        let mut obs = ObsState::new(2, Some(hub));
        let tick = |slot, probe_dropped| ShardTick {
            shard: 1,
            report: mec_sim::SlotReport {
                slot,
                ..Default::default()
            },
            backlog: 0,
            total_reward: 0.0,
            completed: 0,
            expired: 0,
            aborted: 0,
            new_latencies: Vec::new(),
            checkpoint: None,
            telemetry: None,
            learner_events: Vec::new(),
            probe_dropped,
            decision: None,
        };
        obs.note_tick(&tick(10, 5));
        obs.note_tick(&tick(20, 2));
        // The restarted shard runs a fresh policy, whose probe buffer
        // starts empty: its drops add to the ones before the crash.
        obs.note_restart_attempt(1);
        obs.note_restart_ok(30, 1, 17, 12);
        obs.note_tick(&tick(31, 4));
        let learn = obs.learn.as_ref().expect("the hub requested the probe");
        assert_eq!(learn.probe_drop_counter.get(), 11);
    }

    /// A sink that refuses every write.
    struct Full;

    impl std::io::Write for Full {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(std::io::ErrorKind::StorageFull, "full"))
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_trace_sink_stops_event_building() {
        let hub = Arc::new(ObsHub::new().with_trace(TraceWriter::new(Box::new(Full))));
        let obs = ObsState::new(1, Some(Arc::clone(&hub)));
        assert!(obs.enabled(), "a fresh sink takes events");
        obs.note_life(3, 7, "admit", 0, 0);
        assert!(hub.trace_error().is_some(), "the write failed");
        assert!(!obs.enabled(), "no event is built after the error");
        assert_eq!(hub.trace_written(), 0);
    }

    #[test]
    fn hub_with_trace_creates_worker_rings() {
        let hub = Arc::new(ObsHub::new().with_trace(TraceWriter::new(Box::new(Vec::new()))));
        let obs = ObsState::new(2, Some(hub));
        assert!(obs.ring(0).is_some());
        assert!(obs.ring(1).is_some());
    }
}
