//! The slot loop: arrivals → policy callback → validation → service.

use crate::lifecycle::{Job, JobView, Phase};
use crate::metrics::Metrics;
use crate::trace::{Event, Trace, TracedEvent};
use crate::SlotConfig;
use mec_topology::station::StationId;
use mec_topology::units::Compute;
use mec_topology::{PathTable, Topology};
use mec_workload::request::{Request, RequestId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One slot's compute grant to one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Allocation {
    /// The request being served.
    pub request: RequestId,
    /// The station doing the work this slot.
    pub station: StationId,
    /// Compute granted for the slot.
    pub compute: Compute,
}

/// Everything a policy may look at when scheduling one slot.
#[derive(Debug)]
pub struct SlotContext<'a> {
    /// Current slot index.
    pub slot: u64,
    /// All jobs that have arrived and can still be served, in request-id
    /// order.
    pub views: Vec<JobView<'a>>,
    /// The network.
    pub topo: &'a Topology,
    /// Precomputed shortest paths.
    pub paths: &'a PathTable,
    /// Simulation parameters.
    pub config: &'a SlotConfig,
}

/// A per-slot scheduling policy (implemented by `mec-core`'s online
/// algorithms).
pub trait SlotPolicy {
    /// Chooses this slot's allocations. Jobs left out are preempted (they
    /// keep their remaining work and wait).
    fn schedule(&mut self, ctx: &SlotContext<'_>) -> Vec<Allocation>;

    /// Feedback after the slot is served: the reward credited by requests
    /// that *completed* during this slot. Online learners (the paper's
    /// `DynamicRR`) use this as their bandit signal; the default is a no-op.
    fn observe(&mut self, slot: u64, completed_reward: f64) {
        let _ = (slot, completed_reward);
    }

    /// Human-readable policy name for reports.
    fn name(&self) -> &str {
        "policy"
    }

    /// A deterministic snapshot of the policy's internal learning state,
    /// for telemetry. Non-learning policies keep the default `None`.
    fn telemetry(&self) -> Option<crate::telemetry::PolicyTelemetry> {
        None
    }

    /// Attaches or detaches the learner probe (arm-lifecycle events and
    /// per-slot decision records). Non-learning policies ignore this;
    /// the default probe is detached and detached policies behave
    /// byte-identically to pre-probe builds.
    fn set_probe(&mut self, enabled: bool) {
        let _ = enabled;
    }

    /// Drains the arm-lifecycle events recorded since the last drain,
    /// with the number of events the probe's bounded buffer dropped since
    /// then. Empty unless a probe is attached.
    fn drain_learner_events(&mut self) -> (Vec<crate::telemetry::LearnerEvent>, u64) {
        (Vec::new(), 0)
    }

    /// The most recent slot's decision digest, when a probe is attached.
    fn last_decision(&self) -> Option<crate::telemetry::DecisionRecord> {
        None
    }

    /// Drains wall-clock LP solve times (milliseconds) accumulated since
    /// the last drain, for live histograms only — callers must never
    /// route these into traces or snapshots.
    fn drain_solve_times_ms(&mut self) -> Vec<f64> {
        Vec::new()
    }
}

/// Validation failures — a policy returned an illegal schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Allocation referenced a request the engine does not know.
    UnknownRequest(RequestId),
    /// Allocation targeted a completed/expired/not-yet-arrived request.
    NotSchedulable(RequestId),
    /// Two allocations for the same request in one slot.
    DuplicateAllocation(RequestId),
    /// A station's grants exceeded its capacity.
    CapacityExceeded {
        /// The over-committed station.
        station: StationId,
        /// Sum of grants.
        used: f64,
        /// The station's capacity.
        capacity: f64,
    },
    /// First service would violate the request's latency requirement
    /// (Ineq. 1) — policies must only start feasible requests.
    DeadlineViolated(RequestId),
    /// The serving station is unreachable from the request's home.
    Unreachable(RequestId, StationId),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownRequest(r) => write!(f, "unknown request {r}"),
            SimError::NotSchedulable(r) => write!(f, "request {r} cannot be scheduled"),
            SimError::DuplicateAllocation(r) => write!(f, "duplicate allocation for {r}"),
            SimError::CapacityExceeded {
                station,
                used,
                capacity,
            } => write!(
                f,
                "station {station} over-committed: {used:.1} of {capacity:.1} MHz"
            ),
            SimError::DeadlineViolated(r) => {
                write!(f, "first service of {r} would violate its deadline")
            }
            SimError::Unreachable(r, s) => write!(f, "station {s} unreachable from {r}'s home"),
        }
    }
}

impl std::error::Error for SimError {}

/// What happened during one executed slot — the per-tick feedback a
/// long-running serving loop consumes (`mec-serve` reads these instead of
/// waiting for the end-of-horizon [`Metrics`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SlotReport {
    /// The slot that was just executed.
    pub slot: u64,
    /// Requests that completed during this slot.
    pub completed: usize,
    /// Reward credited by those completions.
    pub completed_reward: f64,
    /// Requests that expired waiting during this slot.
    pub expired: usize,
    /// Streams aborted by the continuity requirement during this slot.
    pub aborted: usize,
}

/// A resumable image of an [`Engine`]'s mutable state: everything needed
/// to rebuild the engine at the same point of the same run — the slot
/// index, the live jobs' dynamic state (active placements and remaining
/// work), the next request id, accumulated metrics, and the demand RNG's
/// stream position. Terminal jobs are not part of it: their outcome is
/// already folded into `metrics`, so the image grows with the jobs in
/// flight, not with the jobs ever injected.
///
/// Captured with [`Engine::checkpoint`] and reapplied with
/// [`Engine::restore`] onto an engine built over the *same* topology,
/// path table, and [`SlotConfig`] (in particular the same `seed` — the
/// RNG is reseeded from it and fast-forwarded to the recorded stream
/// position). The event trace, if any, is not part of the state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineState {
    /// The next slot [`Engine::step`] will execute.
    pub next_slot: u64,
    /// Slots executed so far.
    pub slots_run: u64,
    /// The live (waiting or running) jobs, in increasing request-id order.
    pub jobs: Vec<Job>,
    /// The id the next injected or absorbed request receives; every id
    /// below it was issued, including those of retired jobs.
    pub next_id: usize,
    /// Granted MHz·slots per station.
    pub busy_mhz_slots: Vec<f64>,
    /// Outcome counters accumulated so far.
    pub metrics: Metrics,
    /// Whether [`Engine::finish`] already accounted for leftovers.
    pub finished: bool,
    /// Words consumed from the demand-realization RNG stream.
    pub rng_word_pos: u64,
}

impl EngineState {
    /// The state of a freshly built engine with an empty workload over a
    /// `stations`-sized topology — the replay base a supervisor can hold
    /// before the first checkpoint arrives.
    pub fn genesis(stations: usize) -> Self {
        Self {
            next_slot: 0,
            slots_run: 0,
            jobs: Vec::new(),
            next_id: 0,
            busy_mhz_slots: vec![0.0; stations],
            metrics: Metrics::new(),
            finished: false,
            rng_word_pos: 0,
        }
    }

    /// Splits the jobs homed on `station` out of this checkpoint into the
    /// returned [`StationSlice`]. This is what makes checkpoints
    /// *splittable per-station* — a handoff ships only the drained
    /// station's slice, never the whole image.
    pub fn split_station(&mut self, station: StationId) -> StationSlice {
        StationSlice::take(&mut self.jobs, station)
    }
}

/// The in-flight (waiting or running) jobs homed on one station, extracted
/// from an engine or checkpoint for a drain/leave handoff. The slice — not
/// the full engine image — is what moves between shards, so handoff cost
/// is bounded by the state that actually moved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StationSlice {
    /// The station the jobs were homed on, in the *source* engine's
    /// station id space.
    pub station: StationId,
    /// The moved jobs, in source-id order.
    pub jobs: Vec<Job>,
}

impl StationSlice {
    /// Removes the jobs homed on `station` from an id-ordered live job
    /// list, keeping both halves in id order.
    fn take(jobs: &mut Vec<Job>, station: StationId) -> Self {
        let jobs = jobs
            .extract_if(.., |j| j.request().home() == station)
            .collect();
        Self { station, jobs }
    }

    /// Number of moved jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether nothing moved.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// The discrete time-slot engine.
///
/// Owns the live job states, realizes demands on first service (seeded
/// RNG, so runs are reproducible), enforces capacities and deadlines, and
/// accumulates [`Metrics`]. A job that completes, expires or aborts
/// retires at the end of its slot — its outcome is already in the
/// metrics — so a slot costs time proportional to the jobs in flight, not
/// to the jobs ever injected.
///
/// Two driving styles are supported:
///
/// * **Batch** — [`Engine::run`] executes the configured horizon in one
///   call (the paper's experiments).
/// * **Resumable** — [`Engine::step`] executes a single slot and returns a
///   [`SlotReport`]; new requests may be injected between steps with
///   [`Engine::inject`], and [`Engine::finish`] closes the books. This is
///   the substrate of the `mec-serve` streaming runtime.
pub struct Engine<'a> {
    topo: &'a Topology,
    paths: &'a PathTable,
    config: SlotConfig,
    /// The live jobs — waiting (including not yet arrived) and running —
    /// in increasing id order. Ids are issued in increasing order and
    /// retirement only removes, so the order holds without sorting.
    jobs: Vec<Job>,
    /// The id the next injected or absorbed request receives.
    next_id: usize,
    rng: ChaCha8Rng,
    /// Granted MHz·slots per station, accumulated across the run.
    busy_mhz_slots: Vec<f64>,
    slots_run: u64,
    trace: Option<Trace>,
    /// The next slot [`Engine::step`] will execute.
    next_slot: u64,
    /// Accumulated outcome counters (engine-owned so stepping can pause
    /// and resume without losing state).
    metrics: Metrics,
    /// Whether [`Engine::finish`] already accounted for leftovers.
    finished: bool,
}

impl<'a> Engine<'a> {
    /// Builds an engine over a workload.
    ///
    /// # Panics
    ///
    /// Panics if request ids are not dense `0..n` (the workload generator
    /// guarantees this).
    pub fn new(
        topo: &'a Topology,
        paths: &'a PathTable,
        requests: Vec<Request>,
        config: SlotConfig,
    ) -> Self {
        for (i, r) in requests.iter().enumerate() {
            assert_eq!(r.id().index(), i, "request ids must be dense");
        }
        let rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x5bd1_e995);
        let stations = topo.station_count();
        Self {
            topo,
            paths,
            config,
            next_id: requests.len(),
            jobs: requests.into_iter().map(Job::new).collect(),
            rng,
            busy_mhz_slots: vec![0.0; stations],
            slots_run: 0,
            trace: None,
            next_slot: 0,
            metrics: Metrics::new(),
            finished: false,
        }
    }

    /// Turns on event tracing, holding at most `capacity` undrained
    /// events.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::with_capacity(capacity));
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Removes and yields the events recorded since the last drain (none
    /// when tracing is off). A consumer that drains every slot keeps the
    /// trace's memory bounded by one slot's events.
    pub fn drain_trace(&mut self) -> impl Iterator<Item = TracedEvent> + '_ {
        self.trace.iter_mut().flat_map(Trace::drain)
    }

    /// Per-station utilization in `[0, 1]` over the slots run so far:
    /// granted compute divided by capacity × time. All zeros before
    /// [`Engine::run`].
    pub fn utilization(&self) -> Vec<f64> {
        self.topo
            .stations()
            .iter()
            .zip(&self.busy_mhz_slots)
            .map(|(s, &busy)| {
                let denom = s.capacity().as_mhz() * self.slots_run as f64;
                if denom > 0.0 {
                    busy / denom
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Network-wide average utilization in `[0, 1]`.
    pub fn avg_utilization(&self) -> f64 {
        let total_cap: f64 = self
            .topo
            .stations()
            .iter()
            .map(|s| s.capacity().as_mhz())
            .sum();
        let busy: f64 = self.busy_mhz_slots.iter().sum();
        let denom = total_cap * self.slots_run as f64;
        if denom > 0.0 {
            busy / denom
        } else {
            0.0
        }
    }

    /// The live (waiting or running) jobs in increasing id order. Retired
    /// jobs are gone: their outcomes are in [`Engine::metrics`] and, with
    /// tracing on, in the event trace.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The live job with this id, if any.
    pub fn job(&self, id: RequestId) -> Option<&Job> {
        self.position(id).ok().map(|i| &self.jobs[i])
    }

    /// Position of a live job in the id-ordered live vector; a retired id
    /// is `NotSchedulable`, an id never issued is `UnknownRequest`.
    fn position(&self, id: RequestId) -> Result<usize, SimError> {
        self.jobs.binary_search_by_key(&id, Job::id).map_err(|_| {
            if id.index() < self.next_id {
                SimError::NotSchedulable(id)
            } else {
                SimError::UnknownRequest(id)
            }
        })
    }

    /// Runs the full horizon under `policy`.
    ///
    /// Equivalent to [`Engine::step`]-ping `config.horizon` times and then
    /// calling [`Engine::finish`].
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] if the policy produces an illegal
    /// schedule; the simulation cannot continue past that point.
    pub fn run<P: SlotPolicy + ?Sized>(&mut self, policy: &mut P) -> Result<Metrics, SimError> {
        for _ in 0..self.config.horizon {
            self.step(policy)?;
        }
        Ok(self.finish())
    }

    /// The next slot index [`Engine::step`] will execute.
    pub const fn next_slot(&self) -> u64 {
        self.next_slot
    }

    /// Metrics accumulated so far (complete only after [`Engine::finish`]).
    pub const fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Jobs not yet in a terminal phase (waiting or running) — the
    /// engine's current queue depth.
    pub fn backlog(&self) -> usize {
        self.jobs.len()
    }

    /// Injects a request mid-run: it is re-identified with the next id,
    /// its arrival is clamped forward to the next slot (an injected
    /// request cannot arrive in the past), and the assigned id is
    /// returned.
    ///
    /// This is how a long-running serving loop feeds streamed arrivals
    /// into an engine whose workload was not known up front.
    pub fn inject(&mut self, request: Request) -> RequestId {
        let id = self.issue_id();
        let arrival = request.arrival_slot().max(self.next_slot);
        let request = Request::new(
            id,
            request.home(),
            arrival,
            request.duration_slots(),
            request.tasks().to_vec(),
            request.demand().clone(),
            request.deadline(),
        );
        self.jobs.push(Job::new(request));
        id
    }

    fn issue_id(&mut self) -> RequestId {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Extracts the in-flight jobs homed on `station` for a handoff: they
    /// leave this engine (finishing elsewhere) and are returned as a
    /// [`StationSlice`] in id order. Ids are never reused, so checkpoints
    /// and journals stay valid.
    pub fn extract_station(&mut self, station: StationId) -> StationSlice {
        StationSlice::take(&mut self.jobs, station)
    }

    /// Absorbs a [`StationSlice`] extracted from another engine: each job
    /// is re-identified with the next id and rehomed to `home` (a station
    /// id in *this* engine's topology), preserving all dynamic state —
    /// phase, realized demand, remaining work, first-service slot.
    /// Unlike [`Engine::inject`], arrivals are *not* clamped forward and
    /// demands already realized are not re-drawn. Returns the absorbed
    /// job count.
    pub fn absorb_station(&mut self, slice: &StationSlice, home: StationId) -> usize {
        for job in &slice.jobs {
            let id = self.issue_id();
            self.jobs.push(job.rehome(id, home));
        }
        slice.jobs.len()
    }

    /// Captures the engine's mutable state as a serializable
    /// [`EngineState`]. Pairing it with [`Engine::restore`] on an engine
    /// built over the same topology/paths/config resumes the run exactly:
    /// the continuation is bit-identical to never having stopped.
    pub fn checkpoint(&self) -> EngineState {
        EngineState {
            next_slot: self.next_slot,
            slots_run: self.slots_run,
            jobs: self.jobs.clone(),
            next_id: self.next_id,
            busy_mhz_slots: self.busy_mhz_slots.clone(),
            metrics: self.metrics.clone(),
            finished: self.finished,
            rng_word_pos: self.rng.get_word_pos(),
        }
    }

    /// Reapplies a [`checkpoint`](Engine::checkpoint): replaces every piece
    /// of mutable state, reseeds the demand RNG from `config.seed`, and
    /// fast-forwards it to the recorded stream position. The engine must
    /// have been built over the same topology, path table, and config as
    /// the one that produced the state.
    ///
    /// # Panics
    ///
    /// Panics if the state's per-station vector does not match this
    /// engine's topology size.
    pub fn restore(&mut self, state: EngineState) {
        assert_eq!(
            state.busy_mhz_slots.len(),
            self.topo.station_count(),
            "engine state is for a different topology"
        );
        self.next_slot = state.next_slot;
        self.slots_run = state.slots_run;
        self.jobs = state.jobs;
        self.next_id = state.next_id;
        self.busy_mhz_slots = state.busy_mhz_slots;
        self.metrics = state.metrics;
        self.finished = state.finished;
        self.rng = ChaCha8Rng::seed_from_u64(self.config.seed ^ 0x5bd1_e995);
        self.rng.set_word_pos(state.rng_word_pos);
    }

    /// Executes exactly one slot under `policy` and reports what happened.
    ///
    /// Unlike [`Engine::run`], stepping is not bounded by
    /// `config.horizon`: the caller owns the clock and may keep stepping
    /// (and [`Engine::inject`]-ing) for as long as it wants.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] if the policy produces an illegal
    /// schedule; the simulation cannot continue past that point.
    pub fn step<P: SlotPolicy + ?Sized>(&mut self, policy: &mut P) -> Result<SlotReport, SimError> {
        debug_assert!(!self.finished, "step() after finish()");
        let slot = self.next_slot;
        let result = self.execute(slot, policy);
        // Retire what the slot ended — even on a failed slot — so the live
        // vector never holds a terminal job between steps.
        self.jobs.retain(Job::is_live);
        let report = result?;
        self.next_slot += 1;
        self.slots_run = self.next_slot;
        Ok(report)
    }

    /// The body of [`Engine::step`]: arrivals, expiry, the policy call,
    /// validation, service and continuity enforcement for one slot.
    fn execute<P: SlotPolicy + ?Sized>(
        &mut self,
        slot: u64,
        policy: &mut P,
    ) -> Result<SlotReport, SimError> {
        let mut report = SlotReport {
            slot,
            ..SlotReport::default()
        };
        // Trace arrivals.
        if let Some(trace) = &mut self.trace {
            for job in &self.jobs {
                if job.request().arrival_slot() == slot {
                    trace.record(slot, Event::Arrived { request: job.id() });
                }
            }
        }
        // Expire waiting jobs that can no longer start anywhere in time.
        let (topo, paths, slot_ms) = (self.topo, self.paths, self.config.slot_ms);
        for job in &mut self.jobs {
            if job.phase() != Phase::Waiting || job.request().arrival_slot() > slot {
                continue;
            }
            let waiting = job.waiting_slots(slot);
            let startable = topo.station_ids().any(|s| {
                job.request()
                    .meets_deadline_at(topo, paths, s, waiting, slot_ms)
            });
            if !startable {
                job.expire();
                self.metrics.record_expired();
                report.expired += 1;
                if let Some(trace) = &mut self.trace {
                    trace.record(slot, Event::Expired { request: job.id() });
                }
            }
        }

        // Build the policy's view.
        let views: Vec<JobView<'_>> = self
            .jobs
            .iter()
            .filter(|j| j.request().arrival_slot() <= slot && j.is_live())
            .map(|job| JobView { job, now: slot })
            .collect();
        let ctx = SlotContext {
            slot,
            views,
            topo: self.topo,
            paths: self.paths,
            config: &self.config,
        };
        let allocations = policy.schedule(&ctx);
        drop(ctx);

        // Validate. `served_mb` is indexed by live position: `Some` marks
        // a job allocated this slot (and, after service, the data it
        // processed).
        let mut served_mb: Vec<Option<f64>> = vec![None; self.jobs.len()];
        let mut positions = Vec::with_capacity(allocations.len());
        let mut station_load = vec![0.0; self.busy_mhz_slots.len()];
        for a in &allocations {
            let pos = self.position(a.request)?;
            let job = &self.jobs[pos];
            if job.request().arrival_slot() > slot || !job.is_live() {
                return Err(SimError::NotSchedulable(a.request));
            }
            if served_mb[pos].replace(0.0).is_some() {
                return Err(SimError::DuplicateAllocation(a.request));
            }
            if self.paths.delay(job.request().home(), a.station).is_none() {
                return Err(SimError::Unreachable(a.request, a.station));
            }
            station_load[a.station.index()] += a.compute.as_mhz();
            positions.push(pos);
        }
        for (station, &used) in self.topo.station_ids().zip(&station_load) {
            let capacity = self.topo.station(station).capacity().as_mhz();
            if used > capacity + 1e-6 {
                return Err(SimError::CapacityExceeded {
                    station,
                    used,
                    capacity,
                });
            }
        }

        // Serve.
        let slot_s = self.config.slot_seconds();
        let mut slot_reward = 0.0;
        for (a, &pos) in allocations.iter().zip(&positions) {
            self.busy_mhz_slots[a.station.index()] += a.compute.as_mhz();
            let job = &mut self.jobs[pos];
            if job.realized().is_none() {
                let waiting = job.waiting_slots(slot);
                if !job.request().meets_deadline_at(
                    self.topo,
                    self.paths,
                    a.station,
                    waiting,
                    self.config.slot_ms,
                ) {
                    return Err(SimError::DeadlineViolated(a.request));
                }
                let outcome = job.request().demand().sample(&mut self.rng);
                job.realize(outcome, slot, a.station, slot_s);
                if let Some(trace) = &mut self.trace {
                    trace.record(
                        slot,
                        Event::Started {
                            request: a.request,
                            station: a.station,
                            rate_mbps: outcome.rate.as_mbps(),
                        },
                    );
                }
            }
            let processed_mb = (a.compute.as_mhz() / self.config.c_unit.as_mhz()) * slot_s;
            served_mb[pos] = Some(processed_mb);
            if job.process(processed_mb, slot) {
                let reward = job.realized().expect("realized on service").reward;
                let latency = job
                    .experienced_latency(self.topo, self.paths, self.config.slot_ms)
                    .expect("served jobs have latency");
                self.metrics.record_completion(reward, latency.as_ms());
                report.completed += 1;
                slot_reward += reward;
                if let Some(trace) = &mut self.trace {
                    trace.record(
                        slot,
                        Event::Completed {
                            request: a.request,
                            reward,
                        },
                    );
                }
            }
        }
        policy.observe(slot, slot_reward);
        report.completed_reward = slot_reward;

        // Sustained-service enforcement: running streams served below
        // the floor for too many consecutive slots tear down.
        if let Some(continuity) = self.config.continuity {
            for (job, got) in self.jobs.iter_mut().zip(&served_mb) {
                if job.phase() != Phase::Running {
                    continue;
                }
                let outcome = job.realized().expect("running jobs are realized");
                // Near the stream's end less than the full rate suffices.
                let required = (outcome.rate.as_mbps() * slot_s * continuity.min_fraction)
                    .min(job.remaining_mb());
                job.note_service_level(got.unwrap_or(0.0) + 1e-12 >= required);
                if job.stalled_slots() > continuity.grace_slots {
                    job.abort();
                    let latency = job
                        .experienced_latency(self.topo, self.paths, self.config.slot_ms)
                        .map(|l| l.as_ms());
                    self.metrics.record_aborted(latency);
                    report.aborted += 1;
                    if let Some(trace) = &mut self.trace {
                        trace.record(slot, Event::Aborted { request: job.id() });
                    }
                }
            }
        }
        Ok(report)
    }

    /// Ends the run: jobs still waiting are counted expired, jobs still
    /// running are counted unserved, and the final [`Metrics`] are
    /// returned. Idempotent — a second call returns the same metrics
    /// without double-counting.
    pub fn finish(&mut self) -> Metrics {
        if !self.finished {
            self.finished = true;
            for job in &self.jobs {
                if job.phase() == Phase::Running {
                    self.metrics.record_unserved(
                        job.experienced_latency(self.topo, self.paths, self.config.slot_ms)
                            .map(|l| l.as_ms()),
                    );
                } else {
                    self.metrics.record_expired();
                }
            }
        }
        self.metrics.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_topology::generator::{Shape, TopologyBuilder};
    use mec_topology::units::{DataRate, Latency};
    use mec_workload::demand::DemandDistribution;
    use mec_workload::task::Task;

    fn topo() -> Topology {
        TopologyBuilder::new(3)
            .shape(Shape::Line)
            .capacity_range(3000.0, 3000.0)
            .proc_delay_range(1.0, 1.0)
            .trans_delay_range(2.0, 2.0)
            .build()
    }

    fn request(id: usize, arrival: u64, duration: u64, rate: f64, reward: f64) -> Request {
        Request::new(
            RequestId(id),
            0.into(),
            arrival,
            duration,
            Task::reference_pipeline(),
            DemandDistribution::deterministic(DataRate::mbps(rate), reward),
            Latency::ms(200.0),
        )
    }

    /// Serves everything at the home station with whatever fits.
    struct GreedyHome;
    impl SlotPolicy for GreedyHome {
        fn schedule(&mut self, ctx: &SlotContext<'_>) -> Vec<Allocation> {
            let mut out = Vec::new();
            let mut left = ctx.topo.station(0.into()).capacity();
            for v in &ctx.views {
                if !v.schedulable() {
                    continue;
                }
                let need = v.rate_estimate().demand(ctx.config.c_unit);
                let give = need.min(left);
                if give.is_positive() {
                    out.push(Allocation {
                        request: v.job.id(),
                        station: 0.into(),
                        compute: give,
                    });
                    left -= give;
                }
            }
            out
        }
        fn name(&self) -> &str {
            "greedy-home"
        }
    }

    #[test]
    fn single_job_completes_on_schedule() {
        let topo = topo();
        let paths = topo.shortest_paths();
        // 40 MB/s for 10 slots of 0.05 s = 20 MB total; at 40 MB/s service
        // (800 MHz / 20), each slot processes 2 MB → 10 slots.
        let reqs = vec![request(0, 0, 10, 40.0, 500.0)];
        let mut engine = Engine::new(&topo, &paths, reqs, SlotConfig::default());
        engine.enable_trace(16);
        let metrics = engine.run(&mut GreedyHome).unwrap();
        assert_eq!(metrics.completed(), 1);
        assert_eq!(metrics.total_reward(), 500.0);
        let completed = engine
            .trace()
            .unwrap()
            .events()
            .iter()
            .find(|e| matches!(e.event, Event::Completed { .. }))
            .unwrap();
        assert_eq!(completed.slot, 9);
        assert!(engine.jobs().is_empty(), "the completed job retired");
        // Latency: 0 waiting, 0 transmission (home), 5.5 ms processing.
        assert!((metrics.avg_latency_ms() - 5.5).abs() < 1e-9);
    }

    #[test]
    fn capacity_shared_across_jobs() {
        let topo = topo();
        let paths = topo.shortest_paths();
        // 5 jobs of 40 MB/s = 4000 MHz demand > 3000 capacity; greedy-home
        // starts four (2400 + 600 MHz) and starves the fifth, which expires
        // once its 200 ms (4 slot) deadline can no longer be met.
        let reqs: Vec<Request> = (0..5).map(|i| request(i, 0, 10, 40.0, 100.0)).collect();
        let cfg = SlotConfig {
            horizon: 100,
            ..Default::default()
        };
        let mut engine = Engine::new(&topo, &paths, reqs, cfg);
        let metrics = engine.run(&mut GreedyHome).unwrap();
        assert_eq!(metrics.completed(), 4);
        assert_eq!(metrics.expired(), 1);
        assert_eq!(metrics.total_reward(), 400.0);
    }

    #[test]
    fn over_capacity_rejected() {
        struct OverCommit;
        impl SlotPolicy for OverCommit {
            fn schedule(&mut self, ctx: &SlotContext<'_>) -> Vec<Allocation> {
                ctx.views
                    .iter()
                    .map(|v| Allocation {
                        request: v.job.id(),
                        station: 0.into(),
                        compute: Compute::mhz(2000.0),
                    })
                    .collect()
            }
        }
        let topo = topo();
        let paths = topo.shortest_paths();
        let reqs: Vec<Request> = (0..2).map(|i| request(i, 0, 10, 40.0, 100.0)).collect();
        let mut engine = Engine::new(&topo, &paths, reqs, SlotConfig::default());
        let err = engine.run(&mut OverCommit).unwrap_err();
        assert!(matches!(err, SimError::CapacityExceeded { .. }));
    }

    #[test]
    fn capacity_error_names_lowest_over_committed_station() {
        // Over-commits stations 2 and 1 (in that allocation order); the
        // error must name station 1 every time.
        struct OverCommitTwo;
        impl SlotPolicy for OverCommitTwo {
            fn schedule(&mut self, ctx: &SlotContext<'_>) -> Vec<Allocation> {
                ctx.views
                    .iter()
                    .zip([2, 1])
                    .map(|(v, s)| Allocation {
                        request: v.job.id(),
                        station: s.into(),
                        compute: Compute::mhz(3500.0),
                    })
                    .collect()
            }
        }
        let topo = topo();
        let paths = topo.shortest_paths();
        for _ in 0..8 {
            let reqs: Vec<Request> = (0..2).map(|i| request(i, 0, 10, 40.0, 100.0)).collect();
            let mut engine = Engine::new(&topo, &paths, reqs, SlotConfig::default());
            assert_eq!(
                engine.step(&mut OverCommitTwo).unwrap_err(),
                SimError::CapacityExceeded {
                    station: 1.into(),
                    used: 3500.0,
                    capacity: 3000.0,
                }
            );
        }
    }

    /// Allocates to a fixed request id from slot `at` on.
    struct Target {
        id: RequestId,
        at: u64,
    }
    impl SlotPolicy for Target {
        fn schedule(&mut self, ctx: &SlotContext<'_>) -> Vec<Allocation> {
            if ctx.slot < self.at {
                return GreedyHome.schedule(ctx);
            }
            vec![Allocation {
                request: self.id,
                station: 0.into(),
                compute: Compute::mhz(100.0),
            }]
        }
    }

    #[test]
    fn allocation_to_retired_job_not_schedulable() {
        let topo = topo();
        let paths = topo.shortest_paths();
        // The 10-slot job completes (and retires) at slot 9.
        let reqs = vec![request(0, 0, 10, 40.0, 500.0)];
        let mut engine = Engine::new(&topo, &paths, reqs, SlotConfig::default());
        let mut policy = Target {
            id: RequestId(0),
            at: 10,
        };
        for _ in 0..10 {
            engine.step(&mut policy).unwrap();
        }
        assert!(engine.job(RequestId(0)).is_none(), "retired");
        assert_eq!(
            engine.step(&mut policy).unwrap_err(),
            SimError::NotSchedulable(RequestId(0))
        );
    }

    #[test]
    fn allocation_to_unissued_id_unknown() {
        let topo = topo();
        let paths = topo.shortest_paths();
        let reqs = vec![request(0, 0, 10, 40.0, 500.0)];
        let mut engine = Engine::new(&topo, &paths, reqs, SlotConfig::default());
        assert_eq!(engine.checkpoint().next_id, 1);
        let mut policy = Target {
            id: RequestId(1),
            at: 0,
        };
        assert_eq!(
            engine.step(&mut policy).unwrap_err(),
            SimError::UnknownRequest(RequestId(1))
        );
    }

    #[test]
    fn drained_trace_is_empty_and_keeps_recording() {
        let topo = topo();
        let paths = topo.shortest_paths();
        let reqs = vec![request(0, 0, 10, 40.0, 500.0)];
        let mut engine = Engine::new(&topo, &paths, reqs, SlotConfig::default());
        engine.enable_trace(4);
        let mut seen = Vec::new();
        for _ in 0..12 {
            engine.step(&mut GreedyHome).unwrap();
            seen.extend(engine.drain_trace().map(|e| (e.slot, e.event)));
            assert!(engine.trace().unwrap().events().is_empty());
        }
        assert_eq!(engine.trace().unwrap().dropped(), 0);
        let slots: Vec<u64> = seen.iter().map(|(slot, _)| *slot).collect();
        assert_eq!(slots, [0, 0, 9], "arrive, start, complete");
        // Without tracing there is nothing to drain.
        let mut quiet = Engine::new(&topo, &paths, Vec::new(), SlotConfig::default());
        assert_eq!(quiet.drain_trace().count(), 0);
    }

    #[test]
    fn duplicate_allocation_rejected() {
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
        }
        let topo = topo();
        let paths = topo.shortest_paths();
        let reqs = vec![request(0, 0, 10, 40.0, 100.0)];
        let mut engine = Engine::new(&topo, &paths, reqs, SlotConfig::default());
        assert_eq!(
            engine.run(&mut Duplicator).unwrap_err(),
            SimError::DuplicateAllocation(RequestId(0))
        );
    }

    #[test]
    fn waiting_too_long_expires() {
        struct Idle;
        impl SlotPolicy for Idle {
            fn schedule(&mut self, _ctx: &SlotContext<'_>) -> Vec<Allocation> {
                Vec::new()
            }
        }
        let topo = topo();
        let paths = topo.shortest_paths();
        // Deadline 200 ms = 4 slots of 50 ms; after 4 waiting slots even the
        // home station (5.5 ms proc) is infeasible.
        let reqs = vec![request(0, 0, 10, 40.0, 100.0)];
        let cfg = SlotConfig {
            horizon: 20,
            ..Default::default()
        };
        let mut engine = Engine::new(&topo, &paths, reqs, cfg);
        engine.enable_trace(16);
        let metrics = engine.run(&mut Idle).unwrap();
        assert_eq!(metrics.expired(), 1);
        assert_eq!(metrics.completed(), 0);
        assert!(engine.trace().unwrap().events().iter().any(|e| e.event
            == Event::Expired {
                request: RequestId(0)
            }));
        assert!(engine.jobs().is_empty(), "the expired job retired");
    }

    #[test]
    fn late_first_service_violating_deadline_is_error() {
        struct LateStart {
            started: bool,
        }
        impl SlotPolicy for LateStart {
            fn schedule(&mut self, ctx: &SlotContext<'_>) -> Vec<Allocation> {
                // Try to start the job on slot 3 at the far station, whose
                // round-trip transmission blows the budget.
                if ctx.slot == 3 && !self.started {
                    self.started = true;
                    ctx.views
                        .iter()
                        .map(|v| Allocation {
                            request: v.job.id(),
                            station: 2.into(),
                            compute: Compute::mhz(100.0),
                        })
                        .collect()
                } else {
                    Vec::new()
                }
            }
        }
        let topo = topo();
        let paths = topo.shortest_paths();
        // Tight deadline: 160 ms. After 3 slots (150 ms) + 8 ms round trip
        // + 5.5 ms processing = 163.5 ms > 160 ms.
        let mut req = request(0, 0, 10, 40.0, 100.0);
        req = Request::new(
            req.id(),
            req.home(),
            req.arrival_slot(),
            req.duration_slots(),
            req.tasks().to_vec(),
            req.demand().clone(),
            Latency::ms(160.0),
        );
        let mut engine = Engine::new(&topo, &paths, vec![req], SlotConfig::default());
        let err = engine.run(&mut LateStart { started: false }).unwrap_err();
        assert_eq!(err, SimError::DeadlineViolated(RequestId(0)));
    }

    #[test]
    fn unfinished_jobs_counted_unserved() {
        let topo = topo();
        let paths = topo.shortest_paths();
        // Horizon too short to finish: 40 MB/s × 100 slots = 200 MB of work,
        // horizon 5 slots.
        let reqs = vec![request(0, 0, 100, 40.0, 100.0)];
        let cfg = SlotConfig {
            horizon: 5,
            ..Default::default()
        };
        let mut engine = Engine::new(&topo, &paths, reqs, cfg);
        let metrics = engine.run(&mut GreedyHome).unwrap();
        assert_eq!(metrics.completed(), 0);
        assert_eq!(metrics.unserved(), 1);
        assert_eq!(metrics.total_reward(), 0.0);
    }

    #[test]
    fn arrivals_respected() {
        let topo = topo();
        let paths = topo.shortest_paths();
        let reqs = vec![request(0, 5, 10, 40.0, 100.0)];
        let cfg = SlotConfig {
            horizon: 40,
            ..Default::default()
        };
        let mut engine = Engine::new(&topo, &paths, reqs, cfg);
        engine.enable_trace(16);
        let metrics = engine.run(&mut GreedyHome).unwrap();
        assert_eq!(metrics.completed(), 1);
        // First service at slot 5 (arrival), zero waiting.
        let started = engine
            .trace()
            .unwrap()
            .events()
            .iter()
            .find(|e| matches!(e.event, Event::Started { .. }))
            .unwrap();
        assert_eq!(started.slot, 5);
        assert!((metrics.avg_latency_ms() - 5.5).abs() < 1e-9);
    }

    #[test]
    fn continuity_aborts_starved_streams() {
        use crate::Continuity;
        // Serves full demand for 3 slots, then stops entirely.
        struct Flaky;
        impl SlotPolicy for Flaky {
            fn schedule(&mut self, ctx: &SlotContext<'_>) -> Vec<Allocation> {
                if ctx.slot >= 3 {
                    return Vec::new();
                }
                ctx.views
                    .iter()
                    .map(|v| Allocation {
                        request: v.job.id(),
                        station: 0.into(),
                        compute: Compute::mhz(800.0),
                    })
                    .collect()
            }
        }
        let topo = topo();
        let paths = topo.shortest_paths();
        let reqs = vec![request(0, 0, 60, 40.0, 500.0)];
        let cfg = SlotConfig {
            horizon: 30,
            continuity: Some(Continuity {
                min_fraction: 0.5,
                grace_slots: 2,
            }),
            ..Default::default()
        };
        let mut engine = Engine::new(&topo, &paths, reqs.clone(), cfg);
        engine.enable_trace(50);
        let metrics = engine.run(&mut Flaky).unwrap();
        assert_eq!(metrics.aborted(), 1);
        assert_eq!(metrics.completed(), 0);
        assert_eq!(metrics.total_reward(), 0.0);
        assert!(engine.jobs().is_empty(), "the aborted job retired");
        // Stall starts at slot 3; grace 2 → abort after slot 5.
        assert!(engine.trace().unwrap().events().iter().any(|e| e.event
            == Event::Aborted {
                request: RequestId(0)
            }
            && e.slot == 5));

        // Without the requirement, the same policy merely leaves the job
        // unserved.
        let cfg_off = SlotConfig {
            horizon: 30,
            ..Default::default()
        };
        let mut engine = Engine::new(&topo, &paths, reqs, cfg_off);
        let metrics = engine.run(&mut Flaky).unwrap();
        assert_eq!(metrics.aborted(), 0);
        assert_eq!(metrics.unserved(), 1);
    }

    #[test]
    fn continuity_tolerates_tail_underrun() {
        use crate::Continuity;
        // Grants exactly the realized demand each slot: the final slot
        // needs less than the full rate, which must not count as a stall.
        let topo = topo();
        let paths = topo.shortest_paths();
        let reqs = vec![request(0, 0, 10, 40.0, 500.0)];
        let cfg = SlotConfig {
            horizon: 30,
            continuity: Some(Continuity {
                min_fraction: 1.0,
                grace_slots: 0,
            }),
            ..Default::default()
        };
        let mut engine = Engine::new(&topo, &paths, reqs, cfg);
        let metrics = engine.run(&mut GreedyHome).unwrap();
        assert_eq!(metrics.aborted(), 0);
        assert_eq!(metrics.completed(), 1);
    }

    #[test]
    fn trace_records_lifecycle() {
        let topo = topo();
        let paths = topo.shortest_paths();
        let reqs = vec![request(0, 2, 10, 40.0, 500.0)];
        let cfg = SlotConfig {
            horizon: 30,
            ..Default::default()
        };
        let mut engine = Engine::new(&topo, &paths, reqs, cfg);
        engine.enable_trace(100);
        let _ = engine.run(&mut GreedyHome).unwrap();
        let trace = engine.trace().unwrap();
        let kinds: Vec<&Event> = trace.events().iter().map(|e| &e.event).collect();
        assert!(matches!(kinds[0], Event::Arrived { .. }));
        assert!(matches!(kinds[1], Event::Started { .. }));
        assert!(matches!(kinds[2], Event::Completed { .. }));
        assert_eq!(trace.events()[0].slot, 2);
        // Untouched engines have no trace.
        let mut quiet = Engine::new(&topo, &paths, vec![request(0, 0, 5, 40.0, 1.0)], cfg);
        let _ = quiet.run(&mut GreedyHome).unwrap();
        assert!(quiet.trace().is_none());
    }

    #[test]
    fn utilization_tracked() {
        let topo = topo();
        let paths = topo.shortest_paths();
        let reqs = vec![request(0, 0, 10, 40.0, 500.0)];
        let cfg = SlotConfig {
            horizon: 10,
            ..Default::default()
        };
        let mut engine = Engine::new(&topo, &paths, reqs, cfg);
        assert_eq!(engine.avg_utilization(), 0.0);
        let _ = engine.run(&mut GreedyHome).unwrap();
        let util = engine.utilization();
        // One 800 MHz job on station 0 (3000 MHz) for all 10 slots.
        assert!((util[0] - 800.0 / 3000.0).abs() < 1e-9, "{util:?}");
        assert_eq!(util[1], 0.0);
        assert!(engine.avg_utilization() > 0.0);
        assert!(engine.avg_utilization() < util[0]);
    }

    #[test]
    fn step_matches_run() {
        let topo = topo();
        let paths = topo.shortest_paths();
        let mk = || {
            let reqs: Vec<Request> = (0..4).map(|i| request(i, 0, 10, 40.0, 100.0)).collect();
            Engine::new(&topo, &paths, reqs, SlotConfig::default())
        };
        let batch = mk().run(&mut GreedyHome).unwrap();
        let mut engine = mk();
        for _ in 0..SlotConfig::default().horizon {
            engine.step(&mut GreedyHome).unwrap();
        }
        let stepped = engine.finish();
        assert_eq!(batch, stepped);
        // finish() is idempotent.
        assert_eq!(engine.finish(), stepped);
    }

    #[test]
    fn step_reports_per_slot_outcomes() {
        let topo = topo();
        let paths = topo.shortest_paths();
        // 40 MB/s for 10 slots → completes exactly at slot 9.
        let reqs = vec![request(0, 0, 10, 40.0, 500.0)];
        let mut engine = Engine::new(&topo, &paths, reqs, SlotConfig::default());
        for slot in 0..10 {
            let report = engine.step(&mut GreedyHome).unwrap();
            assert_eq!(report.slot, slot);
            if slot < 9 {
                assert_eq!(report.completed, 0);
                assert_eq!(report.completed_reward, 0.0);
            } else {
                assert_eq!(report.completed, 1);
                assert_eq!(report.completed_reward, 500.0);
            }
        }
        assert_eq!(engine.backlog(), 0);
        assert_eq!(engine.metrics().completed(), 1);
    }

    #[test]
    fn inject_streams_arrivals_mid_run() {
        let topo = topo();
        let paths = topo.shortest_paths();
        // Start with an empty workload; requests arrive while stepping.
        let mut engine = Engine::new(&topo, &paths, Vec::new(), SlotConfig::default());
        assert_eq!(engine.backlog(), 0);
        let mut injected = 0;
        for slot in 0..40u64 {
            if slot == 3 || slot == 7 {
                // Template carries a stale id and a past arrival; inject
                // re-identifies and clamps.
                let id = engine.inject(request(0, 0, 10, 40.0, 250.0));
                assert_eq!(id.index(), injected, "ids issue in inject order");
                injected += 1;
                assert_eq!(
                    engine.job(id).unwrap().request().arrival_slot(),
                    slot,
                    "arrival clamps to the injection slot"
                );
            }
            engine.step(&mut GreedyHome).unwrap();
        }
        let metrics = engine.finish();
        assert_eq!(metrics.completed(), 2);
        assert_eq!(metrics.total_reward(), 500.0);
    }

    #[test]
    fn stepping_past_horizon_allowed() {
        let topo = topo();
        let paths = topo.shortest_paths();
        let cfg = SlotConfig {
            horizon: 5,
            ..Default::default()
        };
        // 10-slot job, 5-slot horizon: run() leaves it unserved, but an
        // external clock may keep stepping to completion.
        let reqs = vec![request(0, 0, 10, 40.0, 100.0)];
        let mut engine = Engine::new(&topo, &paths, reqs, cfg);
        for _ in 0..10 {
            engine.step(&mut GreedyHome).unwrap();
        }
        assert_eq!(engine.next_slot(), 10);
        assert_eq!(engine.finish().completed(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let topo = topo();
        let paths = topo.shortest_paths();
        let mk = || {
            let reqs: Vec<Request> = (0..4).map(|i| request(i, 0, 10, 40.0, 100.0)).collect();
            Engine::new(&topo, &paths, reqs, SlotConfig::default())
        };
        let m1 = mk().run(&mut GreedyHome).unwrap();
        let m2 = mk().run(&mut GreedyHome).unwrap();
        assert_eq!(m1, m2);
    }

    #[test]
    fn checkpoint_restore_round_trips() {
        let topo = topo();
        let paths = topo.shortest_paths();
        let reqs: Vec<Request> = (0..4).map(|i| request(i, 0, 10, 40.0, 100.0)).collect();
        let mut engine = Engine::new(&topo, &paths, reqs, SlotConfig::default());
        for _ in 0..5 {
            engine.step(&mut GreedyHome).unwrap();
        }
        let state = engine.checkpoint();
        let mut clone = Engine::new(&topo, &paths, Vec::new(), SlotConfig::default());
        clone.restore(state.clone());
        assert_eq!(clone.checkpoint(), state, "restore must be lossless");
    }

    #[test]
    fn restored_engine_continues_identically() {
        let topo = topo();
        let paths = topo.shortest_paths();
        let mk_reqs =
            || -> Vec<Request> { (0..6).map(|i| request(i, 0, 10, 40.0, 100.0)).collect() };
        // Reference run: straight through.
        let mut reference = Engine::new(&topo, &paths, mk_reqs(), SlotConfig::default());
        for _ in 0..20 {
            reference.step(&mut GreedyHome).unwrap();
        }
        // Checkpointed run: step 7 slots, checkpoint, restore into a fresh
        // engine, inject a mid-run request in both, and keep stepping.
        let mut original = Engine::new(&topo, &paths, mk_reqs(), SlotConfig::default());
        for _ in 0..7 {
            original.step(&mut GreedyHome).unwrap();
        }
        let state = original.checkpoint();
        let mut resumed = Engine::new(&topo, &paths, Vec::new(), SlotConfig::default());
        resumed.restore(state);
        for _ in 7..20 {
            let a = original.step(&mut GreedyHome).unwrap();
            let b = resumed.step(&mut GreedyHome).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(original.finish(), resumed.finish());
        assert_eq!(resumed.finish(), reference.finish());
    }

    #[test]
    fn restore_replays_rng_stream_position() {
        // Demands realize from the RNG; a checkpoint taken after some
        // realizations must resume the stream, not restart it.
        use mec_workload::demand::{DemandDistribution, DemandOutcome};
        let topo = topo();
        let paths = topo.shortest_paths();
        let two_level = DemandDistribution::new(vec![
            DemandOutcome {
                rate: DataRate::mbps(20.0),
                prob: 0.5,
                reward: 50.0,
            },
            DemandOutcome {
                rate: DataRate::mbps(40.0),
                prob: 0.5,
                reward: 100.0,
            },
        ])
        .unwrap();
        let uncertain = |id: usize, arrival: u64| {
            Request::new(
                RequestId(id),
                0.into(),
                arrival,
                5,
                Task::reference_pipeline(),
                two_level.clone(),
                Latency::ms(500.0),
            )
        };
        let reqs: Vec<Request> = (0..4).map(|i| uncertain(i, i as u64)).collect();
        let mut original = Engine::new(&topo, &paths, reqs, SlotConfig::default());
        for _ in 0..2 {
            original.step(&mut GreedyHome).unwrap();
        }
        let state = original.checkpoint();
        assert!(state.rng_word_pos > 0, "realizations consumed RNG words");
        let mut resumed = Engine::new(&topo, &paths, Vec::new(), SlotConfig::default());
        resumed.restore(state);
        for _ in 2..30 {
            let a = original.step(&mut GreedyHome).unwrap();
            let b = resumed.step(&mut GreedyHome).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(original.finish(), resumed.finish());
    }

    #[test]
    fn genesis_state_matches_fresh_engine() {
        let topo = topo();
        let paths = topo.shortest_paths();
        let fresh = Engine::new(&topo, &paths, Vec::new(), SlotConfig::default());
        assert_eq!(
            fresh.checkpoint(),
            EngineState::genesis(topo.station_count())
        );
    }

    #[test]
    fn extract_station_moves_only_active_jobs_and_preserves_state() {
        let topo = topo();
        let paths = topo.shortest_paths();
        // Two jobs homed on station 0; run a few slots so both realize.
        let reqs: Vec<Request> = (0..2).map(|i| request(i, 0, 10, 40.0, 100.0)).collect();
        let mut engine = Engine::new(&topo, &paths, reqs, SlotConfig::default());
        for _ in 0..3 {
            engine.step(&mut GreedyHome).unwrap();
        }
        let before_remaining = engine.jobs()[0].remaining_mb();
        let slice = engine.extract_station(0.into());
        assert_eq!(slice.len(), 2);
        assert_eq!(slice.station, StationId::from(0));
        assert!(engine.jobs().is_empty(), "extracted jobs leave the engine");
        assert_eq!(engine.backlog(), 0);
        // The clone keeps realized demand and remaining work.
        assert_eq!(slice.jobs[0].remaining_mb(), before_remaining);
        assert_eq!(slice.jobs[0].phase(), Phase::Running);
        // A second extract finds nothing left.
        assert!(engine.extract_station(0.into()).is_empty());
        // finish() books nothing for extracted jobs.
        let m = engine.finish();
        assert_eq!(m.completed() + m.expired() + m.unserved() + m.aborted(), 0);
    }

    #[test]
    fn absorb_station_continues_jobs_with_new_home() {
        let topo = topo();
        let paths = topo.shortest_paths();
        let reqs: Vec<Request> = (0..2).map(|i| request(i, 0, 10, 40.0, 100.0)).collect();
        let mut source = Engine::new(&topo, &paths, reqs, SlotConfig::default());
        for _ in 0..3 {
            source.step(&mut GreedyHome).unwrap();
        }
        let slice = source.extract_station(0.into());

        // The takeover engine already holds one unrelated job, so absorbed
        // ids must start after it.
        let mut take = Engine::new(
            &topo,
            &paths,
            vec![request(0, 0, 10, 40.0, 50.0)],
            SlotConfig::default(),
        );
        for _ in 0..3 {
            take.step(&mut GreedyHome).unwrap();
        }
        let absorbed = take.absorb_station(&slice, 0.into());
        assert_eq!(absorbed, 2);
        let jobs = take.jobs();
        assert_eq!(jobs.len(), 3);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id().index(), i, "absorbed ids continue the sequence");
        }
        let moved = &jobs[1];
        assert_eq!(moved.phase(), Phase::Running);
        assert_eq!(moved.first_station(), Some(0.into()), "rehomed");
        assert_eq!(moved.realized(), slice.jobs[0].realized());
        assert_eq!(moved.remaining_mb(), slice.jobs[0].remaining_mb());
        // The absorbed jobs run to completion at the new home.
        for _ in 0..20 {
            take.step(&mut GreedyHome).unwrap();
        }
        let m = take.finish();
        assert_eq!(m.completed(), 3);
    }

    #[test]
    fn split_station_partitions_checkpoint() {
        let topo = topo();
        let paths = topo.shortest_paths();
        let reqs: Vec<Request> = (0..3).map(|i| request(i, 0, 10, 40.0, 100.0)).collect();
        let mut engine = Engine::new(&topo, &paths, reqs, SlotConfig::default());
        for _ in 0..2 {
            engine.step(&mut GreedyHome).unwrap();
        }
        let mut state = engine.checkpoint();
        let slice = state.split_station(0.into());
        assert_eq!(slice.len(), 3);
        assert!(state.jobs.is_empty(), "split jobs leave the checkpoint");
        assert_eq!(state.next_id, 3, "ids are never reissued");
        // Splitting the live engine at the same point yields the same
        // slice and the same residual state.
        let live = engine.extract_station(0.into());
        assert_eq!(live, slice);
        assert_eq!(engine.checkpoint(), state);
    }

    #[test]
    #[should_panic(expected = "different topology")]
    fn restore_rejects_mismatched_topology() {
        let small = TopologyBuilder::new(2).shape(Shape::Line).build();
        let small_paths = small.shortest_paths();
        let mut engine = Engine::new(&small, &small_paths, Vec::new(), SlotConfig::default());
        engine.restore(EngineState::genesis(5));
    }
}
