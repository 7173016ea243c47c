//! Shard actors: one thread per shard, each owning a private
//! [`mec_sim::Engine`] plus a boxed policy, driven over channels.
//!
//! Each worker is an actor with a bounded command mailbox and a shared
//! progress plane. The coordinator feeds any number of
//! [`ShardCommand::Inject`]s (slot-stamped by construction: injections for
//! slot `t` always precede the grant covering `t`, and the mailbox is
//! FIFO), then extends the shard's run-ahead lease with
//! [`ShardCommand::Grant`]. The worker executes every leased slot
//! back-to-back, streaming one [`ShardEvent::Tick`] per slot onto the
//! progress channel — it never waits for the coordinator between slots of
//! the same grant, which is what removes the per-slot barrier. A policy
//! error during a live tick becomes a [`ShardEvent::Error`]; an abnormal
//! thread death (chaos crash, engine panic) becomes a
//! [`ShardEvent::Died`] sent by the spawn wrapper. Synchronous
//! request/reply traffic (station extraction, recovery, finish) stays on
//! the per-shard reply channel.
//!
//! ## Recovery and chaos
//!
//! A worker can be spawned with a [`RecoverPlan`]: it restores the engine
//! from a checkpointed [`EngineState`], replays journaled arrivals slot by
//! slot through the catch-up horizon, and answers with a single
//! [`ShardReply::Recovered`] before entering the normal command loop. It
//! can also be *armed* with scripted [`ShardFault`]s that fire when the
//! matching live tick executes — crash (panic), stall (stop replying
//! without exiting), or slow (sleep before the tick). Faults never fire
//! during catch-up replay, so a consumed fault cannot re-kill the shard it
//! already killed. The coordinator never leases slots at or beyond a
//! scripted fault until the fault's own slot is reached, so faults fire at
//! exactly the slot the lockstep protocol would have fired them.

use crate::chaos::{FaultKind, ShardFault};
use crate::obs::StallProbe;
use crate::partition::ShardPlan;
use mec_obs::{Histogram, TraceRing};
use mec_sim::{
    Engine, EngineState, Metrics, PolicyTelemetry, SlotConfig, SlotPolicy, SlotReport, StationSlice,
};
use mec_topology::StationId;
use mec_workload::request::Request;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvError, RecvTimeoutError, SendError, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What the driver sends a shard worker.
#[derive(Debug)]
pub enum ShardCommand {
    /// Feed one admitted (already shard-localized) request to the engine.
    Inject(Request),
    /// Clone this shard-local station's in-flight jobs into a
    /// [`StationSlice`], mark the originals migrated, and reply with
    /// [`ShardReply::Extracted`]. The drain/leave handoff path: only the
    /// drained station's state moves, never the whole engine.
    ExtractStation(StationId),
    /// Continue the jobs in a slice extracted elsewhere, re-homed onto the
    /// given shard-local station. No reply (like [`ShardCommand::Inject`]).
    /// The third field carries the global request id of each job in slice
    /// order, so lifecycle tracking survives the engine re-identifying the
    /// absorbed jobs (empty when lifecycle tracing is off).
    AbsorbStation(Box<StationSlice>, StationId, Vec<u64>),
    /// Extend the shard's run-ahead lease: execute every slot up to and
    /// including `through`, streaming one [`ShardEvent::Tick`] per slot on
    /// the progress channel. Grants are cumulative — a later grant only
    /// ever extends the lease; slots already executed are skipped.
    Grant {
        /// Last slot (inclusive) the worker may execute.
        through: u64,
    },
    /// Flush terminal accounting, reply with [`ShardReply::Final`], stop.
    Finish,
}

/// Per-tick report from one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardTick {
    /// The reporting shard.
    pub shard: usize,
    /// What happened in the slot just executed.
    pub report: SlotReport,
    /// Waiting + running jobs after the slot — the queue depth admission
    /// control tracks.
    pub backlog: usize,
    /// Cumulative reward collected by this shard.
    pub total_reward: f64,
    /// Cumulative completed count.
    pub completed: usize,
    /// Cumulative expired count.
    pub expired: usize,
    /// Cumulative aborted count.
    pub aborted: usize,
    /// Latency samples recorded since the previous tick, in ms.
    pub new_latencies: Vec<f64>,
    /// Engine checkpoint taken right after this slot, when the worker was
    /// spawned with a nonzero checkpoint interval and this slot completes
    /// an interval. The supervisor adopts it as the shard's recovery base.
    pub checkpoint: Option<EngineState>,
    /// Learner-internals snapshot, attached when the worker was spawned
    /// with a nonzero telemetry interval, this slot completes an
    /// interval, and the policy exposes telemetry (only learning policies
    /// do). Boxed: it rides in every tick reply but is rarely populated.
    pub telemetry: Option<Box<PolicyTelemetry>>,
    /// Arm-lifecycle events recorded by the policy's learner probe since
    /// the previous tick. Empty unless the worker was spawned with
    /// `probe` set and the policy implements a learner.
    pub learner_events: Vec<mec_sim::LearnerEvent>,
    /// Probe events the policy's bounded recorder dropped (ring
    /// saturation) since the previous tick. Zero unless probing.
    pub probe_dropped: u64,
    /// Compact snapshot of the decision the policy took this slot, for
    /// the flight recorder. `None` unless probing (or the policy is not
    /// a learner).
    pub decision: Option<mec_sim::DecisionRecord>,
}

/// Terminal report from one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardFinal {
    /// The reporting shard.
    pub shard: usize,
    /// The shard engine's complete metrics.
    pub metrics: Metrics,
}

/// First reply of a worker spawned with a [`RecoverPlan`]: the state it
/// reached after restoring the checkpoint and replaying the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRecovered {
    /// The reporting shard.
    pub shard: usize,
    /// Queue depth after catch-up.
    pub backlog: usize,
    /// Cumulative reward after catch-up.
    pub total_reward: f64,
    /// Cumulative completed count after catch-up.
    pub completed: usize,
    /// Cumulative expired count after catch-up.
    pub expired: usize,
    /// Cumulative aborted count after catch-up.
    pub aborted: usize,
    /// *All* latency samples recorded so far (the driver replaces its
    /// per-shard sample set wholesale — deltas from before the crash are
    /// unreliable).
    pub latencies: Vec<f64>,
    /// Journal entries re-injected during catch-up.
    pub replayed: u64,
}

/// What a shard worker sends back on its synchronous reply channel.
/// Per-slot progress rides the shared [`ShardProgress`] channel instead.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum ShardReply {
    /// Answer to [`ShardCommand::Finish`]; the worker exits after this.
    Final(ShardFinal),
    /// First reply after a spawn with a [`RecoverPlan`] — sent before any
    /// command is consumed.
    Recovered(ShardRecovered),
    /// Answer to [`ShardCommand::ExtractStation`]: the drained station's
    /// in-flight jobs, ready to ship to the takeover shard, plus the
    /// global request id of each job in slice order (empty when lifecycle
    /// tracing is off).
    Extracted(Box<StationSlice>, Vec<u64>),
    /// The policy produced an illegal schedule during catch-up replay; the
    /// worker exits after this and ignores further commands. (Live-tick
    /// errors travel as [`ShardEvent::Error`] on the progress channel.)
    Error(String),
}

/// Asynchronous per-shard progress on the shared watermark plane.
///
/// `Tick` dwarfs the other variants (its telemetry vectors' inline
/// headers add up), but exactly one event per shard per slot crosses
/// the channel — boxing it would cost an allocation per tick to save
/// nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ShardEvent {
    /// One leased slot executed; carries that slot's full report.
    Tick(ShardTick),
    /// The policy produced an illegal schedule at a live tick; the worker
    /// exits after sending this.
    Error(String),
    /// The worker thread terminated abnormally (panic). Sent by the spawn
    /// wrapper, never by the worker body, so it always follows every tick
    /// the worker managed to stream before dying.
    Died,
}

/// Envelope for [`ShardEvent`]s on the shared progress channel: the
/// coordinator folds ticks in shard order at each watermark and uses the
/// spawn generation to drop events from stale incarnations (a restarted
/// shard reuses the same channel).
#[derive(Debug)]
pub struct ShardProgress {
    /// The reporting shard.
    pub shard: usize,
    /// Spawn generation of the worker that sent this (0 for the initial
    /// spawn, +1 per restart).
    pub gen: u64,
    /// What happened.
    pub event: ShardEvent,
}

/// One handoff operation a shard participated in, recorded by the
/// supervisor so catch-up replay can re-apply it at the top of the same
/// slot it originally executed in. Without these, a restarted shard would
/// either resurrect jobs it handed away (missing extract) or lose jobs it
/// took over (missing absorb).
#[derive(Debug, Clone, PartialEq)]
pub enum HandoffEvent {
    /// Re-extract this shard-local station's in-flight jobs at the top of
    /// `slot` (the slice is discarded — the takeover shard replays its own
    /// [`HandoffEvent::Absorb`], which carries the original slice).
    Extract {
        /// Slot the extraction originally executed in.
        slot: u64,
        /// Shard-local station that was drained.
        station: StationId,
    },
    /// Re-absorb `slice` onto shard-local station `home` at the top of
    /// `slot`.
    Absorb {
        /// Slot the absorption originally executed in.
        slot: u64,
        /// The extracted jobs, verbatim as originally shipped.
        slice: Box<StationSlice>,
        /// Shard-local takeover station the jobs were re-homed onto.
        home: StationId,
        /// Global request ids in slice order, as originally shipped
        /// (empty when lifecycle tracing is off).
        ids: Vec<u64>,
    },
}

impl HandoffEvent {
    /// The slot this event executes at the top of.
    pub fn slot(&self) -> u64 {
        match self {
            Self::Extract { slot, .. } | Self::Absorb { slot, .. } => *slot,
        }
    }
}

/// How a restarted worker catches back up to the fleet.
#[derive(Debug, Clone)]
pub struct RecoverPlan {
    /// The engine state to restore before replaying. Genesis state replays
    /// the whole run (exact for every policy); a periodic checkpoint
    /// replays only the tail (exact for stateless policies).
    pub base: EngineState,
    /// Journaled `(admission slot, localized request)` pairs with slot
    /// `>= base.next_slot`, in admission order.
    pub journal: Vec<(u64, Request)>,
    /// Handoff operations to re-apply during catch-up, ordered by slot
    /// (ties in recorded order). Each is applied at the top of its slot,
    /// before that slot's journal injections — matching the live driver
    /// loop, where handoffs precede dispatch.
    pub events: Vec<HandoffEvent>,
    /// Replay ticks through this slot inclusive; the next live tick the
    /// driver sends is `through + 1`.
    pub through: u64,
    /// Lifecycle records for slots `>= life_from` are emitted during
    /// catch-up replay; earlier slots were already recorded by the dead
    /// worker before it crashed (its ring outlives it), so re-emitting
    /// them would duplicate the stream. The supervisor sets this to the
    /// first slot the dead worker missed; 0 replays everything.
    pub life_from: u64,
    /// Global ids of every request `base` issued a local id to (retired
    /// ones included), indexed by engine-local id. The engine
    /// re-identifies requests on inject, so a checkpoint alone cannot
    /// recover global ids — the supervisor mirrors the map and seeds the
    /// replacement worker's tracker with it. Empty for a genesis base (replay rebuilds the map from the
    /// journal, which still carries global ids).
    pub life_ids: Vec<u64>,
}

/// Everything needed to spawn (or respawn) one shard worker, minus the
/// policy (boxed separately because trait objects aren't `Clone`/`Debug`).
#[derive(Debug, Clone)]
pub struct SpawnSpec {
    /// The shard's partition: owned topology, station mapping, bridges.
    pub plan: ShardPlan,
    /// Slot parameters (already carrying the shard-derived seed).
    pub config: SlotConfig,
    /// Bound on the in-flight command queue — the driver blocks
    /// (backpressure) rather than buffering unboundedly.
    pub command_bound: usize,
    /// Attach an [`EngineState`] checkpoint to every Nth tick reply
    /// (0 disables checkpointing; recovery then replays from genesis).
    pub checkpoint_every: u64,
    /// Scripted faults to fire on matching live ticks.
    pub faults: Vec<ShardFault>,
    /// Catch-up plan for a restart; `None` for a cold start.
    pub recover: Option<RecoverPlan>,
    /// Shared progress channel: one [`ShardEvent::Tick`] per executed
    /// slot, plus live-tick errors and the spawn wrapper's death notice.
    pub progress: Sender<ShardProgress>,
    /// Spawn generation stamped on every progress event (0 for the
    /// initial spawn, +1 per restart) so the coordinator can drop events
    /// from stale incarnations.
    pub gen: u64,
    /// Worker-side trace ring, drained by the coordinator at each
    /// watermark fold: fault injections plus the serve-side
    /// request-lifecycle records (start, complete, expire, abort).
    /// `None` when tracing is off (events are never built).
    pub ring: Option<TraceRing>,
    /// Wall-clock engine-step timing histogram (live metrics only; never
    /// reaches snapshots or traces).
    pub step_hist: Option<std::sync::Arc<Histogram>>,
    /// Always-on work / mailbox-wait / watermark-wait stall probe behind
    /// the stall attribution (live metrics only; never reaches snapshots
    /// or deterministic traces).
    pub stall: Option<StallProbe>,
    /// Fine-grained latency histogram to attach completed-request-id
    /// exemplars to (only consulted while lifecycle records are emitted;
    /// the driver owns the observation counts).
    pub fine_hist: Option<std::sync::Arc<Histogram>>,
    /// Attach a [`PolicyTelemetry`] to every Nth tick reply (0 disables
    /// the learner-telemetry sweep).
    pub telemetry_every: u64,
    /// Attach the policy's learner probe: every tick reply then carries
    /// the arm-lifecycle events and decision record recorded during that
    /// slot. Off by default — with the probe detached the policy takes
    /// the exact pre-probe code paths.
    pub probe: bool,
}

/// Driver-side handle to one shard worker thread.
#[derive(Debug)]
pub struct ShardHandle {
    /// The shard this handle drives.
    pub shard: usize,
    /// `None` once the handle shuts the worker down: closing the channel
    /// ends the worker's command loop, so it must close before a join.
    cmd_tx: Option<SyncSender<ShardCommand>>,
    reply_rx: Receiver<ShardReply>,
    join: Option<JoinHandle<()>>,
    abandoned: Arc<AtomicBool>,
}

/// Worker-side lifecycle tracking: maps engine-local request ids back to
/// global ones (the engine re-identifies on inject and absorb) and turns
/// engine-trace events into `lifecycle` trace events on the shard's ring.
/// The engine trace is drained after every step, so it never holds more
/// than one slot's events.
struct LifeTracker {
    ring: TraceRing,
    /// Engine-local request id (issue order) -> global id.
    ids: Vec<u64>,
    /// Suppress records below this slot during catch-up replay: the dead
    /// worker already recorded them and its ring outlives it.
    emit_from: u64,
}

impl LifeTracker {
    /// Called immediately before each `engine.inject`: the engine issues
    /// local ids in increasing order, one per inject or absorbed job.
    fn note_inject(&mut self, request: &Request) {
        self.ids.push(request.id().index() as u64);
    }

    /// Called immediately before each `engine.absorb_station`: absorbed
    /// jobs are re-identified in slice order. A length mismatch (ids from
    /// a lifecycle-off peer) maps to `u64::MAX` rather than misattributing.
    fn note_absorb(&mut self, jobs: usize, ids: &[u64]) {
        for i in 0..jobs {
            self.ids.push(ids.get(i).copied().unwrap_or(u64::MAX));
        }
    }

    /// The global id behind an engine-local one.
    fn global(&self, local: mec_workload::request::RequestId) -> u64 {
        self.ids.get(local.index()).copied().unwrap_or(u64::MAX)
    }

    /// Drains the engine trace, emitting a record per event, and returns
    /// the global ids of requests that completed (in completion order, for
    /// latency-exemplar pairing). `Arrived` is skipped — the driver
    /// records the `admit` stage with the routing context the worker no
    /// longer has.
    fn drain(&mut self, engine: &mut Engine, shard: usize, plan: &ShardPlan) -> Vec<u64> {
        let mut completed = Vec::new();
        for traced in engine.drain_trace() {
            if traced.slot < self.emit_from {
                continue;
            }
            let no_bs = crate::obs::NO_BS;
            let (request, stage, bs) = match traced.event {
                mec_sim::Event::Arrived { .. } => continue,
                mec_sim::Event::Started {
                    request, station, ..
                } => {
                    let bs = plan
                        .stations
                        .get(station.index())
                        .map_or(no_bs, |global| global.index() as i64);
                    (request, "start", bs)
                }
                mec_sim::Event::Completed { request, .. } => {
                    completed.push(self.global(request));
                    (request, "complete", no_bs)
                }
                mec_sim::Event::Expired { request } => (request, "expire", no_bs),
                mec_sim::Event::Aborted { request } => (request, "abort", no_bs),
            };
            mec_obs::event!(
                self.ring,
                traced.slot,
                "lifecycle",
                id = self.global(request),
                stage = stage,
                shard = shard as i64,
                bs = bs,
            );
        }
        completed
    }
}

/// The worker body: runs catch-up (if any), then the command loop.
#[allow(clippy::too_many_lines)]
fn worker_main(
    spec: SpawnSpec,
    mut policy: Box<dyn SlotPolicy + Send>,
    reply_tx: &SyncSender<ShardReply>,
    cmd_rx: Receiver<ShardCommand>,
    abandoned: &AtomicBool,
) {
    let shard = spec.plan.shard;
    let paths = spec.plan.topo.shortest_paths();
    let mut engine = Engine::new(&spec.plan.topo, &paths, Vec::new(), spec.config);
    let mut faults = spec.faults;
    let mut next_live_slot = 0u64;
    let mut seen_latencies = 0usize;
    // Lifecycle records exist only while a trace is attached; without
    // one the tracker's id bookkeeping and engine trace would be dead
    // weight.
    let mut life = spec.ring.clone().map(|ring| LifeTracker {
        ring,
        ids: spec
            .recover
            .as_ref()
            .map_or_else(Vec::new, |r| r.life_ids.clone()),
        emit_from: spec.recover.as_ref().map_or(0, |r| r.life_from),
    });
    if life.is_some() {
        // Drained every step, so the cap never binds.
        engine.enable_trace(usize::MAX);
    }
    // Stall accounting is always on (it feeds live gauges only). The
    // gauges are cumulative across restarts: a replacement worker picks
    // up the totals its predecessor left behind. Three buckets partition
    // the loop time exactly: work (executing leased slots), mailbox-wait
    // (handling inject/extract/absorb traffic), and watermark-wait
    // (blocked on the mailbox until the coordinator extends the lease).
    let mut work_ms = spec.stall.as_ref().map_or(0.0, |p| p.work_ms.get());
    let mut mailbox_ms = spec.stall.as_ref().map_or(0.0, |p| p.mailbox_ms.get());
    let mut watermark_ms = spec.stall.as_ref().map_or(0.0, |p| p.watermark_ms.get());
    let mut idle_since = std::time::Instant::now();
    // Blocked-on-mailbox time accumulated since the previous grant
    // finished; observed once per grant so the histogram measures the
    // per-lease watermark wait (zero for slots inside a multi-slot grant
    // — the whole point of run-ahead).
    let mut grant_wait_ms = 0.0f64;

    if let Some(recover) = spec.recover {
        let start = recover.base.next_slot;
        engine.restore(recover.base);
        let mut replayed = 0u64;
        let mut journal = recover.journal.into_iter().peekable();
        let mut events = recover.events.into_iter().peekable();
        let replay_start = std::time::Instant::now();
        for slot in start..=recover.through {
            // Handoffs recorded at (or somehow before) this slot re-apply
            // first: live handoffs run at the top of a slot, before that
            // slot's dispatch phase.
            while events.peek().is_some_and(|e| e.slot() <= slot) {
                match events.next() {
                    Some(HandoffEvent::Extract { station, .. }) => {
                        engine.extract_station(station);
                    }
                    Some(HandoffEvent::Absorb {
                        slice, home, ids, ..
                    }) => {
                        if let Some(life) = life.as_mut() {
                            life.note_absorb(slice.jobs.len(), &ids);
                        }
                        engine.absorb_station(&slice, home);
                    }
                    None => unreachable!("peeked event vanished"),
                }
            }
            // Entries recorded at or before this slot enter the engine
            // now; `inject` clamps the arrival to the current slot exactly
            // as the original live injection did.
            while journal.peek().is_some_and(|(s, _)| *s <= slot) {
                if let Some((_, request)) = journal.next() {
                    if let Some(life) = life.as_mut() {
                        life.note_inject(&request);
                    }
                    engine.inject(request);
                    replayed += 1;
                }
            }
            if let Err(e) = engine.step(policy.as_mut()) {
                let _ = reply_tx.send(ShardReply::Error(format!(
                    "shard {shard} failed during replay of slot {slot}: {e}"
                )));
                return;
            }
            // Records for slots the dead worker already emitted are
            // skipped (`life_from`); the rest — slots missed during the
            // outage — enter the ring now and drain at the next barrier.
            if let Some(life) = life.as_mut() {
                life.drain(&mut engine, shard, &spec.plan);
            }
        }
        // Leftovers past the catch-up horizon (defensive — the supervisor
        // records handoff events only at slots it has already replayed or
        // will deliver live, so this loop is normally empty).
        for event in events {
            match event {
                HandoffEvent::Extract { station, .. } => {
                    engine.extract_station(station);
                }
                HandoffEvent::Absorb {
                    slice, home, ids, ..
                } => {
                    if let Some(life) = life.as_mut() {
                        life.note_absorb(slice.jobs.len(), &ids);
                    }
                    engine.absorb_station(&slice, home);
                }
            }
        }
        // Arrivals buffered while the shard was down but not yet due for a
        // replayed tick (admission slot past the catch-up horizon).
        for (_, request) in journal {
            if let Some(life) = life.as_mut() {
                life.note_inject(&request);
            }
            engine.inject(request);
            replayed += 1;
        }
        // Catch-up replay is engine work; count it so the work/wait split
        // stays honest across restarts.
        if let Some(probe) = &spec.stall {
            work_ms += replay_start.elapsed().as_secs_f64() * 1e3;
            probe.work_ms.set(work_ms);
        }
        next_live_slot = if recover.through >= start {
            recover.through + 1
        } else {
            start
        };
        let metrics = engine.metrics();
        seen_latencies = metrics.latencies_ms().len();
        let recovered = ShardRecovered {
            shard,
            backlog: engine.backlog(),
            total_reward: metrics.total_reward(),
            completed: metrics.completed(),
            expired: metrics.expired(),
            aborted: metrics.aborted(),
            latencies: metrics.latencies_ms().to_vec(),
            replayed,
        };
        if reply_tx.send(ShardReply::Recovered(recovered)).is_err() {
            return;
        }
    }

    // The probe attaches only for live ticks: catch-up replay re-executes
    // slots whose learner events the dead worker already delivered, so
    // probing during replay would double-count rewards downstream.
    if spec.probe {
        policy.set_probe(true);
    }

    for cmd in cmd_rx {
        // Time since the last command finished was spent blocked on the
        // mailbox; it accrues to the watermark bucket when the next grant
        // arrives (mailbox traffic between grants is measured separately).
        grant_wait_ms += idle_since.elapsed().as_secs_f64() * 1e3;
        match cmd {
            ShardCommand::Inject(request) => {
                let handling = std::time::Instant::now();
                if let Some(life) = life.as_mut() {
                    life.note_inject(&request);
                }
                engine.inject(request);
                if let Some(probe) = &spec.stall {
                    mailbox_ms += handling.elapsed().as_secs_f64() * 1e3;
                    probe.mailbox_ms.set(mailbox_ms);
                }
            }
            ShardCommand::ExtractStation(station) => {
                let handling = std::time::Instant::now();
                let slice = engine.extract_station(station);
                // Report the departing jobs' global ids so the receiving
                // shard can keep attributing lifecycle records to them.
                let ids = life.as_ref().map_or_else(Vec::new, |l| {
                    slice.jobs.iter().map(|j| l.global(j.id())).collect()
                });
                if reply_tx
                    .send(ShardReply::Extracted(Box::new(slice), ids))
                    .is_err()
                {
                    return;
                }
                if let Some(probe) = &spec.stall {
                    mailbox_ms += handling.elapsed().as_secs_f64() * 1e3;
                    probe.mailbox_ms.set(mailbox_ms);
                }
            }
            ShardCommand::AbsorbStation(slice, home, ids) => {
                let handling = std::time::Instant::now();
                if let Some(life) = life.as_mut() {
                    life.note_absorb(slice.jobs.len(), &ids);
                }
                engine.absorb_station(&slice, home);
                if let Some(probe) = &spec.stall {
                    mailbox_ms += handling.elapsed().as_secs_f64() * 1e3;
                    probe.mailbox_ms.set(mailbox_ms);
                }
            }
            ShardCommand::Grant { through } => {
                // Everything blocked-on-mailbox since the previous grant
                // completed was spent waiting for the coordinator to
                // advance the watermark and extend the lease.
                if let Some(probe) = &spec.stall {
                    watermark_ms += grant_wait_ms;
                    probe.watermark_ms.set(watermark_ms);
                    probe.wait_hist.observe(grant_wait_ms);
                }
                grant_wait_ms = 0.0;
                // Work covers the whole leased span — engine steps plus
                // checkpoint/telemetry/event assembly — so work + mailbox
                // + watermark partitions the worker's loop time exactly
                // (the report checks the per-shard sum against driver
                // wall time).
                let busy_since = std::time::Instant::now();
                while next_live_slot <= through {
                    if let Some(pos) = faults.iter().position(|f| f.slot == next_live_slot) {
                        let fault = faults.remove(pos);
                        // Emitted before the fault fires so even a crash
                        // (the panic below) leaves its injection in the
                        // trace.
                        mec_obs::event!(
                            spec.ring,
                            next_live_slot,
                            "fault_injected",
                            shard = shard,
                            fault = match fault.kind {
                                FaultKind::Crash => "crash",
                                FaultKind::Stall => "stall",
                                FaultKind::Slow { .. } => "slow",
                            },
                        );
                        match fault.kind {
                            FaultKind::Crash => {
                                panic!(
                                    "chaos: injected crash in shard {shard} at slot {}",
                                    fault.slot
                                );
                            }
                            FaultKind::Stall => {
                                // Stop reporting without exiting: only the
                                // coordinator's fold deadline can see
                                // this. Park until the supervisor abandons
                                // the handle.
                                while !abandoned.load(Ordering::Acquire) {
                                    std::thread::park_timeout(Duration::from_millis(5));
                                }
                                return;
                            }
                            FaultKind::Slow { ms } => {
                                std::thread::sleep(Duration::from_millis(ms));
                            }
                        }
                    }
                    let step_start = std::time::Instant::now();
                    let stepped = engine.step(policy.as_mut());
                    if let Some(hist) = &spec.step_hist {
                        hist.observe(step_start.elapsed().as_secs_f64() * 1e3);
                    }
                    let report = match stepped {
                        Ok(report) => report,
                        Err(e) => {
                            let _ = spec.progress.send(ShardProgress {
                                shard,
                                gen: spec.gen,
                                event: ShardEvent::Error(format!("shard {shard}: {e}")),
                            });
                            return;
                        }
                    };
                    next_live_slot = report.slot + 1;
                    let checkpoint = (spec.checkpoint_every > 0
                        && next_live_slot.is_multiple_of(spec.checkpoint_every))
                    .then(|| engine.checkpoint());
                    let telemetry = (spec.telemetry_every > 0
                        && next_live_slot.is_multiple_of(spec.telemetry_every))
                    .then(|| policy.telemetry())
                    .flatten()
                    .map(Box::new);
                    let new_latencies = engine.metrics().latencies_ms()[seen_latencies..].to_vec();
                    seen_latencies += new_latencies.len();
                    if let Some(life) = life.as_mut() {
                        let completed_ids = life.drain(&mut engine, shard, &spec.plan);
                        // Latencies append in completion order, so this
                        // slot's tail zips 1:1 with this slot's completed
                        // ids — attach them as histogram exemplars.
                        if let Some(hist) = &spec.fine_hist {
                            for (lat, id) in new_latencies.iter().zip(&completed_ids) {
                                hist.note_exemplar(*lat, *id);
                            }
                        }
                    }
                    let ((learner_events, probe_dropped), decision) = if spec.probe {
                        (policy.drain_learner_events(), policy.last_decision())
                    } else {
                        ((Vec::new(), 0), None)
                    };
                    let metrics = engine.metrics();
                    let tick = ShardTick {
                        shard,
                        report,
                        backlog: engine.backlog(),
                        total_reward: metrics.total_reward(),
                        completed: metrics.completed(),
                        expired: metrics.expired(),
                        aborted: metrics.aborted(),
                        new_latencies,
                        checkpoint,
                        telemetry,
                        learner_events,
                        probe_dropped,
                        decision,
                    };
                    let progressed = spec.progress.send(ShardProgress {
                        shard,
                        gen: spec.gen,
                        event: ShardEvent::Tick(tick),
                    });
                    if progressed.is_err() {
                        return;
                    }
                }
                if let Some(probe) = &spec.stall {
                    work_ms += busy_since.elapsed().as_secs_f64() * 1e3;
                    probe.work_ms.set(work_ms);
                }
            }
            ShardCommand::Finish => {
                let metrics = engine.finish();
                let _ = reply_tx.send(ShardReply::Final(ShardFinal { shard, metrics }));
                return;
            }
        }
        idle_since = std::time::Instant::now();
    }
}

impl ShardHandle {
    /// Spawns the worker thread for `spec`. The worker builds its own
    /// shortest-path table and engine from the (owned) shard topology, so
    /// nothing borrowed crosses the thread boundary.
    ///
    /// # Errors
    ///
    /// Fails only if the OS refuses to spawn the thread.
    pub fn spawn(spec: SpawnSpec, policy: Box<dyn SlotPolicy + Send>) -> std::io::Result<Self> {
        let shard = spec.plan.shard;
        let bound = spec.command_bound.max(1);
        let (cmd_tx, cmd_rx) = std::sync::mpsc::sync_channel::<ShardCommand>(bound);
        let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel::<ShardReply>(4);
        let abandoned = Arc::new(AtomicBool::new(false));
        let worker_abandoned = Arc::clone(&abandoned);
        let notice = spec.progress.clone();
        let gen = spec.gen;
        let join = std::thread::Builder::new()
            .name(format!("mec-shard-{shard}"))
            .spawn(move || {
                // A panicking worker (chaos crash, engine bug) cannot send
                // anything itself, so the spawn wrapper turns the unwind
                // into a death notice on the progress plane. The channel
                // is FIFO per sender, so the notice always follows every
                // tick the worker streamed before dying — the coordinator
                // can attribute the first missing slot exactly. Normal
                // exits (finish, error, stall-park abandon) send nothing.
                let body = std::panic::AssertUnwindSafe(|| {
                    worker_main(spec, policy, &reply_tx, cmd_rx, &worker_abandoned);
                });
                if std::panic::catch_unwind(body).is_err() {
                    let _ = notice.send(ShardProgress {
                        shard,
                        gen,
                        event: ShardEvent::Died,
                    });
                }
            })?;
        Ok(Self {
            shard,
            cmd_tx: Some(cmd_tx),
            reply_rx,
            join: Some(join),
            abandoned,
        })
    }

    /// Convenience cold-start spawn with no chaos, no checkpoints, and no
    /// recovery — the pre-fault-tolerance behaviour. Creates a private
    /// progress channel and returns its receiving end alongside the
    /// handle.
    ///
    /// # Errors
    ///
    /// Fails only if the OS refuses to spawn the thread.
    pub fn spawn_fresh(
        plan: ShardPlan,
        config: SlotConfig,
        policy: Box<dyn SlotPolicy + Send>,
        command_bound: usize,
    ) -> std::io::Result<(Self, Receiver<ShardProgress>)> {
        let (progress, events) = std::sync::mpsc::channel();
        let handle = Self::spawn(
            SpawnSpec {
                plan,
                config,
                command_bound,
                checkpoint_every: 0,
                faults: Vec::new(),
                recover: None,
                progress,
                gen: 0,
                ring: None,
                step_hist: None,
                telemetry_every: 0,
                stall: None,
                fine_hist: None,
                probe: false,
            },
            policy,
        )?;
        Ok((handle, events))
    }

    /// Sends a command; blocks when the bounded queue is full.
    ///
    /// # Errors
    ///
    /// Fails only if the worker already exited (after an error reply).
    pub fn send(&self, cmd: ShardCommand) -> Result<(), SendError<ShardCommand>> {
        match &self.cmd_tx {
            Some(tx) => tx.send(cmd),
            None => Err(SendError(cmd)),
        }
    }

    /// Receives the next reply, blocking until the worker produces one.
    ///
    /// # Errors
    ///
    /// Fails only if the worker exited without replying.
    pub fn recv(&self) -> Result<ShardReply, RecvError> {
        self.reply_rx.recv()
    }

    /// Receives the next reply, giving up after `timeout`. A timeout means
    /// the worker is stalled (or merely slow); the supervisor decides.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] if no reply arrived in time;
    /// [`RecvTimeoutError::Disconnected`] if the worker exited without
    /// replying (crash).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<ShardReply, RecvTimeoutError> {
        self.reply_rx.recv_timeout(timeout)
    }

    /// Closes the command channel and waits for the worker thread to
    /// exit, once it has handled every command already sent. Dropping the
    /// handle without joining also shuts the worker down, but joining
    /// makes teardown deterministic.
    pub fn join(mut self) {
        self.cmd_tx = None;
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }

    /// Abandons a worker presumed wedged: signals it to exit if it ever
    /// checks (stalled workers poll the flag), then detaches the thread so
    /// the driver is never blocked on a join that may not return. A truly
    /// wedged thread dies with the process.
    pub fn abandon(mut self) {
        self.abandoned.store(true, Ordering::Release);
        if let Some(join) = self.join.take() {
            join.thread().unpark();
            drop(join);
        }
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        // Closing cmd_tx ends the worker's command loop — here, before the
        // join, since fields drop only after this returns; the abandon
        // flag frees a stalled worker from its park loop. Join if possible
        // so panics in the worker are not silently leaked mid-test.
        self.cmd_tx = None;
        self.abandoned.store(true, Ordering::Release);
        if let Some(join) = self.join.take() {
            join.thread().unpark();
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition;
    use mec_core::policy_from_name;
    use mec_topology::TopologyBuilder;
    use mec_workload::WorkloadBuilder;

    #[test]
    fn life_tracker_empties_the_engine_trace_every_tick() {
        let topo = TopologyBuilder::new(8).seed(3).build();
        let plan = partition(&topo, 1).remove(0);
        let paths = plan.topo.shortest_paths();
        let mut engine = Engine::new(&plan.topo, &paths, Vec::new(), SlotConfig::default());
        engine.enable_trace(usize::MAX);
        let ring = TraceRing::with_capacity(1 << 12);
        let mut life = LifeTracker {
            ring: ring.clone(),
            ids: Vec::new(),
            emit_from: 0,
        };
        for r in WorkloadBuilder::new(&topo).seed(3).count(20).build() {
            life.note_inject(&r);
            engine.inject(r);
        }
        let mut policy = policy_from_name("Greedy", 100).unwrap();
        let mut completed = Vec::new();
        for _ in 0..100 {
            engine.step(policy.as_mut()).unwrap();
            completed.extend(life.drain(&mut engine, 0, &plan));
            assert!(engine.trace().unwrap().events().is_empty());
        }
        assert_eq!(engine.backlog(), 0);
        assert_eq!(completed.len(), engine.metrics().completed());
        // Every injected request has exactly one terminal record on the
        // ring.
        let mut terminal: Vec<u64> = ring
            .drain()
            .into_iter()
            .filter(|e| {
                e.fields.iter().any(|(key, value)| {
                    *key == "stage"
                        && matches!(value, mec_obs::Value::Str(s)
                            if matches!(s.as_str(), "complete" | "expire" | "abort"))
                })
            })
            .filter_map(|e| match e.fields.iter().find(|(key, _)| *key == "id") {
                Some((_, mec_obs::Value::U64(id))) => Some(*id),
                _ => None,
            })
            .collect();
        terminal.sort_unstable();
        assert_eq!(terminal, (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn inject_grant_finish_roundtrip() {
        let topo = TopologyBuilder::new(8).seed(3).build();
        let plan = partition(&topo, 1).remove(0);
        let requests = WorkloadBuilder::new(&topo).seed(3).count(20).build();
        let policy = policy_from_name("Greedy", 100).unwrap();
        let (handle, events) =
            ShardHandle::spawn_fresh(plan, SlotConfig::default(), policy, 64).unwrap();
        for r in requests {
            handle.send(ShardCommand::Inject(r)).unwrap();
        }
        // A single 100-slot lease streams one tick event per slot.
        handle.send(ShardCommand::Grant { through: 99 }).unwrap();
        let mut backlog = usize::MAX;
        for slot in 0..100 {
            match events.recv().unwrap() {
                ShardProgress {
                    shard: 0,
                    gen: 0,
                    event: ShardEvent::Tick(tick),
                } => {
                    assert_eq!(tick.shard, 0);
                    assert_eq!(tick.report.slot, slot);
                    assert_eq!(tick.checkpoint, None, "checkpointing is off by default");
                    backlog = tick.backlog;
                }
                other => panic!("expected tick event, got {other:?}"),
            }
        }
        assert_eq!(backlog, 0, "20 requests should drain within 100 slots");
        handle.send(ShardCommand::Finish).unwrap();
        match handle.recv().unwrap() {
            ShardReply::Final(fin) => {
                assert_eq!(
                    fin.metrics.completed()
                        + fin.metrics.expired()
                        + fin.metrics.aborted()
                        + fin.metrics.unserved(),
                    20
                );
            }
            other => panic!("expected final reply, got {other:?}"),
        }
        handle.join();
    }

    /// Grants `slots` more slots starting at `from` and collects the tick
    /// stream.
    fn drive(
        handle: &ShardHandle,
        events: &Receiver<ShardProgress>,
        from: u64,
        slots: u64,
    ) -> Vec<ShardTick> {
        handle
            .send(ShardCommand::Grant {
                through: from + slots - 1,
            })
            .unwrap();
        (0..slots)
            .map(|_| match events.recv().unwrap().event {
                ShardEvent::Tick(tick) => tick,
                other => panic!("expected tick event, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn stale_grants_are_idempotent() {
        let topo = TopologyBuilder::new(6).seed(9).build();
        let plan = partition(&topo, 1).remove(0);
        let policy = policy_from_name("Greedy", 100).unwrap();
        let (handle, events) =
            ShardHandle::spawn_fresh(plan, SlotConfig::default(), policy, 16).unwrap();
        let ticks = drive(&handle, &events, 0, 5);
        assert_eq!(ticks.last().unwrap().report.slot, 4);
        // A non-extending lease executes nothing: no stray tick events.
        handle.send(ShardCommand::Grant { through: 3 }).unwrap();
        let extended = drive(&handle, &events, 5, 1);
        assert_eq!(extended[0].report.slot, 5, "slots 0..=4 must not re-run");
        handle.send(ShardCommand::Finish).unwrap();
        handle.join();
    }

    #[test]
    fn periodic_checkpoints_attach_to_interval_ticks() {
        let topo = TopologyBuilder::new(6).seed(7).build();
        let plan = partition(&topo, 1).remove(0);
        let policy = policy_from_name("Greedy", 100).unwrap();
        let (progress, events) = std::sync::mpsc::channel();
        let spec = SpawnSpec {
            plan,
            config: SlotConfig::default(),
            command_bound: 16,
            checkpoint_every: 4,
            faults: Vec::new(),
            recover: None,
            progress,
            gen: 0,
            ring: None,
            step_hist: None,
            telemetry_every: 0,
            stall: None,
            fine_hist: None,
            probe: false,
        };
        let handle = ShardHandle::spawn(spec, policy).unwrap();
        let ticks = drive(&handle, &events, 0, 9);
        for tick in &ticks {
            let expect_checkpoint = (tick.report.slot + 1) % 4 == 0;
            assert_eq!(tick.checkpoint.is_some(), expect_checkpoint);
            if let Some(state) = &tick.checkpoint {
                assert_eq!(state.next_slot, tick.report.slot + 1);
            }
        }
        handle.send(ShardCommand::Finish).unwrap();
        handle.join();
    }

    #[test]
    fn recovered_worker_matches_uninterrupted_run() {
        let topo = TopologyBuilder::new(8).seed(11).build();
        let plan = partition(&topo, 1).remove(0);
        let requests = WorkloadBuilder::new(&topo).seed(11).count(15).build();
        let config = SlotConfig::default();

        // Reference: one worker runs 40 slots straight through.
        let reference = {
            let policy = policy_from_name("Greedy", 100).unwrap();
            let (handle, events) =
                ShardHandle::spawn_fresh(plan.clone(), config, policy, 64).unwrap();
            for r in requests.clone() {
                handle.send(ShardCommand::Inject(r)).unwrap();
            }
            let ticks = drive(&handle, &events, 0, 40);
            let last = ticks.last().unwrap().clone();
            handle.send(ShardCommand::Finish).unwrap();
            handle.join();
            last
        };

        // Recovery path: replay the same injections from genesis through
        // slot 29, then tick the last 10 live.
        let journal: Vec<(u64, Request)> = requests.iter().map(|r| (0u64, r.clone())).collect();
        let policy = policy_from_name("Greedy", 100).unwrap();
        let (progress, events) = std::sync::mpsc::channel();
        let spec = SpawnSpec {
            plan: plan.clone(),
            config,
            command_bound: 64,
            checkpoint_every: 0,
            faults: Vec::new(),
            recover: Some(RecoverPlan {
                base: EngineState::genesis(plan.topo.station_count()),
                journal,
                events: Vec::new(),
                through: 29,
                life_from: 0,
                life_ids: Vec::new(),
            }),
            progress,
            gen: 1,
            ring: None,
            step_hist: None,
            telemetry_every: 0,
            stall: None,
            fine_hist: None,
            probe: false,
        };
        let handle = ShardHandle::spawn(spec, policy).unwrap();
        let recovered = match handle.recv().unwrap() {
            ShardReply::Recovered(r) => r,
            other => panic!("expected recovered reply, got {other:?}"),
        };
        assert_eq!(recovered.replayed, 15);
        let ticks = drive(&handle, &events, 30, 10);
        let last = ticks.last().unwrap();
        assert_eq!(last.report.slot, reference.report.slot);
        assert_eq!(last.backlog, reference.backlog);
        assert_eq!(last.total_reward, reference.total_reward);
        assert_eq!(last.completed, reference.completed);
        handle.send(ShardCommand::Finish).unwrap();
        handle.join();
    }

    #[test]
    fn probed_worker_streams_learner_events_per_tick() {
        let topo = TopologyBuilder::new(8).seed(5).build();
        let plan = partition(&topo, 1).remove(0);
        let requests = WorkloadBuilder::new(&topo).seed(5).count(30).build();
        let policy = policy_from_name("DynamicRR", 100).unwrap();
        let (progress, events) = std::sync::mpsc::channel();
        let spec = SpawnSpec {
            plan,
            config: SlotConfig::default(),
            command_bound: 64,
            checkpoint_every: 0,
            faults: Vec::new(),
            recover: None,
            progress,
            gen: 0,
            ring: None,
            step_hist: None,
            telemetry_every: 0,
            stall: None,
            fine_hist: None,
            probe: true,
        };
        let handle = ShardHandle::spawn(spec, policy).unwrap();
        for r in requests {
            handle.send(ShardCommand::Inject(r)).unwrap();
        }
        let ticks = drive(&handle, &events, 0, 20);
        let events: usize = ticks.iter().map(|t| t.learner_events.len()).sum();
        assert!(events > 0, "a probed learner must stream lifecycle events");
        for tick in &ticks {
            let decision = tick
                .decision
                .as_ref()
                .expect("every probed learner tick carries a decision record");
            assert_eq!(decision.slot, tick.report.slot);
            // Each tick's events belong to that tick alone: one Sample per
            // learner update, stamped with the slot's step.
            for ev in &tick.learner_events {
                assert!(ev.value > 0.0, "events carry the arm's threshold value");
            }
        }
        handle.send(ShardCommand::Finish).unwrap();
        handle.join();
    }

    #[test]
    fn dropping_a_live_handle_without_finish_returns() {
        let topo = TopologyBuilder::new(4).seed(1).build();
        let plan = partition(&topo, 1).remove(0);
        let policy = policy_from_name("Greedy", 100).unwrap();
        let (handle, _events) =
            ShardHandle::spawn_fresh(plan, SlotConfig::default(), policy, 8).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            drop(handle);
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(5)).is_ok(),
            "dropping a handle without Finish did not return within 5 s"
        );
    }

    #[test]
    fn unprobed_worker_keeps_learner_fields_empty() {
        let topo = TopologyBuilder::new(8).seed(5).build();
        let plan = partition(&topo, 1).remove(0);
        let policy = policy_from_name("DynamicRR", 100).unwrap();
        let (handle, events) =
            ShardHandle::spawn_fresh(plan, SlotConfig::default(), policy, 64).unwrap();
        for tick in drive(&handle, &events, 0, 5) {
            assert!(tick.learner_events.is_empty());
            assert_eq!(tick.probe_dropped, 0);
            assert!(tick.decision.is_none());
        }
        handle.send(ShardCommand::Finish).unwrap();
        handle.join();
    }

    #[test]
    fn stalled_worker_times_out_and_abandons_cleanly() {
        let topo = TopologyBuilder::new(4).seed(1).build();
        let plan = partition(&topo, 1).remove(0);
        let policy = policy_from_name("Greedy", 100).unwrap();
        let (progress, events) = std::sync::mpsc::channel();
        let spec = SpawnSpec {
            plan,
            config: SlotConfig::default(),
            command_bound: 8,
            checkpoint_every: 0,
            faults: vec![ShardFault {
                slot: 2,
                kind: FaultKind::Stall,
            }],
            recover: None,
            progress,
            gen: 0,
            ring: None,
            step_hist: None,
            telemetry_every: 0,
            stall: None,
            fine_hist: None,
            probe: false,
        };
        let handle = ShardHandle::spawn(spec, policy).unwrap();
        drive(&handle, &events, 0, 2);
        handle.send(ShardCommand::Grant { through: 2 }).unwrap();
        match events.recv_timeout(Duration::from_millis(100)) {
            Err(RecvTimeoutError::Timeout) => {}
            other => panic!("expected a stall timeout, got {other:?}"),
        }
        // Abandon returns promptly even though the worker is wedged; a
        // stall-park exit is a normal return, so no death notice appears.
        handle.abandon();
        assert!(matches!(
            events.recv_timeout(Duration::from_millis(500)),
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected)
        ));
    }

    #[test]
    fn crashed_worker_sends_a_death_notice_after_its_ticks() {
        let topo = TopologyBuilder::new(4).seed(2).build();
        let plan = partition(&topo, 1).remove(0);
        let policy = policy_from_name("Greedy", 100).unwrap();
        let (progress, events) = std::sync::mpsc::channel();
        let spec = SpawnSpec {
            plan,
            config: SlotConfig::default(),
            command_bound: 8,
            checkpoint_every: 0,
            faults: vec![ShardFault {
                slot: 3,
                kind: FaultKind::Crash,
            }],
            recover: None,
            progress,
            gen: 0,
            ring: None,
            step_hist: None,
            telemetry_every: 0,
            stall: None,
            fine_hist: None,
            probe: false,
        };
        let handle = ShardHandle::spawn(spec, policy).unwrap();
        // Lease past the crash slot: ticks 0..=2 stream, then the spawn
        // wrapper's Died notice — strictly after the surviving ticks.
        handle.send(ShardCommand::Grant { through: 5 }).unwrap();
        for slot in 0..3 {
            match events.recv().unwrap().event {
                ShardEvent::Tick(tick) => assert_eq!(tick.report.slot, slot),
                other => panic!("expected tick event, got {other:?}"),
            }
        }
        match events.recv_timeout(Duration::from_secs(5)).unwrap().event {
            ShardEvent::Died => {}
            other => panic!("expected a death notice, got {other:?}"),
        }
        handle.join();
    }
}
