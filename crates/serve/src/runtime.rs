//! The serving loop: partition → spawn actors → route/admit →
//! epoch-leased ticks folded at a watermark → periodic snapshots → drain
//! → final accounting — under a per-shard **supervisor** that detects
//! worker failure (crash, stall, or missed fold deadline), routes around
//! the outage, and restarts the shard with checkpoint-plus-journal
//! replay.
//!
//! ## The epoch/watermark protocol
//!
//! Each shard is an actor with a bounded command mailbox; the coordinator
//! never waits for a shard inside a slot. Instead it issues run-ahead
//! **leases** ([`ShardCommand::Grant`]): a shard may execute every slot up
//! to the granted horizon back-to-back, streaming one tick report per
//! slot onto a shared progress channel. The coordinator's **watermark**
//! advances one slot at a time: phase `t` (disk faults, reconfig,
//! restarts, handoffs, dispatch) runs only after every live shard's slot
//! `t-1` report has been folded, and the fold for slot `t` consumes
//! reports **in shard order** regardless of the wall-clock order they
//! arrived in. A lease may cover future slots only when the leased span
//! is provably inert for the coordinator — no arrivals due, no placement
//! or reconfig work scheduled, no pending handoffs, every shard up, and
//! never across a scripted fault slot — so every cross-shard message for
//! slot `t` is already in a shard's mailbox (FIFO, ahead of the grant
//! covering `t`) before the shard may execute `t`. That makes the
//! run-ahead invisible to the simulation: snapshots, traces, and final
//! accounting are byte-identical for any epoch horizon, including
//! horizon 1 (lockstep).
//!
//! ## Determinism contract
//!
//! With [`ClockMode::Virtual`] and fixed seed, shard count, policy, and
//! load, two runs produce byte-identical final snapshots because every
//! source of ordering is pinned:
//!
//! * admission decisions read only the [`Router`]'s tracked backlog (the
//!   depth each shard reported at its last folded tick plus injections
//!   since), never live channel state;
//! * every slot is folded at the watermark — all live shards' reports
//!   for the slot are consumed **in shard order** before anything else
//!   happens, and worker-side trace events (request-lifecycle records
//!   included) are held back until the watermark passes their slot;
//! * per-shard engine seeds derive from the base seed and shard index;
//! * the final [`Snapshot`] carries no wall-clock field, and every fault
//!   counter is in virtual slots or event counts.
//!
//! The contract extends to chaos runs: scripted faults key off virtual
//! slots (leases never cross a pending fault slot, so faults fire exactly
//! when lockstep would have fired them), detection is attributed to the
//! slot whose report is missing, and recovery replays journaled arrivals
//! at their original admission slots — so repeating an identical
//! `--chaos` command reproduces the identical final snapshot.
//!
//! ## Fault model
//!
//! A shard worker can fail three ways, and the supervisor sees each as a
//! distinct signal on the progress plane:
//!
//! * **crash** — the worker thread panicked; its spawn wrapper posts a
//!   death notice ([`crate::ShardEvent::Died`]) behind any reports it
//!   already streamed, so the first missing slot is attributed exactly;
//! * **stall** — the worker stops reporting without exiting; only the
//!   fold deadline ([`FaultConfig::tick_timeout_ms`]) can see it, after
//!   which the handle is *abandoned* (detached, never joined);
//! * **policy error** — the policy produced an illegal schedule
//!   ([`crate::ShardEvent::Error`]). This is a bug, not an outage, and
//!   stays **fatal** ([`ServeError::Shard`]): restarting would
//!   deterministically replay the same error.
//!
//! While a shard is down its stations are unavailable and arrivals follow
//! the router's [`DegradedPolicy`]. Restart replays the journal on top of
//! the shard's recovery base: the genesis state by default (exact for
//! every policy, including learners with unserializable state), or the
//! latest periodic checkpoint when [`FaultConfig::checkpoint_every`] is
//! nonzero (cheaper catch-up, exact for stateless policies). After
//! [`FaultConfig::max_restarts`] failed restarts the supervisor stops
//! retrying; the shard is revived once more at finish so terminal
//! accounting still covers every admitted request.
//!
//! Drain/leave handoffs are **splittable**: only the departing station's
//! in-flight jobs move (a [`mec_sim::StationSlice`]), and the move is
//! recorded as replay events on the shards involved, so handoffs compose
//! with periodic checkpoints instead of forcing genesis replay. With
//! [`ServeConfig::state_dir`] set, arrival journals and checkpoints
//! additionally persist to CRC-framed files (see [`crate::journal`])
//! that are read back and verified against the in-memory truth on every
//! recovery — injected disk faults (`truncate:` / `corrupt:` /
//! `slowdisk:`) move recovery counters, never the simulation outcome.

use crate::chaos::{ChaosSpec, FaultSpec, ShardFault};
use crate::clock::{Clock, ClockMode};
use crate::journal::{self, DiskStore};
use crate::loadgen::LoadGen;
use crate::obs::{ObsHub, ObsState, DRIVER, NO_BS};
use crate::partition::{partition, ShardPlan};
use crate::placement::{PlacementPlane, RouteDecision};
use crate::router::{Admission, DegradedPolicy, Router};
use crate::shard::{
    HandoffEvent, RecoverPlan, ShardCommand, ShardEvent, ShardHandle, ShardProgress, ShardReply,
    ShardTick, SpawnSpec,
};
use crate::snapshot::{LatencyStats, Snapshot};
use mec_core::{policy_from_name, UnknownPolicy};
use mec_obs::{SloEngine, SloSpec, SlotSample};
use mec_placement::{OpsLog, PlacementConfig, ReconfigOp};
use mec_sim::{EngineState, Metrics, SlotConfig};
use mec_topology::{StationId, Topology};
use mec_workload::Request;
use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Supervision and recovery knobs.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Fold deadline in milliseconds: how long the coordinator waits for
    /// a live shard's slot report (the window resets on every progress
    /// event it ingests). A shard that misses it is treated as stalled
    /// and restarted. 0 disables the deadline (a wedged worker then
    /// blocks the watermark forever).
    pub tick_timeout_ms: u64,
    /// Ask workers for an engine checkpoint every N slots (0 disables;
    /// recovery then replays from genesis, which is exact for every
    /// policy but replays the whole prefix).
    pub checkpoint_every: u64,
    /// What happens to arrivals whose home shard is down.
    pub degraded: DegradedPolicy,
    /// Restart attempts per shard before the supervisor gives up and
    /// leaves the shard down until final accounting.
    pub max_restarts: u64,
    /// Slots to wait before restarting a failed shard when the chaos spec
    /// does not pin an explicit recovery slot (minimum 1).
    pub restart_backoff_slots: u64,
    /// Per-shard journal capacity in entries; older entries are evicted
    /// (counted in [`FaultStats::journal_dropped`], making genesis replay
    /// best-effort).
    pub journal_cap: usize,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            tick_timeout_ms: 5_000,
            checkpoint_every: 0,
            degraded: DegradedPolicy::Buffer,
            max_restarts: 8,
            restart_backoff_slots: 1,
            journal_cap: 1 << 20,
        }
    }
}

/// Knobs for one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of shard workers (each owns one engine and one policy).
    pub shards: usize,
    /// Per-shard backlog cap: arrivals beyond it are shed, not queued.
    pub queue_capacity: usize,
    /// Emit a snapshot every this many slots (0 disables periodic
    /// snapshots; the final snapshot is always produced).
    pub snapshot_every: u64,
    /// Scheduling policy name; see [`mec_core::POLICY_NAMES`].
    pub policy: String,
    /// Slot parameters shared by every shard engine. The per-shard seed is
    /// derived from `sim.seed` and the shard index; `sim.horizon` is
    /// ignored (the serving loop owns the clock).
    pub sim: SlotConfig,
    /// Extra slots allowed after the last arrival before the run is cut
    /// off (remaining jobs count as unserved).
    pub drain_slots: u64,
    /// Virtual (as fast as possible) or wall-clock-paced ticking.
    pub clock: ClockMode,
    /// Run-ahead lease length in slots: how far past the fold watermark
    /// a shard may execute before it must wait for the coordinator.
    /// 1 (or 0) is lockstep; larger horizons let shards pipeline across
    /// slots with the coordinator's fold. Leases never cover a slot with
    /// scheduled coordinator work (arrivals, reconfig, faults, pending
    /// handoffs), so the outcome is byte-identical for every horizon —
    /// only wall-clock throughput changes. Ignored under a paced clock.
    pub epoch_horizon: u64,
    /// Supervision, checkpointing, and degraded-routing knobs.
    pub faults: FaultConfig,
    /// Scripted faults to inject (empty for a normal run).
    pub chaos: ChaosSpec,
    /// Observability attachment: a shared metrics registry plus an
    /// optional event-trace sink. `None` (the default) gives the run a
    /// private registry and changes nothing observable.
    pub obs: Option<Arc<ObsHub>>,
    /// Service placement knobs; `services == 0` (the default) disables
    /// placement-aware routing entirely.
    pub placement: PlacementConfig,
    /// Scripted topology reconfiguration ops (joins/leaves/drains),
    /// merged with any ops carried by the chaos spec. Handoffs ship only
    /// the departing station's in-flight jobs as a
    /// [`mec_sim::StationSlice`] and are recorded as replay events, so
    /// they compose with periodic checkpointing
    /// ([`FaultConfig::checkpoint_every`]) — recovery restarts from the
    /// newest checkpoint at or before the op and replays only the
    /// journal suffix.
    pub ops: OpsLog,
    /// Directory for on-disk persistence: per-shard CRC-framed arrival
    /// journals plus atomically-rotated engine checkpoints (see the
    /// [`crate::journal`] module). `None` (the default) keeps all
    /// recovery state in memory. The in-memory supervisor state stays
    /// authoritative either way — disk state is a verified mirror, read
    /// back and checked on every recovery, falling back (and healing)
    /// on any corruption so injected disk faults can change recovery
    /// counters but never the simulation outcome.
    pub state_dir: Option<PathBuf>,
    /// Service-level objectives evaluated after every slot barrier (see
    /// [`mec_obs::SloSpec::parse`]). Empty (the default) disables the
    /// engine entirely; evaluation reads only deterministic per-slot
    /// deltas, so attaching SLOs never perturbs the run.
    pub slo: Vec<SloSpec>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_capacity: 256,
            snapshot_every: 100,
            policy: "DynamicRR".to_string(),
            sim: SlotConfig::default(),
            drain_slots: 1_000,
            clock: ClockMode::Virtual,
            epoch_horizon: 8,
            faults: FaultConfig::default(),
            chaos: ChaosSpec::default(),
            obs: None,
            placement: PlacementConfig::default(),
            ops: OpsLog::default(),
            state_dir: None,
            slo: Vec::new(),
        }
    }
}

/// Why a serving run could not complete.
#[derive(Debug)]
pub enum ServeError {
    /// The configured policy name resolves to nothing.
    Policy(UnknownPolicy),
    /// A shard's policy produced an illegal schedule (the wrapped message
    /// names the shard and the simulation error). Fatal by design: a
    /// restart would deterministically replay the same error.
    Shard(String),
    /// A shard worker died and could not be revived even for final
    /// accounting.
    WorkerDied(usize),
    /// The OS refused to spawn a worker thread.
    Spawn {
        /// The shard whose worker could not be spawned.
        shard: usize,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// The chaos spec is inconsistent with the run configuration (e.g.
    /// targets a shard index beyond the shard count).
    Chaos(String),
    /// The placement/reconfiguration setup is invalid (an op targets a
    /// station the topology lacks).
    Reconfig(String),
    /// The state directory could not be created (persistence failures
    /// *during* the run degrade to fault counters instead).
    Disk(std::io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Policy(e) => write!(f, "{e}"),
            Self::Shard(msg) => write!(f, "shard failed: {msg}"),
            Self::WorkerDied(shard) => write!(f, "shard {shard} worker died and stayed dead"),
            Self::Spawn { shard, source } => {
                write!(f, "spawning worker for shard {shard}: {source}")
            }
            Self::Chaos(msg) => write!(f, "chaos spec: {msg}"),
            Self::Reconfig(msg) => write!(f, "reconfiguration: {msg}"),
            Self::Disk(e) => write!(f, "state directory: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<UnknownPolicy> for ServeError {
    fn from(e: UnknownPolicy) -> Self {
        Self::Policy(e)
    }
}

/// What a completed serving run hands back.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The deterministic end-of-run snapshot (no wall-clock fields).
    pub final_snapshot: Snapshot,
    /// Merged metrics of every shard engine, in shard order.
    pub metrics: Metrics,
    /// Virtual slots executed.
    pub slots_run: u64,
    /// Periodic snapshots emitted through the callback.
    pub snapshots_emitted: usize,
    /// Wall-clock duration of the run in seconds.
    pub wall_secs: f64,
    /// The normalized ops journal the run applied, as JSONL (empty when
    /// no ops ran). Feeding it back as the ops script of a same-seed run
    /// reproduces the identical final snapshot — that is the
    /// crash-and-replay oracle for live reconfiguration.
    pub ops_journal: String,
}

/// Derives a shard engine's seed from the run seed. The odd multiplier
/// (splitmix64's increment) decorrelates neighbouring shards.
fn shard_seed(base: u64, shard: usize) -> u64 {
    base ^ (shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Supervisor view of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShardStatus {
    /// Worker live, participating in the watermark protocol.
    Up,
    /// Worker failed at `detected_at`; restart scheduled at `restart_at`.
    Down {
        /// Slot whose tick the worker missed.
        detected_at: u64,
        /// Slot at whose top the supervisor will attempt a restart.
        restart_at: u64,
    },
    /// Supervisor exhausted `max_restarts`; the shard stays down until
    /// final accounting revives it once more.
    Dead {
        /// Slot whose tick the worker missed last.
        detected_at: u64,
    },
}

/// Per-shard supervision state: everything needed to respawn the worker
/// and to keep reporting cumulative counters while it is down.
struct Supervised {
    shard: usize,
    plan: ShardPlan,
    sim: SlotConfig,
    handle: Option<ShardHandle>,
    status: ShardStatus,
    restarts_used: u64,
    /// Spawn generation of the current worker; progress events stamped
    /// with an older generation are dropped (a restarted shard reuses
    /// the same shared channel).
    gen: u64,
    /// Next slot not yet covered by a lease: the worker holds grants for
    /// every slot below this.
    granted: u64,
    /// Reports received from the current worker but not yet folded —
    /// the run-ahead buffer. Front is always the lowest unfolded slot
    /// (workers report slots in order).
    inbox: VecDeque<ShardTick>,
    /// The spawn wrapper posted a death notice for the current worker.
    died: bool,
    /// The current worker reported a fatal policy error; surfaced at the
    /// fold of the slot whose report it replaced.
    fatal: Option<String>,
    /// Scripted faults for this shard not yet consumed by a failure.
    faults_remaining: Vec<ShardFault>,
    /// Full fault specs for this shard (for `recover_at` lookups).
    chaos_faults: Vec<FaultSpec>,
    /// Recovery base: genesis, or the latest adopted checkpoint.
    base: EngineState,
    /// Handoff operations this shard participated in since the recovery
    /// base, re-applied at their original slots during catch-up replay.
    /// Pruned when a newer checkpoint (which already embeds their
    /// effect) is adopted.
    replay_events: Vec<HandoffEvent>,
    // Last-known cumulative counters — the snapshot view of a shard that
    // is currently down.
    total_reward: f64,
    completed: usize,
    expired: usize,
    aborted: usize,
    /// Every latency sample this shard has reported (replaced wholesale on
    /// recovery; per-tick deltas from before a crash are unreliable).
    latencies: Vec<f64>,
    /// Global ids of every request `base` issued a local id to (retired
    /// ones included), indexed by engine-local id — the supervisor-side
    /// mirror of the worker's lifecycle id map. The engine re-identifies
    /// requests on inject, so a checkpoint alone cannot recover global
    /// ids; this mirror is extended at each adoption (from the journal
    /// and handoff events the checkpoint absorbs) and seeds the tracker
    /// of a replacement worker. Maintained only while lifecycle records
    /// are emitted; empty otherwise.
    life_ids: Vec<u64>,
}

/// Extends a supervisor-side lifecycle id mirror with everything a
/// catch-up replay would inject on top of it: handoff absorbs and
/// journaled arrivals merged by slot, absorbs first within a slot —
/// exactly the order `worker_main` re-identifies them (handoffs precede
/// dispatch in the live loop, and replay preserves that).
fn extend_life_ids(map: &mut Vec<u64>, events: &[HandoffEvent], journal: &[(u64, Request)]) {
    let mut events = events.iter().peekable();
    for (slot, request) in journal {
        while let Some(event) = events.next_if(|e| e.slot() <= *slot) {
            if let HandoffEvent::Absorb { ids, .. } = event {
                map.extend_from_slice(ids);
            }
        }
        map.push(request.id().index() as u64);
    }
    for event in events {
        if let HandoffEvent::Absorb { ids, .. } = event {
            map.extend_from_slice(ids);
        }
    }
}

/// The slot at which a failed shard may be restarted: the scripted
/// `recover_at` when the chaos spec pins one for the fault that (by slot)
/// just fired, otherwise detection plus the configured backoff. Always
/// strictly after the detection slot.
fn failure_restart_slot(sup: &Supervised, detected_at: u64, backoff_slots: u64) -> u64 {
    let scripted = sup
        .chaos_faults
        .iter()
        .rfind(|f| f.slot <= detected_at)
        .and_then(|f| f.recover_at);
    match scripted {
        Some(at) => at.max(detected_at + 1),
        None => detected_at + backoff_slots.max(1),
    }
}

/// Transitions a shard to `Down`: abandons the handle (never a blocking
/// join — the worker may be wedged), marks its stations unavailable, and
/// strips faults it already consumed so the restart cannot crash-loop on
/// the same scripted fault. `reason` names the detection signal
/// (`disconnect`, `timeout`, or `send_failed`) for the trace.
fn note_down(
    sup: &mut Supervised,
    router: &mut Router,
    obs: &mut ObsState,
    detected_at: u64,
    backoff_slots: u64,
    reason: &str,
) {
    if !matches!(sup.status, ShardStatus::Up) {
        return;
    }
    obs.note_detection(detected_at, sup.shard, reason);
    if let Some(handle) = sup.handle.take() {
        handle.abandon();
    }
    router.mark_down(sup.shard);
    let restart_at = failure_restart_slot(sup, detected_at, backoff_slots);
    sup.faults_remaining.retain(|f| f.slot > detected_at);
    sup.status = ShardStatus::Down {
        detected_at,
        restart_at,
    };
}

/// Folds one tick reply into the supervisor state: adopt any checkpoint
/// (pruning the journal and replay events it covers, and mirroring it
/// to disk when a state directory is configured), refresh the tracked
/// backlog, cache the cumulative counters, and feed the tick to the
/// metrics layer.
fn apply_tick(
    sup: &mut Supervised,
    router: &mut Router,
    obs: &mut ObsState,
    store: &mut Option<DiskStore>,
    tick: &ShardTick,
) {
    obs.note_tick(tick);
    if let Some(state) = &tick.checkpoint {
        if obs.tracing() {
            // Fold the journal suffix and handoff events this checkpoint
            // embeds into the id mirror *before* they are pruned away —
            // the worker's map as of the new base is the old base's map
            // plus these, in replay order.
            let journal: Vec<(u64, Request)> = router
                .journal_since(sup.shard, sup.base.next_slot)
                .into_iter()
                .filter(|(s, _)| *s < state.next_slot)
                .collect();
            let events: Vec<HandoffEvent> = sup
                .replay_events
                .iter()
                .filter(|e| e.slot() < state.next_slot)
                .cloned()
                .collect();
            let mut life_ids = std::mem::take(&mut sup.life_ids);
            extend_life_ids(&mut life_ids, &events, &journal);
            sup.life_ids = life_ids;
        }
        router.prune_journal(sup.shard, state.next_slot);
        sup.replay_events.retain(|e| e.slot() >= state.next_slot);
        sup.base = state.clone();
        if let Some(store) = store.as_mut() {
            let slot = tick.report.slot;
            match store.write_checkpoint(sup.shard, state) {
                Ok(bytes) => obs.note_checkpoint_write(slot, sup.shard, bytes),
                Err(e) => obs.note_disk_write_error(slot, sup.shard, "checkpoint", &e),
            }
            if let Err(e) = store.prune_journal(sup.shard, state.next_slot) {
                obs.note_disk_write_error(slot, sup.shard, "prune", &e);
            }
        }
    }
    router.observe_backlog(sup.shard, tick.backlog);
    sup.total_reward = tick.total_reward;
    sup.completed = tick.completed;
    sup.expired = tick.expired;
    sup.aborted = tick.aborted;
    sup.latencies.extend_from_slice(&tick.new_latencies);
}

/// Reads `shard`'s persisted state back and checks it round-trips to the
/// authoritative in-memory copy (checkpoint byte-equal to the recovery
/// base, journal suffix equal to the router's). Returns the verified
/// disk journal on success, `None` on any corruption, truncation, or
/// divergence — every incident lands in the recovery counters, never in
/// the simulation outcome.
fn verified_disk_journal(
    store: &mut DiskStore,
    sup: &Supervised,
    router: &Router,
    obs: &mut ObsState,
    slot: u64,
) -> Option<Vec<(u64, Request)>> {
    let shard = sup.shard;
    let recovered = store.recover_shard(shard);
    if !recovered.incidents.is_clean() {
        obs.note_disk_incidents(slot, shard, &recovered.incidents);
    }
    let base_ok = match &recovered.checkpoint {
        Some(state) => journal::encode_state(state) == journal::encode_state(&sup.base),
        None => sup.base.next_slot == 0,
    };
    let suffix: Vec<(u64, Request)> = recovered
        .journal
        .into_iter()
        .filter(|(s, _)| *s >= sup.base.next_slot)
        .collect();
    if base_ok && suffix == router.journal_since(shard, sup.base.next_slot) {
        Some(suffix)
    } else {
        obs.note_disk_fallback(slot, shard);
        None
    }
}

/// The replay journal for a restart: the on-disk mirror when it verifies
/// intact, else the authoritative in-memory suffix — in which case the
/// mirror is rewritten (healed) from memory so later recoveries read
/// clean state again. Identical bytes either way; the difference is
/// only visible in the recovery counters.
fn recovery_journal(
    sup: &Supervised,
    router: &Router,
    obs: &mut ObsState,
    store: &mut Option<DiskStore>,
    slot: u64,
) -> Vec<(u64, Request)> {
    let shard = sup.shard;
    let Some(store) = store.as_mut() else {
        return router.journal_since(shard, sup.base.next_slot);
    };
    if let Some(disk) = verified_disk_journal(store, sup, router, obs, slot) {
        return disk;
    }
    let memory = router.journal_since(shard, sup.base.next_slot);
    if let Err(e) = store.rewrite_journal(shard, &memory) {
        obs.note_disk_write_error(slot, shard, "heal", &e);
    }
    if sup.base.next_slot > 0 {
        match store.write_checkpoint(shard, &sup.base) {
            Ok(bytes) => obs.note_checkpoint_write(slot, shard, bytes),
            Err(e) => obs.note_disk_write_error(slot, shard, "heal", &e),
        }
    }
    memory
}

/// Restarts a down shard: spawn a fresh worker with the recovery base,
/// the journal tail, and the handoff events recorded since the base,
/// wait for its catch-up report, and fold the recovered state in.
/// Returns `Ok(false)` if the replacement worker itself died before
/// reporting (the caller reschedules).
///
/// The catch-up wait is a *blocking* receive on purpose: replaying a long
/// prefix legitimately takes many tick intervals, and scripted faults
/// never fire during replay, so the deadline that guards live ticks would
/// only produce false positives here.
#[allow(clippy::too_many_arguments)]
fn restart(
    sup: &mut Supervised,
    router: &mut Router,
    obs: &mut ObsState,
    store: &mut Option<DiskStore>,
    cfg: &ServeConfig,
    progress: &Sender<ShardProgress>,
    horizon_hint: u64,
    slot: u64,
    detected_at: u64,
) -> Result<bool, ServeError> {
    let shard = sup.shard;
    let policy = policy_from_name(&cfg.policy, horizon_hint)?;
    let journal = recovery_journal(sup, router, obs, store, slot);
    let through = slot.saturating_sub(1);
    let events: Vec<HandoffEvent> = sup
        .replay_events
        .iter()
        .filter(|e| e.slot() >= sup.base.next_slot && e.slot() <= through)
        .cloned()
        .collect();
    // The replacement worker is a fresh incarnation: later progress
    // events from the dead one (none should exist, but a stalled worker
    // is only abandoned, never joined) must not be attributed to it.
    sup.gen += 1;
    sup.inbox.clear();
    sup.died = false;
    sup.fatal = None;
    let spec = SpawnSpec {
        plan: sup.plan.clone(),
        config: sup.sim,
        command_bound: command_bound(cfg),
        checkpoint_every: cfg.faults.checkpoint_every,
        faults: sup.faults_remaining.clone(),
        recover: Some(RecoverPlan {
            base: sup.base.clone(),
            journal,
            events,
            through,
            // The dead worker emitted lifecycle records through the slot
            // before the one whose tick it missed; replay re-emits only
            // from the missed slot on, keeping the stream duplicate-free.
            life_from: detected_at,
            life_ids: sup.life_ids.clone(),
        }),
        progress: progress.clone(),
        gen: sup.gen,
        ring: obs.ring(shard),
        step_hist: obs.step_hist(shard),
        telemetry_every: obs.telemetry_every(),
        stall: Some(obs.stall_probe(shard)),
        fine_hist: Some(obs.latency_fine()),
        probe: obs.probe(),
    };
    obs.note_restart_attempt(shard);
    sup.restarts_used += 1;
    let handle =
        ShardHandle::spawn(spec, policy).map_err(|source| ServeError::Spawn { shard, source })?;
    match handle.recv() {
        Ok(ShardReply::Recovered(rec)) => {
            obs.note_restart_ok(slot, shard, rec.replayed, slot.saturating_sub(detected_at));
            sup.total_reward = rec.total_reward;
            sup.completed = rec.completed;
            sup.expired = rec.expired;
            sup.aborted = rec.aborted;
            sup.latencies = rec.latencies;
            router.observe_backlog(shard, rec.backlog);
            router.mark_up(shard);
            sup.handle = Some(handle);
            sup.status = ShardStatus::Up;
            // Catch-up covered everything below `slot`; leases resume
            // from the watermark.
            sup.granted = slot;
            Ok(true)
        }
        Ok(ShardReply::Error(msg)) => Err(ServeError::Shard(msg)),
        Ok(other) => Err(ServeError::Shard(format!(
            "shard {shard} answered recovery with {other:?}"
        ))),
        Err(_) => {
            obs.note_restart_failed(slot, shard);
            handle.abandon();
            Ok(false)
        }
    }
}

/// Mailbox bound for one worker: a slot's worth of admissions plus the
/// handful of in-flight lease extensions a run-ahead span can leave
/// queued. Sized so the coordinator never blocks sending to a worker
/// that is still executing a lease (and a parked, stalled worker can
/// absorb everything sent before its fold deadline detects it).
fn command_bound(cfg: &ServeConfig) -> usize {
    cfg.queue_capacity + 1 + cfg.epoch_horizon.max(1) as usize
}

/// Folds one progress event into the supervisor state. Events from a
/// stale incarnation (an abandoned worker that limped on after its
/// replacement spawned) are dropped by generation.
fn ingest_progress(supervised: &mut [Supervised], p: ShardProgress) {
    let Some(sup) = supervised.get_mut(p.shard) else {
        return;
    };
    if p.gen != sup.gen {
        return;
    }
    match p.event {
        ShardEvent::Tick(tick) => sup.inbox.push_back(tick),
        ShardEvent::Error(msg) => sup.fatal = Some(msg),
        ShardEvent::Died => sup.died = true,
    }
}

/// A scheduled drain/leave handoff waiting for its source shard to be
/// up. The takeover station is pinned at schedule time so the outcome
/// does not depend on how long the source shard stays down.
struct PendingHandoff {
    station: usize,
    takeover: Option<usize>,
    leave: bool,
}

/// Schedules one drain/leave handoff: membership changes now (the
/// station stops admitting immediately), the state move executes in
/// [`process_handoffs`] once the source shard is up.
fn schedule_handoff(
    station: usize,
    leave: bool,
    plane: &mut PlacementPlane,
    pending: &mut Vec<PendingHandoff>,
) {
    let takeover = plane.nearest_active(station);
    plane.apply_handoff(station, leave, 0);
    pending.push(PendingHandoff {
        station,
        takeover,
        leave,
    });
}

/// Executes every pending handoff whose source shard is up: extract the
/// departing station's in-flight jobs as a [`mec_sim::StationSlice`],
/// record the extract/absorb pair as replay events on the shards
/// involved, and ship the slice live to the takeover shard. Cost is
/// proportional to the moved slice, never to the journal or run length.
///
/// Runs *after* the slot's restart pass, so any shard still Down here
/// has `restart_at > slot` — its eventual catch-up (through ≥ `slot`)
/// replays the events recorded now. A source shard that is Down keeps
/// the handoff pending (the jobs are safe in its replayed engine); a
/// Dead source drops it — those jobs finish in place under final
/// accounting, and nothing moves.
#[allow(clippy::too_many_arguments)]
fn process_handoffs(
    pending: &mut Vec<PendingHandoff>,
    plane: &mut PlacementPlane,
    router: &mut Router,
    supervised: &mut [Supervised],
    obs: &mut ObsState,
    backoff: u64,
    shards: usize,
    slot: u64,
) {
    let mut keep = Vec::new();
    for p in pending.drain(..) {
        let from_shard = router.shard_of(StationId(p.station));
        let local = StationId(p.station / shards);
        match supervised[from_shard].status {
            ShardStatus::Down { .. } => {
                keep.push(p);
                continue;
            }
            ShardStatus::Dead { .. } => {
                obs.note_handoff(slot, p.station, p.takeover, 0, 0, p.leave);
                continue;
            }
            ShardStatus::Up => {}
        }
        let Some(to) = p.takeover else {
            // No other active station: jobs finish where they are.
            obs.note_handoff(slot, p.station, None, 0, 0, p.leave);
            continue;
        };
        let sent = supervised[from_shard]
            .handle
            .as_ref()
            .is_some_and(|h| h.send(ShardCommand::ExtractStation(local)).is_ok());
        if !sent {
            note_down(
                &mut supervised[from_shard],
                router,
                obs,
                slot,
                backoff,
                "send_failed",
            );
            keep.push(p);
            continue;
        }
        let reply = supervised[from_shard]
            .handle
            .as_ref()
            .expect("sent implies a live handle")
            .recv();
        let (slice, ids) = match reply {
            Ok(ShardReply::Extracted(slice, ids)) => (slice, ids),
            // Died mid-extract: the extract event was never recorded, so
            // the replayed engine still owns the jobs; retry next slot.
            _ => {
                note_down(
                    &mut supervised[from_shard],
                    router,
                    obs,
                    slot,
                    backoff,
                    "disconnect",
                );
                keep.push(p);
                continue;
            }
        };
        let moved = slice.jobs.len() as u64;
        if moved == 0 {
            obs.note_handoff(slot, p.station, Some(to), 0, 0, p.leave);
            continue;
        }
        let bytes = journal::encode_slice(&slice).len() as u64;
        supervised[from_shard]
            .replay_events
            .push(HandoffEvent::Extract {
                slot,
                station: local,
            });
        let to_shard = router.shard_of(StationId(to));
        let to_local = StationId(to / shards);
        router.transfer_backlog(from_shard, to_shard, moved as usize);
        for &id in &ids {
            obs.note_life(slot, id, "handoff", to_shard as i64, to as i64);
        }
        supervised[to_shard]
            .replay_events
            .push(HandoffEvent::Absorb {
                slot,
                slice: slice.clone(),
                home: to_local,
                ids: ids.clone(),
            });
        if matches!(supervised[to_shard].status, ShardStatus::Up) {
            let ok = supervised[to_shard].handle.as_ref().is_some_and(|h| {
                h.send(ShardCommand::AbsorbStation(slice, to_local, ids))
                    .is_ok()
            });
            if !ok {
                note_down(
                    &mut supervised[to_shard],
                    router,
                    obs,
                    slot,
                    backoff,
                    "send_failed",
                );
            }
        }
        plane.note_migrated(moved, bytes);
        obs.note_handoff(slot, p.station, Some(to), moved, bytes, p.leave);
    }
    *pending = keep;
}

/// Per-slot dispatch counters for the admission-funnel event.
#[derive(Default)]
struct DispatchCounts {
    injected: u64,
    buffered: u64,
    spilled: u64,
    shed: u64,
    held: u64,
}

/// Routes one request through the placement plane and, when it proceeds,
/// through shard admission — the single dispatch path both fresh
/// arrivals and released held requests take. Every admitted request is
/// mirrored to the shard's on-disk journal when a state directory is
/// configured (write failures degrade to counters, never to outcome).
#[allow(clippy::too_many_arguments)]
fn dispatch_one(
    request: Request,
    slot: u64,
    plane: &mut PlacementPlane,
    router: &mut Router,
    supervised: &mut [Supervised],
    obs: &mut ObsState,
    store: &mut Option<DiskStore>,
    backoff: u64,
    counts: &mut DispatchCounts,
) {
    let rid = request.id().index() as u64;
    let request = match plane.route(request, slot) {
        RouteDecision::Proceed(r) => r,
        RouteDecision::Held { .. } => {
            obs.note_life(slot, rid, "hold", DRIVER, NO_BS);
            counts.held += 1;
            return;
        }
        RouteDecision::Shed => {
            obs.note_life(slot, rid, "shed", DRIVER, NO_BS);
            router.count_shed(1);
            counts.shed += 1;
            return;
        }
    };
    let holders = plane.holders_of(&request);
    if !holders.is_empty() {
        // Placement steered this request away from its home shard toward
        // a replica holder.
        obs.note_life(slot, rid, "redirect", DRIVER, NO_BS);
    }
    let decision = router.admit_with(
        &request,
        slot,
        if holders.is_empty() {
            None
        } else {
            Some(&holders)
        },
    );
    match &decision {
        Admission::Inject { shard, .. } => {
            obs.note_life(slot, rid, "admit", *shard as i64, NO_BS);
            counts.injected += 1;
        }
        Admission::Spilled { shard, .. } => {
            obs.note_life(slot, rid, "spill", *shard as i64, NO_BS);
            counts.spilled += 1;
        }
        Admission::Buffered { shard, .. } => {
            obs.note_life(slot, rid, "buffer", *shard as i64, NO_BS);
            counts.buffered += 1;
        }
        Admission::Shed => {
            obs.note_life(slot, rid, "shed", DRIVER, NO_BS);
            counts.shed += 1;
        }
    }
    match decision {
        Admission::Inject { shard, request } | Admission::Spilled { shard, request } => {
            if let Some(store) = store.as_mut() {
                if let Err(e) = store.append_arrival(shard, slot, &request) {
                    obs.note_disk_write_error(slot, shard, "append", &e);
                }
            }
            let alive = supervised[shard]
                .handle
                .as_ref()
                .is_some_and(|h| h.send(ShardCommand::Inject(request)).is_ok());
            if !alive {
                // The worker died since its last tick. The request is
                // already journaled, so replay delivers it.
                note_down(
                    &mut supervised[shard],
                    router,
                    obs,
                    slot,
                    backoff,
                    "send_failed",
                );
            }
        }
        Admission::Buffered { shard, request } => {
            if let Some(store) = store.as_mut() {
                if let Err(e) = store.append_arrival(shard, slot, &request) {
                    obs.note_disk_write_error(slot, shard, "append", &e);
                }
            }
        }
        Admission::Shed => {}
    }
}

/// Runs the serving loop to completion over a finite load.
///
/// `on_snapshot` observes each periodic [`Snapshot`] as it is produced
/// (the final snapshot is returned in the outcome, not passed to the
/// callback). The run ends when every arrival has been dispatched and all
/// shard backlogs are empty, or `drain_slots` after the last arrival,
/// whichever comes first.
///
/// # Errors
///
/// * [`ServeError::Policy`] — unknown policy name (checked before any
///   thread spawns);
/// * [`ServeError::Chaos`] — the chaos spec targets a shard that does not
///   exist;
/// * [`ServeError::Shard`] — a policy produced an illegal schedule
///   (fatal: a restart would replay the same error);
/// * [`ServeError::Spawn`] — the OS refused a worker thread;
/// * [`ServeError::WorkerDied`] — a worker died and could not be revived
///   even for final accounting.
///
/// # Panics
///
/// Panics if `cfg.shards` is 0 or exceeds the station count (see
/// [`partition`]).
#[allow(clippy::too_many_lines)]
pub fn serve<F: FnMut(&Snapshot)>(
    topo: &Topology,
    load: LoadGen,
    cfg: &ServeConfig,
    mut on_snapshot: F,
) -> Result<ServeOutcome, ServeError> {
    if let Some(max) = cfg.chaos.max_shard() {
        if max >= cfg.shards {
            return Err(ServeError::Chaos(format!(
                "fault targets shard {max} but the run has only {} shards",
                cfg.shards
            )));
        }
    }
    if !cfg.chaos.disk_faults.is_empty() && cfg.state_dir.is_none() {
        return Err(ServeError::Chaos(
            "disk fault injection needs a state directory (--state-dir)".to_string(),
        ));
    }
    let mut store: Option<DiskStore> = match &cfg.state_dir {
        Some(dir) => Some(DiskStore::create(dir, cfg.shards).map_err(ServeError::Disk)?),
        None => None,
    };
    let mut merged_ops = cfg.ops.clone();
    merged_ops.ops.extend(cfg.chaos.ops.iter().copied());
    let mut plane =
        PlacementPlane::new(topo, &cfg.placement, merged_ops).map_err(ServeError::Reconfig)?;
    let plans = partition(topo, cfg.shards);
    let mut router = Router::new(cfg.shards, cfg.queue_capacity);
    router.set_station_counts(plans.iter().map(|p| p.topo.station_count()).collect());
    router.set_degraded_policy(cfg.faults.degraded);
    router.set_journal_cap(cfg.faults.journal_cap);
    debug_assert!(router.consistent_with(&plans));

    // The policy's horizon hint: everything a finite load can need.
    let last_arrival = load.max_arrival();
    let horizon_hint = last_arrival.saturating_add(cfg.drain_slots);
    let mut obs = ObsState::new(cfg.shards, cfg.obs.clone());
    mec_obs::event!(
        obs,
        0u64,
        "run_start",
        shards = cfg.shards,
        policy = cfg.policy.as_str(),
        seed = cfg.sim.seed,
        requests = load.len(),
    );
    // The shared progress plane: every worker (and every restart
    // incarnation) streams its per-slot reports here. The coordinator
    // keeps its own sender so the channel never disconnects while
    // workers come and go.
    let (progress_tx, progress_rx): (Sender<ShardProgress>, Receiver<ShardProgress>) =
        std::sync::mpsc::channel();
    let mut supervised: Vec<Supervised> = plans
        .into_iter()
        .map(|plan| {
            let shard = plan.shard;
            let policy = policy_from_name(&cfg.policy, horizon_hint)?;
            let sim = SlotConfig {
                seed: shard_seed(cfg.sim.seed, shard),
                horizon: horizon_hint,
                ..cfg.sim
            };
            let base = EngineState::genesis(plan.topo.station_count());
            let faults_remaining = cfg.chaos.faults_for(shard);
            let chaos_faults: Vec<FaultSpec> = cfg
                .chaos
                .faults
                .iter()
                .filter(|f| f.shard == shard)
                .copied()
                .collect();
            let spec = SpawnSpec {
                plan: plan.clone(),
                config: sim,
                command_bound: command_bound(cfg),
                checkpoint_every: cfg.faults.checkpoint_every,
                faults: faults_remaining.clone(),
                recover: None,
                progress: progress_tx.clone(),
                gen: 0,
                ring: obs.ring(shard),
                step_hist: obs.step_hist(shard),
                telemetry_every: obs.telemetry_every(),
                stall: Some(obs.stall_probe(shard)),
                fine_hist: Some(obs.latency_fine()),
                probe: obs.probe(),
            };
            let handle = ShardHandle::spawn(spec, policy)
                .map_err(|source| ServeError::Spawn { shard, source })?;
            Ok(Supervised {
                shard,
                plan,
                sim,
                handle: Some(handle),
                status: ShardStatus::Up,
                restarts_used: 0,
                gen: 0,
                granted: 0,
                inbox: VecDeque::new(),
                died: false,
                fatal: None,
                faults_remaining,
                chaos_faults,
                base,
                replay_events: Vec::new(),
                total_reward: 0.0,
                completed: 0,
                expired: 0,
                aborted: 0,
                latencies: Vec::new(),
                life_ids: Vec::new(),
            })
        })
        .collect::<Result<_, ServeError>>()?;

    let mut clock = Clock::new(cfg.clock);
    let mut arrivals = load.into_requests().into_iter().peekable();
    let mut snapshots_emitted = 0;
    let mut pending: Vec<PendingHandoff> = Vec::new();
    let backoff = cfg.faults.restart_backoff_slots;
    let mut slo_engine = SloEngine::new(cfg.slo.clone());
    // Driver-side phase split (wall-clock, registry-only): how much of
    // the wall is spent dispatching, recovering shards, and folding at
    // the watermark (granting leases plus waiting for shard reports).
    // The remainder is reconfig/snapshot overhead.
    let mut dispatch_ms = 0.0f64;
    let mut recovery_ms = 0.0f64;
    let mut fold_ms = 0.0f64;
    let horizon = cfg.epoch_horizon.max(1);
    // At least one slot past the last arrival (and past the last
    // scheduled reconfiguration effect), so every request is dispatched
    // (and counted as admitted or shed) even with drain 0.
    let hard_stop = last_arrival
        .max(plane.last_op_effect_slot())
        .saturating_add(cfg.drain_slots.max(1));

    loop {
        let slot = clock.ticks();

        // Scripted disk faults fire at the top of their slot, before any
        // persistence or recovery touches the files.
        if let Some(store) = store.as_mut() {
            for fault in cfg.chaos.disk_faults_due(slot) {
                match store.apply_fault(&fault) {
                    Ok(bytes) => obs.note_disk_fault(slot, &fault, bytes),
                    Err(e) => obs.note_disk_write_error(slot, fault.shard, "fault", &e),
                }
            }
        }

        // Reconfiguration phase: drain handoffs whose window expired, then
        // ops scheduled for this slot. Membership changes immediately; the
        // state move itself executes in the pending pass below, after the
        // supervisor has had its restart chance.
        if plane.is_live() {
            for station in plane.drains_due(slot) {
                schedule_handoff(station, false, &mut plane, &mut pending);
            }
            for op in plane.ops_due(slot) {
                obs.note_reconfig(slot, &op);
                match op {
                    ReconfigOp::BsJoin { station, .. } => plane.apply_join(station),
                    ReconfigOp::BsLeave { station, .. } => {
                        schedule_handoff(station, true, &mut plane, &mut pending);
                    }
                    ReconfigOp::BsDrain {
                        station,
                        slot: at,
                        window,
                    } => plane.apply_drain(station, at.saturating_add(window)),
                }
            }
        }

        // Restart shards whose backoff (or scripted recovery slot) is due.
        // This runs before dispatch, so the journal holds only arrivals
        // from slots before `slot` and catch-up through `slot - 1` leaves
        // the shard exactly at the barrier.
        let recovery_start = std::time::Instant::now();
        for sup in &mut supervised {
            let ShardStatus::Down {
                detected_at,
                restart_at,
            } = sup.status
            else {
                continue;
            };
            if restart_at > slot {
                continue;
            }
            if sup.restarts_used >= cfg.faults.max_restarts {
                sup.status = ShardStatus::Dead { detected_at };
                continue;
            }
            let revived = restart(
                sup,
                &mut router,
                &mut obs,
                &mut store,
                cfg,
                &progress_tx,
                horizon_hint,
                slot,
                detected_at,
            )?;
            if !revived {
                sup.status = ShardStatus::Down {
                    detected_at,
                    restart_at: slot + backoff.max(1),
                };
            }
        }
        recovery_ms += recovery_start.elapsed().as_secs_f64() * 1e3;

        // Pending drain/leave handoffs execute once their source shard is
        // up — after the restart pass, so a shard that stays down keeps
        // `restart_at > slot` and its catch-up replays the events
        // recorded here.
        if !pending.is_empty() {
            process_handoffs(
                &mut pending,
                &mut plane,
                &mut router,
                &mut supervised,
                &mut obs,
                backoff,
                cfg.shards,
                slot,
            );
        }

        // Installs that finished their latency window become resident
        // before this slot's dispatch, so their held requests hit.
        for done in plane.complete_installs(slot) {
            obs.note_install_done(slot, &done);
        }

        // Dispatch requests released from install holds, then every
        // arrival due by this slot — all through the placement plane and
        // admission, counting each outcome for the admission-funnel event.
        let shed_down_before = router.shed_while_down();
        let place_before = plane.stats().clone();
        let mut counts = DispatchCounts::default();
        let dispatch_start = std::time::Instant::now();
        for request in plane.release_due(slot) {
            obs.note_life(slot, request.id().index() as u64, "release", DRIVER, NO_BS);
            dispatch_one(
                request,
                slot,
                &mut plane,
                &mut router,
                &mut supervised,
                &mut obs,
                &mut store,
                backoff,
                &mut counts,
            );
        }
        while arrivals.peek().is_some_and(|r| r.arrival_slot() <= slot) {
            let Some(request) = arrivals.next() else {
                break;
            };
            dispatch_one(
                request,
                slot,
                &mut plane,
                &mut router,
                &mut supervised,
                &mut obs,
                &mut store,
                backoff,
                &mut counts,
            );
        }
        // Per-slot durability point: everything this slot admitted is on
        // disk before the slot's lease can execute.
        if let Some(store) = store.as_mut() {
            if let Err(e) = store.flush() {
                obs.note_disk_write_error(slot, usize::MAX, "flush", &e);
            }
        }
        dispatch_ms += dispatch_start.elapsed().as_secs_f64() * 1e3;
        let shed_down = router.shed_while_down() - shed_down_before;
        obs.note_admission(
            slot,
            counts.injected,
            counts.buffered,
            counts.spilled,
            counts.shed.saturating_sub(shed_down),
            shed_down,
            counts.held,
        );
        let place_delta = plane.stats().delta_since(&place_before);
        obs.note_placement(slot, &place_delta);

        // Watermark phase: extend each live shard's lease (possibly many
        // slots ahead), then fold exactly this slot's tick reports in
        // shard order.
        let slo_active = !slo_engine.is_empty();
        let (good_before, bad_before, lat_lens) = if slo_active {
            (
                supervised.iter().map(|s| s.completed).sum::<usize>(),
                supervised
                    .iter()
                    .map(|s| s.expired + s.aborted)
                    .sum::<usize>(),
                supervised
                    .iter()
                    .map(|s| s.latencies.len())
                    .collect::<Vec<_>>(),
            )
        } else {
            (0, 0, Vec::new())
        };
        clock.tick();
        let fold_start = std::time::Instant::now();
        // Grant pass. A shard may run ahead of the coordinator only
        // while the coordinator can prove it will send that shard
        // nothing for the leased slots: no pending arrivals or held
        // releases inside the lease, no reconfig ops or handoffs
        // outstanding, every peer up (so no extract/absorb or restart
        // traffic), and no scripted fault inside the span (the fault
        // must fire at its exact slot, after that slot's injections).
        let run_ahead_ok = horizon > 1
            && cfg.clock == ClockMode::Virtual
            && pending.is_empty()
            && supervised.iter().all(|s| s.status == ShardStatus::Up)
            && plane.ops_exhausted()
            && !plane.has_held()
            && !plane.has_pending_drains();
        let global_through = if run_ahead_ok {
            let mut through = slot + horizon - 1;
            if let Some(next) = arrivals.peek() {
                through = through.min(next.arrival_slot().saturating_sub(1));
            }
            through.min(hard_stop.saturating_sub(1)).max(slot)
        } else {
            slot
        };
        for sup in &mut supervised {
            if sup.status != ShardStatus::Up {
                continue;
            }
            let mut through = global_through;
            for fault in &sup.faults_remaining {
                if fault.slot > slot {
                    through = through.min(fault.slot - 1);
                }
            }
            if sup.granted > through {
                continue; // current lease already covers this slot
            }
            let alive = sup
                .handle
                .as_ref()
                .is_some_and(|h| h.send(ShardCommand::Grant { through }).is_ok());
            if alive {
                sup.granted = through + 1;
            } else {
                note_down(sup, &mut router, &mut obs, slot, backoff, "send_failed");
            }
        }
        // Fold wait: pull progress events until every live shard has
        // buffered this slot's tick (or signalled death/error). The
        // deadline window restarts on every event, so a long grant
        // span never trips it while progress is still flowing.
        let deadline = cfg.faults.tick_timeout_ms;
        loop {
            let waiting = supervised.iter().any(|sup| {
                sup.status == ShardStatus::Up
                    && sup.inbox.is_empty()
                    && !sup.died
                    && sup.fatal.is_none()
            });
            if !waiting {
                break;
            }
            let event = if deadline > 0 {
                match progress_rx.recv_timeout(Duration::from_millis(deadline)) {
                    Ok(p) => Some(p),
                    Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
                }
            } else {
                // Deadline 0 disables stall detection; the driver
                // holds a sender clone, so this never disconnects.
                progress_rx.recv().ok()
            };
            match event {
                Some(p) => ingest_progress(&mut supervised, p),
                // Deadline elapsed: every still-missing shard is
                // stalled; the fold pass below marks them down.
                None => break,
            }
        }
        // Fold pass in shard order — the ordering half of the
        // determinism contract. A missing tick carries its detection
        // signal: a death notice is a crash, a bare deadline a stall.
        for sup in &mut supervised {
            if sup.status != ShardStatus::Up {
                continue;
            }
            if let Some(tick) = sup.inbox.pop_front() {
                debug_assert_eq!(tick.report.slot, slot, "shard folded out of order");
                apply_tick(sup, &mut router, &mut obs, &mut store, &tick);
            } else if let Some(msg) = sup.fatal.take() {
                return Err(ServeError::Shard(msg));
            } else {
                let reason = if sup.died { "disconnect" } else { "timeout" };
                note_down(sup, &mut router, &mut obs, slot, backoff, reason);
            }
        }
        for sup in &supervised {
            if sup.status != ShardStatus::Up {
                obs.note_degraded(sup.shard);
            }
        }
        fold_ms += fold_start.elapsed().as_secs_f64() * 1e3;

        let slots_done = clock.ticks();
        obs.set_slot(slots_done);
        obs.note_driver_stall(
            clock.elapsed_secs() * 1e3,
            dispatch_ms,
            recovery_ms,
            fold_ms,
        );

        // SLO evaluation over this slot's deterministic deltas: completions
        // (with their latencies) are good events; expirations, aborts, and
        // sheds are bad. Runs before the ring drain so breach/recovery
        // events land in the trace at the slot that caused them.
        if slo_active {
            let good = supervised
                .iter()
                .map(|s| s.completed)
                .sum::<usize>()
                .saturating_sub(good_before);
            let lost = supervised
                .iter()
                .map(|s| s.expired + s.aborted)
                .sum::<usize>()
                .saturating_sub(bad_before);
            let latencies: Vec<f64> = supervised
                .iter()
                .zip(&lat_lens)
                .flat_map(|(s, &seen)| s.latencies[seen.min(s.latencies.len())..].iter().copied())
                .collect();
            let transitions = slo_engine.observe_slot(SlotSample {
                good: good as u64,
                bad: (lost as u64) + counts.shed,
                latencies_ms: &latencies,
            });
            obs.note_slo(slot, &slo_engine, &transitions);
        }
        // Worker-side events join the trace here, at the watermark, in
        // shard order. Events a run-ahead worker already emitted for
        // future slots stay held back until their slot folds, so the
        // trace is byte-identical for every epoch horizon.
        obs.drain_rings_through(slot);
        if cfg.snapshot_every > 0 && slots_done.is_multiple_of(cfg.snapshot_every) {
            obs.sync_router(&router);
            obs.sync_placement(plane.state());
            let samples: Vec<f64> = supervised
                .iter()
                .flat_map(|s| s.latencies.iter().copied())
                .collect();
            let snap = Snapshot {
                slot: slots_done,
                shards: cfg.shards,
                admitted: router.admitted(),
                shed: router.shed(),
                completed: supervised.iter().map(|s| s.completed).sum(),
                expired: supervised.iter().map(|s| s.expired).sum(),
                aborted: supervised.iter().map(|s| s.aborted).sum(),
                unserved: 0,
                total_reward: supervised.iter().map(|s| s.total_reward).sum(),
                latency: LatencyStats::from_samples(&samples),
                queue_depths: router.backlogs().to_vec(),
                faults: obs.fault_stats(),
                placement: plane.stats().clone(),
                slots_per_sec: Some(slots_done as f64 / clock.elapsed_secs().max(1e-9)),
            };
            on_snapshot(&snap);
            snapshots_emitted += 1;
        }

        let drained = arrivals.peek().is_none()
            && router.backlogs().iter().all(|&b| b == 0)
            && !plane.has_held()
            && plane.ops_exhausted()
            && !plane.has_pending_drains()
            && pending.is_empty();
        if drained || slots_done >= hard_stop {
            break;
        }
    }

    // The hard stop can cut the run off with requests still parked behind
    // in-flight installs; they count as shed so admitted + shed covers
    // every arrival.
    let abandoned = plane.abandon_held();
    if abandoned > 0 {
        router.count_shed(abandoned);
    }

    // Terminal accounting, merged in shard order. Down (or given-up)
    // shards are revived with a catch-up through the final slot so every
    // admitted request appears in exactly one shard's metrics; a worker
    // that dies on Finish gets one more revival. Failures here do not
    // leave poisoned channels behind: every handle's Drop abandons-then-
    // joins, so teardown completes even when one shard already exited.
    let end_slot = clock.ticks();
    let mut metrics = Metrics::new();
    for sup in &mut supervised {
        let shard = sup.shard;
        let mut revivals = 0u32;
        loop {
            if sup.status != ShardStatus::Up {
                let detected_at = match sup.status {
                    ShardStatus::Down { detected_at, .. } | ShardStatus::Dead { detected_at } => {
                        detected_at
                    }
                    ShardStatus::Up => end_slot,
                };
                revivals += 1;
                if revivals > 2 {
                    return Err(ServeError::WorkerDied(shard));
                }
                let revived = restart(
                    sup,
                    &mut router,
                    &mut obs,
                    &mut store,
                    cfg,
                    &progress_tx,
                    horizon_hint,
                    end_slot,
                    detected_at,
                )?;
                if !revived {
                    continue;
                }
            }
            let Some(handle) = sup.handle.take() else {
                return Err(ServeError::WorkerDied(shard));
            };
            if handle.send(ShardCommand::Finish).is_err() {
                handle.abandon();
                router.mark_down(shard);
                sup.status = ShardStatus::Down {
                    detected_at: end_slot,
                    restart_at: end_slot,
                };
                continue;
            }
            let reply = if deadline_for(cfg) > 0 {
                handle
                    .recv_timeout(Duration::from_millis(deadline_for(cfg)))
                    .ok()
            } else {
                handle.recv().ok()
            };
            match reply {
                Some(ShardReply::Final(fin)) => {
                    metrics.merge(&fin.metrics);
                    handle.join();
                    break;
                }
                Some(ShardReply::Error(msg)) => return Err(ServeError::Shard(msg)),
                Some(other) => {
                    return Err(ServeError::Shard(format!(
                        "shard {shard} answered Finish with {other:?}"
                    )))
                }
                None => {
                    handle.abandon();
                    router.mark_down(shard);
                    sup.status = ShardStatus::Down {
                        detected_at: end_slot,
                        restart_at: end_slot,
                    };
                }
            }
        }
    }
    let wall_secs = clock.elapsed_secs();

    // Final disk audit: read every shard's persisted state back and check
    // it round-trips to the in-memory truth, so corruption injected after
    // the last restart still surfaces in the recovery counters.
    if let Some(store) = store.as_mut() {
        for sup in &supervised {
            let _ = verified_disk_journal(store, sup, &router, &mut obs, end_slot);
        }
    }
    drop(supervised);

    obs.sync_router(&router);
    obs.sync_placement(plane.state());
    obs.drain_rings_through(u64::MAX);
    let final_snapshot = Snapshot {
        slot: end_slot,
        shards: cfg.shards,
        admitted: router.admitted(),
        shed: router.shed(),
        completed: metrics.completed(),
        expired: metrics.expired(),
        aborted: metrics.aborted(),
        unserved: metrics.unserved(),
        total_reward: metrics.total_reward(),
        latency: LatencyStats::from_samples(metrics.latencies_ms()),
        queue_depths: router.backlogs().to_vec(),
        faults: obs.fault_stats(),
        placement: plane.stats().clone(),
        slots_per_sec: None,
    };
    mec_obs::event!(
        obs,
        end_slot,
        "run_end",
        admitted = final_snapshot.admitted,
        shed = final_snapshot.shed,
        completed = final_snapshot.completed,
        expired = final_snapshot.expired,
        aborted = final_snapshot.aborted,
        unserved = final_snapshot.unserved,
        total_reward = final_snapshot.total_reward,
    );
    // Wall-clock stall summary events are opt-in (`--stall-events`):
    // their payloads vary run to run, which would break trace
    // byte-identity for same-seed comparisons.
    if obs.stall_events() {
        obs.note_stall_summary(
            end_slot,
            wall_secs * 1e3,
            dispatch_ms,
            recovery_ms,
            fold_ms,
            end_slot,
        );
    }
    obs.note_driver_stall(wall_secs * 1e3, dispatch_ms, recovery_ms, fold_ms);
    obs.flush(end_slot);
    Ok(ServeOutcome {
        final_snapshot,
        metrics,
        slots_run: end_slot,
        snapshots_emitted,
        wall_secs,
        ops_journal: if plane.is_live() {
            plane.ops_journal()
        } else {
            String::new()
        },
    })
}

/// The per-slot reply deadline in milliseconds (0 = none).
const fn deadline_for(cfg: &ServeConfig) -> u64 {
    cfg.faults.tick_timeout_ms
}
