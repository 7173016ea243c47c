//! Learner introspection surfaced through [`crate::SlotPolicy`].
//!
//! A policy may expose its internal learning state — per-arm pull
//! counts, confidence bounds, the active set — as a
//! [`PolicyTelemetry`] snapshot. The serving runtime polls it at a
//! configurable slot interval and turns it into live gauges and trace
//! events (arm-elimination timeline, running regret). Everything here
//! is plain deterministic data derived from the policy's own state, so
//! telemetry never perturbs a run and two same-seed runs report
//! identical snapshots.

use serde::{Deserialize, Serialize};

/// One bandit arm's state at a point in virtual time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArmTelemetry {
    /// Arm index in the discretized domain.
    pub arm: usize,
    /// The arm's value in problem units (threshold MHz for `DynamicRR`).
    pub value: f64,
    /// Times the arm has been pulled.
    pub pulls: u64,
    /// Empirical mean of the normalized reward.
    pub mean: f64,
    /// Upper confidence bound (infinite for an unpulled arm).
    pub ucb: f64,
    /// Lower confidence bound (negative-infinite for an unpulled arm).
    pub lcb: f64,
    /// Whether the arm is still in the active (non-eliminated) set.
    /// Learners that never eliminate report `true` throughout.
    pub active: bool,
}

/// A deterministic snapshot of a learning policy's internal state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyTelemetry {
    /// Policy name (matches [`crate::SlotPolicy::name`]).
    pub policy: String,
    /// Total learner updates so far.
    pub total_pulls: u64,
    /// Index of the current best arm.
    pub best_arm: usize,
    /// The best arm's value in problem units.
    pub best_value: f64,
    /// Cumulative normalized reward fed to the learner.
    pub cum_reward: f64,
    /// Running regret proxy against the empirical-best arm:
    /// `total_pulls * best_mean - cum_reward`. This is the hindsight
    /// comparison available online (the true `OPT_s` of Theorem 3 needs
    /// the offline optimum); it is exact in the limit where the best
    /// arm's empirical mean converges.
    pub regret_proxy: f64,
    /// Per-arm state, indexed by arm. Empty when the learner exposes no
    /// per-arm statistics.
    pub arms: Vec<ArmTelemetry>,
    /// Slot-LP solver counters, when the policy drives an LP solver
    /// (`None` for LP-free policies).
    pub solver: Option<SolverTelemetry>,
}

impl PolicyTelemetry {
    /// Number of arms still active (all arms, for never-eliminating
    /// learners).
    pub fn active_arms(&self) -> usize {
        self.arms.iter().filter(|a| a.active).count()
    }
}

/// One arm-lifecycle event drained from an attached learner probe
/// (`mec-bandit`'s `ArmProbe`), in policy-agnostic wire form: the kind
/// travels as its stable lowercase name so consumers need no bandit-crate
/// types.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LearnerEvent {
    /// The learner's total pull count when the event fired.
    pub step: u64,
    /// Arm index in the discretized domain.
    pub arm: usize,
    /// The arm's value in problem units (threshold MHz for `DynamicRR`).
    pub value: f64,
    /// Event kind: `activate` (the arm was active when the probe
    /// attached), `sample` and `bound_update` (the arm was pulled), or
    /// `eliminate` (the arm left the active set).
    pub kind: &'static str,
    /// The arm's pull count after the event.
    pub pulls: u64,
    /// The arm's mean after the event.
    pub mean: f64,
    /// The arm's confidence radius after the event.
    pub radius: f64,
    /// The observed normalized reward (`sample` events only).
    pub reward: Option<f64>,
    /// The best active arm's mean after the event (`sample` only) —
    /// the per-step online oracle for regret accounting.
    pub oracle: Option<f64>,
}

/// Slot-LP solver counters, drained alongside [`PolicyTelemetry`].
/// All counts are deterministic (derived from pivot/refactorization
/// arithmetic, never wall-clock), so they are safe in traces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolverTelemetry {
    /// LPs solved.
    pub solves: u64,
    /// Warm-started solves that converged from the reused basis.
    pub warm_hits: u64,
    /// Warm starts that fell back to a cold solve.
    pub warm_fallbacks: u64,
    /// Solves with no warm basis available.
    pub cold_starts: u64,
    /// Simplex pivots across all solves.
    pub pivots: u64,
    /// Basis refactorizations across all solves.
    pub refactorizations: u64,
}

/// A compact digest of one slot's scheduling decision, recorded by the
/// policy when a probe is attached and fed to the flight recorder.
/// Everything derives from the chosen allocations and learner state —
/// no wall-clock — so snapshot streams are byte-reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// The slot the decision was made for.
    pub slot: u64,
    /// The arm played this slot.
    pub arm: usize,
    /// The arm's value in problem units (threshold MHz).
    pub value: f64,
    /// Arms still active in the learner.
    pub active_arms: u64,
    /// The learner's current best arm.
    pub best_arm: usize,
    /// The best arm's mean.
    pub best_mean: f64,
    /// Allocations granted this slot.
    pub granted: u64,
    /// Total compute granted this slot (MHz).
    pub granted_mhz: f64,
    /// FNV-1a hash over the chosen `(request, station, grant)` triples —
    /// two runs that made the same decision agree on this digest.
    pub assign_digest: u64,
}
