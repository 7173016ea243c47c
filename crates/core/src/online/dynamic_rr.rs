//! `DynamicRR` — Algorithm 3: the online learning scheduler (Theorem 3).
//!
//! Each time slot:
//!
//! 1. **Threshold learning** (lines 1-9): the continuous threshold range
//!    `Z = [C^th_min, C^th_max]` is discretized into `κ` arms
//!    ([`mec_bandit::LipschitzDomain`]); a successive-elimination policy
//!    tries the active arms round-robin and deactivates any arm whose UCB
//!    falls below another's LCB. The selected arm's value is this slot's
//!    minimum-share threshold `C^th_t`.
//! 2. **Admission** (lines 10-11): arrived requests are sorted by expected
//!    data rate and admitted into `R_t` while the network-wide equal share
//!    stays at least `C^th_t` — the round-robin guard that prevents burst
//!    slots from starving everyone at once.
//! 3. **Assignment** (line 12): admitted jobs go to deadline-feasible
//!    stations. The default mode load-balances (most-residual-capacity
//!    station) with per-station water-filling — the fast equivalent of the
//!    `Heu` + **LP-PT** step; `use_lp` switches to actually solving LP-PT
//!    over the admitted jobs' requests each slot (faithful, used in
//!    fidelity tests; on a 2-vCPU host it takes ~12× the on-CPU time on a
//!    25-request, 5-station world and ~54× at |R| = 300, 20 stations).
//! 4. **Anti-starvation residual pass** (§V's stated purpose: "avoid their
//!    scheduling starvation"): leftover capacity goes to the most-starved
//!    unserved requests — a request's response latency (Eq. 2) is fixed at
//!    *first* service, so an early slice anchors its deadline while the
//!    bulk of its stream is served later.
//! 5. **Feedback**: rewards completed this slot, normalized by the largest
//!    slot reward seen so far, update the chosen arm.
//!
//! # Cost of a slot
//!
//! The fast path costs O(n log n + n log S) for `n` live jobs and `S`
//! stations, plus an O(S) deadline-filtered scan for each job that has not
//! started yet. Admission stable-sorts rate keys computed once per view. A
//! started job may run on any station, so it reads the one with the most
//! residual capacity from the root of a tournament tree
//! (`SlotCapacity`, ties to the highest index as `max_by` resolves
//! them), and its reservation updates the tree in O(log S). The
//! keep-alive pass marks served jobs while the grants are written and
//! keeps a second tree over free capacity. Water-filling and every other
//! buffer live in `SlotBuffers` and are reused from slot to slot.

use crate::model::{Instance, InstanceParams, Network};
use crate::online::{startable_at, useful_compute, SlotCapacity, StationMax};
use crate::slotlp::{ColumnCache, SlotLp, SlotLpSolver, SolverStats, Truncation};
use mec_bandit::{
    ArmId, ArmProbe, BanditPolicy, ConfidenceSchedule, DiscountedUcb, EpsilonGreedy,
    LipschitzDomain, SuccessiveElimination, ThompsonBeta, Ucb1,
};
use mec_lp::SolverKind;
use mec_sim::sharing::WaterFill;
use mec_sim::{Allocation, SlotContext, SlotPolicy};
use mec_topology::station::StationId;
use mec_topology::units::{total_cmp, Compute, DataRate};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

/// Which bandit drives the threshold (successive elimination is the
/// paper's choice; the others are ablations).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Learner {
    /// Successive elimination (Algorithm 3, the paper's learner).
    #[default]
    SuccessiveElimination,
    /// UCB1.
    Ucb1,
    /// ε-greedy with the given exploration probability.
    EpsilonGreedy {
        /// Exploration probability in `[0, 1]`.
        epsilon: f64,
    },
    /// Thompson sampling with Beta posteriors.
    Thompson,
    /// Discounted UCB with the given discount factor — adapts when the
    /// reward landscape drifts (arrival ramps, load swings).
    DiscountedUcb {
        /// Discount factor in `(0, 1]`.
        gamma: f64,
    },
}

/// The concrete learner behind [`DynamicRr`], delegating the
/// [`BanditPolicy`] protocol.
#[derive(Debug, Clone)]
enum LearnerPolicy {
    Se(SuccessiveElimination),
    Ucb(Ucb1),
    Eps(EpsilonGreedy),
    Thompson(ThompsonBeta),
    Ducb(DiscountedUcb),
}

impl LearnerPolicy {
    fn new(kind: Learner, kappa: usize, horizon: u64) -> Self {
        match kind {
            Learner::SuccessiveElimination => Self::Se(SuccessiveElimination::new(
                kappa,
                ConfidenceSchedule::Horizon(horizon),
            )),
            Learner::Ucb1 => Self::Ucb(Ucb1::new(kappa)),
            Learner::EpsilonGreedy { epsilon } => {
                Self::Eps(EpsilonGreedy::new(kappa, epsilon, horizon ^ 0xE9))
            }
            Learner::Thompson => Self::Thompson(ThompsonBeta::new(kappa, horizon ^ 0x7B)),
            Learner::DiscountedUcb { gamma } => Self::Ducb(DiscountedUcb::new(kappa, gamma)),
        }
    }

    fn as_policy_mut(&mut self) -> &mut dyn BanditPolicy {
        match self {
            Self::Se(p) => p,
            Self::Ucb(p) => p,
            Self::Eps(p) => p,
            Self::Thompson(p) => p,
            Self::Ducb(p) => p,
        }
    }

    fn as_policy(&self) -> &dyn BanditPolicy {
        match self {
            Self::Se(p) => p,
            Self::Ucb(p) => p,
            Self::Eps(p) => p,
            Self::Thompson(p) => p,
            Self::Ducb(p) => p,
        }
    }
}

/// Tuning knobs for [`DynamicRr`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DynamicRrConfig {
    /// `C^th_min` in MHz (default 100).
    pub threshold_lo_mhz: f64,
    /// `C^th_max` in MHz (default 1000 — one resource slot).
    pub threshold_hi_mhz: f64,
    /// Number of bandit arms `κ` (default 9).
    pub kappa: usize,
    /// Horizon hint `T` for the confidence radii (default 400 slots).
    pub horizon_hint: u64,
    /// Solve LP-PT per slot instead of the fast water-filling assignment.
    pub use_lp: bool,
    /// Which bandit learns the threshold (ablation hook).
    pub learner: Learner,
}

impl Default for DynamicRrConfig {
    fn default() -> Self {
        Self {
            threshold_lo_mhz: 100.0,
            threshold_hi_mhz: 1000.0,
            kappa: 9,
            horizon_hint: 400,
            use_lp: false,
            learner: Learner::SuccessiveElimination,
        }
    }
}

/// Algorithm 3 (`DynamicRR`).
#[derive(Debug, Clone)]
pub struct DynamicRr {
    config: DynamicRrConfig,
    domain: LipschitzDomain,
    policy: LearnerPolicy,
    /// Arm pulled this slot (fed back in [`SlotPolicy::observe`]).
    current_arm: Option<ArmId>,
    /// Running normalizer for the bandit reward signal.
    max_slot_reward: f64,
    /// Cumulative normalized reward fed to the learner (telemetry).
    cum_reward: f64,
    /// The parameters [`Self::with_lp`] took from its instance: the slot
    /// LP's `C_l`, and the `C_unit` and slot length the engine must share
    /// (checked in debug builds). `None` uses the default `C_l`.
    lp_params: Option<InstanceParams>,
    /// Persistent slot-LP solver carrying the warm-start cache: the
    /// revised simplex, warm-started across slots.
    lp_solver: SlotLpSolver,
    /// The last slot's LP, rebuilt in place each slot so its vectors keep
    /// their capacity (empty in fast mode).
    slot_lp: SlotLp,
    /// The admitted requests' LP columns, keyed by job id, kept across slots.
    lp_columns: ColumnCache,
    /// The learner's arm-lifecycle recorder (detached by default).
    probe: ArmProbe,
    /// The last slot's decision digest (recorded only while the learner
    /// probe is attached — the flight recorder's per-slot feed).
    last_decision: Option<mec_sim::DecisionRecord>,
    /// The slot decision's working state.
    buffers: SlotBuffers,
}

impl DynamicRr {
    /// Creates the policy: the fast (water-filling) variant, or LP-PT when
    /// `config.use_lp` is set, with the default `C_l`.
    ///
    /// # Panics
    ///
    /// Panics if the threshold range is inverted or `kappa == 0`.
    pub fn new(config: DynamicRrConfig) -> Self {
        let domain = LipschitzDomain::new(
            config.threshold_lo_mhz,
            config.threshold_hi_mhz,
            config.kappa,
        );
        let policy = LearnerPolicy::new(config.learner, config.kappa, config.horizon_hint);
        Self {
            config,
            domain,
            policy,
            current_arm: None,
            max_slot_reward: 0.0,
            cum_reward: 0.0,
            lp_params: None,
            lp_solver: SlotLpSolver::new(SolverKind::default()),
            slot_lp: SlotLp::empty(),
            lp_columns: ColumnCache::default(),
            probe: ArmProbe::default(),
            last_decision: None,
            buffers: SlotBuffers::default(),
        }
    }

    /// Creates the faithful LP-PT variant (slow; solves one LP per slot):
    /// [`Self::new`] with `use_lp` set and the instance's `C_l`. The rest
    /// of the instance is dropped; its `C_unit` and slot length must be
    /// the engine's.
    pub fn with_lp(instance: Instance, mut config: DynamicRrConfig) -> Self {
        config.use_lp = true;
        let mut s = Self::new(config);
        s.lp_params = Some(*instance.params());
        s
    }

    /// The bandit's current best threshold estimate in MHz.
    pub fn learned_threshold(&self) -> f64 {
        self.domain.value(self.policy.as_policy().best())
    }

    /// Number of still-active arms (shrinks as elimination proceeds; other
    /// learners never eliminate, so they report the full arm count).
    pub fn active_arms(&self) -> usize {
        let views = self.policy.as_policy().arm_views();
        views.iter().filter(|v| v.active).count()
    }

    /// Slot-LP solver counters (all zero outside `use_lp` mode).
    pub fn solver_stats(&self) -> SolverStats {
        self.lp_solver.stats()
    }

    /// Faithful assignment: the **LP-PT** relaxation routes the admitted
    /// set, and [`SlotBuffers::materialize`] then water-fills per station.
    fn assign_lp(&mut self, ctx: &SlotContext<'_>) {
        let net = Network {
            topo: ctx.topo,
            paths: ctx.paths,
            params: InstanceParams {
                c_unit: ctx.config.c_unit,
                slot_ms: ctx.config.slot_ms,
                ..self.lp_params.unwrap_or_default()
            },
        };
        debug_assert!(
            self.lp_params.is_none_or(|p| p == net.params),
            "the instance's C_unit and slot length differ from the engine's"
        );
        let buffers = &mut self.buffers;
        let admitted = &buffers.admitted;
        let mut reserved = vec![Compute::ZERO; ctx.topo.station_count()];
        // Requests are preemptible (§V): running jobs may migrate, so the
        // whole admitted set is routed through LP-PT every slot. A job's id
        // only names its request; the request comes with the view.
        let subset: Vec<_> = admitted
            .iter()
            .map(|&i| (ctx.views[i].job.id().index(), ctx.views[i].job.request()))
            .collect();
        let frac = if subset.is_empty() {
            None
        } else {
            self.slot_lp.rebuild(
                &net,
                &subset,
                Truncation::PerRequestShare {
                    active: admitted.len().max(1),
                },
                &mut self.lp_columns,
            );
            self.lp_solver.solve(&self.slot_lp, subset.len()).ok()
        };
        buffers.placed.clear();
        for (local, &i) in admitted.iter().enumerate() {
            let view = &ctx.views[i];
            let need = useful_compute(view, ctx);
            // LP-PT's Constraint (23) is deliberately looser than (10), so
            // the fractional solution often piles onto the best station;
            // the Heu-style materialization must therefore respect actual
            // capacities: honor the LP's preferred station only while its
            // reserved load fits, else spread to the most unreserved
            // feasible station (exactly what `Heu`'s migration repair does
            // to an overfull prefix).
            let choice: Option<StationId> = frac.as_ref().and_then(|f| {
                f.for_request(local)
                    .iter()
                    .filter(|(s, _, _)| {
                        startable_at(view, ctx, *s)
                            && (reserved[s.index()] + need).as_mhz()
                                <= ctx.topo.station(*s).capacity().as_mhz() + 1e-9
                    })
                    .max_by(|a, b| total_cmp(&a.2, &b.2))
                    .map(|&(s, _, _)| s)
            });
            let fallback = || {
                ctx.topo
                    .station_ids()
                    .filter(|&s| startable_at(view, ctx, s))
                    .max_by(|&a, &b| {
                        total_cmp(
                            &(ctx.topo.station(a).capacity() - reserved[a.index()]).as_mhz(),
                            &(ctx.topo.station(b).capacity() - reserved[b.index()]).as_mhz(),
                        )
                    })
            };
            if let Some(station) = choice.or_else(fallback) {
                reserved[station.index()] += need;
                buffers.placed.push(Placed {
                    view: i,
                    station,
                    need,
                });
            }
        }
    }
}

/// One admitted job's station and useful compute for this slot.
#[derive(Debug, Clone, Copy)]
struct Placed {
    view: usize,
    station: StationId,
    need: Compute,
}

/// The fast path's working state, kept between slots so a slot decision
/// allocates nothing but its output.
#[derive(Debug, Clone, Default)]
struct SlotBuffers {
    /// Each schedulable view's expected rate and index (admission keys).
    keys: Vec<(DataRate, usize)>,
    /// Admitted view indices, in admission order.
    admitted: Vec<usize>,
    /// Residual capacity while admitted jobs are placed.
    capacity: SlotCapacity,
    /// Placed jobs, in placement order until [`Self::materialize`] groups
    /// them by station.
    placed: Vec<Placed>,
    caps: Vec<Compute>,
    fill: WaterFill,
    /// Whether each view got an allocation from the main assignment.
    served: Vec<bool>,
    /// Per-station compute granted so far (keep-alive).
    used: Vec<Compute>,
    /// Per-station free capacity, `capacity − used` (keep-alive).
    free: StationMax,
    /// Unserved schedulable views, most-starved first (keep-alive).
    starved: Vec<(Reverse<u64>, usize)>,
}

impl SlotBuffers {
    /// Line 10-11: admit sorted-by-expected-rate requests while the
    /// network-wide equal share stays above the threshold.
    fn admit(&mut self, ctx: &SlotContext<'_>, threshold: Compute) {
        self.keys.clear();
        self.keys.extend(
            ctx.views
                .iter()
                .enumerate()
                .filter(|(_, v)| v.schedulable())
                .map(|(i, v)| (v.rate_estimate(), i)),
        );
        // Stable: equal rates stay in view (request-id) order.
        self.keys.sort_by(|a, b| total_cmp(&a.0, &b.0));
        let total = ctx.topo.total_capacity();
        self.admitted.clear();
        for &(_, i) in &self.keys {
            let count = self.admitted.len() + 1;
            let share = total / count as f64;
            if share.as_mhz() + 1e-9 < threshold.as_mhz() && !self.admitted.is_empty() {
                break;
            }
            self.admitted.push(i);
        }
    }

    /// Fast assignment: load-balance each admitted job to the feasible
    /// station with the most residual capacity.
    fn assign_fast(&mut self, ctx: &SlotContext<'_>) {
        self.capacity.reset(ctx);
        self.placed.clear();
        for &i in &self.admitted {
            let view = &ctx.views[i];
            // Every station is legal for a started job, so the capacity
            // tree's root answers for it; a waiting job scans the stations
            // that meet its deadline.
            let best = if view.job.realized().is_some() {
                self.capacity.most_remaining()
            } else {
                ctx.topo
                    .station_ids()
                    .filter(|&s| startable_at(view, ctx, s))
                    .max_by(|&a, &b| {
                        total_cmp(&self.capacity.remaining(a), &self.capacity.remaining(b))
                    })
            };
            if let Some(station) = best {
                // Reserve the job's useful demand so subsequent placement
                // decisions see the updated residual picture.
                let need = useful_compute(view, ctx);
                self.capacity.take(station, need);
                self.placed.push(Placed {
                    view: i,
                    station,
                    need,
                });
            }
        }
    }

    /// Re-derives exact grants per station by water-filling the *full*
    /// station capacity across its placed jobs, stations in id order and
    /// jobs in placement order, and marks the served views.
    fn materialize(&mut self, ctx: &SlotContext<'_>) -> Vec<Allocation> {
        self.served.clear();
        self.served.resize(ctx.views.len(), false);
        // Stable: a station's jobs keep their placement order.
        self.placed.sort_by_key(|p| p.station);
        let mut out = Vec::with_capacity(self.placed.len());
        for local in self.placed.chunk_by(|a, b| a.station == b.station) {
            let station = local[0].station;
            self.caps.clear();
            self.caps.extend(local.iter().map(|p| p.need));
            let grants = self
                .fill
                .fill(ctx.topo.station(station).capacity(), &self.caps);
            for (p, &grant) in local.iter().zip(grants) {
                if grant.is_positive() {
                    out.push(Allocation {
                        request: ctx.views[p.view].job.id(),
                        station,
                        compute: grant,
                    });
                    self.served[p.view] = true;
                }
            }
        }
        out
    }

    /// Anti-starvation keep-alive (§V's stated goal: "avoid their
    /// scheduling starvation"): whatever capacity the main assignment left
    /// over is handed out in small slices to waiting (never-served)
    /// requests, most-starved first. The response delay of Eq. 2 is fixed
    /// at *first* service (`b_j − a_j`), so a keep-alive slice before the
    /// deadline rescues the request's latency constraint while the bulk of
    /// its stream is served in later slots.
    fn keep_alive(&mut self, ctx: &SlotContext<'_>, allocations: &mut Vec<Allocation>) {
        let stations = ctx.topo.stations();
        self.used.clear();
        self.used.resize(stations.len(), Compute::ZERO);
        for a in allocations.iter() {
            self.used[a.station.index()] += a.compute;
        }
        let free_of = |capacity: Compute, used: Compute| (capacity - used).clamp_non_negative();
        self.free.reset(
            stations
                .iter()
                .zip(&self.used)
                .map(|(s, &used)| free_of(s.capacity(), used)),
        );
        // Work-conserving residual pass, most-starved (longest-waiting)
        // jobs first, ties in view order: the threshold governs the
        // *guaranteed* share of the admitted set; leftover capacity is free
        // to rescue and advance everyone else.
        self.starved.clear();
        self.starved.extend(
            ctx.views
                .iter()
                .enumerate()
                .filter(|&(i, v)| !self.served[i] && v.schedulable())
                .map(|(i, v)| (Reverse(v.job.waiting_slots(ctx.slot)), i)),
        );
        self.starved.sort_unstable();
        for &(_, i) in &self.starved {
            let view = &ctx.views[i];
            let need = useful_compute(view, ctx);
            if !need.is_positive() {
                continue;
            }
            // The most free legal station, if it has at least 1 MHz: the
            // maxima all pass or all fail that floor, so filtering after
            // the maximum picks what filtering before it would.
            let target = if view.job.realized().is_some() {
                self.free.argmax()
            } else {
                ctx.topo
                    .station_ids()
                    .filter(|&s| startable_at(view, ctx, s))
                    .max_by(|&a, &b| total_cmp(&self.free.get(a), &self.free.get(b)))
            }
            .filter(|&s| self.free.get(s).as_mhz() >= 1.0);
            if let Some(s) = target {
                let grant = need.min(self.free.get(s));
                self.used[s.index()] += grant;
                self.free.set(
                    s,
                    free_of(stations[s.index()].capacity(), self.used[s.index()]),
                );
                allocations.push(Allocation {
                    request: view.job.id(),
                    station: s,
                    compute: grant,
                });
            }
        }
    }
}

impl DynamicRr {
    /// Builds the flight-recorder digest of one slot's decision. All
    /// inputs are deterministic (chosen arm, learner state, allocations),
    /// so the digest stream is byte-reproducible for a fixed seed.
    fn decision_record(
        &self,
        slot: u64,
        arm: ArmId,
        allocations: &[Allocation],
    ) -> mec_sim::DecisionRecord {
        // FNV-1a over the (request, station, grant-millihertz) triples.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        let mut granted_mhz = 0.0;
        for a in allocations {
            mix(a.request.index() as u64);
            mix(a.station.index() as u64);
            mix(a.compute.as_mhz().to_bits());
            granted_mhz += a.compute.as_mhz();
        }
        let policy = self.policy.as_policy();
        let best = policy.best();
        let views = policy.arm_views();
        mec_sim::DecisionRecord {
            slot,
            arm: arm.index(),
            value: self.domain.value(arm),
            active_arms: views.iter().filter(|v| v.active).count() as u64,
            best_arm: best.index(),
            best_mean: views[best.index()].mean,
            granted: allocations.len() as u64,
            granted_mhz,
            assign_digest: h,
        }
    }
}

impl SlotPolicy for DynamicRr {
    fn schedule(&mut self, ctx: &SlotContext<'_>) -> Vec<Allocation> {
        if ctx.views.iter().all(|v| !v.schedulable()) {
            self.current_arm = None;
            return Vec::new();
        }
        let arm = self.policy.as_policy_mut().select();
        self.current_arm = Some(arm);
        let threshold = Compute::mhz(self.domain.value(arm));
        self.buffers.admit(ctx, threshold);
        if self.config.use_lp {
            self.assign_lp(ctx);
        } else {
            self.buffers.assign_fast(ctx);
        }
        let mut allocations = self.buffers.materialize(ctx);
        self.buffers.keep_alive(ctx, &mut allocations);
        if self.probe.attached() {
            self.last_decision = Some(self.decision_record(ctx.slot, arm, &allocations));
        }
        allocations
    }

    fn observe(&mut self, _slot: u64, completed_reward: f64) {
        let Some(arm) = self.current_arm.take() else {
            return;
        };
        self.max_slot_reward = self.max_slot_reward.max(completed_reward);
        let normalized = if self.max_slot_reward > 0.0 {
            (completed_reward / self.max_slot_reward).clamp(0.0, 1.0)
        } else {
            0.0
        };
        self.cum_reward += normalized;
        self.policy.as_policy_mut().update(arm, normalized);
        self.probe
            .after_update(self.policy.as_policy(), arm, normalized);
    }

    fn telemetry(&self) -> Option<mec_sim::PolicyTelemetry> {
        let policy = self.policy.as_policy();
        let views = policy.arm_views();
        let best = policy.best();
        let total = policy.total_pulls();
        let best_mean = views[best.index()].mean;
        let arms = views
            .iter()
            .map(|v| mec_sim::ArmTelemetry {
                arm: v.arm.index(),
                value: self.domain.value(v.arm),
                pulls: v.pulls,
                mean: v.mean,
                ucb: v.ucb,
                lcb: v.lcb,
                active: v.active,
            })
            .collect();
        Some(mec_sim::PolicyTelemetry {
            policy: self.name().to_string(),
            total_pulls: total,
            best_arm: best.index(),
            best_value: self.domain.value(best),
            cum_reward: self.cum_reward,
            regret_proxy: (total as f64 * best_mean - self.cum_reward).max(0.0),
            arms,
            solver: self.config.use_lp.then(|| self.lp_solver.stats()),
        })
    }

    fn name(&self) -> &str {
        "DynamicRR"
    }

    fn set_probe(&mut self, enabled: bool) {
        if enabled {
            self.probe.attach(self.policy.as_policy());
        } else {
            self.probe.detach();
            self.last_decision = None;
        }
        self.lp_solver
            .set_record_times(enabled && self.config.use_lp);
    }

    fn drain_learner_events(&mut self) -> (Vec<mec_sim::LearnerEvent>, u64) {
        let (events, dropped) = self.probe.drain();
        let events = events
            .into_iter()
            .map(|e| mec_sim::LearnerEvent {
                step: e.step,
                arm: e.arm.index(),
                value: self.domain.value(e.arm),
                kind: e.kind.as_str(),
                pulls: e.pulls,
                mean: e.mean,
                radius: e.radius,
                reward: e.reward,
                oracle: e.oracle,
            })
            .collect();
        (events, dropped)
    }

    fn last_decision(&self) -> Option<mec_sim::DecisionRecord> {
        self.last_decision
    }

    fn drain_solve_times_ms(&mut self) -> Vec<f64> {
        self.lp_solver.drain_solve_times_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::InstanceParams;
    use mec_sim::{Engine, SlotConfig};
    use mec_topology::{Topology, TopologyBuilder};
    use mec_workload::request::{Request, RequestId};
    use mec_workload::{ArrivalProcess, WorkloadBuilder};

    fn run(use_lp: bool, n: usize, horizon: u64) -> (mec_sim::Metrics, DynamicRr) {
        run_probed(use_lp, n, horizon, false)
    }

    fn run_probed(
        use_lp: bool,
        n: usize,
        horizon: u64,
        probe: bool,
    ) -> (mec_sim::Metrics, DynamicRr) {
        let topo = TopologyBuilder::new(5).seed(23).build();
        let requests = WorkloadBuilder::new(&topo)
            .seed(23)
            .count(n)
            .arrivals(ArrivalProcess::UniformOver {
                horizon: horizon / 2,
            })
            .build();
        let params = InstanceParams::default();
        let paths = topo.shortest_paths();
        let cfg = SlotConfig {
            horizon,
            c_unit: params.c_unit,
            slot_ms: params.slot_ms,
            seed: 23,
            ..Default::default()
        };
        let mut policy = if use_lp {
            let instance = Instance::new(topo.clone(), requests.clone(), params);
            DynamicRr::with_lp(
                instance,
                DynamicRrConfig {
                    horizon_hint: horizon,
                    ..Default::default()
                },
            )
        } else {
            DynamicRr::new(DynamicRrConfig {
                horizon_hint: horizon,
                ..Default::default()
            })
        };
        if probe {
            SlotPolicy::set_probe(&mut policy, true);
        }
        let mut engine = Engine::new(&topo, &paths, requests, cfg);
        let metrics = engine.run(&mut policy).unwrap();
        (metrics, policy)
    }

    #[test]
    fn fast_mode_completes_and_learns() {
        let (metrics, policy) = run(false, 30, 400);
        assert!(metrics.completed() > 0, "{metrics}");
        assert!(metrics.total_reward() > 0.0);
        // The learner should have narrowed the arm set at least somewhat
        // or at minimum still report a threshold inside the domain.
        let th = policy.learned_threshold();
        assert!((100.0..=1000.0).contains(&th));
        assert!(policy.active_arms() >= 1);
    }

    #[test]
    fn lp_mode_runs_on_small_instance() {
        let (metrics, _) = run(true, 10, 60);
        // LP-PT per slot is slow but must behave: either completes jobs or
        // at minimum produces a clean run.
        assert!(metrics.completed() + metrics.unserved() + metrics.expired() == 10);
    }

    #[test]
    fn respects_threshold_admission_bound() {
        // With a huge C^th_min the admission count collapses toward
        // total_capacity / C^th.
        let topo = TopologyBuilder::new(3).seed(1).build();
        let requests = WorkloadBuilder::new(&topo).seed(1).count(40).build();
        let params = InstanceParams::default();
        let paths = topo.shortest_paths();
        let cfg = SlotConfig {
            horizon: 1,
            c_unit: params.c_unit,
            slot_ms: params.slot_ms,
            seed: 1,
            ..Default::default()
        };
        let total = topo.total_capacity().as_mhz();
        let mut policy = DynamicRr::new(DynamicRrConfig {
            threshold_lo_mhz: 2000.0,
            threshold_hi_mhz: 2000.0,
            kappa: 1,
            ..Default::default()
        });
        let mut engine = Engine::new(&topo, &paths, requests, cfg);
        let _ = engine.run(&mut policy).unwrap();
        // Can't observe the internal admitted set directly; instead check
        // the implied bound: share >= 2000 means at most total/2000 jobs.
        let bound = (total / 2000.0).floor() as usize;
        assert!(bound >= 1);
    }

    #[test]
    fn telemetry_reports_learner_state() {
        let (_, policy) = run(false, 30, 400);
        let t = SlotPolicy::telemetry(&policy).expect("DynamicRR exposes telemetry");
        assert_eq!(t.policy, "DynamicRR");
        assert_eq!(t.arms.len(), DynamicRrConfig::default().kappa);
        assert!(t.total_pulls > 0);
        assert!(t.cum_reward > 0.0);
        assert!(t.regret_proxy >= 0.0);
        assert_eq!(t.active_arms(), policy.active_arms());
        assert_eq!(t.best_arm, t.arms[t.best_arm].arm);
        assert!((100.0..=1000.0).contains(&t.best_value));
        // Pull counts across arms account for every learner update.
        let pulls: u64 = t.arms.iter().map(|a| a.pulls).sum();
        assert_eq!(pulls, t.total_pulls);
        for a in &t.arms {
            assert!(a.ucb >= a.mean - 1e-12 && a.lcb <= a.mean + 1e-12);
        }
    }

    #[test]
    fn probe_streams_lifecycle_events_with_domain_values() {
        let (_, mut policy) = run_probed(false, 30, 400, true);
        let (events, dropped) = SlotPolicy::drain_learner_events(&mut policy);
        assert_eq!(dropped, 0);
        assert!(!events.is_empty());
        let kappa = DynamicRrConfig::default().kappa;
        let activates = events.iter().filter(|e| e.kind == "activate").count();
        assert_eq!(activates, kappa, "attach emits one activate per arm");
        let samples: Vec<_> = events.iter().filter(|e| e.kind == "sample").collect();
        assert!(!samples.is_empty(), "updates emit sample events");
        for e in &events {
            assert!(e.arm < kappa);
            // Arm ids are mapped to threshold MHz through the domain.
            assert!((100.0..=1000.0).contains(&e.value), "value {}", e.value);
        }
        for s in &samples {
            let r = s.reward.expect("samples carry the realized reward");
            assert!((0.0..=1.0).contains(&r));
            let o = s.oracle.expect("samples carry the per-step oracle");
            assert!((0.0..=1.0).contains(&o));
        }
        // Second drain is empty.
        assert_eq!(
            SlotPolicy::drain_learner_events(&mut policy),
            (Vec::new(), 0)
        );
    }

    #[test]
    fn probe_records_deterministic_decision_digest() {
        let (_, p1) = run_probed(false, 30, 120, true);
        let (_, p2) = run_probed(false, 30, 120, true);
        let d1 = SlotPolicy::last_decision(&p1).expect("probed run records decisions");
        let d2 = SlotPolicy::last_decision(&p2).expect("probed run records decisions");
        assert_eq!(
            d1, d2,
            "same seed must produce an identical decision record"
        );
        assert!(d1.slot < 120);
        assert!((100.0..=1000.0).contains(&d1.value));
        assert!(d1.active_arms >= 1);
        // Unprobed runs record nothing: the probe must not leak state.
        let (_, p3) = run(false, 30, 120);
        assert!(SlotPolicy::last_decision(&p3).is_none());
    }

    #[test]
    fn solver_telemetry_present_only_in_lp_mode() {
        let (_, mut policy) = run_probed(true, 10, 60, true);
        let t = SlotPolicy::telemetry(&policy).unwrap();
        let solver = t.solver.expect("LP mode reports solver telemetry");
        assert!(solver.solves > 0);
        assert_eq!(
            solver.warm_hits + solver.warm_fallbacks + solver.cold_starts,
            solver.solves
        );
        // Probed LP runs buffer wall-clock solve times (live-only data).
        let times = SlotPolicy::drain_solve_times_ms(&mut policy);
        assert_eq!(times.len() as u64, solver.solves);
        assert!(times.iter().all(|t| t.is_finite() && *t >= 0.0));

        let (_, fast) = run(false, 30, 120);
        assert!(SlotPolicy::telemetry(&fast).unwrap().solver.is_none());
    }

    const LP_HORIZON: u64 = 200;

    /// The LP-PT episodes' config: the default but for the horizon hint.
    fn lp_config() -> DynamicRrConfig {
        DynamicRrConfig {
            horizon_hint: LP_HORIZON,
            ..Default::default()
        }
    }

    /// The LP-PT episodes' 40-request, 5-station world and its 200-slot
    /// config.
    fn lp_world() -> (Topology, Vec<Request>, SlotConfig) {
        let topo = TopologyBuilder::new(5).seed(42).build();
        let requests = WorkloadBuilder::new(&topo)
            .seed(42)
            .count(40)
            .arrivals(ArrivalProcess::UniformOver {
                horizon: LP_HORIZON / 2,
            })
            .build();
        let params = InstanceParams::default();
        let cfg = SlotConfig {
            horizon: LP_HORIZON,
            c_unit: params.c_unit,
            slot_ms: params.slot_ms,
            seed: 42,
            ..Default::default()
        };
        (topo, requests, cfg)
    }

    /// Runs the policy `make` builds from an instance of `requests` on
    /// [`lp_world`]'s network.
    fn lp_episode_of(
        requests: Vec<Request>,
        make: impl FnOnce(Instance) -> DynamicRr,
    ) -> (mec_sim::Metrics, DynamicRr) {
        let (topo, _, cfg) = lp_world();
        let paths = topo.shortest_paths();
        let instance = Instance::new(topo.clone(), requests.clone(), InstanceParams::default());
        let mut policy = make(instance);
        let mut engine = Engine::new(&topo, &paths, requests, cfg);
        let metrics = engine.run(&mut policy).expect("run completes");
        (metrics, policy)
    }

    /// Runs the policy `make` builds from [`lp_world`]'s instance.
    fn lp_episode(make: impl FnOnce(Instance) -> DynamicRr) -> (mec_sim::Metrics, DynamicRr) {
        lp_episode_of(lp_world().1, make)
    }

    /// Runs LP-PT `DynamicRR` on [`lp_episode`]'s world with `solver`
    /// driving the slot LP.
    fn run_lp_with(solver: SlotLpSolver) -> mec_sim::Metrics {
        let (metrics, _) = lp_episode(|instance| {
            let mut policy = DynamicRr::with_lp(instance, lp_config());
            policy.lp_solver = solver;
            policy
        });
        metrics
    }

    /// `use_lp` means LP-PT whichever constructor built the policy: `new`
    /// solves the slot LP every slot and decides exactly as `with_lp`
    /// does, since both read the engine's network and requests.
    #[test]
    fn new_with_use_lp_solves_lp_pt() {
        let (from_new, new_policy) = lp_episode(|_| {
            DynamicRr::new(DynamicRrConfig {
                use_lp: true,
                ..lp_config()
            })
        });
        let (from_instance, lp_policy) =
            lp_episode(|instance| DynamicRr::with_lp(instance, lp_config()));
        assert!(new_policy.solver_stats().solves > 0, "new ran no LP");
        assert_eq!(new_policy.solver_stats(), lp_policy.solver_stats());
        assert_eq!(from_new, from_instance);
    }

    /// A job's id only names its request. An engine fed requests `k..n` of
    /// a population re-identifies them `0..n - k`, so no id is its
    /// population index; LP-PT still runs on it, and decides exactly as
    /// it does on an instance built from the re-identified requests.
    #[test]
    fn lp_pt_runs_on_reidentified_requests() {
        const K: usize = 15;
        let (topo, population, cfg) = lp_world();
        let paths = topo.shortest_paths();
        let mut injected = Engine::new(&topo, &paths, Vec::new(), cfg);
        for r in &population[K..] {
            injected.inject(r.clone());
        }
        let mut policy = DynamicRr::new(DynamicRrConfig {
            use_lp: true,
            ..lp_config()
        });
        let metrics = injected.run(&mut policy).expect("run completes");

        let reidentified: Vec<Request> = population[K..]
            .iter()
            .enumerate()
            .map(|(id, r)| {
                Request::new(
                    RequestId(id),
                    r.home(),
                    r.arrival_slot(),
                    r.duration_slots(),
                    r.tasks().to_vec(),
                    r.demand().clone(),
                    r.deadline(),
                )
            })
            .collect();
        let (want, from_instance) = lp_episode_of(reidentified, |instance| {
            DynamicRr::with_lp(instance, lp_config())
        });
        assert!(policy.solver_stats().solves > 0, "no LP ran");
        assert_eq!(policy.solver_stats(), from_instance.solver_stats());
        assert_eq!(metrics, want);
    }

    /// The sparse revised simplex, warm-started across slots, is
    /// indistinguishable from the dense tableau oracle.
    #[test]
    fn revised_warm_matches_dense_over_200_slots() {
        let dense = run_lp_with(SlotLpSolver::new(SolverKind::Dense).warm_start(false));
        let warm = run_lp_with(SlotLpSolver::new(SolverKind::Revised));
        assert_eq!(dense, warm, "warm revised diverged from the dense oracle");
    }

    #[test]
    fn warm_matches_cold_over_200_slots() {
        let cold = run_lp_with(SlotLpSolver::new(SolverKind::Revised).warm_start(false));
        let warm = run_lp_with(SlotLpSolver::new(SolverKind::Revised));
        assert_eq!(cold, warm, "warm-starting changed the run");
    }

    #[test]
    fn deterministic() {
        let (m1, _) = run(false, 20, 200);
        let (m2, _) = run(false, 20, 200);
        assert_eq!(m1, m2);
    }
}
