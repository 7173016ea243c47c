//! `Appro` — Algorithm 1, the randomized-rounding 1/8-approximation
//! (Theorem 1), and the rounding driver it shares with `Heu`.
//!
//! 1. Solve the slot-indexed **LP** (see [`crate::slotlp`]):
//!    [`solve_relaxation`].
//! 2. Tentatively assign each request `r_j` to `(station i, slot l)` with
//!    probability `y_{jil} / 4`, ignore it otherwise.
//! 3. Admit slot-by-slot: walking `l = 1..L` and each station, requests
//!    tentatively parked at `(i, l)` are considered in increasing expected
//!    rate, and admitted iff the station's already-realized demand still
//!    fits in the slot prefix `l · C_l`.
//!
//! Steps 2–3 are one driver for `Appro` and `Heu`, whose parameter is
//! what a candidate meeting a full prefix does: `Appro` rejects it.
//!
//! Demands realize *at admission* (the paper's reveal-on-schedule model);
//! a realized demand larger than the station's remaining capacity earns no
//! reward (Eq. 8's semantics) but still occupies the remainder.

use crate::model::{Instance, Realizations};
use crate::outcome::{OfflineAlgorithm, OffloadOutcome};
use crate::placement::TaskPlacement;
use crate::slotlp::{FractionalAssignment, SlotLp, Truncation};
use mec_sim::Metrics;
use mec_topology::station::StationId;
use mec_topology::units::{total_cmp, Compute};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Step 1 of Algorithms 1 and 2: the **LP** over every request of the
/// instance, solved cold by the revised simplex. It does not depend on
/// the realizations, so one relaxation serves every rounding of the
/// instance ([`Appro::round`], [`crate::Heu::round`]).
///
/// # Errors
///
/// Reports an LP solver failure as a human-readable string.
pub fn solve_relaxation(instance: &Instance) -> Result<FractionalAssignment, String> {
    let subset: Vec<usize> = (0..instance.request_count()).collect();
    SlotLp::build(instance, &subset, Truncation::Standard)
        .solve(subset.len())
        .map_err(|e| format!("LP solve failed: {e}"))
}

/// The rounding scale of Algorithm 1 (`y_{jil} / 4`).
const ROUNDING_DIVISOR: f64 = 4.0;

/// Samples step 2 of Algorithm 1: each request keeps one tentative
/// `(station i, slot l)` with probability `y_{jil}/4`, or is ignored.
/// Requests already assigned (in a previous backfill round) are skipped.
fn sample_tentative<R: Rng + ?Sized>(
    frac: &FractionalAssignment,
    assigned: &[Option<StationId>],
    rng: &mut R,
) -> Vec<Option<(StationId, usize)>> {
    (0..frac.request_count())
        .map(|j| {
            if assigned[j].is_some() {
                return None;
            }
            let mut u: f64 = rng.gen();
            for &(station, slot, y) in frac.for_request(j) {
                let p = y / ROUNDING_DIVISOR;
                if u < p {
                    return Some((station, slot));
                }
                u -= p;
            }
            None
        })
        .collect()
}

/// Station-side admission state shared by `Appro` and `Heu`.
#[derive(Debug, Clone)]
pub(crate) struct AdmissionState {
    /// Realized compute already committed per station.
    pub occupied: Vec<Compute>,
    /// Per-request serving station (the pipeline's primary host).
    pub assignment: Vec<Option<StationId>>,
    /// Per-request collected reward (0 if rejected or truncated).
    pub reward: Vec<f64>,
    /// Per-request task placement (consolidated on admission; `Heu`'s
    /// migration spreads it, §IV-B).
    pub placements: Vec<Option<TaskPlacement>>,
}

impl AdmissionState {
    pub fn new(instance: &Instance) -> Self {
        let n = instance.request_count();
        Self {
            occupied: vec![Compute::ZERO; instance.topo().station_count()],
            assignment: vec![None; n],
            reward: vec![0.0; n],
            placements: vec![None; n],
        }
    }

    /// Admits request `j` at `station`, realizing its demand: reward is
    /// earned only if the realized demand fits in the remaining capacity.
    pub fn admit(
        &mut self,
        instance: &Instance,
        realized: &Realizations,
        j: usize,
        station: StationId,
    ) {
        let outcome = realized.outcome(j);
        let demand = instance.demand_of(outcome.rate);
        let capacity = instance.topo().station(station).capacity();
        let remaining = (capacity - self.occupied[station.index()]).clamp_non_negative();
        let fits = demand.as_mhz() <= remaining.as_mhz() + 1e-9;
        self.reward[j] = if fits { outcome.reward } else { 0.0 };
        self.occupied[station.index()] += demand.min(remaining);
        self.assignment[j] = Some(station);
        self.placements[j] = Some(TaskPlacement::consolidated(
            station,
            instance.requests()[j].task_count(),
        ));
    }

    /// Builds the final metrics: admitted requests record the generalized
    /// Eq.-2 latency of their (possibly distributed) task placement with
    /// zero waiting; the rest count as rejected.
    pub fn into_outcome(self, instance: &Instance, started: Instant) -> OffloadOutcome {
        let mut metrics = Metrics::new();
        for j in 0..instance.request_count() {
            match &self.placements[j] {
                Some(placement) => {
                    let latency = placement
                        .latency(instance, j)
                        .expect("placements only use reachable stations");
                    metrics.record_completion(self.reward[j], latency.as_ms());
                }
                None => metrics.record_expired(),
            }
        }
        OffloadOutcome::new(metrics, self.assignment, started.elapsed())
    }
}

/// Groups tentative placements by `(station, slot)` and sorts each group by
/// expected rate ascending — the order step 5 of Algorithm 1 consumes.
fn grouped_by_slot(
    instance: &Instance,
    tentative: &[Option<(StationId, usize)>],
) -> Vec<Vec<Vec<usize>>> {
    let stations = instance.topo().station_count();
    let max_l = (0..stations)
        .map(|s| instance.slot_layout(StationId(s)).count())
        .max()
        .unwrap_or(0);
    // grouped[station][l - 1] = request indices.
    let mut grouped: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); max_l]; stations];
    for (j, t) in tentative.iter().enumerate() {
        if let Some((station, slot)) = t {
            grouped[station.index()][slot - 1].push(j);
        }
    }
    for station_groups in &mut grouped {
        for group in station_groups.iter_mut() {
            group.sort_by(|&a, &b| {
                total_cmp(
                    &instance.requests()[a].demand().expected_rate(),
                    &instance.requests()[b].demand().expected_rate(),
                )
            });
        }
    }
    grouped
}

/// The rounding driver of Algorithms 1 and 2 over the relaxation `frac`:
/// `rounds` rounds of the lottery and the admission sweep for the
/// requests still unassigned, then (past one round) the
/// [`residual_fill`]. A candidate meeting a full slot prefix is admitted
/// only if `overflow` frees room at the station and the prefix then fits.
/// Fails when `frac` covers another number of requests than `instance`.
pub(crate) fn round_relaxation(
    instance: &Instance,
    realized: &Realizations,
    frac: &FractionalAssignment,
    seed: u64,
    rounds: usize,
    mut overflow: impl FnMut(&mut AdmissionState, StationId) -> bool,
) -> Result<OffloadOutcome, String> {
    if frac.request_count() != instance.request_count() {
        return Err(format!(
            "relaxation covers {} requests, the instance has {}",
            frac.request_count(),
            instance.request_count()
        ));
    }
    let started = Instant::now();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut state = AdmissionState::new(instance);
    for _ in 0..rounds {
        if state.assignment.iter().all(Option::is_some) {
            break;
        }
        let tentative = sample_tentative(frac, &state.assignment, &mut rng);
        let grouped = grouped_by_slot(instance, &tentative);
        let max_l = grouped.iter().map(Vec::len).max().unwrap_or(0);
        for l in 1..=max_l {
            for station in instance.topo().station_ids() {
                let layout = instance.slot_layout(station);
                if l > layout.count() {
                    continue;
                }
                let prefix = layout.slot_size() * l as f64;
                let fits = |state: &AdmissionState| {
                    state.occupied[station.index()].as_mhz() <= prefix.as_mhz() + 1e-9
                };
                // Requests parked at (station, l), cheapest expected rate
                // first (step 5); step 6 admits only while the realized
                // occupancy still fits inside the slot prefix.
                for &j in &grouped[station.index()][l - 1] {
                    if fits(&state) || (overflow(&mut state, station) && fits(&state)) {
                        state.admit(instance, realized, j, station);
                    }
                }
            }
        }
    }
    if rounds > 1 {
        // rounds == 1 is the verbatim paper algorithm (used by the
        // Theorem-1 ratio experiment); otherwise finish with the
        // revealed-information fill.
        residual_fill(instance, realized, &mut state);
    }
    Ok(state.into_outcome(instance, started))
}

/// Final revealed-information fill (§IV-A: "we determine the assignment of
/// the randomly assigned requests according to the revealed data rate
/// information of currently executing requests"): once the lottery rounds
/// are exhausted, still-unassigned requests are offered — in decreasing
/// expected-reward-per-MHz order — to the feasible station whose *realized*
/// residual capacity still covers their expected demand. Admission uses the
/// same reveal-at-admission accounting, so this step only ever adds reward
/// and the Theorem-1 guarantee from round 1 is untouched.
fn residual_fill(instance: &Instance, realized: &Realizations, state: &mut AdmissionState) {
    let mut order: Vec<usize> = (0..instance.request_count())
        .filter(|&j| state.assignment[j].is_none())
        .collect();
    let density = |j: usize| {
        let d = instance
            .demand_of(instance.requests()[j].demand().expected_rate())
            .as_mhz()
            .max(1e-9);
        instance.requests()[j].demand().expected_reward() / d
    };
    order.sort_by(|&a, &b| total_cmp(&density(b), &density(a)));
    for j in order {
        let need = instance.demand_of(instance.requests()[j].demand().expected_rate());
        let target = instance
            .feasible_stations(j)
            .into_iter()
            .map(|s| {
                let remaining = (instance.topo().station(s).capacity() - state.occupied[s.index()])
                    .clamp_non_negative();
                (s, remaining)
            })
            .filter(|(_, remaining)| remaining.as_mhz() + 1e-9 >= need.as_mhz())
            .max_by(|a, b| total_cmp(&a.1, &b.1))
            .map(|(s, _)| s);
        if let Some(s) = target {
            state.admit(instance, realized, j, s);
        }
    }
}

/// Algorithm 1 (`Appro`).
///
/// `rounds` controls backfilling: round 1 is the verbatim paper algorithm
/// (whose expected reward is ≥ `Opt/8`, Theorem 1); additional rounds
/// re-run the `y/4` lottery for still-unassigned requests over the
/// residual capacity. Backfilling never evicts an admitted request, so
/// every extra round only adds reward — the guarantee is preserved while
/// matching the packed operating point the paper's evaluation reports.
#[derive(Debug, Clone, Copy)]
pub struct Appro {
    seed: u64,
    rounds: usize,
}

/// Default number of backfill rounds.
pub(crate) const DEFAULT_ROUNDS: usize = 32;

impl Appro {
    /// Creates the algorithm with a rounding seed and default backfill.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rounds: DEFAULT_ROUNDS,
        }
    }

    /// Overrides the number of rounding rounds (1 = the verbatim paper
    /// algorithm; used by the Theorem-1 ratio experiment).
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    #[must_use]
    pub fn rounds(mut self, rounds: usize) -> Self {
        assert!(rounds >= 1, "need at least one rounding round");
        self.rounds = rounds;
        self
    }
}

impl Appro {
    /// Rounds a relaxation of `instance` ([`solve_relaxation`]): steps 2–7
    /// of Algorithm 1, timed without the LP.
    ///
    /// # Errors
    ///
    /// Fails when `frac` covers another number of requests than `instance`.
    pub fn round(
        &self,
        instance: &Instance,
        realized: &Realizations,
        frac: &FractionalAssignment,
    ) -> Result<OffloadOutcome, String> {
        // An overflowing candidate is rejected: nothing frees room.
        let seed = self.seed ^ 0xA55A_5AA5;
        round_relaxation(instance, realized, frac, seed, self.rounds, |_, _| false)
    }
}

impl OfflineAlgorithm for Appro {
    fn name(&self) -> &'static str {
        "Appro"
    }

    fn solve(
        &self,
        instance: &Instance,
        realized: &Realizations,
    ) -> Result<OffloadOutcome, String> {
        // Fig 3(c)'s runtime includes the LP.
        let started = Instant::now();
        let frac = solve_relaxation(instance)?;
        Ok(self.round(instance, realized, &frac)?.timed_from(started))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::InstanceParams;
    use mec_topology::TopologyBuilder;
    use mec_workload::WorkloadBuilder;

    fn instance(n: usize, stations: usize, seed: u64) -> Instance {
        let topo = TopologyBuilder::new(stations).seed(seed).build();
        let requests = WorkloadBuilder::new(&topo).seed(seed).count(n).build();
        Instance::new(topo, requests, InstanceParams::default())
    }

    #[test]
    fn produces_feasible_assignment() {
        let inst = instance(30, 5, 4);
        let realized = Realizations::draw(&inst, 4);
        let out = Appro::new(4).solve(&inst, &realized).unwrap();
        // Capacity audit: realized demands of admitted requests never
        // exceed any station's capacity.
        let mut used = vec![0.0; inst.topo().station_count()];
        for (j, a) in out.assignment().iter().enumerate() {
            if let Some(s) = a {
                // Deadline feasibility (Constraint 11).
                assert!(inst.offline_feasible(j, *s));
                used[s.index()] += inst.demand_of(realized.outcome(j).rate).as_mhz();
            }
        }
        for (i, &u) in used.iter().enumerate() {
            let cap = inst.topo().station(StationId(i)).capacity().as_mhz();
            // Occupancy is truncated at capacity inside admit(); the audit
            // allows one straddling request per station (the Lemma-1 slack).
            assert!(
                u <= cap + 1000.0 + 1e-6,
                "station {i}: {u} used vs {cap} capacity"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = instance(25, 4, 9);
        let realized = Realizations::draw(&inst, 9);
        let a = Appro::new(1).solve(&inst, &realized).unwrap();
        let b = Appro::new(1).solve(&inst, &realized).unwrap();
        assert_eq!(a.metrics().total_reward(), b.metrics().total_reward());
        assert_eq!(a.assignment(), b.assignment());
    }

    #[test]
    fn reward_nonnegative_and_bounded() {
        let inst = instance(40, 5, 11);
        let realized = Realizations::draw(&inst, 11);
        let out = Appro::new(2).solve(&inst, &realized).unwrap();
        let max_possible: f64 = (0..inst.request_count())
            .map(|j| realized.outcome(j).reward)
            .sum();
        assert!(out.metrics().total_reward() >= 0.0);
        assert!(out.metrics().total_reward() <= max_possible + 1e-9);
    }

    #[test]
    fn empty_instance() {
        let inst = instance(0, 3, 1);
        let realized = Realizations::draw(&inst, 1);
        let out = Appro::new(0).solve(&inst, &realized).unwrap();
        assert_eq!(out.metrics().total_reward(), 0.0);
        assert_eq!(out.admitted(), 0);
    }

    #[test]
    fn tentative_sampling_respects_mass() {
        // One request on an empty network is admitted in round 1 exactly
        // when the y/4 lottery keeps it, so over many rounding seeds it
        // is admitted ~ mass/4 of the time.
        let inst = instance(1, 2, 3);
        let realized = Realizations::draw(&inst, 3);
        let frac = solve_relaxation(&inst).unwrap();
        let mass = frac.mass(0);
        let trials = 20_000;
        let kept = (0..trials)
            .filter(|&seed| {
                let out = Appro::new(seed).rounds(1).round(&inst, &realized, &frac);
                out.unwrap().admitted() == 1
            })
            .count();
        let freq = kept as f64 / trials as f64;
        let expect = mass / ROUNDING_DIVISOR;
        assert!(
            (freq - expect).abs() < 0.02,
            "kept {freq}, expected {expect} (mass {mass})"
        );
    }
}
