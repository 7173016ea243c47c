//! `Heu` — Algorithm 2: `Appro`'s rounding plus task-migration repair
//! (Theorem 2).
//!
//! `Appro` consolidates every request into a single station, so a slot
//! prefix that fills up rejects the remaining candidates (step 6 of
//! Algorithm 1). `Heu` instead *migrates one task* of the already-admitted
//! request with the **largest realized data rate** to that request's
//! nearest feasible station, freeing enough of the prefix to admit the
//! newcomer — provided the migrated request still meets its latency
//! requirement (steps 11-14 of Algorithm 2).
//!
//! A migrated task moves `demand × complexity_k / Σ complexity` of compute
//! (the pipeline stages split the stream proportionally to their compute
//! intensity); the victim's latency is re-derived from its edited
//! [`crate::placement::TaskPlacement`] via the generalized Eq. 2 over the
//! distributed pipeline (§IV-B).

use crate::appro::{round_relaxation, solve_relaxation, AdmissionState, DEFAULT_ROUNDS};
use crate::model::{Instance, Realizations};
use crate::outcome::{OfflineAlgorithm, OffloadOutcome};
use crate::slotlp::FractionalAssignment;
use mec_topology::station::StationId;
use mec_topology::units::total_cmp;
use std::time::Instant;

/// Algorithm 2 (`Heu`).
///
/// Runs `Appro`'s rounding driver, multi-round backfilling included
/// (round 1 is the verbatim paper algorithm; later rounds re-run the
/// lottery for unassigned requests over residual capacity), with
/// `migrate_one_task` as its overflow rule.
#[derive(Debug, Clone, Copy)]
pub struct Heu {
    seed: u64,
    rounds: usize,
}

impl Heu {
    /// Creates the algorithm with a rounding seed and default backfill.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rounds: DEFAULT_ROUNDS,
        }
    }

    /// Overrides the number of rounding rounds (1 = verbatim Algorithm 2).
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

    /// Rounds a relaxation of `instance`
    /// ([`crate::appro::solve_relaxation`]): steps 2–14 of Algorithm 2,
    /// timed without the LP.
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
        let mut nearest = NearestTargets::new(instance.topo().station_count());
        // Steps 11-14: on overflow, migrate one task away from the station.
        let migrate = |state: &mut AdmissionState, station| {
            migrate_one_task(instance, realized, state, station, &mut nearest)
        };
        let seed = self.seed ^ 0x5EED_BEEF;
        round_relaxation(instance, realized, frac, seed, self.rounds, migrate)
    }
}

/// Per-solve memo of each station's migration targets, nearest first by
/// backhaul delay. Topology delays are fixed for a solve, but the
/// migration repair re-ranks them for every overflow; with `S` stations
/// the first lookup pays the `O(S log S)` sort and the rest are free.
#[derive(Debug, Clone, Default)]
struct NearestTargets {
    by_station: Vec<Option<Vec<StationId>>>,
}

impl NearestTargets {
    fn new(station_count: usize) -> Self {
        Self {
            by_station: vec![None; station_count],
        }
    }

    /// The other stations ordered nearest-first from `station`.
    fn ordered(&mut self, instance: &Instance, station: StationId) -> &[StationId] {
        self.by_station[station.index()].get_or_insert_with(|| {
            let mut targets: Vec<StationId> = instance
                .topo()
                .station_ids()
                .filter(|&s| s != station)
                .collect();
            targets.sort_by(|&a, &b| {
                total_cmp(
                    &instance.paths().delay(station, a),
                    &instance.paths().delay(station, b),
                )
            });
            targets
        })
    }
}

/// Attempts to migrate one task of the admitted request with the largest
/// realized rate away from `station`; returns `true` if capacity was freed.
///
/// The migration is materialized as a [`crate::placement::TaskPlacement`]
/// edit (the victim's heaviest task moves to the nearest feasible
/// station), and the generalized Eq.-2 latency of the edited placement is
/// checked against the deadline — steps 11-14 of Algorithm 2.
fn migrate_one_task(
    instance: &Instance,
    realized: &Realizations,
    state: &mut AdmissionState,
    station: StationId,
    nearest: &mut NearestTargets,
) -> bool {
    // Victim: admitted here, largest realized rate, not yet migrated
    // (one migration per request keeps Theorem 2's feasibility argument).
    let victim = state
        .assignment
        .iter()
        .enumerate()
        .filter(|&(j, a)| {
            *a == Some(station)
                && state.reward[j] > 0.0
                && state.placements[j]
                    .as_ref()
                    .is_some_and(|p| p.is_consolidated())
        })
        .max_by(|&(a, _), &(b, _)| {
            total_cmp(
                &realized.outcome(a).rate.as_mbps(),
                &realized.outcome(b).rate.as_mbps(),
            )
        })
        .map(|(j, _)| j);
    let Some(j) = victim else {
        return false;
    };

    let request = &instance.requests()[j];
    let total_complexity: f64 = request.tasks().iter().map(|t| t.complexity()).sum();
    if total_complexity <= 0.0 {
        return false;
    }
    // Move the heaviest task: it frees the most prefix capacity.
    let (k, task) = request
        .tasks()
        .iter()
        .enumerate()
        .max_by(|a, b| total_cmp(&a.1.complexity(), &b.1.complexity()))
        .expect("pipelines are non-empty");
    let demand = instance.demand_of(realized.outcome(j).rate);
    let task_demand = demand * (task.complexity() / total_complexity);

    let placement = state.placements[j]
        .clone()
        .expect("victim is admitted, so placed");
    // Candidate targets: nearest first by backhaul delay from `station`
    // (memoized per solve — the ranking never changes within one).
    for &target in nearest.ordered(instance, station) {
        let free = (instance.topo().station(target).capacity() - state.occupied[target.index()])
            .clamp_non_negative();
        if free.as_mhz() + 1e-9 < task_demand.as_mhz() {
            continue;
        }
        // Steps 12-13: the edited placement must still meet the latency
        // requirement (generalized Eq. 2 over the distributed pipeline).
        let moved = placement.with_task_moved(k, target);
        if !moved.feasible(instance, j) {
            continue;
        }
        // Commit the migration.
        state.occupied[station.index()] =
            (state.occupied[station.index()] - task_demand).clamp_non_negative();
        state.occupied[target.index()] += task_demand;
        state.placements[j] = Some(moved);
        return true;
    }
    false
}

impl OfflineAlgorithm for Heu {
    fn name(&self) -> &'static str {
        "Heu"
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
    use crate::appro::Appro;
    use crate::model::InstanceParams;
    use mec_topology::TopologyBuilder;
    use mec_workload::WorkloadBuilder;

    fn instance(n: usize, stations: usize, seed: u64) -> Instance {
        let topo = TopologyBuilder::new(stations).seed(seed).build();
        let requests = WorkloadBuilder::new(&topo).seed(seed).count(n).build();
        Instance::new(topo, requests, InstanceParams::default())
    }

    #[test]
    fn migrate_one_task_moves_demand_and_updates_placement() {
        // Two-station line, generous deadline: migration always latency-
        // feasible; the heaviest task carries 2.0/5.5 of the demand.
        let topo = mec_topology::TopologyBuilder::new(2)
            .shape(mec_topology::generator::Shape::Line)
            .capacity_range(3000.0, 3000.0)
            .proc_delay_range(1.0, 1.0)
            .trans_delay_range(2.0, 2.0)
            .build();
        let requests = mec_workload::WorkloadBuilder::new(&topo)
            .seed(1)
            .count(1)
            .tasks_range(4, 4)
            .build();
        let inst = Instance::new(topo, requests, crate::model::InstanceParams::default());
        let realized = Realizations::draw(&inst, 1);
        let mut state = AdmissionState::new(&inst);
        state.admit(&inst, &realized, 0, 0.into());
        let demand = inst.demand_of(realized.outcome(0).rate).as_mhz();
        assert!((state.occupied[0].as_mhz() - demand).abs() < 1e-9);
        assert!(state.placements[0].as_ref().unwrap().is_consolidated());

        let mut nearest = NearestTargets::new(inst.topo().station_count());
        assert!(migrate_one_task(
            &inst,
            &realized,
            &mut state,
            0.into(),
            &mut nearest
        ));

        // Reference pipeline: render has complexity 2.0 of Σ 5.5.
        let task_share = demand * (2.0 / 5.5);
        assert!((state.occupied[0].as_mhz() - (demand - task_share)).abs() < 1e-6);
        assert!((state.occupied[1].as_mhz() - task_share).abs() < 1e-6);
        let placement = state.placements[0].as_ref().unwrap();
        assert!(!placement.is_consolidated());
        assert_eq!(placement.station_of(0), StationId(1)); // render moved
                                                           // A second migration of the same request is refused (one per
                                                           // request keeps Theorem 2's argument).
        assert!(!migrate_one_task(
            &inst,
            &realized,
            &mut state,
            0.into(),
            &mut nearest
        ));
    }

    #[test]
    fn feasible_latencies() {
        let inst = instance(40, 5, 21);
        let realized = Realizations::draw(&inst, 21);
        let out = Heu::new(21).solve(&inst, &realized).unwrap();
        // Every recorded latency respects the 200 ms requirement
        // (migration must preserve Constraint 11 — Theorem 2).
        for &lat in out.metrics().latencies_ms() {
            assert!(lat <= 200.0 + 1e-6, "latency {lat} violates deadline");
        }
    }

    #[test]
    fn heu_admits_at_least_as_many_in_aggregate() {
        // Over several seeds, Heu (which repairs overflows) should admit at
        // least as many requests as Appro on average.
        let mut appro_total = 0usize;
        let mut heu_total = 0usize;
        for seed in 0..6 {
            let inst = instance(60, 4, seed);
            let realized = Realizations::draw(&inst, seed);
            appro_total += Appro::new(seed).solve(&inst, &realized).unwrap().admitted();
            heu_total += Heu::new(seed).solve(&inst, &realized).unwrap().admitted();
        }
        assert!(
            heu_total + 3 >= appro_total,
            "heu admitted {heu_total} vs appro {appro_total}"
        );
    }

    #[test]
    fn deterministic() {
        let inst = instance(30, 4, 5);
        let realized = Realizations::draw(&inst, 5);
        let a = Heu::new(3).solve(&inst, &realized).unwrap();
        let b = Heu::new(3).solve(&inst, &realized).unwrap();
        assert_eq!(a.assignment(), b.assignment());
        assert_eq!(a.metrics().total_reward(), b.metrics().total_reward());
    }

    #[test]
    fn empty_instance() {
        let inst = instance(0, 3, 1);
        let realized = Realizations::draw(&inst, 1);
        let out = Heu::new(0).solve(&inst, &realized).unwrap();
        assert_eq!(out.admitted(), 0);
    }
}
