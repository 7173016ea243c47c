//! `Exact` — the paper's exact solution: **ILP-RM** solved by
//! branch-and-bound (practical only for small instances, as §IV-A notes).
//!
//! Variables `x_{ji} ∈ {0,1}` assign request `j`'s consolidated pipeline to
//! station `i`. The objective is the expected reward `Σ π_ρ RD_ρ` of
//! admitted requests (Eq. before (3)); Constraint (4) packs *expected*
//! demands `E(ρ_j) · C_unit` into capacities; Constraint (5) (deadlines) is
//! enforced structurally by creating variables only for feasible pairs.
//! The hindsight bound relaxes the same problem with realized values, so
//! both build it through `assignment_lp`.

use crate::model::{Instance, Realizations};
use crate::outcome::{OfflineAlgorithm, OffloadOutcome};
use mec_lp::{solve_binary, BranchBoundConfig, Cmp, LpError, Problem, Sense, VarId};
use mec_sim::Metrics;
use mec_topology::station::StationId;
use mec_topology::units::Compute;
use std::time::Instant;

/// The exact ILP-RM solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exact {
    /// Branch-and-bound node budget (default 200k nodes).
    pub config: Option<BranchBoundConfig>,
}

impl Exact {
    /// Creates the solver with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the branch-and-bound configuration.
    #[must_use]
    pub fn with_config(config: BranchBoundConfig) -> Self {
        Self {
            config: Some(config),
        }
    }

    /// Solves ILP-RM and returns `(expected objective, assignment)`.
    ///
    /// Exposed separately from [`OfflineAlgorithm::solve`] because the
    /// approximation-ratio experiment needs the *expected* optimum, not a
    /// realized run.
    ///
    /// # Errors
    ///
    /// Propagates [`LpError`] from branch-and-bound.
    pub fn solve_ilp(&self, instance: &Instance) -> Result<(f64, Vec<Option<StationId>>), LpError> {
        let requests = instance.requests();
        let (problem, vars) = assignment_lp(
            instance,
            |j| requests[j].demand().expected_reward(),
            |j| instance.demand_of(requests[j].demand().expected_rate()),
        );
        let binaries: Vec<VarId> = vars.iter().map(|&(_, _, v)| v).collect();
        let cfg = self.config.unwrap_or_default();
        let sol = solve_binary(&problem, &binaries, &cfg)?;
        let mut assignment = vec![None; instance.request_count()];
        for &(j, station, v) in &vars {
            if sol.value(v) > 0.5 {
                assignment[j] = Some(station);
            }
        }
        Ok((sol.objective(), assignment))
    }
}

/// The generalized-assignment LP that ILP-RM relaxes and the hindsight
/// bound solves: a variable per (request, feasible station) worth
/// `reward(j)`, a `≤ 1` row per request (3) and a capacity row per
/// station packing `demand(j)` (4), each row only where it has a
/// variable. Returns the problem and each variable's `(j, station, id)`.
pub(crate) fn assignment_lp(
    instance: &Instance,
    reward: impl Fn(usize) -> f64,
    demand: impl Fn(usize) -> Compute,
) -> (Problem, Vec<(usize, StationId, VarId)>) {
    let mut problem = Problem::new(Sense::Maximize);
    let mut vars = Vec::new();
    let mut capacity_rows = vec![Vec::new(); instance.topo().station_count()];
    for j in 0..instance.request_count() {
        let first = vars.len();
        let (reward, demand) = (reward(j), demand(j).as_mhz());
        for station in instance.feasible_stations(j) {
            let v = problem.add_var(reward);
            vars.push((j, station, v));
            capacity_rows[station.index()].push((v, demand));
        }
        let span = first..vars.len();
        if !span.is_empty() {
            problem.add_row_with(Cmp::Le, 1.0, |row| row.push_span(span, 1.0));
        }
    }
    for (station, coeffs) in instance.topo().station_ids().zip(capacity_rows) {
        if !coeffs.is_empty() {
            let capacity = instance.topo().station(station).capacity().as_mhz();
            problem.add_constraint(coeffs, Cmp::Le, capacity);
        }
    }
    (problem, vars)
}

impl OfflineAlgorithm for Exact {
    fn name(&self) -> &'static str {
        "Exact"
    }

    fn solve(
        &self,
        instance: &Instance,
        realized: &Realizations,
    ) -> Result<OffloadOutcome, String> {
        let started = Instant::now();
        let (_, assignment) = self
            .solve_ilp(instance)
            .map_err(|e| format!("ILP solve failed: {e}"))?;
        // Evaluate the plan on the realized world with the same semantics
        // as the other algorithms: demands reveal at admission, a demand
        // that no longer fits earns nothing.
        let mut metrics = Metrics::new();
        let mut occupied = vec![0.0f64; instance.topo().station_count()];
        for (j, a) in assignment.iter().enumerate() {
            match a {
                Some(station) => {
                    let outcome = realized.outcome(j);
                    let demand = instance.demand_of(outcome.rate).as_mhz();
                    let cap = instance.topo().station(*station).capacity().as_mhz();
                    let fits = occupied[station.index()] + demand <= cap + 1e-9;
                    occupied[station.index()] = (occupied[station.index()] + demand).min(cap);
                    let latency = instance
                        .offline_latency(j, *station)
                        .expect("assigned stations are reachable");
                    metrics.record_completion(
                        if fits { outcome.reward } else { 0.0 },
                        latency.as_ms(),
                    );
                }
                None => metrics.record_expired(),
            }
        }
        Ok(OffloadOutcome::new(metrics, assignment, started.elapsed()))
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
    fn small_instance_all_admitted_when_capacity_ample() {
        // 4 requests of ~800 MHz expected demand against 3 stations of
        // 3000+ MHz: everything fits, optimum = sum of expected rewards.
        let inst = instance(4, 3, 7);
        let exact = Exact::new();
        let (obj, assignment) = exact.solve_ilp(&inst).unwrap();
        assert_eq!(assignment.iter().filter(|a| a.is_some()).count(), 4);
        let expect: f64 = inst
            .requests()
            .iter()
            .map(|r| r.demand().expected_reward())
            .sum();
        assert!((obj - expect).abs() < 1e-6);
    }

    #[test]
    fn respects_expected_capacity() {
        let inst = instance(12, 2, 3);
        let (_, assignment) = Exact::new().solve_ilp(&inst).unwrap();
        let mut load = vec![0.0; inst.topo().station_count()];
        for (j, a) in assignment.iter().enumerate() {
            if let Some(s) = a {
                load[s.index()] += inst
                    .demand_of(inst.requests()[j].demand().expected_rate())
                    .as_mhz();
            }
        }
        for (i, &l) in load.iter().enumerate() {
            assert!(
                l <= inst.topo().station(StationId(i)).capacity().as_mhz() + 1e-6,
                "station {i} overloaded"
            );
        }
    }

    #[test]
    fn offline_run_realizes() {
        let inst = instance(8, 3, 5);
        let realized = Realizations::draw(&inst, 5);
        let out = Exact::new().solve(&inst, &realized).unwrap();
        assert!(out.metrics().total_reward() >= 0.0);
        assert!(out.admitted() >= 1);
    }

    #[test]
    fn dominates_any_single_assignment_in_expectation() {
        let inst = instance(6, 2, 13);
        let (obj, _) = Exact::new().solve_ilp(&inst).unwrap();
        // Assigning only request 0 to its best station is feasible, so the
        // optimum is at least that.
        let single = inst.requests()[0].demand().expected_reward();
        assert!(obj >= single - 1e-9);
    }
}
