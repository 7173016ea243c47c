//! Hindsight bound: the value of clairvoyance.
//!
//! None of the paper's algorithms can beat a scheduler that knows every
//! realized `(rate, reward)` *before* assigning. The LP relaxation of that
//! clairvoyant assignment problem is a certified upper bound on the
//! realized reward of **any** policy — the distance to it is the "price of
//! uncertainty" the slot-indexed design tries to shrink.

use crate::exact::assignment_lp;
use crate::model::{Instance, Realizations};
use mec_lp::LpError;

/// Certified upper bound on the realized reward any offline policy can
/// collect on `(instance, realized)`: the LP relaxation of the clairvoyant
/// generalized assignment problem (realized demands packed into realized
/// capacities, realized rewards as the objective).
///
/// # Errors
///
/// Propagates [`LpError`]; the LP is always feasible (assign nothing) and
/// bounded (each request at most once), so errors indicate numerical
/// trouble only.
pub fn hindsight_bound(instance: &Instance, realized: &Realizations) -> Result<f64, LpError> {
    // Clairvoyant: the realized reward, earned iff the request is
    // (fractionally) placed, and the realized demand.
    let (problem, _) = assignment_lp(
        instance,
        |j| realized.outcome(j).reward,
        |j| instance.demand_of(realized.outcome(j).rate),
    );
    problem.solve().map(|s| s.objective())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::InstanceParams;
    use crate::{Appro, Greedy, Heu, HeuKkt, Ocorp, OfflineAlgorithm};
    use mec_topology::TopologyBuilder;
    use mec_workload::WorkloadBuilder;

    fn world(seed: u64, n: usize) -> (Instance, Realizations) {
        let topo = TopologyBuilder::new(5).seed(seed).build();
        let requests = WorkloadBuilder::new(&topo).seed(seed).count(n).build();
        let instance = Instance::new(topo, requests, InstanceParams::default());
        let realized = Realizations::draw(&instance, seed);
        (instance, realized)
    }

    #[test]
    fn bounds_every_algorithm() {
        for seed in 0..3 {
            let (instance, realized) = world(seed, 40);
            let bound = hindsight_bound(&instance, &realized).unwrap();
            let algos: Vec<Box<dyn OfflineAlgorithm>> = vec![
                Box::new(Appro::new(seed)),
                Box::new(Heu::new(seed)),
                Box::new(HeuKkt::new()),
                Box::new(Ocorp::new()),
                Box::new(Greedy::new()),
            ];
            for algo in algos {
                let reward = algo
                    .solve(&instance, &realized)
                    .unwrap()
                    .metrics()
                    .total_reward();
                assert!(
                    reward <= bound + 1e-6,
                    "{} ({reward}) above the clairvoyant bound ({bound})",
                    algo.name()
                );
            }
        }
    }

    #[test]
    fn bound_is_tight_when_everything_fits() {
        // Tiny workload, roomy network: the bound equals the total
        // realized reward.
        let (instance, realized) = world(7, 4);
        let bound = hindsight_bound(&instance, &realized).unwrap();
        let total: f64 = (0..4).map(|j| realized.outcome(j).reward).sum();
        assert!((bound - total).abs() < 1e-6);
    }

    #[test]
    fn empty_instance_bound_zero() {
        let (instance, realized) = world(1, 0);
        assert_eq!(hindsight_bound(&instance, &realized).unwrap(), 0.0);
    }
}
