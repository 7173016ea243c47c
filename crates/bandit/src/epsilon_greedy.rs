//! ε-greedy — the simplest exploration baseline, used in ablations.

use crate::policy::{ArmId, ArmView, BanditPolicy};
use crate::stats::{ArmStats, ConfidenceSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// ε-greedy: with probability `epsilon` explore a uniformly random arm,
/// otherwise exploit the best empirical mean.
#[derive(Debug, Clone)]
pub struct EpsilonGreedy {
    stats: Vec<ArmStats>,
    epsilon: f64,
    rng: StdRng,
    total: u64,
}

impl EpsilonGreedy {
    /// Creates an ε-greedy policy.
    ///
    /// # Panics
    ///
    /// Panics if `arms == 0` or `epsilon` is outside `[0, 1]`.
    pub fn new(arms: usize, epsilon: f64, seed: u64) -> Self {
        assert!(arms >= 1, "need at least one arm");
        assert!((0.0..=1.0).contains(&epsilon), "epsilon must be in [0, 1]");
        Self {
            stats: vec![ArmStats::new(); arms],
            epsilon,
            rng: StdRng::seed_from_u64(seed),
            total: 0,
        }
    }

    /// The exploration probability.
    pub const fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The statistics of one arm.
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range.
    pub fn stats(&self, arm: ArmId) -> &ArmStats {
        &self.stats[arm.index()]
    }
}

impl BanditPolicy for EpsilonGreedy {
    fn arm_count(&self) -> usize {
        self.stats.len()
    }

    fn select(&mut self) -> ArmId {
        // Pull every arm once before going greedy.
        if let Some(unpulled) = self.stats.iter().position(|s| s.pulls() == 0) {
            return ArmId(unpulled);
        }
        if self.rng.gen::<f64>() < self.epsilon {
            ArmId(self.rng.gen_range(0..self.stats.len()))
        } else {
            self.best()
        }
    }

    fn update(&mut self, arm: ArmId, reward: f64) {
        debug_assert!(
            (-1e-9..=1.0 + 1e-9).contains(&reward),
            "rewards must be normalized to [0, 1], got {reward}"
        );
        self.total += 1;
        self.stats[arm.index()].record(reward.clamp(0.0, 1.0));
    }

    fn best(&self) -> ArmId {
        let (best, _) = self
            .stats
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.mean()))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("means are comparable"))
            .expect("at least one arm");
        ArmId(best)
    }

    fn total_pulls(&self) -> u64 {
        self.total
    }

    /// ε-greedy has no confidence machinery of its own; the
    /// anytime-schedule bounds are reported for comparability with the
    /// UCB-family learners. No arm is ever eliminated.
    fn arm_views(&self) -> Vec<ArmView> {
        let t = self.total;
        self.stats
            .iter()
            .enumerate()
            .map(|(i, s)| ArmView {
                arm: ArmId(i),
                pulls: s.pulls(),
                mean: s.mean(),
                ucb: s.ucb(ConfidenceSchedule::Anytime, t),
                lcb: s.lcb(ConfidenceSchedule::Anytime, t),
                radius: s.radius(ConfidenceSchedule::Anytime, t),
                active: true,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explores_then_exploits() {
        let means = [0.1, 0.9];
        let mut p = EpsilonGreedy::new(2, 0.1, 42);
        for _ in 0..1000 {
            let a = p.select();
            p.update(a, means[a.index()]);
        }
        assert_eq!(p.best(), ArmId(1));
        // Exploitation dominates: arm 1 gets the lion's share.
        assert!(p.stats(ArmId(1)).pulls() > 800);
        // But ε-exploration keeps arm 0 sampled.
        assert!(p.stats(ArmId(0)).pulls() > 10);
    }

    #[test]
    fn zero_epsilon_is_greedy() {
        let mut p = EpsilonGreedy::new(3, 0.0, 1);
        // Initialization pass.
        for r in [0.2, 0.9, 0.5] {
            let a = p.select();
            p.update(a, r);
        }
        for _ in 0..50 {
            let a = p.select();
            assert_eq!(a, ArmId(1));
            p.update(a, 0.9);
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be in [0, 1]")]
    fn bad_epsilon_rejected() {
        let _ = EpsilonGreedy::new(2, 1.5, 0);
    }
}
