//! UCB1 (Auer et al.) — an ablation baseline for the threshold learner.

use crate::policy::{ArmId, ArmView, BanditPolicy};
use crate::stats::{ArmStats, ConfidenceSchedule};
use serde::{Deserialize, Serialize};

/// The UCB1 policy: play the arm with the highest upper confidence bound;
/// unpulled arms first.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ucb1 {
    stats: Vec<ArmStats>,
    total: u64,
}

impl Ucb1 {
    /// Creates a UCB1 policy over `arms` arms.
    ///
    /// # Panics
    ///
    /// Panics if `arms == 0`.
    pub fn new(arms: usize) -> Self {
        assert!(arms >= 1, "need at least one arm");
        Self {
            stats: vec![ArmStats::new(); arms],
            total: 0,
        }
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

impl BanditPolicy for Ucb1 {
    fn arm_count(&self) -> usize {
        self.stats.len()
    }

    fn select(&mut self) -> ArmId {
        // Unpulled arms have infinite UCB under the anytime schedule, so a
        // single max scan covers both the initialization and steady state.
        let t = self.total;
        let (best, _) = self
            .stats
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.ucb(ConfidenceSchedule::Anytime, t)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("UCBs are comparable"))
            .expect("at least one arm");
        ArmId(best)
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

    /// Bounds under the anytime schedule UCB1 selects with. UCB1 never
    /// eliminates, so every arm is active.
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
    fn initializes_every_arm_once() {
        let mut p = Ucb1::new(3);
        let mut seen = [false; 3];
        for _ in 0..3 {
            let a = p.select();
            seen[a.index()] = true;
            p.update(a, 0.5);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn converges_to_best_arm() {
        let means = [0.2, 0.8, 0.4];
        let mut p = Ucb1::new(3);
        for _ in 0..2000 {
            let a = p.select();
            p.update(a, means[a.index()]);
        }
        assert_eq!(p.best(), ArmId(1));
        // The best arm should dominate the pull counts.
        assert!(p.stats(ArmId(1)).pulls() > 1500);
    }

    #[test]
    #[should_panic(expected = "at least one arm")]
    fn zero_arms_rejected() {
        let _ = Ucb1::new(0);
    }
}
