//! Successive elimination — the arm-selection core of the paper's
//! `DynamicRR` (Algorithm 3, lines 5-9).
//!
//! All arms start *active*. Selection round-robins over the active set so
//! every active arm is tried "in possibly multiple rounds"; after each
//! update, any arm `a` whose upper confidence bound falls below the lower
//! confidence bound of some arm `a'` is deactivated. With the radius
//! schedule of [`ConfidenceSchedule`], the policy's regret is
//! `O(sqrt(κ · T · log T))` (Slivkins [25], Thm 1.9 — the bound quoted in
//! the paper's Theorem 3).

use crate::policy::{ArmId, ArmView, BanditPolicy};
use crate::stats::{ArmStats, ConfidenceSchedule};
use serde::{Deserialize, Serialize};

/// Successive-elimination policy over a fixed arm set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuccessiveElimination {
    stats: Vec<ArmStats>,
    active: Vec<bool>,
    schedule: ConfidenceSchedule,
    cursor: usize,
    total: u64,
}

impl SuccessiveElimination {
    /// Creates a policy over `arms` arms.
    ///
    /// # Panics
    ///
    /// Panics if `arms == 0`.
    pub fn new(arms: usize, schedule: ConfidenceSchedule) -> Self {
        assert!(arms >= 1, "need at least one arm");
        Self {
            stats: vec![ArmStats::new(); arms],
            active: vec![true; arms],
            schedule,
            cursor: 0,
            total: 0,
        }
    }

    /// Whether `arm` is still active (never eliminated).
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range.
    pub fn is_active(&self, arm: ArmId) -> bool {
        self.active[arm.index()]
    }

    /// Number of still-active arms (always ≥ 1).
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// The statistics of one arm.
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range.
    pub fn stats(&self, arm: ArmId) -> &ArmStats {
        &self.stats[arm.index()]
    }

    /// Deactivates every arm dominated by another active arm:
    /// `UCB_t(a) < LCB_t(a')` for some active `a'`.
    fn prune(&mut self) {
        let t = self.total;
        let best_lcb = self
            .stats
            .iter()
            .zip(&self.active)
            .filter(|&(_, &act)| act)
            .map(|(s, _)| s.lcb(self.schedule, t))
            .fold(f64::NEG_INFINITY, f64::max);
        for (i, s) in self.stats.iter().enumerate() {
            if self.active[i] && s.ucb(self.schedule, t) < best_lcb {
                self.active[i] = false;
            }
        }
        // The arm achieving best_lcb can never eliminate itself
        // (UCB ≥ LCB for every arm), so at least one arm stays active.
        debug_assert!(self.active.iter().any(|&a| a));
    }
}

impl BanditPolicy for SuccessiveElimination {
    fn arm_count(&self) -> usize {
        self.stats.len()
    }

    fn select(&mut self) -> ArmId {
        // Round-robin over active arms so each is tried in turn.
        let n = self.stats.len();
        for _ in 0..n {
            let i = self.cursor;
            self.cursor = (self.cursor + 1) % n;
            if self.active[i] {
                return ArmId(i);
            }
        }
        unreachable!("at least one arm is always active");
    }

    fn update(&mut self, arm: ArmId, reward: f64) {
        debug_assert!(
            (-1e-9..=1.0 + 1e-9).contains(&reward),
            "rewards must be normalized to [0, 1], got {reward}"
        );
        self.total += 1;
        self.stats[arm.index()].record(reward.clamp(0.0, 1.0));
        self.prune();
    }

    fn best(&self) -> ArmId {
        let mut best = None;
        for (i, s) in self.stats.iter().enumerate() {
            if !self.active[i] {
                continue;
            }
            let better = match best {
                None => true,
                Some((_, m)) => s.mean() > m,
            };
            if better {
                best = Some((i, s.mean()));
            }
        }
        ArmId(best.expect("at least one active arm").0)
    }

    fn total_pulls(&self) -> u64 {
        self.total
    }

    fn arm_views(&self) -> Vec<ArmView> {
        let t = self.total;
        self.stats
            .iter()
            .zip(&self.active)
            .enumerate()
            .map(|(i, (s, &active))| ArmView {
                arm: ArmId(i),
                pulls: s.pulls(),
                mean: s.mean(),
                ucb: s.ucb(self.schedule, t),
                lcb: s.lcb(self.schedule, t),
                radius: s.radius(self.schedule, t),
                active,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_bernoulli_like(means: &[f64], steps: usize) -> SuccessiveElimination {
        // Deterministic "expected reward" feedback keeps the test exact.
        let mut p =
            SuccessiveElimination::new(means.len(), ConfidenceSchedule::Horizon(steps as u64));
        for _ in 0..steps {
            let arm = p.select();
            p.update(arm, means[arm.index()]);
        }
        p
    }

    #[test]
    fn eliminates_bad_arms() {
        let p = run_bernoulli_like(&[0.1, 0.9, 0.15], 600);
        assert!(p.is_active(ArmId(1)));
        assert!(!p.is_active(ArmId(0)));
        assert!(!p.is_active(ArmId(2)));
        assert_eq!(p.best(), ArmId(1));
    }

    #[test]
    fn never_eliminates_everything() {
        let p = run_bernoulli_like(&[0.5, 0.5, 0.5], 10_000);
        assert!(p.active_count() >= 1);
        // Identical arms are statistically indistinguishable: all stay.
        assert_eq!(p.active_count(), 3);
    }

    #[test]
    fn round_robin_spreads_pulls_while_active() {
        let mut p = SuccessiveElimination::new(4, ConfidenceSchedule::Anytime);
        for _ in 0..8 {
            let arm = p.select();
            p.update(arm, 0.5);
        }
        for i in 0..4 {
            assert_eq!(p.stats(ArmId(i)).pulls(), 2, "arm {i} not pulled twice");
        }
    }

    #[test]
    fn eliminated_arms_not_selected() {
        let mut p = run_bernoulli_like(&[0.05, 0.95], 400);
        assert!(!p.is_active(ArmId(0)));
        for _ in 0..10 {
            assert_eq!(p.select(), ArmId(1));
            p.update(ArmId(1), 0.95);
        }
    }

    #[test]
    fn single_arm_is_trivial() {
        let mut p = SuccessiveElimination::new(1, ConfidenceSchedule::Anytime);
        for _ in 0..5 {
            let a = p.select();
            assert_eq!(a, ArmId(0));
            p.update(a, 0.0);
        }
        assert_eq!(p.best(), ArmId(0));
        assert_eq!(p.total_pulls(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one arm")]
    fn zero_arms_rejected() {
        let _ = SuccessiveElimination::new(0, ConfidenceSchedule::Anytime);
    }
}
