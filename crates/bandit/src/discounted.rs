//! Discounted UCB (Kocsis & Szepesvári / Garivier & Moulines) — a
//! non-stationary bandit for drifting reward landscapes.
//!
//! `DynamicRR`'s threshold landscape is *not* stationary: the best `C^th`
//! during the arrival ramp differs from the best at saturation. D-UCB
//! geometrically discounts old observations (`γ < 1`), so the policy keeps
//! adapting; `γ = 1` recovers plain UCB1.

use crate::policy::{ArmId, ArmView, BanditPolicy};
use serde::{Deserialize, Serialize};

/// Per-arm discounted statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
struct DiscountedStats {
    /// Discounted pull count `N_γ`.
    weight: f64,
    /// Discounted reward sum `S_γ`.
    sum: f64,
    /// Undiscounted pull count (telemetry only; selection uses `weight`).
    pulls: u64,
}

impl DiscountedStats {
    fn mean(&self) -> f64 {
        if self.weight > 0.0 {
            self.sum / self.weight
        } else {
            0.0
        }
    }
}

/// The discounted-UCB policy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiscountedUcb {
    arms: Vec<DiscountedStats>,
    gamma: f64,
    /// Exploration scale (the `ξ` constant; 2.0 is the classical choice).
    xi: f64,
    total: u64,
}

impl DiscountedUcb {
    /// Creates the policy with discount `gamma ∈ (0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `arms == 0` or `gamma` is outside `(0, 1]`.
    pub fn new(arms: usize, gamma: f64) -> Self {
        assert!(arms >= 1, "need at least one arm");
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
        Self {
            arms: vec![DiscountedStats::default(); arms],
            gamma,
            xi: 2.0,
            total: 0,
        }
    }

    /// The discount factor.
    pub const fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Discounted mean of one arm.
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range.
    pub fn discounted_mean(&self, arm: ArmId) -> f64 {
        self.arms[arm.index()].mean()
    }

    fn padding(&self, arm: &DiscountedStats) -> f64 {
        if arm.weight <= 0.0 {
            return f64::INFINITY;
        }
        let n_gamma: f64 = self.arms.iter().map(|a| a.weight).sum();
        (self.xi * n_gamma.max(std::f64::consts::E).ln() / arm.weight).sqrt()
    }
}

impl BanditPolicy for DiscountedUcb {
    fn arm_count(&self) -> usize {
        self.arms.len()
    }

    fn select(&mut self) -> ArmId {
        let (best, _) = self
            .arms
            .iter()
            .enumerate()
            .map(|(i, a)| (i, a.mean() + self.padding(a)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("indices are comparable"))
            .expect("at least one arm");
        ArmId(best)
    }

    fn update(&mut self, arm: ArmId, reward: f64) {
        debug_assert!(
            (-1e-9..=1.0 + 1e-9).contains(&reward),
            "rewards must be normalized to [0, 1], got {reward}"
        );
        for a in &mut self.arms {
            a.weight *= self.gamma;
            a.sum *= self.gamma;
        }
        let a = &mut self.arms[arm.index()];
        a.weight += 1.0;
        a.sum += reward.clamp(0.0, 1.0);
        a.pulls += 1;
        self.total += 1;
    }

    fn best(&self) -> ArmId {
        let (best, _) = self
            .arms
            .iter()
            .enumerate()
            .map(|(i, a)| (i, a.mean()))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("means are comparable"))
            .expect("at least one arm");
        ArmId(best)
    }

    fn total_pulls(&self) -> u64 {
        self.total
    }

    /// Discounted means with the D-UCB padding as the radius
    /// (`ucb/lcb = mean ± padding`). No arm is ever eliminated.
    fn arm_views(&self) -> Vec<ArmView> {
        self.arms
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let pad = self.padding(a);
                ArmView {
                    arm: ArmId(i),
                    pulls: a.pulls,
                    mean: a.mean(),
                    ucb: a.mean() + pad,
                    lcb: a.mean() - pad,
                    radius: pad,
                    active: true,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn tracks_a_drifting_best_arm() {
        // Arm 0 is best for the first 2000 steps, then arm 1 takes over.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut p = DiscountedUcb::new(2, 0.99);
        for t in 0..4000u64 {
            let means = if t < 2000 { [0.8, 0.2] } else { [0.2, 0.8] };
            let a = p.select();
            let r = if rng.gen::<f64>() < means[a.index()] {
                1.0
            } else {
                0.0
            };
            p.update(a, r);
        }
        // After the switch, the discounted view must prefer arm 1.
        assert_eq!(p.best(), ArmId(1));
        assert!(p.discounted_mean(ArmId(1)) > p.discounted_mean(ArmId(0)));
    }

    #[test]
    fn undiscounted_matches_ucb_semantics() {
        let means = [0.3, 0.7];
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut p = DiscountedUcb::new(2, 1.0);
        for _ in 0..2000 {
            let a = p.select();
            let r = if rng.gen::<f64>() < means[a.index()] {
                1.0
            } else {
                0.0
            };
            p.update(a, r);
        }
        assert_eq!(p.best(), ArmId(1));
        assert_eq!(p.total_pulls(), 2000);
    }

    #[test]
    fn unpulled_arms_selected_first() {
        let mut p = DiscountedUcb::new(3, 0.95);
        let mut seen = [false; 3];
        for _ in 0..3 {
            let a = p.select();
            seen[a.index()] = true;
            p.update(a, 0.5);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "gamma must be in (0, 1]")]
    fn bad_gamma_rejected() {
        let _ = DiscountedUcb::new(2, 0.0);
    }
}
