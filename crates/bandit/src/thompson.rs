//! Thompson sampling with Beta posteriors — the Bayesian ablation baseline
//! for the threshold learner.
//!
//! Rewards in `[0, 1]` are treated as Bernoulli via the standard trick of
//! a weighted posterior update (`alpha += r`, `beta += 1 − r`), which keeps
//! the posterior exact for binary rewards and a sensible approximation for
//! fractional ones.

use crate::policy::{ArmId, ArmView, BanditPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-arm Beta(α, β) posterior.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Posterior {
    alpha: f64,
    beta: f64,
    pulls: u64,
}

impl Posterior {
    fn new() -> Self {
        // Uniform prior Beta(1, 1).
        Self {
            alpha: 1.0,
            beta: 1.0,
            pulls: 0,
        }
    }

    fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }

    /// Posterior standard deviation — the Bayesian analogue of the
    /// frequentist confidence radius the UCB-family learners report.
    fn std_dev(&self) -> f64 {
        let n = self.alpha + self.beta;
        (self.alpha * self.beta / (n * n * (n + 1.0))).sqrt()
    }

    /// Draws one posterior sample via the Jöhnk/gamma-free method: for
    /// Beta(α, β) with α, β ≥ 1 we use the fact that the maximum of
    /// `round(α)` uniforms approximates poorly, so instead sample by the
    /// ratio-of-gammas with Marsaglia-Tsang gamma sampling.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let x = gamma_sample(rng, self.alpha);
        let y = gamma_sample(rng, self.beta);
        if x + y == 0.0 {
            0.5
        } else {
            x / (x + y)
        }
    }
}

/// Marsaglia-Tsang gamma sampler (shape ≥ 1 via squeeze, shape < 1 via the
/// boost `Gamma(a) = Gamma(a+1) · U^{1/a}`), unit scale.
fn gamma_sample<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    if shape < 1.0 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        return gamma_sample(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box-Muller.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (1.0 + c * z).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        if u.ln() < 0.5 * z * z + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Thompson sampling over Beta posteriors.
#[derive(Debug, Clone)]
pub struct ThompsonBeta {
    arms: Vec<Posterior>,
    rng: StdRng,
    total: u64,
}

impl ThompsonBeta {
    /// Creates the policy with a uniform prior on every arm.
    ///
    /// # Panics
    ///
    /// Panics if `arms == 0`.
    pub fn new(arms: usize, seed: u64) -> Self {
        assert!(arms >= 1, "need at least one arm");
        Self {
            arms: vec![Posterior::new(); arms],
            rng: StdRng::seed_from_u64(seed),
            total: 0,
        }
    }

    /// Posterior mean of one arm.
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range.
    pub fn posterior_mean(&self, arm: ArmId) -> f64 {
        self.arms[arm.index()].mean()
    }

    /// Pull count of one arm.
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range.
    pub fn pulls(&self, arm: ArmId) -> u64 {
        self.arms[arm.index()].pulls
    }
}

impl BanditPolicy for ThompsonBeta {
    fn arm_count(&self) -> usize {
        self.arms.len()
    }

    fn select(&mut self) -> ArmId {
        let mut best = (0usize, f64::MIN);
        for i in 0..self.arms.len() {
            let s = self.arms[i].sample(&mut self.rng);
            if s > best.1 {
                best = (i, s);
            }
        }
        ArmId(best.0)
    }

    fn update(&mut self, arm: ArmId, reward: f64) {
        debug_assert!(
            (-1e-9..=1.0 + 1e-9).contains(&reward),
            "rewards must be normalized to [0, 1], got {reward}"
        );
        let r = reward.clamp(0.0, 1.0);
        let p = &mut self.arms[arm.index()];
        p.alpha += r;
        p.beta += 1.0 - r;
        p.pulls += 1;
        self.total += 1;
    }

    fn best(&self) -> ArmId {
        let (best, _) = self
            .arms
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p.mean()))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("means are comparable"))
            .expect("at least one arm");
        ArmId(best)
    }

    fn total_pulls(&self) -> u64 {
        self.total
    }

    /// The Beta posterior carries no frequentist confidence bounds, so
    /// `ucb == lcb == mean` (the posterior mean) and the radius is the
    /// posterior standard deviation. No arm is ever eliminated.
    fn arm_views(&self) -> Vec<ArmView> {
        self.arms
            .iter()
            .enumerate()
            .map(|(i, p)| ArmView {
                arm: ArmId(i),
                pulls: p.pulls,
                mean: p.mean(),
                ucb: p.mean(),
                lcb: p.mean(),
                radius: p.std_dev(),
                active: true,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn converges_to_best_arm() {
        let means = [0.2, 0.8, 0.5];
        let mut env = ChaCha8Rng::seed_from_u64(0);
        let mut p = ThompsonBeta::new(3, 42);
        for _ in 0..3000 {
            let a = p.select();
            let r = if env.gen::<f64>() < means[a.index()] {
                1.0
            } else {
                0.0
            };
            p.update(a, r);
        }
        assert_eq!(p.best(), ArmId(1));
        assert!(p.pulls(ArmId(1)) > 2000, "pulls {:?}", p.pulls(ArmId(1)));
        assert!((p.posterior_mean(ArmId(1)) - 0.8).abs() < 0.1);
    }

    #[test]
    fn gamma_sampler_means() {
        // E[Gamma(shape, 1)] = shape.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for &shape in &[0.5f64, 1.0, 3.0, 10.0] {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| gamma_sample(&mut rng, shape)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < shape * 0.05 + 0.05,
                "shape {shape}: mean {mean}"
            );
        }
    }

    #[test]
    fn posterior_updates() {
        let mut p = ThompsonBeta::new(1, 0);
        p.update(ArmId(0), 1.0);
        p.update(ArmId(0), 1.0);
        p.update(ArmId(0), 0.0);
        // Beta(3, 2) mean = 0.6.
        assert!((p.posterior_mean(ArmId(0)) - 0.6).abs() < 1e-12);
        assert_eq!(p.total_pulls(), 3);
    }

    #[test]
    fn fractional_rewards_accepted() {
        let mut p = ThompsonBeta::new(2, 0);
        for _ in 0..100 {
            let a = p.select();
            p.update(a, if a.index() == 0 { 0.9 } else { 0.1 });
        }
        assert_eq!(p.best(), ArmId(0));
    }

    #[test]
    #[should_panic(expected = "at least one arm")]
    fn zero_arms_rejected() {
        let _ = ThompsonBeta::new(0, 0);
    }
}
