//! The policy abstraction shared by all bandit algorithms.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of an arm (dense `0..arm_count`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ArmId(pub usize);

impl ArmId {
    /// The arm's dense index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for ArmId {
    fn from(value: usize) -> Self {
        ArmId(value)
    }
}

impl fmt::Display for ArmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "arm{}", self.0)
    }
}

/// A telemetry view of one arm: its running statistics, confidence
/// bounds, and membership in the active set. Produced by
/// [`BanditPolicy::arm_views`] for observability; policies without
/// confidence machinery report `ucb == lcb == mean`, and policies that
/// never eliminate report every arm active.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArmView {
    /// The arm.
    pub arm: ArmId,
    /// Times pulled.
    pub pulls: u64,
    /// Empirical (or posterior/discounted) mean reward.
    pub mean: f64,
    /// Upper confidence bound at the current time.
    pub ucb: f64,
    /// Lower confidence bound at the current time.
    pub lcb: f64,
    /// The policy's own confidence radius at the current time: the
    /// schedule's radius for successive elimination, the anytime radius
    /// for UCB1 and ε-greedy, the padding for discounted UCB, the
    /// posterior standard deviation for Thompson sampling (infinite for
    /// an unpulled frequentist arm).
    pub radius: f64,
    /// Whether the arm is still selectable.
    pub active: bool,
}

/// A sequential arm-selection policy.
///
/// The protocol is the standard bandit loop: call [`BanditPolicy::select`]
/// to obtain the arm to play, observe a reward in `[0, 1]`, and feed it back
/// via [`BanditPolicy::update`].
pub trait BanditPolicy {
    /// Number of arms.
    fn arm_count(&self) -> usize;

    /// Chooses the next arm to play.
    fn select(&mut self) -> ArmId;

    /// Records the observed reward (must be in `[0, 1]`) for `arm`.
    fn update(&mut self, arm: ArmId, reward: f64);

    /// The arm the policy currently believes is best (highest empirical
    /// mean among arms it still considers; ties to the lowest index).
    fn best(&self) -> ArmId;

    /// Total number of updates so far.
    fn total_pulls(&self) -> u64;

    /// A view of every arm, in index order, at the current total pull
    /// count.
    fn arm_views(&self) -> Vec<ArmView>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_id_roundtrip() {
        let a: ArmId = 7.into();
        assert_eq!(a.index(), 7);
        assert_eq!(format!("{a}"), "arm7");
    }
}
