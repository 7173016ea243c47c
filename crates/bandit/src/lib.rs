//! # mec-bandit
//!
//! Multi-armed-bandit substrate for the ICDCS'21 reproduction. `DynamicRR`
//! (Algorithm 3 of the paper) tunes its per-slot compute threshold `C^th`
//! with a **Lipschitz bandit**: the continuous threshold interval is
//! discretized into `κ` arms ([`LipschitzDomain`]) and a **successive
//! elimination** policy ([`SuccessiveElimination`]) keeps the empirically
//! plausible arms alive via UCB/LCB comparisons. UCB1 and ε-greedy are
//! provided as ablation baselines, plus regret accounting used by the
//! Theorem-3 experiment.
//!
//! Rewards fed to every policy must be normalized to `[0, 1]`; the
//! confidence radii assume that range.
//!
//! ## Example
//!
//! ```
//! use mec_bandit::{BanditPolicy, SuccessiveElimination, ConfidenceSchedule};
//!
//! let mut policy = SuccessiveElimination::new(5, ConfidenceSchedule::Horizon(1000));
//! for _ in 0..100 {
//!     let arm = policy.select();
//!     let reward = if arm.index() == 3 { 0.9 } else { 0.1 };
//!     policy.update(arm, reward);
//! }
//! assert_eq!(policy.best().index(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod discounted;
pub mod epsilon_greedy;
pub mod lipschitz;
pub mod policy;
pub mod probe;
pub mod regret;
pub mod stats;
pub mod successive_elimination;
pub mod thompson;
pub mod ucb;

pub use discounted::DiscountedUcb;
pub use epsilon_greedy::EpsilonGreedy;
pub use lipschitz::LipschitzDomain;
pub use policy::{ArmId, ArmView, BanditPolicy};
pub use probe::{ArmEventKind, ArmLifecycleEvent, ArmProbe};
pub use regret::{RegretAccountant, RegretTracker};
pub use stats::{ArmStats, ConfidenceSchedule};
pub use successive_elimination::SuccessiveElimination;
pub use thompson::ThompsonBeta;
pub use ucb::Ucb1;
