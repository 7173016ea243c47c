//! Name-based resolution of the online policies — the one map from a
//! policy name to a [`SlotPolicy`], shared by the serving runtime, the
//! figure drivers and the ablations.

use super::{DynamicRr, DynamicRrConfig, OnlineGreedy, OnlineHeuKkt, OnlineOcorp};
use mec_sim::SlotPolicy;
use std::fmt;

/// Accepted policy names, in the paper's legend order (Fig. 4/6).
pub const POLICY_NAMES: [&str; 4] = ["DynamicRR", "HeuKKT", "OCORP", "Greedy"];

/// A policy name that matches none of [`POLICY_NAMES`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPolicy {
    /// The name that failed to resolve.
    pub name: String,
}

impl fmt::Display for UnknownPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown policy {:?}; accepted values: {}",
            self.name,
            POLICY_NAMES.join(", ")
        )
    }
}

impl std::error::Error for UnknownPolicy {}

/// Builds a boxed, thread-movable slot policy from its name.
///
/// `horizon_hint` seeds `DynamicRR`'s bandit schedule: the run's horizon
/// when it is known, the best estimate of how many slots an open-ended
/// run will last otherwise. `DynamicRR` runs with the water-filling
/// rounding (no per-slot LP).
///
/// # Errors
///
/// Returns [`UnknownPolicy`] (listing the accepted values) when `name`
/// matches no policy.
pub fn policy_from_name(
    name: &str,
    horizon_hint: u64,
) -> Result<Box<dyn SlotPolicy + Send>, UnknownPolicy> {
    Ok(match name {
        "DynamicRR" => Box::new(DynamicRr::new(DynamicRrConfig {
            horizon_hint,
            ..Default::default()
        })),
        "HeuKKT" => Box::new(OnlineHeuKkt::new()),
        "OCORP" => Box::new(OnlineOcorp::new()),
        "Greedy" => Box::new(OnlineGreedy::new()),
        other => {
            return Err(UnknownPolicy {
                name: other.to_string(),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_resolves() {
        for name in POLICY_NAMES {
            assert!(policy_from_name(name, 400).is_ok(), "{name}");
        }
    }

    #[test]
    fn unknown_name_lists_accepted_values() {
        let err = match policy_from_name("Oracle", 400) {
            Err(err) => err,
            Ok(_) => panic!("Oracle should not resolve"),
        };
        let msg = err.to_string();
        assert!(msg.contains("Oracle"), "{msg}");
        for name in POLICY_NAMES {
            assert!(msg.contains(name), "{msg} missing {name}");
        }
    }
}
