//! Offline algorithm interface and result type.

use crate::model::{Instance, Realizations};
use mec_sim::Metrics;
use mec_topology::station::StationId;
use std::fmt;
use std::time::{Duration, Instant};

/// Result of running one offline algorithm on one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadOutcome {
    metrics: Metrics,
    /// Per-request serving station (`None` = rejected/ignored).
    assignment: Vec<Option<StationId>>,
    runtime: Duration,
}

impl OffloadOutcome {
    /// Bundles metrics, the per-request assignment, and the wall-clock
    /// runtime of the solve.
    pub fn new(metrics: Metrics, assignment: Vec<Option<StationId>>, runtime: Duration) -> Self {
        Self {
            metrics,
            assignment,
            runtime,
        }
    }

    /// Reward/latency metrics.
    pub const fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The per-request assignment (`None` = not admitted).
    pub fn assignment(&self) -> &[Option<StationId>] {
        &self.assignment
    }

    /// Number of admitted requests.
    pub fn admitted(&self) -> usize {
        self.assignment.iter().filter(|a| a.is_some()).count()
    }

    /// Wall-clock runtime of the solve (Fig 3(c)).
    pub const fn runtime(&self) -> Duration {
        self.runtime
    }

    /// The same outcome, its runtime measured from `started` to now.
    pub(crate) fn timed_from(mut self, started: Instant) -> Self {
        self.runtime = started.elapsed();
        self
    }
}

impl fmt::Display for OffloadOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} admitted | {} | {:.1} ms solve",
            self.admitted(),
            self.metrics,
            self.runtime.as_secs_f64() * 1000.0
        )
    }
}

/// An offline (non-preemptive, §IV) reward-maximization algorithm.
///
/// Implementations must only read `realized.outcome(j)` after committing to
/// admit request `j` — the paper's reveal-on-schedule information model.
pub trait OfflineAlgorithm {
    /// The algorithm's display name (matches the paper's figure legends).
    fn name(&self) -> &'static str;

    /// Solves the instance against the given realizations.
    ///
    /// # Errors
    ///
    /// Implementations report solver failures (e.g. LP iteration limits) as
    /// human-readable strings; well-formed instances never fail.
    fn solve(&self, instance: &Instance, realized: &Realizations)
        -> Result<OffloadOutcome, String>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        let mut m = Metrics::new();
        m.record_completion(10.0, 5.0);
        let o = OffloadOutcome::new(
            m,
            vec![Some(StationId(1)), None, Some(StationId(0))],
            Duration::from_millis(3),
        );
        assert_eq!(o.admitted(), 2);
        assert_eq!(o.metrics().total_reward(), 10.0);
        assert_eq!(o.runtime(), Duration::from_millis(3));
        assert!(format!("{o}").contains("2 admitted"));
    }
}
