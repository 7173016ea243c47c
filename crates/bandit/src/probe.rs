//! Learner probe: structured arm-lifecycle events for observability.
//!
//! [`ArmProbe`] derives every event from the arm state a policy already
//! exposes through [`BanditPolicy::arm_views`], so no policy records
//! anything itself:
//!
//! - attaching emits one [`ArmEventKind::Activate`] per active arm;
//! - after each update, a [`ArmEventKind::Sample`] and a
//!   [`ArmEventKind::BoundUpdate`] carry the pulled arm's pulls, mean and
//!   radius, and one [`ArmEventKind::Eliminate`] follows for each arm whose
//!   `active` flag went from true to false, in index order.
//!
//! The probe only reads the policy, so recording never perturbs
//! selection, elimination, or RNG state. The buffer is bounded
//! ([`PROBE_BUFFER_CAP`]): when a consumer stops draining, further events
//! are counted as dropped rather than growing memory without bound,
//! mirroring the trace-ring policy in `mec-obs`.

use crate::policy::{ArmId, ArmView, BanditPolicy};
use serde::{Deserialize, Serialize};

/// Events a drained probe buffer can hold before dropping (per learner).
pub const PROBE_BUFFER_CAP: usize = 4096;

/// What happened to an arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArmEventKind {
    /// The arm was in the active set when the probe attached.
    Activate,
    /// The arm was pulled and a reward was observed.
    Sample,
    /// The arm's confidence bounds changed (emitted for the pulled arm).
    BoundUpdate,
    /// The arm was removed from the active set.
    Eliminate,
}

impl ArmEventKind {
    /// Stable lowercase name, used verbatim in trace events.
    pub const fn as_str(self) -> &'static str {
        match self {
            ArmEventKind::Activate => "activate",
            ArmEventKind::Sample => "sample",
            ArmEventKind::BoundUpdate => "bound_update",
            ArmEventKind::Eliminate => "eliminate",
        }
    }
}

/// One structured arm-lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArmLifecycleEvent {
    /// The learner's total pull count when the event fired.
    pub step: u64,
    /// The arm concerned.
    pub arm: ArmId,
    /// What happened.
    pub kind: ArmEventKind,
    /// The arm's pull count after the event.
    pub pulls: u64,
    /// The arm's empirical (or posterior/discounted) mean after the event.
    pub mean: f64,
    /// The arm's [`ArmView::radius`] after the event.
    pub radius: f64,
    /// The observed reward ([`ArmEventKind::Sample`] only).
    pub reward: Option<f64>,
    /// The best active arm's mean after the event ([`ArmEventKind::Sample`]
    /// only) — the online-available per-step oracle for regret accounting.
    pub oracle: Option<f64>,
}

/// A bounded, detachable recorder of one policy's arm lifecycle.
///
/// Detached (the default) it records nothing. Call [`ArmProbe::attach`]
/// to start, and [`ArmProbe::after_update`] right after every
/// [`BanditPolicy::update`] of the observed policy.
#[derive(Debug, Clone, Default)]
pub struct ArmProbe {
    attached: bool,
    /// Each arm's `active` flag as of the last derived events.
    active: Vec<bool>,
    events: Vec<ArmLifecycleEvent>,
    dropped: u64,
}

impl ArmProbe {
    /// Whether events are being recorded.
    pub const fn attached(&self) -> bool {
        self.attached
    }

    /// Starts recording and emits an [`ArmEventKind::Activate`] per
    /// currently active arm, so a consumer attaching mid-run sees the live
    /// set before any samples arrive. A no-op while already attached.
    pub fn attach(&mut self, policy: &dyn BanditPolicy) {
        if self.attached {
            return;
        }
        self.attached = true;
        let t = policy.total_pulls();
        let views = policy.arm_views();
        self.active = views.iter().map(|v| v.active).collect();
        for v in views.iter().filter(|v| v.active) {
            self.push(ArmEventKind::Activate, t, v, None, None);
        }
    }

    /// Stops recording. Events already buffered stay for a final drain.
    pub fn detach(&mut self) {
        self.attached = false;
    }

    /// Derives the events of `policy.update(arm, reward)`, which must have
    /// just returned. A no-op while detached.
    pub fn after_update(&mut self, policy: &dyn BanditPolicy, arm: ArmId, reward: f64) {
        if !self.attached {
            return;
        }
        let t = policy.total_pulls();
        let views = policy.arm_views();
        let oracle = views
            .iter()
            .filter(|v| v.active)
            .map(|v| v.mean)
            .fold(f64::NEG_INFINITY, f64::max);
        let pulled = &views[arm.index()];
        self.push(
            ArmEventKind::Sample,
            t,
            pulled,
            Some(reward.clamp(0.0, 1.0)),
            Some(oracle),
        );
        self.push(ArmEventKind::BoundUpdate, t, pulled, None, None);
        for v in &views {
            let was = std::mem::replace(&mut self.active[v.arm.index()], v.active);
            if was && !v.active {
                self.push(ArmEventKind::Eliminate, t, v, None, None);
            }
        }
    }

    /// Removes and returns everything recorded since the last drain, with
    /// the number of events the buffer cap dropped since then.
    pub fn drain(&mut self) -> (Vec<ArmLifecycleEvent>, u64) {
        (
            std::mem::take(&mut self.events),
            std::mem::take(&mut self.dropped),
        )
    }

    /// Records one event; drops (and counts) when the buffer is full.
    fn push(
        &mut self,
        kind: ArmEventKind,
        step: u64,
        view: &ArmView,
        reward: Option<f64>,
        oracle: Option<f64>,
    ) {
        if self.events.len() >= PROBE_BUFFER_CAP {
            self.dropped += 1;
            return;
        }
        self.events.push(ArmLifecycleEvent {
            step,
            arm: view.arm,
            kind,
            pulls: view.pulls,
            mean: view.mean,
            radius: view.radius,
            reward,
            oracle,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConfidenceSchedule, SuccessiveElimination, Ucb1};

    /// Runs `steps` deterministic updates (each arm's mean as its reward),
    /// reporting each to `probe`.
    fn drive(p: &mut SuccessiveElimination, probe: &mut ArmProbe, means: &[f64], steps: usize) {
        for _ in 0..steps {
            let arm = p.select();
            p.update(arm, means[arm.index()]);
            probe.after_update(p, arm, means[arm.index()]);
        }
    }

    #[test]
    fn detached_probe_records_nothing() {
        let mut p = SuccessiveElimination::new(2, ConfidenceSchedule::Horizon(200));
        let mut probe = ArmProbe::default();
        drive(&mut p, &mut probe, &[0.1, 0.9], 200);
        assert!(!probe.attached());
        assert_eq!(probe.drain(), (Vec::new(), 0));
    }

    #[test]
    fn probe_emits_full_lifecycle() {
        use ArmEventKind::*;
        let mut p = SuccessiveElimination::new(3, ConfidenceSchedule::Horizon(600));
        let mut probe = ArmProbe::default();
        probe.attach(&p);
        // Attach emits one activate per (active) arm.
        let (attach, _) = probe.drain();
        assert_eq!(attach.len(), 3);
        assert!(attach.iter().all(|e| e.kind == Activate && e.pulls == 0));
        assert!(attach.iter().all(|e| e.radius.is_infinite()));
        drive(&mut p, &mut probe, &[0.1, 0.9, 0.15], 600);
        let (events, dropped) = probe.drain();
        assert_eq!(dropped, 0);
        let samples: Vec<_> = events.iter().filter(|e| e.kind == Sample).collect();
        let eliminations: Vec<_> = events.iter().filter(|e| e.kind == Eliminate).collect();
        assert_eq!(samples.len(), 600);
        // Each sample carries the reward and the running oracle.
        assert!(samples
            .iter()
            .all(|e| e.reward.is_some() && e.oracle.is_some()));
        assert!(samples.iter().all(|e| e.radius.is_finite()));
        // Steps are monotone and pair each sample with a bound update.
        assert!(samples.windows(2).all(|w| w[0].step < w[1].step));
        assert_eq!(events.iter().filter(|e| e.kind == BoundUpdate).count(), 600);
        // Both bad arms were eliminated, and the probe saw it happen.
        let mut gone: Vec<usize> = eliminations.iter().map(|e| e.arm.index()).collect();
        gone.sort_unstable();
        assert_eq!(gone, vec![0, 2]);
        // Late oracle values approach the best arm's mean.
        let last = samples.last().unwrap();
        assert!((last.oracle.unwrap() - 0.9).abs() < 0.05);
    }

    #[test]
    fn bounded_buffer_counts_drops_per_drain() {
        let mut p = Ucb1::new(2);
        let mut probe = ArmProbe::default();
        probe.attach(&p);
        // Two attach events, then two per update.
        let updates = PROBE_BUFFER_CAP / 2 + 5;
        for _ in 0..updates {
            let arm = p.select();
            p.update(arm, 0.5);
            probe.after_update(&p, arm, 0.5);
        }
        let (kept, dropped) = probe.drain();
        assert_eq!(kept.len(), PROBE_BUFFER_CAP);
        assert_eq!(dropped, 12);
        // Drain frees the buffer and restarts the drop count.
        let arm = p.select();
        p.update(arm, 0.5);
        probe.after_update(&p, arm, 0.5);
        assert_eq!(probe.drain().0.len(), 2);
        assert_eq!(probe.drain(), (Vec::new(), 0));
    }

    #[test]
    fn event_kinds_have_stable_names() {
        assert_eq!(ArmEventKind::Activate.as_str(), "activate");
        assert_eq!(ArmEventKind::Sample.as_str(), "sample");
        assert_eq!(ArmEventKind::BoundUpdate.as_str(), "bound_update");
        assert_eq!(ArmEventKind::Eliminate.as_str(), "eliminate");
    }
}
