//! Online (per-time-slot, preemptive) algorithms for the dynamic reward
//! maximization problem (§V), all implemented as [`mec_sim::SlotPolicy`]s:
//!
//! * [`DynamicRr`] — Algorithm 3: Lipschitz-bandit threshold + round-robin
//!   admission + `Heu`-style assignment.
//! * [`OnlineGreedy`], [`OnlineOcorp`], [`OnlineHeuKkt`] — the online
//!   versions of the §VI-A baselines.
//!
//! [`policy_from_name`] resolves each of them from its [`POLICY_NAMES`]
//! entry.

mod dynamic_rr;
mod greedy;
mod heukkt;
mod ocorp;
mod registry;

pub use dynamic_rr::{DynamicRr, DynamicRrConfig, Learner};
pub use greedy::OnlineGreedy;
pub use heukkt::OnlineHeuKkt;
pub use ocorp::OnlineOcorp;
pub use registry::{policy_from_name, UnknownPolicy, POLICY_NAMES};

use mec_sim::{JobView, SlotContext};
use mec_topology::station::StationId;
use mec_topology::units::Compute;

/// The compute a job can usefully consume this slot: enough to sustain its
/// (estimated) rate, but never more than finishes its remaining work within
/// the slot.
pub(crate) fn useful_compute(view: &JobView<'_>, ctx: &SlotContext<'_>) -> Compute {
    let c_unit = ctx.config.c_unit;
    let rate_based = view.rate_estimate().demand(c_unit);
    match view.job.max_useful_rate(ctx.config.slot_seconds()) {
        Some(finish_rate) => rate_based.min(finish_rate.demand(c_unit)),
        None => rate_based,
    }
}

/// Whether `station` is a legal *first* service location for the job this
/// slot (Ineq. 1 — the engine enforces the same test, so policies must
/// pre-filter with it). Jobs already started are always legal.
pub(crate) fn startable_at(view: &JobView<'_>, ctx: &SlotContext<'_>, station: StationId) -> bool {
    if view.job.realized().is_some() {
        return true;
    }
    let waiting = view.job.waiting_slots(ctx.slot);
    view.job
        .request()
        .meets_deadline_at(ctx.topo, ctx.paths, station, waiting, ctx.config.slot_ms)
}

/// Remaining capacity tracker for one slot.
#[derive(Debug, Clone)]
pub(crate) struct SlotCapacity {
    remaining: Vec<Compute>,
}

impl SlotCapacity {
    pub fn new(ctx: &SlotContext<'_>) -> Self {
        Self {
            remaining: ctx.topo.stations().iter().map(|s| s.capacity()).collect(),
        }
    }

    pub fn remaining(&self, s: StationId) -> Compute {
        self.remaining[s.index()]
    }

    /// Takes up to `want` from `s`; returns the granted amount.
    pub fn take(&mut self, s: StationId, want: Compute) -> Compute {
        let grant = want.min(self.remaining[s.index()]).clamp_non_negative();
        self.remaining[s.index()] -= grant;
        grant
    }
}

#[cfg(test)]
mod send_tests {
    use super::*;

    /// The serving runtime (`mec-serve`) moves boxed online policies into
    /// per-shard worker threads, so every policy must be `Send`. Compile-
    /// time assertion — a non-`Send` field (e.g. an `Rc`) fails this test
    /// at build time.
    #[test]
    fn online_policies_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<DynamicRr>();
        assert_send::<OnlineGreedy>();
        assert_send::<OnlineHeuKkt>();
        assert_send::<OnlineOcorp>();
        assert_send::<Box<dyn mec_sim::SlotPolicy + Send>>();
    }
}
