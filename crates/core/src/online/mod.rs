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
use mec_topology::units::{total_cmp, Compute};
use std::cmp::Ordering;

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

/// The station that `station_ids().filter(startable_at).max_by(value)`
/// picks: among the stations where the job may start, the last one
/// holding the most `value`. A station's deadline is checked only when
/// its value would take the lead, so a job that may start anywhere pays
/// for a few checks instead of one per station.
pub(crate) fn most_startable<T: PartialOrd>(
    view: &JobView<'_>,
    ctx: &SlotContext<'_>,
    value: impl Fn(StationId) -> T,
) -> Option<StationId> {
    let mut best: Option<(StationId, T)> = None;
    for s in ctx.topo.station_ids() {
        let v = value(s);
        // `max_by` keeps the later of two equal elements.
        let leads = best
            .as_ref()
            .is_none_or(|(_, b)| total_cmp(b, &v) != Ordering::Greater);
        if leads && startable_at(view, ctx, s) {
            best = Some((s, v));
        }
    }
    best.map(|(s, _)| s)
}

/// Per-station quantities with a tournament tree over them, so the
/// station holding the most is read in O(1) and a change costs O(log S).
///
/// Ties go to the highest index, exactly as
/// `station_ids().max_by(|a, b| total_cmp(..))` resolves them: `max_by`
/// keeps the later of two equal elements.
#[derive(Debug, Clone, Default)]
pub(crate) struct StationMax {
    values: Vec<Compute>,
    /// Winners, heap-ordered: node `k` plays `2k` against `2k + 1`, and the
    /// leaves start at `tree.len() / 2`. Padding leaves hold [`NO_STATION`].
    tree: Vec<usize>,
}

const NO_STATION: usize = usize::MAX;

impl StationMax {
    /// Replaces every value and rebuilds the tree in O(S).
    pub fn reset(&mut self, values: impl IntoIterator<Item = Compute>) {
        self.values.clear();
        self.values.extend(values);
        let leaves = self.values.len().next_power_of_two();
        self.tree.clear();
        self.tree.resize(2 * leaves, NO_STATION);
        for (slot, s) in self.tree[leaves..].iter_mut().zip(0..self.values.len()) {
            *slot = s;
        }
        for k in (1..leaves).rev() {
            self.tree[k] = self.winner(self.tree[2 * k], self.tree[2 * k + 1]);
        }
    }

    pub fn get(&self, s: StationId) -> Compute {
        self.values[s.index()]
    }

    pub fn set(&mut self, s: StationId, value: Compute) {
        self.values[s.index()] = value;
        let mut k = (self.tree.len() / 2 + s.index()) / 2;
        while k >= 1 {
            self.tree[k] = self.winner(self.tree[2 * k], self.tree[2 * k + 1]);
            k /= 2;
        }
    }

    /// The highest-index station holding the largest value.
    pub fn argmax(&self) -> Option<StationId> {
        match self.tree.get(1) {
            Some(&s) if s != NO_STATION => Some(StationId(s)),
            _ => None,
        }
    }

    /// `b` (the higher index) wins unless `a` holds strictly more.
    fn winner(&self, a: usize, b: usize) -> usize {
        if a == NO_STATION || b == NO_STATION {
            return a.min(b);
        }
        match total_cmp(&self.values[a], &self.values[b]) {
            Ordering::Greater => a,
            _ => b,
        }
    }
}

/// Remaining capacity tracker for one slot.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotCapacity {
    remaining: StationMax,
}

impl SlotCapacity {
    pub fn new(ctx: &SlotContext<'_>) -> Self {
        let mut capacity = Self::default();
        capacity.reset(ctx);
        capacity
    }

    /// Restores every station's full capacity.
    pub fn reset(&mut self, ctx: &SlotContext<'_>) {
        self.remaining
            .reset(ctx.topo.stations().iter().map(|s| s.capacity()));
    }

    pub fn remaining(&self, s: StationId) -> Compute {
        self.remaining.get(s)
    }

    /// The highest-index station with the most remaining capacity.
    pub fn most_remaining(&self) -> Option<StationId> {
        self.remaining.argmax()
    }

    /// Takes up to `want` from `s`; returns the granted amount.
    pub fn take(&mut self, s: StationId, want: Compute) -> Compute {
        let left = self.remaining.get(s);
        let grant = want.min(left).clamp_non_negative();
        self.remaining.set(s, left - grant);
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

#[cfg(test)]
mod station_max_tests {
    use super::*;
    use proptest::prelude::*;

    /// What the tree replaces: the scan's highest-index maximum.
    fn scan(values: &[Compute]) -> Option<StationId> {
        (0..values.len())
            .map(StationId)
            .max_by(|&a, &b| total_cmp(&values[a.index()], &values[b.index()]))
    }

    #[test]
    fn empty_has_no_maximum() {
        let mut tree = StationMax::default();
        assert_eq!(tree.argmax(), None);
        tree.reset([]);
        assert_eq!(tree.argmax(), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// After a rebuild and after every change, the root is the station
        /// `max_by` picks. Values come from a small set (signed zero
        /// included) so ties are common.
        #[test]
        fn root_is_the_scans_highest_index_maximum(
            start in prop::collection::vec(0usize..6, 1..70),
            changes in prop::collection::vec((0usize..70, 0usize..6), 0..60),
        ) {
            let palette = [0.0, -0.0, 1.0, 250.5, 999.0, 3000.0];
            let mut values: Vec<Compute> = start.iter().map(|&k| Compute::mhz(palette[k])).collect();
            let mut tree = StationMax::default();
            tree.reset(values.iter().copied());
            prop_assert_eq!(tree.argmax(), scan(&values));
            for &(s, k) in &changes {
                let s = StationId(s % values.len());
                values[s.index()] = Compute::mhz(palette[k]);
                tree.set(s, values[s.index()]);
                prop_assert_eq!(tree.get(s), values[s.index()]);
                prop_assert_eq!(tree.argmax(), scan(&values));
            }
        }
    }
}
