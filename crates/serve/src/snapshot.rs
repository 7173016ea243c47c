//! Periodic metrics snapshots: the operator-facing view of a serving run.
//!
//! Snapshots are plain data plus a hand-rolled [`Snapshot::to_json`] so
//! they can be tailed as JSON lines without pulling a serialization
//! framework into the runtime. Final snapshots carry no wall-clock
//! fields (`slots_per_sec` is `None`), so two runs with the same seed and
//! shard count serialize byte-identically.

use serde::{Deserialize, Serialize};

/// Order statistics over experienced latencies, in milliseconds.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Number of latency samples recorded so far.
    pub count: usize,
    /// Arithmetic mean (0 when no samples).
    pub mean_ms: f64,
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Largest sample.
    pub max_ms: f64,
}

impl LatencyStats {
    /// Computes the statistics from raw samples (any order). Non-finite
    /// samples cannot occur in practice (latencies are sums of finite
    /// delays); `total_cmp` keeps even that case panic-free.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self::from_sorted(&sorted)
    }

    /// Computes the statistics from samples already ordered by
    /// [`f64::total_cmp`]. The mean is summed in that order, so any two
    /// sortings of the same samples give the same bits: samples that
    /// `total_cmp` calls equal are bit-identical.
    pub(crate) fn from_sorted(sorted: &[f64]) -> Self {
        let Some(&max_ms) = sorted.last() else {
            return Self::default();
        };
        debug_assert!(sorted.is_sorted_by(|a, b| a.total_cmp(b).is_le()));
        let n = sorted.len();
        let q = |frac: f64| sorted[((frac * (n - 1) as f64).round()) as usize];
        Self {
            count: n,
            mean_ms: sorted.iter().sum::<f64>() / n as f64,
            p50_ms: q(0.50),
            p95_ms: q(0.95),
            p99_ms: q(0.99),
            max_ms,
        }
    }
}

/// A run's latency history kept sorted by [`f64::total_cmp`] between
/// snapshots, so a snapshot sorts only the samples reported since the
/// previous one and merges them in, in place, instead of re-sorting
/// the whole history.
#[derive(Debug, Clone, Default)]
pub(crate) struct SortedLatencies {
    /// Every merged sample, in `total_cmp` order.
    sorted: Vec<f64>,
    /// Samples pushed since the last merge, in any order.
    pending: Vec<f64>,
}

impl SortedLatencies {
    /// Queues samples for the next [`Self::stats`].
    pub(crate) fn push(&mut self, samples: &[f64]) {
        self.pending.extend_from_slice(samples);
    }

    /// Drops every sample, merged or pending: the caller pushes the
    /// whole history again (a shard's samples were replaced).
    pub(crate) fn clear(&mut self) {
        self.sorted.clear();
        self.pending.clear();
    }

    /// Merges the pending samples and returns the statistics over every
    /// sample so far, bit-identical to [`LatencyStats::from_samples`] of
    /// all of them.
    pub(crate) fn stats(&mut self) -> LatencyStats {
        self.merge_pending();
        LatencyStats::from_sorted(&self.sorted)
    }

    /// Sorts the pending samples and merges them from the back, so each
    /// merged sample moves at most once.
    fn merge_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.pending.sort_by(f64::total_cmp);
        let (sorted, pending) = (&mut self.sorted, &self.pending);
        let mut i = sorted.len();
        let mut j = pending.len();
        sorted.resize(i + j, 0.0);
        // Invariant: `sorted[i + j..]` holds the largest merged samples.
        while j > 0 {
            let take_old = i > 0 && sorted[i - 1].total_cmp(&pending[j - 1]).is_gt();
            if take_old {
                sorted[i + j - 1] = sorted[i - 1];
                i -= 1;
            } else {
                sorted[i + j - 1] = pending[j - 1];
                j -= 1;
            }
        }
        self.pending.clear();
    }
}

/// Fault-tolerance counters: what the supervision layer did during the
/// run. All quantities are in virtual slots or event counts — never wall
/// time — so same-seed chaos runs report byte-identical stats.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultStats {
    /// Shard workers restarted after a crash, stall, or missed deadline.
    pub restarts: u64,
    /// Journal entries re-injected into restarted workers during
    /// catch-up replay.
    pub replayed_arrivals: u64,
    /// Arrivals rerouted to a neighbor shard while their home shard was
    /// down (degraded policy `spill`).
    pub spilled: u64,
    /// Arrivals shed *because* their shard was down (degraded policy
    /// `shed`, or a full journal under `buffer`); also counted in the
    /// snapshot's `shed` total.
    pub shed_while_down: u64,
    /// Shard-slots spent unavailable: each barriered slot a shard missed
    /// adds one.
    pub degraded_slots: u64,
    /// Total outage length across restarts, in slots (restart slot minus
    /// detection slot, summed).
    pub recovery_latency_slots: u64,
    /// Engine checkpoints received from workers.
    pub checkpoints: u64,
    /// Journal entries dropped because a shard's journal hit its cap
    /// (recovery for that shard is best-effort from the oldest retained
    /// entry).
    pub journal_dropped: u64,
    /// Median outage length across successful restarts, in slots (0 when
    /// no restart completed).
    pub recovery_p50_slots: u64,
    /// 95th-percentile outage length across successful restarts, in
    /// slots.
    pub recovery_p95_slots: u64,
    /// Longest outage across successful restarts, in slots.
    pub recovery_max_slots: u64,
    /// On-disk records that failed CRC or structural validation
    /// (journal frames, checkpoint payloads).
    pub disk_corrupt_records: u64,
    /// Bytes truncated past the last intact on-disk record during
    /// torn-write salvage.
    pub disk_salvaged_bytes: u64,
    /// Recoveries that fell back to the authoritative in-memory state
    /// because the disk mirror was corrupt, truncated, or diverged
    /// (includes checkpoint current→prev fallbacks).
    pub disk_fallbacks: u64,
    /// Disk read retries (transient io errors, bounded backoff) plus
    /// write errors absorbed without aborting the run.
    pub disk_retries: u64,
}

impl FaultStats {
    /// Whether nothing fault-related happened (the fault-free fast path).
    pub fn is_quiet(&self) -> bool {
        *self == Self::default()
    }
}

/// Placement-plane counters: service cache behaviour and live topology
/// reconfiguration over the run. All quantities are event counts keyed to
/// virtual slots, so same-seed runs with the same ops script report
/// byte-identical stats.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PlacementStats {
    /// Arrivals whose home station already held their service.
    pub hits: u64,
    /// Arrivals whose home station did not hold their service.
    pub misses: u64,
    /// Misses served by rerouting to the nearest station holding the
    /// service.
    pub redirects: u64,
    /// Arrivals moved to another station because their home was draining
    /// or out of the fleet.
    pub rehomed: u64,
    /// Installs that started warm (service previously hosted there).
    pub installs_warm: u64,
    /// Installs that started cold.
    pub installs_cold: u64,
    /// Residents evicted to make room for installs.
    pub evictions: u64,
    /// Arrivals parked while an install was in flight.
    pub held: u64,
    /// Arrivals shed by the placement plane (no active station, or an
    /// unplaceable service with no holder); also counted in the
    /// snapshot's `shed` total.
    pub placement_shed: u64,
    /// `join` ops applied.
    pub joins: u64,
    /// `leave` ops applied.
    pub leaves: u64,
    /// `drain` ops applied.
    pub drains: u64,
    /// In-flight jobs migrated to takeover stations during handoffs.
    pub migrated: u64,
    /// Drain/leave handoffs completed.
    pub handoffs: u64,
    /// Encoded bytes of station-slice state shipped by handoffs — the
    /// "how much actually moved" half of the bounded-handoff contract.
    pub moved_state_bytes: u64,
}

impl PlacementStats {
    /// Whether the placement plane did nothing (disabled, no ops).
    pub fn is_quiet(&self) -> bool {
        *self == Self::default()
    }

    /// Field-wise difference against an earlier reading — the per-slot
    /// delta fed to the placement metrics/event layer.
    pub fn delta_since(&self, before: &Self) -> Self {
        Self {
            hits: self.hits.saturating_sub(before.hits),
            misses: self.misses.saturating_sub(before.misses),
            redirects: self.redirects.saturating_sub(before.redirects),
            rehomed: self.rehomed.saturating_sub(before.rehomed),
            installs_warm: self.installs_warm.saturating_sub(before.installs_warm),
            installs_cold: self.installs_cold.saturating_sub(before.installs_cold),
            evictions: self.evictions.saturating_sub(before.evictions),
            held: self.held.saturating_sub(before.held),
            placement_shed: self.placement_shed.saturating_sub(before.placement_shed),
            joins: self.joins.saturating_sub(before.joins),
            leaves: self.leaves.saturating_sub(before.leaves),
            drains: self.drains.saturating_sub(before.drains),
            migrated: self.migrated.saturating_sub(before.migrated),
            handoffs: self.handoffs.saturating_sub(before.handoffs),
            moved_state_bytes: self
                .moved_state_bytes
                .saturating_sub(before.moved_state_bytes),
        }
    }
}

/// One aggregated view of the whole serving fleet at a virtual slot.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// Virtual slot the snapshot was taken at (slots executed so far).
    pub slot: u64,
    /// Number of shards in the fleet.
    pub shards: usize,
    /// Requests accepted by admission control and injected into a shard.
    pub admitted: u64,
    /// Requests shed because their shard's backlog was at capacity.
    pub shed: u64,
    /// Requests completed (reward credited).
    pub completed: usize,
    /// Requests expired before first service.
    pub expired: usize,
    /// Streams aborted by the continuity requirement.
    pub aborted: usize,
    /// Requests still unfinished when the run ended (final snapshot only).
    pub unserved: usize,
    /// Total reward collected across all shards.
    pub total_reward: f64,
    /// Latency distribution over every served request so far.
    pub latency: LatencyStats,
    /// Per-shard engine backlog (waiting + running jobs), indexed by shard.
    pub queue_depths: Vec<usize>,
    /// Fault-tolerance counters (restarts, replays, degraded routing).
    pub faults: FaultStats,
    /// Placement-plane counters (cache behaviour, reconfiguration).
    pub placement: PlacementStats,
    /// Wall-clock throughput in slots per second. `None` in final
    /// snapshots so deterministic runs serialize identically.
    pub slots_per_sec: Option<f64>,
}

/// Formats an `f64` the way JSON expects: shortest round-trip form, with
/// non-finite values mapped to `null`.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

impl Snapshot {
    /// Serializes the snapshot as a single JSON object (one line, no
    /// trailing newline), suitable for JSON-lines streaming.
    pub fn to_json(&self) -> String {
        let depths = self
            .queue_depths
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let sps = match self.slots_per_sec {
            Some(v) => json_f64(v),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"slot\":{},\"shards\":{},\"admitted\":{},\"shed\":{},",
                "\"completed\":{},\"expired\":{},\"aborted\":{},\"unserved\":{},",
                "\"total_reward\":{},\"latency\":{{\"count\":{},\"mean_ms\":{},",
                "\"p50_ms\":{},\"p95_ms\":{},\"p99_ms\":{},\"max_ms\":{}}},",
                "\"queue_depths\":[{}],\"faults\":{{\"restarts\":{},",
                "\"replayed_arrivals\":{},\"spilled\":{},\"shed_while_down\":{},",
                "\"degraded_slots\":{},\"recovery_latency_slots\":{},",
                "\"checkpoints\":{},\"journal_dropped\":{},",
                "\"recovery_p50_slots\":{},\"recovery_p95_slots\":{},",
                "\"recovery_max_slots\":{},\"disk_corrupt_records\":{},",
                "\"disk_salvaged_bytes\":{},\"disk_fallbacks\":{},",
                "\"disk_retries\":{}}},",
                "\"placement\":{{\"hits\":{},\"misses\":{},\"redirects\":{},",
                "\"rehomed\":{},\"installs_warm\":{},\"installs_cold\":{},",
                "\"evictions\":{},\"held\":{},\"placement_shed\":{},",
                "\"joins\":{},\"leaves\":{},\"drains\":{},\"migrated\":{},",
                "\"handoffs\":{},\"moved_state_bytes\":{}}},",
                "\"slots_per_sec\":{}}}"
            ),
            self.slot,
            self.shards,
            self.admitted,
            self.shed,
            self.completed,
            self.expired,
            self.aborted,
            self.unserved,
            json_f64(self.total_reward),
            self.latency.count,
            json_f64(self.latency.mean_ms),
            json_f64(self.latency.p50_ms),
            json_f64(self.latency.p95_ms),
            json_f64(self.latency.p99_ms),
            json_f64(self.latency.max_ms),
            depths,
            self.faults.restarts,
            self.faults.replayed_arrivals,
            self.faults.spilled,
            self.faults.shed_while_down,
            self.faults.degraded_slots,
            self.faults.recovery_latency_slots,
            self.faults.checkpoints,
            self.faults.journal_dropped,
            self.faults.recovery_p50_slots,
            self.faults.recovery_p95_slots,
            self.faults.recovery_max_slots,
            self.faults.disk_corrupt_records,
            self.faults.disk_salvaged_bytes,
            self.faults.disk_fallbacks,
            self.faults.disk_retries,
            self.placement.hits,
            self.placement.misses,
            self.placement.redirects,
            self.placement.rehomed,
            self.placement.installs_warm,
            self.placement.installs_cold,
            self.placement.evictions,
            self.placement.held,
            self.placement.placement_shed,
            self.placement.joins,
            self.placement.leaves,
            self.placement.drains,
            self.placement.migrated,
            self.placement.handoffs,
            self.placement.moved_state_bytes,
            sps,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_yield_zeroes() {
        let s = LatencyStats::from_samples(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_ms, 0.0);
        assert_eq!(s.max_ms, 0.0);
    }

    #[test]
    fn percentiles_bracket_the_distribution() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencyStats::from_samples(&samples);
        assert_eq!(s.count, 100);
        assert!((s.mean_ms - 50.5).abs() < 1e-9);
        assert!((s.p50_ms - 50.0).abs() <= 1.0);
        assert!((s.p95_ms - 95.0).abs() <= 1.0);
        assert_eq!(s.max_ms, 100.0);
        assert!(s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms && s.p99_ms <= s.max_ms);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// One latency sample, drawn so that ties, `±0.0`, subnormals and
        /// signs the plain `<` order cannot tell apart all turn up.
        fn sample() -> impl Strategy<Value = f64> {
            prop_oneof![
                Just(0.0),
                Just(-0.0),
                (1u64..4).prop_map(f64::from_bits),
                (1u64..4).prop_map(|b| -f64::from_bits(b)),
                (0u32..16).prop_map(|k| f64::from(k) * 0.25),
                0.0f64..500.0,
            ]
        }

        fn bits(s: &LatencyStats) -> [u64; 6] {
            [
                s.count as u64,
                s.mean_ms.to_bits(),
                s.p50_ms.to_bits(),
                s.p95_ms.to_bits(),
                s.p99_ms.to_bits(),
                s.max_ms.to_bits(),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The kept-sorted history reads, after every batch, exactly
            /// what a full sort of all samples so far reads; one batch
            /// replaces the history wholesale, as a recovered shard does.
            #[test]
            fn merged_history_matches_a_full_sort(
                batches in prop::collection::vec(prop::collection::vec(sample(), 0..40), 1..12),
                replace_at in 0usize..12,
            ) {
                let mut kept = SortedLatencies::default();
                let mut all: Vec<f64> = Vec::new();
                for (k, batch) in batches.iter().enumerate() {
                    if k == replace_at {
                        all = batch.clone();
                        kept.clear();
                        kept.push(&all);
                    } else {
                        all.extend_from_slice(batch);
                        kept.push(batch);
                    }
                    prop_assert_eq!(bits(&kept.stats()), bits(&LatencyStats::from_samples(&all)));
                }
            }
        }
    }

    #[test]
    fn json_is_stable_and_parseable_shape() {
        let snap = Snapshot {
            slot: 100,
            shards: 4,
            admitted: 42,
            shed: 3,
            completed: 30,
            total_reward: 1234.5,
            latency: LatencyStats::from_samples(&[10.0, 20.0, 30.0]),
            queue_depths: vec![1, 2, 3, 4],
            slots_per_sec: None,
            ..Snapshot::default()
        };
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"slot\":100"), "{json}");
        assert!(json.contains("\"queue_depths\":[1,2,3,4]"), "{json}");
        assert!(json.contains("\"slots_per_sec\":null"), "{json}");
        assert!(json.contains("\"total_reward\":1234.5"), "{json}");
        assert!(json.contains("\"faults\":{\"restarts\":0"), "{json}");
        assert!(!json.contains('\n'));
        // Identical snapshots serialize identically.
        assert_eq!(json, snap.clone().to_json());
    }

    #[test]
    fn fault_stats_serialize_and_quiet_detect() {
        let mut snap = Snapshot::default();
        assert!(snap.faults.is_quiet());
        snap.faults.restarts = 2;
        snap.faults.replayed_arrivals = 37;
        snap.faults.recovery_latency_slots = 10;
        snap.faults.recovery_p50_slots = 4;
        snap.faults.recovery_p95_slots = 6;
        snap.faults.recovery_max_slots = 6;
        assert!(!snap.faults.is_quiet());
        let json = snap.to_json();
        assert!(json.contains("\"restarts\":2"), "{json}");
        assert!(json.contains("\"replayed_arrivals\":37"), "{json}");
        assert!(json.contains("\"recovery_latency_slots\":10"), "{json}");
        assert!(json.contains("\"recovery_p50_slots\":4"), "{json}");
        assert!(json.contains("\"recovery_p95_slots\":6"), "{json}");
        assert!(json.contains("\"recovery_max_slots\":6"), "{json}");
        snap.faults.disk_corrupt_records = 3;
        snap.faults.disk_salvaged_bytes = 128;
        snap.faults.disk_fallbacks = 1;
        snap.faults.disk_retries = 2;
        let json = snap.to_json();
        assert!(json.contains("\"disk_corrupt_records\":3"), "{json}");
        assert!(json.contains("\"disk_salvaged_bytes\":128"), "{json}");
        assert!(json.contains("\"disk_fallbacks\":1"), "{json}");
        assert!(json.contains("\"disk_retries\":2"), "{json}");
    }

    #[test]
    fn placement_stats_serialize_and_quiet_detect() {
        let mut snap = Snapshot::default();
        assert!(snap.placement.is_quiet());
        let json = snap.to_json();
        assert!(json.contains("\"placement\":{\"hits\":0"), "{json}");
        snap.placement.hits = 7;
        snap.placement.misses = 2;
        snap.placement.installs_cold = 2;
        snap.placement.drains = 1;
        snap.placement.migrated = 13;
        snap.placement.handoffs = 1;
        snap.placement.moved_state_bytes = 2048;
        assert!(!snap.placement.is_quiet());
        let json = snap.to_json();
        assert!(json.contains("\"hits\":7"), "{json}");
        assert!(json.contains("\"installs_cold\":2"), "{json}");
        assert!(json.contains("\"migrated\":13"), "{json}");
        assert!(json.contains("\"handoffs\":1"), "{json}");
        assert!(json.contains("\"moved_state_bytes\":2048"), "{json}");
    }
}
