//! Decision flight recorder: a bounded per-shard ring of compact
//! per-slot decision snapshots, dumped into the run's trace when
//! something goes wrong (SLO breach, suspected drift, shard crash) or
//! rendered on demand.
//!
//! The recorder answers "what was the learner doing in the slots right
//! before the incident?" without paying for a full trace: each shard
//! contributes one [`DecisionSnapshot`] per slot (chosen arm, live-arm
//! count, learner bounds, LP basis stats, an FNV-1a digest of the slot's
//! assignment), the rings keep only the last `capacity` slots, and a
//! triggered dump renders them sorted by `(slot, shard)` so the final
//! line of the dump is the snapshot of the triggering slot.
//!
//! All snapshot content is deterministic (virtual slots, counts,
//! rewards, digests) per the crate's determinism contract — a same-seed
//! replay produces an identical dump.

use std::collections::VecDeque;

use crate::trace::{TraceEvent, Value};

/// Default per-shard ring capacity (slots of history kept).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// One shard-slot decision snapshot. All fields are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionSnapshot {
    /// Shard that made the decision.
    pub shard: usize,
    /// Virtual slot of the decision.
    pub slot: u64,
    /// Chosen arm index.
    pub arm: usize,
    /// Threshold value (MHz) the arm maps to.
    pub value: f64,
    /// Live (non-eliminated) arms at decision time.
    pub active_arms: u64,
    /// Empirically best arm at decision time.
    pub best_arm: usize,
    /// Mean reward of the best arm.
    pub best_mean: f64,
    /// Requests granted compute this slot.
    pub granted: u64,
    /// Total MHz granted this slot.
    pub granted_mhz: f64,
    /// FNV-1a digest of the (request, station, grant) assignment triples.
    pub assign_digest: u64,
    /// Cumulative LP solves (0 in fast mode).
    pub lp_solves: u64,
    /// Cumulative LP warm-start hits.
    pub lp_warm_hits: u64,
    /// Cumulative LP simplex pivots.
    pub lp_pivots: u64,
}

impl DecisionSnapshot {
    /// Renders the snapshot as a `kind: "flight"` trace event.
    pub fn to_event(&self) -> TraceEvent {
        TraceEvent {
            slot: self.slot,
            kind: "flight".to_string(),
            fields: vec![
                ("shard", Value::U64(self.shard as u64)),
                ("arm", Value::U64(self.arm as u64)),
                ("value", Value::F64(self.value)),
                ("active_arms", Value::U64(self.active_arms)),
                ("best_arm", Value::U64(self.best_arm as u64)),
                ("best_mean", Value::F64(self.best_mean)),
                ("granted", Value::U64(self.granted)),
                ("granted_mhz", Value::F64(self.granted_mhz)),
                ("assign_digest", Value::U64(self.assign_digest)),
                ("lp_solves", Value::U64(self.lp_solves)),
                ("lp_warm_hits", Value::U64(self.lp_warm_hits)),
                ("lp_pivots", Value::U64(self.lp_pivots)),
            ],
        }
    }
}

/// What can trip a flight-recorder dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlightTrigger {
    /// An SLO burn-rate breach transition.
    Slo,
    /// A Page–Hinkley `drift_suspected` firing.
    Drift,
    /// A shard crash detection.
    Crash,
}

impl FlightTrigger {
    /// Stable lowercase name written in dump headers.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Slo => "slo",
            Self::Drift => "drift",
            Self::Crash => "crash",
        }
    }
}

/// Bounded per-shard rings of [`DecisionSnapshot`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    rings: Vec<VecDeque<DecisionSnapshot>>,
    evicted: u64,
    dumps: u64,
}

impl FlightRecorder {
    /// Creates a recorder keeping the last `capacity` snapshots per
    /// shard (a `capacity` of 0 is promoted to 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            rings: Vec::new(),
            evicted: 0,
            dumps: 0,
        }
    }

    /// Records one snapshot, evicting the shard's oldest at capacity.
    /// Eviction is normal operation (the ring *is* the retention
    /// policy), but the count is still exposed for sizing the ring.
    pub fn record(&mut self, snap: DecisionSnapshot) {
        if snap.shard >= self.rings.len() {
            self.rings.resize_with(snap.shard + 1, VecDeque::new);
        }
        let ring = &mut self.rings[snap.shard];
        if ring.len() == self.capacity {
            ring.pop_front();
            self.evicted += 1;
        }
        ring.push_back(snap);
    }

    /// Snapshots currently held across all shards.
    pub fn len(&self) -> usize {
        self.rings.iter().map(VecDeque::len).sum()
    }

    /// True when no snapshots are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total snapshots evicted by the retention policy.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Dumps issued so far.
    pub fn dumps(&self) -> u64 {
        self.dumps
    }

    /// Renders the current ring contents as JSONL sorted by `(slot,
    /// shard)`, one `kind: "flight"` line per snapshot, without counting
    /// as a dump. Backs the on-demand `GET /flight.json` view.
    pub fn render_jsonl(&self) -> String {
        let mut snaps: Vec<&DecisionSnapshot> = self.rings.iter().flatten().collect();
        snaps.sort_by_key(|s| (s.slot, s.shard));
        let mut out = String::new();
        for s in snaps {
            out.push_str(&s.to_event().to_json_line());
            out.push('\n');
        }
        out
    }

    /// Renders a dump: one `flight_dump` header event (trigger, slot,
    /// snapshot count) followed by every held snapshot sorted by
    /// `(slot, shard)`. The rings are left intact so back-to-back
    /// triggers each get full context. Returns an empty vec when no
    /// snapshots are held (nothing worth writing).
    pub fn dump_events(&mut self, trigger: FlightTrigger, slot: u64) -> Vec<TraceEvent> {
        let mut snaps: Vec<&DecisionSnapshot> = self.rings.iter().flatten().collect();
        if snaps.is_empty() {
            return Vec::new();
        }
        self.dumps += 1;
        snaps.sort_by_key(|s| (s.slot, s.shard));
        let mut out = Vec::with_capacity(snaps.len() + 1);
        out.push(TraceEvent {
            slot,
            kind: "flight_dump".to_string(),
            fields: vec![
                ("trigger", Value::Str(trigger.as_str().to_string())),
                ("snapshots", Value::U64(snaps.len() as u64)),
                ("evicted", Value::U64(self.evicted)),
            ],
        });
        out.extend(snaps.into_iter().map(DecisionSnapshot::to_event));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(shard: usize, slot: u64) -> DecisionSnapshot {
        DecisionSnapshot {
            shard,
            slot,
            arm: 3,
            value: 400.0,
            active_arms: 5,
            best_arm: 3,
            best_mean: 0.7,
            granted: 12,
            granted_mhz: 4800.0,
            assign_digest: 0xdead_beef ^ slot,
            lp_solves: 0,
            lp_warm_hits: 0,
            lp_pivots: 0,
        }
    }

    #[test]
    fn ring_bounds_history_per_shard() {
        let mut r = FlightRecorder::new(4);
        for slot in 0..10 {
            r.record(snap(0, slot));
            r.record(snap(1, slot));
        }
        assert_eq!(r.len(), 8);
        assert_eq!(r.evicted(), 12);
        let events = r.dump_events(FlightTrigger::Crash, 9);
        // Header + 8 snapshots; oldest retained slot is 6.
        assert_eq!(events.len(), 9);
        assert_eq!(events[0].kind, "flight_dump");
        assert_eq!(events[1].slot, 6);
    }

    #[test]
    fn dump_sorts_by_slot_then_shard_and_ends_on_trigger_slot() {
        let mut r = FlightRecorder::new(8);
        // Interleave shards out of order.
        r.record(snap(2, 5));
        r.record(snap(0, 5));
        r.record(snap(1, 5));
        r.record(snap(0, 6));
        r.record(snap(2, 6));
        let events = r.dump_events(FlightTrigger::Slo, 6);
        assert_eq!(events[0].kind, "flight_dump");
        assert_eq!(events[0].slot, 6);
        let order: Vec<(u64, u64)> = events[1..]
            .iter()
            .map(|e| {
                let shard = e
                    .fields
                    .iter()
                    .find(|(k, _)| *k == "shard")
                    .map(|(_, v)| match v {
                        Value::U64(s) => *s,
                        _ => panic!("shard must be u64"),
                    })
                    .unwrap();
                (e.slot, shard)
            })
            .collect();
        assert_eq!(order, vec![(5, 0), (5, 1), (5, 2), (6, 0), (6, 2)]);
        // The acceptance contract: last line's slot == triggering slot.
        assert_eq!(events.last().unwrap().slot, 6);
        // Rings survive the dump for the next trigger.
        assert_eq!(r.len(), 5);
        assert_eq!(r.dumps(), 1);
    }

    #[test]
    fn render_jsonl_sorts_without_counting_a_dump() {
        let mut r = FlightRecorder::new(8);
        r.record(snap(1, 4));
        r.record(snap(0, 4));
        let doc = r.render_jsonl();
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"shard\":0"));
        assert!(lines[1].contains("\"shard\":1"));
        assert_eq!(r.dumps(), 0);
        assert_eq!(r.len(), 2);
        assert!(FlightRecorder::new(8).render_jsonl().is_empty());
    }

    #[test]
    fn empty_recorder_dumps_nothing() {
        let mut r = FlightRecorder::new(8);
        assert!(r.dump_events(FlightTrigger::Drift, 3).is_empty());
        assert_eq!(r.dumps(), 0);
    }

    #[test]
    fn snapshot_event_renders_flat_json() {
        let line = snap(1, 42).to_event().to_json_line();
        assert!(line.contains("\"kind\":\"flight\""));
        assert!(line.contains("\"slot\":42"));
        assert!(line.contains("\"shard\":1"));
        assert!(line.contains("\"assign_digest\""));
        crate::json::parse_json(&line).expect("flight lines parse with the bundled reader");
    }
}
