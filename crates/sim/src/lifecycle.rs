//! Per-request job state across the slot loop.

use mec_topology::station::StationId;
use mec_topology::units::{DataRate, Latency};
use mec_topology::{PathTable, Topology};
use mec_workload::demand::DemandOutcome;
use mec_workload::request::{Request, RequestId};
use serde::{Deserialize, Serialize};

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Phase {
    /// Arrived, not yet served in any slot.
    Waiting,
    /// Served at least once and still has work left.
    Running,
    /// All streamed data processed; reward collected.
    Completed,
    /// Could no longer meet its deadline before first service; dropped.
    Expired,
    /// Started, but was served below the sustained-service floor for too
    /// long (see [`crate::Continuity`]); the stream tore down mid-flight.
    Aborted,
}

/// One request's dynamic state inside the engine.
///
/// The demand (rate & reward) realizes the first time the job receives
/// compute — exactly the paper's information model where "the data rate of
/// each request is not known in advance until it is scheduled".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    request: Request,
    phase: Phase,
    realized: Option<DemandOutcome>,
    /// Slot of first service `b_j`.
    first_service: Option<u64>,
    /// Station of first service (used for the latency of Eq. 2).
    first_station: Option<StationId>,
    /// Remaining stream data to process, in MB (set on realization).
    remaining_mb: f64,
    completed_slot: Option<u64>,
    /// Consecutive slots served below the continuity floor.
    stalled_slots: u64,
}

impl Job {
    /// Wraps an arriving request.
    pub fn new(request: Request) -> Self {
        Self {
            request,
            phase: Phase::Waiting,
            realized: None,
            first_service: None,
            first_station: None,
            // Meaningless until realization (the accessor returns NaN
            // before then); zero rather than NaN so `PartialEq` on jobs —
            // and on checkpointed engine state — behaves.
            remaining_mb: 0.0,
            completed_slot: None,
            stalled_slots: 0,
        }
    }

    /// The underlying request.
    pub const fn request(&self) -> &Request {
        &self.request
    }

    /// Request id shortcut.
    pub const fn id(&self) -> RequestId {
        self.request.id()
    }

    /// Current phase.
    pub const fn phase(&self) -> Phase {
        self.phase
    }

    /// Whether the job is still in flight (waiting or running), as opposed
    /// to completed, expired or aborted.
    pub const fn is_live(&self) -> bool {
        matches!(self.phase, Phase::Waiting | Phase::Running)
    }

    /// The realized demand, if the job has been served at least once.
    pub const fn realized(&self) -> Option<DemandOutcome> {
        self.realized
    }

    /// Slot of first service `b_j`, if any.
    pub const fn first_service(&self) -> Option<u64> {
        self.first_service
    }

    /// Station of first service, if any.
    pub const fn first_station(&self) -> Option<StationId> {
        self.first_station
    }

    /// Remaining work in MB (only meaningful once realized).
    pub fn remaining_mb(&self) -> f64 {
        if self.realized.is_some() {
            self.remaining_mb
        } else {
            f64::NAN
        }
    }

    /// The raw remaining-work field regardless of realization (zero until
    /// realized). For state codecs that must round-trip the job exactly;
    /// everything else wants [`Job::remaining_mb`].
    pub const fn remaining_mb_raw(&self) -> f64 {
        self.remaining_mb
    }

    /// Rebuilds a job from checkpointed parts — the inverse of reading the
    /// accessors field by field. For state codecs only: no invariants are
    /// re-derived, the caller must supply a consistent snapshot.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        request: Request,
        phase: Phase,
        realized: Option<DemandOutcome>,
        first_service: Option<u64>,
        first_station: Option<StationId>,
        remaining_mb: f64,
        completed_slot: Option<u64>,
        stalled_slots: u64,
    ) -> Self {
        Self {
            request,
            phase,
            realized,
            first_service,
            first_station,
            remaining_mb,
            completed_slot,
            stalled_slots,
        }
    }

    /// Slot in which the job completed, if it did.
    pub const fn completed_slot(&self) -> Option<u64> {
        self.completed_slot
    }

    /// Waiting time `b_j − a_j` in slots (against `now` if not yet served).
    pub fn waiting_slots(&self, now: u64) -> u64 {
        let b = self.first_service.unwrap_or(now);
        b.saturating_sub(self.request.arrival_slot())
    }

    /// Marks first service: realizes the demand outcome and initializes the
    /// outstanding work (`rate × duration` of stream data).
    ///
    /// # Panics
    ///
    /// Panics if already realized.
    pub(crate) fn realize(
        &mut self,
        outcome: DemandOutcome,
        slot: u64,
        station: StationId,
        slot_seconds: f64,
    ) {
        assert!(self.realized.is_none(), "demand already realized");
        self.realized = Some(outcome);
        self.first_service = Some(slot);
        self.first_station = Some(station);
        self.remaining_mb =
            outcome.rate.as_mbps() * self.request.duration_slots() as f64 * slot_seconds;
        self.phase = Phase::Running;
    }

    /// Applies `processed_mb` of service; returns `true` if this completed
    /// the job.
    pub(crate) fn process(&mut self, processed_mb: f64, slot: u64) -> bool {
        debug_assert!(self.realized.is_some(), "cannot process unrealized job");
        self.remaining_mb -= processed_mb;
        if self.remaining_mb <= 1e-9 {
            self.remaining_mb = 0.0;
            self.phase = Phase::Completed;
            self.completed_slot = Some(slot);
            true
        } else {
            false
        }
    }

    pub(crate) fn expire(&mut self) {
        debug_assert!(matches!(self.phase, Phase::Waiting));
        self.phase = Phase::Expired;
    }

    /// Consecutive under-served slots so far.
    pub const fn stalled_slots(&self) -> u64 {
        self.stalled_slots
    }

    /// Updates the stall counter after a slot: `healthy` means the job was
    /// served at or above the continuity floor.
    pub(crate) fn note_service_level(&mut self, healthy: bool) {
        if healthy {
            self.stalled_slots = 0;
        } else {
            self.stalled_slots += 1;
        }
    }

    /// Tears the stream down (continuity violation).
    pub(crate) fn abort(&mut self) {
        debug_assert!(matches!(self.phase, Phase::Running));
        self.phase = Phase::Aborted;
    }

    /// Rebuilds the job for absorption into another engine: new id,
    /// new home station, and — when already served — the first-service
    /// station rewritten to the new home, because the original station id
    /// is local to the *source* engine's topology and would corrupt
    /// latency lookups at the destination. All dynamic state (phase,
    /// realized demand, remaining work, first-service slot, stall counter)
    /// carries over unchanged.
    pub(crate) fn rehome(&self, id: RequestId, home: StationId) -> Self {
        let r = &self.request;
        let request = Request::new(
            id,
            home,
            r.arrival_slot(),
            r.duration_slots(),
            r.tasks().to_vec(),
            r.demand().clone(),
            r.deadline(),
        );
        Self {
            request,
            phase: self.phase,
            realized: self.realized,
            first_service: self.first_service,
            first_station: self.first_station.map(|_| home),
            remaining_mb: self.remaining_mb,
            completed_slot: self.completed_slot,
            stalled_slots: self.stalled_slots,
        }
    }

    /// Experienced latency per Eq. 2 (waiting + round-trip transmission +
    /// pipeline processing at the first serving station); `None` until
    /// served.
    pub fn experienced_latency(
        &self,
        topo: &Topology,
        paths: &PathTable,
        slot_ms: f64,
    ) -> Option<Latency> {
        let station = self.first_station?;
        let waiting = self.waiting_slots(self.first_service?);
        self.request
            .experienced_latency(topo, paths, station, waiting, slot_ms)
    }

    /// The compute this job can still absorb in one slot: enough to process
    /// `remaining_mb` within the slot, expressed as a sustained rate.
    pub fn max_useful_rate(&self, slot_seconds: f64) -> Option<DataRate> {
        self.realized?;
        Some(DataRate::mbps(self.remaining_mb / slot_seconds))
    }
}

/// Immutable per-job view handed to policies each slot.
#[derive(Debug, Clone, Copy)]
pub struct JobView<'a> {
    /// The job (request + dynamic state).
    pub job: &'a Job,
    /// Current slot.
    pub now: u64,
}

impl JobView<'_> {
    /// Whether the job can still be (re)scheduled this slot.
    pub fn schedulable(&self) -> bool {
        self.job.is_live()
    }

    /// Expected rate before realization, realized rate after — the best
    /// point estimate a policy can act on.
    pub fn rate_estimate(&self) -> DataRate {
        match self.job.realized() {
            Some(o) => o.rate,
            None => self.job.request().demand().expected_rate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_topology::generator::{Shape, TopologyBuilder};
    use mec_topology::units::Latency;
    use mec_workload::demand::DemandDistribution;
    use mec_workload::task::Task;

    fn job(arrival: u64, duration: u64) -> Job {
        Job::new(Request::new(
            RequestId(0),
            0.into(),
            arrival,
            duration,
            Task::reference_pipeline(),
            DemandDistribution::deterministic(DataRate::mbps(40.0), 500.0),
            Latency::ms(200.0),
        ))
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut j = job(2, 10);
        assert_eq!(j.phase(), Phase::Waiting);
        assert_eq!(j.waiting_slots(5), 3);

        let outcome = DemandOutcome {
            rate: DataRate::mbps(40.0),
            prob: 1.0,
            reward: 500.0,
        };
        j.realize(outcome, 5, 1.into(), 0.05);
        assert_eq!(j.phase(), Phase::Running);
        assert_eq!(j.first_service(), Some(5));
        // 40 MB/s * 10 slots * 0.05 s = 20 MB of stream data.
        assert!((j.remaining_mb() - 20.0).abs() < 1e-9);

        assert!(!j.process(15.0, 6));
        assert!((j.remaining_mb() - 5.0).abs() < 1e-9);
        assert!(j.process(5.0, 7));
        assert_eq!(j.phase(), Phase::Completed);
        assert_eq!(j.completed_slot(), Some(7));
    }

    #[test]
    fn waiting_freezes_after_service() {
        let mut j = job(0, 5);
        let outcome = DemandOutcome {
            rate: DataRate::mbps(30.0),
            prob: 1.0,
            reward: 1.0,
        };
        j.realize(outcome, 4, 0.into(), 0.05);
        // Waiting time is b_j - a_j regardless of `now`.
        assert_eq!(j.waiting_slots(100), 4);
    }

    #[test]
    fn expiry() {
        let mut j = job(0, 5);
        j.expire();
        assert_eq!(j.phase(), Phase::Expired);
    }

    #[test]
    fn latency_uses_first_station() {
        let topo = TopologyBuilder::new(3)
            .shape(Shape::Line)
            .proc_delay_range(1.0, 1.0)
            .trans_delay_range(2.0, 2.0)
            .build();
        let paths = topo.shortest_paths();
        let mut j = job(0, 5);
        let outcome = DemandOutcome {
            rate: DataRate::mbps(30.0),
            prob: 1.0,
            reward: 1.0,
        };
        assert!(j.experienced_latency(&topo, &paths, 50.0).is_none());
        j.realize(outcome, 2, 1.into(), 0.05);
        // waiting 2 slots (100 ms) + 1 hop round trip (4 ms) + 5.5 ms proc.
        let lat = j.experienced_latency(&topo, &paths, 50.0).unwrap();
        assert!((lat.as_ms() - 109.5).abs() < 1e-9);
    }

    #[test]
    fn view_rate_estimate_switches_on_realization() {
        let mut j = job(0, 5);
        let v = JobView { job: &j, now: 0 };
        assert_eq!(v.rate_estimate().as_mbps(), 40.0); // expected = only outcome
        assert!(v.schedulable());
        let outcome = DemandOutcome {
            rate: DataRate::mbps(40.0),
            prob: 1.0,
            reward: 1.0,
        };
        j.realize(outcome, 0, 0.into(), 0.05);
        let v = JobView { job: &j, now: 0 };
        assert_eq!(v.rate_estimate().as_mbps(), 40.0);
    }

    #[test]
    #[should_panic(expected = "already realized")]
    fn double_realize_rejected() {
        let mut j = job(0, 5);
        let outcome = DemandOutcome {
            rate: DataRate::mbps(30.0),
            prob: 1.0,
            reward: 1.0,
        };
        j.realize(outcome, 0, 0.into(), 0.05);
        j.realize(outcome, 1, 0.into(), 0.05);
    }
}
