//! Event tracing: an optional per-slot record of everything the engine
//! did, for debugging policies and rendering timelines.

use mec_topology::station::StationId;
use mec_workload::request::RequestId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One engine event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A request entered the system.
    Arrived {
        /// The request.
        request: RequestId,
    },
    /// First service: the demand realized.
    Started {
        /// The request.
        request: RequestId,
        /// Station of first service.
        station: StationId,
        /// Realized data rate in MB/s.
        rate_mbps: f64,
    },
    /// A request finished its stream and collected its reward.
    Completed {
        /// The request.
        request: RequestId,
        /// Reward credited.
        reward: f64,
    },
    /// A request could no longer meet its deadline and was dropped.
    Expired {
        /// The request.
        request: RequestId,
    },
    /// A running stream fell below the continuity floor for too long and
    /// was torn down.
    Aborted {
        /// The request.
        request: RequestId,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Arrived { request } => write!(f, "{request} arrived"),
            Event::Started {
                request,
                station,
                rate_mbps,
            } => write!(f, "{request} started at {station} ({rate_mbps:.1} MB/s)"),
            Event::Completed { request, reward } => {
                write!(f, "{request} completed (+{reward:.1} $)")
            }
            Event::Expired { request } => write!(f, "{request} expired"),
            Event::Aborted { request } => write!(f, "{request} aborted (continuity)"),
        }
    }
}

/// A time-stamped event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TracedEvent {
    /// Slot in which the event happened.
    pub slot: u64,
    /// What happened.
    pub event: Event,
}

/// An event log with a hard capacity on undrained events (the engine stops
/// recording once full rather than growing unboundedly). A consumer that
/// [drains](Trace::drain) it as it goes never hits the cap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<TracedEvent>,
    capacity: usize,
    dropped: usize,
}

impl Trace {
    /// A trace that holds at most `capacity` undrained events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Records one event (drops it silently when full, counting the drop).
    pub fn record(&mut self, slot: u64, event: Event) {
        if self.events.len() < self.capacity {
            self.events.push(TracedEvent { slot, event });
        } else {
            self.dropped += 1;
        }
    }

    /// Removes and yields every undrained event in order, freeing room
    /// for as many new ones. The drop count is kept.
    pub fn drain(&mut self) -> std::vec::Drain<'_, TracedEvent> {
        self.events.drain(..)
    }

    /// All undrained events in order.
    pub fn events(&self) -> &[TracedEvent] {
        &self.events
    }

    /// Number of events that did not fit.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Events of one slot.
    pub fn slot(&self, slot: u64) -> impl Iterator<Item = &TracedEvent> {
        self.events.iter().filter(move |e| e.slot == slot)
    }

    /// Renders a compact textual timeline (one line per event).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in &self.events {
            let _ = writeln!(out, "t{:>5} | {}", e.slot, e.event);
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "... {} further events dropped", self.dropped);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut t = Trace::with_capacity(10);
        t.record(
            0,
            Event::Arrived {
                request: RequestId(0),
            },
        );
        t.record(
            2,
            Event::Started {
                request: RequestId(0),
                station: StationId(1),
                rate_mbps: 40.0,
            },
        );
        t.record(
            9,
            Event::Completed {
                request: RequestId(0),
                reward: 500.0,
            },
        );
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.slot(2).count(), 1);
        let s = t.render();
        assert!(s.contains("r0 arrived"));
        assert!(s.contains("r0 started at bs1"));
        assert!(s.contains("+500.0 $"));
    }

    #[test]
    fn capacity_enforced() {
        let mut t = Trace::with_capacity(2);
        for i in 0..5 {
            t.record(
                i,
                Event::Expired {
                    request: RequestId(i as usize),
                },
            );
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
        assert!(t.render().contains("3 further events dropped"));
    }

    #[test]
    fn drain_empties_and_frees_capacity() {
        let mut t = Trace::with_capacity(2);
        for i in 0..3 {
            t.record(
                i,
                Event::Arrived {
                    request: RequestId(i as usize),
                },
            );
        }
        let drained: Vec<u64> = t.drain().map(|e| e.slot).collect();
        assert_eq!(drained, [0, 1]);
        assert!(t.events().is_empty());
        t.record(
            5,
            Event::Arrived {
                request: RequestId(5),
            },
        );
        assert_eq!(t.events().len(), 1, "a drain frees room");
        assert_eq!(t.dropped(), 1, "drops are kept across drains");
    }
}
