//! # mec-obs
//!
//! The observability layer for the MEC serving stack: a lock-cheap
//! metrics [`Registry`] (counters, gauges, striped-atomic histograms)
//! with Prometheus-text and JSON exposition, a slot-attributed
//! structured event-tracing API ([`event!`], [`TraceRing`],
//! [`TraceWriter`]), a tiny scrape server ([`MetricsServer`]), and a
//! post-hoc report builder ([`report`]) that renders arm-elimination
//! timelines, admission funnels, request lifecycles, flight-recorder
//! dumps, and latency histograms from one JSONL trace.
//!
//! ## Attach-time gating
//!
//! There is one build: this crate and its consumers have no cargo
//! features. Tracing is switched on by attaching a sink. The [`event!`]
//! macro asks its sink [`EventSink::enabled`] first and builds the
//! [`TraceEvent`] only when the answer is yes, so a detached sink (a
//! `None` ring, a hub without a writer) costs one check and no
//! allocation. The registry is not gated: counters are integer atomics
//! cheap enough to stay always-on, which lets runtime snapshots source
//! their counters from the registry unconditionally.
//!
//! ## Determinism contract
//!
//! Everything that feeds snapshots or traces must derive from
//! deterministic quantities — virtual slots, event counts, rewards.
//! Wall-clock timings go to live histograms only and must never cross
//! into snapshots or the trace; the supervisor drains worker
//! [`TraceRing`]s at each watermark fold in shard order, so a traced
//! run replayed with the same seed yields an identical event stream.
//!
//! ## Example
//!
//! ```
//! use mec_obs::{Registry, TraceRing};
//!
//! let registry = Registry::new();
//! let restarts = registry.counter("mec_serve_restarts_total", "shard restarts", &[("shard", "0")]);
//! restarts.inc();
//! assert!(registry.render_prometheus().contains("mec_serve_restarts_total{shard=\"0\"} 1"));
//!
//! let ring = Some(TraceRing::with_capacity(1024));
//! mec_obs::event!(ring, 3, "fault_injected", shard = 0u64);
//! assert_eq!(ring.as_ref().map_or(0, |r| r.drain().len()), 1);
//!
//! // A detached sink: the event is never built.
//! let detached: Option<TraceRing> = None;
//! mec_obs::event!(detached, 3, "fault_injected", shard = 0u64);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod drift;
pub mod flight;
pub mod json;
pub mod registry;
pub mod report;
pub mod server;
pub mod slo;
pub mod trace;

pub use drift::PageHinkley;
pub use flight::{DecisionSnapshot, FlightRecorder, FlightTrigger};
pub use registry::{
    log_linear_bounds, BoundsMismatch, Counter, Gauge, Histogram, HistogramSnapshot, Registry,
    WindowedHistogram, STRIPES,
};
pub use report::{build_report, RunReport, LATENCY_MS_BOUNDS};
pub use server::{MetricsServer, SharedDoc};
pub use slo::{SloEngine, SloParseError, SloSpec, SloStatus, SloTransition, SlotSample};
pub use trace::{EventSink, TraceEvent, TraceRing, TraceWriter, Value};

/// Bucket bounds (ms) for wall-clock engine-step timing histograms.
pub const STEP_MS_BOUNDS: &[f64] = &[0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0];

/// Bucket bounds (slots) for recovery-outage histograms.
pub const RECOVERY_SLOTS_BOUNDS: &[f64] = &[1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0];

/// Records one structured [`TraceEvent`] into an [`EventSink`].
///
/// ```
/// use mec_obs::{TraceRing, Value};
///
/// let sink = TraceRing::with_capacity(16);
/// let (slot, shard, n) = (42, 1u64, 7u64);
/// mec_obs::event!(sink, slot, "restart", shard = shard, replayed = n, ok = true);
/// let events = sink.drain();
/// assert_eq!(events.len(), 1);
/// assert_eq!((events[0].slot, events[0].kind.as_str()), (42, "restart"));
/// assert!(matches!(events[0].fields[..], [
///     ("shard", Value::U64(1)),
///     ("replayed", Value::U64(7)),
///     ("ok", Value::Bool(true)),
/// ]));
/// ```
///
/// When [`EventSink::enabled`] is true this constructs the event (field
/// keys are the identifiers, values go through [`Value::from`]) and
/// calls [`EventSink::record`]. When it is false nothing else is
/// evaluated: the slot, kind and field expressions are skipped.
#[macro_export]
macro_rules! event {
    ($sink:expr, $slot:expr, $kind:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        let sink = &$sink;
        if $crate::EventSink::enabled(sink) {
            $crate::EventSink::record(
                sink,
                $crate::TraceEvent {
                    slot: $slot,
                    kind: ::std::string::String::from($kind),
                    fields: ::std::vec![$((stringify!($key), $crate::Value::from($val))),*],
                },
            );
        }
    }};
}
