//! # mec-obs
//!
//! The observability layer for the MEC serving stack: a lock-cheap
//! metrics [`Registry`] (counters, gauges, striped-atomic histograms)
//! with Prometheus-text and JSON exposition, a slot-attributed
//! structured event-tracing API ([`event!`], [`span!`], [`TraceRing`],
//! [`TraceWriter`]), a tiny scrape server ([`MetricsServer`]), and a
//! post-hoc report builder ([`report`]) that renders arm-elimination
//! timelines, admission funnels, request lifecycles, flight-recorder
//! dumps, and latency histograms from one JSONL trace.
//!
//! ## Feature gating
//!
//! This crate itself has no features. The [`event!`] and [`span!`]
//! macros expand to code guarded by `#[cfg(feature = "obs")]` — the cfg
//! is evaluated in the **calling** crate, so a consumer that declares
//! an `obs` feature gets tracing and wall-clock spans compiled in only
//! when that feature is on, and a compile-time no-op (arguments
//! type-checked, never evaluated) when it is off. The registry is not
//! gated: counters are integer atomics cheap enough to stay always-on,
//! which lets runtime snapshots source their counters from the registry
//! unconditionally.
//!
//! ## Determinism contract
//!
//! Everything that feeds snapshots or traces must derive from
//! deterministic quantities — virtual slots, event counts, rewards.
//! Wall-clock timings ([`span!`]) go to live histograms only and must
//! never cross into snapshots or the trace; the supervisor drains
//! worker [`TraceRing`]s at each watermark fold in shard order, so a
//! traced run replayed with the same seed yields an identical event
//! stream.
//!
//! ## Example
//!
//! ```
//! use mec_obs::{Registry, TraceRing, EventSink};
//!
//! let registry = Registry::new();
//! let restarts = registry.counter("mec_serve_restarts_total", "shard restarts", &[("shard", "0")]);
//! restarts.inc();
//! assert!(registry.render_prometheus().contains("mec_serve_restarts_total{shard=\"0\"} 1"));
//!
//! let ring = TraceRing::with_capacity(1024);
//! // In a crate with an `obs` feature this is the `mec_obs::event!` macro;
//! // the expansion records through the EventSink trait:
//! ring.record(mec_obs::TraceEvent {
//!     slot: 3,
//!     kind: "fault_injected".into(),
//!     fields: vec![("shard", 0u64.into())],
//! });
//! assert_eq!(ring.drain().len(), 1);
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
pub use flight::{
    DecisionSnapshot, FlightRecorder, FlightTrigger, FlightTriggerParseError, FlightTriggerSet,
};
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

/// Anything that can lend a [`Histogram`] to [`span!`] — a histogram,
/// an `Arc` of one, or an `Option` of either (recording is skipped on
/// `None`).
pub trait AsHistogram {
    /// The histogram to record into, if any.
    fn as_histogram(&self) -> Option<&Histogram>;
}

impl AsHistogram for Histogram {
    fn as_histogram(&self) -> Option<&Histogram> {
        Some(self)
    }
}

impl AsHistogram for std::sync::Arc<Histogram> {
    fn as_histogram(&self) -> Option<&Histogram> {
        Some(self)
    }
}

impl<T: AsHistogram> AsHistogram for Option<T> {
    fn as_histogram(&self) -> Option<&Histogram> {
        self.as_ref().and_then(AsHistogram::as_histogram)
    }
}

impl<T: AsHistogram> AsHistogram for &T {
    fn as_histogram(&self) -> Option<&Histogram> {
        (*self).as_histogram()
    }
}

/// Records one structured [`TraceEvent`] into an [`EventSink`].
///
/// ```ignore
/// mec_obs::event!(sink, slot, "restart", shard = shard, replayed = n, ok = true);
/// ```
///
/// In a consumer crate compiled **with** its `obs` feature this
/// constructs the event (field keys are the identifiers, values go
/// through [`Value::from`]) and calls [`EventSink::record`]. Without
/// the feature it compiles to nothing: the arguments are type-checked
/// but never evaluated.
#[macro_export]
macro_rules! event {
    ($sink:expr, $slot:expr, $kind:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        #[cfg(feature = "obs")]
        {
            $crate::EventSink::record(
                &$sink,
                $crate::TraceEvent {
                    slot: $slot,
                    kind: ::std::string::String::from($kind),
                    fields: ::std::vec![$((stringify!($key), $crate::Value::from($val))),*],
                },
            );
        }
        #[cfg(not(feature = "obs"))]
        {
            if false {
                let _ = (&$sink, &$slot, &$kind);
                $(let _ = &$val;)*
            }
        }
    }};
}

/// Times an expression into a wall-clock [`Histogram`] (milliseconds),
/// returning the expression's value.
///
/// ```ignore
/// let report = mec_obs::span!(step_hist, engine.step(policy)?);
/// ```
///
/// The first argument is anything implementing [`AsHistogram`]; `None`
/// skips recording. Without the consumer's `obs` feature the timing
/// disappears entirely and only the body remains. Wall-clock spans are
/// live-telemetry only — never write them into snapshots or traces.
#[macro_export]
macro_rules! span {
    ($hist:expr, $body:expr) => {{
        #[cfg(feature = "obs")]
        {
            let __obs_start = ::std::time::Instant::now();
            let __obs_out = $body;
            if let ::std::option::Option::Some(h) = $crate::AsHistogram::as_histogram(&$hist) {
                h.observe(__obs_start.elapsed().as_secs_f64() * 1e3);
            }
            __obs_out
        }
        #[cfg(not(feature = "obs"))]
        {
            if false {
                let _ = &$hist;
            }
            $body
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn as_histogram_resolves_options_and_arcs() {
        let h = std::sync::Arc::new(Histogram::with_bounds(&[1.0]));
        assert!(h.as_histogram().is_some());
        assert!(Some(std::sync::Arc::clone(&h)).as_histogram().is_some());
        let none: Option<std::sync::Arc<Histogram>> = None;
        assert!(none.as_histogram().is_none());
    }
}
