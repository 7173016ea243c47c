//! Slot-attributed structured event tracing.
//!
//! A [`TraceEvent`] is a flat record — a virtual slot, an event kind,
//! and scalar fields — serialized as one JSON line. Worker threads push
//! events into a shared [`TraceRing`]; the supervisor drains the rings
//! at each watermark fold (in shard order) and appends to a
//! [`TraceWriter`], so the stream order is a pure function of the run's
//! deterministic decisions, never of thread scheduling.
//!
//! The deliberate restriction to *flat scalar fields* keeps the format
//! parseable by the dependency-free reader in [`crate::json`] (this
//! workspace vendors no JSON library).

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A scalar field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (slots, counts, ids).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rewards, bounds, milliseconds).
    F64(f64),
    /// Short string (kinds, names).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Self::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Self::U64(v as u64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Self::U64(u64::from(v))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Self::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Self::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Self::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Self::Str(v)
    }
}

/// One traced event: what happened, at which virtual slot, with which
/// scalar attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The virtual slot the event is attributed to.
    pub slot: u64,
    /// Event kind (e.g. `"restart"`, `"arm_lifecycle"`).
    pub kind: String,
    /// Flat scalar attributes, in emission order.
    pub fields: Vec<(&'static str, Value)>,
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Appends `s` to `out`, escaped for a JSON string literal.
fn push_escaped(out: &mut String, s: &str) {
    // Kinds, keys, and most values are plain identifiers: copy them whole.
    if !s
        .chars()
        .any(|c| c == '"' || c == '\\' || (c as u32) < 0x20)
    {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_value(out: &mut String, v: &Value) {
    let _ = match v {
        Value::U64(x) => write!(out, "{x}"),
        Value::I64(x) => write!(out, "{x}"),
        Value::F64(x) if x.is_finite() => write!(out, "{x:?}"),
        Value::F64(_) => {
            out.push_str("null");
            Ok(())
        }
        Value::Str(s) => {
            out.push('"');
            push_escaped(out, s);
            out.push('"');
            Ok(())
        }
        Value::Bool(b) => write!(out, "{b}"),
    };
}

impl TraceEvent {
    /// Serializes the event as one JSON object (no trailing newline).
    /// `slot` and `kind` always lead; fields follow in emission order.
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        self.push_json(&mut out);
        out
    }

    /// Appends the [`TraceEvent::to_json_line`] rendering to `out`.
    fn push_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"slot\":{},\"kind\":\"", self.slot);
        push_escaped(out, &self.kind);
        out.push('"');
        for (k, v) in &self.fields {
            out.push_str(",\"");
            push_escaped(out, k);
            out.push_str("\":");
            push_value(out, v);
        }
        out.push('}');
    }
}

/// Anything events can be recorded into. The [`crate::event!`] macro is
/// generic over this, so workers record into rings while the supervisor
/// records straight into the writer.
pub trait EventSink {
    /// Accepts one event.
    fn record(&self, event: TraceEvent);

    /// Whether recorded events go anywhere. [`crate::event!`] builds an
    /// event only when this is true, so a detached sink pays one check
    /// instead of the event's allocations.
    fn enabled(&self) -> bool {
        true
    }
}

// The macro expands to `EventSink::record(&$sink, ...)`, a path call that
// gets no auto-deref — these blanket impls let any reference to a sink
// serve as the sink.
impl<T: EventSink + ?Sized> EventSink for &T {
    fn record(&self, event: TraceEvent) {
        (**self).record(event);
    }

    fn enabled(&self) -> bool {
        (**self).enabled()
    }
}

impl<T: EventSink + ?Sized> EventSink for &mut T {
    fn record(&self, event: TraceEvent) {
        (**self).record(event);
    }

    fn enabled(&self) -> bool {
        (**self).enabled()
    }
}

struct RingInner {
    buf: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
}

/// A bounded, shareable event buffer: workers push, the supervisor
/// drains at each watermark fold. When full, the *newest* event is dropped
/// (and counted) — keeping the prefix preserves causality for whatever
/// was already recorded. A ring can share a stop flag with whatever its
/// events end up in ([`TraceRing::stopped_by`]); once the flag is set the
/// ring answers [`EventSink::enabled`] false and takes nothing more.
#[derive(Clone)]
pub struct TraceRing {
    inner: Arc<Mutex<RingInner>>,
    stop: Arc<AtomicBool>,
}

impl TraceRing {
    /// Ring state is a plain buffer with no invariants a panicking
    /// recorder could break mid-update, so a poisoned lock is safe to
    /// recover — one crashed worker must not take tracing down with it.
    fn lock(&self) -> MutexGuard<'_, RingInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("TraceRing")
            .field("len", &inner.buf.len())
            .field("cap", &inner.cap)
            .field("dropped", &inner.dropped)
            .finish()
    }
}

impl TraceRing {
    /// A ring holding at most `cap` undrained events.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(RingInner {
                buf: VecDeque::new(),
                cap: cap.max(1),
                dropped: 0,
            })),
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// This ring, stopping once `stop` is set: a drain target that has
    /// failed sets it, and producers stop building events it would drop.
    #[must_use]
    pub fn stopped_by(mut self, stop: Arc<AtomicBool>) -> Self {
        self.stop = stop;
        self
    }

    /// Removes and returns every buffered event, in push order.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut inner = self.lock();
        inner.buf.drain(..).collect()
    }

    /// Events discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }
}

impl EventSink for TraceRing {
    fn record(&self, event: TraceEvent) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.lock();
        if inner.buf.len() >= inner.cap {
            inner.dropped += 1;
            return;
        }
        inner.buf.push_back(event);
    }

    fn enabled(&self) -> bool {
        !self.stop.load(Ordering::Relaxed)
    }
}

impl EventSink for Option<TraceRing> {
    fn record(&self, event: TraceEvent) {
        if let Some(ring) = self {
            ring.record(event);
        }
    }

    fn enabled(&self) -> bool {
        self.as_ref().is_some_and(EventSink::enabled)
    }
}

/// Appends events to a byte sink as JSON lines.
pub struct TraceWriter {
    out: Box<dyn Write + Send>,
    written: u64,
    /// Reused line buffer, so writing an event allocates nothing.
    line: String,
    /// The first write or flush error; once set, nothing more is written.
    error: Option<std::io::Error>,
}

impl std::fmt::Debug for TraceWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceWriter")
            .field("written", &self.written)
            .field("error", &self.error)
            .finish()
    }
}

impl TraceWriter {
    /// Wraps a byte sink (file, buffer, pipe).
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        Self {
            out,
            written: 0,
            line: String::new(),
            error: None,
        }
    }

    /// Writes one event as a JSON line. Tracing must never take the run
    /// down, so an error does not propagate: the writer keeps the first
    /// one (see [`TraceWriter::error`]) and drops every later event, so
    /// the sink holds a prefix of the stream.
    pub fn write(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        event.push_json(&mut self.line);
        self.line.push('\n');
        match self.out.write_all(self.line.as_bytes()) {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }

    /// Events the sink accepted. A buffered sink accepts an event before
    /// it reaches the device, so check [`TraceWriter::error`] after the
    /// last [`TraceWriter::flush`] before trusting this count.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes the underlying sink, keeping its error like
    /// [`TraceWriter::write`] does.
    pub fn flush(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }

    /// The first write or flush error, if any.
    pub fn error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(slot: u64, kind: &str, fields: Vec<(&'static str, Value)>) -> TraceEvent {
        TraceEvent {
            slot,
            kind: kind.to_string(),
            fields,
        }
    }

    #[test]
    fn event_serializes_flat_json() {
        let e = ev(
            7,
            "restart",
            vec![
                ("shard", Value::U64(1)),
                ("ok", Value::Bool(true)),
                ("latency_ms", Value::F64(1.5)),
                ("why", Value::Str("stall \"x\"".to_string())),
            ],
        );
        assert_eq!(
            e.to_json_line(),
            "{\"slot\":7,\"kind\":\"restart\",\"shard\":1,\"ok\":true,\
             \"latency_ms\":1.5,\"why\":\"stall \\\"x\\\"\"}"
        );
    }

    #[test]
    fn ring_preserves_order_and_counts_drops() {
        let ring = TraceRing::with_capacity(2);
        for slot in 0..3 {
            ring.record(ev(slot, "x", vec![]));
        }
        assert_eq!(ring.dropped(), 1);
        let drained = ring.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].slot, 0);
        assert_eq!(drained[1].slot, 1);
        assert!(ring.drain().is_empty());
    }

    #[test]
    fn a_stopped_ring_builds_and_keeps_nothing() {
        let stop = Arc::new(AtomicBool::new(false));
        let ring = Some(TraceRing::with_capacity(8).stopped_by(Arc::clone(&stop)));
        crate::event!(ring, 1, "kept");
        assert!(ring.enabled());
        stop.store(true, Ordering::Relaxed);
        assert!(!ring.enabled());
        let mut built = false;
        crate::event!(
            ring,
            2,
            "dropped",
            n = {
                built = true;
                1u64
            }
        );
        assert!(!built, "a stopped ring builds no event");
        ring.record(ev(3, "dropped", vec![]));
        let kept = ring.as_ref().unwrap().drain();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].kind, "kept");
        assert_eq!(ring.as_ref().unwrap().dropped(), 0);
    }

    #[test]
    fn writer_emits_json_lines() {
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = TraceWriter::new(Box::new(Shared(Arc::clone(&buf))));
        w.write(&ev(1, "a", vec![]));
        w.write(&ev(2, "b", vec![("n", Value::U64(3))]));
        w.flush();
        assert_eq!(w.written(), 2);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(
            text,
            "{\"slot\":1,\"kind\":\"a\"}\n{\"slot\":2,\"kind\":\"b\",\"n\":3}\n"
        );
        assert!(w.error().is_none());
    }

    #[test]
    fn writer_keeps_the_first_error_and_stops() {
        /// Accepts `room` bytes, then fails every write; flush fails once
        /// anything was refused.
        struct Full {
            room: usize,
            refused: bool,
        }
        impl Write for Full {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                if self.room == 0 {
                    self.refused = true;
                    return Err(std::io::Error::other("device full"));
                }
                let n = data.len().min(self.room);
                self.room -= n;
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                if self.refused {
                    Err(std::io::Error::other("flush after a refused write"))
                } else {
                    Ok(())
                }
            }
        }
        let line = ev(1, "a", vec![]).to_json_line().len() + 1;
        let mut w = TraceWriter::new(Box::new(Full {
            room: line + 3,
            refused: false,
        }));
        for slot in 0..4 {
            w.write(&ev(slot, "a", vec![]));
        }
        w.flush();
        assert_eq!(w.written(), 1);
        assert_eq!(
            w.error().map(ToString::to_string).as_deref(),
            Some("device full")
        );

        // A flush error alone is kept too.
        struct FailingFlush;
        impl Write for FailingFlush {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("flush refused"))
            }
        }
        let mut w = TraceWriter::new(Box::new(FailingFlush));
        w.write(&ev(1, "a", vec![]));
        assert!(w.error().is_none());
        w.flush();
        assert_eq!(w.written(), 1);
        assert_eq!(
            w.error().map(ToString::to_string).as_deref(),
            Some("flush refused")
        );
    }
}
