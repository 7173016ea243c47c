//! In-memory spans recorded from the benchmark's side of each layer call.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began. Self time is a span's duration minus the time its children
//! cover. Nothing is written until the run ends.

use mec_sim::{Allocation, SlotContext, SlotPolicy};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

#[derive(Debug)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A span recorder shared by reference between the benchmark loop and the
/// policy wrapper.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    inner: RefCell<Inner>,
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            inner: RefCell::new(Inner {
                spans: Vec::new(),
                open: Vec::new(),
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    fn begin(&self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let id = inner.spans.len();
        let parent = inner.open.last().copied();
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        inner.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    fn end(&self, id: usize) {
        let end_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        assert_eq!(inner.open.pop(), Some(id), "spans must nest");
        inner.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn span_count(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let inner = self.inner.borrow();
        let mut child_ns = vec![0u64; inner.spans.len()];
        for s in &inner.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in inner.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ms += dur as f64 / 1e6;
            t.self_ms += dur.saturating_sub(child) as f64 / 1e6;
        }
        out
    }

    /// Durations in ms of every span named `name`, in start order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }
}

/// Runs `f`, inside a span when a tracer is attached.
pub fn span<T>(tr: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// A [`SlotPolicy`] that delegates to `inner` and records a span around
/// each call the engine makes into it.
pub struct Traced<'a, P: ?Sized> {
    pub inner: &'a mut P,
    pub tracer: &'a Tracer,
}

impl<P: SlotPolicy + ?Sized> SlotPolicy for Traced<'_, P> {
    fn schedule(&mut self, ctx: &SlotContext<'_>) -> Vec<Allocation> {
        let inner = &mut *self.inner;
        self.tracer.span("core.schedule", || inner.schedule(ctx))
    }

    fn observe(&mut self, slot: u64, completed_reward: f64) {
        let inner = &mut *self.inner;
        self.tracer
            .span("core.observe", || inner.observe(slot, completed_reward));
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
