//! Structured per-request traces: a span tree recorded through
//! thread-local context so instrumentation points never thread a trace
//! parameter through the grading APIs.
//!
//! The contract that keeps tracing byte-invisible to grading outcomes:
//! spans *observe* wall-clock and attributes, they never feed anything
//! back. With no trace installed, [`span`] costs one TLS read.

use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::collections::VecDeque;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

use crate::Histogram;

/// A 128-bit request identifier, rendered as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(u64, u64);

impl TraceId {
    /// Generates a process-unique, hard-to-collide ID by mixing a
    /// monotone counter with per-process entropy (hasher seed, boot
    /// time) through SplitMix64.
    pub fn generate() -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        fn entropy() -> u64 {
            let mut h = RandomState::new().build_hasher();
            std::process::id().hash(&mut h);
            std::thread::current().id().hash(&mut h);
            SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0)
                .hash(&mut h);
            h.finish()
        }
        fn splitmix(mut x: u64) -> u64 {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let e = entropy();
        Self(splitmix(e ^ n), splitmix(e.rotate_left(32).wrapping_add(n)))
    }

    /// Parses the 32-hex-digit form produced by `Display`.
    pub fn parse(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Self(hi, lo))
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

/// One completed (or still-open) span inside a trace.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Stage name (`"parse"`, `"search"`, …).
    pub name: &'static str,
    /// Index of the parent span within the trace, `None` for roots.
    pub parent: Option<usize>,
    /// Offset from the trace's start.
    pub start: Duration,
    /// Wall-clock spent in the span (zero until it closes).
    pub duration: Duration,
    /// Free-form key/value annotations (`strategy=cegis`, `cache=hit`, …).
    pub attrs: Vec<(&'static str, String)>,
}

#[derive(Debug, Default)]
struct TraceBody {
    spans: Vec<SpanRecord>,
}

/// A per-request span tree. Create one at the service boundary, install
/// it, and every [`span`]/[`record_span`] call on this thread (and on
/// threads that installed a [`TraceHandle`]) lands in it.
#[derive(Debug)]
pub struct Trace {
    id: TraceId,
    started: Instant,
    started_unix: Duration,
    body: Mutex<TraceBody>,
}

impl Trace {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            id: TraceId::generate(),
            started: Instant::now(),
            started_unix: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .unwrap_or(Duration::ZERO),
            body: Mutex::new(TraceBody::default()),
        })
    }

    pub fn id(&self) -> TraceId {
        self.id
    }

    /// Unix timestamp of trace creation (for display only).
    pub fn started_unix(&self) -> Duration {
        self.started_unix
    }

    /// Wall-clock from trace creation to the end of the latest span (or
    /// to now, if spans are still open).
    pub fn duration(&self) -> Duration {
        let body = self.body.lock().unwrap();
        body.spans
            .iter()
            .map(|s| s.start + s.duration)
            .max()
            .unwrap_or_default()
    }

    /// Snapshot of all spans, in creation order (parents precede
    /// children).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.body.lock().unwrap().spans.clone()
    }

    /// Installs this trace as the current thread's trace context until
    /// the guard drops. Nested installs stack.
    pub fn install(self: &Arc<Self>) -> TraceGuard {
        TraceHandle {
            trace: Arc::clone(self),
            parent: None,
        }
        .install()
    }

    /// Captures the current thread's position in this trace so a worker
    /// thread can continue the tree under the same parent span.
    pub fn handle(self: &Arc<Self>) -> TraceHandle {
        TraceHandle {
            trace: Arc::clone(self),
            parent: None,
        }
    }

    fn push_span(&self, record: SpanRecord) -> usize {
        let mut body = self.body.lock().unwrap();
        body.spans.push(record);
        body.spans.len() - 1
    }

    fn close_span(&self, index: usize, duration: Duration, attrs: Vec<(&'static str, String)>) {
        let mut body = self.body.lock().unwrap();
        let span = &mut body.spans[index];
        span.duration = duration;
        span.attrs = attrs;
    }

    /// Renders the span tree as an indented text block (one line per
    /// span) — the slow-grade stderr format.
    pub fn render_tree(&self) -> String {
        let spans = self.spans();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut roots = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            match s.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        let mut out = String::new();
        fn walk(
            out: &mut String,
            spans: &[SpanRecord],
            children: &[Vec<usize>],
            index: usize,
            depth: usize,
        ) {
            let s = &spans[index];
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str(&format!(
                "{} {:.3}ms (+{:.3}ms)",
                s.name,
                s.duration.as_secs_f64() * 1e3,
                s.start.as_secs_f64() * 1e3,
            ));
            for (k, v) in &s.attrs {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
            for &c in &children[index] {
                walk(out, spans, children, c, depth + 1);
            }
        }
        for &r in &roots {
            walk(&mut out, &spans, &children, r, 0);
        }
        out
    }
}

/// A cloneable pointer into a trace at a specific parent span, for
/// carrying the context across thread spawns.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    trace: Arc<Trace>,
    parent: Option<usize>,
}

impl TraceHandle {
    pub fn id(&self) -> TraceId {
        self.trace.id()
    }

    /// Installs the handle's trace (and parent position) as the current
    /// thread's context until the guard drops.
    pub fn install(self) -> TraceGuard {
        let prev = CURRENT.with(|c| c.replace(Some(self)));
        TraceGuard { prev }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<TraceHandle>> = const { RefCell::new(None) };
}

/// Restores the previous thread-local trace context on drop.
#[must_use = "dropping the guard immediately uninstalls the trace"]
pub struct TraceGuard {
    prev: Option<TraceHandle>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.replace(self.prev.take()));
    }
}

/// The current thread's trace position, if a trace is installed —
/// capture before spawning workers, install inside them.
pub fn current_handle() -> Option<TraceHandle> {
    CURRENT.with(|c| c.borrow().clone())
}

/// An RAII stage timer. While alive it is the parent of spans opened on
/// the same thread; on drop it writes its duration into the trace (if
/// one is installed) and into its stage histogram (if one was attached).
pub struct Span {
    start: Instant,
    hist: Option<Arc<Histogram>>,
    slot: Option<(TraceHandle, usize)>,
    attrs: Vec<(&'static str, String)>,
    restore: Option<TraceGuard>,
}

impl Span {
    /// Annotates the span; shows up in `/debug/traces` and the slow-grade
    /// tree. No-op when no trace is installed.
    pub fn attr(&mut self, key: &'static str, value: impl Into<String>) {
        if self.slot.is_some() {
            self.attrs.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        if let Some(h) = &self.hist {
            h.record_duration(elapsed);
        }
        if let Some((handle, index)) = self.slot.take() {
            handle
                .trace
                .close_span(index, elapsed, std::mem::take(&mut self.attrs));
        }
        // Restoring the parent context happens after the span closes.
        self.restore = None;
    }
}

/// Opens a span attached to the current trace (when installed) with no
/// histogram. Prefer the `stage_span!` macro for pipeline stages, which
/// also feeds the per-stage latency histogram.
pub fn span(name: &'static str) -> Span {
    open_span(name, None)
}

/// Opens a span that also records its duration into `hist` on drop —
/// the histogram fires whether or not a trace is installed, so stage
/// latency percentiles exist even with tracing off.
pub fn span_with_histogram(name: &'static str, hist: Arc<Histogram>) -> Span {
    open_span(name, Some(hist))
}

fn open_span(name: &'static str, hist: Option<Arc<Histogram>>) -> Span {
    let start = Instant::now();
    let slot = current_handle().map(|handle| {
        let index = handle.trace.push_span(SpanRecord {
            name,
            parent: handle.parent,
            start: handle.trace.started.elapsed(),
            duration: Duration::ZERO,
            attrs: Vec::new(),
        });
        // Children opened while this span is alive nest under it.
        let restore = TraceHandle {
            trace: Arc::clone(&handle.trace),
            parent: Some(index),
        }
        .install();
        ((handle, index), restore)
    });
    let (slot, restore) = match slot {
        Some((slot, restore)) => (Some(slot), Some(restore)),
        None => (None, None),
    };
    Span {
        start,
        hist,
        slot,
        attrs: Vec::new(),
        restore,
    }
}

/// Appends an already-measured span (e.g. an elapsed total a subsystem
/// accumulated itself) under the current span. No-op without a trace.
pub fn record_span(name: &'static str, duration: Duration) {
    if let Some(handle) = current_handle() {
        let now = handle.trace.started.elapsed();
        handle.trace.push_span(SpanRecord {
            name,
            parent: handle.parent,
            start: now.saturating_sub(duration),
            duration,
            attrs: Vec::new(),
        });
    }
}

/// A bounded ring of the most recent traces, for a `/debug/traces`
/// endpoint.
#[derive(Debug)]
pub struct TraceRing {
    cap: usize,
    ring: Mutex<VecDeque<Arc<Trace>>>,
}

impl TraceRing {
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    pub fn push(&self, trace: Arc<Trace>) {
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Most recent traces, oldest first.
    pub fn snapshot(&self) -> Vec<Arc<Trace>> {
        self.ring.lock().unwrap().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_roundtrip() {
        let a = TraceId::generate();
        let b = TraceId::generate();
        assert_ne!(a, b);
        let s = a.to_string();
        assert_eq!(s.len(), 32);
        assert_eq!(TraceId::parse(&s), Some(a));
        assert_eq!(TraceId::parse("zz"), None);
    }

    #[test]
    fn spans_nest_under_the_installed_trace() {
        let trace = Trace::new();
        {
            let _guard = trace.install();
            let mut outer = span("grade");
            outer.attr("cache", "miss");
            {
                let _inner = span("parse");
            }
            record_span("verify", Duration::from_millis(2));
        }
        let spans = trace.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "grade");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].name, "parse");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].name, "verify");
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].duration, Duration::from_millis(2));
        assert_eq!(spans[0].attrs, vec![("cache", "miss".to_string())]);
        // Closed spans carry a real duration; the tree renders them all.
        assert!(spans[0].duration >= spans[1].duration);
        let tree = trace.render_tree();
        assert!(tree.contains("grade"));
        assert!(tree.contains("  parse"));
        assert!(tree.contains("cache=miss"));
    }

    #[test]
    fn no_trace_installed_means_no_spans_recorded() {
        let trace = Trace::new();
        {
            let _span = span("orphan");
            record_span("also-orphan", Duration::from_millis(1));
        }
        assert!(trace.spans().is_empty());
        assert!(current_handle().is_none());
    }

    #[test]
    fn handles_carry_context_across_threads() {
        let trace = Trace::new();
        let _guard = trace.install();
        let root = span("batch");
        let handle = current_handle().expect("trace installed");
        drop(root);
        let worker = std::thread::spawn(move || {
            let _guard = handle.install();
            let _span = span("worker");
        });
        worker.join().unwrap();
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].name, "worker");
        assert_eq!(spans[1].parent, Some(0));
    }

    #[test]
    fn ring_keeps_only_the_most_recent() {
        let ring = TraceRing::new(2);
        let (a, b, c) = (Trace::new(), Trace::new(), Trace::new());
        ring.push(Arc::clone(&a));
        ring.push(Arc::clone(&b));
        ring.push(Arc::clone(&c));
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].id(), b.id());
        assert_eq!(snap[1].id(), c.id());
    }
}
