//! Request tracing: per-request span trees with slow-query capture.
//!
//! A [`Tracer`] produces one span tree per traced request. Recording is
//! designed to stay within noise of the untraced path:
//!
//! * The sampling decision is one relaxed `fetch_add` plus a modulo; an
//!   unsampled request never allocates.
//! * Span recording for a sampled request is thread-local (no locks, no
//!   atomics): a `Vec` of spans plus a stack of open-span indices.
//! * Completed traces land in two bounded rings — recent and slow —
//!   under a mutex touched once per *trace*, not per span.
//!
//! A span carries a process-unique id, its parent's id (0 for the
//! root), monotonic start/end microseconds relative to the trace
//! origin, a name, and key=value annotations. Trace context (the
//! 16-byte trace id plus the caller's span id) propagates across the
//! wire so a server can adopt a client-originated trace; a context-
//! bearing request is always recorded, sampling applies only where a
//! trace originates.
//!
//! The **slow-query log** retains the full span tree for any trace
//! whose root span's duration reaches the configured threshold: a
//! threshold of `0` captures everything, `u64::MAX` captures nothing.
//!
//! Completed traces export as Chrome trace-event JSON (loadable in
//! `chrome://tracing` / Perfetto) via [`chrome_trace_json`], or as a
//! plain-text tree via [`Trace::to_text`].

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::metrics::Counter;
use crate::registry::{push_json_string, Registry};

/// Default sampling period where a trace originates: one request in
/// this many is traced when no explicit context arrives.
pub const DEFAULT_SAMPLE_EVERY: u64 = 16;

/// Completed-trace and slow-trace ring capacities.
const RING_CAP: usize = 64;

/// Per-trace span cap; spans beyond this are counted, not recorded.
const MAX_SPANS: usize = 512;

/// Wire-propagated trace context: which trace a request belongs to and
/// which remote span is its parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// 16-byte trace id; all-zero is invalid on the wire.
    pub trace_id: [u8; 16],
    /// The originator's span id, parent of the receiver's root span.
    pub parent_span: u64,
}

impl TraceContext {
    /// True unless the trace id is all-zero (the invalid sentinel).
    pub fn is_valid(&self) -> bool {
        self.trace_id != [0u8; 16]
    }

    /// Lowercase hex rendering of the trace id.
    pub fn trace_id_hex(&self) -> String {
        hex16(&self.trace_id)
    }
}

fn hex16(id: &[u8; 16]) -> String {
    let mut s = String::with_capacity(32);
    for b in id {
        let _ = write!(s, "{b:02x}");
    }
    s
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Process-unique span id.
    pub id: u64,
    /// Parent span id; 0 for the trace's local root.
    pub parent: u64,
    /// Span name, `layer.operation` (e.g. `storage.wal_append`).
    pub name: String,
    /// Start, microseconds from the trace origin.
    pub start_us: u64,
    /// End, microseconds from the trace origin.
    pub end_us: u64,
    /// Key=value annotations attached while the span was open.
    pub annotations: Vec<(String, String)>,
}

impl SpanRecord {
    /// Span duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// A completed span tree.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The 16-byte trace id (shared across processes via context).
    pub trace_id: [u8; 16],
    /// Spans in start order; the first is the local root.
    pub spans: Vec<SpanRecord>,
    /// The remote parent of the root span (0 if locally originated).
    pub remote_parent: u64,
    /// Spans dropped past the per-trace cap.
    pub dropped_spans: u64,
}

impl Trace {
    /// The root span (parent 0), if any spans were recorded.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.first()
    }

    /// Root-span duration in microseconds (0 for an empty trace).
    pub fn duration_us(&self) -> u64 {
        self.root().map(|s| s.duration_us()).unwrap_or(0)
    }

    /// Lowercase hex rendering of the trace id.
    pub fn trace_id_hex(&self) -> String {
        hex16(&self.trace_id)
    }

    /// Finds a span by name (first match in start order).
    pub fn span(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Renders the span tree as indented plain text:
    ///
    /// ```text
    /// trace 0f3a… (412 us, 9 spans)
    /// └─ net.request 412us
    ///    ├─ net.decode 8us
    ///    └─ net.dispatch 390us rows_scanned=42
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "trace {} ({} us, {} spans{})\n",
            self.trace_id_hex(),
            self.duration_us(),
            self.spans.len(),
            if self.dropped_spans > 0 {
                format!(", {} dropped", self.dropped_spans)
            } else {
                String::new()
            }
        );
        if let Some(root) = self.root() {
            self.render(root, "", true, &mut out);
        }
        out
    }

    fn render(&self, span: &SpanRecord, prefix: &str, last: bool, out: &mut String) {
        let _ = write!(
            out,
            "{prefix}{}{} {}us",
            if last { "└─ " } else { "├─ " },
            span.name,
            span.duration_us()
        );
        for (k, v) in &span.annotations {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
        let children: Vec<&SpanRecord> =
            self.spans.iter().filter(|s| s.parent == span.id).collect();
        let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
        for (i, c) in children.iter().enumerate() {
            self.render(c, &child_prefix, i + 1 == children.len(), out);
        }
    }
}

/// Serializes traces as Chrome trace-event JSON (`{"traceEvents":[…]}`,
/// "X" complete events, timestamps in microseconds). Each trace gets
/// its own `pid` lane so concurrent traces don't interleave.
pub fn chrome_trace_json(traces: &[Arc<Trace>]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (pid, trace) in traces.iter().enumerate() {
        let hex = trace.trace_id_hex();
        for span in &trace.spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            push_json_string(&mut out, &span.name);
            let _ = write!(
                out,
                ",\"cat\":\"mdm\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":1,\"args\":{{",
                span.start_us,
                span.duration_us(),
                pid + 1
            );
            // The local root (parent 0) links to its remote parent when
            // the trace was adopted over the wire, so a client-side and
            // server-side export of the same trace join into one tree.
            let parent = if span.parent == 0 {
                trace.remote_parent
            } else {
                span.parent
            };
            let _ = write!(
                out,
                "\"trace_id\":\"{hex}\",\"span_id\":\"{}\",\"parent_id\":\"{}\"",
                span.id, parent
            );
            for (k, v) in &span.annotations {
                out.push(',');
                push_json_string(&mut out, k);
                out.push(':');
                push_json_string(&mut out, v);
            }
            out.push_str("}}");
        }
    }
    out.push_str("]}");
    out
}

struct TracerInner {
    enabled: AtomicBool,
    sample_every: AtomicU64,
    sample_counter: AtomicU64,
    slow_threshold_us: AtomicU64,
    recent: Mutex<VecDeque<Arc<Trace>>>,
    slow: Mutex<VecDeque<Arc<Trace>>>,
    recorded_total: Arc<Counter>,
    slow_total: Arc<Counter>,
}

/// Per-process trace recorder. Cloning is cheap; clones share state.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer that starts disabled, with [`DEFAULT_SAMPLE_EVERY`]
    /// sampling and a `u64::MAX` slow threshold (slow log off).
    pub fn new() -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                enabled: AtomicBool::new(false),
                sample_every: AtomicU64::new(DEFAULT_SAMPLE_EVERY),
                sample_counter: AtomicU64::new(0),
                slow_threshold_us: AtomicU64::new(u64::MAX),
                recent: Mutex::new(VecDeque::new()),
                slow: Mutex::new(VecDeque::new()),
                recorded_total: Counter::new(),
                slow_total: Counter::new(),
            }),
        }
    }

    /// Registers the tracer's own counters into `registry`.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter_handle(
            "mdm_trace_recorded_total",
            "traces recorded into the completed-trace ring",
            &[],
            Arc::clone(&self.inner.recorded_total),
        );
        registry.register_counter_handle(
            "mdm_trace_slow_total",
            "traces captured by the slow-query log",
            &[],
            Arc::clone(&self.inner.slow_total),
        );
    }

    /// Turns recording on or off. Disabling does not clear the rings.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Sets the origination sampling period (`0` is treated as `1`:
    /// trace every request). Context-bearing requests bypass sampling.
    pub fn set_sample_every(&self, n: u64) {
        self.inner.sample_every.store(n.max(1), Ordering::Relaxed);
    }

    /// The origination sampling period.
    pub fn sample_every(&self) -> u64 {
        self.inner.sample_every.load(Ordering::Relaxed)
    }

    /// Sets the slow-query threshold in microseconds: a completed trace
    /// whose root duration is `>=` this lands in the slow ring. `0`
    /// captures every trace; `u64::MAX` captures none.
    pub fn set_slow_threshold_us(&self, t: u64) {
        self.inner.slow_threshold_us.store(t, Ordering::Relaxed);
    }

    /// The slow-query threshold in microseconds.
    pub fn slow_threshold_us(&self) -> u64 {
        self.inner.slow_threshold_us.load(Ordering::Relaxed)
    }

    /// Starts a root span on this thread, returning a guard that
    /// finalizes the trace when dropped. Returns `None` (and records
    /// nothing) when the tracer is disabled, when a trace is already
    /// active on this thread, or when origination sampling skips this
    /// request. A valid `ctx` adopts the remote trace id and is always
    /// recorded — the originator already made the sampling decision.
    pub fn root_span(&self, name: &str, ctx: Option<TraceContext>) -> Option<RootGuard> {
        if !self.enabled() {
            return None;
        }
        let active = ACTIVE.with(|a| a.borrow().is_some());
        if active {
            return None;
        }
        let (trace_id, remote_parent) = match ctx.filter(|c| c.is_valid()) {
            Some(c) => (c.trace_id, c.parent_span),
            None => {
                let every = self.sample_every();
                let n = self.inner.sample_counter.fetch_add(1, Ordering::Relaxed);
                if !n.is_multiple_of(every) {
                    return None;
                }
                (gen_trace_id(), 0)
            }
        };
        let origin = Instant::now();
        let root = SpanRecord {
            id: next_span_id(),
            parent: 0,
            name: name.to_string(),
            start_us: 0,
            end_us: 0,
            annotations: Vec::new(),
        };
        ACTIVE.with(|a| {
            *a.borrow_mut() = Some(ActiveTrace {
                tracer: self.clone(),
                trace_id,
                remote_parent,
                origin,
                spans: vec![root],
                stack: vec![0],
                dropped: 0,
            });
        });
        Some(RootGuard { _priv: () })
    }

    /// Most recent completed traces, newest first, at most `n`.
    pub fn recent(&self, n: usize) -> Vec<Arc<Trace>> {
        self.inner
            .recent
            .lock()
            .unwrap()
            .iter()
            .rev()
            .take(n)
            .cloned()
            .collect()
    }

    /// Most recent slow traces, newest first, at most `n`.
    pub fn slow(&self, n: usize) -> Vec<Arc<Trace>> {
        self.inner
            .slow
            .lock()
            .unwrap()
            .iter()
            .rev()
            .take(n)
            .cloned()
            .collect()
    }

    fn finish(&self, trace: Trace) {
        let slow = trace.duration_us() >= self.slow_threshold_us();
        let trace = Arc::new(trace);
        {
            let mut ring = self.inner.recent.lock().unwrap();
            if ring.len() >= RING_CAP {
                ring.pop_front();
            }
            ring.push_back(Arc::clone(&trace));
        }
        self.inner.recorded_total.inc();
        if slow {
            let mut ring = self.inner.slow.lock().unwrap();
            if ring.len() >= RING_CAP {
                ring.pop_front();
            }
            ring.push_back(trace);
            self.inner.slow_total.inc();
        }
    }
}

struct ActiveTrace {
    tracer: Tracer,
    trace_id: [u8; 16],
    remote_parent: u64,
    origin: Instant,
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
    dropped: u64,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

static NEXT_SPAN: AtomicU64 = AtomicU64::new(0);

fn next_span_id() -> u64 {
    // Offset by a per-process seed so span ids from different processes
    // in one distributed trace don't trivially collide.
    static SEED: AtomicU64 = AtomicU64::new(0);
    if SEED.load(Ordering::Relaxed) == 0 {
        let pid = std::process::id() as u64;
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let _ = SEED.compare_exchange(
            0,
            splitmix64(pid.rotate_left(32) ^ nanos) | 1,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }
    let raw = SEED
        .load(Ordering::Relaxed)
        .wrapping_add(NEXT_SPAN.fetch_add(1, Ordering::Relaxed));
    // 0 means "no parent" in span records, so skip it.
    if raw == 0 {
        1
    } else {
        raw
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn gen_trace_id() -> [u8; 16] {
    static CTR: AtomicU64 = AtomicU64::new(0);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let a = splitmix64(nanos ^ (std::process::id() as u64).rotate_left(32));
    let b = splitmix64(a ^ CTR.fetch_add(1, Ordering::Relaxed));
    let mut id = [0u8; 16];
    id[..8].copy_from_slice(&a.to_le_bytes());
    id[8..].copy_from_slice(&b.to_le_bytes());
    if id == [0u8; 16] {
        id[0] = 1;
    }
    id
}

/// Guard for a trace's root span: finalizes the trace on drop.
pub struct RootGuard {
    _priv: (),
}

impl Drop for RootGuard {
    fn drop(&mut self) {
        let done = ACTIVE.with(|a| a.borrow_mut().take());
        let Some(mut t) = done else { return };
        let now = t.origin.elapsed().as_micros() as u64;
        // Close the root and any spans left open (e.g. by a panic that
        // unwound past their guards).
        for &i in t.stack.iter().rev() {
            t.spans[i].end_us = now;
        }
        t.tracer.clone().finish(Trace {
            trace_id: t.trace_id,
            spans: std::mem::take(&mut t.spans),
            remote_parent: t.remote_parent,
            dropped_spans: t.dropped,
        });
    }
}

/// True if a trace is active on this thread — use to skip building
/// annotation strings on the untraced path.
pub fn is_active() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// The active trace's context (trace id + innermost open span id), for
/// propagating over the wire. `None` when no trace is active.
pub fn current_context() -> Option<TraceContext> {
    ACTIVE.with(|a| {
        let b = a.borrow();
        let t = b.as_ref()?;
        let &top = t.stack.last()?;
        Some(TraceContext {
            trace_id: t.trace_id,
            parent_span: t.spans[top].id,
        })
    })
}

/// Opens a child span of the innermost open span on this thread. A
/// no-op (inert guard) when no trace is active or the span cap is hit.
pub fn span(name: &str) -> SpanGuard {
    ACTIVE.with(|a| {
        let mut b = a.borrow_mut();
        let Some(t) = b.as_mut() else {
            return SpanGuard { active: false };
        };
        if t.spans.len() >= MAX_SPANS {
            t.dropped += 1;
            return SpanGuard { active: false };
        }
        let parent = t.stack.last().map(|&i| t.spans[i].id).unwrap_or(0);
        let start = t.origin.elapsed().as_micros() as u64;
        t.spans.push(SpanRecord {
            id: next_span_id(),
            parent,
            name: name.to_string(),
            start_us: start,
            end_us: start,
            annotations: Vec::new(),
        });
        t.stack.push(t.spans.len() - 1);
        SpanGuard { active: true }
    })
}

/// Records an already-elapsed interval as a child of the innermost open
/// span — for paths (lock waits, retries) where opening a guard up
/// front would cost something even when nothing noteworthy happens.
pub fn child_since(name: &str, started: Instant, annotations: &[(&str, &str)]) {
    ACTIVE.with(|a| {
        let mut b = a.borrow_mut();
        let Some(t) = b.as_mut() else { return };
        if t.spans.len() >= MAX_SPANS {
            t.dropped += 1;
            return;
        }
        let parent = t.stack.last().map(|&i| t.spans[i].id).unwrap_or(0);
        let start = started.saturating_duration_since(t.origin).as_micros() as u64;
        let end = t.origin.elapsed().as_micros() as u64;
        t.spans.push(SpanRecord {
            id: next_span_id(),
            parent,
            name: name.to_string(),
            start_us: start,
            end_us: end.max(start),
            annotations: annotations
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
    });
}

/// Attaches a key=value annotation to the innermost open span. A no-op
/// when no trace is active.
pub fn annotate(key: &str, value: impl std::fmt::Display) {
    ACTIVE.with(|a| {
        let mut b = a.borrow_mut();
        let Some(t) = b.as_mut() else { return };
        let Some(&top) = t.stack.last() else { return };
        t.spans[top]
            .annotations
            .push((key.to_string(), value.to_string()));
    });
}

fn end_current_span() {
    ACTIVE.with(|a| {
        let mut b = a.borrow_mut();
        let Some(t) = b.as_mut() else { return };
        // The root (stack index 0) is closed by RootGuard, not here.
        if t.stack.len() <= 1 {
            return;
        }
        let i = t.stack.pop().unwrap();
        t.spans[i].end_us = t.origin.elapsed().as_micros() as u64;
    });
}

/// Guard for a non-root span: closes it on drop (LIFO with siblings).
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            end_current_span();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn tracer_on() -> Tracer {
        let t = Tracer::new();
        t.set_enabled(true);
        t.set_sample_every(1);
        t
    }

    #[test]
    fn records_span_tree_with_parent_links() {
        let tracer = tracer_on();
        {
            let _root = tracer.root_span("net.request", None).unwrap();
            {
                let _d = span("net.decode");
            }
            {
                let _d = span("net.dispatch");
                annotate("api", "execute");
                {
                    let _e = span("quel.exec");
                    annotate("rows_scanned", 42);
                }
            }
        }
        let traces = tracer.recent(10);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.spans.len(), 4);
        let root = t.root().unwrap();
        assert_eq!(root.name, "net.request");
        assert_eq!(root.parent, 0);
        let decode = t.span("net.decode").unwrap();
        let dispatch = t.span("net.dispatch").unwrap();
        let exec = t.span("quel.exec").unwrap();
        assert_eq!(decode.parent, root.id);
        assert_eq!(dispatch.parent, root.id);
        assert_eq!(exec.parent, dispatch.id);
        assert_eq!(
            exec.annotations,
            vec![("rows_scanned".to_string(), "42".to_string())]
        );
        assert!(root.end_us >= exec.end_us);
        let text = t.to_text();
        assert!(text.contains("net.request"), "{text}");
        assert!(text.contains("rows_scanned=42"), "{text}");
    }

    #[test]
    fn disabled_or_unsampled_records_nothing() {
        let tracer = Tracer::new(); // disabled
        assert!(tracer.root_span("r", None).is_none());
        tracer.set_enabled(true);
        tracer.set_sample_every(1_000_000);
        let mut hits = 0;
        for _ in 0..100 {
            if let Some(g) = tracer.root_span("r", None) {
                hits += 1;
                drop(g);
            }
        }
        assert!(hits <= 1, "sampling about one in a million, got {hits}");
        // Spans outside any trace are inert.
        let g = span("orphan");
        drop(g);
        annotate("k", "v");
        assert!(current_context().is_none());
    }

    #[test]
    fn context_bearing_requests_bypass_sampling_and_adopt_id() {
        let tracer = tracer_on();
        tracer.set_sample_every(1_000_000);
        // Consume the first origination slot (the counter starts at 0,
        // so the very first uncontexted request is always sampled).
        drop(tracer.root_span("warmup", None));
        let ctx = TraceContext {
            trace_id: [7u8; 16],
            parent_span: 99,
        };
        for _ in 0..3 {
            let g = tracer.root_span("net.request", Some(ctx));
            assert!(g.is_some());
            drop(g);
        }
        let traces = tracer.recent(10);
        assert_eq!(traces.len(), 4);
        assert_eq!(traces[0].trace_id, [7u8; 16]);
        assert_eq!(traces[0].remote_parent, 99);
        // An all-zero (invalid) context falls back to origination
        // sampling instead of tracing an untrusted id.
        let bad = TraceContext {
            trace_id: [0u8; 16],
            parent_span: 1,
        };
        assert!(tracer.root_span("net.request", Some(bad)).is_none());
    }

    #[test]
    fn slow_ring_thresholds() {
        let tracer = tracer_on();
        tracer.set_slow_threshold_us(0);
        drop(tracer.root_span("r", None).unwrap());
        assert_eq!(tracer.slow(10).len(), 1, "threshold 0 captures all");
        tracer.set_slow_threshold_us(u64::MAX);
        drop(tracer.root_span("r", None).unwrap());
        assert_eq!(tracer.recent(10).len(), 2);
        assert_eq!(tracer.slow(10).len(), 1, "u64::MAX captures none");
    }

    #[test]
    fn rings_are_bounded_and_newest_first() {
        let tracer = tracer_on();
        for i in 0..(RING_CAP + 10) {
            let g = tracer.root_span(&format!("r{i}"), None).unwrap();
            drop(g);
        }
        let recent = tracer.recent(usize::MAX);
        assert_eq!(recent.len(), RING_CAP);
        assert_eq!(recent[0].root().unwrap().name, format!("r{}", RING_CAP + 9));
    }

    #[test]
    fn span_cap_counts_drops() {
        let tracer = tracer_on();
        {
            let _root = tracer.root_span("r", None).unwrap();
            for _ in 0..(MAX_SPANS + 50) {
                let g = span("leaf");
                drop(g);
            }
        }
        let t = &tracer.recent(1)[0];
        assert_eq!(t.spans.len(), MAX_SPANS);
        assert_eq!(t.dropped_spans, 51); // 50 over cap + the one that hit it
    }

    #[test]
    fn child_since_records_retroactive_interval() {
        let tracer = tracer_on();
        {
            let _root = tracer.root_span("r", None).unwrap();
            let started = Instant::now();
            child_since("quel.ord_before", started, &[("table", "SCORE")]);
        }
        let t = &tracer.recent(1)[0];
        let wait = t.span("quel.ord_before").unwrap();
        assert_eq!(wait.parent, t.root().unwrap().id);
        assert_eq!(
            wait.annotations,
            vec![("table".to_string(), "SCORE".to_string())]
        );
    }

    #[test]
    fn chrome_export_is_parseable_json() {
        let tracer = tracer_on();
        {
            let _root = tracer.root_span("net.request", None).unwrap();
            let _c = span("quel.exec");
            annotate("stmt", "retrieve (s.title)\nweird\"chars\\");
        }
        let traces = tracer.recent(10);
        let json_text = chrome_trace_json(&traces);
        let v = json::parse(&json_text).expect("chrome export parses");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
        for ev in events {
            assert_eq!(ev.get("ph").and_then(|p| p.as_str()), Some("X"));
            assert!(ev.get("ts").is_some() && ev.get("dur").is_some());
            let args = ev.get("args").expect("args");
            assert!(args.get("trace_id").is_some());
        }
    }

    #[test]
    fn current_context_points_at_innermost_span() {
        let tracer = tracer_on();
        let _root = tracer.root_span("r", None).unwrap();
        let outer = current_context().unwrap();
        {
            let _c = span("child");
            let inner = current_context().unwrap();
            assert_eq!(inner.trace_id, outer.trace_id);
            assert_ne!(inner.parent_span, outer.parent_span);
        }
        let back = current_context().unwrap();
        assert_eq!(back.parent_span, outer.parent_span);
    }

    #[test]
    fn tracer_metrics_register() {
        let r = Registry::new();
        let tracer = tracer_on();
        tracer.register_metrics(&r);
        drop(tracer.root_span("r", None).unwrap());
        let s = r.snapshot();
        assert_eq!(s.counter("mdm_trace_recorded_total"), Some(1));
        assert_eq!(s.counter("mdm_trace_slow_total"), Some(0));
    }
}
