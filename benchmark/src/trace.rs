//! Benchmark-side tracing: spans recorded by the benchmark around its
//! calls into each layer, kept in memory and written out at exit. Spans
//! inside the program are a later issue; these bracket public calls
//! only.
//!
//! Per traced op there is a root `op` span and a child around the
//! public call that served it. For one op in [`SHADOW_EVERY`] the call
//! span also gets *shadow* children: the same request replayed directly
//! against the next layers down, after the real call returned. Every
//! span brackets one call and nothing else, so a shadow's interval lies
//! after its parent's, and self time is taken on durations: a span's
//! duration minus its children's.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One op in this many carries shadow children.
pub const SHADOW_EVERY: u64 = 16;

/// The layers `trace.self_us.*` is reported for, by span-name prefix.
pub const LAYERS: [&str; 5] = ["net", "core", "lang", "model", "storage"];

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same recorder, or [`NO_PARENT`].
    pub parent: u32,
    pub op_id: u64,
}

/// One client's spans. Not shared: each client thread owns one and the
/// run merges them when it ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// All recorders of a run share `epoch` so their timestamps line up.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, parent: u32, op_id: u64) -> u32 {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Records a span around `f` alone and returns its id, so the
    /// caller can hang shadow children on it afterwards.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        op_id: u64,
        f: impl FnOnce() -> R,
    ) -> (u32, R) {
        let span = self.open(name, parent, op_id);
        let out = f();
        self.close(span);
        (span, out)
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Mean self time per shadowed op, in microseconds, for each of
/// [`LAYERS`]. Only ops that carry shadow children count: an
/// unshadowed call span has no children to subtract, so its whole
/// duration would be booked to the top layer.
pub fn layer_self_us(spans: &[Span]) -> [f64; LAYERS.len()] {
    let own = self_times_ns(spans);
    let mut has_children = vec![false; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            has_children[s.parent as usize] = true;
        }
    }
    // An op is shadowed when its call span (a child of the root) has
    // children of its own.
    let mut shadowed_ops = std::collections::BTreeSet::new();
    for (i, s) in spans.iter().enumerate() {
        let is_call = s.parent != NO_PARENT && spans[s.parent as usize].parent == NO_PARENT;
        if is_call && has_children[i] {
            shadowed_ops.insert(s.op_id);
        }
    }
    let mut totals = [0.0; LAYERS.len()];
    if shadowed_ops.is_empty() {
        return totals;
    }
    for (s, own_ns) in spans.iter().zip(&own) {
        if !shadowed_ops.contains(&s.op_id) {
            continue;
        }
        let layer = s.name.split('.').next().unwrap_or("");
        if let Some(i) = LAYERS.iter().position(|l| *l == layer) {
            totals[i] += *own_ns as f64 / 1e3;
        }
    }
    totals.map(|t| t / shadowed_ops.len() as f64)
}

/// Merges per-client recorders into one span list, rewriting parent
/// indexes so they stay valid.
pub fn merge(recorders: Vec<Recorder>) -> Vec<Span> {
    let mut all = Vec::new();
    for rec in recorders {
        let base = all.len() as u32;
        all.extend(rec.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
    all
}

/// Writes spans as JSON lines: `name,start_ns,end_ns,parent,op_id`, the
/// span's own id being its line number (0-based).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.op_id
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32, op: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: op,
        }
    }

    /// op(0..100) → net.query(10..90) → shadow core.query_shared(100..150)
    /// → lang.execute_readonly(150..180) → lang.lex(180..185).
    fn tree() -> Vec<Span> {
        vec![
            span("op", 0, 100_000, NO_PARENT, 0),
            span("net.query", 10_000, 90_000, 0, 0),
            span("core.query_shared", 100_000, 150_000, 1, 0),
            span("lang.execute_readonly", 150_000, 180_000, 2, 0),
            span("lang.lex", 180_000, 185_000, 3, 0),
            // An unshadowed op: must not count.
            span("op", 200_000, 300_000, NO_PARENT, 1),
            span("net.query", 200_000, 300_000, 5, 1),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let own = self_times_ns(&tree());
        assert_eq!(own[0], 20_000); // 100 − 80
        assert_eq!(own[1], 30_000); // 80 − 50
        assert_eq!(own[2], 20_000); // 50 − 30
        assert_eq!(own[3], 25_000); // 30 − 5
        assert_eq!(own[4], 5_000);
        assert_eq!(own[6], 100_000);
    }

    #[test]
    fn layer_self_time_counts_only_shadowed_ops() {
        let layers = layer_self_us(&tree());
        assert_eq!(layers[0], 30.0); // net
        assert_eq!(layers[1], 20.0); // core
        assert_eq!(layers[2], 30.0); // lang: 25 + 5
        assert_eq!(layers[3], 0.0); // model
        assert_eq!(layers[4], 0.0); // storage
    }

    #[test]
    fn merge_rebases_parents() {
        let mut a = Recorder::new(Instant::now());
        let root = a.open("op", NO_PARENT, 0);
        a.close(root);
        let mut b = Recorder::new(Instant::now());
        let root = b.open("op", NO_PARENT, 1);
        let (call, ()) = b.timed("core.save", root, 1, || ());
        assert_eq!(call, 1);
        b.close(root);
        let all = merge(vec![a, b]);
        assert_eq!(all.len(), 3);
        assert_eq!(all[1].parent, NO_PARENT);
        assert_eq!(all[2].parent, 1);
    }
}
