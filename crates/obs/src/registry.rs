//! The metrics registry: named, labelled handles plus snapshot export.
//!
//! A [`Registry`] hands out `Arc` handles to [`Counter`]s, [`Gauge`]s,
//! and [`Histogram`]s keyed by `(name, labels)`. Registering the same
//! key twice returns the existing handle, so independent components can
//! share a metric without coordination. [`Registry::snapshot`] reads
//! every handle into a [`Snapshot`] that serializes as JSON (for the
//! bench trajectory) or Prometheus text format (for scrapers).
//!
//! Naming convention (enforced by review, not code): `mdm_<subsystem>_
//! <metric>` with a `_total` suffix for counters and a `_micros` suffix
//! for duration histograms — e.g. `mdm_wal_fsyncs_total`,
//! `mdm_quel_exec_micros`.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram};

#[derive(Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    handle: Handle,
}

/// A shared registry of metrics. Cloning is cheap; clones share state.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Vec<Entry>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.inner.lock().map(|e| e.len()).unwrap_or(0);
        f.debug_struct("Registry").field("metrics", &n).finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(&self, name: &str, help: &str, labels: &[(&str, &str)], make: Handle) -> Handle {
        let mut entries = self.inner.lock().unwrap();
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && labels_eq(&e.labels, labels))
        {
            return e.handle.clone();
        }
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            handle: make.clone(),
        });
        make
    }

    /// Registers (or retrieves) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_labeled(name, help, &[])
    }

    /// Registers (or retrieves) a labelled counter.
    pub fn counter_labeled(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, help, labels, Handle::Counter(Counter::new())) {
            Handle::Counter(c) => c,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Registers (or retrieves) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_labeled(name, help, &[])
    }

    /// Registers (or retrieves) a labelled gauge (e.g. `mdm_build_info`
    /// carrying its version strings as labels).
    pub fn gauge_labeled(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, help, labels, Handle::Gauge(Gauge::new())) {
            Handle::Gauge(g) => g,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Registers (or retrieves) an unlabelled histogram over `bounds`.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[u64]) -> Arc<Histogram> {
        self.histogram_labeled(name, help, bounds, &[])
    }

    /// Registers (or retrieves) a labelled histogram over `bounds`.
    pub fn histogram_labeled(
        &self,
        name: &str,
        help: &str,
        bounds: &[u64],
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.register(
            name,
            help,
            labels,
            Handle::Histogram(Histogram::new(bounds)),
        ) {
            Handle::Histogram(h) => h,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Registers an externally-created counter handle (e.g. one a
    /// component constructed before it had a registry), or returns the
    /// already-registered handle for the same `(name, labels)`.
    pub fn register_counter_handle(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        handle: Arc<Counter>,
    ) -> Arc<Counter> {
        match self.register(name, help, labels, Handle::Counter(handle)) {
            Handle::Counter(c) => c,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Reads every registered metric into a point-in-time snapshot.
    /// Values are read with relaxed ordering: a snapshot taken under load
    /// is internally consistent per metric but not across metrics.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.inner.lock().unwrap();
        let mut out: Vec<MetricSnap> = entries
            .iter()
            .map(|e| MetricSnap {
                name: e.name.clone(),
                help: e.help.clone(),
                labels: e.labels.clone(),
                value: match &e.handle {
                    Handle::Counter(c) => MetricValue::Counter(c.get()),
                    Handle::Gauge(g) => MetricValue::Gauge(g.get()),
                    Handle::Histogram(h) => MetricValue::Histogram(HistogramSnap {
                        bounds: h.bounds().to_vec(),
                        counts: h.bucket_counts(),
                        count: h.count(),
                        sum: h.sum(),
                    }),
                },
            })
            .collect();
        out.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Snapshot { entries: out }
    }
}

fn labels_eq(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len()
        && have
            .iter()
            .zip(want)
            .all(|((hk, hv), (wk, wv))| hk == wk && hv == wv)
}

/// One metric at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnap {
    /// Metric name (`mdm_*`).
    pub name: String,
    /// Help text (Prometheus `# HELP`).
    pub help: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: MetricValue,
}

/// A snapshot value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(i64),
    /// Histogram reading.
    Histogram(HistogramSnap),
}

/// Histogram state at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnap {
    /// Inclusive upper bucket edges.
    pub bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) counts; the overflow bucket is last.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnap {
    /// Mean observed value, if any observations were made.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// within the bucket containing the target rank — the standard
    /// Prometheus `histogram_quantile` estimate. Observations in the
    /// overflow bucket are attributed to the last finite bound. Returns
    /// `None` for an empty histogram or a `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            let next = cumulative + n;
            if next as f64 >= rank && n > 0 {
                let upper = match self.bounds.get(i) {
                    Some(&b) => b as f64,
                    // Overflow bucket: no upper edge to interpolate
                    // toward, so report the last finite bound.
                    None => return Some(*self.bounds.last()? as f64),
                };
                let lower = if i == 0 {
                    0.0
                } else {
                    self.bounds[i - 1] as f64
                };
                let frac = (rank - cumulative as f64) / n as f64;
                return Some(lower + (upper - lower) * frac.clamp(0.0, 1.0));
            }
            cumulative = next;
        }
        self.bounds.last().map(|&b| b as f64)
    }
}

/// A point-in-time export of a [`Registry`].
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// All metrics, sorted by (name, labels).
    pub entries: Vec<MetricSnap>,
}

impl Snapshot {
    /// The subset of metrics whose name starts with `prefix` (an empty
    /// prefix keeps everything) — backs the shell's
    /// `\stats [json|prom] [prefix]` filter.
    pub fn filtered(&self, prefix: &str) -> Snapshot {
        Snapshot {
            entries: self
                .entries
                .iter()
                .filter(|e| e.name.starts_with(prefix))
                .cloned()
                .collect(),
        }
    }

    /// The value of an unlabelled counter, or the sum across all label
    /// sets of `name` when it is labelled.
    pub fn counter(&self, name: &str) -> Option<u64> {
        let mut found = false;
        let mut total = 0;
        for e in self.entries.iter().filter(|e| e.name == name) {
            if let MetricValue::Counter(v) = e.value {
                found = true;
                total += v;
            }
        }
        found.then_some(total)
    }

    /// The value of a counter with exactly the given labels.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.name == name && labels_eq(&e.labels, labels))
            .and_then(|e| match e.value {
                MetricValue::Counter(v) => Some(v),
                _ => None,
            })
    }

    /// The value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .and_then(|e| match e.value {
                MetricValue::Gauge(v) => Some(v),
                _ => None,
            })
    }

    /// The first histogram named `name`.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnap> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .and_then(|e| match &e.value {
                MetricValue::Histogram(h) => Some(h),
                _ => None,
            })
    }

    /// The change between `earlier` and this snapshot, so counters can
    /// be read as rates during a run (`\stats delta` in the shell).
    /// Entries are matched by `(name, labels)`: counters subtract
    /// (saturating, so a restart between reads shows zero rather than
    /// wrapping), histograms subtract per bucket, and gauges keep their
    /// current reading — a gauge is a level, not an accumulation.
    /// Entries absent from `earlier` keep their current values.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let before = earlier
                    .entries
                    .iter()
                    .find(|b| b.name == e.name && b.labels == e.labels);
                let value = match (&e.value, before.map(|b| &b.value)) {
                    (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                        MetricValue::Counter(now.saturating_sub(*then))
                    }
                    (MetricValue::Histogram(now), Some(MetricValue::Histogram(then)))
                        if now.bounds == then.bounds && now.counts.len() == then.counts.len() =>
                    {
                        MetricValue::Histogram(HistogramSnap {
                            bounds: now.bounds.clone(),
                            counts: now
                                .counts
                                .iter()
                                .zip(&then.counts)
                                .map(|(n, t)| n.saturating_sub(*t))
                                .collect(),
                            count: now.count.saturating_sub(then.count),
                            sum: now.sum.saturating_sub(then.sum),
                        })
                    }
                    _ => e.value.clone(),
                };
                MetricSnap {
                    name: e.name.clone(),
                    help: e.help.clone(),
                    labels: e.labels.clone(),
                    value,
                }
            })
            .collect();
        Snapshot { entries }
    }

    /// Serializes the snapshot as a JSON object:
    /// `{"metrics": [{"name": …, "labels": {…}, "type": …, …}, …]}`.
    /// The output round-trips through [`crate::json::parse`].
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json_string(&mut out, &e.name);
            out.push_str(",\"labels\":{");
            for (j, (k, v)) in e.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_json_string(&mut out, k);
                out.push(':');
                push_json_string(&mut out, v);
            }
            out.push('}');
            match &e.value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, ",\"type\":\"counter\",\"value\":{v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, ",\"type\":\"gauge\",\"value\":{v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        ",\"type\":\"histogram\",\"count\":{},\"sum\":{},\"buckets\":[",
                        h.count, h.sum
                    );
                    let mut cumulative = 0;
                    for (j, (&bound, &n)) in h.bounds.iter().zip(&h.counts).enumerate() {
                        cumulative += n;
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{{\"le\":{bound},\"count\":{cumulative}}}");
                    }
                    let _ = write!(
                        out,
                        ",{{\"le\":\"+Inf\",\"count\":{}}}]",
                        cumulative + h.counts.last().copied().unwrap_or(0)
                    );
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Serializes the snapshot in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = "";
        for e in &self.entries {
            if e.name != last_family {
                let _ = writeln!(out, "# HELP {} {}", e.name, prom_escape_help(&e.help));
                let kind = match e.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {} {}", e.name, kind);
                last_family = &e.name;
            }
            match &e.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {}", e.name, prom_labels(&e.labels, &[]), v);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {}", e.name, prom_labels(&e.labels, &[]), v);
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0;
                    for (&bound, &n) in h.bounds.iter().zip(&h.counts) {
                        cumulative += n;
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            e.name,
                            prom_labels(&e.labels, &[("le", &bound.to_string())]),
                            cumulative
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        e.name,
                        prom_labels(&e.labels, &[("le", "+Inf")]),
                        h.count
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        e.name,
                        prom_labels(&e.labels, &[]),
                        h.sum
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        e.name,
                        prom_labels(&e.labels, &[]),
                        h.count
                    );
                }
            }
        }
        out
    }
}

fn prom_labels(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", prom_escape_label_value(v));
    }
    out.push('}');
    out
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double-quote, and line feed (in that order, so escapes
/// are not themselves re-escaped).
fn prom_escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escapes `# HELP` text: the exposition format requires `\\` and `\n`
/// (quotes are legal in help text and left alone).
fn prom_escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Appends `s` as a JSON string literal (with escaping) to `out`.
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_dedups_by_name_and_labels() {
        let r = Registry::new();
        let a = r.counter("mdm_x_total", "x");
        let b = r.counter("mdm_x_total", "x");
        let c = r.counter_labeled("mdm_x_total", "x", &[("shard", "0")]);
        a.inc();
        assert_eq!(b.get(), 1, "same key shares the handle");
        assert_eq!(c.get(), 0, "different labels are a different series");
        assert_eq!(r.snapshot().entries.len(), 2);
    }

    #[test]
    fn snapshot_lookup_helpers() {
        let r = Registry::new();
        r.counter_labeled("mdm_pool_hits_total", "hits", &[("shard", "0")])
            .add(3);
        r.counter_labeled("mdm_pool_hits_total", "hits", &[("shard", "1")])
            .add(4);
        r.gauge("mdm_active_txns", "active").set(-2);
        r.histogram("mdm_lat_micros", "latency", &[10, 100])
            .observe(7);
        let s = r.snapshot();
        assert_eq!(s.counter("mdm_pool_hits_total"), Some(7));
        assert_eq!(
            s.counter_with("mdm_pool_hits_total", &[("shard", "1")]),
            Some(4)
        );
        assert_eq!(s.gauge("mdm_active_txns"), Some(-2));
        assert_eq!(s.histogram("mdm_lat_micros").unwrap().count, 1);
        assert_eq!(s.counter("absent"), None);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let r = Registry::new();
        let h = r.histogram("mdm_q_micros", "latency", &[10, 100, 1000]);
        // 50 observations in (10, 100], 50 in (100, 1000].
        for _ in 0..50 {
            h.observe(60);
        }
        for _ in 0..50 {
            h.observe(600);
        }
        let s = r.snapshot();
        let snap = s.histogram("mdm_q_micros").unwrap();
        // p50 sits exactly at the edge of the second bucket.
        assert_eq!(snap.quantile(0.5), Some(100.0));
        // p99 interpolates 99/50 of the way… within (100, 1000].
        let p99 = snap.quantile(0.99).unwrap();
        assert!((100.0..=1000.0).contains(&p99), "{p99}");
        assert!(p99 > 800.0, "p99 near the top of the bucket: {p99}");
        // q=0 lands at the lower edge of the first non-empty bucket.
        assert_eq!(snap.quantile(0.0), Some(10.0));
        assert_eq!(snap.quantile(1.5), None);
        // Overflow observations clamp to the last finite bound.
        h.observe(1_000_000);
        let s = r.snapshot();
        assert_eq!(
            s.histogram("mdm_q_micros").unwrap().quantile(1.0),
            Some(1000.0)
        );
        // Empty histogram has no quantiles.
        let empty = HistogramSnap {
            bounds: vec![10],
            counts: vec![0, 0],
            count: 0,
            sum: 0,
        };
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn prometheus_escapes_hostile_label_values() {
        let r = Registry::new();
        r.counter_labeled(
            "mdm_hostile_total",
            "help with \\ backslash\nand newline",
            &[("client", "evil\\name\"quoted\"\nnext_metric 999")],
        )
        .add(1);
        let text = r.snapshot().to_prometheus();
        // Golden output: every hostile byte escaped, one sample line.
        let expected = concat!(
            "# HELP mdm_hostile_total help with \\\\ backslash\\nand newline\n",
            "# TYPE mdm_hostile_total counter\n",
            "mdm_hostile_total{client=\"evil\\\\name\\\"quoted\\\"\\nnext_metric 999\"} 1\n",
        );
        assert_eq!(text, expected);
        // A raw newline inside a label value would have split the
        // exposition into a bogus extra sample line.
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn snapshot_prefix_filter() {
        let r = Registry::new();
        r.counter("mdm_net_requests_total", "net").add(1);
        r.counter("mdm_wal_appends_total", "wal").add(2);
        r.gauge("mdm_net_active", "net gauge").set(3);
        let s = r.snapshot();
        let net = s.filtered("mdm_net_");
        assert_eq!(net.entries.len(), 2);
        assert!(net.counter("mdm_wal_appends_total").is_none());
        assert!(net.to_prometheus().contains("mdm_net_requests_total 1"));
        assert_eq!(s.filtered("").entries.len(), 3, "empty prefix keeps all");
        assert_eq!(s.filtered("nope").entries.len(), 0);
    }

    #[test]
    fn delta_subtracts_counters_and_histograms_keeps_gauges() {
        let r = Registry::new();
        let c = r.counter_labeled("mdm_ops_total", "ops", &[("kind", "a")]);
        let g = r.gauge("mdm_active", "active");
        let h = r.histogram("mdm_lat_micros", "latency", &[10, 100]);
        c.add(5);
        g.set(2);
        h.observe(7);
        let before = r.snapshot();
        c.add(3);
        g.set(9);
        h.observe(50);
        h.observe(5000);
        let d = r.snapshot().delta(&before);
        assert_eq!(d.counter_with("mdm_ops_total", &[("kind", "a")]), Some(3));
        assert_eq!(d.gauge("mdm_active"), Some(9), "gauges keep the level");
        let hs = d.histogram("mdm_lat_micros").unwrap();
        assert_eq!(hs.count, 2);
        assert_eq!(hs.counts, vec![0, 1, 1]);
        assert_eq!(hs.sum, 5050);
        // A counter that went backwards (restart) clamps to zero.
        let empty = Registry::new().snapshot();
        let clamped = empty.delta(&r.snapshot());
        assert!(clamped.entries.is_empty());
        let d2 = before.delta(&r.snapshot());
        assert_eq!(d2.counter_with("mdm_ops_total", &[("kind", "a")]), Some(0));
    }

    #[test]
    fn delta_keeps_entries_new_since_baseline() {
        let r = Registry::new();
        let before = r.snapshot();
        r.counter("mdm_new_total", "new").add(4);
        let d = r.snapshot().delta(&before);
        assert_eq!(d.counter("mdm_new_total"), Some(4));
    }

    #[test]
    fn json_escapes_strings() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
