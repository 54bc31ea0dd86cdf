//! # mdm-obs
//!
//! Zero-dependency observability for the music data manager. The build
//! environment is offline, so this crate hand-rolls the pieces that
//! `metrics`/`tracing` would otherwise provide:
//!
//! * [`metrics`] — [`Counter`], [`Gauge`], and fixed-bucket [`Histogram`]
//!   on relaxed atomics, plus the [`SpanTimer`] scope guard that records
//!   elapsed wall time into a histogram on drop.
//! * [`registry`] — a [`Registry`] of named, labelled metric handles with
//!   consistent [`Snapshot`] export as JSON and Prometheus text format.
//! * [`codec`] — the one byte codec: a bounds-checked [`codec::Reader`]
//!   and the length-prefixed writers every binary format of the system
//!   (log, catalog, image rows, seeds, statistics images, wire payloads)
//!   is written and read with.
//! * [`json`] — a minimal JSON parser used by tests and by the bench
//!   smoke-mode validator; the exporters in [`registry`] emit JSON this
//!   parser round-trips.
//! * [`monitor`] — the continuous-monitoring subsystem: a [`Monitor`]
//!   whose background sampler keeps the latest [`SamplePoint`] of every
//!   series (value, rate, histogram sum and quantiles) and a declarative
//!   health [`Rule`] engine with pending→firing hysteresis backing
//!   `/healthz`.
//! * [`process`] — [`ProcessGauges`], `mdm_process_*` gauges (RSS,
//!   open fds, threads) read from `/proc/self`; zeros off-Linux.
//! * [`stats`] — the [`StatementStore`], a bounded LRU of
//!   per-fingerprint statement statistics (pg_stat_statements for QUEL)
//!   with a binary image for checkpoint persistence.
//! * [`trace`] — per-request span trees: a [`Tracer`] with sampling, a
//!   bounded ring of completed traces, a slow-query log, and export as
//!   Chrome trace-event JSON or a plain-text tree.
//!
//! Everything is `Send + Sync` and cheap enough for hot paths: counters
//! are one relaxed `fetch_add`, histograms one short linear bucket scan
//! plus three relaxed adds. Nothing here allocates after registration.
//!
//! ```
//! use mdm_obs::Registry;
//!
//! let registry = Registry::new();
//! let hits = registry.counter("mdm_pool_hits_total", "cache hits");
//! hits.inc();
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("mdm_pool_hits_total"), Some(1));
//! assert!(snap.to_prometheus().contains("mdm_pool_hits_total 1"));
//! ```

pub mod codec;
pub mod json;
pub mod metrics;
pub mod monitor;
pub mod process;
pub mod registry;
pub mod stats;
pub mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, SpanTimer, LATENCY_MICROS_BOUNDS, SMALL_COUNT_BOUNDS,
};
pub use monitor::{
    AlertSnap, AlertState, Cmp, HealthReport, Monitor, Rule, RuleInput, SamplePoint, Severity,
};
pub use process::ProcessGauges;
pub use registry::{HistogramSnap, MetricSnap, MetricValue, Registry, Snapshot};
pub use stats::{PathMix, StatementStats, StatementStore, DEFAULT_STATEMENT_CAPACITY};
pub use trace::{chrome_trace_json, SpanRecord, Trace, TraceContext, Tracer, DEFAULT_SAMPLE_EVERY};
