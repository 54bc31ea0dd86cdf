//! Continuous monitoring: the latest sample of every metric series and
//! a health/alert rules engine over the [`Registry`].
//!
//! A [`Monitor`] owns a background **sampler thread** that snapshots the
//! registry every [`MonitorConfig::interval`] and keeps one
//! [`SamplePoint`] per series: the raw value, a derived per-second rate
//! over the last window (for counters and histogram observation
//! counts), and the sum and p50/p99 latency estimate for histograms.
//! `$metrics` reads these points, so what it shows is the monitor's
//! sample — at most one interval old — not a fresh registry snapshot.
//!
//! On top of the same samples sits a declarative **rules engine**: a
//! [`Rule`] compares a metric's value, rate, or rate-fraction against a
//! threshold and must breach for [`Rule::for_samples`] consecutive
//! samples before the alert transitions *pending → firing* — and must
//! then stay healthy for the same count before it clears (hysteresis,
//! so a flapping metric does not flap the health endpoint). A firing
//! [`Severity::Critical`] rule flips [`Monitor::health`] unhealthy,
//! which the HTTP `/healthz` endpoint maps to 503 for load balancers
//! and replica failover.
//!
//! Cost model: when no monitor is constructed nothing changes anywhere
//! (metrics stay plain relaxed atomics). When sampling is on, the whole
//! cost is one registry snapshot + one point per series per interval on a dedicated
//! thread — the hot paths are untouched. The benchmark's wire workloads
//! run with the sampler on, so its cost is part of their `cpu_us_per_op`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::metrics::Counter;
use crate::process::ProcessGauges;
use crate::registry::{push_json_string, MetricValue, Registry, Snapshot};

/// Sampler configuration.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Interval between samples. [`Duration::ZERO`] disables the
    /// background thread; samples are then taken only on demand
    /// (`$metrics`, `\health`, `/healthz` each take one when stale).
    pub interval: Duration,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            interval: Duration::from_secs(1),
        }
    }
}

impl MonitorConfig {
    /// A config with the background sampler disabled (on-demand only).
    pub fn disabled() -> MonitorConfig {
        MonitorConfig {
            interval: Duration::ZERO,
        }
    }
}

/// One sample of one metric series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePoint {
    /// Raw reading: counter total, gauge level, or histogram count.
    pub value: f64,
    /// Per-second derivative over the last window (0 on the first
    /// sample). Gauges report the level change per second.
    pub rate: f64,
    /// Histogram sum of observations (0 for counters/gauges).
    pub sum: f64,
    /// Histogram p50 estimate (0 for counters/gauges).
    pub p50: f64,
    /// Histogram p99 estimate (0 for counters/gauges).
    pub p99: f64,
}

/// What a [`Rule`] reads from its metric each sample.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleInput {
    /// The raw reading (counter total / gauge level / histogram count).
    Value,
    /// Per-second rate over the last sampling window.
    RatePerSec,
    /// `rate(metric) / (rate(metric) + rate(other))` — e.g. the pool
    /// miss fraction with `metric = misses, other = hits`. Evaluates to
    /// no-breach while the window saw no events at all.
    RateFraction {
        /// The companion metric forming the denominator.
        other: String,
    },
}

/// Comparison direction for a [`Rule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Breaches when the observed value is strictly above the threshold.
    Above,
    /// Breaches when the observed value is strictly below the threshold.
    Below,
}

impl Cmp {
    /// Lower-case name used in JSON and `$alerts`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Cmp::Above => "above",
            Cmp::Below => "below",
        }
    }
}

/// How a firing rule affects [`Monitor::health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Reported in `/statusz` and `$alerts` but keeps `/healthz` at 200.
    Warning,
    /// A firing critical rule turns `/healthz` into 503.
    Critical,
}

impl Severity {
    /// Lower-case name used in JSON and `$alerts`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// A declarative health rule over one registered metric.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Unique rule name (e.g. `repl_lag_bytes_high`).
    pub name: String,
    /// Metric family the rule reads (summed across label sets for
    /// counters).
    pub metric: String,
    /// What to read from the metric.
    pub input: RuleInput,
    /// Comparison direction.
    pub cmp: Cmp,
    /// Threshold compared against.
    pub threshold: f64,
    /// Consecutive breaching samples before *pending* becomes *firing*
    /// (and consecutive healthy samples before firing clears).
    pub for_samples: u32,
    /// Health impact while firing.
    pub severity: Severity,
}

impl Rule {
    /// A critical `metric > threshold for N samples` rule.
    pub fn above(name: &str, metric: &str, threshold: f64, for_samples: u32) -> Rule {
        Rule {
            name: name.to_string(),
            metric: metric.to_string(),
            input: RuleInput::Value,
            cmp: Cmp::Above,
            threshold,
            for_samples: for_samples.max(1),
            severity: Severity::Critical,
        }
    }

    /// Downgrades the rule to [`Severity::Warning`].
    pub fn warning(mut self) -> Rule {
        self.severity = Severity::Warning;
        self
    }

    /// Switches the rule to read the per-second rate.
    pub fn rate(mut self) -> Rule {
        self.input = RuleInput::RatePerSec;
        self
    }
}

/// Alert lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Condition currently holds.
    Ok,
    /// Breaching, but for fewer than `for_samples` consecutive samples.
    Pending,
    /// Breached long enough; clears only after `for_samples` healthy
    /// samples in a row.
    Firing,
}

impl AlertState {
    /// Lower-case name used in JSON and shell output.
    pub fn as_str(&self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        }
    }
}

/// One rule's state at health-report time.
#[derive(Debug, Clone)]
pub struct AlertSnap {
    /// Rule name.
    pub rule: String,
    /// Metric the rule reads.
    pub metric: String,
    /// Current lifecycle state.
    pub state: AlertState,
    /// Severity while firing.
    pub severity: Severity,
    /// Last observed input value (0 before the first sample).
    pub value: f64,
    /// Rule threshold.
    pub threshold: f64,
    /// Comparison direction.
    pub cmp: Cmp,
    /// Microseconds (monitor clock) when the current breach streak
    /// started; 0 while Ok.
    pub since_micros: u64,
}

/// The rules engine's verdict plus per-rule detail.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// False iff any critical rule is firing.
    pub healthy: bool,
    /// Rules currently firing (any severity).
    pub firing: usize,
    /// Every rule's state.
    pub alerts: Vec<AlertSnap>,
}

impl HealthReport {
    /// Serializes the report as the JSON document served by `/healthz`
    /// and embedded in `/statusz`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"healthy\":{},\"firing\":{},\"alerts\":[",
            self.healthy, self.firing
        );
        for (i, a) in self.alerts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"rule\":");
            push_json_string(&mut out, &a.rule);
            out.push_str(",\"metric\":");
            push_json_string(&mut out, &a.metric);
            let _ = write!(
                out,
                ",\"state\":\"{}\",\"severity\":\"{}\",\"value\":{},\"threshold\":{},\
                 \"cmp\":\"{}\",\"since_micros\":{}}}",
                a.state.as_str(),
                a.severity.as_str(),
                fmt_f64(a.value),
                fmt_f64(a.threshold),
                a.cmp.as_str(),
                a.since_micros
            );
        }
        out.push_str("]}");
        out
    }
}

/// Formats an f64 as JSON (finite, no exponent surprises for the small
/// magnitudes metrics produce).
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

struct RuleRuntime {
    rule: Rule,
    state: AlertState,
    streak: u32, // consecutive breaches (Ok/Pending) or clears (Firing)
    since_micros: u64,
    last_value: f64,
}

struct MonitorState {
    /// Latest point per series, keyed by `name{labels}`.
    series: BTreeMap<String, SamplePoint>,
    prev: Option<(u64, Snapshot)>,
    rules: Vec<RuleRuntime>,
    samples: u64,
}

struct Shared {
    registry: Registry,
    /// Live sampling interval in micros (0 = on-demand only); atomic so
    /// [`Monitor::enable_sampling`] can turn a passive monitor into a
    /// sampling one after open.
    interval_micros: AtomicU64,
    /// Bumped whenever `interval_micros` changes, so a sampler parked
    /// on the condvar can tell a reconfiguration wakeup from a spurious
    /// one and re-arm its wait with the new interval.
    interval_gen: AtomicU64,
    epoch: Instant,
    state: Mutex<MonitorState>,
    stop: Mutex<bool>,
    cv: Condvar,
    running: AtomicBool,
    samples_total: Arc<Counter>,
    process: ProcessGauges,
}

/// The monitoring subsystem: sampler thread + latest points + rules engine.
///
/// Construct with [`Monitor::start`] (spawns the sampler) or with
/// [`MonitorConfig::disabled`] (on-demand sampling only — `$metrics`,
/// `\health`, and `/healthz` each trigger a sample when none exists).
/// Dropping the monitor (or calling [`Monitor::stop`]) joins the
/// sampler thread; shutdown is prompt, not interval-quantized.
pub struct Monitor {
    shared: Arc<Shared>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("interval", &self.interval())
            .field("running", &self.is_running())
            .finish()
    }
}

impl Monitor {
    /// Creates a monitor over `registry` and, unless
    /// `config.interval` is zero, spawns the sampler thread.
    pub fn start(registry: Registry, config: MonitorConfig) -> Arc<Monitor> {
        let process = ProcessGauges::register(&registry);
        let samples_total = registry.counter(
            "mdm_monitor_samples_total",
            "registry samples taken by the monitor",
        );
        let interval_micros = config.interval.as_micros() as u64;
        let shared = Arc::new(Shared {
            registry,
            interval_micros: AtomicU64::new(interval_micros),
            interval_gen: AtomicU64::new(0),
            epoch: Instant::now(),
            state: Mutex::new(MonitorState {
                series: BTreeMap::new(),
                prev: None,
                rules: Vec::new(),
                samples: 0,
            }),
            stop: Mutex::new(false),
            cv: Condvar::new(),
            running: AtomicBool::new(false),
            samples_total,
            process,
        });
        let monitor = Arc::new(Monitor {
            shared: Arc::clone(&shared),
            thread: Mutex::new(None),
        });
        if interval_micros != 0 {
            monitor.spawn_sampler();
        }
        monitor
    }

    fn spawn_sampler(&self) {
        let mut thread = self.thread.lock().unwrap();
        if thread.is_some() {
            return;
        }
        *self.shared.stop.lock().unwrap() = false;
        self.shared.running.store(true, Ordering::SeqCst);
        let shared = Arc::clone(&self.shared);
        *thread = Some(
            std::thread::Builder::new()
                .name("mdm-monitor".to_string())
                .spawn(move || sampler_loop(shared))
                .expect("spawn monitor sampler"),
        );
    }

    /// Turns a passive (on-demand) monitor into a sampling one: sets the
    /// interval and starts the background thread if it is not already
    /// running. Servers call this at start so embedded opens stay free
    /// of background threads. A zero `interval` is ignored.
    pub fn enable_sampling(&self, interval: Duration) {
        if interval.is_zero() {
            return;
        }
        self.shared
            .interval_micros
            .store(interval.as_micros() as u64, Ordering::SeqCst);
        self.shared.interval_gen.fetch_add(1, Ordering::SeqCst);
        self.spawn_sampler();
        // Wake a sampler already parked on the old interval; the bumped
        // generation makes it re-arm with the new one immediately. The
        // notify happens under the wait's mutex so it cannot land in the
        // window between the sampler's predicate check and its sleep.
        let _guard = self.shared.stop.lock().unwrap();
        self.shared.cv.notify_all();
    }

    /// True while the background sampler thread is alive.
    pub fn is_running(&self) -> bool {
        self.shared.running.load(Ordering::SeqCst)
    }

    /// The live sampling interval (zero = on-demand only).
    pub fn interval(&self) -> Duration {
        Duration::from_micros(self.shared.interval_micros.load(Ordering::SeqCst))
    }

    /// Stops and joins the sampler thread. Idempotent; also run on drop.
    pub fn stop(&self) {
        {
            let mut stop = self.shared.stop.lock().unwrap();
            *stop = true;
            self.shared.cv.notify_all();
        }
        if let Some(t) = self.thread.lock().unwrap().take() {
            let _ = t.join();
        }
        self.shared.running.store(false, Ordering::SeqCst);
    }

    /// Takes one sample right now: refreshes process gauges, snapshots
    /// the registry, replaces every series' point, and advances the
    /// rules engine. Public so tests and on-demand readers can drive
    /// the monitor deterministically without a thread.
    pub fn sample_now(&self) {
        sample(&self.shared);
    }

    /// Samples on demand when no sample exists yet, or when no
    /// background thread is running and the last sample is over a
    /// second stale — keeps `$metrics`/`\health` meaningful in embedded
    /// sessions that never started the sampler, without perturbing
    /// rule streaks on back-to-back reads.
    fn ensure_sampled(&self) {
        let need = {
            let st = self.shared.state.lock().unwrap();
            match st.prev {
                None => true,
                Some((at, _)) => {
                    !self.is_running()
                        && self.shared.epoch.elapsed().as_micros() as u64 - at > 1_000_000
                }
            }
        };
        if need {
            self.sample_now();
        }
    }

    /// Registers a rule. Rules added after start are evaluated from the
    /// next sample on.
    pub fn add_rule(&self, rule: Rule) {
        let mut st = self.shared.state.lock().unwrap();
        if st.rules.iter().any(|r| r.rule.name == rule.name) {
            return;
        }
        st.rules.push(RuleRuntime {
            rule,
            state: AlertState::Ok,
            streak: 0,
            since_micros: 0,
            last_value: 0.0,
        });
    }

    /// Seeds the default engine-level rules every node should carry.
    pub fn seed_default_rules(&self) {
        // A poisoned WAL means commits are refused until reopen: the
        // node is not serving its purpose — critical immediately.
        self.add_rule(Rule::above("wal_poisoned", "mdm_wal_poisoned", 0.5, 1));
        // Any fsync failure rate is a disk-level emergency.
        self.add_rule(
            Rule::above("wal_fsync_failures", "mdm_wal_fsync_failures_total", 0.0, 1).rate(),
        );
        // Pool miss fraction above 90% over a window: the working set
        // fell out of cache. Advisory, not failover-worthy.
        self.add_rule(Rule {
            name: "pool_miss_fraction_high".to_string(),
            metric: "mdm_pool_misses_total".to_string(),
            input: RuleInput::RateFraction {
                other: "mdm_pool_hits_total".to_string(),
            },
            cmp: Cmp::Above,
            threshold: 0.9,
            for_samples: 3,
            severity: Severity::Warning,
        });
    }

    /// Seeds the replica-side lag rules (`lag_bytes` capped at
    /// `max_lag_bytes`, `lag_seconds` at `max_lag_seconds`), each
    /// needing 3 consecutive breaching samples — the ISSUE's
    /// `mdm_repl_lag_bytes > N for 3 samples` example.
    pub fn seed_replica_rules(&self, max_lag_bytes: f64, max_lag_seconds: f64) {
        self.add_rule(Rule::above(
            "repl_lag_bytes_high",
            "mdm_repl_lag_bytes",
            max_lag_bytes,
            3,
        ));
        self.add_rule(Rule::above(
            "repl_lag_seconds_high",
            "mdm_repl_lag_seconds",
            max_lag_seconds,
            3,
        ));
    }

    /// The rules engine's current verdict (sampling first if nothing
    /// has been sampled yet).
    pub fn health(&self) -> HealthReport {
        self.ensure_sampled();
        let st = self.shared.state.lock().unwrap();
        let alerts: Vec<AlertSnap> = st
            .rules
            .iter()
            .map(|r| AlertSnap {
                rule: r.rule.name.clone(),
                metric: r.rule.metric.clone(),
                state: r.state,
                severity: r.rule.severity,
                value: r.last_value,
                threshold: r.rule.threshold,
                cmp: r.rule.cmp,
                since_micros: r.since_micros,
            })
            .collect();
        let firing = alerts
            .iter()
            .filter(|a| a.state == AlertState::Firing)
            .count();
        let healthy = !alerts
            .iter()
            .any(|a| a.state == AlertState::Firing && a.severity == Severity::Critical);
        HealthReport {
            healthy,
            firing,
            alerts,
        }
    }

    /// Latest point per series, keyed by `name{labels}` — the `$metrics`
    /// virtual entity and `\watch` read this.
    pub fn latest(&self) -> Vec<(String, SamplePoint)> {
        self.ensure_sampled();
        let st = self.shared.state.lock().unwrap();
        st.series.iter().map(|(k, p)| (k.clone(), *p)).collect()
    }

    /// Samples taken so far (background + on-demand).
    pub fn samples_taken(&self) -> u64 {
        self.shared.state.lock().unwrap().samples
    }

    /// Microseconds since the monitor was created.
    pub fn uptime_micros(&self) -> u64 {
        self.shared.epoch.elapsed().as_micros() as u64
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        self.stop();
    }
}

fn sampler_loop(shared: Arc<Shared>) {
    loop {
        let interval =
            Duration::from_micros(shared.interval_micros.load(Ordering::SeqCst).max(1_000));
        let gen = shared.interval_gen.load(Ordering::SeqCst);
        let timed_out = {
            let stop = shared.stop.lock().unwrap();
            let (stop, wait) = shared
                .cv
                .wait_timeout_while(stop, interval, |s| {
                    !*s && shared.interval_gen.load(Ordering::SeqCst) == gen
                })
                .unwrap();
            if *stop {
                break;
            }
            wait.timed_out()
        };
        // A reconfiguration wakeup (generation bumped) skips the sample
        // and re-arms with the freshly stored interval.
        if timed_out {
            sample(&shared);
        }
    }
    shared.running.store(false, Ordering::SeqCst);
}

/// Renders a snapshot entry's series key: `name` or `name{k=v,…}`.
fn series_key(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::from(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}={v}");
    }
    out.push('}');
    out
}

fn sample(shared: &Shared) {
    shared.process.refresh();
    let snap = shared.registry.snapshot();
    let at = shared.epoch.elapsed().as_micros() as u64;
    let mut st = shared.state.lock().unwrap();
    let window = st
        .prev
        .as_ref()
        .map(|(prev_at, _)| (at.saturating_sub(*prev_at)) as f64 / 1e6);
    for e in &snap.entries {
        let key = series_key(&e.name, &e.labels);
        // The series' own previous point, found by key.
        let prev_value = st.series.get(&key).map(|p| p.value);
        let value = metric_scalar(e);
        let rate = match (prev_value, window) {
            (Some(prev), Some(dt)) if dt > 0.0 => (value - prev) / dt,
            _ => 0.0,
        };
        let (sum, p50, p99) = match &e.value {
            MetricValue::Histogram(h) => (
                h.sum as f64,
                h.quantile(0.5).unwrap_or(0.0),
                h.quantile(0.99).unwrap_or(0.0),
            ),
            _ => (0.0, 0.0, 0.0),
        };
        st.series.insert(
            key,
            SamplePoint {
                value,
                rate,
                sum,
                p50,
                p99,
            },
        );
    }
    evaluate_rules(&mut st, &snap, at, window);
    st.prev = Some((at, snap));
    st.samples += 1;
    shared.samples_total.inc();
}

/// The scalar a series tracks: counter total, gauge level, or histogram
/// observation count.
fn metric_scalar(e: &crate::registry::MetricSnap) -> f64 {
    match &e.value {
        MetricValue::Counter(v) => *v as f64,
        MetricValue::Gauge(v) => *v as f64,
        MetricValue::Histogram(h) => h.count as f64,
    }
}

/// Sum of a metric family across label sets, as a scalar.
fn family_scalar(snap: &Snapshot, name: &str) -> Option<f64> {
    let mut found = false;
    let mut total = 0.0;
    for e in snap.entries.iter().filter(|e| e.name == name) {
        found = true;
        total += metric_scalar(e);
    }
    found.then_some(total)
}

fn evaluate_rules(st: &mut MonitorState, snap: &Snapshot, at: u64, window: Option<f64>) {
    // Per-family rate over the last window, shared by RatePerSec and
    // RateFraction inputs.
    let rate_of = |name: &str| -> Option<f64> {
        let now = family_scalar(snap, name)?;
        let (_, prev_snap) = st.prev.as_ref()?;
        let prev = family_scalar(prev_snap, name)?;
        let dt = window?;
        (dt > 0.0).then(|| (now - prev) / dt)
    };
    let mut observations: Vec<Option<f64>> = Vec::with_capacity(st.rules.len());
    for r in &st.rules {
        let observed = match &r.rule.input {
            RuleInput::Value => family_scalar(snap, &r.rule.metric),
            RuleInput::RatePerSec => rate_of(&r.rule.metric),
            RuleInput::RateFraction { other } => {
                match (rate_of(&r.rule.metric), rate_of(other)) {
                    (Some(a), Some(b)) if a + b > 0.0 => Some(a / (a + b)),
                    // No events in the window: no signal, no breach.
                    _ => None,
                }
            }
        };
        observations.push(observed);
    }
    for (r, observed) in st.rules.iter_mut().zip(observations) {
        let Some(value) = observed else {
            // Metric not registered (yet) or no rate signal: leave the
            // rule untouched rather than flapping on absence.
            continue;
        };
        r.last_value = value;
        let breach = match r.rule.cmp {
            Cmp::Above => value > r.rule.threshold,
            Cmp::Below => value < r.rule.threshold,
        };
        match (r.state, breach) {
            (AlertState::Ok, true) => {
                r.since_micros = at;
                if r.rule.for_samples <= 1 {
                    r.state = AlertState::Firing;
                    r.streak = 0; // streak now counts clears
                } else {
                    r.state = AlertState::Pending;
                    r.streak = 1;
                }
            }
            (AlertState::Pending, true) => {
                r.streak += 1;
                if r.streak >= r.rule.for_samples {
                    r.state = AlertState::Firing;
                    r.streak = 0; // streak now counts clears
                }
            }
            (AlertState::Pending, false) => {
                r.state = AlertState::Ok;
                r.streak = 0;
                r.since_micros = 0;
            }
            (AlertState::Firing, true) => {
                r.streak = 0; // reset the clear streak
            }
            (AlertState::Firing, false) => {
                r.streak += 1;
                if r.streak >= r.rule.for_samples {
                    r.state = AlertState::Ok;
                    r.streak = 0;
                    r.since_micros = 0;
                }
            }
            (AlertState::Ok, false) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual_monitor(registry: &Registry) -> Arc<Monitor> {
        Monitor::start(registry.clone(), MonitorConfig::disabled())
    }

    #[test]
    fn sampler_records_values_rates_and_quantiles() {
        let r = Registry::new();
        let c = r.counter("mdm_x_total", "x");
        let g = r.gauge("mdm_g", "g");
        let h = r.histogram("mdm_h_micros", "h", &[10, 100, 1000]);
        let m = manual_monitor(&r);
        c.add(5);
        g.set(3);
        for _ in 0..10 {
            h.observe(60);
        }
        m.sample_now();
        std::thread::sleep(Duration::from_millis(5));
        c.add(10);
        m.sample_now();
        let latest: BTreeMap<String, SamplePoint> = m.latest().into_iter().collect();
        let x = latest["mdm_x_total"];
        assert_eq!(x.value, 15.0);
        assert!(
            x.rate > 0.0,
            "counter rate derived across samples: {}",
            x.rate
        );
        assert_eq!(latest["mdm_g"].value, 3.0);
        let hs = latest["mdm_h_micros"];
        assert_eq!(hs.value, 10.0);
        assert_eq!(hs.sum, 600.0);
        assert!(
            hs.p50 > 10.0 && hs.p50 <= 100.0,
            "p50 in (10,100]: {}",
            hs.p50
        );
        assert!(m.samples_taken() >= 2);
    }

    #[test]
    fn labeled_series_keys_are_distinct() {
        let r = Registry::new();
        r.counter_labeled("mdm_x_total", "x", &[("shard", "0")])
            .add(1);
        r.counter_labeled("mdm_x_total", "x", &[("shard", "1")])
            .add(2);
        let m = manual_monitor(&r);
        m.sample_now();
        let keys: Vec<String> = m.latest().into_iter().map(|(k, _)| k).collect();
        assert!(
            keys.contains(&"mdm_x_total{shard=0}".to_string()),
            "{keys:?}"
        );
        assert!(
            keys.contains(&"mdm_x_total{shard=1}".to_string()),
            "{keys:?}"
        );
    }

    #[test]
    fn background_sampler_shuts_down_cleanly() {
        let r = Registry::new();
        let m = Monitor::start(
            r.clone(),
            MonitorConfig {
                interval: Duration::from_millis(5),
            },
        );
        assert!(m.is_running());
        let deadline = Instant::now() + Duration::from_secs(5);
        while m.samples_taken() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(m.samples_taken() >= 3, "sampler ticked");
        let before_stop = Instant::now();
        m.stop();
        assert!(
            before_stop.elapsed() < Duration::from_secs(1),
            "stop joins promptly, not interval-quantized"
        );
        assert!(!m.is_running());
        let n = m.samples_taken();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(m.samples_taken(), n, "no samples after stop");
        m.stop(); // idempotent
    }

    #[test]
    fn no_sample_loss_under_concurrent_registration() {
        let r = Registry::new();
        let m = Monitor::start(
            r.clone(),
            MonitorConfig {
                interval: Duration::from_millis(1),
            },
        );
        let mut handles = Vec::new();
        for t in 0..4 {
            let reg = r.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let name = format!("mdm_dyn_{t}_{i}_total");
                    reg.counter(&name, "dynamically registered").add(1);
                    std::thread::sleep(Duration::from_micros(100));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // One final deterministic sample sees every registered metric.
        m.stop();
        m.sample_now();
        let latest = m.latest();
        let dyn_series = latest
            .iter()
            .filter(|(k, _)| k.starts_with("mdm_dyn_"))
            .count();
        assert_eq!(
            dyn_series, 200,
            "all concurrently-registered series sampled"
        );
        for (k, p) in latest.iter().filter(|(k, _)| k.starts_with("mdm_dyn_")) {
            assert_eq!(p.value, 1.0, "{k} lost its increment");
        }
    }

    #[test]
    fn enable_sampling_upgrades_a_passive_monitor() {
        let r = Registry::new();
        let m = manual_monitor(&r);
        assert!(!m.is_running(), "disabled config spawns no thread");
        m.enable_sampling(Duration::ZERO);
        assert!(!m.is_running(), "zero interval is ignored");
        m.enable_sampling(Duration::from_millis(2));
        assert!(m.is_running());
        let deadline = Instant::now() + Duration::from_secs(5);
        while m.samples_taken() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(m.samples_taken() >= 2);
        m.stop();
        assert!(!m.is_running());
    }

    #[test]
    fn enable_sampling_shortens_a_running_interval_immediately() {
        let r = Registry::new();
        let m = Monitor::start(
            r.clone(),
            MonitorConfig {
                interval: Duration::from_secs(3600),
            },
        );
        assert!(m.is_running());
        // Let the sampler park on the hour-long wait, then shorten it:
        // the wakeup must re-arm the wait, not be treated as spurious.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(m.samples_taken(), 0);
        m.enable_sampling(Duration::from_millis(2));
        let deadline = Instant::now() + Duration::from_secs(5);
        while m.samples_taken() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            m.samples_taken() >= 2,
            "shorter interval took effect without waiting out the old one"
        );
        m.stop();
    }

    #[test]
    fn rule_pending_firing_hysteresis() {
        let r = Registry::new();
        let g = r.gauge("mdm_repl_lag_bytes", "lag");
        let m = manual_monitor(&r);
        m.add_rule(Rule::above("lag_high", "mdm_repl_lag_bytes", 100.0, 3));
        let state = |m: &Monitor| m.health().alerts[0].state;
        g.set(50);
        m.sample_now();
        assert_eq!(state(&m), AlertState::Ok);
        g.set(500);
        m.sample_now();
        assert_eq!(state(&m), AlertState::Pending, "one breach is pending");
        m.sample_now();
        assert_eq!(state(&m), AlertState::Pending);
        m.sample_now();
        assert_eq!(state(&m), AlertState::Firing, "three breaches fire");
        assert!(!m.health().healthy, "critical firing flips health");
        // One healthy sample does not clear a firing alert…
        g.set(10);
        m.sample_now();
        assert_eq!(state(&m), AlertState::Firing, "hysteresis holds");
        m.sample_now();
        m.sample_now();
        assert_eq!(state(&m), AlertState::Ok, "three healthy samples clear");
        assert!(m.health().healthy);
    }

    #[test]
    fn pending_resets_on_single_recovery() {
        let r = Registry::new();
        let g = r.gauge("mdm_x", "x");
        let m = manual_monitor(&r);
        m.add_rule(Rule::above("x_high", "mdm_x", 10.0, 3));
        g.set(20);
        m.sample_now();
        assert_eq!(m.health().alerts[0].state, AlertState::Pending);
        g.set(5);
        m.sample_now();
        assert_eq!(m.health().alerts[0].state, AlertState::Ok);
        // Streak restarts from scratch on the next breach.
        g.set(20);
        m.sample_now();
        m.sample_now();
        assert_eq!(m.health().alerts[0].state, AlertState::Pending);
    }

    #[test]
    fn warning_rules_do_not_flip_health() {
        let r = Registry::new();
        let g = r.gauge("mdm_w", "w");
        let m = manual_monitor(&r);
        m.add_rule(Rule::above("w_high", "mdm_w", 1.0, 1).warning());
        g.set(5);
        m.sample_now();
        let h = m.health();
        assert_eq!(h.alerts[0].state, AlertState::Firing);
        assert_eq!(h.firing, 1);
        assert!(h.healthy, "warnings report but stay 200");
    }

    #[test]
    fn rate_rule_fires_on_derivative() {
        let r = Registry::new();
        let c = r.counter("mdm_errs_total", "errors");
        let m = manual_monitor(&r);
        m.add_rule(Rule::above("err_rate", "mdm_errs_total", 0.0, 1).rate());
        m.sample_now();
        assert_eq!(
            m.health().alerts[0].state,
            AlertState::Ok,
            "no rate on first sample"
        );
        std::thread::sleep(Duration::from_millis(5));
        c.add(100);
        m.sample_now();
        assert_eq!(m.health().alerts[0].state, AlertState::Firing);
        // Rate falls back to zero when the counter stops moving.
        std::thread::sleep(Duration::from_millis(5));
        m.sample_now();
        assert_eq!(m.health().alerts[0].state, AlertState::Ok);
    }

    #[test]
    fn rate_fraction_rule_needs_signal() {
        let r = Registry::new();
        let miss = r.counter("mdm_pool_misses_total", "m");
        let hit = r.counter("mdm_pool_hits_total", "h");
        let m = manual_monitor(&r);
        m.add_rule(Rule {
            name: "miss_frac".to_string(),
            metric: "mdm_pool_misses_total".to_string(),
            input: RuleInput::RateFraction {
                other: "mdm_pool_hits_total".to_string(),
            },
            cmp: Cmp::Above,
            threshold: 0.9,
            for_samples: 1,
            severity: Severity::Warning,
        });
        m.sample_now();
        std::thread::sleep(Duration::from_millis(2));
        m.sample_now();
        assert_eq!(
            m.health().alerts[0].state,
            AlertState::Ok,
            "no traffic, no breach"
        );
        std::thread::sleep(Duration::from_millis(2));
        miss.add(99);
        hit.add(1);
        m.sample_now();
        assert_eq!(m.health().alerts[0].state, AlertState::Firing, "99% misses");
        std::thread::sleep(Duration::from_millis(2));
        hit.add(1000);
        m.sample_now();
        assert_eq!(m.health().alerts[0].state, AlertState::Ok);
    }

    #[test]
    fn absent_metric_leaves_rule_untouched() {
        let r = Registry::new();
        let m = manual_monitor(&r);
        m.add_rule(Rule::above("ghost", "mdm_not_registered", 1.0, 1));
        m.sample_now();
        assert_eq!(m.health().alerts[0].state, AlertState::Ok);
    }

    #[test]
    fn default_rules_seed_once() {
        let r = Registry::new();
        let m = manual_monitor(&r);
        m.seed_default_rules();
        m.seed_default_rules();
        m.seed_replica_rules(1e6, 30.0);
        let h = m.health();
        assert_eq!(
            h.alerts.len(),
            5,
            "3 engine rules + 2 replica rules, deduped: {:?}",
            h.alerts.iter().map(|a| a.rule.clone()).collect::<Vec<_>>()
        );
        assert!(h.healthy);
    }

    #[test]
    fn health_report_serializes_as_json() {
        let r = Registry::new();
        let g = r.gauge("mdm_x", "x");
        g.set(3);
        let m = manual_monitor(&r);
        m.add_rule(Rule::above("x_high", "mdm_x", 1.0, 1));
        m.sample_now();
        let json = m.health().to_json();
        let doc = crate::json::parse(&json).expect("valid JSON");
        assert_eq!(doc.get("healthy").unwrap().as_bool(), Some(false));
        let alerts = doc.get("alerts").unwrap().as_array().unwrap();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].get("state").unwrap().as_str(), Some("firing"));
        assert_eq!(alerts[0].get("value").unwrap().as_u64(), Some(3));
    }
}
