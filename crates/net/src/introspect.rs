//! System state is data, read one way: the QUEL texts the shell's
//! `\top`, `\stats`, `\watch`, `\health` and `\replica status` run over
//! the `$statements`, `$metrics` and `$alerts` entities. The same text answers embedded
//! (`MusicDataManager::query_shared`) and over the wire
//! (`MdmClient::query`), so there is no second encoding of any of it.
//!
//! `$metrics` is the monitor's latest sample, at most one sampling
//! interval old (an embedded manager samples on demand when its last
//! sample is over a second stale).

use mdm_lang::Table;
use mdm_model::Value;

/// `\top`: statement fingerprints, hottest (by total time) first.
pub const TOP: &str = "range of s is $statements\n\
    retrieve (s.fingerprint, s.calls, s.total_micros, s.p50_micros, s.p99_micros, \
    s.rows_returned, s.rows_scanned) sort by s.total_micros desc";

/// `\stats`: every metric series (histograms: `value` is the count).
pub const STATS: &str = "range of m is $metrics\n\
    retrieve (m.name, m.value, m.rate, m.sum, m.p50, m.p99)";

/// `\health`: every alert rule's state.
pub const HEALTH: &str = "range of a is $alerts\n\
    retrieve (a.state, a.severity, a.rule, a.metric, a.value, a.cmp, a.threshold)";

/// `\replica status`: the replication series — the role, the applied
/// watermark, the lag, one `mdm_repl_pulls_total{replica=…}` counter per
/// replica that ever pulled — and the log's next and durable LSNs.
pub const REPLICA_STATUS: &str = "range of m is $metrics\n\
    retrieve (m.name, m.value, m.rate) where m.name = \"mdm_wal_next_lsn\" \
    or m.name = \"mdm_wal_durable_lsn\" or (m.name >= \"mdm_repl_\" and m.name < \"mdm_repl_~\")";

/// A QUEL string literal for `s`.
fn literal(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The qualification "`m.name` starts with `prefix`", as the string
/// range QUEL can express: `~` sorts after every character a series key
/// (`name{label=value,…}`) is made of.
fn starts_with(prefix: &str) -> String {
    format!(
        "m.name >= {} and m.name < {}",
        literal(prefix),
        literal(&format!("{prefix}~"))
    )
}

/// `\stats PREFIX` and `\stats delta PREFIX`: [`STATS`] restricted to
/// series whose key starts with `prefix` (empty keeps everything).
pub fn stats(prefix: &str) -> String {
    if prefix.is_empty() {
        STATS.to_string()
    } else {
        format!("{STATS} where {}", starts_with(prefix))
    }
}

/// `\watch METRIC`: one metric family's value and per-second rate,
/// summed across its label sets; `series` is 0 for an unknown family.
pub fn watch(metric: &str) -> String {
    format!(
        "range of m is $metrics\n\
         retrieve (value = sum(m.value), rate = sum(m.rate), series = count(m.name)) \
         where m.name = {} or ({})",
        literal(metric),
        starts_with(&format!("{metric}{{"))
    )
}

/// What the rows of [`REPLICA_STATUS`] add up to, as the one-row table
/// `\replica status` prints and `/statusz` serves:
///
/// * `role` — `primary` or `replica`;
/// * `applied_lsn`, `durable_lsn` — on a primary its log's next and
///   durable LSNs, on a replica its watermark twice (it is committed
///   with the rows it covers);
/// * `lag_bytes` — on a replica, bytes of primary log not yet applied;
/// * `replicas` — on a primary, the replicas whose pull counter moved
///   within the latest sampling interval.
pub fn replica_summary(series: &Table) -> Table {
    let value = |name: &str| {
        (series.rows.iter())
            .find(|r| r[0].as_str() == Some(name))
            .and_then(|r| r[1].as_float())
            .unwrap_or(0.0) as i64
    };
    let pulling = (series.rows.iter())
        .filter(|r| {
            r[0].as_str()
                .is_some_and(|n| n.starts_with("mdm_repl_pulls_total{"))
        })
        .filter(|r| r[2].as_float().is_some_and(|rate| rate > 0.0))
        .count() as i64;
    let (role, applied, durable, lag, replicas) = if value("mdm_repl_role") == 1 {
        let watermark = value("mdm_repl_applied_lsn");
        let lag = value("mdm_repl_lag_bytes");
        ("replica", watermark, watermark, lag, 0)
    } else {
        let (next, durable) = (value("mdm_wal_next_lsn"), value("mdm_wal_durable_lsn"));
        ("primary", next, durable, 0, pulling)
    };
    Table {
        columns: [
            "role",
            "applied_lsn",
            "durable_lsn",
            "lag_bytes",
            "replicas",
        ]
        .map(String::from)
        .to_vec(),
        rows: vec![vec![
            Value::String(role.into()),
            Value::Integer(applied),
            Value::Integer(durable),
            Value::Integer(lag),
            Value::Integer(replicas),
        ]],
    }
}

/// The health verdict the rows of [`HEALTH`] add up to: no rule is both
/// `firing` and `critical` — the rule `/healthz` applies.
pub fn healthy(alerts: &Table) -> bool {
    // HEALTH projects a.state first and a.severity second.
    !alerts
        .rows
        .iter()
        .any(|r| r[0].as_str() == Some("firing") && r[1].as_str() == Some("critical"))
}
