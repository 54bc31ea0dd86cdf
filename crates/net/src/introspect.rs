//! System state is data, read one way: the QUEL texts the shell's
//! `\top`, `\stats`, `\watch` and `\health` run over the `$statements`,
//! `$metrics` and `$alerts` entities. The same text answers embedded
//! (`MusicDataManager::query_shared`) and over the wire
//! (`MdmClient::query`), so there is no second encoding of any of it.
//!
//! `$metrics` is the monitor's latest sample, at most one sampling
//! interval old (an embedded manager samples on demand when its last
//! sample is over a second stale).

use mdm_lang::Table;

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

/// The health verdict the rows of [`HEALTH`] add up to: no rule is both
/// `firing` and `critical` — the rule `/healthz` applies.
pub fn healthy(alerts: &Table) -> bool {
    // HEALTH projects a.state first and a.severity second.
    !alerts
        .rows
        .iter()
        .any(|r| r[0].as_str() == Some("firing") && r[1].as_str() == Some("critical"))
}
