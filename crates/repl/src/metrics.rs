//! The `mdm_repl_*` metric families, registered into the same
//! [`Registry`] as the storage, query, and network layers so one
//! snapshot captures the whole replica stack.

use mdm_obs::{Counter, Gauge, Registry};
use std::sync::Arc;

/// Replication metrics, shared between the pull loop and the node.
#[derive(Clone)]
pub struct ReplMetrics {
    /// The replica's applied watermark: the primary LSN through which it
    /// holds every committed transaction. Read only: the manager registers
    /// the same series and sets it where it commits the watermark.
    pub applied_lsn: Arc<Gauge>,
    /// Estimated bytes of primary log not yet applied locally.
    pub lag_bytes: Arc<Gauge>,
    /// Whole seconds of primary history not yet applied locally,
    /// differenced from the primary's own batch send stamps (one
    /// clock, so primary/replica wall time never needs to agree).
    pub lag_seconds: Arc<Gauge>,
    /// Pull batches applied.
    pub batches: Arc<Counter>,
    /// Primary log records the stream carried the replica past.
    pub records: Arc<Counter>,
    /// Committed transactions applied and committed locally.
    pub txns_applied: Arc<Counter>,
    /// Seeds installed (each replaces the replica's image).
    pub seeds: Arc<Counter>,
    /// Successful promotions to primary.
    pub promotes: Arc<Counter>,
    /// Pull-loop errors (connect failures, pull failures, apply failures).
    pub errors: Arc<Counter>,
}

impl ReplMetrics {
    /// Registers (or re-attaches to) the families in `registry`.
    pub fn register(registry: &Registry) -> ReplMetrics {
        ReplMetrics {
            applied_lsn: registry.gauge(
                "mdm_repl_applied_lsn",
                "replica applied watermark: the primary LSN through which it holds every commit",
            ),
            lag_bytes: registry.gauge(
                "mdm_repl_lag_bytes",
                "estimated bytes of primary log not yet applied locally",
            ),
            lag_seconds: registry.gauge(
                "mdm_repl_lag_seconds",
                "seconds of primary history not yet applied locally, from primary-clock send stamps",
            ),
            batches: registry.counter("mdm_repl_batches_total", "pull batches applied"),
            records: registry.counter(
                "mdm_repl_records_total",
                "primary log records the replication stream carried the replica past",
            ),
            txns_applied: registry.counter(
                "mdm_repl_txns_applied_total",
                "committed transactions applied and committed locally",
            ),
            seeds: registry.counter("mdm_repl_seeds_total", "seeds installed"),
            promotes: registry.counter("mdm_repl_promotes_total", "successful promotions"),
            errors: registry.counter("mdm_repl_errors_total", "pull-loop errors"),
        }
    }
}
