//! The `mdm_repl_*` metric families, registered into the same
//! [`Registry`] as the storage, query, and network layers so one
//! snapshot captures the whole replica stack.

use mdm_obs::{Counter, Gauge, Registry};
use std::sync::Arc;

/// Replication metrics, shared between the pull loop and the node.
#[derive(Clone)]
pub struct ReplMetrics {
    /// The replica's applied watermark (next LSN it would append).
    pub applied_lsn: Arc<Gauge>,
    /// Estimated bytes of primary WAL not yet applied locally.
    pub lag_bytes: Arc<Gauge>,
    /// Whole seconds of primary history not yet applied locally,
    /// differenced from the primary's own batch send stamps (one
    /// clock, so primary/replica wall time never needs to agree).
    pub lag_seconds: Arc<Gauge>,
    /// Pull batches applied.
    pub batches: Arc<Counter>,
    /// WAL records applied through the stream.
    pub records: Arc<Counter>,
    /// Committed transactions whose rows were applied to the in-memory
    /// database.
    pub txns_applied: Arc<Counter>,
    /// Checkpoint markers folded (each rotates the replica's log).
    pub checkpoints: Arc<Counter>,
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
                "replica applied watermark: next LSN the local log would append",
            ),
            lag_bytes: registry.gauge(
                "mdm_repl_lag_bytes",
                "estimated bytes of primary WAL not yet applied locally",
            ),
            lag_seconds: registry.gauge(
                "mdm_repl_lag_seconds",
                "seconds of primary history not yet applied locally, from primary-clock send stamps",
            ),
            batches: registry.counter("mdm_repl_batches_total", "pull batches applied"),
            records: registry.counter(
                "mdm_repl_records_total",
                "WAL records applied through the replication stream",
            ),
            txns_applied: registry.counter(
                "mdm_repl_txns_applied_total",
                "committed transactions whose rows were applied to the in-memory database",
            ),
            checkpoints: registry.counter(
                "mdm_repl_checkpoints_total",
                "checkpoint markers folded into the replica's pages",
            ),
            promotes: registry.counter("mdm_repl_promotes_total", "successful promotions"),
            errors: registry.counter("mdm_repl_errors_total", "pull-loop errors"),
        }
    }
}
