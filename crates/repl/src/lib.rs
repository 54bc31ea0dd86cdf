//! # mdm-repl
//!
//! Replication and replica read fan-out for the music data manager.
//!
//! The paper's setting — a shared musical database serving editors,
//! analysts, and librarians at once (§3) — is read-dominated: far more
//! sessions browse scores and run analytic QUEL queries than mutate
//! them. This crate scales that read side out with one piece: a pull
//! loop over the `mdm-net` wire protocol (`ReplPull`/`ReplBatch`). The
//! stream itself — committed transactions of row changes decoded from
//! the primary's durable log, or a seed — and the replica's one write
//! path are `mdm-core`'s ([`mdm_core::stream`]).
//!
//! [`ReplicaNode`] is a full MDM server fed by that loop. It serves the
//! normal read path, refuses writes with a typed `ReadOnly` error,
//! reports its applied LSN and lag, and supports controlled failover:
//! promotion is refused until the replica has applied everything the
//! primary acknowledged as durable.
//!
//! Like the rest of the workspace, everything is `std`-only.

#![warn(missing_docs)]

pub mod error;
pub mod metrics;
pub mod replica;

pub use error::{ReplError, Result};
pub use metrics::ReplMetrics;
pub use replica::{ReplicaConfig, ReplicaNode};
