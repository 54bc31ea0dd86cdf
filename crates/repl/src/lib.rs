//! # mdm-repl
//!
//! Streaming WAL replication and replica read fan-out for the music
//! data manager.
//!
//! The paper's setting — a shared musical database serving editors,
//! analysts, and librarians at once (§3) — is read-dominated: far more
//! sessions browse scores and run analytic QUEL queries than mutate
//! them. This crate scales that read side out, layering two
//! capabilities on the storage engine's WAL and
//! the `mdm-net` wire protocol, with no new machinery below them:
//!
//! * [`replica`] — [`ReplicaNode`]: a full MDM server whose log is fed
//!   by pulling the primary's durable WAL records over the existing
//!   protocol (`ReplPull`/`ReplBatch`). It serves the normal read path,
//!   refuses writes with a typed `ReadOnly` error, reports its applied
//!   LSN and lag, and supports controlled failover: promotion is
//!   refused until the replica has applied everything the primary
//!   acknowledged as durable.
//! * [`pair`] — [`pair_crash_sweep`]: the replication torture harness —
//!   kill the primary at every I/O boundary, promote the replica, and
//!   hold the survivor to the same ledger oracle as the single-node
//!   crash sweep.
//!
//! Like the rest of the workspace, everything is `std`-only.

#![warn(missing_docs)]

pub mod error;
pub mod metrics;
pub mod pair;
pub mod replica;

pub use error::{ReplError, Result};
pub use metrics::ReplMetrics;
pub use pair::pair_crash_sweep;
pub use replica::{promote_engine, ReplicaConfig, ReplicaNode};
