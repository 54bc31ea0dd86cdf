//! Typed errors for the replication subsystem.

use mdm_core::CoreError;
use mdm_net::NetError;
use mdm_storage::StorageError;
use std::fmt;

/// Everything the replication subsystem can fail with.
#[derive(Debug)]
pub enum ReplError {
    /// Storage-engine failure (WAL streaming, apply, fold).
    Storage(StorageError),
    /// MDM-level failure (applying replicated rows, bootstrap load).
    Core(CoreError),
    /// Network failure talking to the primary.
    Net(NetError),
    /// Operating-system failure outside the engine and the wire.
    Io(std::io::Error),
    /// Promotion refused: the replica has not applied everything the
    /// primary acknowledged as durable, so promoting it would silently
    /// drop acknowledged commits.
    Stale {
        /// The replica's applied watermark (next LSN it would append).
        applied: u64,
        /// The primary durable watermark the replica must reach first.
        required: u64,
    },
    /// A stream or configuration invariant was violated.
    Protocol(String),
    /// The in-memory database could not take a committed transaction
    /// of the stream. No retry mends that, and skipping it would serve a
    /// history the primary never had, so the replica stops at it.
    Unapplied {
        /// LSN of the transaction's `Commit` record.
        lsn: u64,
        /// Why the rows did not apply.
        source: CoreError,
    },
}

impl fmt::Display for ReplError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplError::Storage(e) => write!(f, "storage: {e}"),
            ReplError::Core(e) => write!(f, "core: {e}"),
            ReplError::Net(e) => write!(f, "net: {e}"),
            ReplError::Io(e) => write!(f, "io: {e}"),
            ReplError::Stale { applied, required } => write!(
                f,
                "replica is stale: applied lsn {applied} < required lsn {required}; \
                 refusing promotion"
            ),
            ReplError::Protocol(msg) => write!(f, "replication protocol: {msg}"),
            ReplError::Unapplied { lsn, source } => write!(
                f,
                "committed transaction at lsn {lsn} cannot be applied: {source}"
            ),
        }
    }
}

impl std::error::Error for ReplError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplError::Storage(e) => Some(e),
            ReplError::Core(e) | ReplError::Unapplied { source: e, .. } => Some(e),
            ReplError::Net(e) => Some(e),
            ReplError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for ReplError {
    fn from(e: StorageError) -> ReplError {
        ReplError::Storage(e)
    }
}

impl From<CoreError> for ReplError {
    fn from(e: CoreError) -> ReplError {
        ReplError::Core(e)
    }
}

impl From<NetError> for ReplError {
    fn from(e: NetError) -> ReplError {
        ReplError::Net(e)
    }
}

impl From<std::io::Error> for ReplError {
    fn from(e: std::io::Error) -> ReplError {
        ReplError::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ReplError>;
