//! Typed errors for the replication subsystem.

use mdm_core::CoreError;
use mdm_net::NetError;
use std::fmt;

/// Everything the replication subsystem can fail with.
#[derive(Debug)]
pub enum ReplError {
    /// MDM-level failure (open, applying and committing pulled rows).
    Core(CoreError),
    /// Network failure talking to the primary.
    Net(NetError),
    /// Operating-system failure outside the engine and the wire.
    Io(std::io::Error),
    /// Promotion refused: the replica has not applied everything the
    /// primary acknowledged as durable, so promoting it would silently
    /// drop acknowledged commits.
    Stale {
        /// The replica's applied watermark (a primary LSN).
        applied: u64,
        /// The primary durable watermark the replica must reach first.
        required: u64,
    },
    /// Promotion refused: the primary refused the replica's cursor as
    /// past its durable log, so the replica holds history this primary
    /// never had. The replica stopped pulling at that refusal.
    Diverged(String),
    /// A stream or configuration invariant was violated.
    Protocol(String),
}

impl fmt::Display for ReplError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplError::Core(e) => write!(f, "core: {e}"),
            ReplError::Net(e) => write!(f, "net: {e}"),
            ReplError::Io(e) => write!(f, "io: {e}"),
            ReplError::Stale { applied, required } => write!(
                f,
                "replica is stale: applied lsn {applied} < required lsn {required}; \
                 refusing promotion"
            ),
            ReplError::Diverged(msg) => write!(f, "diverged from the primary: {msg}"),
            ReplError::Protocol(msg) => write!(f, "replication protocol: {msg}"),
        }
    }
}

impl std::error::Error for ReplError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplError::Core(e) => Some(e),
            ReplError::Net(e) => Some(e),
            ReplError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ReplError {
    fn from(e: CoreError) -> ReplError {
        match e {
            CoreError::Stale { applied, required } => ReplError::Stale { applied, required },
            e => ReplError::Core(e),
        }
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
