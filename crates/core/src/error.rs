//! Error type for the music data manager.

use std::fmt;

/// Errors surfaced by the MDM facade and its clients.
#[derive(Debug)]
pub enum CoreError {
    /// From the storage engine.
    Storage(mdm_storage::StorageError),
    /// From the data model.
    Model(mdm_model::ModelError),
    /// From the query language.
    Lang(mdm_lang::LangError),
    /// From DARMS encoding/decoding.
    Darms(mdm_darms::DarmsError),
    /// The requested score does not exist in the database.
    NoSuchScore(String),
    /// Stored entities could not be mapped back to notation.
    BadScoreData(String),
    /// Internal invariant violated.
    Internal(String),
    /// A write reached a replica: writes must go to the primary.
    ReadOnly,
    /// A replication call reached a node that is not a replica.
    NotReplica,
    /// Promotion refused: the replica has not applied everything the
    /// primary acknowledged as durable, so promoting it would drop
    /// acknowledged commits.
    Stale {
        /// The replica's watermark.
        applied: u64,
        /// The primary durable watermark it must reach first.
        required: u64,
    },
    /// A pull's cursor is no point of the primary's history — past its
    /// durable watermark, or inside a transaction: the replica holds
    /// history this primary never had.
    Diverged {
        /// The replica's cursor.
        from: u64,
        /// The primary's durable watermark.
        durable: u64,
    },
    /// A replica's model could not take a committed transaction of the
    /// stream. No retry mends that, and skipping it would serve a
    /// history the primary never had.
    Unapplied {
        /// The primary LSN of the transaction's `Commit` record.
        lsn: u64,
        /// Why its rows did not apply.
        source: Box<CoreError>,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Storage(e) => write!(f, "storage: {e}"),
            CoreError::Model(e) => write!(f, "model: {e}"),
            CoreError::Lang(e) => write!(f, "language: {e}"),
            CoreError::Darms(e) => write!(f, "darms: {e}"),
            CoreError::NoSuchScore(t) => write!(f, "no such score: {t}"),
            CoreError::BadScoreData(m) => write!(f, "bad score data: {m}"),
            CoreError::Internal(m) => write!(f, "internal error: {m}"),
            CoreError::ReadOnly => {
                write!(f, "this node is a replica; writes must go to the primary")
            }
            CoreError::NotReplica => write!(f, "this node is not a replica"),
            CoreError::Stale { applied, required } => write!(
                f,
                "replica is stale: applied lsn {applied} < required lsn {required}; \
                 refusing promotion"
            ),
            CoreError::Diverged { from, durable } => write!(
                f,
                "diverged: lsn {from} is no point of this primary's history \
                 (durable lsn {durable})"
            ),
            CoreError::Unapplied { lsn, source } => write!(
                f,
                "committed transaction at lsn {lsn} cannot be applied: {source}"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Storage(e) => Some(e),
            CoreError::Model(e) => Some(e),
            CoreError::Lang(e) => Some(e),
            CoreError::Darms(e) => Some(e),
            CoreError::Unapplied { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<mdm_storage::StorageError> for CoreError {
    fn from(e: mdm_storage::StorageError) -> Self {
        CoreError::Storage(e)
    }
}

impl From<mdm_model::ModelError> for CoreError {
    fn from(e: mdm_model::ModelError) -> Self {
        CoreError::Model(e)
    }
}

impl From<mdm_lang::LangError> for CoreError {
    fn from(e: mdm_lang::LangError) -> Self {
        CoreError::Lang(e)
    }
}

impl From<mdm_darms::DarmsError> for CoreError {
    fn from(e: mdm_darms::DarmsError) -> Self {
        CoreError::Darms(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
