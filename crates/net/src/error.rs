//! Error types for the network subsystem.
//!
//! Two layers: [`DecodeError`] is the closed set of ways a byte stream
//! can fail to parse (every variant is reachable from malformed input,
//! none panics), and [`NetError`] is everything a client or server
//! operation can surface — decode failures, I/O, timeouts, and typed
//! errors relayed from the remote side as [`ErrorCode`]s.

use std::fmt;
use std::io;

use crate::wire::{MAX_PAYLOAD, PROTOCOL_VERSION};

/// The ways an incoming frame or payload can fail to decode. The decoder
/// is total: any byte sequence yields either a message or one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The frame did not start with the protocol magic.
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version (a foreign
    /// `HelloAck`) or sent an unknown frame format.
    VersionMismatch {
        /// Version advertised by the peer.
        got: u16,
    },
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    FrameTooLarge(u64),
    /// The stream ended inside a frame or a payload field.
    Truncated,
    /// The payload checksum did not match (corruption in flight).
    ChecksumMismatch {
        /// CRC32 the header promised.
        expected: u32,
        /// CRC32 of the bytes that arrived.
        actual: u32,
    },
    /// Unknown message type tag.
    BadMessageType(u16),
    /// The payload parsed but violated a message invariant.
    BadPayload(String),
    /// A v2 frame carried a malformed trace-context extension (the
    /// all-zero trace id is reserved as invalid).
    BadTraceContext,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            DecodeError::VersionMismatch { got } => {
                write!(
                    f,
                    "foreign version {got} (this side speaks protocol {PROTOCOL_VERSION}, frame formats 1 and 2)",
                )
            }
            DecodeError::FrameTooLarge(n) => {
                write!(
                    f,
                    "declared payload of {n} bytes exceeds the {MAX_PAYLOAD}-byte cap"
                )
            }
            DecodeError::Truncated => write!(f, "frame truncated"),
            DecodeError::ChecksumMismatch { expected, actual } => write!(
                f,
                "payload checksum mismatch (header {expected:#010x}, computed {actual:#010x})"
            ),
            DecodeError::BadMessageType(t) => write!(f, "unknown message type {t}"),
            DecodeError::BadPayload(m) => write!(f, "bad payload: {m}"),
            DecodeError::BadTraceContext => {
                write!(f, "malformed trace-context extension (all-zero trace id)")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<mdm_obs::codec::Error> for DecodeError {
    fn from(e: mdm_obs::codec::Error) -> Self {
        match e {
            mdm_obs::codec::Error::Truncated => DecodeError::Truncated,
            e => DecodeError::BadPayload(e.to_string()),
        }
    }
}

/// Error classes a server can put on the wire. The numeric values are
/// part of the protocol: never reuse one for a different meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The server is at its connection limit; try again later.
    Busy = 1,
    /// The request was malformed or violated the protocol.
    BadRequest = 2,
    /// The requested score (or other object) does not exist.
    NotFound = 3,
    /// The QUEL program failed to parse, analyze, or evaluate.
    Query = 4,
    /// The storage layer failed (I/O, corruption).
    Storage = 5,
    /// The request decoded but the score data inside was invalid.
    BadScoreData = 6,
    /// The server hit an internal invariant violation (or a handler
    /// panicked — panics are isolated per session and reported here).
    Internal = 7,
    /// The server is shutting down and not accepting new requests.
    ShuttingDown = 8,
    /// The node is a replica: writes must go to the primary.
    ReadOnly = 9,
    /// A replica pulled from past the primary's durable log: it holds
    /// history this primary never had.
    Diverged = 10,
}

impl ErrorCode {
    /// Decodes the wire value.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Busy,
            2 => ErrorCode::BadRequest,
            3 => ErrorCode::NotFound,
            4 => ErrorCode::Query,
            5 => ErrorCode::Storage,
            6 => ErrorCode::BadScoreData,
            7 => ErrorCode::Internal,
            8 => ErrorCode::ShuttingDown,
            9 => ErrorCode::ReadOnly,
            10 => ErrorCode::Diverged,
            _ => return None,
        })
    }

    /// Stable lower-case name, used as a metric label value.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Busy => "busy",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::NotFound => "not_found",
            ErrorCode::Query => "query",
            ErrorCode::Storage => "storage",
            ErrorCode::BadScoreData => "bad_score_data",
            ErrorCode::Internal => "internal",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::ReadOnly => "read_only",
            ErrorCode::Diverged => "diverged",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything a network operation can surface.
#[derive(Debug)]
pub enum NetError {
    /// An underlying socket failure.
    Io(io::Error),
    /// The incoming byte stream failed to decode.
    Decode(DecodeError),
    /// The peer closed the connection mid-exchange.
    ConnectionClosed,
    /// No response arrived within the request timeout.
    Timeout,
    /// A response arrived carrying a request id we never sent.
    MisroutedResponse {
        /// Id we were waiting for.
        expected: u64,
        /// Id that arrived.
        got: u64,
    },
    /// The peer answered with an unexpected message type (e.g. rows in
    /// reply to a ping).
    UnexpectedResponse(&'static str),
    /// The remote side reported a typed error.
    Remote {
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Decode(e) => write!(f, "decode: {e}"),
            NetError::ConnectionClosed => write!(f, "connection closed by peer"),
            NetError::Timeout => write!(f, "request timed out"),
            NetError::MisroutedResponse { expected, got } => {
                write!(
                    f,
                    "misrouted response: expected request id {expected}, got {got}"
                )
            }
            NetError::UnexpectedResponse(what) => {
                write!(f, "unexpected response message: {what}")
            }
            NetError::Remote { code, message } => write!(f, "remote error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        // A read timeout surfaces as WouldBlock (unix) or TimedOut; both
        // mean "the deadline passed", which callers match on as Timeout.
        if matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ) {
            NetError::Timeout
        } else if e.kind() == io::ErrorKind::UnexpectedEof {
            NetError::ConnectionClosed
        } else {
            NetError::Io(e)
        }
    }
}

impl From<DecodeError> for NetError {
    fn from(e: DecodeError) -> Self {
        NetError::Decode(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, NetError>;
