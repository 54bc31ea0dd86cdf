//! The binary framing layer: length-prefixed frames with a magic/version
//! header, a request id, and a CRC32 payload checksum.
//!
//! ```text
//! offset  size  field
//!      0     4  magic        b"MDMN"
//!      4     2  frame format u16 LE: 1 = plain, 2 = carries the trace
//!                            extension (nothing else is accepted)
//!      6     2  message type u16 LE (see message.rs)
//!      8     8  request id   u64 LE, echoed verbatim in the response
//!                            (0 is reserved for connection-level server
//!                            errors; clients allocate ids from 1)
//!     16     4  payload len  u32 LE, at most MAX_PAYLOAD
//!     20     4  payload CRC  u32 LE, CRC-32 (IEEE) of the payload bytes
//!     24    24  trace ext    ONLY in format-2 frames: 16-byte trace id
//!                            (all-zero is invalid) + 8-byte parent span
//!                            id, u64 LE
//!      …     …  payload      message-type-specific encoding
//! ```
//!
//! The two frame formats differ only in the trace-context extension.
//! Untraced requests go out as format-1 frames, so the untraced hot path
//! never pays for the extension; responses are always format 1. The
//! frame format is not the protocol version: that is the single
//! [`PROTOCOL_VERSION`], checked once, at `Hello`.
//!
//! The decoder is *total*: every malformed input maps to a typed
//! [`DecodeError`] — wrong magic, foreign frame format, oversized frame,
//! truncation, checksum mismatch, zeroed trace id — and never panics.
//! The magic is checked before the format so a connection from an
//! entirely different protocol is distinguishable from a foreign MDM
//! peer.

use std::io::{Read, Write};

use mdm_obs::TraceContext;

use crate::error::{DecodeError, NetError, Result};

/// Frame magic: "MDMN" (music data manager / network).
pub const MAGIC: [u8; 4] = *b"MDMN";

/// The one protocol version this build speaks. A `Hello` (or
/// `HelloAck`) carrying any other is refused; nothing is negotiated.
pub use mdm_core::WIRE_PROTOCOL_VERSION as PROTOCOL_VERSION;

/// Frame format without the trace-context extension.
const FRAME_PLAIN: u16 = 1;

/// Frame format carrying the trace-context extension.
const FRAME_TRACED: u16 = 2;

/// Size of the trace-context extension (trace id + parent span id).
pub const TRACE_EXT_LEN: usize = 24;

/// Hard cap on payload size (16 MiB): larger declared lengths are
/// rejected *before* any allocation, so a hostile header cannot balloon
/// server memory.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 24;

// ----------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven, computed at first use
// ----------------------------------------------------------------------

fn crc32_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        table
    })
}

/// CRC-32 (IEEE) of `bytes` — the frame payload checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc32_table();
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ----------------------------------------------------------------------
// Frame header
// ----------------------------------------------------------------------

/// A decoded frame header (plus the trace extension, when present).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame format (1, or 2 when a trace extension follows).
    pub version: u16,
    /// Message type tag.
    pub msg_type: u16,
    /// Request id (echoed in the response).
    pub request_id: u64,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// CRC-32 of the payload.
    pub payload_crc: u32,
    /// Trace context from the extension; `None` on format-1 frames.
    pub trace: Option<TraceContext>,
}

/// Encodes a complete untraced frame (header + payload) into a fresh buffer.
pub fn encode_frame(msg_type: u16, request_id: u64, payload: &[u8]) -> Result<Vec<u8>> {
    encode_frame_traced(msg_type, request_id, payload, None)
}

/// Encodes a complete frame; with `trace` set, emits a format-2 frame
/// carrying the trace-context extension between header and payload.
pub fn encode_frame_traced(
    msg_type: u16,
    request_id: u64,
    payload: &[u8],
    trace: Option<TraceContext>,
) -> Result<Vec<u8>> {
    if payload.len() as u64 > MAX_PAYLOAD as u64 {
        return Err(DecodeError::FrameTooLarge(payload.len() as u64).into());
    }
    if matches!(trace, Some(ctx) if !ctx.is_valid()) {
        return Err(DecodeError::BadTraceContext.into());
    }
    let (version, ext) = match trace {
        Some(_) => (FRAME_TRACED, TRACE_EXT_LEN),
        None => (FRAME_PLAIN, 0),
    };
    let mut out = Vec::with_capacity(HEADER_LEN + ext + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&msg_type.to_le_bytes());
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    if let Some(ctx) = trace {
        out.extend_from_slice(&ctx.trace_id);
        out.extend_from_slice(&ctx.parent_span.to_le_bytes());
    }
    out.extend_from_slice(payload);
    Ok(out)
}

/// Parses a frame header from exactly [`HEADER_LEN`] bytes. On a format-2
/// header the trace extension still follows on the stream; `trace` is
/// `None` until [`decode_trace_ext`] fills it in.
pub fn decode_header(buf: &[u8; HEADER_LEN]) -> std::result::Result<FrameHeader, DecodeError> {
    if buf[0..4] != MAGIC {
        return Err(DecodeError::BadMagic([buf[0], buf[1], buf[2], buf[3]]));
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != FRAME_PLAIN && version != FRAME_TRACED {
        return Err(DecodeError::VersionMismatch { got: version });
    }
    let msg_type = u16::from_le_bytes([buf[6], buf[7]]);
    let request_id = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    let payload_len = u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes"));
    let payload_crc = u32::from_le_bytes(buf[20..24].try_into().expect("4 bytes"));
    if payload_len > MAX_PAYLOAD {
        return Err(DecodeError::FrameTooLarge(payload_len as u64));
    }
    Ok(FrameHeader {
        version,
        msg_type,
        request_id,
        payload_len,
        payload_crc,
        trace: None,
    })
}

/// Parses the trace-context extension. The all-zero trace id is the
/// invalid sentinel — a peer that sends it gets a typed error rather
/// than silently originating a bogus trace.
pub fn decode_trace_ext(
    buf: &[u8; TRACE_EXT_LEN],
) -> std::result::Result<TraceContext, DecodeError> {
    let mut trace_id = [0u8; 16];
    trace_id.copy_from_slice(&buf[..16]);
    let parent_span = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));
    let ctx = TraceContext {
        trace_id,
        parent_span,
    };
    if !ctx.is_valid() {
        return Err(DecodeError::BadTraceContext);
    }
    Ok(ctx)
}

/// Reads one frame (header, optional trace extension, then a
/// checksum-verified payload) from a stream. Returns the header (with
/// `trace` populated for format-2 frames) and the raw payload bytes; the
/// caller decodes the payload per `msg_type`.
pub fn read_frame<R: Read>(r: &mut R) -> Result<(FrameHeader, Vec<u8>)> {
    let mut head = [0u8; HEADER_LEN];
    r.read_exact(&mut head)?;
    let mut header = decode_header(&head).map_err(NetError::Decode)?;
    if header.version == FRAME_TRACED {
        let mut ext = [0u8; TRACE_EXT_LEN];
        r.read_exact(&mut ext)?;
        header.trace = Some(decode_trace_ext(&ext).map_err(NetError::Decode)?);
    }
    let mut payload = vec![0u8; header.payload_len as usize];
    r.read_exact(&mut payload)?;
    let actual = crc32(&payload);
    if actual != header.payload_crc {
        return Err(DecodeError::ChecksumMismatch {
            expected: header.payload_crc,
            actual,
        }
        .into());
    }
    Ok((header, payload))
}

/// Writes a complete untraced frame to a stream.
pub fn write_frame<W: Write>(
    w: &mut W,
    msg_type: u16,
    request_id: u64,
    payload: &[u8],
) -> Result<usize> {
    write_frame_traced(w, msg_type, request_id, payload, None)
}

/// Writes a complete frame, with the trace extension if `trace` is set.
pub fn write_frame_traced<W: Write>(
    w: &mut W,
    msg_type: u16,
    request_id: u64,
    payload: &[u8],
    trace: Option<TraceContext>,
) -> Result<usize> {
    let frame = encode_frame_traced(msg_type, request_id, payload, trace)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(frame.len())
}

/// The payload reader, under the name older callers know.
pub use mdm_obs::codec::Reader as Cursor;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn frame_roundtrip() {
        let frame = encode_frame(7, 42, b"hello").unwrap();
        let (header, payload) = read_frame(&mut frame.as_slice()).unwrap();
        assert_eq!(header.msg_type, 7);
        assert_eq!(header.request_id, 42);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn traced_frame_roundtrip() {
        let ctx = TraceContext {
            trace_id: [0xAB; 16],
            parent_span: 777,
        };
        let frame = encode_frame_traced(3, 9, b"payload", Some(ctx)).unwrap();
        assert_eq!(u16::from_le_bytes([frame[4], frame[5]]), 2);
        assert_eq!(frame.len(), HEADER_LEN + TRACE_EXT_LEN + 7);
        let (header, payload) = read_frame(&mut frame.as_slice()).unwrap();
        assert_eq!(header.version, 2);
        assert_eq!(header.trace, Some(ctx));
        assert_eq!(payload, b"payload");
    }

    #[test]
    fn zeroed_trace_id_is_typed_error() {
        let ctx = TraceContext {
            trace_id: [0xAB; 16],
            parent_span: 1,
        };
        let mut frame = encode_frame_traced(3, 9, b"x", Some(ctx)).unwrap();
        frame[HEADER_LEN..HEADER_LEN + 16].fill(0);
        let err = read_frame(&mut frame.as_slice()).unwrap_err();
        assert!(
            matches!(err, NetError::Decode(DecodeError::BadTraceContext)),
            "{err}"
        );
        // And the encoder refuses to originate one.
        let zero = TraceContext {
            trace_id: [0u8; 16],
            parent_span: 1,
        };
        assert!(encode_frame_traced(3, 9, b"x", Some(zero)).is_err());
    }

    #[test]
    fn truncated_trace_ext_is_connection_closed_not_hang() {
        let ctx = TraceContext {
            trace_id: [1; 16],
            parent_span: 2,
        };
        let frame = encode_frame_traced(3, 9, b"x", Some(ctx)).unwrap();
        let err = read_frame(&mut frame[..HEADER_LEN + 10].as_ref()).unwrap_err();
        assert!(matches!(err, NetError::ConnectionClosed), "{err:?}");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = encode_frame(1, 1, b"x").unwrap();
        frame[0] = b'X';
        let err = read_frame(&mut frame.as_slice()).unwrap_err();
        assert!(
            matches!(err, NetError::Decode(DecodeError::BadMagic(_))),
            "{err}"
        );
    }

    #[test]
    fn wrong_version_rejected() {
        let mut frame = encode_frame(1, 1, b"x").unwrap();
        frame[4] = 99;
        let err = read_frame(&mut frame.as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                NetError::Decode(DecodeError::VersionMismatch { got: 99 })
            ),
            "{err}"
        );
    }

    #[test]
    fn corrupt_payload_caught_by_checksum() {
        let mut frame = encode_frame(1, 1, b"payload bytes").unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0x40; // single bit flip
        let err = read_frame(&mut frame.as_slice()).unwrap_err();
        assert!(
            matches!(err, NetError::Decode(DecodeError::ChecksumMismatch { .. })),
            "{err}"
        );
    }

    #[test]
    fn oversized_declared_length_rejected_before_allocation() {
        let mut frame = encode_frame(1, 1, b"x").unwrap();
        frame[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut frame.as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                NetError::Decode(DecodeError::FrameTooLarge(n)) if n == u32::MAX as u64
            ),
            "{err}"
        );
    }

    #[test]
    fn truncated_stream_is_connection_closed() {
        let frame = encode_frame(1, 1, b"hello world").unwrap();
        let err = read_frame(&mut frame[..frame.len() - 3].as_ref()).unwrap_err();
        assert!(matches!(err, NetError::ConnectionClosed), "{err:?}");
    }
}
