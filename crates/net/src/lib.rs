//! # mdm-net
//!
//! The wire protocol and TCP client/server subsystem: what turns the
//! music data manager from an embedded library into a server that
//! multiple concurrent music clients — editors, analysts, librarians
//! (§3 of the paper) — can share over a network.
//!
//! * [`wire`] — length-prefixed binary frames with a magic/version
//!   header, request ids, and CRC-32 payload checksums; a *total*
//!   decoder that maps every malformed input to a typed error.
//! * [`message`] — the typed request/response vocabulary (QUEL queries,
//!   score transfer, tracing, replication, liveness).
//! * [`introspect`] — the QUEL texts over `$statements` / `$metrics` /
//!   `$alerts` that are the only way system state crosses the wire.
//! * [`scorecodec`] — a validating binary codec for full scores.
//! * [`server`] — [`MdmServer`]: thread-per-connection serving over one
//!   shared manager, with connection limits, idle reaping, per-request
//!   panic isolation, and graceful draining shutdown.
//! * [`client`] — [`MdmClient`]: blocking client with connect
//!   retry/backoff, request timeouts, and auto-reconnect.
//! * [`http`] — [`HttpServer`]: a hand-rolled HTTP/1.1 observability
//!   endpoint (`/metrics`, `/healthz`, `/statusz`, `/tracez`) for
//!   scrapers and load-balancer probes.
//! * [`metrics`] — the `mdm_net_*` families, registered into the same
//!   `mdm-obs` registry as the storage and query layers.
//!
//! Everything is built on `std` alone — no external dependencies, in
//! keeping with the rest of the workspace.

#![warn(missing_docs)]

mod accept;
pub mod client;
pub mod error;
pub mod http;
pub mod introspect;
pub mod message;
pub mod metrics;
pub mod scorecodec;
pub mod server;
pub mod wire;

pub use client::{ClientConfig, MdmClient};
pub use error::{DecodeError, ErrorCode, NetError, Result};
pub use http::{HttpServer, HttpState};
pub use message::{Message, TraceOp};
pub use metrics::NetMetrics;
pub use server::{MdmServer, ServerConfig};
pub use wire::{MAX_PAYLOAD, PROTOCOL_VERSION, TRACE_EXT_LEN};
