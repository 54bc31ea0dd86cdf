//! Network metric families, registered into the shared `mdm-obs`
//! [`Registry`] — the same registry the storage engine and QUEL layers
//! report into, so one snapshot covers the whole server.

use std::sync::Arc;

use mdm_obs::{Counter, Gauge, Histogram, Registry, LATENCY_MICROS_BOUNDS};

/// Frame-size buckets in bytes (64 B … 16 MiB, roughly ×4 steps).
pub const FRAME_BYTES_BOUNDS: &[u64] = &[
    64, 256, 1024, 4096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304, 16_777_216,
];

/// Handles to every `mdm_net_*` metric family.
#[derive(Clone)]
pub struct NetMetrics {
    /// The registry the families live in (for per-request-type counters).
    registry: Registry,
    /// Currently open connections.
    pub connections_active: Arc<Gauge>,
    /// Connections accepted (including ones later refused as busy).
    pub connections_accepted: Arc<Counter>,
    /// Connections refused with a typed `Busy` error.
    pub connections_refused: Arc<Counter>,
    /// Frames that failed to decode (any [`DecodeError`] variant).
    ///
    /// [`DecodeError`]: crate::error::DecodeError
    pub decode_errors: Arc<Counter>,
    /// Bytes read off client sockets.
    pub bytes_in: Arc<Counter>,
    /// Bytes written to client sockets.
    pub bytes_out: Arc<Counter>,
    /// Request handling latency in microseconds.
    pub request_micros: Arc<Histogram>,
    /// Sizes of complete frames (header + payload), both directions.
    pub frame_bytes: Arc<Histogram>,
}

impl NetMetrics {
    /// Registers (or re-attaches to) the network families in `registry`.
    pub fn register(registry: &Registry) -> NetMetrics {
        NetMetrics {
            connections_active: registry.gauge(
                "mdm_net_connections_active",
                "Currently open client connections",
            ),
            connections_accepted: registry.counter(
                "mdm_net_connections_accepted_total",
                "Client connections accepted",
            ),
            connections_refused: registry.counter(
                "mdm_net_connections_refused_total",
                "Client connections refused because the server was at its limit",
            ),
            decode_errors: registry.counter(
                "mdm_net_decode_errors_total",
                "Incoming frames or payloads that failed to decode",
            ),
            bytes_in: registry.counter("mdm_net_bytes_in_total", "Bytes read from clients"),
            bytes_out: registry.counter("mdm_net_bytes_out_total", "Bytes written to clients"),
            request_micros: registry.histogram(
                "mdm_net_request_micros",
                "Request handling latency (microseconds)",
                LATENCY_MICROS_BOUNDS,
            ),
            frame_bytes: registry.histogram(
                "mdm_net_frame_bytes",
                "Complete frame sizes in bytes, both directions",
                FRAME_BYTES_BOUNDS,
            ),
            registry: registry.clone(),
        }
    }

    /// Bumps the per-message-type request counter.
    pub fn count_request(&self, type_name: &str) {
        self.registry
            .counter_labeled(
                "mdm_net_requests_total",
                "Requests served, by message type",
                &[("type", type_name)],
            )
            .inc();
    }

    /// Bumps `mdm_repl_pulls_total{replica=…}`, the puller's counter: a
    /// replica whose counter moved within the latest sampling interval
    /// is connected.
    pub fn count_pull(&self, replica_id: u64) {
        self.registry
            .counter_labeled(
                "mdm_repl_pulls_total",
                "replication pulls served, by replica id",
                &[("replica", &replica_id.to_string())],
            )
            .inc();
    }

    /// Bumps the per-code error-response counter.
    pub fn count_error_response(&self, code_name: &str) {
        self.registry
            .counter_labeled(
                "mdm_net_error_responses_total",
                "Typed error responses sent, by error code",
                &[("code", code_name)],
            )
            .inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_register_and_count() {
        let registry = Registry::new();
        let m = NetMetrics::register(&registry);
        m.connections_active.add(3);
        m.connections_accepted.inc();
        m.count_request("query");
        m.count_request("query");
        m.count_error_response("busy");
        m.request_micros.observe(250);
        m.frame_bytes.observe(100);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("mdm_net_connections_active"), Some(3));
        assert_eq!(snap.counter("mdm_net_connections_accepted_total"), Some(1));
        assert_eq!(
            snap.counter_with("mdm_net_requests_total", &[("type", "query")]),
            Some(2)
        );
        assert_eq!(
            snap.counter_with("mdm_net_error_responses_total", &[("code", "busy")]),
            Some(1)
        );
        assert_eq!(snap.histogram("mdm_net_frame_bytes").unwrap().count, 1);
    }
}
