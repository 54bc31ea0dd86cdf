//! A hand-rolled HTTP/1.1 observability endpoint, `std`-only like the
//! rest of the workspace: enough of the protocol for scrapers, load
//! balancers, and `curl` — never a general web server.
//!
//! Four read-only routes:
//!
//! * `GET /metrics` — the full registry in Prometheus text format.
//! * `GET /healthz` — `200` when no critical alert rule is firing,
//!   `503` otherwise; the body is the health report JSON either way,
//!   so probes and humans read the same document.
//! * `GET /statusz` — a JSON status page supplied by the embedding
//!   node (build info, role, watermarks, uptime, alert states).
//! * `GET /tracez` — recent and slow span trees as plain text.
//!
//! One thread per connection, bounded request size, short socket
//! timeouts, `Connection: close` on every response: a stuck scraper
//! can delay only its own probe, never wedge the endpoint. The accept
//! loop and handler-thread registry are the crate's shared `accept`
//! module; shutdown joins every handler thread, so the embedder's
//! state (captured by the status closure) is released deterministically.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use mdm_obs::{Monitor, Registry, Tracer};

use crate::accept::Acceptor;
use crate::error::Result;

/// Largest accepted request head (request line + headers). Anything
/// longer is answered `431` and closed before buffering more.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Per-connection socket read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Traces shown by `/tracez` per section (recent, slow).
const TRACEZ_LIMIT: usize = 16;

/// What the endpoint serves: the observability surfaces of one node.
pub struct HttpState {
    /// Metric registry behind `/metrics`.
    pub registry: Registry,
    /// Monitor behind `/healthz` (and the alert states in `/statusz`).
    pub monitor: Arc<Monitor>,
    /// Tracer behind `/tracez`.
    pub tracer: Tracer,
    /// Produces the `/statusz` JSON document. Supplied by the embedding
    /// node, which knows its role, watermarks, and connection counts.
    pub status_json: Arc<dyn Fn() -> String + Send + Sync>,
}

/// A running observability endpoint. Stop it with
/// [`HttpServer::shutdown`]; dropping without shutdown stops accepting
/// but does not wait for handlers in flight.
pub struct HttpServer {
    acceptor: Acceptor,
}

impl HttpServer {
    /// Binds `addr` and starts serving `state`. Pass port 0 to let the
    /// OS pick (see [`HttpServer::local_addr`]).
    pub fn start<A: ToSocketAddrs>(addr: A, state: HttpState) -> Result<HttpServer> {
        let state = Arc::new(state);
        let acceptor = Acceptor::start(addr, "mdm-http", move |stream| {
            let state = Arc::clone(&state);
            Some(move || serve_connection(stream, &state))
        })?;
        Ok(HttpServer { acceptor })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.acceptor.local_addr()
    }

    /// Stops accepting, joins every handler thread, and releases the
    /// state (including the embedder's status closure).
    pub fn shutdown(self) {
        self.acceptor.shutdown();
    }
}

fn serve_connection(mut stream: TcpStream, state: &HttpState) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let response = match read_request_path(&mut stream) {
        Ok(Some(path)) => route(&path, state),
        Ok(None) => HttpResponse::text(405, "method not allowed; only GET is served\n"),
        Err(status) => HttpResponse::text(status, "bad request\n"),
    };
    let _ = response.write_to(&mut stream);
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

/// Reads the request head and returns the path of a GET request
/// (`Ok(None)` for other methods, `Err(status)` for malformed input).
fn read_request_path(stream: &mut TcpStream) -> std::result::Result<Option<String>, u16> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    // Read until the blank line ending the head; the routes take no
    // bodies, so anything after it is ignored.
    while !head_complete(&buf) {
        if buf.len() >= MAX_REQUEST_BYTES {
            return Err(431);
        }
        let n = stream.read(&mut chunk).map_err(|_| 400u16)?;
        if n == 0 {
            return Err(400);
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let head = std::str::from_utf8(&buf).map_err(|_| 400u16)?;
    let request_line = head.lines().next().ok_or(400u16)?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts.next().ok_or(400u16)?;
    let target = parts.next().ok_or(400u16)?;
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(400),
    }
    if method != "GET" {
        return Ok(None);
    }
    // Strip any query string: `/healthz?probe=1` is still `/healthz`.
    let path = target.split('?').next().unwrap_or(target);
    Ok(Some(path.to_string()))
}

fn head_complete(buf: &[u8]) -> bool {
    buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
}

fn route(path: &str, state: &HttpState) -> HttpResponse {
    match path {
        "/metrics" => HttpResponse {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: state.registry.snapshot().to_prometheus(),
        },
        "/healthz" => {
            let report = state.monitor.health();
            HttpResponse {
                status: if report.healthy { 200 } else { 503 },
                content_type: "application/json",
                body: report.to_json(),
            }
        }
        "/statusz" => HttpResponse {
            status: 200,
            content_type: "application/json",
            body: (state.status_json)(),
        },
        "/tracez" => {
            let mut body = String::from("== recent ==\n");
            for t in state.tracer.recent(TRACEZ_LIMIT) {
                body.push_str(&t.to_text());
            }
            body.push_str("== slow ==\n");
            for t in state.tracer.slow(TRACEZ_LIMIT) {
                body.push_str(&t.to_text());
            }
            HttpResponse {
                status: 200,
                content_type: "text/plain",
                body,
            }
        }
        _ => HttpResponse::text(
            404,
            "not found; routes: /metrics /healthz /statusz /tracez\n",
        ),
    }
}

struct HttpResponse {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl HttpResponse {
    fn text(status: u16, body: &str) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "text/plain",
            body: body.to_string(),
        }
    }

    fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            431 => "Request Header Fields Too Large",
            503 => "Service Unavailable",
            _ => "Error",
        };
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdm_obs::Rule;

    fn get(addr: SocketAddr, target: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {target} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
            .expect("write request");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        let status: u16 = raw
            .strip_prefix("HTTP/1.1 ")
            .and_then(|r| r.split_ascii_whitespace().next())
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body, raw)
    }

    fn test_state() -> (Registry, Arc<Monitor>, HttpState) {
        let registry = Registry::new();
        let monitor = Monitor::start(registry.clone(), mdm_obs::MonitorConfig::disabled());
        let state = HttpState {
            registry: registry.clone(),
            monitor: Arc::clone(&monitor),
            tracer: Tracer::new(),
            status_json: Arc::new(|| "{\"role\":\"test\"}".to_string()),
        };
        (registry, monitor, state)
    }

    #[test]
    fn serves_metrics_statusz_and_404() {
        let (registry, _monitor, state) = test_state();
        registry.counter("mdm_http_test_total", "test").add(3);
        let server = HttpServer::start("127.0.0.1:0", state).expect("start");
        let addr = server.local_addr();

        let (status, body, raw) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("mdm_http_test_total 3"), "body: {body}");
        assert!(raw.contains("Connection: close"));

        let (status, body, _) = get(addr, "/statusz");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"role\":\"test\"}");

        let (status, _, _) = get(addr, "/tracez");
        assert_eq!(status, 200);

        let (status, _, _) = get(addr, "/nope");
        assert_eq!(status, 404);

        server.shutdown();
    }

    #[test]
    fn healthz_flips_with_the_rules_engine() {
        let (registry, monitor, state) = test_state();
        let gauge = registry.gauge("mdm_http_fail", "test failure signal");
        monitor.add_rule(Rule::above("http_fail", "mdm_http_fail", 0.5, 1));
        let server = HttpServer::start("127.0.0.1:0", state).expect("start");
        let addr = server.local_addr();

        let (status, body, _) = get(addr, "/healthz");
        assert_eq!(status, 200, "body: {body}");
        assert!(body.contains("\"healthy\":true"), "body: {body}");

        gauge.set(1);
        monitor.sample_now();
        let (status, body, _) = get(addr, "/healthz");
        assert_eq!(status, 503, "body: {body}");
        assert!(body.contains("\"healthy\":false"), "body: {body}");

        gauge.set(0);
        monitor.sample_now();
        let (status, _, _) = get(addr, "/healthz");
        assert_eq!(status, 200);

        server.shutdown();
    }

    #[test]
    fn rejects_non_get_and_garbage() {
        let (_registry, _monitor, state) = test_state();
        let server = HttpServer::start("127.0.0.1:0", state).expect("start");
        let addr = server.local_addr();

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\n\r\n")
            .expect("write");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.1 405 "), "raw: {raw}");

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"garbage\r\n\r\n").expect("write");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.1 400 "), "raw: {raw}");

        server.shutdown();
    }
}
