//! The MDM server: a thread-per-connection TCP front end over one shared
//! [`MusicDataManager`].
//!
//! Concurrency model: the manager sits behind an [`RwLock`]. Read-only
//! QUEL programs go through [`MusicDataManager::query_shared`] under the
//! read half, so any number of reader clients proceed in parallel;
//! writes (`Execute`, `StoreScore`) take the write half. Each accepted
//! connection gets its own thread; the listener refuses connections
//! beyond [`ServerConfig::max_connections`] with a typed `Busy` error
//! frame rather than letting them queue unanswered.
//!
//! Below the RwLock, `query_shared` reads the in-memory database only:
//! it never touches the storage engine, whose own one-writer gate is
//! therefore only ever reached under the write half.
//!
//! Robustness: per-connection read timeouts double as idle reaping,
//! handler panics are caught per request and reported as `Internal`
//! errors (the session, and every other session, lives on), and
//! [`MdmServer::shutdown`] drains in-flight requests up to a deadline
//! before force-closing stragglers.

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use mdm_core::{CoreError, MusicDataManager};
use mdm_obs::{chrome_trace_json, trace, Tracer};

use crate::accept::Acceptor;
use crate::error::{ErrorCode, NetError, Result};
use crate::http::{HttpServer, HttpState};
use crate::introspect;
use crate::message::{Message, TraceOp};
use crate::metrics::NetMetrics;
use crate::wire::{self, HEADER_LEN};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum simultaneously served connections; further clients are
    /// refused with a typed `Busy` error.
    pub max_connections: usize,
    /// Per-connection socket read timeout. A connection idle past this
    /// deadline is reaped.
    pub idle_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// How long [`MdmServer::shutdown`] waits for in-flight requests to
    /// finish before force-closing their connections.
    pub drain_timeout: Duration,
    /// Name sent in `HelloAck`.
    pub server_name: String,
    /// Address for the HTTP observability endpoint (`/metrics`,
    /// `/healthz`, `/statusz`, `/tracez`); `None` serves none. Use
    /// port 0 to let the OS pick (see [`MdmServer::http_addr`]).
    pub http_addr: Option<String>,
    /// Interval of the monitor's background sampler. The server
    /// enables continuous sampling at start so alert rules and
    /// `/healthz` track the node without a client asking.
    pub sample_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 64,
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(5),
            server_name: format!("mdm-net/{}", wire::PROTOCOL_VERSION),
            http_addr: None,
            sample_interval: Duration::from_secs(1),
        }
    }
}

struct SessionHandle {
    /// A clone of the session's stream, used to force-close it.
    stream: TcpStream,
    /// Whether the session is mid-request (drain waits for these).
    busy: Arc<AtomicBool>,
}

/// Unregisters a session when its thread ends — or when the thread
/// could not be spawned and the job holding this guard is dropped.
struct SessionGuard {
    shared: Arc<Shared>,
    id: u64,
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        if let Ok(mut sessions) = self.shared.sessions.lock() {
            sessions.remove(&self.id);
        }
        self.shared.metrics.connections_active.add(-1);
    }
}

struct Shared {
    mdm: RwLock<MusicDataManager>,
    metrics: NetMetrics,
    /// The manager's tracer, reachable without the `mdm` lock so trace
    /// control and span recording never serialize behind writers.
    tracer: Tracer,
    config: ServerConfig,
    shutting_down: AtomicBool,
    sessions: Mutex<HashMap<u64, SessionHandle>>,
}

/// A running MDM server. Dropping it without calling
/// [`MdmServer::shutdown`] aborts connections ungracefully.
pub struct MdmServer {
    shared: Arc<Shared>,
    acceptor: Acceptor,
    http: Option<HttpServer>,
}

impl MdmServer {
    /// Binds `addr` and starts serving `mdm`. Pass port 0 to let the OS
    /// pick (see [`MdmServer::local_addr`]).
    pub fn start<A: ToSocketAddrs>(
        mdm: MusicDataManager,
        addr: A,
        config: ServerConfig,
    ) -> Result<MdmServer> {
        let metrics = NetMetrics::register(&mdm.metrics_registry());
        let tracer = mdm.tracer().clone();
        let registry = mdm.metrics_registry();
        let monitor = mdm.monitor();
        // A serving node monitors itself continuously: rules evaluate
        // every interval whether or not anyone is scraping.
        monitor.enable_sampling(config.sample_interval);
        let shared = Arc::new(Shared {
            mdm: RwLock::new(mdm),
            metrics,
            tracer,
            config,
            shutting_down: AtomicBool::new(false),
            sessions: Mutex::new(HashMap::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            let mut next_session_id: u64 = 0;
            Acceptor::start(addr, "mdm-accept", move |stream| {
                next_session_id += 1;
                admit_session(&shared, stream, next_session_id)
            })?
        };
        let http = match &shared.config.http_addr {
            Some(addr) => {
                let status_shared = Arc::clone(&shared);
                Some(HttpServer::start(
                    addr.as_str(),
                    HttpState {
                        registry,
                        monitor,
                        tracer: shared.tracer.clone(),
                        status_json: Arc::new(move || status_json(&status_shared)),
                    },
                )?)
            }
            None => None,
        };
        Ok(MdmServer {
            shared,
            acceptor,
            http,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.acceptor.local_addr()
    }

    /// The HTTP observability endpoint's bound address, when one was
    /// configured (useful with port 0).
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http.as_ref().map(HttpServer::local_addr)
    }

    /// Number of currently open sessions.
    pub fn active_connections(&self) -> usize {
        self.shared.sessions.lock().expect("sessions lock").len()
    }

    /// The server's tracer (shared with the manager), for local control
    /// and trace inspection without a wire round-trip.
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// Runs `f` with the manager under the shared (read) half of the
    /// lock, concurrent with reader sessions.
    pub fn with_manager<R>(&self, f: impl FnOnce(&MusicDataManager) -> R) -> R {
        f(&self.shared.mdm.read().expect("mdm lock"))
    }

    /// Runs `f` with the manager under the exclusive (write) half of
    /// the lock, serialized against every session. The replica pull loop
    /// applies what it pulled through this.
    pub fn with_manager_mut<R>(&self, f: impl FnOnce(&mut MusicDataManager) -> R) -> R {
        f(&mut self.shared.mdm.write().expect("mdm lock"))
    }

    /// Gracefully shuts down: stops accepting, lets in-flight requests
    /// finish (up to the drain timeout), force-closes stragglers, joins
    /// every thread, saves the database unless it is a replica's, and
    /// returns the manager.
    pub fn shutdown(mut self) -> Result<MusicDataManager> {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // The HTTP endpoint's status closure holds a clone of the shared
        // state: stop it first so the `Arc::try_unwrap` below succeeds.
        if let Some(http) = self.http.take() {
            http.shutdown();
        }
        self.acceptor.stop_accepting();

        // Idle sessions are parked in a socket read: close them now. Busy
        // ones get until the drain deadline to write their response.
        {
            let sessions = self.shared.sessions.lock().expect("sessions lock");
            for s in sessions.values() {
                if !s.busy.load(Ordering::SeqCst) {
                    let _ = s.stream.shutdown(Shutdown::Both);
                }
            }
        }
        let deadline = Instant::now() + self.shared.config.drain_timeout;
        loop {
            let busy = {
                let sessions = self.shared.sessions.lock().expect("sessions lock");
                sessions
                    .values()
                    .filter(|s| s.busy.load(Ordering::SeqCst))
                    .count()
            };
            if busy == 0 || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        {
            let sessions = self.shared.sessions.lock().expect("sessions lock");
            for s in sessions.values() {
                let _ = s.stream.shutdown(Shutdown::Both);
            }
        }
        self.acceptor.shutdown();

        let shared = Arc::try_unwrap(self.shared)
            .map_err(|_| NetError::UnexpectedResponse("server threads still hold state"))?;
        let mut mdm = shared.mdm.into_inner().expect("mdm lock");
        // A replica's durable state is owned by the replication stream,
        // which commits everything it applies.
        if !mdm.is_replica() {
            mdm.save()
                .map_err(|e| NetError::Io(std::io::Error::other(e.to_string())))?;
        }
        Ok(mdm)
    }
}

/// Admission, on the accept thread: over the limit the client gets a
/// typed refusal; otherwise the session is registered and its serving
/// loop returned as the job for the connection's own thread.
fn admit_session(
    shared: &Arc<Shared>,
    stream: TcpStream,
    id: u64,
) -> Option<impl FnOnce() + Send + 'static> {
    shared.metrics.connections_accepted.inc();
    let busy = Arc::new(AtomicBool::new(false));
    let handle = SessionHandle {
        stream: stream.try_clone().ok()?,
        busy: Arc::clone(&busy),
    };
    {
        let mut sessions = shared.sessions.lock().expect("sessions lock");
        if sessions.len() >= shared.config.max_connections {
            drop(sessions);
            refuse_busy(shared, stream);
            return None;
        }
        sessions.insert(id, handle);
    }
    shared.metrics.connections_active.add(1);
    let guard = SessionGuard {
        shared: Arc::clone(shared),
        id,
    };
    Some(move || {
        let guard = guard;
        serve_session(&guard.shared, stream, busy)
    })
}

/// Sends a typed `Busy` error and closes: over-limit clients get a
/// definite answer instead of a hang.
fn refuse_busy(shared: &Shared, mut stream: TcpStream) {
    shared.metrics.connections_refused.inc();
    shared.metrics.count_error_response(ErrorCode::Busy.name());
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let msg = Message::Error {
        code: ErrorCode::Busy,
        message: format!(
            "server at its {}-connection limit",
            shared.config.max_connections
        ),
    };
    let _ = write_response(shared, &mut stream, 0, &msg);
    let _ = stream.shutdown(Shutdown::Both);
}

fn write_response(
    shared: &Shared,
    stream: &mut TcpStream,
    request_id: u64,
    msg: &Message,
) -> Result<()> {
    let payload = msg.encode_payload();
    let n = wire::write_frame(stream, msg.msg_type(), request_id, &payload)?;
    shared.metrics.bytes_out.add(n as u64);
    shared.metrics.frame_bytes.observe(n as u64);
    Ok(())
}

fn serve_session(shared: &Shared, mut stream: TcpStream, busy: Arc<AtomicBool>) {
    let _ = stream.set_read_timeout(Some(shared.config.idle_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = stream.set_nodelay(true);

    while !shared.shutting_down.load(Ordering::SeqCst) {
        let (header, payload) = match wire::read_frame(&mut stream) {
            Ok(f) => f,
            // Idle past the deadline, peer gone, or the socket was
            // force-closed by shutdown: reap the session.
            Err(NetError::Timeout) | Err(NetError::ConnectionClosed) | Err(NetError::Io(_)) => {
                break
            }
            Err(NetError::Decode(e)) => {
                // A frame that fails to decode leaves the stream position
                // unknowable; answer with a typed error and close.
                shared.metrics.decode_errors.inc();
                shared
                    .metrics
                    .count_error_response(ErrorCode::BadRequest.name());
                let _ = write_response(
                    shared,
                    &mut stream,
                    0,
                    &Message::Error {
                        code: ErrorCode::BadRequest,
                        message: e.to_string(),
                    },
                );
                break;
            }
            Err(_) => break,
        };
        busy.store(true, Ordering::SeqCst);
        let started = Instant::now();
        let frame_len = (HEADER_LEN + payload.len()) as u64;
        shared.metrics.bytes_in.add(frame_len);
        shared.metrics.frame_bytes.observe(frame_len);

        // Root span for the whole frame. A frame's trace extension
        // adopts the client's trace (bypassing sampling); an untraced
        // frame originates locally, subject to the tracer's sampling.
        let root_span = shared.tracer.root_span("net.request", header.trace);
        if root_span.is_some() {
            trace::annotate("request_id", header.request_id);
        }

        let mut foreign_peer = false;
        let response = {
            let decoded = {
                let _s = trace::span("net.decode");
                Message::decode(header.msg_type, &payload)
            };
            match decoded {
                // A peer speaking another protocol version gets a typed
                // refusal and is then dropped: nothing it sends next can
                // be trusted to mean what this build thinks it means.
                Ok(Message::Hello { version, .. }) if version != wire::PROTOCOL_VERSION => {
                    foreign_peer = true;
                    Message::Error {
                        code: ErrorCode::BadRequest,
                        message: format!(
                            "protocol version mismatch: client speaks {version}, server speaks {}",
                            wire::PROTOCOL_VERSION
                        ),
                    }
                }
                Ok(request) => {
                    shared.metrics.count_request(request.type_name());
                    let _s = trace::span("net.dispatch");
                    trace::annotate("type", request.type_name());
                    // A panicking handler must not take down the session
                    // (or poison the whole server): isolate it per
                    // request.
                    match catch_unwind(AssertUnwindSafe(|| handle_request(shared, request))) {
                        Ok(resp) => resp,
                        Err(_) => Message::Error {
                            code: ErrorCode::Internal,
                            message: "request handler panicked".into(),
                        },
                    }
                }
                Err(e) => {
                    shared.metrics.decode_errors.inc();
                    Message::Error {
                        code: ErrorCode::BadRequest,
                        message: e.to_string(),
                    }
                }
            }
        };
        if let Message::Error { code, .. } = &response {
            shared.metrics.count_error_response(code.name());
        }
        let micros = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        shared.metrics.request_micros.observe(micros);
        let write_result = {
            let _s = trace::span("net.encode");
            write_response(shared, &mut stream, header.request_id, &response)
        };
        drop(root_span);
        busy.store(false, Ordering::SeqCst);
        if write_result.is_err() || foreign_peer {
            break;
        }
    }
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

fn handle_request(shared: &Shared, request: Message) -> Message {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return Message::Error {
            code: ErrorCode::ShuttingDown,
            message: "server is shutting down".into(),
        };
    }
    match request {
        // Always this build's version: `serve_session` turned any other
        // away before dispatch.
        Message::Hello { .. } => Message::HelloAck {
            server: shared.config.server_name.clone(),
            version: wire::PROTOCOL_VERSION,
        },
        Message::Ping => Message::Pong,
        // Read path: `query_shared(&self)` under the read half of the
        // lock — reader clients run concurrently against the
        // in-memory database, never reaching the storage engine.
        Message::Query { text } => {
            let mdm = shared.mdm.read().expect("mdm lock");
            match mdm.query_shared(&text) {
                Ok(table) => Message::Rows { table },
                Err(e) => core_error_response(&e),
            }
        }
        // EXPLAIN is read-only, so it shares the read half too.
        Message::Explain { text } => {
            let mdm = shared.mdm.read().expect("mdm lock");
            match mdm.explain_shared(&text) {
                Ok((explain, table)) => Message::Plan { explain, table },
                Err(e) => core_error_response(&e),
            }
        }
        // On a replica the manager refuses the write path with a typed
        // `ReadOnly` error, so clients know to redirect to the primary.
        Message::Execute { text } => {
            let mut mdm = shared.mdm.write().expect("mdm lock");
            match mdm.execute(&text) {
                Ok(results) => Message::Results { results },
                Err(e) => core_error_response(&e),
            }
        }
        // A remote client's score is a commit point: `ScoreStored` is
        // sent only once its rows are durable.
        Message::StoreScore { score } => {
            let mut mdm = shared.mdm.write().expect("mdm lock");
            match mdm
                .store_score(&score)
                .and_then(|id| mdm.commit().map(|()| id))
            {
                Ok(id) => Message::ScoreStored { id },
                Err(e) => core_error_response(&e),
            }
        }
        // Replication: a replica pulling the stream; only what is
        // durable is shipped. The pull holds the manager's read lock,
        // which `Execute` and `StoreScore` wait on for the write lock,
        // and its log read takes the log latch every commit's sync
        // needs: a pull does block writers (ROADMAP item 2).
        Message::ReplPull {
            replica_id,
            from_lsn,
            seed_offset,
            max_bytes,
        } => {
            let mdm = shared.mdm.read().expect("mdm lock");
            match mdm.repl_pull(from_lsn, seed_offset, max_bytes as usize) {
                Ok((feed, durable_lsn)) => {
                    shared.metrics.count_pull(replica_id);
                    Message::ReplBatch {
                        feed,
                        durable_lsn,
                        // Primary-monotonic send stamp (µs since this
                        // node's monitor epoch); replicas difference
                        // stamps of the same clock for lag-in-seconds,
                        // so wall clocks never need to agree. `max(1)`
                        // keeps a stamp taken at the epoch itself apart
                        // from the replica's 0 = "no contact yet".
                        sent_micros: mdm.monitor().uptime_micros().max(1),
                    }
                }
                Err(e) => core_error_response(&e),
            }
        }
        Message::LoadScore { id } => {
            let mdm = shared.mdm.read().expect("mdm lock");
            match mdm.load_score(id) {
                Ok(score) => Message::ScoreData { score },
                Err(e) => core_error_response(&e),
            }
        }
        Message::FindScore { title } => {
            let mdm = shared.mdm.read().expect("mdm lock");
            match mdm.find_score(&title) {
                Ok(id) => Message::ScoreFound { id },
                Err(e) => core_error_response(&e),
            }
        }
        Message::ListScores => {
            let mdm = shared.mdm.read().expect("mdm lock");
            match mdm.list_scores() {
                Ok(scores) => Message::ScoreList { scores },
                Err(e) => core_error_response(&e),
            }
        }
        Message::TraceControl { op } => {
            match op {
                TraceOp::Enable { sample_every } => {
                    if sample_every > 0 {
                        shared.tracer.set_sample_every(sample_every);
                    }
                    shared.tracer.set_enabled(true);
                }
                TraceOp::Disable => shared.tracer.set_enabled(false),
                TraceOp::SlowThreshold { micros } => shared.tracer.set_slow_threshold_us(micros),
            }
            Message::Pong
        }
        Message::TraceFetch { slow, n } => {
            let traces = if slow {
                shared.tracer.slow(n as usize)
            } else {
                shared.tracer.recent(n as usize)
            };
            let mut text = String::new();
            for t in &traces {
                text.push_str(&t.to_text());
            }
            Message::TraceDump {
                text,
                chrome_json: chrome_trace_json(&traces),
            }
        }
        // A response message arriving as a request is a protocol abuse.
        other => Message::Error {
            code: ErrorCode::BadRequest,
            message: format!("'{}' is not a request", other.type_name()),
        },
    }
}

/// The `/statusz` document: build identity, uptime, connections, the
/// [`introspect::replica_summary`] of the replication series — as of
/// the monitor's latest sample — and the embedded health report,
/// assembled without the write lock.
fn status_json(shared: &Shared) -> String {
    let (series, health, uptime_micros) = {
        let mdm = shared.mdm.read().expect("mdm lock");
        (
            mdm.query_shared(introspect::REPLICA_STATUS),
            mdm.health().to_json(),
            mdm.monitor().uptime_micros(),
        )
    };
    let connections = shared.sessions.lock().expect("sessions lock").len();
    let server_name: String = shared
        .config
        .server_name
        .chars()
        .filter(|c| *c != '"' && *c != '\\' && !c.is_control())
        .collect();
    let mut out = format!(
        "{{\"server\": \"{}\", \"protocol\": {}, \"uptime_seconds\": {:.3}, \"connections\": {}, ",
        server_name,
        wire::PROTOCOL_VERSION,
        uptime_micros as f64 / 1_000_000.0,
        connections,
    );
    // A string value displays quoted, as JSON wants it.
    match series {
        Ok(series) => {
            let summary = introspect::replica_summary(&series);
            for (column, value) in summary.columns.iter().zip(&summary.rows[0]) {
                out.push_str(&format!("\"{column}\": {value}, "));
            }
        }
        Err(e) => out.push_str(&format!("\"replication_error\": {:?}, ", e.to_string())),
    }
    out.push_str(&format!("\"health\": {health}}}"));
    out
}

/// Maps a core failure to its wire error class; "score not found" is
/// distinguishable from I/O and decode failures.
fn core_error_response(e: &CoreError) -> Message {
    let code = match e {
        CoreError::NoSuchScore(_) => ErrorCode::NotFound,
        CoreError::BadScoreData(_) => ErrorCode::BadScoreData,
        CoreError::Lang(_) | CoreError::Model(_) => ErrorCode::Query,
        CoreError::Diverged { .. } => ErrorCode::Diverged,
        CoreError::Storage(_) => ErrorCode::Storage,
        CoreError::Darms(_) | CoreError::NotReplica | CoreError::Stale { .. } => {
            ErrorCode::BadRequest
        }
        CoreError::Internal(_) | CoreError::Unapplied { .. } => ErrorCode::Internal,
        CoreError::ReadOnly => ErrorCode::ReadOnly,
    };
    Message::Error {
        code,
        message: e.to_string(),
    }
}
