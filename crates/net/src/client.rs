//! The blocking MDM client: connect with retry/backoff, one request at a
//! time with a response deadline, auto-reconnect on a broken connection,
//! and strict request-id matching so a late or misrouted response can
//! never be attributed to the wrong request.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use mdm_core::stream::Feed;
use mdm_lang::{PlanExplain, StmtResult, Table};
use mdm_notation::Score;
use mdm_obs::{trace, Tracer};

use crate::error::{DecodeError, NetError, Result};
use crate::message::{Message, TraceOp};
use crate::wire;

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Attempts per connection establishment (≥ 1).
    pub connect_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub connect_backoff: Duration,
    /// Per-request response deadline.
    pub request_timeout: Duration,
    /// Name sent in the `Hello` handshake.
    pub client_name: String,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_attempts: 3,
            connect_backoff: Duration::from_millis(50),
            request_timeout: Duration::from_secs(10),
            client_name: "mdm-client".into(),
        }
    }
}

/// A blocking connection to an [`MdmServer`](crate::server::MdmServer).
pub struct MdmClient {
    addr: String,
    config: ClientConfig,
    stream: Option<TcpStream>,
    /// Name the server announced in `HelloAck`.
    server_name: String,
    /// Client-side tracer; requests originate trace context when set.
    tracer: Option<Tracer>,
    next_request_id: u64,
}

impl MdmClient {
    /// Connects (with retry and exponential backoff) and performs the
    /// `Hello`/`HelloAck` handshake.
    pub fn connect(addr: &str, config: ClientConfig) -> Result<MdmClient> {
        let mut client = MdmClient {
            addr: addr.to_string(),
            config,
            stream: None,
            server_name: String::new(),
            tracer: None,
            next_request_id: 1,
        };
        client.reconnect()?;
        Ok(client)
    }

    /// The server name from the handshake.
    pub fn server_name(&self) -> &str {
        &self.server_name
    }

    /// Installs a client-side tracer: subsequent requests open a
    /// `client.request` root span (subject to the tracer's sampling)
    /// and propagate trace context to the server in the frame's trace
    /// extension.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// The installed client-side tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Whether the connection is currently established (a failed request
    /// drops it; the next request redials).
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    fn reconnect(&mut self) -> Result<()> {
        self.stream = None;
        let mut backoff = self.config.connect_backoff;
        let attempts = self.config.connect_attempts.max(1);
        let mut last_err: Option<NetError> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            match self.dial() {
                Ok(()) => return Ok(()),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or(NetError::ConnectionClosed))
    }

    fn dial(&mut self) -> Result<()> {
        let addrs: Vec<_> = self.addr.to_socket_addrs()?.collect();
        let addr = addrs
            .first()
            .ok_or_else(|| NetError::Io(std::io::Error::other("address resolved to nothing")))?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.config.request_timeout))?;
        stream.set_write_timeout(Some(self.config.request_timeout))?;
        self.stream = Some(stream);
        let greeted = match self.exchange(Message::Hello {
            client: self.config.client_name.clone(),
            version: wire::PROTOCOL_VERSION,
        }) {
            Ok(Message::HelloAck { server, version }) if version == wire::PROTOCOL_VERSION => {
                self.server_name = server;
                Ok(())
            }
            Ok(Message::HelloAck { version, .. }) => {
                Err(DecodeError::VersionMismatch { got: version }.into())
            }
            Ok(Message::Error { code, message }) => Err(NetError::Remote { code, message }),
            Ok(other) => Err(NetError::UnexpectedResponse(other.type_name())),
            Err(e) => Err(e),
        };
        if greeted.is_err() {
            self.stream = None;
        }
        greeted
    }

    /// One request/response exchange on the open stream.
    fn exchange(&mut self, request: Message) -> Result<Message> {
        let id = self.next_request_id;
        self.next_request_id += 1;
        let stream = self.stream.as_mut().ok_or(NetError::ConnectionClosed)?;
        let payload = request.encode_payload();
        let trace_ctx = trace::current_context();
        wire::write_frame_traced(stream, request.msg_type(), id, &payload, trace_ctx)?;
        let (header, payload) = wire::read_frame(stream)?;
        // The server echoes the request id. Id 0 is reserved for
        // connection-level errors (busy refusal, undecodable frame) sent
        // before any request was attributable; anything else that is not
        // our id means the stream carries a response that is not ours.
        if header.request_id != id && header.request_id != 0 {
            return Err(NetError::MisroutedResponse {
                expected: id,
                got: header.request_id,
            });
        }
        let msg = Message::decode(header.msg_type, &payload)?;
        if header.request_id == 0 && !matches!(msg, Message::Error { .. }) {
            return Err(NetError::MisroutedResponse {
                expected: id,
                got: 0,
            });
        }
        Ok(msg)
    }

    /// Sends a request and returns the (non-error) response, redialing
    /// once if the previous connection turned out to be dead.
    pub fn request(&mut self, request: Message) -> Result<Message> {
        // Originate a trace (subject to sampling) covering the whole
        // exchange, redial included. While this root span is open,
        // `exchange` finds the context and stamps it onto the frame.
        let _root = self
            .tracer
            .as_ref()
            .and_then(|t| t.root_span("client.request", None));
        if _root.is_some() {
            trace::annotate("type", request.type_name());
        }
        if self.stream.is_none() {
            self.reconnect()?;
        }
        let response = match self.exchange(request.clone()) {
            // A dead connection (server restarted, idle-reaped us, …) is
            // worth one transparent retry on a fresh dial. A timeout is
            // NOT: the request may still execute, and replaying a write
            // could double-apply it.
            Err(NetError::ConnectionClosed) | Err(NetError::Io(_)) => {
                self.reconnect()?;
                self.exchange(request)
            }
            other => other,
        };
        match response {
            Ok(Message::Error { code, message }) => Err(NetError::Remote { code, message }),
            Ok(msg) => Ok(msg),
            Err(e) => {
                // Leave no half-read stream behind: the next request
                // starts from a clean dial.
                self.stream = None;
                Err(e)
            }
        }
    }

    // ------------------------------------------------------------------
    // Typed conveniences
    // ------------------------------------------------------------------

    /// Round-trip liveness check.
    pub fn ping(&mut self) -> Result<()> {
        match self.request(Message::Ping)? {
            Message::Pong => Ok(()),
            other => Err(NetError::UnexpectedResponse(other.type_name())),
        }
    }

    /// Runs a read-only QUEL program on the server's shared read path.
    /// This is also how system state is read: statement statistics,
    /// metrics and alert states are the `$statements`, `$metrics` and
    /// `$alerts` entities (see [`crate::introspect`]).
    pub fn query(&mut self, text: &str) -> Result<Table> {
        match self.request(Message::Query { text: text.into() })? {
            Message::Rows { table } => Ok(table),
            other => Err(NetError::UnexpectedResponse(other.type_name())),
        }
    }

    /// EXPLAINs (and executes) a read-only QUEL program on the server's
    /// shared read path: the planner's access paths plus the rows.
    pub fn explain(&mut self, text: &str) -> Result<(PlanExplain, Table)> {
        match self.request(Message::Explain { text: text.into() })? {
            Message::Plan { explain, table } => Ok((explain, table)),
            other => Err(NetError::UnexpectedResponse(other.type_name())),
        }
    }

    /// Runs a DDL/DML/QUEL program with write access.
    pub fn execute(&mut self, text: &str) -> Result<Vec<StmtResult>> {
        match self.request(Message::Execute { text: text.into() })? {
            Message::Results { results } => Ok(results),
            other => Err(NetError::UnexpectedResponse(other.type_name())),
        }
    }

    /// Stores a score, returning its SCORE entity id.
    pub fn store_score(&mut self, score: &Score) -> Result<u64> {
        match self.request(Message::StoreScore {
            score: score.clone(),
        })? {
            Message::ScoreStored { id } => Ok(id),
            other => Err(NetError::UnexpectedResponse(other.type_name())),
        }
    }

    /// Loads a score by entity id.
    pub fn load_score(&mut self, id: u64) -> Result<Score> {
        match self.request(Message::LoadScore { id })? {
            Message::ScoreData { score } => Ok(score),
            other => Err(NetError::UnexpectedResponse(other.type_name())),
        }
    }

    /// Finds a score by exact title.
    pub fn find_score(&mut self, title: &str) -> Result<Option<u64>> {
        match self.request(Message::FindScore {
            title: title.into(),
        })? {
            Message::ScoreFound { id } => Ok(id),
            other => Err(NetError::UnexpectedResponse(other.type_name())),
        }
    }

    /// Lists stored scores as `(entity id, title)`.
    pub fn list_scores(&mut self) -> Result<Vec<(u64, String)>> {
        match self.request(Message::ListScores)? {
            Message::ScoreList { scores } => Ok(scores),
            other => Err(NetError::UnexpectedResponse(other.type_name())),
        }
    }

    /// Adjusts the server's tracer (enable/disable/slow threshold).
    pub fn trace_control(&mut self, op: TraceOp) -> Result<()> {
        match self.request(Message::TraceControl { op })? {
            Message::Pong => Ok(()),
            other => Err(NetError::UnexpectedResponse(other.type_name())),
        }
    }

    /// Fetches the server's completed (or slow, with `slow`) traces,
    /// newest first: `(plain text trees, Chrome trace-event JSON)`.
    pub fn trace_fetch(&mut self, slow: bool, n: u32) -> Result<(String, String)> {
        match self.request(Message::TraceFetch { slow, n })? {
            Message::TraceDump { text, chrome_json } => Ok((text, chrome_json)),
            other => Err(NetError::UnexpectedResponse(other.type_name())),
        }
    }

    /// Pulls the replication stream from a cursor `(from_lsn,
    /// seed_offset)`, as `MusicDataManager::repl_cursor` gives it (a
    /// non-zero offset continues the seed of LSN `from_lsn`), at most
    /// ~`max_bytes`: `(feed, primary durable LSN, primary send stamp)`.
    /// The stamp is the primary's monotonic clock in microseconds;
    /// replicas derive `mdm_repl_lag_seconds` from it.
    pub fn repl_pull_at(
        &mut self,
        replica_id: u64,
        (from_lsn, seed_offset): (u64, u64),
        max_bytes: u32,
    ) -> Result<(Feed, u64, u64)> {
        match self.request(Message::ReplPull {
            replica_id,
            from_lsn,
            seed_offset,
            max_bytes,
        })? {
            Message::ReplBatch {
                feed,
                durable_lsn,
                sent_micros,
            } => Ok((feed, durable_lsn, sent_micros)),
            other => Err(NetError::UnexpectedResponse(other.type_name())),
        }
    }

    /// Closes the connection (the server also reaps idle sessions).
    pub fn disconnect(&mut self) {
        if let Some(s) = self.stream.take() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }
}
