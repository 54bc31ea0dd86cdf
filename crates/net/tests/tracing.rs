//! Tracing integration tests: end-to-end span trees over a live
//! client/server pair, trace-context propagation, a peer that never
//! sends the trace extension, malformed trace extensions, and the
//! slow-query ring thresholds.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use mdm_core::MusicDataManager;
use mdm_net::{
    wire, ClientConfig, ErrorCode, MdmClient, MdmServer, Message, ServerConfig, TraceOp,
};
use mdm_obs::{json, TraceContext, Tracer};

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mdm-trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn start_server(tag: &str) -> MdmServer {
    let mdm = MusicDataManager::open(&tempdir(tag)).expect("open mdm");
    MdmServer::start(mdm, "127.0.0.1:0", ServerConfig::default()).expect("start server")
}

fn client(server: &MdmServer) -> MdmClient {
    MdmClient::connect(&server.local_addr().to_string(), ClientConfig::default())
        .expect("connect client")
}

/// Sends `msg` as a plain (format-1) frame and decodes the response,
/// asserting the response also came back plain (responses never carry
/// the trace extension).
fn plain_roundtrip(s: &mut TcpStream, msg: &Message, request_id: u64) -> Message {
    wire::write_frame(s, msg.msg_type(), request_id, &msg.encode_payload()).expect("write frame");
    let (header, payload) = wire::read_frame(s).expect("read frame");
    assert_eq!(header.version, 1, "responses never carry the extension");
    assert_eq!(header.request_id, request_id, "response must echo the id");
    Message::decode(header.msg_type, &payload).expect("decode response")
}

/// A peer that never sends the trace extension completes a mixed
/// workload entirely untraced.
#[test]
fn plain_frame_client_completes_mixed_workload_untraced() {
    let server = start_server("plain-frames");
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    let hello = Message::Hello {
        client: "untraced".into(),
        version: wire::PROTOCOL_VERSION,
    };
    match plain_roundtrip(&mut s, &hello, 1) {
        Message::HelloAck { version, .. } => assert_eq!(version, wire::PROTOCOL_VERSION),
        other => panic!("expected HelloAck, got {other:?}"),
    }

    assert!(matches!(
        plain_roundtrip(&mut s, &Message::Ping, 2),
        Message::Pong
    ));
    match plain_roundtrip(
        &mut s,
        &Message::Execute {
            text: "define entity RELIC (era = string)\nappend to RELIC (era = \"baroque\")".into(),
        },
        3,
    ) {
        Message::Results { .. } => {}
        other => panic!("expected Results, got {other:?}"),
    }
    match plain_roundtrip(
        &mut s,
        &Message::Query {
            text: "range of r is RELIC\nretrieve (r.era)".into(),
        },
        4,
    ) {
        Message::Rows { table } => assert_eq!(table.rows.len(), 1),
        other => panic!("expected Rows, got {other:?}"),
    }

    // Nothing traced: the tracer defaults off and no frame carried
    // context, so the whole workload ran on the untraced fast path.
    assert!(server.tracer().recent(16).is_empty());
    server.shutdown().expect("shutdown");
}

/// A frame whose trace extension carries the reserved all-zero trace
/// id gets a typed BadRequest error frame and a close — not a hang, and
/// not a dead server.
#[test]
fn malformed_trace_context_gets_typed_error_not_hang() {
    let server = start_server("bad-trace-ext");
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    let ctx = TraceContext {
        trace_id: [0xEE; 16],
        parent_span: 5,
    };
    let mut frame =
        wire::encode_frame_traced(Message::Ping.msg_type(), 9, &[], Some(ctx)).expect("frame");
    // Zero the trace id in place: the CRC covers only the payload, so
    // this is exactly the malformed extension a buggy peer would send.
    frame[wire::HEADER_LEN..wire::HEADER_LEN + 16].fill(0);
    s.write_all(&frame).expect("write");

    let (header, payload) = wire::read_frame(&mut s).expect("typed error frame, not a hang");
    assert_eq!(header.request_id, 0, "connection-level error uses id 0");
    match Message::decode(header.msg_type, &payload).expect("decode") {
        Message::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("trace"), "message: {message}");
        }
        other => panic!("expected error frame, got {other:?}"),
    }

    // Only that session died; the server still serves the protocol.
    let mut c = client(&server);
    c.ping().expect("server must still be alive");
    server.shutdown().expect("shutdown");
}

/// The acceptance bar: one traced client request produces one server
/// trace — originated by the client, adopted over the wire — whose net,
/// QUEL, and storage spans all reach the root via parent links, in a
/// parseable Chrome trace-event export.
#[test]
fn traced_execute_links_net_quel_and_storage_spans() {
    let server = start_server("e2e");
    let mut c = client(&server);

    let client_tracer = Tracer::new();
    client_tracer.set_sample_every(1);
    client_tracer.set_enabled(true);
    c.set_tracer(client_tracer.clone());
    c.trace_control(TraceOp::Enable { sample_every: 1 })
        .expect("enable server tracing");

    c.execute("define entity MOTIF (name = string)\nappend to MOTIF (name = \"BACH\")")
        .expect("execute");

    let local = client_tracer.recent(16);
    assert!(!local.is_empty(), "client must record its half");
    let local_ids: HashSet<String> = local.iter().map(|t| t.trace_id_hex()).collect();

    let (text, chrome) = c.trace_fetch(false, 32).expect("fetch");
    assert!(text.contains("net.request"), "text tree:\n{text}");

    let doc = json::parse(&chrome).expect("chrome export must parse");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());

    fn name(e: &json::Value) -> &str {
        e.get("name").and_then(|v| v.as_str()).unwrap_or("")
    }
    let arg = |e: &json::Value, k: &str| {
        e.get("args")
            .and_then(|a| a.get(k))
            .and_then(|v| v.as_str())
            .map(str::to_string)
    };

    // The server must have adopted a client-originated trace id for the
    // execute request (not sampled a fresh local one).
    let exec_ev = events
        .iter()
        .find(|e| name(e) == "quel.exec")
        .expect("quel.exec span in export");
    let want_id = arg(exec_ev, "trace_id").expect("trace id on event");
    assert!(
        local_ids.contains(&want_id),
        "server trace id {want_id} must come from the client (client ids: {local_ids:?})"
    );

    let in_trace: Vec<&json::Value> = events
        .iter()
        .filter(|e| arg(e, "trace_id").as_deref() == Some(want_id.as_str()))
        .collect();
    let find = |n: &str| {
        in_trace
            .iter()
            .find(|e| name(e) == n)
            .unwrap_or_else(|| panic!("span '{n}' missing from trace:\n{text}"))
    };

    // The server root hangs off the client's request span.
    let root = find("net.request");
    let root_id = arg(root, "span_id").expect("root span id");
    let origin = local
        .iter()
        .find(|t| t.trace_id_hex() == want_id)
        .expect("origin trace on the client");
    let client_span = origin.span("client.request").expect("client.request span");
    assert_eq!(
        arg(root, "parent_id").as_deref(),
        Some(client_span.id.to_string().as_str()),
        "server root must be parented under the client's request span"
    );

    // Every layer's span must reach the root by walking parent links.
    let mut parent_of: HashMap<String, String> = HashMap::new();
    for e in &in_trace {
        if let (Some(id), Some(p)) = (arg(e, "span_id"), arg(e, "parent_id")) {
            parent_of.insert(id, p);
        }
    }
    for span in [
        "net.decode",
        "net.dispatch",
        "net.encode",
        "quel.lex",
        "quel.parse",
        "quel.exec",
        "storage.wal_append",
    ] {
        let e = find(span);
        let mut cur = arg(e, "span_id").expect("span id");
        let mut hops = 0;
        while cur != root_id {
            cur = parent_of
                .get(&cur)
                .unwrap_or_else(|| panic!("{span}: broken parent link at span {cur}"))
                .clone();
            hops += 1;
            assert!(hops <= 16, "{span}: parent chain never reaches the root");
        }
    }
    server.shutdown().expect("shutdown");
}

/// The slow ring obeys its threshold: u64::MAX captures nothing
/// (nothing is that slow), 0 captures everything.
#[test]
fn slow_ring_captures_at_zero_threshold_only() {
    let server = start_server("slow-ring");
    let mut c = client(&server);
    c.trace_control(TraceOp::Enable { sample_every: 1 })
        .expect("enable");

    c.trace_control(TraceOp::SlowThreshold { micros: u64::MAX })
        .expect("threshold max");
    c.query("range of s is SCORE\nretrieve (s.title)")
        .expect("query");
    let (text, _) = c.trace_fetch(true, 16).expect("fetch slow");
    assert!(
        text.is_empty(),
        "no request is slower than u64::MAX µs, yet got:\n{text}"
    );

    c.trace_control(TraceOp::SlowThreshold { micros: 0 })
        .expect("threshold zero");
    c.ping().expect("ping");
    let (text, chrome) = c.trace_fetch(true, 16).expect("fetch slow");
    assert!(
        text.contains("net.request"),
        "threshold 0 must capture every request, got:\n{text}"
    );
    json::parse(&chrome).expect("slow export must parse");
    server.shutdown().expect("shutdown");
}
