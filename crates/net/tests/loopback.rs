//! Loopback integration tests: a real [`MdmServer`] on 127.0.0.1, real
//! [`MdmClient`]s, concurrent sessions, malformed frames, and graceful
//! shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use mdm_core::MusicDataManager;
use mdm_net::{
    wire, ClientConfig, ErrorCode, MdmClient, MdmServer, Message, NetError, ServerConfig,
};
use mdm_notation::fixtures::bwv578_subject;

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mdm-net-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn start_server(tag: &str, config: ServerConfig) -> MdmServer {
    let dir = tempdir(tag);
    let mdm = MusicDataManager::open(&dir).expect("open mdm");
    MdmServer::start(mdm, "127.0.0.1:0", config).expect("start server")
}

fn client(server: &MdmServer) -> MdmClient {
    MdmClient::connect(&server.local_addr().to_string(), ClientConfig::default())
        .expect("connect client")
}

#[test]
fn handshake_ping_and_query() {
    let server = start_server("basic", ServerConfig::default());
    let mut c = client(&server);
    assert!(c.server_name().starts_with("mdm-net/"));
    c.ping().expect("ping");

    c.execute("define entity GADGET (name = string)\nappend to GADGET (name = \"theremin\")")
        .expect("execute");
    let table = c
        .query("range of g is GADGET\nretrieve (g.name)")
        .expect("query");
    assert_eq!(table.rows.len(), 1);

    let mdm = server.shutdown().expect("shutdown");
    // The names the benchmark's probes and the operator surfaces read;
    // a rename must fail here, not zero a probe silently.
    let snap = mdm.metrics_snapshot();
    for name in [
        "mdm_net_connections_accepted_total",
        "mdm_net_connections_refused_total",
        "mdm_net_connections_active",
        "mdm_net_decode_errors_total",
        "mdm_net_bytes_in_total",
        "mdm_net_bytes_out_total",
        "mdm_net_request_micros",
        "mdm_net_frame_bytes",
        "mdm_net_requests_total",
    ] {
        assert!(
            snap.entries.iter().any(|e| e.name == name),
            "metric {name} missing from the server snapshot"
        );
    }
    drop(mdm);
}

/// Wire queries run against the in-memory database and leave the
/// storage engine alone: a batch of `Query` requests begins no engine
/// transaction, so it never waits at the engine's gate.
#[test]
fn wire_queries_begin_no_engine_transaction() {
    let server = start_server("engine-idle", ServerConfig::default());
    let mut c = client(&server);

    c.execute("define entity GADGET (name = string)\nappend to GADGET (name = \"theremin\")")
        .expect("execute");
    let begins = || server.with_manager(|m| m.metrics_snapshot().counter("mdm_txn_begins_total"));
    let before = begins();
    assert!(before.unwrap_or(0) > 0, "the committed execute began one");
    for _ in 0..3 {
        let table = c
            .query("range of g is GADGET\nretrieve (g.name)")
            .expect("query");
        assert_eq!(table.rows.len(), 1);
    }
    assert_eq!(begins(), before, "queries must not reach the engine");
    drop(server.shutdown().expect("shutdown"));
}

#[test]
fn explain_over_the_wire_reports_access_paths() {
    let server = start_server("explain", ServerConfig::default());
    let mut c = client(&server);

    c.execute(
        "define entity GADGET (name = string)\n\
         append to GADGET (name = \"theremin\")\n\
         append to GADGET (name = \"ondes\")\n\
         define index gadget_by_name on GADGET (name)",
    )
    .expect("execute");

    let (explain, table) = c
        .explain("range of g is GADGET\nretrieve (g.name) where g.name = \"ondes\"")
        .expect("explain");
    assert_eq!(table.rows.len(), 1);
    assert_eq!(explain.vars.len(), 1);
    assert_eq!(explain.vars[0].path, "index-eq(name)");
    assert_eq!(explain.rows_scanned, 1, "index probe, not a scan");

    // Mutations are rejected on the explain path with a typed error.
    match c.explain("append to GADGET (name = \"nope\")") {
        Err(NetError::Remote { .. }) => {}
        other => panic!("expected a typed remote error, got {other:?}"),
    }

    server.shutdown().expect("shutdown");
}

/// The introspection acceptance bar: a `$statements` retrieve over the
/// wire returns the session's own prior queries, `\top`'s underlying
/// request works remotely, and EXPLAIN carries the statistics
/// annotation across the codec.
#[test]
fn statement_statistics_visible_over_the_wire() {
    let server = start_server("introspect", ServerConfig::default());
    let mut c = client(&server);

    c.execute(
        "define entity GADGET (name = string)\n\
         append to GADGET (name = \"theremin\")\n\
         append to GADGET (name = \"ondes\")\n\
         define index gadget_by_name on GADGET (name)",
    )
    .expect("execute");
    // Two literal variants: one fingerprint, two calls, on the shared
    // read path.
    for name in ["theremin", "ondes"] {
        c.query(&format!(
            "range of g is GADGET\nretrieve (g.name) where g.name = \"{name}\""
        ))
        .expect("query");
    }

    let t = c
        .query(
            "range of st is $statements\n\
             retrieve (st.fingerprint, st.calls, st.index_eq) where st.calls = 2",
        )
        .expect("query $statements");
    assert_eq!(t.rows.len(), 1, "literal variants collapse:\n{t}");
    let mdm_lang::Table { rows, .. } = &t;
    assert_eq!(
        rows[0][2],
        mdm_model::Value::Integer(2),
        "both probes took the index path"
    );

    // The same entity answers \top's own query text, hottest first.
    let top = c.query(mdm_net::introspect::TOP).expect("top");
    assert_eq!(top.columns[0], "s.fingerprint");
    assert!(
        top.rows.len() >= 2,
        "execute + query fingerprints recorded:\n{top}"
    );
    let totals: Vec<&mdm_model::Value> = top.column("s.total_micros").expect("column");
    assert!(
        totals.windows(2).all(|w| w[0].total_cmp(w[1]).is_ge()),
        "sorted by total time, descending:\n{top}"
    );

    // EXPLAIN's statistics annotation survives the wire codec.
    let (explain, _) = c
        .explain("range of g is GADGET\nretrieve (g.name) where g.name = \"ondes\"")
        .expect("explain");
    assert!(
        explain.vars[0].stats.contains("live=2"),
        "stats annotation over the wire: {:?}",
        explain.vars[0].stats
    );

    server.shutdown().expect("shutdown");
}

#[test]
fn score_round_trips_over_the_wire() {
    let server = start_server("score", ServerConfig::default());
    let mut c = client(&server);

    let score = bwv578_subject();
    let id = c.store_score(&score).expect("store");
    let loaded = c.load_score(id).expect("load");
    assert_eq!(loaded, score);

    assert_eq!(c.find_score("Fuge g-moll").expect("find"), Some(id));
    assert_eq!(c.find_score("nonexistent").expect("find none"), None);
    let listed = c.list_scores().expect("list");
    assert_eq!(listed, vec![(id, "Fuge g-moll".to_string())]);

    // Loading a bogus id is a typed NotFound, not a generic failure.
    match c.load_score(99_999) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::NotFound),
        other => panic!("expected remote NotFound, got {other:?}"),
    }

    server.shutdown().expect("shutdown");
}

/// The acceptance bar: 8 concurrent clients, ≥50 mixed requests each,
/// every response matched to its request id, nothing lost or misrouted.
#[test]
fn eight_concurrent_clients_mixed_workload() {
    let server = start_server("concurrent", ServerConfig::default());
    let addr = server.local_addr().to_string();

    // Seed one score all clients will read back.
    let mut seeder = client(&server);
    let score = bwv578_subject();
    let seed_id = seeder.store_score(&score).expect("seed score");
    seeder
        .execute("define entity COUNTERPOINT (species = int)")
        .expect("seed schema");

    let threads: Vec<_> = (0..8)
        .map(|worker| {
            let addr = addr.clone();
            let score = score.clone();
            std::thread::spawn(move || {
                let mut c = MdmClient::connect(
                    &addr,
                    ClientConfig {
                        client_name: format!("worker-{worker}"),
                        ..ClientConfig::default()
                    },
                )
                .expect("connect");
                for i in 0..50 {
                    match i % 5 {
                        0 => c.ping().expect("ping"),
                        1 => {
                            let t = c
                                .query("range of s is SCORE\nretrieve (s.title)")
                                .expect("query");
                            assert!(!t.rows.is_empty(), "seeded score must be visible");
                        }
                        2 => {
                            let loaded = c.load_score(seed_id).expect("load");
                            assert_eq!(loaded.title, score.title);
                        }
                        3 => {
                            c.execute(&format!(
                                "append to COUNTERPOINT (species = {})",
                                worker * 100 + i
                            ))
                            .expect("append");
                        }
                        _ => {
                            let id = c.store_score(&score).expect("store");
                            assert!(id > 0);
                        }
                    }
                }
                50u64
            })
        })
        .collect();

    let total: u64 = threads.into_iter().map(|t| t.join().expect("worker")).sum();
    assert_eq!(total, 400, "every worker must finish all 50 requests");

    // All 10-per-worker appends landed (writes serialized, none lost).
    let mut checker = client(&server);
    let t = checker
        .query("range of cp is COUNTERPOINT\nretrieve (cp.species)")
        .expect("verify query");
    assert_eq!(t.rows.len(), 8 * 10);

    let mdm = server.shutdown().expect("shutdown");
    let snap = mdm.metrics_snapshot();
    // 8 workers + seeder + checker, all accepted; nothing refused.
    assert!(snap.counter("mdm_net_connections_accepted_total").unwrap() >= 10);
    assert_eq!(snap.counter("mdm_net_connections_refused_total"), Some(0));
    assert_eq!(snap.gauge("mdm_net_connections_active"), Some(0));
    assert!(
        snap.counter_with("mdm_net_requests_total", &[("type", "ping")])
            .unwrap()
            >= 8 * 10
    );
    let lat = snap.histogram("mdm_net_request_micros").expect("latency");
    assert!(lat.count >= 400);
}

#[test]
fn over_limit_connection_refused_with_typed_busy() {
    let server = start_server(
        "busy",
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    );
    let _held = client(&server); // occupies the only slot
    let refused = MdmClient::connect(
        &server.local_addr().to_string(),
        ClientConfig {
            connect_attempts: 1,
            ..ClientConfig::default()
        },
    );
    match refused {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Busy),
        Err(other) => panic!("expected a typed Busy refusal, got {other:?}"),
        Ok(_) => panic!("expected a typed Busy refusal, got a connection"),
    }
    let mdm = server.shutdown().expect("shutdown");
    assert_eq!(
        mdm.metrics_snapshot()
            .counter("mdm_net_connections_refused_total"),
        Some(1)
    );
}

#[test]
fn idle_connection_reaped_and_client_reconnects() {
    let server = start_server(
        "idle",
        ServerConfig {
            idle_timeout: Duration::from_millis(50),
            ..ServerConfig::default()
        },
    );
    let mut c = client(&server);
    c.ping().expect("first ping");
    // Sleep past the idle deadline: the server reaps the session.
    std::thread::sleep(Duration::from_millis(200));
    for _ in 0..100 {
        if server.active_connections() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        server.active_connections(),
        0,
        "idle session must be reaped"
    );
    // The client notices the dead connection and transparently redials.
    c.ping().expect("ping after reap must reconnect");
    server.shutdown().expect("shutdown");
}

#[test]
fn corrupted_and_oversized_frames_get_typed_errors() {
    let server = start_server("malformed", ServerConfig::default());
    let addr = server.local_addr();

    // Corrupted payload: valid header, flipped payload bit.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        let mut frame = wire::encode_frame(2 /* ping */, 7, b"").expect("frame");
        // Re-encode a hello with a corrupted byte instead: ping has no
        // payload to corrupt, so corrupt the checksum field itself.
        let n = frame.len();
        frame[n - 1] ^= 0x01;
        s.write_all(&frame).expect("write");
        let (header, payload) = wire::read_frame(&mut s).expect("read error frame");
        let msg = Message::decode(header.msg_type, &payload).expect("decode");
        match msg {
            Message::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected error frame, got {other:?}"),
        }
    }

    // Oversized declared length: rejected before allocation.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        let mut frame = wire::encode_frame(2, 8, b"").expect("frame");
        frame[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        s.write_all(&frame).expect("write");
        let (header, payload) = wire::read_frame(&mut s).expect("read error frame");
        match Message::decode(header.msg_type, &payload).expect("decode") {
            Message::Error { code, message } => {
                assert_eq!(code, ErrorCode::BadRequest);
                assert!(message.contains("cap"), "message: {message}");
            }
            other => panic!("expected error frame, got {other:?}"),
        }
    }

    // Wrong protocol version.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        let mut frame = wire::encode_frame(2, 9, b"").expect("frame");
        frame[4..6].copy_from_slice(&99u16.to_le_bytes());
        s.write_all(&frame).expect("write");
        let (header, payload) = wire::read_frame(&mut s).expect("read error frame");
        match Message::decode(header.msg_type, &payload).expect("decode") {
            Message::Error { code, message } => {
                assert_eq!(code, ErrorCode::BadRequest);
                assert!(message.contains("version"), "message: {message}");
            }
            other => panic!("expected error frame, got {other:?}"),
        }
    }

    // Garbage that is not even a frame: server closes the connection
    // (after an error frame) rather than hanging or crashing.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        // Longer than one frame header, so the server sees a full
        // (garbage) header immediately instead of waiting for more.
        s.write_all(b"GET /scores HTTP/1.1\r\nHost: localhost\r\n\r\n")
            .expect("write");
        let mut sink = Vec::new();
        let _ = s.read_to_end(&mut sink); // server sends error frame + FIN
        assert!(!sink.is_empty(), "server should answer before closing");
    }

    // The server survived all of it and still serves the protocol.
    let mut c = client(&server);
    c.ping().expect("server must still be alive");

    let mdm = server.shutdown().expect("shutdown");
    let snap = mdm.metrics_snapshot();
    assert!(
        snap.counter("mdm_net_decode_errors_total").unwrap() >= 4,
        "every malformed frame must be counted"
    );
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let server = start_server("drain", ServerConfig::default());
    let addr = server.local_addr().to_string();

    // A client that issues requests continuously while shutdown lands.
    let worker = std::thread::spawn(move || {
        let mut c = MdmClient::connect(
            &addr,
            ClientConfig {
                connect_attempts: 1,
                ..ClientConfig::default()
            },
        )
        .expect("connect");
        let mut completed = 0u32;
        for i in 0..1000 {
            match c.query("range of s is SCORE\nretrieve (s.title)") {
                Ok(_) => completed += 1,
                // Once shutdown begins the connection is drained and
                // closed; any further request fails cleanly.
                Err(_) => {
                    assert!(i > 0, "at least the first request must succeed");
                    break;
                }
            }
        }
        completed
    });

    std::thread::sleep(Duration::from_millis(30));
    let mdm = server
        .shutdown()
        .expect("shutdown must drain, not deadlock");
    let completed = worker.join().expect("worker");
    assert!(completed > 0);
    // Whatever completed got a real response; the drained session is gone.
    assert_eq!(
        mdm.metrics_snapshot().gauge("mdm_net_connections_active"),
        Some(0)
    );
}

#[test]
fn repl_batches_always_carry_the_send_stamp() {
    let server = start_server("replstamp", ServerConfig::default());
    let mut c = client(&server);
    let (_, _, stamp) = c.repl_pull_at(8, (0, 0), 1 << 16).expect("pull");
    assert_ne!(stamp, 0, "every batch carries the primary's send stamp");
    drop(c);
    server.shutdown().expect("shutdown");
}

#[test]
fn server_save_persists_scores_committed_over_the_network() {
    let dir = tempdir("persist");
    let mdm = MusicDataManager::open(&dir).expect("open");
    let server = MdmServer::start(mdm, "127.0.0.1:0", ServerConfig::default()).expect("start");
    let mut c = client(&server);
    let id = c.store_score(&bwv578_subject()).expect("store");
    drop(c);
    server.shutdown().expect("shutdown saves");

    // Reopen the same directory cold: the score survived.
    let reopened = MusicDataManager::open(&dir).expect("reopen");
    let loaded = reopened.load_score(id).expect("load persisted score");
    assert_eq!(loaded.title, "Fuge g-moll");
}
