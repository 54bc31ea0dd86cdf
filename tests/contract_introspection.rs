//! Contract: system state is data, read one way.
//!
//! Subsystems this contract needs: the `mdm-lang` virtual entities
//! (`$statements`, `$tables`, `$indexes`, `$metrics`, `$alerts`), the
//! `mdm-obs` monitor (latest sample per series, the alert rules engine)
//! and statement store behind them, `mdm-core`'s shared read path
//! (`MusicDataManager::{query_shared, health}`), and `mdm-net`'s
//! `Query`/`Rows` pair, its single-version `Hello` check and the
//! `introspect` query texts the shell runs, `\replica status` among
//! them.
//!
//! What a client reads about the system over the wire is what the
//! embedded manager answers to the same QUEL; the health verdict is the
//! one the `$alerts` rows add up to; a peer speaking another protocol
//! version, or a retired admin message, gets a typed refusal.

use std::net::TcpStream;
use std::time::Duration;

use mdm_net::{
    introspect, wire, ClientConfig, DecodeError, ErrorCode, MdmClient, MdmServer, Message,
    NetError, ServerConfig,
};
use mdm_obs::Rule;
use musicdb::lang::Table;
use musicdb::mdm::MusicDataManager;
use musicdb::model::Value;

/// Every `$` entity with every column it has (DESIGN.md §6.2's table).
const ENTITIES: [(&str, &str); 5] = [
    (
        "$statements",
        "fingerprint calls total_micros p50_micros p99_micros rows_returned rows_scanned \
         scan index_eq index_range ord",
    ),
    ("$tables", "name live appends replaces deletes heap_fetches"),
    (
        "$indexes",
        "name entity attribute distinct entries eq_probes range_probes maintenance_writes",
    ),
    ("$metrics", "name value rate sum p50 p99"),
    (
        "$alerts",
        "rule metric state severity value cmp threshold since_micros",
    ),
];

fn start(tag: &str) -> (MdmServer, MdmClient) {
    let dir = std::env::temp_dir().join(format!(
        "musicdb-contract-intro-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let mdm = MusicDataManager::open(&dir).unwrap();
    let server = MdmServer::start(mdm, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client =
        MdmClient::connect(&server.local_addr().to_string(), ClientConfig::default()).unwrap();
    (server, client)
}

fn embedded(server: &MdmServer, text: &str) -> Table {
    server.with_manager(|m| m.query_shared(text)).unwrap()
}

/// A bare socket to the server, for frames no client would send.
fn raw(server: &MdmServer) -> TcpStream {
    let s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

fn exchange(s: &mut TcpStream, msg_type: u16, request_id: u64, payload: &[u8]) -> (u64, Message) {
    wire::write_frame(s, msg_type, request_id, payload).unwrap();
    let (header, payload) = wire::read_frame(s).expect("a typed answer, not a hang");
    (
        header.request_id,
        Message::decode(header.msg_type, &payload).unwrap(),
    )
}

#[test]
fn the_wire_answers_what_the_embedded_manager_answers() {
    let (server, mut c) = start("equiv");
    c.execute(
        "define entity GADGET (name = string)\n\
         append to GADGET (name = \"theremin\")\n\
         append to GADGET (name = \"ondes\")\n\
         define index gadget_by_name on GADGET (name)",
    )
    .unwrap();
    c.query("range of g is GADGET\nretrieve (g.name) where g.name = \"ondes\"")
        .unwrap();

    for (entity, columns) in ENTITIES {
        let targets: Vec<String> = columns
            .split_whitespace()
            .map(|col| format!("v.{col}"))
            .collect();
        let text = format!("range of v is {entity}\nretrieve ({})", targets.join(", "));
        let over_wire = c.query(&text).unwrap();
        let in_process = embedded(&server, &text);
        assert_eq!(over_wire.columns, in_process.columns, "{entity}");
        assert_eq!(over_wire.columns, targets, "{entity}");
        assert!(!over_wire.is_empty(), "{entity} has rows:\n{over_wire}");
        // These two do not move between the two reads; the others count
        // the reads themselves or follow the sampler.
        if entity == "$tables" || entity == "$indexes" {
            assert_eq!(over_wire.rows, in_process.rows, "{entity}");
        }
    }
    drop(c);
    server.shutdown().unwrap();
}

#[test]
fn the_health_verdict_is_what_the_alert_rows_add_up_to() {
    let (server, mut c) = start("alerts");
    let gauge = server.with_manager(|m| {
        m.monitor()
            .add_rule(Rule::above("contract_fail", "mdm_contract_fail", 0.5, 1));
        m.metrics_registry()
            .gauge("mdm_contract_fail", "the contract test's failure signal")
    });
    let state_of_rule = |alerts: &Table| {
        alerts
            .rows
            .iter()
            .find(|r| r[2] == Value::String("contract_fail".into()))
            .map(|r| r[0].clone())
    };
    for (level, state, healthy) in [(1, "firing", false), (0, "ok", true)] {
        gauge.set(level);
        server.with_manager(|m| m.monitor().sample_now());
        let alerts = c.query(introspect::HEALTH).unwrap();
        assert_eq!(
            state_of_rule(&alerts),
            Some(Value::String(state.into())),
            "{alerts}"
        );
        assert_eq!(introspect::healthy(&alerts), healthy, "{alerts}");
        assert_eq!(
            server.with_manager(|m| m.health().healthy),
            healthy,
            "the rows and the rules engine agree"
        );
        assert_eq!(
            introspect::healthy(&embedded(&server, introspect::HEALTH)),
            healthy
        );
    }
    drop(c);
    server.shutdown().unwrap();
}

#[test]
fn the_shells_query_texts_parse_and_answer() {
    let (server, mut c) = start("texts");
    c.execute("define entity GADGET (name = string)").unwrap();
    // Put the request counters the texts below look for into a sample.
    server.with_manager(|m| m.monitor().sample_now());

    let texts = [
        introspect::TOP.to_string(),
        introspect::STATS.to_string(),
        introspect::stats("mdm_net_"),
        introspect::watch("mdm_net_requests_total"),
        introspect::HEALTH.to_string(),
        introspect::REPLICA_STATUS.to_string(),
    ];
    for text in &texts {
        let over_wire = c.query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(over_wire.columns, embedded(&server, text).columns, "{text}");
        assert!(!over_wire.is_empty(), "{text}:\n{over_wire}");
    }
    // `\replica status` sums up one sample the same way on both sides.
    let status = introspect::replica_summary(&c.query(introspect::REPLICA_STATUS).unwrap());
    let local = introspect::replica_summary(&embedded(&server, introspect::REPLICA_STATUS));
    assert_eq!(status, local);
    assert_eq!(
        status.rows[0][0],
        Value::String("primary".into()),
        "{status}"
    );

    let filtered = c.query(&introspect::stats("mdm_net_")).unwrap();
    assert!(
        filtered
            .rows
            .iter()
            .all(|r| matches!(&r[0], Value::String(name) if name.starts_with("mdm_net_"))),
        "{filtered}"
    );
    let all = c.query(introspect::STATS).unwrap();
    assert!(all.len() > filtered.len(), "the prefix filters");

    // One labelled family reads as one row: summed, with its series count.
    let watched = c
        .query(&introspect::watch("mdm_net_requests_total"))
        .unwrap();
    assert_eq!(watched.len(), 1, "{watched}");
    assert!(watched.rows[0][0].as_float().unwrap() >= 2.0, "{watched}");
    assert!(watched.rows[0][2].as_float().unwrap() >= 2.0, "{watched}");
    let unknown = c.query(&introspect::watch("mdm_no_such_metric")).unwrap();
    assert!(
        unknown
            .rows
            .first()
            .is_none_or(|r| r[2].as_float() == Some(0.0)),
        "{unknown}"
    );
    drop(c);
    server.shutdown().unwrap();
}

#[test]
fn another_protocol_version_is_refused_typed() {
    let (server, mut c) = start("version");
    let theirs = wire::PROTOCOL_VERSION + 1;
    let hello = Message::Hello {
        client: "from-the-future".into(),
        version: theirs,
    };
    let mut s = raw(&server);
    match exchange(&mut s, hello.msg_type(), 1, &hello.encode_payload()) {
        (1, Message::Error { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(
                message.contains(&theirs.to_string())
                    && message.contains(&wire::PROTOCOL_VERSION.to_string()),
                "names both versions: {message}"
            );
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    // …and the server hangs up on the foreign peer.
    assert!(matches!(
        wire::read_frame(&mut s),
        Err(NetError::ConnectionClosed | NetError::Io(_))
    ));
    c.ping().expect("only that session ended");
    drop(c);
    server.shutdown().unwrap();
}

#[test]
fn retired_admin_tags_are_unknown_messages() {
    let (server, c) = start("retired");
    let mut s = raw(&server);
    // 9, 13 and 16 were the admin requests (metrics, top, health), 15
    // the replication status; 136, 139, 142 and 141 their responses.
    for tag in [136u16, 139, 141, 142] {
        assert_eq!(
            Message::decode(tag, &[]),
            Err(DecodeError::BadMessageType(tag))
        );
    }
    for (request_id, tag) in [(1u64, 9u16), (2, 13), (3, 15), (4, 16)] {
        assert_eq!(
            Message::decode(tag, &[]),
            Err(DecodeError::BadMessageType(tag))
        );
        match exchange(&mut s, tag, request_id, &[]) {
            (id, Message::Error { code, message }) => {
                assert_eq!(id, request_id);
                assert_eq!(code, ErrorCode::BadRequest);
                assert!(message.contains(&tag.to_string()), "{message}");
            }
            other => panic!("tag {tag}: expected an Error response, got {other:?}"),
        }
    }
    // The session survived all four and still speaks the protocol.
    assert!(matches!(
        exchange(&mut s, Message::Ping.msg_type(), 5, &[]),
        (5, Message::Pong)
    ));
    drop((s, c));
    server.shutdown().unwrap();
}
