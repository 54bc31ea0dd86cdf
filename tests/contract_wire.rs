//! Contract: the wire answers what the embedded manager answers.
//!
//! Subsystems this contract needs: `mdm-core`'s `MusicDataManager` (the
//! embedded calls), `mdm-net`'s `MdmServer` and `MdmClient` over
//! loopback, and between them the frame and payload codecs, whose
//! `Value`, table, score and feed encodings the answers cross.
//!
//! Each request type answers what its embedded call answers on the same
//! state: `Query` is `query_shared`, `Explain` is `explain_shared`,
//! `Execute` is `execute` (a failing program fails with the same error,
//! typed), `StoreScore` then `LoadScore` is `load_score`, `FindScore`
//! and `ListScores` are `find_score` and `list_scores`, and `ReplPull`
//! is `repl_pull`. `Hello`, `Ping` and the trace requests answer
//! without error. `Execute` mutates, so it is compared against a twin
//! manager that runs the same programs embedded.

use std::path::PathBuf;

use mdm_net::{ClientConfig, ErrorCode, MdmClient, MdmServer, NetError, ServerConfig, TraceOp};
use musicdb::mdm::stream::Feed;
use musicdb::mdm::MusicDataManager;
use musicdb::notation::fixtures::bwv578_subject;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "musicdb-contract-wire-{}-{tag}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The remote error `e` must be: the code the server maps it to, and its
/// message.
fn same_error(remote: NetError, code: ErrorCode, embedded: &dyn std::fmt::Display) {
    match remote {
        NetError::Remote { code: got, message } => {
            assert_eq!(got, code, "{message}");
            assert_eq!(message, embedded.to_string());
        }
        other => panic!("expected a typed remote error, got {other:?}"),
    }
}

#[test]
fn every_request_answers_what_its_embedded_call_answers() {
    let (server_dir, twin_dir) = (scratch("server"), scratch("twin"));
    let server = MdmServer::start(
        MusicDataManager::open(&server_dir).unwrap(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut twin = MusicDataManager::open(&twin_dir).unwrap();
    // `Hello` is the connect handshake.
    let mut c =
        MdmClient::connect(&server.local_addr().to_string(), ClientConfig::default()).unwrap();
    assert!(!c.server_name().is_empty());
    c.ping().unwrap();

    // Execute ≡ execute, on two managers given the same programs.
    let programs = [
        "define entity GADGET (name = string, year = integer, weight = float, \
         electric = boolean)",
        "append to GADGET (name = \"theremin\", year = 1920, weight = 4.5, electric = true)\n\
         append to GADGET (name = \"ondes\", year = 1928, weight = 9.25, electric = true)\n\
         append to GADGET (name = \"serpent\", year = 1590, weight = 1.0, electric = false)",
        "define index gadget_by_name on GADGET (name)",
        "range of g is GADGET\nreplace g (year = g.year + 1) where g.electric = true",
        "range of g is GADGET\ndelete g where g.name = \"serpent\"",
        "range of g is GADGET\nretrieve (g.name, g.year) where g.year > 1900",
    ];
    for text in programs {
        assert_eq!(
            c.execute(text).unwrap(),
            twin.execute(text).unwrap(),
            "{text}"
        );
    }
    let failing = "append to NO_SUCH_TYPE (name = \"x\")";
    let embedded = twin.execute(failing).unwrap_err();
    same_error(c.execute(failing).unwrap_err(), ErrorCode::Query, &embedded);

    // Query ≡ query_shared, Explain ≡ explain_shared.
    for text in [
        "range of g is GADGET\nretrieve (g.name, g.year, g.weight, g.electric)",
        "range of g is GADGET\nretrieve (g.year) where g.name = \"ondes\"",
        "range of g is GADGET\nretrieve (g.name) where g.weight < 5.0",
    ] {
        let embedded = server.with_manager(|m| m.query_shared(text)).unwrap();
        assert_eq!(c.query(text).unwrap(), embedded, "{text}");
        assert_eq!(twin.query_shared(text).unwrap(), embedded, "{text}");
        let embedded = server.with_manager(|m| m.explain_shared(text)).unwrap();
        assert_eq!(c.explain(text).unwrap(), embedded, "{text}");
    }
    let bad_query = "range of g is GADGET\nretrieve (g.no_such_attribute)";
    let embedded = server
        .with_manager(|m| m.query_shared(bad_query))
        .unwrap_err();
    same_error(c.query(bad_query).unwrap_err(), ErrorCode::Query, &embedded);

    // StoreScore, then LoadScore ≡ load_score; FindScore, ListScores.
    let score = bwv578_subject();
    let id = c.store_score(&score).unwrap();
    let embedded = server.with_manager(|m| m.load_score(id)).unwrap();
    assert_eq!(c.load_score(id).unwrap(), embedded);
    assert_eq!(embedded, score);
    let found = server.with_manager(|m| m.find_score(&score.title)).unwrap();
    assert_eq!(c.find_score(&score.title).unwrap(), found);
    assert_eq!(found, Some(id));
    assert_eq!(c.find_score("no such title").unwrap(), None);
    let listed = server.with_manager(|m| m.list_scores()).unwrap();
    assert_eq!(c.list_scores().unwrap(), listed);
    assert_eq!(listed, [(id, score.title.clone())]);
    let missing = id + 1_000_000;
    let embedded = server.with_manager(|m| m.load_score(missing)).unwrap_err();
    same_error(
        c.load_score(missing).unwrap_err(),
        ErrorCode::NotFound,
        &embedded,
    );

    // ReplPull ≡ repl_pull, pulled in small slices from the log's start
    // to its durable end, each from the cursor the previous one gave.
    let mut from = 0;
    loop {
        let (feed, durable, _) = c.repl_pull_at(1, (from, 0), 512).unwrap();
        let embedded = server.with_manager(|m| m.repl_pull(from, 0, 512)).unwrap();
        assert_eq!((&feed, durable), (&embedded.0, embedded.1), "from {from}");
        match feed {
            Feed::Txns { next_lsn, .. } if next_lsn < durable => from = next_lsn,
            _ => break,
        }
    }
    assert!(from > 0, "the pulls walked the log");

    // The trace requests answer without error.
    c.trace_control(TraceOp::Enable { sample_every: 1 })
        .unwrap();
    c.trace_control(TraceOp::SlowThreshold { micros: 0 })
        .unwrap();
    c.query("range of g is GADGET\nretrieve (g.name)").unwrap();
    c.trace_fetch(false, 1).unwrap();
    c.trace_fetch(true, 1).unwrap();
    c.trace_control(TraceOp::Disable).unwrap();
    c.ping().unwrap();

    drop(c);
    server.shutdown().unwrap();
    drop(twin);
    std::fs::remove_dir_all(&server_dir).ok();
    std::fs::remove_dir_all(&twin_dir).ok();
}
