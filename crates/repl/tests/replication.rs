//! End-to-end replication over a real loopback pair: a primary
//! [`MdmServer`], a [`ReplicaNode`] pulling from it, clients on both.

use mdm_core::MusicDataManager;
use mdm_net::{ClientConfig, ErrorCode, MdmClient, MdmServer, NetError, ServerConfig};
use mdm_repl::{ReplError, ReplicaConfig, ReplicaNode};
use std::time::Duration;

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mdm-repl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn start_primary(tag: &str) -> (MdmServer, std::path::PathBuf) {
    let dir = tempdir(&format!("{tag}-p"));
    let mdm = MusicDataManager::open(&dir).expect("open primary");
    let server = MdmServer::start(mdm, "127.0.0.1:0", ServerConfig::default()).expect("start");
    (server, dir)
}

fn client(addr: &str) -> MdmClient {
    MdmClient::connect(addr, ClientConfig::default()).expect("connect")
}

/// Σ `$statements.calls` over the fingerprints starting with `prefix`,
/// as the node behind `c` reports them.
fn statement_calls(c: &mut MdmClient, prefix: &str) -> i64 {
    let table = c
        .query("range of s is $statements\nretrieve (s.fingerprint, s.calls)")
        .expect("$statements");
    (table.rows.iter())
        .filter(|r| r[0].as_str().is_some_and(|f| f.starts_with(prefix)))
        .filter_map(|r| r[1].as_integer())
        .sum()
}

fn primary_durable(server: &MdmServer) -> u64 {
    server.with_manager(|m| m.engine().wal_durable_lsn())
}

#[test]
fn replica_serves_reads_reports_status_and_survives_restart() {
    let (server, _dir_p) = start_primary("e2e");
    let dir_r = tempdir("e2e-r");
    let node = ReplicaNode::start(
        &dir_r,
        "127.0.0.1:0",
        ReplicaConfig::new(&server.local_addr().to_string()),
    )
    .expect("start replica");

    // Write on the primary; its committed rows ride in the WAL.
    let mut pc = client(&server.local_addr().to_string());
    pc.execute(
        "define entity GADGET (name = string)\n\
         append to GADGET (name = \"theremin\")\n\
         append to GADGET (name = \"ondes\")",
    )
    .expect("primary execute");

    // The replica catches up to the primary's durable watermark and
    // applies the committed rows, so they are readable immediately — no
    // checkpoint has happened yet.
    let target = primary_durable(&server);
    assert!(target > 0);
    assert!(
        node.wait_for_lsn(target, Duration::from_secs(10)),
        "replica stuck at lsn {} (target {target}), last error: {:?}",
        node.applied_lsn(),
        node.last_error(),
    );
    let mut rc = client(&node.addr().to_string());
    let table = rc
        .query("range of g is GADGET\nretrieve (g.name)")
        .expect("replica query");
    assert_eq!(table.rows.len(), 2, "replicated rows visible on replica");

    // Status is typed on both ends of the pair.
    let rs = rc.repl_status().expect("replica status");
    assert!(rs.replica);
    assert!(rs.applied_lsn >= target);
    let ps = pc.repl_status().expect("primary status");
    assert!(!ps.replica);
    assert!(ps.replicas >= 1, "primary sees its puller");

    // Writes to the replica are refused with the typed code.
    match rc.execute("append to GADGET (name = \"nope\")") {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::ReadOnly),
        other => panic!("expected typed ReadOnly refusal, got {other:?}"),
    }

    // A checkpoint rotates the primary's log; the replica folds at the
    // marker and still serves the same rows.
    server
        .with_manager(|m| m.engine().checkpoint())
        .expect("primary checkpoint");
    pc.execute("append to GADGET (name = \"trautonium\")")
        .expect("primary execute post-checkpoint");
    let target = primary_durable(&server);
    assert!(node.wait_for_lsn(target, Duration::from_secs(10)));
    let table = rc
        .query("range of g is GADGET\nretrieve (g.name)")
        .expect("replica query after fold");
    assert_eq!(table.rows.len(), 3);

    // Restart the replica: the role is sticky (marker file), the stream
    // resumes from the local watermark, reads still work.
    drop(rc);
    let mdm = node.shutdown().expect("replica shutdown");
    assert!(mdm.is_replica(), "role survives shutdown");
    // The stream's progress is published in the replica's registry.
    let snap = mdm.metrics_snapshot();
    assert!(snap.gauge("mdm_repl_applied_lsn").unwrap_or(0) > 0);
    assert!(snap.gauge("mdm_repl_lag_bytes").is_some());
    assert!(snap.counter("mdm_repl_batches_total").unwrap_or(0) > 0);
    assert!(snap.counter("mdm_repl_records_total").unwrap_or(0) > 0);
    assert!(snap.counter("mdm_repl_txns_applied_total").unwrap_or(0) > 0);
    // Local writes to a replica-role manager are refused too.
    let mut mdm = mdm;
    assert!(
        mdm.execute("append to GADGET (name = \"local\")").is_err(),
        "replica manager refuses local writes"
    );
    drop(mdm);
    let node = ReplicaNode::start(
        &dir_r,
        "127.0.0.1:0",
        ReplicaConfig::new(&server.local_addr().to_string()),
    )
    .expect("restart replica");
    pc.execute("append to GADGET (name = \"synthi\")")
        .expect("primary execute after replica restart");
    let target = primary_durable(&server);
    assert!(node.wait_for_lsn(target, Duration::from_secs(10)));
    let mut rc = client(&node.addr().to_string());
    let table = rc
        .query("range of g is GADGET\nretrieve (g.name)")
        .expect("replica query after restart");
    assert_eq!(table.rows.len(), 4);

    drop(rc);
    node.shutdown().expect("replica shutdown");
    server.shutdown().expect("primary shutdown");
}

#[test]
fn stale_replica_refuses_promotion_caught_up_replica_promotes() {
    let (server, _dir_p) = start_primary("promote");
    let mut pc = client(&server.local_addr().to_string());
    pc.execute("define entity PIECE (title = string)")
        .expect("ddl");
    for i in 0..20 {
        pc.execute(&format!("append to PIECE (title = \"op{i}\")"))
            .expect("append");
    }

    // A deliberately throttled replica: one record per pull, long pause
    // between pulls. Its first pull observes the primary's durable
    // watermark but applies almost nothing.
    let dir_r = tempdir("promote-r");
    let mut cfg = ReplicaConfig::new(&server.local_addr().to_string());
    cfg.max_batch_bytes = 1;
    cfg.poll_interval = Duration::from_millis(300);
    let mut node = ReplicaNode::start(&dir_r, "127.0.0.1:0", cfg).expect("start replica");
    assert!(
        node.wait_for_lsn(1, Duration::from_secs(10)),
        "first pull never landed: {:?}",
        node.last_error()
    );
    let required = node.primary_durable_lsn();
    assert!(
        node.applied_lsn() < required,
        "throttled replica unexpectedly caught up"
    );
    match node.promote() {
        Err(ReplError::Stale { applied, required }) => {
            assert!(applied < required, "stale error carries the gap");
        }
        other => panic!("expected stale refusal, got {other:?}"),
    }
    // The refusal left the node replicating; a fresh full-speed node on
    // the same stream shows promotion succeeding once caught up.
    node.shutdown().expect("stale replica shutdown");
    let mut node = ReplicaNode::start(
        &dir_r,
        "127.0.0.1:0",
        ReplicaConfig::new(&server.local_addr().to_string()),
    )
    .expect("restart replica");
    let target = primary_durable(&server);
    assert!(node.wait_for_lsn(target, Duration::from_secs(10)));
    node.promote().expect("caught-up replica promotes");

    // The promoted node accepts writes and serves the full history.
    let mut rc = client(&node.addr().to_string());
    rc.execute("append to PIECE (title = \"op-new\")")
        .expect("write to promoted node");
    let table = rc
        .query("range of p is PIECE\nretrieve (p.title)")
        .expect("query promoted node");
    assert_eq!(table.rows.len(), 21);
    let rs = rc.repl_status().expect("status");
    assert!(!rs.replica, "promoted node reports primary role");

    drop(rc);
    let mdm = node.shutdown().expect("promoted shutdown");
    assert!(!mdm.is_replica());
    server.shutdown().expect("primary shutdown");
}

#[test]
fn read_fanout_replicas_see_the_same_data() {
    let (server, _dir_p) = start_primary("fanout");
    let mut pc = client(&server.local_addr().to_string());
    pc.execute(
        "define entity TIMBRE (part = string)\n\
         append to TIMBRE (part = \"soprano\")\n\
         append to TIMBRE (part = \"alto\")\n\
         append to TIMBRE (part = \"tenor\")\n\
         append to TIMBRE (part = \"bass\")",
    )
    .expect("primary execute");
    let target = primary_durable(&server);

    let mut nodes = Vec::new();
    for i in 0..3 {
        let dir = tempdir(&format!("fanout-r{i}"));
        let mut cfg = ReplicaConfig::new(&server.local_addr().to_string());
        cfg.replica_id = i + 1;
        nodes.push(ReplicaNode::start(&dir, "127.0.0.1:0", cfg).expect("start replica"));
    }
    for node in &nodes {
        assert!(node.wait_for_lsn(target, Duration::from_secs(10)));
        let mut rc = client(&node.addr().to_string());
        let table = rc
            .query("range of v is TIMBRE\nretrieve (v.part)")
            .expect("replica query");
        assert_eq!(table.rows.len(), 4);
    }
    let mut pc = client(&server.local_addr().to_string());
    let ps = pc.repl_status().expect("primary status");
    assert!(ps.replicas >= 3, "primary sees {} pullers", ps.replicas);

    for node in nodes {
        node.shutdown().expect("replica shutdown");
    }
    server.shutdown().expect("primary shutdown");
}

/// `$statements` lists what a node's own clients ran. The rows the
/// primary's statements committed arrive through the replication stream
/// and are applied, but the statements are not the replica's
/// executions: they stay in the primary's store.
#[test]
fn replicated_statements_are_not_the_replicas_executions() {
    const APPENDS: usize = 6;
    let (server, _dir_p) = start_primary("stmts");
    let dir_r = tempdir("stmts-r");
    let node = ReplicaNode::start(
        &dir_r,
        "127.0.0.1:0",
        ReplicaConfig::new(&server.local_addr().to_string()),
    )
    .expect("start replica");

    let mut pc = client(&server.local_addr().to_string());
    pc.execute("define entity OPUS (number = integer)")
        .expect("ddl");
    for i in 0..APPENDS {
        pc.execute(&format!("append to OPUS (number = {i})"))
            .expect("append");
    }
    assert!(node.wait_for_lsn(primary_durable(&server), Duration::from_secs(10)));

    let count = "range of o is OPUS\nretrieve (o.number)";
    let mut rc = client(&node.addr().to_string());
    assert_eq!(rc.query(count).expect("replica query").rows.len(), APPENDS);

    assert_eq!(statement_calls(&mut pc, "append to OPUS"), APPENDS as i64);
    assert_eq!(statement_calls(&mut pc, "define entity OPUS"), 1);
    assert_eq!(statement_calls(&mut rc, "append"), 0);
    assert_eq!(statement_calls(&mut rc, "define"), 0);
    assert_eq!(
        statement_calls(&mut rc, "range of o is OPUS retrieve"),
        1,
        "the query its own client ran is there"
    );

    drop(rc);
    node.shutdown().expect("replica shutdown");
    server.shutdown().expect("primary shutdown");
}

/// What a client can ask a node: the census, the score list, and the
/// rows of a fixed query set, each in a canonical order.
fn answers(server: &MdmServer) -> (String, Vec<(u64, String)>, Vec<Vec<String>>) {
    const QUERIES: [&str; 3] = [
        "range of g is GADGET\nretrieve (g.name, g.n)",
        "range of n is NOTE\nretrieve (n.midi_key, n.step)",
        "range of s is SCORE\nretrieve (s.title)",
    ];
    server.with_manager(|m| {
        let mut scores = m.list_scores().expect("list_scores");
        scores.sort();
        let rows = QUERIES
            .iter()
            .map(|q| {
                let t = m.query_shared(q).expect("fixed query");
                let mut rows: Vec<String> = t.rows.iter().map(|r| format!("{r:?}")).collect();
                rows.sort();
                rows
            })
            .collect();
        (m.census(), scores, rows)
    })
}

/// The replica applies the primary's committed rows, not its statements:
/// it answers exactly what the primary answers — between checkpoints,
/// after a fold, and once promoted — including a replica that joins after
/// the primary's history before its last save exists only in its pages.
#[test]
fn the_replica_answers_what_the_primary_answers() {
    use mdm_notation::fixtures::bwv578_subject;
    let (server, _dir_p) = start_primary("same");
    let mut pc = client(&server.local_addr().to_string());
    pc.execute(
        "define entity GADGET (name = string, n = integer)\n\
         append to GADGET (name = \"theremin\", n = 1)\n\
         append to GADGET (name = \"ondes\", n = 2)",
    )
    .expect("primary execute");
    pc.store_score(&bwv578_subject()).expect("store score");
    server
        .with_manager_mut(|m| m.save())
        .expect("save: the history so far is only in pages");

    let dir_r = tempdir("same-r");
    let mut node = ReplicaNode::start(
        &dir_r,
        "127.0.0.1:0",
        ReplicaConfig::new(&server.local_addr().to_string()),
    )
    .expect("start replica");
    let caught_up = |node: &ReplicaNode| {
        let target = primary_durable(&server);
        assert!(
            node.wait_for_lsn(target, Duration::from_secs(10)),
            "replica stuck at {} (target {target}): {:?}",
            node.applied_lsn(),
            node.last_error()
        );
    };
    caught_up(&node);
    assert_eq!(answers(node.server()), answers(&server), "bootstrapped");

    // Between checkpoints: appends, a replace, a delete, a second score.
    pc.execute("append to GADGET (name = \"trautonium\", n = 3)")
        .expect("append");
    pc.execute("range of g is GADGET\nreplace g (n = 20) where g.name = \"ondes\"")
        .expect("replace");
    pc.execute("range of g is GADGET\ndelete g where g.n = 1")
        .expect("delete");
    let mut second = bwv578_subject();
    second.title = "Fuge g-moll (2)".into();
    pc.store_score(&second).expect("store second score");
    caught_up(&node);
    assert_eq!(
        answers(node.server()),
        answers(&server),
        "between checkpoints"
    );

    // A checkpoint on the primary: the replica folds at its marker.
    server.with_manager_mut(|m| m.save()).expect("save");
    let folds = node
        .server()
        .with_manager(|m| m.metrics_snapshot().counter("mdm_repl_checkpoints_total"));
    pc.execute("range of g is GADGET\ndelete g where g.name = \"trautonium\"")
        .expect("delete after save");
    caught_up(&node);
    let after = node
        .server()
        .with_manager(|m| m.metrics_snapshot().counter("mdm_repl_checkpoints_total"));
    assert!(after > folds, "the replica folded: {folds:?} -> {after:?}");
    assert_eq!(answers(node.server()), answers(&server), "after a fold");

    // Promoted, the node answers the same, then takes writes of its own.
    node.promote().expect("promote");
    assert_eq!(answers(node.server()), answers(&server), "after promote");
    let mut rc = client(&node.addr().to_string());
    rc.execute("append to GADGET (name = \"synthi\", n = 4)")
        .expect("write to the promoted node");
    rc.store_score(&bwv578_subject())
        .expect("store on the promoted node");
    let (_, scores, rows) = answers(node.server());
    assert_eq!(scores.len(), 3);
    assert_eq!(rows[0].len(), 2, "{:?}", rows[0]);

    drop(rc);
    node.shutdown().expect("promoted shutdown");
    server.shutdown().expect("primary shutdown");
}
