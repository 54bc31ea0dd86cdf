//! End-to-end replication over a real loopback pair: a primary
//! [`MdmServer`], a [`ReplicaNode`] pulling from it, clients on both.

use mdm_core::stream::Feed;
use mdm_core::MusicDataManager;
use mdm_net::{introspect, ClientConfig, ErrorCode, MdmClient, MdmServer, NetError, ServerConfig};
use mdm_repl::{ReplError, ReplicaConfig, ReplicaNode};
use std::time::{Duration, Instant};

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

/// `\replica status` on the node `server` serves, through `c`: the
/// summary of [`introspect::REPLICA_STATUS`] over `$metrics` as of a
/// sample taken now, as `(role, applied_lsn, replicas)`. Polls (up to ten
/// seconds) until `until` holds: a puller counts as connected once its
/// counter moved within the latest sampling interval.
fn replica_status(
    server: &MdmServer,
    c: &mut MdmClient,
    until: impl Fn(&str, i64, i64) -> bool,
) -> (String, i64, i64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        server.with_manager(|m| m.monitor().sample_now());
        let series = c.query(introspect::REPLICA_STATUS).expect("status");
        let summary = introspect::replica_summary(&series);
        let row = &summary.rows[0];
        let field = |i: usize| row[i].as_integer().expect("integer field");
        let status = (
            row[0].as_str().expect("role").to_string(),
            field(1),
            field(4),
        );
        if until(&status.0, status.1, status.2) || Instant::now() > deadline {
            return status;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
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
    let (role, applied, _) = replica_status(node.server(), &mut rc, |_, _, _| true);
    assert_eq!(role, "replica");
    assert!(applied >= target as i64);
    let (role, _, replicas) = replica_status(&server, &mut pc, |_, _, n| n >= 1);
    assert_eq!(role, "primary");
    assert!(replicas >= 1, "primary sees its puller");

    // Writes to the replica are refused with the typed code.
    match rc.execute("append to GADGET (name = \"nope\")") {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::ReadOnly),
        other => panic!("expected typed ReadOnly refusal, got {other:?}"),
    }

    // A checkpoint truncates the primary's log; the replica resumes
    // across it and still serves the same rows.
    server
        .with_manager(|m| m.engine().checkpoint())
        .expect("primary checkpoint");
    pc.execute("append to GADGET (name = \"trautonium\")")
        .expect("primary execute post-checkpoint");
    let target = primary_durable(&server);
    assert!(node.wait_for_lsn(target, Duration::from_secs(10)));
    let table = rc
        .query("range of g is GADGET\nretrieve (g.name)")
        .expect("replica query after checkpoint");
    assert_eq!(table.rows.len(), 3);

    // Restart the replica: the role is sticky (the watermark row), the
    // stream resumes from the watermark, reads still work.
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
    let (role, _, _) = replica_status(node.server(), &mut rc, |_, _, _| true);
    assert_eq!(role, "primary", "promoted node reports primary role");

    drop(rc);
    let mdm = node.shutdown().expect("promoted shutdown");
    assert!(!mdm.is_replica());
    server.shutdown().expect("primary shutdown");
}

/// A committed transaction the replica's in-memory database cannot take
/// stops the replica at it: the error stays reported while the primary
/// keeps writing, the applied watermark stays below the primary's,
/// promotion is refused, and reads answer the history before it.
#[test]
fn a_transaction_the_model_cannot_take_stops_the_replica() {
    let (server, _dir_p) = start_primary("unapplied");
    let addr = server.local_addr().to_string();
    let dir_r = tempdir("unapplied-r");
    let mut node =
        ReplicaNode::start(&dir_r, "127.0.0.1:0", ReplicaConfig::new(&addr)).expect("replica");
    let mut pc = client(&addr);
    pc.execute("define entity PIECE (title = string)\nappend to PIECE (title = \"before\")")
        .expect("primary execute");
    assert!(node.wait_for_lsn(primary_durable(&server), Duration::from_secs(10)));

    // One byte is no entity row: the row decoders need an 8-byte id.
    server.with_manager_mut(|m| {
        let engine = m.engine();
        let notes = engine
            .table_id("__entities_NOTE")
            .expect("NOTE image table");
        let mut txn = engine.begin().expect("begin");
        engine.insert(&mut txn, notes, &[1]).expect("insert");
        engine.commit(txn).expect("commit");
    });
    pc.execute("append to PIECE (title = \"after\")")
        .expect("primary execute");
    let durable = primary_durable(&server);

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while node.last_error().is_none() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let error = node
        .last_error()
        .expect("the failed transaction is reported");
    assert!(error.contains("cannot be applied"), "{error}");
    // Ten poll intervals later nothing has moved past it.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(node.last_error(), Some(error));
    assert!(
        node.applied_lsn() < durable,
        "applied {} reached the primary's {durable}",
        node.applied_lsn()
    );
    match node.promote() {
        Err(ReplError::Stale { applied, required }) => assert!(applied < required),
        other => panic!("expected stale refusal, got {other:?}"),
    }
    let mut rc = client(&node.addr().to_string());
    let table = rc
        .query("range of p is PIECE\nretrieve (p.title)")
        .expect("replica query");
    let titles: Vec<&str> = table.rows.iter().filter_map(|r| r[0].as_str()).collect();
    assert_eq!(titles, ["before"]);

    drop(rc);
    node.shutdown().expect("replica shutdown");
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
    let (_, _, replicas) = replica_status(&server, &mut pc, |_, _, n| n >= 3);
    assert!(replicas >= 3, "primary sees {replicas} pullers");

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
/// across a checkpoint, and once promoted — including a replica that joins
/// after the primary's log no longer holds its history, and takes a seed.
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
        .expect("save: the history so far leaves the log");

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

    // A checkpoint on the primary: the caught-up replica resumes across
    // it without a second seed.
    server.with_manager_mut(|m| m.save()).expect("save");
    pc.execute("range of g is GADGET\ndelete g where g.name = \"trautonium\"")
        .expect("delete after save");
    caught_up(&node);
    assert_eq!(seeds(&node), Some(1), "one seed, at the start");
    assert_eq!(
        answers(node.server()),
        answers(&server),
        "after a checkpoint"
    );

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

/// Seeds installed by the node behind `node`, as its registry counts them.
fn seeds(node: &ReplicaNode) -> Option<u64> {
    node.server()
        .with_manager(|m| m.metrics_snapshot().counter("mdm_repl_seeds_total"))
}

/// Waits until `node` holds everything `server` made durable.
fn catch_up(node: &ReplicaNode, server: &MdmServer) {
    let target = primary_durable(server);
    assert!(
        node.wait_for_lsn(target, Duration::from_secs(10)),
        "replica stuck at {} (target {target}): {:?}",
        node.applied_lsn(),
        node.last_error()
    );
}

/// A replica started after the primary checkpointed cannot stream the
/// history the checkpoint truncated: it installs exactly one seed — from
/// several slices of one image when the seed outgrows the pull budget —
/// then answers what the primary answers and follows its later writes.
#[test]
fn a_replica_that_joins_after_a_checkpoint_installs_one_seed_in_slices() {
    use mdm_notation::fixtures::bwv578_subject;
    const MAX_BATCH: u32 = 4096;
    let (server, _dir_p) = start_primary("seed");
    let mut pc = client(&server.local_addr().to_string());
    pc.execute(
        "define entity GADGET (name = string, n = integer)\n\
         append to GADGET (name = \"theremin\", n = 1)",
    )
    .expect("primary execute");
    pc.store_score(&bwv578_subject()).expect("store score");
    server.with_manager_mut(|m| m.save()).expect("save");
    let seed = server.with_manager(|m| m.repl_pull(0, 0, usize::MAX));
    match seed.expect("a pull from 0 after a checkpoint") {
        (Feed::Seed(whole), _) => assert!(whole.total > 4 * MAX_BATCH as u64),
        other => panic!("expected a whole seed, got {other:?}"),
    }

    let mut cfg = ReplicaConfig::new(&server.local_addr().to_string());
    cfg.max_batch_bytes = MAX_BATCH;
    cfg.poll_interval = Duration::from_millis(1);
    let node = ReplicaNode::start(&tempdir("seed-r"), "127.0.0.1:0", cfg).expect("start");
    catch_up(&node, &server);
    assert_eq!(seeds(&node), Some(1));
    assert_eq!(answers(node.server()), answers(&server), "seeded");
    pc.execute("append to GADGET (name = \"ondes\", n = 2)")
        .expect("append");
    catch_up(&node, &server);
    assert_eq!(seeds(&node), Some(1), "streams after the seed");
    assert_eq!(answers(node.server()), answers(&server), "after the seed");

    node.shutdown().expect("replica shutdown");
    server.shutdown().expect("primary shutdown");
}

/// A caught-up replica needs no seed across a primary checkpoint, a
/// primary restart, or its own restart: each resumes from the log.
#[test]
fn a_caught_up_replica_resumes_without_a_seed() {
    let (server, dir_p) = start_primary("resume");
    let addr = server.local_addr().to_string();
    let dir_r = tempdir("resume-r");
    let node = ReplicaNode::start(&dir_r, "127.0.0.1:0", ReplicaConfig::new(&addr))
        .expect("start replica");
    let mut pc = client(&addr);
    pc.execute("define entity PIECE (title = string)\nappend to PIECE (title = \"one\")")
        .expect("primary execute");
    catch_up(&node, &server);

    // A primary checkpoint.
    server.with_manager_mut(|m| m.save()).expect("save");
    pc.execute("append to PIECE (title = \"two\")")
        .expect("append");
    catch_up(&node, &server);

    // A primary restart, on the same address.
    drop(pc);
    server.shutdown().expect("primary shutdown");
    let mdm = MusicDataManager::open(&dir_p).expect("reopen primary");
    let server = MdmServer::start(mdm, &addr, ServerConfig::default()).expect("restart primary");
    let mut pc = client(&addr);
    pc.execute("append to PIECE (title = \"three\")")
        .expect("append");
    catch_up(&node, &server);
    assert_eq!(
        seeds(&node),
        Some(0),
        "no seed across a checkpoint or a restart"
    );

    // Its own restart.
    node.shutdown().expect("replica shutdown");
    pc.execute("append to PIECE (title = \"four\")")
        .expect("append");
    let node = ReplicaNode::start(&dir_r, "127.0.0.1:0", ReplicaConfig::new(&addr))
        .expect("restart replica");
    catch_up(&node, &server);
    assert_eq!(seeds(&node), Some(0), "no seed across its own restart");
    let titles = node
        .server()
        .with_manager(|m| m.query_shared("range of p is PIECE\nretrieve (p.title)"))
        .expect("replica query");
    assert_eq!(titles.rows.len(), 4);

    node.shutdown().expect("replica shutdown");
    server.shutdown().expect("primary shutdown");
}

/// A replica whose watermark is past a primary's durable log holds
/// history that primary never had: the primary refuses its pull typed,
/// the replica stops pulling and refuses promotion as diverged.
#[test]
fn a_replica_ahead_of_its_primary_refuses_promotion() {
    let (first, _dir_a) = start_primary("ahead-a");
    let dir_r = tempdir("ahead-r");
    let node = ReplicaNode::start(
        &dir_r,
        "127.0.0.1:0",
        ReplicaConfig::new(&first.local_addr().to_string()),
    )
    .expect("start replica");
    let mut pc = client(&first.local_addr().to_string());
    pc.execute("define entity GADGET (name = string)")
        .expect("ddl");
    for i in 0..30 {
        pc.execute(&format!("append to GADGET (name = \"g{i}\")"))
            .expect("append");
    }
    catch_up(&node, &first);
    let applied = node.applied_lsn();
    node.shutdown().expect("replica shutdown");
    drop(pc);
    first.shutdown().expect("first primary shutdown");

    // A fresh primary with a shorter history.
    let (second, _dir_b) = start_primary("ahead-b");
    let mut pc = client(&second.local_addr().to_string());
    pc.execute("define entity OTHER (name = string)\nappend to OTHER (name = \"x\")")
        .expect("primary execute");
    assert!(primary_durable(&second) < applied);

    let mut node = ReplicaNode::start(
        &dir_r,
        "127.0.0.1:0",
        ReplicaConfig::new(&second.local_addr().to_string()),
    )
    .expect("restart replica");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while node.last_error().is_none() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let error = node.last_error().expect("the refusal is reported");
    assert!(error.contains("diverged"), "{error}");
    match node.promote() {
        Err(ReplError::Diverged(_)) => {}
        other => panic!("expected a diverged refusal, got {other:?}"),
    }
    assert_eq!(
        node.applied_lsn(),
        applied,
        "nothing applied from the second primary"
    );

    node.shutdown().expect("replica shutdown");
    second.shutdown().expect("second primary shutdown");
}

/// Failover with siblings: once one replica is promoted, a sibling
/// re-pointed at it answers what the promoted node answers. A sibling at
/// the promoted watermark may resume from the promoted log; one behind
/// it holds history the promoted log does not serve, and gets a seed.
#[test]
fn a_sibling_re_pointed_at_a_promoted_replica_answers_what_it_answers() {
    let (primary, _dir_p) = start_primary("failover");
    let addr = primary.local_addr().to_string();
    let mut pc = client(&addr);
    let start = |tag: &str| {
        let dir = tempdir(tag);
        let node = ReplicaNode::start(&dir, "127.0.0.1:0", ReplicaConfig::new(&addr))
            .expect("start replica");
        (node, dir)
    };
    let (mut promoted, _dir_a) = start("failover-a");
    let (level, dir_level) = start("failover-level");
    let (behind, dir_behind) = start("failover-behind");
    pc.execute("define entity GADGET (name = string, n = integer)")
        .expect("ddl");
    for i in 0..10 {
        pc.execute(&format!("append to GADGET (name = \"g{i}\", n = {i})"))
            .expect("append");
    }
    catch_up(&behind, &primary);
    behind.set_apply_paused(true);
    pc.execute("range of g is GADGET\nreplace g (n = g.n + 100) where g.n < 5")
        .expect("replace");
    catch_up(&promoted, &primary);
    catch_up(&level, &primary);
    drop(pc);
    primary.shutdown().expect("primary shutdown");

    promoted.promote().expect("promote");
    let new_addr = promoted.addr().to_string();
    let mut nc = client(&new_addr);
    nc.execute("append to GADGET (name = \"after\", n = 99)")
        .expect("the promoted node takes writes");
    for (node, dir, seeded) in [(level, dir_level, None), (behind, dir_behind, Some(1))] {
        node.shutdown().expect("sibling shutdown");
        let node = ReplicaNode::start(&dir, "127.0.0.1:0", ReplicaConfig::new(&new_addr))
            .expect("re-point sibling");
        catch_up(&node, promoted.server());
        assert_eq!(answers(node.server()), answers(promoted.server()));
        if seeded.is_some() {
            assert_eq!(seeds(&node), seeded, "a sibling behind is seeded");
        }
        node.shutdown().expect("sibling shutdown");
    }
    drop(nc);
    promoted.shutdown().expect("promoted shutdown");
}
