//! The monitoring acceptance drill: a replica held behind a live
//! primary trips its lag alert, its `/healthz` flips to 503 (so a load
//! balancer would stop routing reads to stale data), and recovery
//! flips it back to 200 once the stream catches up.

use mdm_core::MusicDataManager;
use mdm_net::{introspect, ClientConfig, MdmClient, MdmServer, ServerConfig};
use mdm_repl::{ReplicaConfig, ReplicaNode};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mdm-health-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect http");
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
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
    (status, body)
}

/// Polls `target` until it answers `want` (or the deadline passes),
/// returning the last `(status, body)` seen.
fn wait_for_status(addr: SocketAddr, target: &str, want: u16, deadline: Duration) -> (u16, String) {
    let start = Instant::now();
    loop {
        let (status, body) = http_get(addr, target);
        if status == want || start.elapsed() > deadline {
            return (status, body);
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn paused_replica_trips_lag_alert_and_healthz_recovers() {
    // Primary with its observability endpoint and a fast sampler.
    let dir_p = tempdir("p");
    let mdm = MusicDataManager::open(&dir_p).expect("open primary");
    let pcfg = ServerConfig {
        http_addr: Some("127.0.0.1:0".into()),
        sample_interval: Duration::from_millis(25),
        ..ServerConfig::default()
    };
    let server = MdmServer::start(mdm, "127.0.0.1:0", pcfg).expect("start primary");
    let primary_http = server.http_addr().expect("primary http addr");
    let mut pc =
        MdmClient::connect(&server.local_addr().to_string(), ClientConfig::default()).expect("pc");
    pc.execute("define entity HEALTHDRILL (name = string)")
        .expect("ddl");

    // Replica with hair-trigger lag thresholds: any sustained lag at
    // all goes critical, so the drill runs in milliseconds.
    let dir_r = tempdir("r");
    let mut cfg = ReplicaConfig::new(&server.local_addr().to_string());
    cfg.server.http_addr = Some("127.0.0.1:0".into());
    cfg.server.sample_interval = Duration::from_millis(25);
    cfg.lag_alert_bytes = 1;
    cfg.lag_alert_seconds = 0.5;
    let node = ReplicaNode::start(&dir_r, "127.0.0.1:0", cfg).expect("start replica");
    let replica_http = node.server().http_addr().expect("replica http addr");

    let target = server.with_manager(|m| m.engine().wal_durable_lsn());
    assert!(node.wait_for_lsn(target, Duration::from_secs(10)));
    let (status, body) = wait_for_status(replica_http, "/healthz", 200, Duration::from_secs(5));
    assert_eq!(status, 200, "caught-up replica unhealthy: {body}");

    // Hold the replica behind — pulls continue, nothing applies — and
    // keep writing on the primary so the durable watermark runs ahead.
    node.set_apply_paused(true);
    for i in 0..10 {
        pc.execute(&format!("append to HEALTHDRILL (name = \"e{i}\")"))
            .expect("primary append");
    }
    let (status, body) = wait_for_status(replica_http, "/healthz", 503, Duration::from_secs(10));
    assert_eq!(status, 503, "lag alert never fired: {body}");
    assert!(body.contains("repl_lag_bytes_high"), "body: {body}");
    assert!(body.contains("\"state\":\"firing\""), "body: {body}");

    // `$alerts` over the wire (what `\health` runs) agrees with the
    // endpoint.
    let mut rc = MdmClient::connect(&node.addr().to_string(), ClientConfig::default()).expect("rc");
    let alerts = rc.query(introspect::HEALTH).expect("$alerts over the wire");
    assert!(
        !introspect::healthy(&alerts),
        "wire health disagrees with /healthz:\n{alerts}"
    );
    assert!(
        alerts.to_string().contains("repl_lag_bytes_high"),
        "{alerts}"
    );

    // The lag gauges are exported; the primary's status page shows its
    // role and the replica pulling from it.
    let (status, body) = http_get(replica_http, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("mdm_repl_lag_bytes"), "body: {body}");
    assert!(body.contains("mdm_repl_lag_seconds"), "body: {body}");
    let (status, body) = http_get(primary_http, "/statusz");
    assert_eq!(status, 200);
    assert!(body.contains("\"role\": \"primary\""), "body: {body}");
    let (status, _) = http_get(primary_http, "/healthz");
    assert_eq!(status, 200, "healthy primary");

    // Resume: the replica catches up and — after the hysteresis window
    // of healthy samples — goes green again.
    node.set_apply_paused(false);
    let target = server.with_manager(|m| m.engine().wal_durable_lsn());
    assert!(node.wait_for_lsn(target, Duration::from_secs(10)));
    let (status, body) = wait_for_status(replica_http, "/healthz", 200, Duration::from_secs(10));
    assert_eq!(status, 200, "replica never recovered: {body}");

    drop(rc);
    drop(pc);
    node.shutdown().expect("replica shutdown");
    server.shutdown().expect("primary shutdown");
}
