//! Wire-level fault injection: a deterministic TCP fault proxy between a
//! real [`MdmClient`] and a real [`MdmServer`].
//!
//! The proxy forwards byte-exact traffic until a scripted fault is armed:
//! corrupt one byte of the next response frame (the CRC32 payload
//! checksum must catch it, typed), cut the connection in the middle of a
//! response frame (the client must redial transparently, exactly once),
//! or black-hole the next request (the client must time out typed and
//! must NOT redial — the request may still execute server-side, and
//! replaying a write could double-apply it).

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mdm_core::MusicDataManager;
use mdm_net::{wire, ClientConfig, DecodeError, MdmClient, MdmServer, NetError, ServerConfig};

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mdm-netfault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn start_server(tag: &str) -> MdmServer {
    let dir = tempdir(tag);
    let mdm = MusicDataManager::open(&dir).expect("open mdm");
    MdmServer::start(mdm, "127.0.0.1:0", ServerConfig::default()).expect("start server")
}

/// Scripted one-shot faults, armed by the test between requests.
#[derive(Default)]
struct FaultScript {
    /// Flip one byte of the next server→client frame.
    corrupt_next_response: AtomicBool,
    /// Forward only this many bytes of the next server→client frame,
    /// then close both directions (`usize::MAX` = disarmed).
    cut_next_response_at: AtomicUsize,
    /// Swallow client→server bytes (the server never sees the request,
    /// the client never gets a response).
    blackhole_requests: AtomicBool,
}

/// A deterministic TCP proxy: every client connection gets its own
/// upstream connection and two pump threads. The server→client pump is
/// frame-aware, so faults land on exact frame boundaries.
struct FaultProxy {
    addr: String,
    accepted: Arc<AtomicU32>,
    script: Arc<FaultScript>,
}

impl FaultProxy {
    fn start(upstream: String) -> FaultProxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let addr = listener.local_addr().expect("proxy addr").to_string();
        let accepted = Arc::new(AtomicU32::new(0));
        let script = Arc::new(FaultScript {
            cut_next_response_at: AtomicUsize::new(usize::MAX),
            ..FaultScript::default()
        });
        {
            let accepted = Arc::clone(&accepted);
            let script = Arc::clone(&script);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    let Ok(client) = conn else { break };
                    accepted.fetch_add(1, Ordering::SeqCst);
                    let Ok(server) = TcpStream::connect(&upstream) else {
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    };
                    let (c2, s2) = (
                        client.try_clone().expect("clone"),
                        server.try_clone().expect("clone"),
                    );
                    let script_up = Arc::clone(&script);
                    std::thread::spawn(move || pump_requests(c2, s2, &script_up));
                    let script_down = Arc::clone(&script);
                    std::thread::spawn(move || pump_responses(server, client, &script_down));
                }
            });
        }
        FaultProxy {
            addr,
            accepted,
            script,
        }
    }

    fn connections(&self) -> u32 {
        self.accepted.load(Ordering::SeqCst)
    }
}

/// client → server: byte pump; a black-holed request is read (so the
/// client's write succeeds) and dropped on the floor.
fn pump_requests(mut from: TcpStream, mut to: TcpStream, script: &FaultScript) {
    let mut buf = [0u8; 4096];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => {
                let _ = to.shutdown(Shutdown::Both);
                return;
            }
            Ok(n) => n,
        };
        if script.blackhole_requests.load(Ordering::SeqCst) {
            continue;
        }
        if to.write_all(&buf[..n]).is_err() {
            let _ = from.shutdown(Shutdown::Both);
            return;
        }
    }
}

/// server → client: frame-aware pump applying the scripted faults.
fn pump_responses(mut from: TcpStream, mut to: TcpStream, script: &FaultScript) {
    loop {
        // Read one complete frame from the server. Responses are always
        // Plain frames (no trace extension): header + payload.
        let mut frame = vec![0u8; wire::HEADER_LEN];
        if from.read_exact(&mut frame).is_err() {
            let _ = to.shutdown(Shutdown::Both);
            return;
        }
        let payload_len = u32::from_le_bytes(frame[16..20].try_into().unwrap()) as usize;
        let start = frame.len();
        frame.resize(start + payload_len, 0);
        if from.read_exact(&mut frame[start..]).is_err() {
            let _ = to.shutdown(Shutdown::Both);
            return;
        }

        if script.corrupt_next_response.swap(false, Ordering::SeqCst) {
            // Flip the last byte: a payload byte when there is one, the
            // checksum field itself when the payload is empty — either
            // way the CRC comparison must fail.
            let n = frame.len();
            frame[n - 1] ^= 0x20;
        }
        let cut = script
            .cut_next_response_at
            .swap(usize::MAX, Ordering::SeqCst);
        if cut != usize::MAX {
            let keep = cut.clamp(1, frame.len() - 1);
            let _ = to.write_all(&frame[..keep]);
            let _ = to.shutdown(Shutdown::Both);
            let _ = from.shutdown(Shutdown::Both);
            return;
        }
        if to.write_all(&frame).is_err() {
            let _ = from.shutdown(Shutdown::Both);
            return;
        }
    }
}

fn proxied_client(proxy: &FaultProxy, timeout: Duration) -> MdmClient {
    MdmClient::connect(
        &proxy.addr,
        ClientConfig {
            request_timeout: timeout,
            ..ClientConfig::default()
        },
    )
    .expect("connect through proxy")
}

/// Corruption in flight: one flipped bit in a response frame must surface
/// as a typed checksum mismatch — never a garbled payload handed to the
/// application — and the next request must recover on a fresh dial.
#[test]
fn corrupted_response_is_caught_by_the_frame_checksum() {
    let server = start_server("corrupt");
    let proxy = FaultProxy::start(server.local_addr().to_string());
    let mut c = proxied_client(&proxy, Duration::from_secs(5));
    c.ping().expect("clean ping through the proxy");
    assert_eq!(proxy.connections(), 1);

    proxy
        .script
        .corrupt_next_response
        .store(true, Ordering::SeqCst);
    match c.query("range of s is SCORE\nretrieve (s.title)") {
        Err(NetError::Decode(DecodeError::ChecksumMismatch { expected, actual })) => {
            assert_ne!(expected, actual);
        }
        other => panic!("expected a typed checksum mismatch, got {other:?}"),
    }
    assert!(!c.is_connected(), "a poisoned stream must not be reused");

    // The fault was one-shot; the next request redials and succeeds.
    c.ping().expect("recovery after corruption");
    assert_eq!(proxy.connections(), 2, "recovery takes exactly one redial");

    server.shutdown().expect("shutdown");
}

/// A connection cut in the middle of a response frame: the client sees a
/// typed closed-connection error internally, transparently redials
/// exactly once, and the retried request succeeds.
#[test]
fn mid_frame_close_redials_exactly_once() {
    let server = start_server("cut");
    let proxy = FaultProxy::start(server.local_addr().to_string());
    let mut c = proxied_client(&proxy, Duration::from_secs(5));
    c.ping().expect("clean ping through the proxy");
    assert_eq!(proxy.connections(), 1);

    // Forward 10 bytes of the next response — less than a frame header —
    // then slam both directions shut.
    proxy
        .script
        .cut_next_response_at
        .store(10, Ordering::SeqCst);
    c.ping()
        .expect("a dead connection is worth one transparent retry");
    assert_eq!(
        proxy.connections(),
        2,
        "exactly one redial: initial connect + one reconnect"
    );

    // A second cut on the *redialed* connection is again survived —
    // the single-redial budget is per request, not per client.
    proxy.script.cut_next_response_at.store(3, Ordering::SeqCst);
    c.ping().expect("each request gets its own redial budget");
    assert_eq!(proxy.connections(), 3);

    server.shutdown().expect("shutdown");
}

/// A request that times out must surface [`NetError::Timeout`] and must
/// NOT be replayed on a fresh connection: the server may still execute
/// the original, and replaying a write would double-apply it.
#[test]
fn timeout_is_typed_and_never_redials() {
    let server = start_server("timeout");
    let proxy = FaultProxy::start(server.local_addr().to_string());
    let mut c = proxied_client(&proxy, Duration::from_millis(300));
    c.ping().expect("clean ping through the proxy");
    assert_eq!(proxy.connections(), 1);

    proxy
        .script
        .blackhole_requests
        .store(true, Ordering::SeqCst);
    match c.ping() {
        Err(NetError::Timeout) => {}
        other => panic!("expected a typed timeout, got {other:?}"),
    }
    assert_eq!(
        proxy.connections(),
        1,
        "a timed-out request must not be replayed on a new connection"
    );
    assert!(!c.is_connected(), "the stream is dead after a timeout");

    // Only the *next* request dials fresh — and succeeds once the
    // network heals.
    proxy
        .script
        .blackhole_requests
        .store(false, Ordering::SeqCst);
    c.ping().expect("recovery after the network heals");
    assert_eq!(proxy.connections(), 2);

    server.shutdown().expect("shutdown");
}
