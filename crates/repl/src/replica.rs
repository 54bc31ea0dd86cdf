//! The replica node: a full MDM server whose data arrives by a pull
//! loop streaming from a primary, instead of by local writes.
//!
//! The replica serves the normal read path — `query_shared` over the
//! wire, metrics, score retrieval — while refusing every write with a
//! typed `ReadOnly` error. Replica reads run against the in-memory
//! database under the server's read lock, concurrent with each other;
//! the pull loop applies a batch under the write lock.
//!
//! The loop pulls from the replica's cursor ([`MusicDataManager::
//! repl_cursor`]) and hands what it gets to [`MusicDataManager::
//! repl_apply`]: committed transactions are applied to the model and
//! committed into the replica's own engine with its watermark, in one
//! engine transaction; a seed's slices are gathered and the whole seed
//! replaces the image. A restarted replica resumes from its watermark
//! row. A committed transaction the model cannot take stops the loop
//! there ([`CoreError::Unapplied`]): the error stays reported and the
//! watermark stays below it, so the replica keeps answering the history
//! before it and is never promoted past it. A primary that refuses the
//! cursor as no point of its history stops the loop too, and the
//! replica then refuses promotion as [`ReplError::Diverged`].
//!
//! Promotion is [`ReplicaNode::promote`]: refused while the replica has
//! not applied everything the primary acknowledged as durable, otherwise
//! its log continues the primary's LSN space from the watermark and the
//! watermark row is deleted. That row is the role: the server holds no
//! copy of it, so the node accepts writes from the next request on. The
//! model needs nothing: it already holds every committed row.

use crate::error::{ReplError, Result};
use crate::metrics::ReplMetrics;
use mdm_core::stream::Feed;
use mdm_core::{CoreError, MusicDataManager};
use mdm_net::{ClientConfig, ErrorCode, MdmClient, MdmServer, NetError, ServerConfig};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for a [`ReplicaNode`].
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Address of the primary's MDM server.
    pub primary_addr: String,
    /// Identifies this replica in the primary's puller table.
    pub replica_id: u64,
    /// Idle delay between pulls when the stream is drained.
    pub poll_interval: Duration,
    /// Rough per-pull byte budget.
    pub max_batch_bytes: u32,
    /// Client knobs for the connection to the primary.
    pub client: ClientConfig,
    /// Server knobs for the replica's own listener (including the
    /// optional HTTP observability endpoint).
    pub server: ServerConfig,
    /// `repl_lag_bytes_high` alert threshold (critical after three
    /// breaching samples).
    pub lag_alert_bytes: u64,
    /// `repl_lag_seconds_high` alert threshold (critical after three
    /// breaching samples).
    pub lag_alert_seconds: f64,
}

impl ReplicaConfig {
    /// A config pulling from `primary_addr` with default knobs.
    pub fn new(primary_addr: &str) -> ReplicaConfig {
        ReplicaConfig {
            primary_addr: primary_addr.to_string(),
            replica_id: 1,
            poll_interval: Duration::from_millis(20),
            max_batch_bytes: 1 << 20,
            client: ClientConfig {
                client_name: "mdm-replica".into(),
                ..ClientConfig::default()
            },
            server: ServerConfig::default(),
            lag_alert_bytes: 8 << 20,
            lag_alert_seconds: 10.0,
        }
    }
}

/// State shared between the node handle and its pull thread.
struct PullState {
    /// Ask the pull thread to exit.
    stop: AtomicBool,
    /// Hold the replica behind: keep pulling (so watermarks and send
    /// stamps stay fresh and lag is *measured*) but apply nothing.
    /// Operational/test hook for exercising the lag alerts.
    apply_paused: AtomicBool,
    /// Highest primary durable watermark observed on any pull.
    primary_durable: AtomicU64,
    /// The primary refused the replica's cursor as past its durable log.
    diverged: AtomicBool,
    /// Primary send stamp (its monotonic µs) of the newest pull
    /// response; `0` until the primary first answers.
    last_stamp: AtomicU64,
    /// Primary send stamp as of which the replica's applied state was
    /// last current — `lag_seconds = last_stamp - applied_stamp`.
    applied_stamp: AtomicU64,
    /// Last pull-loop error, for status surfacing.
    last_error: Mutex<Option<String>>,
}

/// A running replica: an [`MdmServer`] serving reads plus the pull
/// thread feeding it from the primary.
pub struct ReplicaNode {
    /// `Some` until [`ReplicaNode::shutdown`] takes it.
    server: Option<Arc<MdmServer>>,
    state: Arc<PullState>,
    metrics: ReplMetrics,
    puller: Option<JoinHandle<()>>,
}

impl ReplicaNode {
    /// Opens (or creates) the database in `dir` as a replica, starts its
    /// read-only server on `listen`, and spawns the pull loop against
    /// `cfg.primary_addr`. A directory that is not a replica's yet
    /// becomes one that has applied nothing
    /// ([`MusicDataManager::become_replica`]). The role is the watermark
    /// row, so a restarted node comes back as a replica and resumes the
    /// stream from its watermark.
    pub fn start(dir: &Path, listen: &str, cfg: ReplicaConfig) -> Result<ReplicaNode> {
        let mut mdm = MusicDataManager::open(dir)?;
        mdm.become_replica()?;
        let metrics = ReplMetrics::register(&mdm.metrics_registry());
        // Lag rules on top of the engine defaults: a replica that falls
        // behind its thresholds goes critical (`/healthz` 503), so a
        // load balancer stops routing reads to stale data.
        mdm.monitor()
            .seed_replica_rules(cfg.lag_alert_bytes as f64, cfg.lag_alert_seconds);
        let server = Arc::new(MdmServer::start(mdm, listen, cfg.server.clone())?);
        let state = Arc::new(PullState {
            stop: AtomicBool::new(false),
            apply_paused: AtomicBool::new(false),
            primary_durable: AtomicU64::new(0),
            diverged: AtomicBool::new(false),
            last_stamp: AtomicU64::new(0),
            applied_stamp: AtomicU64::new(0),
            last_error: Mutex::new(None),
        });
        let puller = {
            let server = Arc::clone(&server);
            let state = Arc::clone(&state);
            let metrics = metrics.clone();
            std::thread::Builder::new()
                .name("mdm-repl-pull".into())
                .spawn(move || pull_loop(&server, &state, &metrics, &cfg))
                .map_err(ReplError::Io)?
        };
        Ok(ReplicaNode {
            server: Some(server),
            state,
            metrics,
            puller: Some(puller),
        })
    }

    /// The replica server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server().local_addr()
    }

    /// The replica's server (status, manager access).
    pub fn server(&self) -> &MdmServer {
        self.server.as_deref().expect("replica server taken")
    }

    /// The replica's applied watermark, a primary LSN: the
    /// `mdm_repl_applied_lsn` gauge, which the manager sets only once a
    /// batch has landed fully — committed locally and in the live
    /// in-memory database — so a reader that observes `applied_lsn() >= x`
    /// sees every transaction the primary committed below `x` in its
    /// queries.
    pub fn applied_lsn(&self) -> u64 {
        self.metrics.applied_lsn.get() as u64
    }

    /// Highest primary durable watermark observed so far.
    pub fn primary_durable_lsn(&self) -> u64 {
        self.state.primary_durable.load(Ordering::Acquire)
    }

    /// Holds the replica behind (`true`) or resumes it (`false`): the
    /// pull loop keeps pulling — watermarks, send stamps, and the lag
    /// gauges stay live — but applies nothing while paused, so the lag
    /// alerts measure a genuinely stale node. Fault-injection hook for
    /// health-check drills; a paused replica catches up on resume.
    pub fn set_apply_paused(&self, paused: bool) {
        self.state.apply_paused.store(paused, Ordering::SeqCst);
    }

    /// The last pull-loop error, if any (cleared by a successful pull;
    /// kept for good once a committed transaction cannot be applied).
    pub fn last_error(&self) -> Option<String> {
        self.state
            .last_error
            .lock()
            .expect("repl error lock")
            .clone()
    }

    /// Blocks until the replica has applied at least `lsn`, or the
    /// deadline passes. Returns whether it caught up.
    pub fn wait_for_lsn(&self, lsn: u64, deadline: Duration) -> bool {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if self.applied_lsn() >= lsn {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.applied_lsn() >= lsn
    }

    /// Controlled failover: promotes this replica to primary.
    ///
    /// Refused with [`ReplError::Diverged`] if the primary refused the
    /// replica's cursor, and with [`ReplError::Stale`] — leaving the node
    /// replicating, untouched — unless the replica has applied
    /// everything the primary ever acknowledged as durable
    /// ([`MusicDataManager::promote`]); promoting a stale replica would
    /// silently drop acknowledged commits. On success the watermark row
    /// is deleted, the pull loop stops, and the node starts accepting
    /// writes.
    pub fn promote(&mut self) -> Result<()> {
        if self.state.diverged.load(Ordering::Acquire) {
            return Err(ReplError::Diverged(self.last_error().unwrap_or_default()));
        }
        let required = self.state.primary_durable.load(Ordering::Acquire);
        self.server().with_manager_mut(|m| m.promote(required))?;
        self.stop_puller();
        self.metrics.promotes.inc();
        Ok(())
    }

    /// Stops the pull loop and shuts the server down gracefully,
    /// returning the manager (still a replica unless promoted).
    pub fn shutdown(mut self) -> Result<MusicDataManager> {
        self.stop_puller();
        let server = self.server.take().expect("replica server taken");
        let server = Arc::try_unwrap(server)
            .map_err(|_| ReplError::Protocol("replica server still shared at shutdown".into()))?;
        Ok(server.shutdown()?)
    }

    fn stop_puller(&mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.puller.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ReplicaNode {
    fn drop(&mut self) {
        self.stop_puller();
    }
}

/// The pull loop: pull from the cursor, apply, publish lag.
fn pull_loop(server: &MdmServer, state: &PullState, metrics: &ReplMetrics, cfg: &ReplicaConfig) {
    let mut client: Option<MdmClient> = None;
    // Primary log bytes per LSN from the last non-empty batch, for lag
    // estimates.
    let mut avg_record_bytes: u64 = 64;
    while !state.stop.load(Ordering::SeqCst) {
        let c = match client.as_mut() {
            Some(c) => c,
            None => match MdmClient::connect(&cfg.primary_addr, cfg.client.clone()) {
                Ok(c) => client.insert(c),
                Err(e) => {
                    record_error(state, metrics, &format!("connect: {e}"));
                    idle(state, cfg.poll_interval);
                    continue;
                }
            },
        };
        let cursor = server.with_manager(|m| m.repl_cursor());
        let (feed, durable, stamp) =
            match c.repl_pull_at(cfg.replica_id, cursor, cfg.max_batch_bytes) {
                Ok(r) => r,
                Err(NetError::Remote {
                    code: ErrorCode::Diverged,
                    message,
                }) => {
                    // The primary has no history at our cursor: pulling on
                    // would serve neither its history nor ours.
                    record_error(state, metrics, &format!("pull: {message}"));
                    state.diverged.store(true, Ordering::Release);
                    return;
                }
                Err(e) => {
                    record_error(state, metrics, &format!("pull: {e}"));
                    client = None;
                    idle(state, cfg.poll_interval);
                    continue;
                }
            };
        state.primary_durable.store(durable, Ordering::Release);
        note_stamp(state, stamp);
        if state.apply_paused.load(Ordering::SeqCst) {
            // Held behind on purpose: watermarks and stamps above stay
            // fresh, the applied watermark does not move, so both lag
            // gauges grow with the primary's write load.
            publish_lag(state, metrics, avg_record_bytes);
            idle(state, cfg.poll_interval);
            continue;
        }
        let from = metrics.applied_lsn.get() as u64;
        let txns = match &feed {
            Feed::Txns { txns, next_lsn } => {
                let bytes: usize = (txns.iter().flat_map(|t| &t.changes))
                    .map(|c| {
                        c.table.len()
                            + c.old.as_ref().map_or(0, Vec::len)
                            + c.new.as_ref().map_or(0, Vec::len)
                    })
                    .sum();
                if *next_lsn > from {
                    avg_record_bytes = (bytes as u64 / (next_lsn - from)).max(1);
                }
                txns.len() as u64
            }
            Feed::Seed(_) => 0,
        };
        match server.with_manager_mut(|m| {
            m.repl_apply(feed)
                .map(|seeded| (seeded, m.replica_watermark()))
        }) {
            Ok((seeded, watermark)) => {
                *state.last_error.lock().expect("repl error lock") = None;
                let applied = watermark.unwrap_or(from);
                if applied > from || seeded {
                    metrics.batches.inc();
                    metrics.records.add(applied.saturating_sub(from));
                    metrics.txns_applied.add(txns);
                }
                if seeded {
                    metrics.seeds.inc();
                }
                if applied >= durable {
                    // Caught up to everything this pull knew about: our
                    // applied state is current as of its send stamp.
                    state.applied_stamp.store(stamp, Ordering::Release);
                }
                publish_lag(state, metrics, avg_record_bytes);
            }
            // Promoted under the loop: nothing more to pull.
            Err(CoreError::NotReplica) => return,
            Err(e) => {
                // A failed commit leaves the watermark where it was, so
                // the next pull retries the same span. A committed
                // transaction the model cannot take stops the loop: the
                // next pull would fail on it again.
                record_error(state, metrics, &format!("apply: {e}"));
                if matches!(e, CoreError::Unapplied { .. }) {
                    return;
                }
            }
        }
        // One pull per interval, drained or not: the pair
        // `max_batch_bytes` / `poll_interval` bounds both the pull rate
        // and the catch-up throughput.
        idle(state, cfg.poll_interval);
    }
}

/// Records the primary's send stamp from one pull response.
fn note_stamp(state: &PullState, stamp: u64) {
    state.last_stamp.store(stamp, Ordering::Release);
    let base = state.applied_stamp.load(Ordering::Acquire);
    if base == 0 || stamp < base {
        // First contact: lag-in-seconds measures from the
        // moment we attached, not from the primary's boot. A stamp
        // *below* the base means the primary restarted and its
        // monotonic clock rebased — re-anchor to the new epoch so lag
        // resumes growing from there instead of reading 0 (via
        // saturating_sub) for as long as the replica stays behind;
        // lag_bytes covers the pre-restart gap meanwhile.
        state.applied_stamp.store(stamp, Ordering::Release);
    }
}

fn publish_lag(state: &PullState, metrics: &ReplMetrics, avg: u64) {
    let applied = metrics.applied_lsn.get() as u64;
    let durable = state.primary_durable.load(Ordering::Acquire);
    let lag = durable.saturating_sub(applied).saturating_mul(avg);
    metrics.lag_bytes.set(lag.min(i64::MAX as u64) as i64);
    // Seconds of lag, from primary-clock stamps alone: how far behind
    // "now on the primary" the applied state is. Zero while caught up
    // or before the first pull answered.
    let last = state.last_stamp.load(Ordering::Acquire);
    let base = state.applied_stamp.load(Ordering::Acquire);
    let lag_secs = if durable <= applied || last == 0 || base == 0 {
        0
    } else {
        (last.saturating_sub(base) as f64 / 1_000_000.0).round() as i64
    };
    metrics.lag_seconds.set(lag_secs);
}

fn record_error(state: &PullState, metrics: &ReplMetrics, msg: &str) {
    *state.last_error.lock().expect("repl error lock") = Some(msg.to_string());
    metrics.errors.inc();
}

/// Sleeps `interval` in small slices so a stop request is honored fast.
fn idle(state: &PullState, interval: Duration) {
    let start = Instant::now();
    while start.elapsed() < interval && !state.stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_state() -> PullState {
        PullState {
            stop: AtomicBool::new(false),
            apply_paused: AtomicBool::new(false),
            primary_durable: AtomicU64::new(0),
            diverged: AtomicBool::new(false),
            last_stamp: AtomicU64::new(0),
            applied_stamp: AtomicU64::new(0),
            last_error: Mutex::new(None),
        }
    }

    #[test]
    fn note_stamp_anchors_and_rebases() {
        let state = fresh_state();
        // First contact anchors the applied base.
        note_stamp(&state, 1_000_000);
        assert_eq!(state.applied_stamp.load(Ordering::Acquire), 1_000_000);
        // Later stamps advance last_stamp but leave the base to the
        // catch-up path.
        state.applied_stamp.store(5_000_000, Ordering::Release);
        note_stamp(&state, 9_000_000);
        assert_eq!(state.last_stamp.load(Ordering::Acquire), 9_000_000);
        assert_eq!(state.applied_stamp.load(Ordering::Acquire), 5_000_000);
        // A primary restart rebases its monotonic clock to near zero;
        // the base must follow so lag does not silently read 0 while
        // the replica is behind.
        note_stamp(&state, 300);
        assert_eq!(state.last_stamp.load(Ordering::Acquire), 300);
        assert_eq!(state.applied_stamp.load(Ordering::Acquire), 300);
    }
}
