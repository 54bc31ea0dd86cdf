//! The replica node: a full MDM server whose write-ahead log is fed by
//! a pull loop streaming from a primary, instead of by local
//! transactions.
//!
//! The replica serves the normal read path — `query_shared` over the
//! wire, metrics, score retrieval — while refusing every write with a
//! typed `ReadOnly` error. Replica reads run against the in-memory
//! database under the server's read lock: they never touch the engine,
//! take no engine locks, and never abort — even while the pull loop
//! applies the primary's WAL underneath them.
//!
//! The stream feeds both halves of the node the same rows. The log and
//! the pages take the records verbatim, folding at every
//! [`WalRecord::Checkpoint`] marker (the primary guarantees no
//! transaction spans one). The in-memory database takes each committed
//! transaction's heap records on the image tables, buffered per
//! transaction and applied at its `Commit` through the same row decoders
//! a load uses ([`persist::apply`]) — so between checkpoints and across
//! them a replica reads exactly what the primary committed, with nothing
//! re-executed and nothing skipped. The one exception is a fresh replica:
//! its stream starts at the primary's archive snapshot, whose earlier
//! history exists only as page images, so it loads its model from the
//! pages of its first fold and applies rows from there.
//!
//! Promotion is [`ReplicaNode::promote`]: refused while the replica has
//! not applied everything the primary acknowledged as durable, otherwise
//! the local log is folded, the role flips, and the LSN space simply
//! continues — the old primary can later re-seed as a replica of the new
//! one. The model needs nothing at promotion: it already holds every
//! committed row, at the record ids the fold leaves them in.

use crate::error::{ReplError, Result};
use crate::metrics::ReplMetrics;
use mdm_core::{cmn_schema, CoreError, MusicDataManager};
use mdm_model::persist::{self, RowChange};
use mdm_net::{ClientConfig, MdmClient, MdmServer, ServerConfig};
use mdm_storage::catalog::Catalog;
use mdm_storage::{Rid, StorageEngine, TableId, TxnId, Wal, WalRecord};
use std::collections::HashMap;
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
    /// The replica's applied watermark after the last batch.
    applied: AtomicU64,
    /// Primary send stamp (its monotonic µs) of the newest pull
    /// response; `0` until the primary first answers.
    last_stamp: AtomicU64,
    /// Primary send stamp as of which the replica's applied state was
    /// last current — `lag_seconds = last_stamp - applied_stamp`.
    applied_stamp: AtomicU64,
    /// Last pull-loop error, for status surfacing.
    last_error: Mutex<Option<String>>,
}

/// Folds the replica engine's streamed log into its pages and flips it
/// back to primary. The engine-level half of promotion, shared with the
/// pair torture harness (which promotes bare engines, no server).
pub fn promote_engine(engine: &StorageEngine) -> Result<()> {
    engine.replica_refresh()?;
    engine.set_replica(false)?;
    Ok(())
}

/// A running replica: an [`MdmServer`] serving reads plus the pull
/// thread feeding its WAL from the primary.
pub struct ReplicaNode {
    /// `Some` until [`ReplicaNode::shutdown`] takes it.
    server: Option<Arc<MdmServer>>,
    engine: StorageEngine,
    state: Arc<PullState>,
    metrics: ReplMetrics,
    puller: Option<JoinHandle<()>>,
}

impl ReplicaNode {
    /// Opens (or creates) the database in `dir` as a replica, starts its
    /// read-only server on `listen`, and spawns the pull loop against
    /// `cfg.primary_addr`. The replica role is persisted in the data
    /// directory, so a restarted node comes back as a replica and
    /// resumes the stream from its local watermark.
    pub fn start(dir: &Path, listen: &str, cfg: ReplicaConfig) -> Result<ReplicaNode> {
        let mut mdm = MusicDataManager::open(dir)?;
        mdm.set_replica(true)?;
        let engine = mdm.engine().clone();
        let metrics = ReplMetrics::register(&mdm.metrics_registry());
        // Lag rules on top of the engine defaults: a replica that falls
        // behind its thresholds goes critical (`/healthz` 503), so a
        // load balancer stops routing reads to stale data.
        mdm.monitor()
            .seed_replica_rules(cfg.lag_alert_bytes as f64, cfg.lag_alert_seconds);
        let server = Arc::new(MdmServer::start(mdm, listen, cfg.server.clone())?);
        server.set_read_only(true);
        let state = Arc::new(PullState {
            stop: AtomicBool::new(false),
            apply_paused: AtomicBool::new(false),
            primary_durable: AtomicU64::new(0),
            applied: AtomicU64::new(engine.wal_next_lsn()),
            last_stamp: AtomicU64::new(0),
            applied_stamp: AtomicU64::new(0),
            last_error: Mutex::new(None),
        });
        let puller = {
            let server = Arc::clone(&server);
            let engine = engine.clone();
            let state = Arc::clone(&state);
            let metrics = metrics.clone();
            std::thread::Builder::new()
                .name("mdm-repl-pull".into())
                .spawn(move || pull_loop(&server, &engine, &state, &metrics, &cfg))
                .map_err(ReplError::Io)?
        };
        Ok(ReplicaNode {
            server: Some(server),
            engine,
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

    /// The replica's applied watermark. Published by the pull loop only
    /// after a batch has landed fully — log, pages, AND the live
    /// in-memory database — so a reader that observes `applied_lsn() >=
    /// x` sees every transaction committed at or below `x` in its
    /// queries.
    pub fn applied_lsn(&self) -> u64 {
        self.state.applied.load(Ordering::Acquire)
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

    /// The last pull-loop error, if any (cleared by a successful pull).
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
    /// Refused with [`ReplError::Stale`] — leaving the node replicating,
    /// untouched — unless the replica has applied everything the primary
    /// ever acknowledged as durable; promoting a stale replica would
    /// silently drop acknowledged commits. On success the pull loop
    /// stops, the streamed log is folded into the pages, and the node
    /// starts accepting writes. The LSN space continues where the stream
    /// left off.
    pub fn promote(&mut self) -> Result<()> {
        let applied = self.engine.wal_next_lsn();
        let required = self.state.primary_durable.load(Ordering::Acquire);
        if applied < required {
            return Err(ReplError::Stale { applied, required });
        }
        self.stop_puller();
        self.engine.replica_refresh()?;
        self.server().with_manager_mut(|m| m.set_replica(false))?;
        self.server().set_read_only(false);
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

/// The pull loop: stream, split at checkpoint markers, fold, apply
/// committed rows, publish lag.
fn pull_loop(
    server: &MdmServer,
    engine: &StorageEngine,
    state: &PullState,
    metrics: &ReplMetrics,
    cfg: &ReplicaConfig,
) {
    let mut client: Option<MdmClient> = None;
    let mut stream = match Stream::resume(engine) {
        Ok(s) => s,
        Err(e) => {
            record_error(state, metrics, &format!("resume: {e}"));
            return;
        }
    };
    // Bytes per record from the last non-empty batch, for lag estimates.
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
        let from = engine.wal_next_lsn();
        let (batch, durable, stamp) = match c.repl_pull(cfg.replica_id, from, cfg.max_batch_bytes) {
            Ok(r) => r,
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
            // fresh, the local log does not move, so both lag gauges
            // grow with the primary's write load.
            publish_lag(server, state, metrics, avg_record_bytes);
            idle(state, cfg.poll_interval);
            continue;
        }
        if batch.is_empty() {
            if engine.wal_next_lsn() >= durable {
                // Drained: our applied state is current as of this pull.
                state.applied_stamp.store(stamp, Ordering::Release);
            }
            publish_lag(server, state, metrics, avg_record_bytes);
            idle(state, cfg.poll_interval);
            continue;
        }
        let bytes: usize = batch.iter().map(|(_, p)| p.len() + 12).sum();
        avg_record_bytes = (bytes as u64 / batch.len() as u64).max(1);
        match apply_batch(server, engine, metrics, &mut stream, &batch) {
            Ok(()) => {
                *state.last_error.lock().expect("repl error lock") = None;
                state
                    .applied
                    .store(engine.wal_next_lsn(), Ordering::Release);
                metrics.applied_lsn.set(engine.wal_next_lsn() as i64);
                if engine.wal_next_lsn() >= durable {
                    // Caught up to everything this pull knew about: our
                    // applied state is current as of its send stamp.
                    state.applied_stamp.store(stamp, Ordering::Release);
                }
                publish_lag(server, state, metrics, avg_record_bytes);
            }
            Err(e) => {
                // A log or fold failure leaves the local watermark where
                // it was, so the next pull retries the same span. A
                // committed row the model cannot take is a defect, and
                // surfaces here rather than being skipped.
                record_error(state, metrics, &format!("apply: {e}"));
            }
        }
        // One pull per interval, drained or not: the pair
        // `max_batch_bytes` / `poll_interval` bounds both the pull rate
        // and the catch-up throughput.
        idle(state, cfg.poll_interval);
    }
}

/// What the pull loop knows of the stream beyond the pages: table names
/// by id, and the row changes of transactions whose `Commit` has not
/// arrived yet.
struct Stream {
    tables: HashMap<TableId, String>,
    pending: HashMap<TxnId, Vec<RowChange>>,
    /// True until a fresh replica's first fold: its model is then loaded
    /// from the folded pages, and rows apply live from there on.
    bootstrapping: bool,
}

impl Stream {
    /// Picks the stream up where the local log ends. A fresh replica
    /// (an empty log) bootstraps. A restarted one loaded its model from
    /// pages recovery rebuilt from the local log, which holds every
    /// committed transaction — but a transaction whose `Commit` has not
    /// arrived yet is in the log and not in the pages: its rows are
    /// re-read from the log.
    fn resume(engine: &StorageEngine) -> Result<Stream> {
        let mut stream = Stream {
            tables: HashMap::new(),
            pending: HashMap::new(),
            bootstrapping: engine.wal_next_lsn() == 0,
        };
        for name in engine.table_names() {
            stream.tables.insert(engine.table_id(&name)?, name);
        }
        if !stream.bootstrapping {
            let (records, _) = Wal::replay(engine.dir())?;
            for rec in &records {
                // Committed ones are already in the model.
                stream.track(rec);
            }
        }
        Ok(stream)
    }

    /// Follows one record; returns the row changes of the transaction it
    /// commits, if it is a `Commit`.
    fn track(&mut self, rec: &WalRecord) -> Option<Vec<RowChange>> {
        match rec {
            WalRecord::CatalogSnapshot { bytes } => {
                if let Ok(cat) = Catalog::from_bytes(bytes) {
                    self.tables = cat.tables.into_iter().map(|(n, m)| (m.id, n)).collect();
                }
            }
            WalRecord::Insert {
                txn,
                table,
                rid,
                body,
            } => self.change(*txn, *table, *rid, None, Some(body)),
            WalRecord::Update {
                txn,
                table,
                rid,
                old,
                new,
            } => self.change(*txn, *table, *rid, Some(old), Some(new)),
            WalRecord::Delete {
                txn,
                table,
                rid,
                old,
            } => self.change(*txn, *table, *rid, Some(old), None),
            WalRecord::Commit { txn } => return self.pending.remove(txn),
            WalRecord::Abort { txn } => {
                self.pending.remove(txn);
            }
            _ => {}
        }
        None
    }

    fn change(
        &mut self,
        txn: TxnId,
        table: TableId,
        rid: Rid,
        old: Option<&Vec<u8>>,
        new: Option<&Vec<u8>>,
    ) {
        if self.bootstrapping {
            return;
        }
        let Some(name) = self.tables.get(&table) else {
            return;
        };
        self.pending.entry(txn).or_default().push(RowChange {
            table: name.clone(),
            rid: rid.to_u64(),
            old: old.cloned(),
            new: new.cloned(),
        });
    }
}

/// Applies one pulled batch span by span — a span ends at a checkpoint
/// marker or at the batch's end: the span goes to the local log, the rows
/// of every transaction it commits go to the in-memory database, and a
/// marker then folds and rotates the log. The stream state follows only
/// spans the log took, so a failed span is retried whole by the next pull.
fn apply_batch(
    server: &MdmServer,
    engine: &StorageEngine,
    metrics: &ReplMetrics,
    stream: &mut Stream,
    batch: &[(u64, Vec<u8>)],
) -> Result<()> {
    let records = batch
        .iter()
        .map(|(lsn, payload)| {
            WalRecord::decode(payload)
                .ok_or_else(|| ReplError::Protocol(format!("undecodable record at lsn {lsn}")))
        })
        .collect::<Result<Vec<_>>>()?;
    let mut start = 0usize;
    while start < records.len() {
        let end = records[start..]
            .iter()
            .position(|r| matches!(r, WalRecord::Checkpoint))
            .map_or(records.len(), |i| start + i + 1);
        engine.replica_apply(&batch[start..end])?;
        let committed: Vec<Vec<RowChange>> = records[start..end]
            .iter()
            .filter_map(|rec| stream.track(rec))
            .collect();
        if !committed.is_empty() {
            server.with_manager_mut(|m| -> Result<()> {
                for changes in &committed {
                    persist::apply(m.database_mut(), changes).map_err(CoreError::from)?;
                    metrics.txns_applied.inc();
                }
                Ok(())
            })?;
        }
        if matches!(records[end - 1], WalRecord::Checkpoint) {
            engine.replica_checkpoint()?;
            metrics.checkpoints.inc();
            if stream.bootstrapping {
                let mut db = persist::load(engine).map_err(CoreError::from)?;
                cmn_schema::install(&mut db)?;
                server.with_manager_mut(|m| *m.database_mut() = db);
                stream.bootstrapping = false;
            }
        }
        start = end;
    }
    metrics.batches.inc();
    metrics.records.add(batch.len() as u64);
    Ok(())
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

fn publish_lag(server: &MdmServer, state: &PullState, metrics: &ReplMetrics, avg: u64) {
    let applied = state.applied.load(Ordering::Acquire);
    let durable = state.primary_durable.load(Ordering::Acquire);
    let lag = durable.saturating_sub(applied).saturating_mul(avg);
    server.set_repl_lag_bytes(lag);
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
            applied: AtomicU64::new(0),
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
