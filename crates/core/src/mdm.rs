//! The Music Data Manager: "a service to other programs, known as
//! clients" (§2, fig. 1).
//!
//! One MDM owns a durable entity-relationship database (backed by the
//! storage engine) with the CMN schema installed, and exposes:
//!
//! * the data languages — DDL and QUEL with the ordering operators —
//!   via [`MusicDataManager::execute`] and [`MusicDataManager::query`];
//! * score services — [`store_score`], [`load_score`], DARMS import and
//!   export — so "a music analysis program can easily process the output
//!   of a composition program, if both use the same MDM";
//! * persistence — [`MusicDataManager::save`] checkpoints the database
//!   through the write-ahead-logged storage engine.
//!
//! [`store_score`]: MusicDataManager::store_score
//! [`load_score`]: MusicDataManager::load_score

use std::path::Path;
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use mdm_lang::{PlanExplain, QuelMetrics, Session, StmtResult, Table};
use mdm_model::{persist, Database, EntityId};
use mdm_notation::{Score, TimeSignature, Voice};
use mdm_obs::{
    Counter, HealthReport, Monitor, MonitorConfig, Registry, Snapshot, StatementStore, Tracer,
};
use mdm_storage::StorageEngine;

use crate::cmn_schema;
use crate::error::{CoreError, Result};
use crate::score_store;

/// The one wire protocol version the MDM stack speaks. `mdm-net`
/// re-exports it as `wire::PROTOCOL_VERSION` and refuses any other at
/// `Hello`; here it is the `protocol` label on `mdm_build_info`.
pub const WIRE_PROTOCOL_VERSION: u16 = 5;

/// Engine table holding the statement journal: the QUEL text of every
/// successful `execute` since the last [`MusicDataManager::save`], each
/// row `seq:u64 LE ++ utf8 text`. Replayed (in sequence order) at open
/// so mutations are durable *between* whole-database checkpoints, and
/// dropped at save once the checkpoint carries their effects. Writing
/// it runs a real engine transaction — locks, buffer pool, WAL append,
/// group-commit fsync — which is also what threads genuine storage
/// spans into every traced `execute` request. Public because a replica
/// watches the replicated WAL stream for inserts into this table and
/// applies the journaled statement text to its own in-memory database,
/// keeping reads fresh between checkpoints.
pub const JOURNAL_TABLE: &str = "__stmt_journal";

/// Engine table carrying the statistics images across restarts: one row
/// per kind, a tag byte (1 = statement store, 2 = access statistics)
/// followed by the kind's own binary encoding. Rewritten on every
/// [`MusicDataManager::save`] just before the checkpoint, restored (best
/// effort — a malformed image is ignored, never fatal) at open.
const STATS_TABLE: &str = "__stats";

/// One `mdm_requests_total{client=…,api=…}` counter per public MDM entry
/// point, grouped by the kind of client the paper's fig. 1 anticipates:
/// language clients (QUEL), score/notation clients, DARMS translators,
/// persistence, and diagnostics.
struct RequestCounters {
    execute: Arc<Counter>,
    query: Arc<Counter>,
    query_shared: Arc<Counter>,
    explain: Arc<Counter>,
    store_score: Arc<Counter>,
    load_score: Arc<Counter>,
    find_score: Arc<Counter>,
    list_scores: Arc<Counter>,
    import_darms: Arc<Counter>,
    export_darms: Arc<Counter>,
    save: Arc<Counter>,
    census: Arc<Counter>,
}

impl RequestCounters {
    fn register(registry: &Registry) -> RequestCounters {
        let c = |client, api| {
            registry.counter_labeled(
                "mdm_requests_total",
                "client requests served by the music data manager",
                &[("client", client), ("api", api)],
            )
        };
        RequestCounters {
            execute: c("quel", "execute"),
            query: c("quel", "query"),
            query_shared: c("quel", "query_shared"),
            explain: c("quel", "explain"),
            store_score: c("score", "store_score"),
            load_score: c("score", "load_score"),
            find_score: c("score", "find_score"),
            list_scores: c("score", "list_scores"),
            import_darms: c("darms", "import"),
            export_darms: c("darms", "export"),
            save: c("persist", "save"),
            census: c("diagnostics", "census"),
        }
    }
}

/// The music data manager.
pub struct MusicDataManager {
    engine: StorageEngine,
    db: Database,
    /// The clients' persistent session: `range of` declarations carry
    /// from one `execute` / `query` / `explain` to the next.
    session: Session,
    /// The session for statements no client of this MDM issued (journal
    /// replay, the replication stream): it carries their `range of`
    /// declarations but no statement store — they are not executions.
    applier: Session,
    registry: Registry,
    quel: Arc<QuelMetrics>,
    requests: RequestCounters,
    tracer: Tracer,
    /// Per-fingerprint statement statistics, shared with every session
    /// this MDM hands out and persisted through [`save`](Self::save).
    stmt_store: Arc<StatementStore>,
    /// The continuous-monitoring subsystem: time-series recorder and
    /// health rules over [`registry`](Self::metrics_registry). Opened
    /// passive (on-demand sampling, no thread); servers call
    /// [`Monitor::enable_sampling`] through
    /// [`monitor`](Self::monitor) to start the background sampler.
    monitor: Arc<Monitor>,
    /// Next statement-journal sequence number (max persisted + 1).
    journal_seq: u64,
    /// Replica mode: the durable state is owned by a replication
    /// stream, so every local write path (execute, save) is refused.
    replica: bool,
}

impl MusicDataManager {
    /// Opens (or creates) a music database in `dir`, running storage
    /// recovery if needed, loading the persisted database, and installing
    /// the CMN schema on first use.
    ///
    /// One [`Registry`] spans every layer: the storage engine, the QUEL
    /// pipeline, and the MDM's own request counters all register into it,
    /// so [`metrics_snapshot`](Self::metrics_snapshot) captures the whole
    /// stack at once.
    pub fn open(dir: &Path) -> Result<MusicDataManager> {
        let registry = Registry::new();
        let engine =
            StorageEngine::open_with_registry(dir, mdm_storage::DEFAULT_POOL_PAGES, &registry)?;
        Self::finish_open(engine, registry)
    }

    /// As [`MusicDataManager::open`] with an explicit buffer-pool
    /// capacity, sourcing every storage file from `vfs`. Fault-injection
    /// harnesses use this to interpose on each I/O the full stack
    /// performs — schema install, journal appends, saves — while
    /// production callers use the plain-file default.
    pub fn open_with_vfs(
        dir: &Path,
        pool_pages: usize,
        vfs: &dyn mdm_storage::Vfs,
    ) -> Result<MusicDataManager> {
        let registry = Registry::new();
        let engine = StorageEngine::open_with_vfs(dir, pool_pages, &registry, vfs)?;
        Self::finish_open(engine, registry)
    }

    fn finish_open(engine: StorageEngine, registry: Registry) -> Result<MusicDataManager> {
        let quel = QuelMetrics::register(&registry);
        let requests = RequestCounters::register(&registry);
        let tracer = Tracer::new();
        tracer.register_metrics(&registry);
        registry
            .gauge_labeled(
                "mdm_build_info",
                "build metadata carried as labels; the value is always 1",
                &[
                    ("version", env!("CARGO_PKG_VERSION")),
                    ("protocol", &WIRE_PROTOCOL_VERSION.to_string()),
                ],
            )
            .set(1);
        registry
            .gauge(
                "mdm_process_start_seconds",
                "unix time at which this MDM opened its store",
            )
            .set(
                SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map(|d| d.as_secs() as i64)
                    .unwrap_or(0),
            );
        let stmt_store = Arc::new(StatementStore::new());
        let (db, applier, journal_seq) = load_database(&engine, &quel, &stmt_store)?;
        // The monitor opens passive — no background thread until a
        // server enables sampling — but carries the default health
        // rules (and process gauges) from the first moment, so
        // `$alerts` and `\health` are meaningful even embedded.
        let monitor = Monitor::start(registry.clone(), MonitorConfig::disabled());
        monitor.seed_default_rules();
        let mut session = Session::with_metrics(Arc::clone(&quel));
        session.set_statement_store(Arc::clone(&stmt_store));
        session.set_monitor(Arc::clone(&monitor));
        // A replica marker in the data dir survives restarts: the
        // engine opened in replica mode, and the MDM must match.
        let replica = engine.is_replica();
        Ok(MusicDataManager {
            engine,
            db,
            session,
            applier,
            registry,
            quel,
            requests,
            tracer,
            stmt_store,
            monitor,
            journal_seq,
            replica,
        })
    }

    /// Flips replica mode, on the MDM and its engine together. A
    /// replica refuses [`execute`](Self::execute) and
    /// [`save`](Self::save) — its WAL is fed by
    /// [`StorageEngine::replica_apply`] and a local append would
    /// collide with the primary's LSN space. Promoting a caught-up
    /// replica is `set_replica(false)`: the LSN space simply continues.
    /// The role sticks across restarts (a marker file in the data dir).
    pub fn set_replica(&mut self, on: bool) -> Result<()> {
        self.engine.set_replica(on)?;
        self.replica = on;
        Ok(())
    }

    /// Whether this MDM is currently a replica.
    pub fn is_replica(&self) -> bool {
        self.replica
    }

    /// The tracer every layer under this MDM records spans through. The
    /// network server adopts it for its per-request root spans; the
    /// shell and tests tune sampling and slow thresholds on it.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// A point-in-time snapshot of every metric in the MDM's registry —
    /// storage engine, QUEL pipeline, and request counters together.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// The continuous-monitoring subsystem: the time-series recorder
    /// and health rules engine over this MDM's registry. Passive until
    /// a caller enables sampling.
    pub fn monitor(&self) -> Arc<Monitor> {
        Arc::clone(&self.monitor)
    }

    /// The rules engine's current verdict — what `/healthz` serves and
    /// what the rows of `$alerts` add up to.
    pub fn health(&self) -> HealthReport {
        self.monitor.health()
    }

    /// The registry all MDM layers report into (shares state with the
    /// engine's [`StorageEngine::metrics_registry`]).
    pub fn metrics_registry(&self) -> Registry {
        self.registry.clone()
    }

    /// The in-memory database (read access for clients).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutable database access (for clients that build structures
    /// directly rather than through QUEL).
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The underlying storage engine (diagnostics, benchmarks).
    pub fn engine(&self) -> &StorageEngine {
        &self.engine
    }

    /// Executes a program of DDL / QUEL statements. On success the
    /// program text is appended to the engine's statement journal in a
    /// real (WAL-logged, group-committed) transaction, so the mutation
    /// survives a crash even before the next [`save`](Self::save).
    pub fn execute(&mut self, text: &str) -> Result<Vec<StmtResult>> {
        self.refuse_if_replica()?;
        self.requests.execute.inc();
        let results = self.session.execute(&mut self.db, text)?;
        self.journal_append(text)?;
        Ok(results)
    }

    /// Applies a statement that arrived through the replication stream
    /// to the in-memory database only — no journal append (the journal
    /// row itself arrives in the replicated WAL), no replica-mode
    /// refusal and no `$statements` record (the primary's clients ran
    /// it, not this node's). Best effort, like journal replay at open: a
    /// statement the replica's current image cannot execute is skipped;
    /// the next checkpoint reload resynchronizes from storage.
    pub fn apply_replicated_statement(&mut self, text: &str) -> bool {
        apply_internal(&mut self.applier, &mut self.db, text)
    }

    /// Rebuilds the in-memory database from the engine's current pages:
    /// persisted image, CMN schema, statistics, journal replay — the
    /// same sequence `open` runs. A replica calls this after folding a
    /// replicated checkpoint so its reads reflect exactly the storage
    /// state, discarding any drift the best-effort live statement
    /// application accumulated.
    pub fn reload_from_storage(&mut self) -> Result<()> {
        (self.db, self.applier, self.journal_seq) =
            load_database(&self.engine, &self.quel, &self.stmt_store)?;
        Ok(())
    }

    /// Appends one executed program to the statement journal.
    fn journal_append(&mut self, text: &str) -> Result<()> {
        let table = match self.engine.table_id(JOURNAL_TABLE) {
            Ok(t) => t,
            Err(_) => self.engine.create_table(JOURNAL_TABLE)?,
        };
        let mut body = Vec::with_capacity(8 + text.len());
        body.extend_from_slice(&self.journal_seq.to_le_bytes());
        body.extend_from_slice(text.as_bytes());
        let mut txn = self.engine.begin()?;
        self.engine.insert(&mut txn, table, &body)?;
        self.engine.commit(txn)?;
        self.journal_seq += 1;
        Ok(())
    }

    /// Executes a *read-only* program (`range of` declarations and
    /// `retrieve` statements) on the MDM's persistent session and
    /// returns the last statement's rows (errors if the last statement
    /// produced no table). Range declarations carry over to later
    /// calls; a mutating statement is rejected, as on
    /// [`query_shared`](Self::query_shared) — mutations go through
    /// [`execute`](Self::execute), which journals them.
    pub fn query(&mut self, text: &str) -> Result<Table> {
        self.requests.query.inc();
        read(&mut self.session, &self.db, text)
    }

    /// [`query`] on the shared read path. Takes `&self`: any number of
    /// reader clients can query one shared MDM concurrently, with no
    /// exclusive access required. Range declarations are local to the
    /// call rather than carried in the session.
    ///
    /// The program runs against the in-memory database alone and never
    /// touches the storage engine, so it cannot wait at the engine's
    /// gate behind a commit in progress. The
    /// database it reads is replaced only through `&mut self`
    /// (`reload_from_storage`), which a shared borrow excludes.
    ///
    /// [`query`]: MusicDataManager::query
    pub fn query_shared(&self, text: &str) -> Result<Table> {
        self.requests.query_shared.inc();
        read(&mut self.fresh_session(), &self.db, text)
    }

    /// Explains (and executes) a read-only program: `range of`
    /// declarations plus `retrieve` statements. Returns the access paths
    /// the QUEL planner chose — per-variable scan / index-eq /
    /// index-range / ord decisions with estimated row counts — alongside
    /// the rows, which is what the shell's `\plan` renders. Mutating
    /// statements are rejected, so nothing is journaled.
    pub fn explain(&mut self, text: &str) -> Result<(PlanExplain, Table)> {
        self.requests.explain.inc();
        Ok(self.session.explain(&self.db, text)?)
    }

    /// [`explain`] on the shared read path: takes `&self` so the server
    /// can answer EXPLAIN requests under its read lock, concurrently
    /// with queries. Range declarations are local to the call.
    ///
    /// [`explain`]: MusicDataManager::explain
    pub fn explain_shared(&self, text: &str) -> Result<(PlanExplain, Table)> {
        self.requests.explain.inc();
        Ok(self.fresh_session().explain(&self.db, text)?)
    }

    /// A throwaway session wired like the persistent one: same metrics,
    /// same statement store (so shared-path queries are recorded and
    /// `$statements` sees the full history), same monitor.
    fn fresh_session(&self) -> Session {
        let mut session = Session::with_metrics(Arc::clone(&self.quel));
        session.set_statement_store(Arc::clone(&self.stmt_store));
        session.set_monitor(Arc::clone(&self.monitor));
        session
    }

    /// The statement store every session of this MDM records into.
    pub fn statement_store(&self) -> Arc<StatementStore> {
        Arc::clone(&self.stmt_store)
    }

    /// Persists the database through the storage engine and checkpoints.
    /// The statement journal is dropped afterwards: the checkpointed
    /// image now carries every journaled statement's effect, so a
    /// reopen must not replay them a second time.
    pub fn save(&mut self) -> Result<()> {
        if self.replica {
            return Err(CoreError::Storage(mdm_storage::StorageError::Replication(
                "a replica's durable state is owned by the replication stream".into(),
            )));
        }
        self.requests.save.inc();
        persist::save(&self.db, &self.engine)?;
        self.write_stats_image()?;
        if self.engine.table_id(JOURNAL_TABLE).is_ok() {
            self.engine.drop_table(JOURNAL_TABLE)?;
        }
        self.journal_seq = 0;
        self.engine.checkpoint()?;
        Ok(())
    }

    /// Rewrites the [`STATS_TABLE`] image: the statement store and the
    /// access statistics, each tagged, so the checkpoint carries them.
    fn write_stats_image(&mut self) -> Result<()> {
        if self.engine.table_id(STATS_TABLE).is_ok() {
            self.engine.drop_table(STATS_TABLE)?;
        }
        let table = self.engine.create_table(STATS_TABLE)?;
        let mut txn = self.engine.begin()?;
        for (tag, payload) in [
            (1u8, self.stmt_store.encode()),
            (2u8, self.db.stats().encode()),
        ] {
            let mut body = Vec::with_capacity(1 + payload.len());
            body.push(tag);
            body.extend_from_slice(&payload);
            self.engine.insert(&mut txn, table, &body)?;
        }
        self.engine.commit(txn)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Score services
    // ------------------------------------------------------------------

    /// Stores a score, returning its SCORE entity id.
    pub fn store_score(&mut self, score: &Score) -> Result<EntityId> {
        self.refuse_if_replica()?;
        self.requests.store_score.inc();
        score_store::store_score(&mut self.db, score)
    }

    /// Typed refusal shared by the write-path entry points.
    fn refuse_if_replica(&self) -> Result<()> {
        if self.replica {
            return Err(CoreError::Storage(mdm_storage::StorageError::Replication(
                "this node is a replica; writes must go to the primary".into(),
            )));
        }
        Ok(())
    }

    /// Loads a stored score by entity id.
    pub fn load_score(&self, id: EntityId) -> Result<Score> {
        self.requests.load_score.inc();
        score_store::load_score(&self.db, id)
    }

    /// Finds a stored score by exact title.
    pub fn find_score(&self, title: &str) -> Result<Option<EntityId>> {
        self.requests.find_score.inc();
        score_store::find_score(&self.db, title)
    }

    /// Lists stored scores as (entity id, title).
    pub fn list_scores(&self) -> Result<Vec<(EntityId, String)>> {
        self.requests.list_scores.inc();
        score_store::list_scores(&self.db)
    }

    /// Imports a DARMS-encoded voice as a one-voice score.
    pub fn import_darms(
        &mut self,
        title: &str,
        darms: &str,
        meter: TimeSignature,
    ) -> Result<EntityId> {
        self.refuse_if_replica()?;
        self.requests.import_darms.inc();
        let items = mdm_darms::parse(darms)?;
        let voice = mdm_darms::to_voice(&items)?;
        let mut movement =
            mdm_notation::Movement::new("imported", meter, mdm_notation::TempoMap::default());
        movement.voices.push(voice);
        let mut score = Score::new(title);
        score.movements.push(movement);
        score_store::store_score(&mut self.db, &score)
    }

    /// Exports a stored score's given voice as canonical DARMS.
    pub fn export_darms(
        &self,
        score_id: EntityId,
        movement: usize,
        voice: usize,
    ) -> Result<String> {
        self.requests.export_darms.inc();
        let score = score_store::load_score(&self.db, score_id)?;
        let m = score
            .movements
            .get(movement)
            .ok_or_else(|| CoreError::BadScoreData(format!("no movement {movement}")))?;
        let v: &Voice = m
            .voices
            .get(voice)
            .ok_or_else(|| CoreError::BadScoreData(format!("no voice {voice}")))?;
        let items = mdm_darms::from_voice(v, m.meter)?;
        Ok(mdm_darms::emit(&mdm_darms::canonize(&items)))
    }

    /// The fig. 11 census over the live database.
    pub fn census(&self) -> String {
        self.requests.census.inc();
        cmn_schema::census(&self.db)
    }
}

/// The body of `query` and `query_shared`: a read-only program's last
/// table.
fn read(session: &mut Session, db: &Database, text: &str) -> Result<Table> {
    match session.execute_readonly(db, text)?.pop() {
        Some(StmtResult::Rows(t)) => Ok(t),
        other => Err(CoreError::Internal(format!(
            "query did not end in a retrieve: {other:?}"
        ))),
    }
}

/// Applies statement text some other execution already acknowledged — a
/// journaled program at open, a replicated one on a replica — through
/// the store-less `applier` session. Returns whether it executed.
fn apply_internal(applier: &mut Session, db: &mut Database, text: &str) -> bool {
    applier.execute(db, text).is_ok()
}

/// Builds the in-memory database from the engine's current pages:
/// persisted image, CMN schema, statistics, then the journal replayed
/// through a fresh store-less session — replayed statements recreate
/// their access-statistics side effects but are not executions. Returns
/// the database, that session and the next journal sequence number.
fn load_database(
    engine: &StorageEngine,
    quel: &Arc<QuelMetrics>,
    store: &StatementStore,
) -> Result<(Database, Session, u64)> {
    let mut db = persist::load(engine)?;
    cmn_schema::install(&mut db)?;
    load_stats(engine, store, &db)?;
    let mut applier = Session::with_metrics(Arc::clone(quel));
    let journal_seq = replay_journal(engine, &mut applier, &mut db)?;
    Ok((db, applier, journal_seq))
}

/// Restores the persisted statistics images, if present. Best effort:
/// rows with unknown tags or malformed payloads are skipped — statistics
/// must never fail an open.
fn load_stats(engine: &StorageEngine, store: &StatementStore, db: &Database) -> Result<()> {
    let Ok(table) = engine.table_id(STATS_TABLE) else {
        return Ok(());
    };
    // Lock-free snapshot read: stats restore never contends with (or
    // aborts under) concurrent writers.
    let rows = engine.snapshot().scan(table)?;
    for (_, body) in rows {
        match body.split_first() {
            Some((1, rest)) => {
                store.restore(rest);
            }
            Some((2, rest)) => {
                db.stats().restore(rest);
            }
            _ => {}
        }
    }
    Ok(())
}

/// Replays the statement journal (if any) into `db` in sequence order,
/// returning the next free sequence number. A statement that no longer
/// executes cleanly (e.g. its table was since dropped by DDL that was
/// itself lost) is skipped rather than failing the open: the journal is
/// best-effort crash durability, not a second source of truth.
fn replay_journal(engine: &StorageEngine, applier: &mut Session, db: &mut Database) -> Result<u64> {
    let Ok(table) = engine.table_id(JOURNAL_TABLE) else {
        return Ok(0);
    };
    // Snapshot read: one consistent view of the journal, no locks.
    let rows = engine.snapshot().scan(table)?;
    let mut entries: Vec<(u64, String)> = Vec::with_capacity(rows.len());
    for (_, body) in rows {
        if body.len() < 8 {
            continue;
        }
        let seq = u64::from_le_bytes(body[..8].try_into().unwrap());
        if let Ok(text) = String::from_utf8(body[8..].to_vec()) {
            entries.push((seq, text));
        }
    }
    entries.sort_by_key(|(seq, _)| *seq);
    let mut next = 0;
    for (seq, text) in entries {
        next = next.max(seq + 1);
        apply_internal(applier, db, &text);
    }
    Ok(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdm_model::Value;
    use mdm_notation::fixtures::bwv578_subject;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("mdm-core-{}-{}", std::process::id(), name));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    /// Crash injected at the fsync of a journal commit: the statement
    /// whose commit never became durable must vanish wholesale on
    /// reopen, the ones before it must replay, and the store must keep
    /// working.
    #[test]
    fn journal_replay_survives_a_crash_mid_append() {
        use mdm_storage::{At, FaultController, FaultKind, FaultPlan};

        // Probe: the same workload fault-free, to learn which fsync
        // carries the third statement's journal commit.
        let sync_target = {
            let dir = tmpdir("journal-crash-probe");
            let ctl = FaultController::new(FaultPlan::none());
            let mut mdm = MusicDataManager::open_with_vfs(&dir, 64, &ctl.vfs()).unwrap();
            mdm.execute("define entity JOURNALED (n = int)").unwrap();
            mdm.execute("append to JOURNALED (n = 1)").unwrap();
            mdm.execute("append to JOURNALED (n = 2)").unwrap();
            let s = ctl.syncs();
            std::mem::forget(mdm);
            std::fs::remove_dir_all(&dir).ok();
            s
        };

        let dir = tmpdir("journal-crash");
        let ctl =
            FaultController::new(FaultPlan::none().with(At::Sync(sync_target), FaultKind::Crash));
        let mut mdm = MusicDataManager::open_with_vfs(&dir, 64, &ctl.vfs()).unwrap();
        mdm.execute("define entity JOURNALED (n = int)").unwrap();
        mdm.execute("append to JOURNALED (n = 1)").unwrap();
        mdm.execute("append to JOURNALED (n = 2)").unwrap();
        mdm.execute("append to JOURNALED (n = 3)")
            .expect_err("the crashed commit must surface an error");
        assert!(ctl.crashed(), "the planted crash must have fired");
        std::mem::forget(mdm); // the "process" died: no shutdown checkpoint

        // Reopen on plain files: recovery plus journal replay restore
        // exactly the durable statements.
        let mut mdm = MusicDataManager::open(&dir).unwrap();
        let t = mdm
            .query("range of j is JOURNALED\nretrieve (j.n)")
            .unwrap();
        assert_eq!(t.len(), 2, "rows after recovery: {:?}", t.rows);
        // The reopened store accepts new work end-to-end.
        mdm.execute("append to JOURNALED (n = 4)").unwrap();
        let t = mdm
            .query("range of j is JOURNALED\nretrieve (j.n)")
            .unwrap();
        assert_eq!(t.len(), 3);
        mdm.save().unwrap();
        drop(mdm);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_execute_query() {
        let dir = tmpdir("open");
        let mut mdm = MusicDataManager::open(&dir).unwrap();
        mdm.execute("append to PERSON (name = \"Bach\")").unwrap();
        let t = mdm.query("retrieve (PERSON.name)").unwrap();
        assert_eq!(t.len(), 1);
        drop(mdm);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_and_reload_across_open() {
        let dir = tmpdir("persist");
        let id;
        {
            let mut mdm = MusicDataManager::open(&dir).unwrap();
            id = mdm.store_score(&bwv578_subject()).unwrap();
            mdm.save().unwrap();
        }
        let mdm = MusicDataManager::open(&dir).unwrap();
        let score = mdm.load_score(id).unwrap();
        assert_eq!(score, bwv578_subject());
        assert_eq!(mdm.find_score("Fuge g-moll").unwrap(), Some(id));
        drop(mdm);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_query_needs_no_exclusive_access() {
        let dir = tmpdir("shared-query");
        let mut mdm = MusicDataManager::open(&dir).unwrap();
        mdm.execute("append to PERSON (name = \"Bach\")").unwrap();
        mdm.execute("append to PERSON (name = \"Telemann\")")
            .unwrap();
        // Concurrent readers over one &MusicDataManager.
        std::thread::scope(|s| {
            for _ in 0..4 {
                let mdm = &mdm;
                s.spawn(move || {
                    let t = mdm
                        .query_shared("range of p is PERSON\nretrieve (p.name)")
                        .unwrap();
                    assert_eq!(t.len(), 2);
                });
            }
        });
        // Mutating statements are rejected on the shared path.
        assert!(mdm
            .query_shared("append to PERSON (name = \"nope\")")
            .is_err());
        drop(mdm);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quel_sees_stored_scores() {
        let dir = tmpdir("quel");
        let mut mdm = MusicDataManager::open(&dir).unwrap();
        mdm.store_score(&bwv578_subject()).unwrap();
        // The paper's §5.6 style query over real score data: notes under
        // the third chord of the subject voice.
        let t = mdm
            .query(
                "range of n is NOTE\n\
                 range of c is CHORD\n\
                 range of s is SYNC\n\
                 retrieve (n.midi_key) where n under c in note_in_chord \
                 and c under s in chord_at_sync and s.time_num = 2 and s.time_den = 1",
            )
            .unwrap();
        assert_eq!(t.len(), 1, "one note sounds at beat 2");
        assert_eq!(t.rows[0][0], mdm_model::Value::Integer(70), "Bb4");
        drop(mdm);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn darms_import_export() {
        let dir = tmpdir("darms");
        let mut mdm = MusicDataManager::open(&dir).unwrap();
        let id = mdm
            .import_darms(
                "test fragment",
                "'G 'K2# 1Q 2Q 3H / R2W //",
                TimeSignature::common(),
            )
            .unwrap();
        let score = mdm.load_score(id).unwrap();
        assert_eq!(score.movements[0].voices[0].elements.len(), 5);
        let out = mdm.export_darms(id, 0, 0).unwrap();
        assert!(out.contains("'K2#"), "{out}");
        assert!(out.contains("21Q"), "{out}");
        drop(mdm);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_surface_reports_requests_and_engine_activity() {
        let dir = tmpdir("metrics");
        let mut mdm = MusicDataManager::open(&dir).unwrap();
        mdm.execute("append to PERSON (name = \"Bach\")").unwrap();
        assert_eq!(mdm.query("retrieve (PERSON.name)").unwrap().len(), 1);
        mdm.query_shared("retrieve (PERSON.name)").unwrap();
        let id = mdm.store_score(&bwv578_subject()).unwrap();
        mdm.load_score(id).unwrap();
        mdm.find_score("Fuge g-moll").unwrap();
        mdm.list_scores().unwrap();
        mdm.import_darms("frag", "'G 1Q 2Q //", TimeSignature::common())
            .unwrap();
        mdm.export_darms(id, 0, 0).unwrap();
        mdm.census();
        mdm.save().unwrap();

        let snap = mdm.metrics_snapshot();
        let req = |client, api| {
            snap.counter_with("mdm_requests_total", &[("client", client), ("api", api)])
                .unwrap_or(0)
        };
        // Every public entry point counts exactly its own invocations —
        // internal reuse (query→run, export→score_store) must not
        // double-count.
        assert_eq!(req("quel", "execute"), 1);
        assert_eq!(req("quel", "query"), 1);
        assert_eq!(req("quel", "query_shared"), 1);
        assert_eq!(req("score", "store_score"), 1);
        assert_eq!(req("score", "load_score"), 1);
        assert_eq!(req("score", "find_score"), 1);
        assert_eq!(req("score", "list_scores"), 1);
        assert_eq!(req("darms", "import"), 1);
        assert_eq!(req("darms", "export"), 1);
        assert_eq!(req("persist", "save"), 1);
        assert_eq!(req("diagnostics", "census"), 1);

        // The engine and QUEL pipeline report into the same registry.
        assert!(snap.counter("mdm_txn_begins_total").unwrap() > 0);
        assert!(snap.counter("mdm_wal_appends_total").unwrap() > 0);
        assert!(snap.counter("mdm_quel_rows_returned_total").unwrap() >= 2);
        assert!(snap.histogram("mdm_quel_exec_micros").unwrap().count > 0);
        let scans = snap.counter_with("mdm_quel_plan_total", &[("path", "scan")]);
        assert!(
            scans.unwrap() > 0,
            "unindexed retrieves count as scan plans"
        );
        // The names the benchmark's probes and the operator surfaces
        // read; a rename must fail here, not zero a probe silently.
        for name in [
            "mdm_pool_hits_total",
            "mdm_pool_misses_total",
            "mdm_pool_evictions_total",
            "mdm_wal_fsyncs_total",
            "mdm_wal_fsync_micros",
            "mdm_wal_group_commit_batch",
            "mdm_wal_eviction_syncs_total",
            "mdm_txn_commits_total",
            "mdm_txn_aborts_total",
            "mdm_txn_active",
            "mdm_txn_begins_total",
            "mdm_quel_rows_scanned_total",
            "mdm_monitor_samples_total",
        ] {
            assert!(
                snap.entries.iter().any(|e| e.name == name),
                "metric {name} missing from the snapshot"
            );
        }
        assert_eq!(
            mdm.engine()
                .metrics_snapshot()
                .counter("mdm_txn_begins_total"),
            snap.counter("mdm_txn_begins_total"),
            "engine and MDM share one registry"
        );
        drop(mdm);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn statement_journal_survives_reopen_without_save() {
        let dir = tmpdir("journal");
        {
            let mut mdm = MusicDataManager::open(&dir).unwrap();
            mdm.execute("append to PERSON (name = \"Bach\")").unwrap();
            mdm.execute("range of p is PERSON\nappend to PERSON (name = \"Telemann\")")
                .unwrap();
            // No save: the rows exist only as journaled statements.
        }
        {
            let mut mdm = MusicDataManager::open(&dir).unwrap();
            let t = mdm.query("retrieve (PERSON.name)").unwrap();
            assert_eq!(t.len(), 2, "journal replayed both appends");
            // Save folds the journal into the checkpoint and drops it.
            mdm.save().unwrap();
            assert!(mdm.engine().table_id("__stmt_journal").is_err());
        }
        let mut mdm = MusicDataManager::open(&dir).unwrap();
        let t = mdm.query("retrieve (PERSON.name)").unwrap();
        assert_eq!(t.len(), 2, "no double replay after save");
        drop(mdm);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn build_info_and_start_time_registered_at_open() {
        let dir = tmpdir("buildinfo");
        let mdm = MusicDataManager::open(&dir).unwrap();
        let snap = mdm.metrics_snapshot();
        let info = snap
            .entries
            .iter()
            .find(|e| e.name == "mdm_build_info")
            .expect("mdm_build_info registered");
        assert!(info
            .labels
            .iter()
            .any(|(k, v)| k == "version" && v == env!("CARGO_PKG_VERSION")));
        assert!(info
            .labels
            .iter()
            .any(|(k, v)| k == "protocol" && *v == WIRE_PROTOCOL_VERSION.to_string()));
        let start = snap.gauge("mdm_process_start_seconds").unwrap();
        assert!(start > 1_500_000_000, "plausible unix time, got {start}");
        drop(mdm);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `define index` through the full MDM stack: the DDL is journaled
    /// (survives reopen without save), folded into the checkpoint by
    /// save (survives reopen after the journal is dropped), and the
    /// planner uses it — `explain` reports an index probe, not a scan.
    #[test]
    fn index_ddl_survives_journal_replay_and_save() {
        let dir = tmpdir("index-ddl");
        {
            let mut mdm = MusicDataManager::open(&dir).unwrap();
            for i in 0..20 {
                mdm.execute(&format!("append to PERSON (name = \"p{i}\")"))
                    .unwrap();
            }
            mdm.execute("define index person_by_name on PERSON (name)")
                .unwrap();
            // No save: the index definition exists only in the journal.
        }
        {
            let mut mdm = MusicDataManager::open(&dir).unwrap();
            assert!(mdm.database().index_defs().contains_key("person_by_name"));
            let (ex, t) = mdm
                .explain("range of p is PERSON\nretrieve (p.name) where p.name = \"p7\"")
                .unwrap();
            assert_eq!(t.len(), 1);
            assert_eq!(ex.vars[0].path, "index-eq(name)");
            assert_eq!(ex.rows_scanned, 1, "one probe, not a 20-row scan");
            mdm.save().unwrap();
        }
        let mut mdm = MusicDataManager::open(&dir).unwrap();
        assert!(mdm.database().index_defs().contains_key("person_by_name"));
        let (ex, _) = mdm
            .explain("range of p is PERSON\nretrieve (p.name) where p.name = \"p7\"")
            .unwrap();
        assert_eq!(ex.vars[0].path, "index-eq(name)");
        // Mutations are rejected on the explain path.
        assert!(mdm.explain("append to PERSON (name = \"x\")").is_err());
        let snap = mdm.metrics_snapshot();
        assert_eq!(
            snap.counter_with(
                "mdm_requests_total",
                &[("client", "quel"), ("api", "explain")]
            ),
            Some(2)
        );
        drop(mdm);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The statistics subsystem end to end through the engine: recorded
    /// on both the exclusive and shared query paths, surfaced by
    /// `$statements`, persisted by save, restored at
    /// open (journal replay must not re-record the replayed statements).
    #[test]
    fn statement_statistics_survive_save_and_reopen() {
        let q = "range of p is PERSON\nretrieve (p.name)";
        let fp = mdm_lang::fingerprint(q);
        let dir = tmpdir("stats-persist");
        {
            let mut mdm = MusicDataManager::open(&dir).unwrap();
            mdm.execute("append to PERSON (name = \"Bach\")").unwrap();
            mdm.query(q).unwrap();
            mdm.query_shared(q).unwrap();
            let calls = mdm.statement_store().get(&fp).map(|s| s.calls);
            assert_eq!(calls, Some(2), "exclusive and shared paths share one store");
            mdm.save().unwrap();
        }
        let mdm = MusicDataManager::open(&dir).unwrap();
        // The restored history is queryable through ordinary QUEL.
        let t = mdm
            .query_shared("range of st is $statements\nretrieve (st.fingerprint, st.calls)")
            .unwrap();
        let restored = t
            .rows
            .iter()
            .find(|r| r[0] == Value::String(fp.clone()))
            .unwrap_or_else(|| panic!("restored fingerprint missing: {t}"));
        assert_eq!(restored[1], Value::Integer(2));
        // Access statistics are restored too (appends is cumulative and
        // must not be re-counted by journal replay after a save).
        let t = mdm
            .query_shared(
                "range of t is $tables\n\
                 retrieve (t.appends) where t.name = \"PERSON\"",
            )
            .unwrap();
        assert_eq!(t.rows, vec![vec![Value::Integer(1)]]);
        drop(mdm);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The monitoring subsystem through the full MDM stack: the default
    /// rules are seeded at open, `$metrics`/`$alerts` answer on the
    /// shared read path, process gauges register, and a tripped rule
    /// flips [`MusicDataManager::health`].
    #[test]
    fn monitor_and_health_through_the_stack() {
        let dir = tmpdir("monitor");
        let mut mdm = MusicDataManager::open(&dir).unwrap();
        mdm.execute("append to PERSON (name = \"Bach\")").unwrap();
        assert!(!mdm.monitor().is_running(), "embedded opens stay passive");
        let h = mdm.health();
        assert!(h.healthy);
        assert!(
            h.alerts.iter().any(|a| a.rule == "wal_poisoned"),
            "default rules seeded at open: {:?}",
            h.alerts.iter().map(|a| a.rule.clone()).collect::<Vec<_>>()
        );
        // $metrics sees the whole registry, process gauges included.
        let t = mdm
            .query_shared(
                "range of m is $metrics\n\
                 retrieve (m.name, m.value) where m.name = \"mdm_process_threads\"",
            )
            .unwrap();
        assert_eq!(t.len(), 1, "{t}");
        if cfg!(target_os = "linux") {
            assert!(
                matches!(t.rows[0][1], Value::Float(v) if v >= 1.0),
                "thread count read from /proc/self: {t}"
            );
        }
        // $alerts is queryable and initially all-ok.
        let t = mdm
            .query_shared("range of a is $alerts retrieve (a.rule) where a.state = \"firing\"")
            .unwrap();
        assert!(t.is_empty(), "{t}");
        // Poisoning the WAL gauge trips the seeded critical rule on the
        // next sample.
        mdm.metrics_registry()
            .gauge(
                "mdm_wal_poisoned",
                "1 if a failed WAL fsync has poisoned the commit path (reopen to recover)",
            )
            .set(1);
        mdm.monitor().sample_now();
        let h = mdm.health();
        assert!(!h.healthy, "wal_poisoned fires: {:?}", h.alerts);
        drop(mdm);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn census_counts_instances() {
        let dir = tmpdir("census");
        let mut mdm = MusicDataManager::open(&dir).unwrap();
        mdm.store_score(&bwv578_subject()).unwrap();
        let census = mdm.census();
        let note_line = census.lines().find(|l| l.starts_with("NOTE ")).unwrap();
        assert!(note_line.trim_end().ends_with("21"), "{note_line}");
        drop(mdm);
        std::fs::remove_dir_all(&dir).ok();
    }
}
