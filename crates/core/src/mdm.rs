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
use mdm_obs::{Counter, HealthReport, Monitor, Registry, Snapshot, StatementStore, Tracer};
use mdm_storage::StorageEngine;

use crate::cmn_schema;
use crate::error::{CoreError, Result};
use crate::score_store;

/// The one wire protocol version the MDM stack speaks. `mdm-net`
/// re-exports it as `wire::PROTOCOL_VERSION` and refuses any other at
/// `Hello`; here it is the `protocol` label on `mdm_build_info`.
pub const WIRE_PROTOCOL_VERSION: u16 = 5;

/// Engine table carrying the statistics images across restarts: one row
/// per kind, a tag byte (1 = statement store, 2 = access statistics)
/// followed by the kind's own binary encoding. Created with the image
/// tables at the first commit point, updated in place by every
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
    /// performs — image tables, commits, saves — while production callers
    /// use the plain-file default.
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
        // Open writes nothing: a fresh directory gets its image tables at
        // the first commit point (a replica's log must stay the
        // primary's stream from the first record).
        let mut db = persist::load(&engine)?;
        cmn_schema::install(&mut db)?;
        load_stats(&engine, &stmt_store, &db)?;
        // The monitor opens passive — no background thread until a
        // server enables sampling — but carries the default health
        // rules (and process gauges) from the first moment, so
        // `$alerts` and `\health` are meaningful even embedded.
        let monitor = Monitor::start(registry.clone());
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
            registry,
            quel,
            requests,
            tracer,
            stmt_store,
            monitor,
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
    /// directly rather than through QUEL). Edits apply on return and are
    /// durable at the next commit point ([`commit`](Self::commit)).
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The underlying storage engine (diagnostics, benchmarks).
    pub fn engine(&self) -> &StorageEngine {
        &self.engine
    }

    /// Executes a program of DDL / QUEL statements, then commits: every
    /// row the program changed — and anything else changed since the last
    /// commit point — is written in one engine transaction before this
    /// returns. A program that fails part-way still commits what its
    /// earlier statements did (memory already holds it), then returns the
    /// program's error.
    pub fn execute(&mut self, text: &str) -> Result<Vec<StmtResult>> {
        self.refuse_if_replica()?;
        self.requests.execute.inc();
        let results = self.session.execute(&mut self.db, text);
        let committed = self.commit();
        let results = results?;
        committed?;
        Ok(results)
    }

    /// The commit point: writes the rows of every entity, P-edge,
    /// relationship, schema and index definition changed since the last
    /// one, in one engine transaction. [`execute`](Self::execute) and
    /// [`save`](Self::save) commit before they return; the embedded
    /// score services ([`store_score`](Self::store_score),
    /// [`import_darms`](Self::import_darms)) and
    /// [`database_mut`](Self::database_mut) edits do not — they are
    /// durable at the next commit point. The first commit point after an
    /// entity type is defined creates its image table.
    pub fn commit(&mut self) -> Result<()> {
        self.refuse_if_replica()?;
        if persist::prepare(&self.db, &self.engine)? && self.engine.table_id(STATS_TABLE).is_err() {
            self.engine.create_table(STATS_TABLE)?;
        }
        persist::commit(&mut self.db, &self.engine)?;
        Ok(())
    }

    /// Executes a *read-only* program (`range of` declarations and
    /// `retrieve` statements) on the MDM's persistent session and
    /// returns the last statement's rows (errors if the last statement
    /// produced no table). Range declarations carry over to later
    /// calls; a mutating statement is rejected, as on
    /// [`query_shared`](Self::query_shared) — mutations go through
    /// [`execute`](Self::execute), which commits them.
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
    /// gate behind a commit in progress.
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
    /// statements are rejected, so nothing is committed.
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

    /// Commits, updates the statistics rows in place, and checkpoints
    /// the engine. Drops nothing and rewrites nothing that did not
    /// change: a crash anywhere inside loses nothing an earlier commit
    /// point acknowledged, and reopens to the statistics image before or
    /// after the update, never an empty one.
    pub fn save(&mut self) -> Result<()> {
        if self.replica {
            return Err(CoreError::Storage(mdm_storage::StorageError::Replication(
                "a replica's durable state is owned by the replication stream".into(),
            )));
        }
        self.requests.save.inc();
        self.commit()?;
        self.write_stats_image()?;
        self.engine.checkpoint()?;
        Ok(())
    }

    /// Updates the [`STATS_TABLE`] rows in place, in one transaction: the
    /// statement store and the access statistics, each tagged, so the
    /// checkpoint carries them.
    fn write_stats_image(&mut self) -> Result<()> {
        let Ok(table) = self.engine.table_id(STATS_TABLE) else {
            return Ok(());
        };
        let mut txn = self.engine.begin()?;
        let rows = self.engine.scan(&mut txn, table)?;
        for (tag, payload) in [
            (1u8, self.stmt_store.encode()),
            (2u8, self.db.stats().encode()),
        ] {
            let mut body = Vec::with_capacity(1 + payload.len());
            body.push(tag);
            body.extend_from_slice(&payload);
            match rows.iter().find(|(_, row)| row.first() == Some(&tag)) {
                Some(&(rid, _)) => self.engine.update(&mut txn, table, rid, &body)?,
                None => self.engine.insert(&mut txn, table, &body)?,
            };
        }
        self.engine.commit(txn)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Score services
    // ------------------------------------------------------------------

    /// Stores a score, returning its SCORE entity id. Applied on return,
    /// durable at the next commit point.
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

    /// Imports a DARMS-encoded voice as a one-voice score. Applied on
    /// return, durable at the next commit point.
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

    /// Crash injected at the fsync of an execute's commit: the program
    /// whose commit never became durable must vanish wholesale on
    /// reopen, the ones before it must be there, and the store must keep
    /// working.
    #[test]
    fn a_crash_mid_commit_loses_only_that_program() {
        use mdm_storage::{At, FaultController, FaultKind, FaultPlan};

        // Probe: the same workload fault-free, to learn which fsync
        // carries the third append's commit.
        let sync_target = {
            let dir = tmpdir("commit-crash-probe");
            let ctl = FaultController::new(FaultPlan::none());
            let mut mdm = MusicDataManager::open_with_vfs(&dir, 64, &ctl.vfs()).unwrap();
            mdm.execute("define entity COMMITTED (n = int)").unwrap();
            mdm.execute("append to COMMITTED (n = 1)").unwrap();
            mdm.execute("append to COMMITTED (n = 2)").unwrap();
            let s = ctl.syncs();
            std::mem::forget(mdm);
            std::fs::remove_dir_all(&dir).ok();
            s
        };

        let dir = tmpdir("commit-crash");
        let ctl =
            FaultController::new(FaultPlan::none().with(At::Sync(sync_target), FaultKind::Crash));
        let mut mdm = MusicDataManager::open_with_vfs(&dir, 64, &ctl.vfs()).unwrap();
        mdm.execute("define entity COMMITTED (n = int)").unwrap();
        mdm.execute("append to COMMITTED (n = 1)").unwrap();
        mdm.execute("append to COMMITTED (n = 2)").unwrap();
        mdm.execute("append to COMMITTED (n = 3)")
            .expect_err("the crashed commit must surface an error");
        assert!(ctl.crashed(), "the planted crash must have fired");
        std::mem::forget(mdm); // the "process" died: no shutdown checkpoint

        // Reopen on plain files: recovery restores exactly the durable
        // programs.
        let mut mdm = MusicDataManager::open(&dir).unwrap();
        let t = mdm
            .query("range of j is COMMITTED\nretrieve (j.n)")
            .unwrap();
        assert_eq!(t.len(), 2, "rows after recovery: {:?}", t.rows);
        // The reopened store accepts new work end-to-end.
        mdm.execute("append to COMMITTED (n = 4)").unwrap();
        let t = mdm
            .query("range of j is COMMITTED\nretrieve (j.n)")
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
    fn executes_survive_reopen_without_save() {
        let dir = tmpdir("no-save");
        {
            let mut mdm = MusicDataManager::open(&dir).unwrap();
            mdm.execute("append to PERSON (name = \"Bach\")").unwrap();
            mdm.execute("range of p is PERSON\nappend to PERSON (name = \"Telemann\")")
                .unwrap();
            // No save: the rows were committed by the executes.
        }
        {
            let mut mdm = MusicDataManager::open(&dir).unwrap();
            let t = mdm.query("retrieve (PERSON.name)").unwrap();
            assert_eq!(t.len(), 2, "both appends committed");
            mdm.save().unwrap();
        }
        let mut mdm = MusicDataManager::open(&dir).unwrap();
        let t = mdm.query("retrieve (PERSON.name)").unwrap();
        assert_eq!(t.len(), 2, "a save writes no second copy");
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

    /// `define index` through the full MDM stack: the DDL commits a
    /// definition row (survives reopen without save), survives a save,
    /// and the planner uses it — `explain` reports an index probe, not a
    /// scan.
    #[test]
    fn index_ddl_survives_reopen_and_save() {
        let dir = tmpdir("index-ddl");
        {
            let mut mdm = MusicDataManager::open(&dir).unwrap();
            for i in 0..20 {
                mdm.execute(&format!("append to PERSON (name = \"p{i}\")"))
                    .unwrap();
            }
            mdm.execute("define index person_by_name on PERSON (name)")
                .unwrap();
            // No save: the definition row was committed by the execute.
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
    /// open.
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
        // Access statistics are restored too (appends is cumulative).
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

    /// A program that fails part-way returns its error, but what its
    /// earlier statements did is in memory, so it is committed too: disk
    /// holds what memory holds.
    #[test]
    fn a_failed_program_commits_what_it_did() {
        let dir = tmpdir("failed-program");
        let program = "append to PERSON (name = \"a\")\nappend to NOSUCH (x = 1)";
        let names = "range of p is PERSON\nretrieve (p.name)";
        {
            let mut mdm = MusicDataManager::open(&dir).unwrap();
            assert!(mdm.execute(program).is_err());
            assert_eq!(mdm.query(names).unwrap().len(), 1, "`a` is in memory");
            // Dropped without a save.
        }
        let mut mdm = MusicDataManager::open(&dir).unwrap();
        let t = mdm.query(names).unwrap();
        assert_eq!(t.rows, vec![vec![Value::String("a".into())]], "and on disk");
        drop(mdm);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The embedded score services apply on return and are durable at the
    /// next commit point: a score stored and then dropped is gone after a
    /// reopen, a score stored and committed is there.
    #[test]
    fn embedded_writes_are_durable_at_the_next_commit_point() {
        let dir = tmpdir("commit-point");
        {
            let mut mdm = MusicDataManager::open(&dir).unwrap();
            mdm.store_score(&bwv578_subject()).unwrap();
            assert_eq!(mdm.list_scores().unwrap().len(), 1);
        }
        {
            let mut mdm = MusicDataManager::open(&dir).unwrap();
            assert!(mdm.list_scores().unwrap().is_empty(), "no commit point");
            let id = mdm.store_score(&bwv578_subject()).unwrap();
            mdm.commit().unwrap();
            assert_eq!(mdm.load_score(id).unwrap(), bwv578_subject());
        }
        let mdm = MusicDataManager::open(&dir).unwrap();
        let scores = mdm.list_scores().unwrap();
        assert_eq!(scores.len(), 1);
        assert_eq!(mdm.load_score(scores[0].0).unwrap(), bwv578_subject());
        drop(mdm);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A save with nothing changed writes no image: the data file does
    /// not grow however often it runs.
    #[test]
    fn saves_with_nothing_dirty_do_not_grow_the_file() {
        let dir = tmpdir("save-leak");
        let mut mdm = MusicDataManager::open(&dir).unwrap();
        mdm.store_score(&bwv578_subject()).unwrap();
        mdm.save().unwrap();
        let pages = mdm.engine().num_pages();
        for _ in 0..3 {
            mdm.save().unwrap();
        }
        assert_eq!(mdm.engine().num_pages(), pages);
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
