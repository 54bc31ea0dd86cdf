//! Shadow replays: the same request, issued directly against the layers
//! beneath the public call that served it, with a span around each.
//!
//! Reads replay against the live manager (they change nothing). Writes
//! replay on a [`Scratch`] copy of the stack — an empty CMN database
//! with the same indexes — so the run's own state, and its ledger, are
//! untouched; a scratch `replace` or `delete` therefore plans and
//! journals like the real one but may match no row.

use std::path::{Path, PathBuf};

use mdm_core::MusicDataManager;
use mdm_lang::{lexer, parse_tokens, Session};
use mdm_model::{persist, Database};
use mdm_storage::{StorageEngine, TableId};

use crate::ops::{walk_score, ModelPlan, Op, OpResult};
use crate::trace::Recorder;

/// The index DDL of the wire workloads' corpus.
pub const WIRE_INDEXES: &str = "define index score_by_catalog on SCORE (catalog_id)\n\
     define index measure_by_number on MEASURE (number)\n\
     define index note_by_key on NOTE (midi_key)";

/// The analysis workload indexes the catalogue only: everything below
/// the score is reached by navigation or scan.
pub const CATALOG_INDEX: &str = "define index score_by_catalog on SCORE (catalog_id)";

/// A private copy of the stack for replaying writes and for the
/// per-layer probes that must not touch the measured state.
pub struct Scratch {
    pub mdm: MusicDataManager,
    pub db: Database,
    pub engine: StorageEngine,
    pub table: TableId,
}

impl Scratch {
    pub fn open(dir: &Path, pool_pages: usize, index_ddl: &str) -> Result<Scratch, String> {
        let e = |what: &str, e: String| format!("scratch {what}: {e}");
        let mut mdm =
            MusicDataManager::open_with_vfs(&dir.join("mdm"), pool_pages, &mdm_storage::FileVfs)
                .map_err(|x| e("manager", x.to_string()))?;
        mdm.execute(index_ddl)
            .map_err(|x| e("indexes", x.to_string()))?;
        let mut db = Database::new();
        mdm_core::cmn_schema::install(&mut db).map_err(|x| e("schema", x.to_string()))?;
        Session::new()
            .execute(&mut db, index_ddl)
            .map_err(|x| e("indexes", x.to_string()))?;
        let engine = StorageEngine::open_with_capacity(&dir.join("engine"), pool_pages)
            .map_err(|x| e("engine", x.to_string()))?;
        let table = engine
            .create_table("shadow_journal")
            .map_err(|x| e("table", x.to_string()))?;
        Ok(Scratch {
            mdm,
            db,
            engine,
            table,
        })
    }

    /// One durable engine transaction carrying `body`: what journaling a
    /// statement costs the storage layer.
    pub fn commit(&self, body: &[u8]) -> Result<(), String> {
        let e = |e: mdm_storage::StorageError| e.to_string();
        let mut txn = self.engine.begin().map_err(e)?;
        self.engine.insert(&mut txn, self.table, body).map_err(e)?;
        self.engine.commit(txn).map_err(e)
    }
}

/// A scratch stack opened on first use: only traced runs replay writes,
/// and only on the clients that issue them.
pub struct LazyScratch {
    dir: PathBuf,
    pool_pages: usize,
    index_ddl: &'static str,
    scratch: Option<Scratch>,
}

impl LazyScratch {
    pub fn new(dir: PathBuf, pool_pages: usize, index_ddl: &'static str) -> LazyScratch {
        LazyScratch {
            dir,
            pool_pages,
            index_ddl,
            scratch: None,
        }
    }

    pub fn get(&mut self) -> Result<&mut Scratch, String> {
        if self.scratch.is_none() {
            self.scratch = Some(Scratch::open(&self.dir, self.pool_pages, self.index_ddl)?);
        }
        Ok(self.scratch.as_mut().expect("just opened"))
    }
}

/// `lang.execute_readonly` with its `lang.lex`, `lang.parse` and
/// `model.navigate` children; the navigation's rows must equal the
/// query's.
fn shadow_query(
    db: &Database,
    text: &str,
    plan: &ModelPlan,
    result: &OpResult,
    rec: &mut Recorder,
    parent: u32,
    op_id: u64,
) -> Result<(), String> {
    let (exec, ran) = rec.timed("lang.execute_readonly", parent, op_id, || {
        Session::new().execute_readonly(db, text)
    });
    ran.map_err(|e| e.to_string())?;
    let (_, tokens) = rec.timed("lang.lex", exec, op_id, || lexer::lex(text));
    let tokens = tokens.map_err(|e| e.to_string())?;
    let (_, parsed) = rec.timed("lang.parse", exec, op_id, || parse_tokens(tokens));
    parsed.map_err(|e| e.to_string())?;
    let (_, rows) = rec.timed("model.navigate", exec, op_id, || plan.rows(db));
    match result {
        OpResult::Rows(t) if t.rows == rows? => Ok(()),
        _ => Err(format!("model navigation disagrees with the query: {text}")),
    }
}

/// Replays a read beneath its public call. `wire` says the call was a
/// network request, so the manager's own entry point is the first layer
/// down; embedded, the call already was that entry point.
pub fn shadow_read(
    mdm: &MusicDataManager,
    op: &Op,
    result: &OpResult,
    wire: bool,
    rec: &mut Recorder,
    call: u32,
    op_id: u64,
) -> Result<(), String> {
    let e = |e: mdm_core::CoreError| e.to_string();
    match op {
        Op::Query { text, plan, .. } => {
            let parent = if wire {
                let (core, ran) =
                    rec.timed("core.query_shared", call, op_id, || mdm.query_shared(text));
                ran.map_err(e)?;
                core
            } else {
                call
            };
            shadow_query(mdm.database(), text, plan, result, rec, parent, op_id)
        }
        Op::LoadScore { id, .. } | Op::Analyse { id, .. } => {
            let parent = if wire {
                let (core, ran) = rec.timed("core.load_score", call, op_id, || mdm.load_score(*id));
                ran.map_err(e)?;
                core
            } else {
                call
            };
            let (_, walked) = rec.timed("model.walk", parent, op_id, || {
                walk_score(mdm.database(), *id)
            });
            walked.map(|_| ())
        }
        Op::FindScore { title, .. } if wire => {
            let (_, found) = rec.timed("core.find_score", call, op_id, || mdm.find_score(title));
            found.map(|_| ()).map_err(e)
        }
        _ => Ok(()),
    }
}

/// `lang.execute` and `storage.commit` on the scratch stack: the two
/// things `core.execute` does beneath itself.
fn shadow_execute_parts(
    scratch: &mut Scratch,
    text: &str,
    rec: &mut Recorder,
    parent: u32,
    op_id: u64,
) -> Result<(), String> {
    let (_, ran) = rec.timed("lang.execute", parent, op_id, || {
        Session::new().execute(&mut scratch.db, text)
    });
    ran.map_err(|e| e.to_string())?;
    let (_, committed) = rec.timed("storage.commit", parent, op_id, || {
        scratch.commit(text.as_bytes())
    });
    committed
}

/// Replays a write beneath its public call, on the scratch stack.
/// `live` is the manager that served the real op; only `Save` reads it
/// (to persist the very database the real save wrote).
pub fn shadow_write(
    scratch: &mut Scratch,
    live: Option<&MusicDataManager>,
    op: &Op,
    wire: bool,
    rec: &mut Recorder,
    call: u32,
    op_id: u64,
) -> Result<(), String> {
    let e = |e: mdm_core::CoreError| e.to_string();
    match op {
        Op::Execute { text, .. } => {
            // Embedded, the call was `core.execute` itself.
            let parent = if wire {
                let (core, ran) =
                    rec.timed("core.execute", call, op_id, || scratch.mdm.execute(text));
                ran.map_err(e)?;
                core
            } else {
                call
            };
            shadow_execute_parts(scratch, text, rec, parent, op_id)
        }
        Op::StoreScore { score } => {
            let parent = if wire {
                let (core, ran) = rec.timed("core.store_score", call, op_id, || {
                    scratch.mdm.store_score(score)
                });
                ran.map_err(e)?;
                core
            } else {
                call
            };
            let (_, stored) = rec.timed("model.store", parent, op_id, || {
                mdm_core::store_score(&mut scratch.db, score)
            });
            stored.map(|_| ()).map_err(e)
        }
        Op::ImportDarms { text, .. } => {
            let (_, items) = rec.timed("darms.parse", call, op_id, || mdm_darms::parse(text));
            let items = items.map_err(|e| e.to_string())?;
            let (_, voice) = rec.timed("darms.to_voice", call, op_id, || {
                mdm_darms::to_voice(&items)
            });
            let mut movement = mdm_notation::Movement::new(
                "imported",
                mdm_notation::TimeSignature::common(),
                mdm_notation::TempoMap::default(),
            );
            movement.voices.push(voice.map_err(|e| e.to_string())?);
            let mut score = mdm_notation::Score::new("shadow");
            score.movements.push(movement);
            let (_, stored) = rec.timed("model.store", call, op_id, || {
                mdm_core::store_score(&mut scratch.db, &score)
            });
            stored.map(|_| ()).map_err(e)
        }
        Op::Save => {
            let live = live.ok_or("save shadow needs the live manager")?;
            let (_, saved) = rec.timed("model.persist_save", call, op_id, || {
                persist::save(live.database(), &scratch.engine)
            });
            saved.map_err(|e| e.to_string())?;
            let (_, flushed) = rec.timed("storage.checkpoint", call, op_id, || {
                scratch.engine.checkpoint()
            });
            flushed.map_err(|e| e.to_string())
        }
        _ => Ok(()),
    }
}
