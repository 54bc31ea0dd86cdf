//! Contract: what the MDM acknowledged survives any crash.
//!
//! Subsystems this contract needs: the `mdm-core` manager and its commit
//! points (`execute`, `commit`, `save` — the embedded score services and
//! `database_mut()` edits are durable at the next one), `mdm-model`
//! persistence (one engine transaction of row-level changes per commit
//! point, one decoder at open), and the `mdm-storage` engine (WAL, group
//! commit, checkpoint, recovery) under the fault-injecting VFS.
//!
//! The workload runs through `MusicDataManager::open_with_vfs`: a
//! `define` and appends by `execute`; `store_score` then `commit()`;
//! `import_darms` then an `execute`; a `delete_score` through
//! `database_mut()` then `save()`; a second `save()`; a final `execute`.
//! A crash lands at every sync boundary and a torn write at every write
//! boundary, inside both saves included. After each, a plain-VFS reopen
//! must succeed and hold exactly what the acknowledged commit points
//! wrote — titles, rows and census, against an in-memory model of the
//! same steps — plus, all or nothing, the one commit point in flight.
//! Once the first save was acknowledged, `$statements` is never empty,
//! and the survivor accepts a write.

use std::path::{Path, PathBuf};

use musicdb::lang::Session;
use musicdb::mdm::{cmn_schema, delete_score, find_score, store_score, MusicDataManager};
use musicdb::model::{Database, Value};
use musicdb::notation::fixtures::bwv578_subject;
use musicdb::notation::{Movement, Score, TempoMap, TimeSignature};
use musicdb::storage::{At, FaultController, FaultKind, FaultPlan};

const POOL_PAGES: usize = 8;
const IMPORTED: &str = "Imported fragment";
const DARMS: &str = "'G 'K2# 1Q 2Q 3H / R2W //";
const LEDGER: &str = "range of l is LEDGER retrieve (l.n)";

/// One commit point of the workload and the edits it carries.
#[derive(Clone, Copy)]
enum Step {
    Execute(&'static str),
    StoreThenCommit,
    ImportThenExecute(&'static str),
    DeleteThenSave,
    Save,
}

const STEPS: [Step; 8] = [
    Step::Execute("define entity LEDGER (n = integer)"),
    Step::Execute("append to LEDGER (n = 1)"),
    Step::Execute("append to LEDGER (n = 2)\nappend to LEDGER (n = 3)"),
    Step::StoreThenCommit,
    Step::ImportThenExecute("append to LEDGER (n = 4)"),
    Step::DeleteThenSave,
    Step::Save,
    Step::Execute("append to LEDGER (n = 5)"),
];

/// Index of the first `save()` in [`STEPS`].
const FIRST_SAVE: usize = 5;

fn imported_score() -> Score {
    let items = musicdb::darms::parse(DARMS).unwrap();
    let voice = musicdb::darms::to_voice(&items).unwrap();
    let mut movement = Movement::new("imported", TimeSignature::common(), TempoMap::default());
    movement.voices.push(voice);
    let mut score = Score::new(IMPORTED);
    score.movements.push(movement);
    score
}

/// Runs one step against the manager; `Ok` is the acknowledgement.
fn run(mdm: &mut MusicDataManager, step: Step) -> Result<(), String> {
    let e = |e: musicdb::mdm::CoreError| e.to_string();
    match step {
        Step::Execute(text) => mdm.execute(text).map(drop).map_err(e),
        Step::StoreThenCommit => {
            mdm.store_score(&bwv578_subject()).map_err(e)?;
            mdm.commit().map_err(e)
        }
        Step::ImportThenExecute(text) => {
            mdm.import_darms(IMPORTED, DARMS, TimeSignature::common())
                .map_err(e)?;
            mdm.execute(text).map(drop).map_err(e)
        }
        Step::DeleteThenSave => {
            let title = &bwv578_subject().title;
            let id = mdm
                .find_score(title)
                .map_err(e)?
                .ok_or("no score to delete")?;
            delete_score(mdm.database_mut(), id).map_err(e)?;
            mdm.save().map_err(e)
        }
        Step::Save => mdm.save().map_err(e),
    }
}

/// What a reopened store must show: score titles, ledger rows, census.
#[derive(Debug, PartialEq)]
struct Summary {
    titles: Vec<String>,
    ledger: Vec<i64>,
    census: String,
}

fn summarize(db: &Database) -> Summary {
    let mut titles: Vec<String> = musicdb::mdm::list_scores(db)
        .unwrap()
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    titles.sort();
    let mut ledger = Vec::new();
    if db.schema().entity_type_id("LEDGER").is_ok() {
        let results = Session::new().execute_readonly(db, LEDGER).unwrap();
        if let Some(musicdb::lang::StmtResult::Rows(t)) = results.last() {
            ledger = t.rows.iter().filter_map(|r| r[0].as_integer()).collect();
        }
    }
    ledger.sort_unstable();
    Summary {
        titles,
        ledger,
        census: cmn_schema::census(db),
    }
}

/// The model: `summaries[k]` is what memory holds after the first `k`
/// steps, computed on a bare in-memory database — no engine at all.
fn model() -> Vec<Summary> {
    let mut db = Database::new();
    cmn_schema::install(&mut db).unwrap();
    let mut session = Session::new();
    let mut out = vec![summarize(&db)];
    for step in STEPS {
        match step {
            Step::Execute(text) => {
                session.execute(&mut db, text).unwrap();
            }
            Step::StoreThenCommit => {
                store_score(&mut db, &bwv578_subject()).unwrap();
            }
            Step::ImportThenExecute(text) => {
                store_score(&mut db, &imported_score()).unwrap();
                session.execute(&mut db, text).unwrap();
            }
            Step::DeleteThenSave => {
                let id = find_score(&db, &bwv578_subject().title).unwrap().unwrap();
                delete_score(&mut db, id).unwrap();
            }
            Step::Save => {}
        }
        out.push(summarize(&db));
    }
    out
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "musicdb-contract-durability-{}-{tag}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Runs the workload under `plan` until a step fails; returns how many
/// steps were acknowledged. The manager is leaked, as a crashed process
/// would leave it: no shutdown checkpoint.
fn drive(dir: &Path, ctl: &FaultController) -> usize {
    let Ok(mut mdm) = MusicDataManager::open_with_vfs(dir, POOL_PAGES, &ctl.vfs()) else {
        return 0;
    };
    let acked = STEPS
        .iter()
        .take_while(|&&step| run(&mut mdm, step).is_ok())
        .count();
    std::mem::forget(mdm);
    acked
}

/// Reopens on plain files and checks the store against the model.
fn check(dir: &Path, acked: usize, model: &[Summary]) -> Result<(), String> {
    let mut mdm = MusicDataManager::open(dir).map_err(|e| format!("open failed: {e}"))?;
    let got = summarize(mdm.database());
    let in_flight = model.get(acked + 1);
    if got != model[acked] && Some(&got) != in_flight {
        return Err(format!(
            "after {acked} acknowledged steps the store holds {got:?}, expected {:?}{}",
            model[acked],
            in_flight.map_or(String::new(), |m| format!(" or {m:?}"))
        ));
    }
    if acked > FIRST_SAVE {
        let stmts = mdm
            .query("range of s is $statements retrieve (s.fingerprint)")
            .map_err(|e| e.to_string())?;
        if stmts.is_empty() {
            return Err("$statements is empty after an acknowledged save".into());
        }
    }
    mdm.execute("append to PERSON (name = \"survivor\")")
        .map_err(|e| format!("the survivor refused a write: {e}"))?;
    let t = mdm
        .query("range of p is PERSON retrieve (p.name) where p.name = \"survivor\"")
        .map_err(|e| e.to_string())?;
    if t.rows != vec![vec![Value::String("survivor".into())]] {
        return Err(format!("the survivor's write reads back as {t}"));
    }
    Ok(())
}

/// The sweep: a fault-free run counts the boundaries, then every
/// `stride`-th sync gets a crash and every `stride`-th write a torn
/// write. Returns the violations, each naming its boundary.
fn sweep(stride: usize) -> Vec<String> {
    let model = model();
    let (syncs, writes) = {
        let dir = scratch(&format!("{stride}-census"));
        let ctl = FaultController::new(FaultPlan::none());
        let acked = drive(&dir, &ctl);
        assert_eq!(
            acked,
            STEPS.len(),
            "the fault-free run acknowledges every step"
        );
        check(&dir, acked, &model).expect("the fault-free run reopens to the model");
        std::fs::remove_dir_all(&dir).ok();
        (ctl.syncs(), ctl.writes())
    };
    let mut plans: Vec<(String, FaultPlan)> = Vec::new();
    for s in (0..syncs).step_by(stride) {
        let plan = FaultPlan::none().with(At::Sync(s), FaultKind::Crash);
        plans.push((format!("crash at sync {s}"), plan));
    }
    for w in (0..writes).step_by(stride) {
        let keep = 1 + (w as usize * 97) % 700;
        let plan = FaultPlan::none().with(At::Write(w), FaultKind::TornWrite { keep });
        plans.push((format!("torn write at write {w}"), plan));
    }
    let mut violations = Vec::new();
    for (i, (name, plan)) in plans.iter().enumerate() {
        let dir = scratch(&format!("{stride}-trial-{i}"));
        let ctl = FaultController::new(plan.clone());
        let acked = drive(&dir, &ctl);
        if let Err(v) = check(&dir, acked, &model) {
            violations.push(format!("{name} ({acked} steps acknowledged): {v}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    println!(
        "durability census: {syncs} sync and {writes} write boundaries, stride {stride}, \
         {} trials, {} violations",
        plans.len(),
        violations.len()
    );
    violations
}

#[test]
fn a_crash_anywhere_keeps_every_acknowledged_commit_point() {
    let violations = sweep(3);
    assert!(violations.is_empty(), "{violations:#?}");
}

/// Every boundary. Run with `--include-ignored` (CI does, in release).
#[test]
#[ignore]
fn a_crash_at_every_boundary_keeps_every_acknowledged_commit_point() {
    let violations = sweep(1);
    assert!(violations.is_empty(), "{violations:#?}");
}
