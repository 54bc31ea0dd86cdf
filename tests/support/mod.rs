//! The workload the crash contracts drive: eight commit points of a
//! manager, and the model of what memory holds after each. Each contract
//! uses part of it.

#![allow(dead_code)]

use musicdb::lang::Session;
use musicdb::mdm::{cmn_schema, delete_score, find_score, store_score, MusicDataManager};
use musicdb::model::Database;
use musicdb::notation::fixtures::bwv578_subject;
use musicdb::notation::{Movement, Score, TempoMap, TimeSignature};

pub const POOL_PAGES: usize = 8;
pub const IMPORTED: &str = "Imported fragment";
pub const DARMS: &str = "'G 'K2# 1Q 2Q 3H / R2W //";
pub const LEDGER: &str = "range of l is LEDGER retrieve (l.n)";

/// One commit point of the workload and the edits it carries.
#[derive(Clone, Copy)]
pub enum Step {
    Execute(&'static str),
    StoreThenCommit,
    ImportThenExecute(&'static str),
    DeleteThenSave,
    Save,
}

pub const STEPS: [Step; 8] = [
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
pub const FIRST_SAVE: usize = 5;

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
pub fn run(mdm: &mut MusicDataManager, step: Step) -> Result<(), String> {
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
pub struct Summary {
    pub titles: Vec<String>,
    pub ledger: Vec<i64>,
    pub census: String,
}

pub fn summarize(db: &Database) -> Summary {
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
pub fn model() -> Vec<Summary> {
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
