//! The operations clients issue, the canonical form of their results,
//! and the checks that say a result is right.
//!
//! Expected values come from the generator's own knowledge of the corpus
//! (which score has which title, how many syncs a measure holds), never
//! from asking the system under test twice.

use std::collections::BTreeMap;

use mdm_core::{Analyst, MusicDataManager};
use mdm_lang::{StmtResult, Table};
use mdm_model::{Database, Value};
use mdm_notation::{Score, TimeSignature, VoiceElement};

use crate::rng::Fnv;

/// The same question a [`Op::Query`] asks, answered by hand straight
/// from `mdm-model`: index probe, `ord_children`, attribute reads. It is
/// what the executor could at best cost, and an independent answer to
/// compare the query's rows against.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelPlan {
    /// Measure `number` of the score catalogued `catalog_id`:
    /// `(number, start_num, start_den)`.
    Measure { catalog_id: String, number: i64 },
    /// The syncs of that measure: `(time_num, time_den)` in time order.
    Syncs { catalog_id: String, number: i64 },
    /// Every note at or above `key`: `(midi_key, octave)`.
    NotesAtOrAbove { key: i64 },
    /// Every pair of measures `a before b` of the score:
    /// `(a.number, b.number)`.
    MeasurePairs { catalog_id: String },
}

fn model_err(e: mdm_model::ModelError) -> String {
    format!("model navigation failed: {e}")
}

impl ModelPlan {
    fn measures_of(db: &Database, catalog_id: &str) -> Result<Vec<u64>, String> {
        let schema = db.schema();
        let ty = schema.entity_type_id("SCORE").map_err(model_err)?;
        let attr = schema
            .entity_type(ty)
            .map_err(model_err)?
            .attribute_index("catalog_id")
            .ok_or("SCORE has no catalog_id")?;
        let key = Value::String(catalog_id.to_string());
        let hits = db
            .attr_index_get(ty, attr, &key)
            .ok_or("no index on SCORE.catalog_id")?;
        let &[score] = hits else {
            return Err(format!("{} scores catalogued {catalog_id}", hits.len()));
        };
        let mut measures = Vec::new();
        for movement in db
            .ord_children("movement_in_score", Some(score))
            .map_err(model_err)?
        {
            measures.extend(
                db.ord_children("measure_in_movement", Some(movement))
                    .map_err(model_err)?,
            );
        }
        Ok(measures)
    }

    fn attrs(db: &Database, id: u64, names: &[&str]) -> Result<Vec<Value>, String> {
        names
            .iter()
            .map(|n| db.get_attr(id, n).cloned().map_err(model_err))
            .collect()
    }

    /// The rows the query must return, in the order it returns them.
    pub fn rows(&self, db: &Database) -> Result<Vec<Vec<Value>>, String> {
        match self {
            ModelPlan::Measure { catalog_id, number } => {
                let mut rows = Vec::new();
                for m in Self::measures_of(db, catalog_id)? {
                    if db.get_attr(m, "number").map_err(model_err)? == &Value::Integer(*number) {
                        rows.push(Self::attrs(db, m, &["number", "start_num", "start_den"])?);
                    }
                }
                Ok(rows)
            }
            ModelPlan::Syncs { catalog_id, number } => {
                let mut rows = Vec::new();
                for m in Self::measures_of(db, catalog_id)? {
                    if db.get_attr(m, "number").map_err(model_err)? != &Value::Integer(*number) {
                        continue;
                    }
                    for s in db
                        .ord_children("sync_in_measure", Some(m))
                        .map_err(model_err)?
                    {
                        rows.push(Self::attrs(db, s, &["time_num", "time_den"])?);
                    }
                }
                Ok(rows)
            }
            ModelPlan::NotesAtOrAbove { key } => {
                let mut rows = Vec::new();
                for &n in db.instances_of("NOTE").map_err(model_err)? {
                    let k = db.get_attr(n, "midi_key").map_err(model_err)?;
                    if k.as_integer().is_some_and(|k| k >= *key) {
                        rows.push(Self::attrs(db, n, &["midi_key", "octave"])?);
                    }
                }
                Ok(rows)
            }
            ModelPlan::MeasurePairs { catalog_id } => {
                let measures = Self::measures_of(db, catalog_id)?;
                let mut rows = Vec::new();
                for &a in &measures {
                    for &b in &measures {
                        if db.before("measure_in_movement", a, b).map_err(model_err)? {
                            rows.push(vec![
                                db.get_attr(a, "number").map_err(model_err)?.clone(),
                                db.get_attr(b, "number").map_err(model_err)?.clone(),
                            ]);
                        }
                    }
                }
                Ok(rows)
            }
        }
    }
}

/// Visits everything `load_score` reads — the fig. 13 hierarchy under
/// one SCORE, every attribute — through `mdm-model` alone, returning the
/// entity count. The model-layer floor under `core.load_score`.
pub fn walk_score(db: &Database, score: u64) -> Result<usize, String> {
    fn visit(db: &Database, id: u64, seen: &mut usize) -> Result<(), String> {
        let inst = db.store().entity(id).map_err(model_err)?;
        std::hint::black_box(&inst.attrs);
        *seen += 1;
        Ok(())
    }
    let kids =
        |ordering: &str, parent: u64| db.ord_children(ordering, Some(parent)).map_err(model_err);
    let mut seen = 0;
    visit(db, score, &mut seen)?;
    for movement in kids("movement_in_score", score)? {
        visit(db, movement, &mut seen)?;
        for measure in kids("measure_in_movement", movement)? {
            visit(db, measure, &mut seen)?;
            for sync in kids("sync_in_measure", measure)? {
                visit(db, sync, &mut seen)?;
            }
        }
        for voice in kids("voice_in_movement", movement)? {
            visit(db, voice, &mut seen)?;
            for element in kids("voice_content", voice)? {
                visit(db, element, &mut seen)?;
                for note in kids("note_in_chord", element)? {
                    visit(db, note, &mut seen)?;
                }
            }
        }
    }
    Ok(seen)
}

/// One client operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A read-only QUEL program expected to return `rows` rows.
    Query {
        text: String,
        plan: ModelPlan,
        rows: usize,
    },
    /// `load_score`, expected to return exactly `expect`.
    LoadScore {
        id: u64,
        expect: Score,
    },
    FindScore {
        title: String,
        id: u64,
    },
    /// `load_score` plus the analysis client's interval histogram and
    /// parallel-perfects check (embedded only).
    Analyse {
        id: u64,
        expect: Score,
    },
    /// A mutating QUEL program; `expect` is its last statement's result.
    Execute {
        text: String,
        expect: StmtResult,
    },
    StoreScore {
        score: Score,
    },
    ImportDarms {
        title: String,
        text: String,
    },
    /// `delete_score` on each superseded score, then a program deleting
    /// the catalogue entries that arrived with them.
    Retire {
        scores: Vec<u64>,
        text: String,
    },
    /// `MusicDataManager::save`: persist, stats image, checkpoint.
    Save,
}

impl Op {
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Op::Execute { .. }
                | Op::StoreScore { .. }
                | Op::ImportDarms { .. }
                | Op::Retire { .. }
                | Op::Save
        )
    }

    /// The QUEL program of a query or an execute.
    pub fn text(&self) -> Option<&str> {
        match self {
            Op::Query { text, .. } | Op::Execute { text, .. } => Some(text),
            _ => None,
        }
    }

    /// Name of the span around the public call that serves this op.
    pub fn call_span(&self, wire: bool) -> &'static str {
        match (self, wire) {
            (Op::Query { .. }, true) => "net.query",
            (Op::Query { .. }, false) => "core.query_shared",
            (Op::LoadScore { .. } | Op::Analyse { .. }, true) => "net.load_score",
            (Op::LoadScore { .. } | Op::Analyse { .. }, false) => "core.load_score",
            (Op::FindScore { .. }, true) => "net.find_score",
            (Op::FindScore { .. }, false) => "core.find_score",
            (Op::Execute { .. }, true) => "net.execute",
            (Op::Execute { .. }, false) => "core.execute",
            (Op::StoreScore { .. }, true) => "net.store_score",
            (Op::StoreScore { .. }, false) => "core.store_score",
            (Op::ImportDarms { .. }, _) => "core.import_darms",
            (Op::Retire { .. }, _) => "core.delete_score",
            (Op::Save, _) => "core.save",
        }
    }

    /// Folds the op itself into an op-list hash.
    pub fn digest(&self, h: &mut Fnv) {
        match self {
            Op::Query { text, rows, .. } => {
                h.str("query");
                h.str(text);
                h.u64(*rows as u64);
            }
            Op::LoadScore { expect, .. } => {
                h.str("load");
                h.str(&expect.title);
            }
            Op::FindScore { title, .. } => {
                h.str("find");
                h.str(title);
            }
            Op::Analyse { expect, .. } => {
                h.str("analyse");
                h.str(&expect.title);
            }
            Op::Execute { text, .. } => {
                h.str("execute");
                h.str(text);
            }
            Op::StoreScore { score } => {
                h.str("store");
                digest_score(h, score);
            }
            Op::ImportDarms { title, text } => {
                h.str("darms");
                h.str(title);
                h.str(text);
            }
            // Retired ids are assigned by the system; the program text
            // names the same batch.
            Op::Retire { scores, text } => {
                h.str("retire");
                h.u64(scores.len() as u64);
                h.str(text);
            }
            Op::Save => h.str("save"),
        }
    }
}

/// What an op returned, in the one shape both the wire client and the
/// embedded manager produce.
#[derive(Debug, Clone, PartialEq)]
pub enum OpResult {
    Rows(Table),
    Score(Score),
    Found(Option<u64>),
    Stmts(Vec<StmtResult>),
    Stored(u64),
    /// A save or a retirement completed.
    Done,
    Analysis {
        score: Score,
        intervals: BTreeMap<i32, usize>,
        parallels: usize,
    },
}

fn digest_value(h: &mut Fnv, v: &Value) {
    match v {
        Value::Null => h.u64(0),
        Value::Integer(i) => {
            h.u64(1);
            h.u64(*i as u64);
        }
        Value::Float(f) => {
            h.u64(2);
            h.u64(f.to_bits());
        }
        Value::String(s) => {
            h.u64(3);
            h.str(s);
        }
        Value::Boolean(b) => {
            h.u64(4);
            h.u64(*b as u64);
        }
        Value::Bytes(b) => {
            h.u64(5);
            h.u64(b.len() as u64);
            h.bytes(b);
        }
        // Entity ids depend on how two writers interleave; only the
        // fact of a reference is canonical.
        Value::Entity(_) => h.u64(6),
    }
}

fn digest_table(h: &mut Fnv, t: &Table) {
    h.u64(t.rows.len() as u64);
    for row in &t.rows {
        for v in row {
            digest_value(h, v);
        }
    }
}

fn digest_score(h: &mut Fnv, s: &Score) {
    h.str(&s.title);
    h.str(s.catalog_id.as_deref().unwrap_or(""));
    h.str(s.composer.as_deref().unwrap_or(""));
    for m in &s.movements {
        for v in &m.voices {
            h.u64(v.elements.len() as u64);
            for e in &v.elements {
                h.str(e.duration().base.name());
                if let VoiceElement::Chord(c) = e {
                    for n in &c.notes {
                        h.u64(n.pitch.midi() as u64);
                    }
                }
            }
        }
    }
}

impl OpResult {
    /// Folds the canonical form of the result into `h`. Entity ids are
    /// left out: they depend on the interleaving of the two clients.
    pub fn digest(&self, h: &mut Fnv) {
        match self {
            OpResult::Rows(t) => digest_table(h, t),
            OpResult::Score(s) => digest_score(h, s),
            OpResult::Found(id) => h.u64(id.is_some() as u64),
            OpResult::Stmts(results) => {
                for r in results {
                    match r {
                        StmtResult::Defined(what) => h.str(what),
                        StmtResult::RangeDeclared => h.u64(10),
                        StmtResult::Rows(t) => digest_table(h, t),
                        StmtResult::Appended(n) => h.u64(20 + *n as u64),
                        StmtResult::Replaced(n) => h.u64(40 + *n as u64),
                        StmtResult::Deleted(n) => h.u64(60 + *n as u64),
                    }
                }
            }
            OpResult::Stored(_) => h.u64(7),
            OpResult::Done => h.u64(8),
            OpResult::Analysis {
                score,
                intervals,
                parallels,
            } => {
                digest_score(h, score);
                for (k, n) in intervals {
                    h.u64(*k as u64);
                    h.u64(*n as u64);
                }
                h.u64(*parallels as u64);
            }
        }
    }
}

/// Checks a result against what the generator knows the answer to be.
pub fn check(op: &Op, result: &OpResult) -> Result<(), String> {
    match (op, result) {
        (Op::Query { plan, rows, text }, OpResult::Rows(t)) => {
            if t.rows.len() != *rows {
                return Err(format!("{} rows, expected {rows}: {text}", t.rows.len()));
            }
            if let ModelPlan::Measure { number, .. } = plan {
                if t.rows[0].first() != Some(&Value::Integer(*number)) {
                    return Err(format!("wrong measure returned: {text}"));
                }
            }
            Ok(())
        }
        (Op::LoadScore { expect, .. }, OpResult::Score(s))
        | (Op::Analyse { expect, .. }, OpResult::Analysis { score: s, .. }) => {
            if s == expect {
                Ok(())
            } else {
                Err(format!("score {:?} did not round-trip", expect.title))
            }
        }
        (Op::FindScore { title, id }, OpResult::Found(found)) => {
            if *found == Some(*id) {
                Ok(())
            } else {
                Err(format!("find_score({title}) gave {found:?}, expected {id}"))
            }
        }
        (Op::Execute { expect, text }, OpResult::Stmts(results)) => {
            if results.last() == Some(expect) {
                Ok(())
            } else {
                Err(format!("{:?}, expected {expect:?}: {text}", results.last()))
            }
        }
        (Op::StoreScore { .. } | Op::ImportDarms { .. }, OpResult::Stored(_)) => Ok(()),
        (Op::Retire { .. } | Op::Save, OpResult::Done) => Ok(()),
        _ => Err(format!("result shape does not match the op: {result:?}")),
    }
}

/// Runs a read op (or a score write) against an embedded manager the
/// way the wire server would, so wire and embedded results compare.
pub fn run_shared(mdm: &MusicDataManager, op: &Op) -> Result<OpResult, String> {
    let e = |e: mdm_core::CoreError| e.to_string();
    match op {
        Op::Query { text, .. } => mdm.query_shared(text).map(OpResult::Rows).map_err(e),
        Op::LoadScore { id, .. } => mdm.load_score(*id).map(OpResult::Score).map_err(e),
        Op::FindScore { title, .. } => mdm.find_score(title).map(OpResult::Found).map_err(e),
        Op::Analyse { id, .. } => {
            let score = mdm.load_score(*id).map_err(e)?;
            let intervals = Analyst::interval_histogram(&score);
            let parallels = score
                .movements
                .first()
                .map_or(0, |m| Analyst::parallel_perfects(m, 0, 1));
            Ok(OpResult::Analysis {
                score,
                intervals,
                parallels,
            })
        }
        _ => Err("write op on the shared read path".into()),
    }
}

/// Runs any op against an exclusively held manager.
pub fn run_owned(mdm: &mut MusicDataManager, op: &Op) -> Result<OpResult, String> {
    let e = |e: mdm_core::CoreError| e.to_string();
    match op {
        Op::Execute { text, .. } => mdm.execute(text).map(OpResult::Stmts).map_err(e),
        Op::StoreScore { score } => mdm.store_score(score).map(OpResult::Stored).map_err(e),
        Op::ImportDarms { title, text } => mdm
            .import_darms(title, text, TimeSignature::common())
            .map(OpResult::Stored)
            .map_err(e),
        Op::Retire { scores, text } => {
            for &id in scores {
                mdm_core::delete_score(mdm.database_mut(), id).map_err(e)?;
            }
            mdm.execute(text).map_err(e)?;
            Ok(OpResult::Done)
        }
        Op::Save => mdm.save().map(|()| OpResult::Done).map_err(e),
        read => run_shared(mdm, read),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Corpus;
    use crate::workload::queries;

    #[test]
    fn model_plans_agree_with_the_executor() {
        let corpus = Corpus {
            seed: 5,
            scores: 3,
            voices: 2,
            measures: 3,
        };
        let mut db = Database::new();
        let ids: Vec<u64> = (0..corpus.scores)
            .map(|i| mdm_core::store_score(&mut db, &corpus.score(i)).unwrap())
            .collect();
        db.define_index("score_by_catalog", "SCORE", "catalog_id")
            .unwrap();
        let ops = [
            queries::measure(&corpus, 1, 2),
            queries::syncs(&corpus, 2, 3),
            queries::measure_pairs(&corpus, 0),
            queries::notes_at_or_above(70, 0),
        ];
        for op in &ops {
            let Op::Query { text, plan, .. } = op else {
                unreachable!()
            };
            let mut session = mdm_lang::Session::new();
            let results = session.execute_readonly(&db, text).unwrap();
            let Some(StmtResult::Rows(table)) = results.last() else {
                panic!("no rows from {text}")
            };
            assert_eq!(table.rows, plan.rows(&db).unwrap(), "{text}");
            assert!(!table.rows.is_empty(), "{text}");
        }
        let walked = walk_score(&db, ids[0]).unwrap();
        let score = corpus.score(0);
        // Everything but the PERSON, EVENTs and MIDI events is walked.
        assert_eq!(
            walked,
            crate::gen::expected_entities(&score) - 1 - 3 * crate::gen::note_count(&score)
        );
    }

    #[test]
    fn op_digest_tells_ops_apart() {
        let corpus = Corpus {
            seed: 5,
            scores: 3,
            voices: 2,
            measures: 3,
        };
        let digest = |op: &Op| {
            let mut h = Fnv::default();
            op.digest(&mut h);
            h.0
        };
        assert_eq!(
            digest(&queries::measure(&corpus, 1, 2)),
            digest(&queries::measure(&corpus, 1, 2))
        );
        assert_ne!(
            digest(&queries::measure(&corpus, 1, 2)),
            digest(&queries::measure(&corpus, 1, 3))
        );
    }
}
