//! `wire_browse` and `wire_edit`: two `MdmClient` connections against an
//! in-process `MdmServer` over loopback.
//!
//! *Why `wire_browse`:* read-only library/typesetter traffic. Each
//! request is tens of microseconds of engine work, so framing, codec,
//! thread hand-off, the server lock and per-request lex/parse/plan are
//! most of the latency: where an event-loop server, pipelining or a plan
//! cache must show, and where storage is idle.
//!
//! *Why `wire_edit`:* editor traffic — the same point reads beside
//! journaled, WAL-committed, synced writes — so a read-path win that
//! starves writers, or a write lock that stalls readers, shows; WAL,
//! group commit, the sync (on the modelled device, see `device.rs`) and
//! index maintenance carry the write half.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use mdm_core::MusicDataManager;
use mdm_net::{ClientConfig, MdmClient, MdmServer, ServerConfig};
use mdm_notation::Score;

use super::queries::{self, EDIT_KEY_BASE};
use super::{Ledger, OpStream, RunConfig, Target};
use crate::gen::{self, Corpus};
use crate::ops::{Op, OpResult};
use crate::rng::{Mix, SplitMix64, Zipf};
use crate::shadow::{shadow_read, shadow_write, LazyScratch};
use crate::trace::Recorder;

/// How unevenly scores are requested.
pub const ZIPF_S: f64 = 0.99;

/// Opens a manager in `dir`, stores the corpus, defines `index_ddl` and
/// saves, so the directory holds a checkpoint image of the corpus.
/// Returns the manager and the SCORE entity id of every corpus score.
pub fn load_corpus(
    cfg: &RunConfig,
    dir: &Path,
    corpus: &Corpus,
    index_ddl: &str,
) -> Result<(MusicDataManager, Vec<u64>), String> {
    let e = |e: mdm_core::CoreError| e.to_string();
    let mut mdm = cfg.workload.open(dir)?;
    let mut ids = Vec::with_capacity(corpus.scores);
    for i in 0..corpus.scores {
        ids.push(mdm.store_score(&corpus.score(i)).map_err(e)?);
    }
    mdm.execute(index_ddl).map_err(e)?;
    mdm.save().map_err(e)?;
    Ok((mdm, ids))
}

/// The corpus part of the ledger: every title, and the closed-form
/// entity count.
pub fn corpus_ledger(corpus: &Corpus) -> Ledger {
    Ledger {
        titles: (0..corpus.scores).map(|i| corpus.title(i)).collect(),
        entities: Some(
            (0..corpus.scores)
                .map(|i| gen::expected_entities(&corpus.score(i)))
                .sum(),
        ),
        ..Ledger::default()
    }
}

pub fn start_server(mdm: MusicDataManager) -> Result<MdmServer, String> {
    MdmServer::start(mdm, "127.0.0.1:0", ServerConfig::default()).map_err(|e| e.to_string())
}

pub fn connect(server: &MdmServer, name: &str) -> Result<MdmClient, String> {
    let config = ClientConfig {
        client_name: name.to_string(),
        ..ClientConfig::default()
    };
    MdmClient::connect(&server.local_addr().to_string(), config).map_err(|e| e.to_string())
}

/// One wire connection. Shadows reach the manager through the server's
/// own `with_manager`, under the read half of its lock.
pub struct WireTarget<'a> {
    pub client: MdmClient,
    pub server: &'a MdmServer,
    pub scratch: LazyScratch,
}

impl Target for WireTarget<'_> {
    fn wire(&self) -> bool {
        true
    }

    fn run(&mut self, op: &Op) -> Result<OpResult, String> {
        let e = |e: mdm_net::NetError| e.to_string();
        match op {
            Op::Query { text, .. } => self.client.query(text).map(OpResult::Rows).map_err(e),
            Op::LoadScore { id, .. } => self.client.load_score(*id).map(OpResult::Score).map_err(e),
            Op::FindScore { title, .. } => self
                .client
                .find_score(title)
                .map(OpResult::Found)
                .map_err(e),
            Op::Execute { text, .. } => self.client.execute(text).map(OpResult::Stmts).map_err(e),
            Op::StoreScore { score } => self
                .client
                .store_score(score)
                .map(OpResult::Stored)
                .map_err(e),
            other => Err(format!("{other:?} is not a wire op")),
        }
    }

    fn shadow(
        &mut self,
        op: &Op,
        result: &OpResult,
        rec: &mut Recorder,
        call: u32,
        op_id: u64,
    ) -> Result<(), String> {
        if op.is_write() {
            shadow_write(self.scratch.get()?, None, op, true, rec, call, op_id)
        } else {
            self.server
                .with_manager(|mdm| shadow_read(mdm, op, result, true, rec, call, op_id))
        }
    }
}

/// What every stream over the corpus needs: which scores are this
/// client's, how hot each is, and their entity ids.
pub struct Partition {
    pub corpus: Corpus,
    pub ids: Arc<Vec<u64>>,
    pub client: usize,
    clients: usize,
    zipf: Zipf,
}

impl Partition {
    /// Client `client` of `clients` owns the scores whose index is
    /// congruent to it, so the two clients never touch one score and
    /// results do not depend on how they interleave.
    pub fn new(corpus: Corpus, ids: Arc<Vec<u64>>, client: usize, clients: usize) -> Partition {
        let owned = (corpus.scores - client).div_ceil(clients);
        Partition {
            corpus,
            ids,
            client,
            clients,
            zipf: Zipf::new(owned, ZIPF_S),
        }
    }

    /// A Zipf-distributed score of this client's partition.
    pub fn pick(&self, rng: &mut SplitMix64) -> usize {
        self.zipf.sample(rng) * self.clients + self.client
    }

    pub fn measure_number(&self, rng: &mut SplitMix64) -> i64 {
        1 + rng.below(self.corpus.measures as u64) as i64
    }
}

/// 60 % `measure` point retrieves (three range variables, two index
/// probes, two `under` steps), 25 % `syncs` chain navigation, 10 %
/// `load_score`, 5 % `find_score`.
pub struct BrowseStream {
    part: Partition,
    rng: SplitMix64,
    mix: Mix,
}

impl BrowseStream {
    pub fn new(part: Partition, seed: u64) -> BrowseStream {
        let rng = SplitMix64::stream(seed, 1_000 + part.client as u64);
        BrowseStream {
            part,
            rng,
            mix: Mix::new(&[12, 5, 2, 1]),
        }
    }
}

impl OpStream for BrowseStream {
    fn next_op(&mut self) -> Op {
        let class = self.mix.deal(&mut self.rng);
        let index = self.part.pick(&mut self.rng);
        let id = self.part.ids[index];
        match class {
            0 => queries::measure(
                &self.part.corpus,
                index,
                self.part.measure_number(&mut self.rng),
            ),
            1 => queries::syncs(
                &self.part.corpus,
                index,
                self.part.measure_number(&mut self.rng),
            ),
            2 => Op::LoadScore {
                id,
                expect: self.part.corpus.score(index),
            },
            _ => Op::FindScore {
                title: self.part.corpus.title(index),
                id,
            },
        }
    }

    fn ack(&mut self, _: &Op, _: &OpResult) {}

    fn ledger(&self) -> Ledger {
        Ledger {
            entities: Some(0),
            ..Ledger::default()
        }
    }
}

/// An editor write in flight: applied to the ledger only when the op
/// is acknowledged.
#[derive(Debug, Clone)]
enum Edit {
    Append { key: i64, octave: i64 },
    Replace { slot: usize, octave: i64 },
    Delete { slot: usize },
    Sketch { score: Score },
}

/// Sketches a client keeps. Nothing on the wire deletes a score, so an
/// editor that stored one per sketch slot for as long as the clock ran
/// would leave a database whose size depends on how fast the run went;
/// instead the first slots store and the later ones load a sketch back.
const SKETCHES: usize = 16;

/// 70 % the `measure` point read of `wire_browse`, 30 % writes, each an
/// `Execute` — journaled, WAL-committed, synced — on the indexed
/// `NOTE.midi_key`: 35 % append a note, 30 % replace one, 30 % delete
/// one (a delete or replace with no note to hit appends instead, so the
/// editor's notes hover around a small steady population), and one
/// write slot in twenty stores a small score, or loads one back once
/// [`SKETCHES`] are stored.
///
/// A write holds the server's write lock across its sync, so a read
/// that meets the other client's write waits it out: reads come in two
/// modes, and how many land in the slow one is what the workload is
/// there to show.
pub struct EditStream {
    part: Partition,
    rng: SplitMix64,
    next_key: i64,
    /// Live editor notes of this client: `(midi_key, octave)`.
    notes: Vec<(i64, i64)>,
    /// Stored sketches with their SCORE ids.
    sketches: Vec<(u64, Score)>,
    /// The closed loop has one op in flight, so one pending edit.
    pending: Option<Edit>,
    /// Reads against write slots, then the kinds of write.
    mix: Mix,
    write_mix: Mix,
}

impl EditStream {
    pub fn new(part: Partition, seed: u64) -> EditStream {
        let rng = SplitMix64::stream(seed, 2_000 + part.client as u64);
        let next_key = EDIT_KEY_BASE * (part.client as i64 + 1);
        EditStream {
            part,
            rng,
            next_key,
            notes: Vec::new(),
            sketches: Vec::new(),
            pending: None,
            mix: Mix::new(&[14, 6]),
            write_mix: Mix::new(&[7, 6, 6, 1]),
        }
    }

    fn write(&mut self) -> (Option<Edit>, Op) {
        let class = self.write_mix.deal(&mut self.rng);
        let slot =
            (!self.notes.is_empty()).then(|| self.rng.below(self.notes.len() as u64) as usize);
        let octave = 1 + self.rng.below(7) as i64;
        match (class, slot) {
            (1, Some(slot)) => (
                Some(Edit::Replace { slot, octave }),
                queries::replace_note(self.notes[slot].0, octave),
            ),
            (2, Some(slot)) => (
                Some(Edit::Delete { slot }),
                queries::delete_note(self.notes[slot].0),
            ),
            (3, _) if self.sketches.len() < SKETCHES => {
                let title = format!("Sketch {}-{}", self.part.client, self.sketches.len());
                let score = gen::voices_in_quarters(&mut self.rng, &title, 1, 2);
                (
                    Some(Edit::Sketch {
                        score: score.clone(),
                    }),
                    Op::StoreScore { score },
                )
            }
            (3, _) => {
                let (id, expect) = self.sketches[self.rng.below(SKETCHES as u64) as usize].clone();
                (None, Op::LoadScore { id, expect })
            }
            _ => {
                let key = self.next_key;
                self.next_key += 1;
                (
                    Some(Edit::Append { key, octave }),
                    queries::append_note(key, octave),
                )
            }
        }
    }
}

impl OpStream for EditStream {
    fn next_op(&mut self) -> Op {
        if self.mix.deal(&mut self.rng) == 0 {
            self.pending = None;
            let index = self.part.pick(&mut self.rng);
            return queries::measure(
                &self.part.corpus,
                index,
                self.part.measure_number(&mut self.rng),
            );
        }
        let (edit, op) = self.write();
        self.pending = edit;
        op
    }

    fn ack(&mut self, _: &Op, result: &OpResult) {
        match self.pending.take() {
            Some(Edit::Append { key, octave }) => self.notes.push((key, octave)),
            Some(Edit::Replace { slot, octave }) => self.notes[slot].1 = octave,
            Some(Edit::Delete { slot }) => {
                self.notes.swap_remove(slot);
            }
            Some(Edit::Sketch { score }) => {
                if let OpResult::Stored(id) = result {
                    self.sketches.push((*id, score));
                }
            }
            None => {}
        }
    }

    fn ledger(&self) -> Ledger {
        let sketch_entities: usize = self
            .sketches
            .iter()
            .map(|(_, s)| gen::expected_entities(s))
            .sum();
        Ledger {
            titles: self.sketches.iter().map(|(_, s)| s.title.clone()).collect(),
            edit_notes: self.notes.iter().copied().collect::<BTreeMap<_, _>>(),
            persons: None,
            entities: Some(self.notes.len() + sketch_entities),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Fnv;
    use crate::workload::embedded::{notes_at_or_above, AnalysisStream};

    const CORPUS: Corpus = Corpus {
        seed: 0,
        scores: 40,
        voices: 2,
        measures: 4,
    };

    fn partition(seed: u64, client: usize) -> Partition {
        let corpus = Corpus { seed, ..CORPUS };
        Partition::new(
            corpus,
            Arc::new((0..40).map(|i| 1000 + i).collect()),
            client,
            2,
        )
    }

    /// Hash of the first `n` ops of a stream, every write acknowledged.
    fn op_list_hash(mut stream: impl OpStream, n: usize) -> u64 {
        let mut h = Fnv::default();
        for i in 0..n {
            let op = stream.next_op();
            op.digest(&mut h);
            stream.ack(&op, &OpResult::Stored(5000 + i as u64));
        }
        h.0
    }

    #[test]
    fn same_seed_same_op_list_other_seed_another() {
        let browse =
            |seed, client| op_list_hash(BrowseStream::new(partition(seed, client), seed), 400);
        assert_eq!(browse(1, 0), browse(1, 0));
        assert_ne!(browse(1, 0), browse(2, 0));
        assert_ne!(browse(1, 0), browse(1, 1));
        let edit = |seed| op_list_hash(EditStream::new(partition(seed, 0), seed), 2000);
        assert_eq!(edit(1), edit(1));
        assert_ne!(edit(1), edit(2));
        let analysis = |seed| {
            let part = partition(seed, 1);
            let at = notes_at_or_above(&part.corpus);
            op_list_hash(AnalysisStream::new(part, seed, &at), 400)
        };
        assert_eq!(analysis(1), analysis(1));
        assert_ne!(analysis(1), analysis(2));
    }

    #[test]
    fn clients_own_disjoint_scores() {
        let (a, b) = (partition(3, 0), partition(3, 1));
        let mut rng = SplitMix64::stream(3, 9);
        for _ in 0..500 {
            assert_eq!(a.pick(&mut rng) % 2, 0);
            assert_eq!(b.pick(&mut rng) % 2, 1);
            assert!(a.pick(&mut rng) < 40 && b.pick(&mut rng) < 40);
        }
    }

    #[test]
    fn the_edit_mix_is_stationary() {
        let mut stream = EditStream::new(partition(7, 0), 7);
        let (mut reads, mut writes, mut stores, mut loads) = (0, 0, 0, 0);
        for i in 0..20_000u64 {
            let op = stream.next_op();
            match &op {
                Op::Query { .. } => reads += 1,
                Op::Execute { .. } => writes += 1,
                Op::StoreScore { .. } => stores += 1,
                Op::LoadScore { .. } => loads += 1,
                other => panic!("unexpected {other:?}"),
            }
            stream.ack(&op, &OpResult::Stored(i));
        }
        assert_eq!(reads, 14_000);
        assert_eq!(stores, SKETCHES);
        assert_eq!(writes + stores + loads, 6_000);
        let ledger = stream.ledger();
        assert_eq!(ledger.titles.len(), SKETCHES);
        // Appends and deletes balance: the notes are a random walk, not
        // a pile that grows with the op count.
        assert!(ledger.edit_notes.len() < 400, "{}", ledger.edit_notes.len());
    }
}
