//! `embedded_analysis`: two analysis threads on one `&MusicDataManager`'s
//! shared read path, no wire at all.
//!
//! *Why:* analysis clients. Only `SCORE.catalog_id` is indexed, so the
//! QUEL executor/planner and `mdm-model`'s ordering navigation do nearly
//! all the work and lex/parse is under a hundredth of it. A join planner
//! or an IR refactor shows here; a change to `net` or a plan cache must
//! leave it unmoved.
//!
//! *Why two threads:* the shared read path is there so that readers run
//! side by side, and what they share — the statistics counters every
//! attribute read bumps — is part of what an analysis client pays: two
//! scanning readers complete fewer ops a second together than one does
//! alone. A change that takes that contention away must show here.

use mdm_core::MusicDataManager;

use super::queries;
use super::wire::Partition;
use super::{Ledger, OpStream, Target};
use crate::gen::Corpus;
use crate::ops::{run_shared, Op, OpResult};
use crate::rng::{Mix, SplitMix64};
use crate::shadow::shadow_read;
use crate::trace::Recorder;

/// A reader's handle on the shared manager.
pub struct SharedTarget<'a> {
    pub mdm: &'a MusicDataManager,
}

impl Target for SharedTarget<'_> {
    fn wire(&self) -> bool {
        false
    }

    fn run(&mut self, op: &Op) -> Result<OpResult, String> {
        run_shared(self.mdm, op)
    }

    fn shadow(
        &mut self,
        op: &Op,
        result: &OpResult,
        rec: &mut Recorder,
        call: u32,
        op_id: u64,
    ) -> Result<(), String> {
        shadow_read(self.mdm, op, result, false, rec, call, op_id)
    }
}

/// Notes at or above each MIDI key, counted from the generated scores
/// themselves: the expected row count of a pitch-range scan.
pub fn notes_at_or_above(corpus: &Corpus) -> Vec<usize> {
    let mut at = vec![0usize; 129];
    for i in 0..corpus.scores {
        for movement in &corpus.score(i).movements {
            for voice in &movement.voices {
                for chord in voice.elements.iter().filter_map(|e| e.as_chord()) {
                    for note in &chord.notes {
                        at[note.pitch.midi().clamp(0, 127) as usize] += 1;
                    }
                }
            }
        }
    }
    for key in (0..128).rev() {
        at[key] += at[key + 1];
    }
    at
}

/// 60 % three-level `under` chains (Score → Movement → Measure → Sync,
/// the measure pinned by an *unindexed* number, so the sync variable is
/// scanned), 20 % unindexed `NOTE.midi_key` range scans of about a
/// hundredth of the notes, 10 % two-variable `before` joins inside one
/// movement, 10 % `load_score` plus the analysis client's interval
/// histogram and parallel-perfects check.
pub struct AnalysisStream {
    part: Partition,
    rng: SplitMix64,
    mix: Mix,
    /// Scan thresholds with their expected row counts.
    scans: Vec<(i64, usize)>,
}

impl AnalysisStream {
    pub fn new(part: Partition, seed: u64, at_or_above: &[usize]) -> AnalysisStream {
        let rng = SplitMix64::stream(seed, 3_000 + part.client as u64);
        // The four lowest keys whose scan returns at most a fiftieth of
        // the notes: selectivity around one in a hundred.
        let total = at_or_above[0];
        let scans: Vec<(i64, usize)> = (0..128)
            .filter(|&k| at_or_above[k] > 0 && at_or_above[k] * 50 <= total)
            .take(4)
            .map(|k| (k as i64, at_or_above[k]))
            .collect();
        AnalysisStream {
            part,
            rng,
            mix: Mix::new(&[12, 4, 2, 2]),
            scans,
        }
    }
}

impl OpStream for AnalysisStream {
    fn next_op(&mut self) -> Op {
        let class = self.mix.deal(&mut self.rng);
        let index = self.part.pick(&mut self.rng);
        match class {
            0 => queries::syncs(
                &self.part.corpus,
                index,
                self.part.measure_number(&mut self.rng),
            ),
            1 if !self.scans.is_empty() => {
                let (key, rows) = self.scans[self.rng.below(self.scans.len() as u64) as usize];
                queries::notes_at_or_above(key, rows)
            }
            2 => queries::measure_pairs(&self.part.corpus, index),
            _ => Op::Analyse {
                id: self.part.ids[index],
                expect: self.part.corpus.score(index),
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
