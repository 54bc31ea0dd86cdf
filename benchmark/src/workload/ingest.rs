//! `bulk_ingest_restart`: one embedded writer on a 2 MiB pool.
//!
//! *Why:* composer/library ingest, the one workload larger than the
//! program's own cache. Scores arrive in cycles of a hundred — DARMS
//! imports, `store_score`, batched `execute` appends — each cycle retiring
//! the oldest one and ending in a `save()`, so evictions, full-page writes,
//! the checkpoint rewrite and `mdm-model`'s entity/ordering/index
//! construction dominate, and `save_s`, `reopen_s` and
//! `disk_bytes_per_entity` carry the most weight. Storage is used as
//! large sequential checkpoints, where `wire_edit` uses it as tiny
//! commits.
//!
//! The window of live scores has a fixed size — 2 000 scores, ≈ 150 000
//! entities, an image ten times the pool (a library keeping the latest
//! editions) — so the database neither grows nor shrinks while a
//! time-bounded phase runs and every cycle costs the same: the numbers
//! do not depend on how far a run got.

use std::collections::VecDeque;

use mdm_core::MusicDataManager;

use super::queries;
use super::{Ledger, OpStream, RunConfig, Target};
use crate::gen;
use crate::ops::{run_owned, Op, OpResult};
use crate::rng::{Mix, SplitMix64};
use crate::shadow::{shadow_write, LazyScratch};
use crate::trace::Recorder;

/// Cycles of arrivals kept live: twenty saves' worth of scores.
pub const WINDOW: usize = 20;
/// Arrivals between saves at scale 1: a hundred scores and the batched
/// appends that make up a tenth of the ops.
const CYCLE_ARRIVALS: usize = 111;
/// Measures per arriving score, imported or stored.
const MEASURES: usize = 2;
/// Catalogue entries per batched `execute`.
const BATCH: usize = 8;

/// Ops per cycle at the run's scale — the arrivals, the retirement, the
/// save: the unit the measured phase is segmented in.
pub fn cycle_ops(cfg: &RunConfig) -> usize {
    cfg.scaled(CYCLE_ARRIVALS, 5) + 2
}

/// The writer's exclusive handle on the manager.
pub struct OwnedTarget<'a> {
    pub mdm: &'a mut MusicDataManager,
    pub scratch: LazyScratch,
}

impl Target for OwnedTarget<'_> {
    fn wire(&self) -> bool {
        false
    }

    fn run(&mut self, op: &Op) -> Result<OpResult, String> {
        run_owned(self.mdm, op)
    }

    fn shadow(
        &mut self,
        op: &Op,
        _: &OpResult,
        rec: &mut Recorder,
        call: u32,
        op_id: u64,
    ) -> Result<(), String> {
        let scratch = self.scratch.get()?;
        shadow_write(scratch, Some(self.mdm), op, false, rec, call, op_id)
    }
}

/// One cycle's arrivals, as acknowledged.
#[derive(Debug, Default, Clone)]
struct Arrivals {
    titles: Vec<String>,
    ids: Vec<u64>,
    persons: Vec<String>,
}

/// Cycles of `arrivals` ops — 60 % `import_darms`, 30 % `store_score`,
/// 10 % a batched `execute` of catalogue appends — each cycle followed by the
/// retirement of the oldest live cycle and a `save()`.
pub struct IngestStream {
    rng: SplitMix64,
    arrivals: usize,
    cycle: usize,
    /// Position in the cycle: arrivals, then the retirement, then the save.
    pos: usize,
    /// Arrival kinds, dealt one block per cycle: the same count of each
    /// kind every cycle, so every cycle carries the same amount of work
    /// and the window the same amount of data.
    kinds: Mix,
    live: VecDeque<Arrivals>,
    current: Arrivals,
    /// What the op in flight adds to `current` once acknowledged.
    pending: Arrivals,
}

impl IngestStream {
    pub fn new(cfg: &RunConfig) -> IngestStream {
        // 60 % DARMS imports, 10 % (at least one) batches, the rest
        // `store_score`.
        let arrivals = cycle_ops(cfg) - 2;
        let darms = arrivals * 6 / 10;
        let batches = (arrivals / 10).max(1);
        IngestStream {
            rng: SplitMix64::stream(cfg.seed, 4_000),
            arrivals,
            cycle: 0,
            pos: 0,
            kinds: Mix::new(&[darms, arrivals - darms - batches, batches]),
            live: VecDeque::new(),
            current: Arrivals::default(),
            pending: Arrivals::default(),
        }
    }

    fn arrival(&mut self) -> Op {
        let title = format!("Ingest {}-{}", self.cycle, self.pos);
        self.pending = Arrivals::default();
        match self.kinds.deal(&mut self.rng) {
            0 => {
                self.pending.titles.push(title.clone());
                Op::ImportDarms {
                    title,
                    text: gen::darms(&mut self.rng, MEASURES),
                }
            }
            1 => {
                self.pending.titles.push(title.clone());
                Op::StoreScore {
                    score: gen::voices_in_quarters(&mut self.rng, &title, 2, MEASURES),
                }
            }
            _ => {
                self.pending.persons = (0..BATCH).map(|i| format!("{title} entry {i}")).collect();
                queries::append_persons(&self.pending.persons)
            }
        }
    }

    fn close_cycle(&mut self) {
        self.live.push_back(std::mem::take(&mut self.current));
        self.cycle += 1;
        self.pos = 0;
    }

    /// Fills the window before anything is timed: [`WINDOW`] cycles of
    /// arrivals with no retirement, then one save.
    pub fn prefill(&mut self, mdm: &mut MusicDataManager) -> Result<(), String> {
        while self.live.len() < WINDOW {
            while self.pos < self.arrivals {
                let op = self.arrival();
                let result = run_owned(mdm, &op)?;
                self.ack(&op, &result);
            }
            self.close_cycle();
        }
        mdm.save().map_err(|e| e.to_string())
    }
}

impl OpStream for IngestStream {
    fn next_op(&mut self) -> Op {
        if self.pos < self.arrivals {
            self.arrival()
        } else if self.pos == self.arrivals {
            self.pending = Arrivals::default();
            let oldest = self.live.front().cloned().unwrap_or_default();
            Op::Retire {
                scores: oldest.ids,
                text: queries::delete_persons_text(&oldest.persons),
            }
        } else {
            self.pending = Arrivals::default();
            Op::Save
        }
    }

    fn ack(&mut self, op: &Op, result: &OpResult) {
        let arrived = std::mem::take(&mut self.pending);
        self.current.titles.extend(arrived.titles);
        self.current.persons.extend(arrived.persons);
        if let OpResult::Stored(id) = result {
            self.current.ids.push(*id);
        }
        self.pos += 1;
        match op {
            Op::Retire { .. } => {
                self.live.pop_front();
            }
            Op::Save => self.close_cycle(),
            _ => {}
        }
    }

    fn at_boundary(&self) -> bool {
        self.pos == 0
    }

    fn ledger(&self) -> Ledger {
        let batches = self.live.iter().chain(std::iter::once(&self.current));
        Ledger {
            titles: batches
                .clone()
                .flat_map(|b| b.titles.iter().cloned())
                .collect(),
            persons: Some(batches.flat_map(|b| b.persons.iter().cloned()).collect()),
            ..Ledger::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use std::path::PathBuf;

    #[test]
    fn same_seed_same_arrivals() {
        let cfg = |seed| RunConfig {
            workload: Workload::BulkIngestRestart,
            seed,
            seconds: 1.0,
            trace: false,
            scale: 0.2,
            dir: PathBuf::new(),
        };
        let arrivals = |seed| {
            let mut stream = IngestStream::new(&cfg(seed));
            let mut h = crate::rng::Fnv::default();
            for _ in 0..10 {
                stream.arrival().digest(&mut h);
                stream.pos += 1;
            }
            h.0
        };
        assert_eq!(arrivals(1), arrivals(1));
        assert_ne!(arrivals(1), arrivals(2));
    }

    #[test]
    fn cycles_keep_the_window_whole() {
        let cfg = RunConfig {
            workload: Workload::BulkIngestRestart,
            seed: 9,
            seconds: 1.0,
            trace: false,
            scale: 0.1,
            dir: PathBuf::new(),
        };
        let mut stream = IngestStream::new(&cfg);
        let arrivals = stream.arrivals;
        assert_eq!(cycle_ops(&cfg), arrivals + 2);
        // Acknowledge ops by hand, as a manager would.
        let mut next_id = 1;
        let mut drive = |stream: &mut IngestStream| {
            let op = stream.next_op();
            let result = match &op {
                Op::ImportDarms { .. } | Op::StoreScore { .. } => {
                    next_id += 1;
                    OpResult::Stored(next_id)
                }
                Op::Execute { .. } => OpResult::Stmts(Vec::new()),
                _ => OpResult::Done,
            };
            stream.ack(&op, &result);
            op
        };
        for _ in 0..WINDOW {
            for _ in 0..arrivals {
                drive(&mut stream);
            }
            stream.close_cycle();
        }
        let filled = stream.ledger().titles.len();
        for _ in 0..3 {
            assert!(stream.at_boundary());
            let ops: Vec<Op> = (0..arrivals + 2).map(|_| drive(&mut stream)).collect();
            assert!(matches!(ops[arrivals], Op::Retire { .. }));
            assert_eq!(ops[arrivals + 1], Op::Save);
            assert_eq!(stream.live.len(), WINDOW);
        }
        assert!(stream.at_boundary());
        // Arrivals vary per cycle, but retired titles are gone.
        let ledger = stream.ledger();
        assert!(ledger.titles.iter().all(|t| !t.starts_with("Ingest 0-")));
        assert!(ledger.titles.len() <= filled + arrivals);
    }
}
