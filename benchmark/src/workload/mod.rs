//! The four workloads, the closed-loop driver they share, and the
//! numbers a measured phase yields.
//!
//! Load shape: one process, at most two closed-loop clients (the
//! reference box has two cores), each issuing its next op only when the
//! previous one returned. A client's op stream is a pure function of
//! `(seed, client)`. The first ops of a stream are a fixed-count warm-up
//! whose canonical results feed `ops_hash`; the measured phase then runs
//! for the requested seconds.

pub mod embedded;
pub mod ingest;
pub mod numbers;
pub mod queries;
pub mod wire;

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mdm_core::MusicDataManager;
use mdm_obs::Snapshot;

use crate::gen::Corpus;
use crate::ops::{check, Op, OpResult};
use crate::rng::Fnv;
use crate::trace::{Recorder, NO_PARENT, SHADOW_EVERY};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WireBrowse,
    WireEdit,
    EmbeddedAnalysis,
    BulkIngestRestart,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WireBrowse,
        Workload::WireEdit,
        Workload::EmbeddedAnalysis,
        Workload::BulkIngestRestart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireBrowse => "wire_browse",
            Workload::WireEdit => "wire_edit",
            Workload::EmbeddedAnalysis => "embedded_analysis",
            Workload::BulkIngestRestart => "bulk_ingest_restart",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_wire(self) -> bool {
        matches!(self, Workload::WireBrowse | Workload::WireEdit)
    }

    /// Opens a manager on `dir` with this workload's pool and device:
    /// plain files for bulk ingest, whose subject is the device, and the
    /// modelled one ([`crate::device`]) for the corpus workloads.
    pub fn open(self, dir: &Path) -> Result<MusicDataManager, String> {
        let vfs: &dyn mdm_storage::Vfs = match self {
            Workload::BulkIngestRestart => &mdm_storage::FileVfs,
            _ => &crate::device::SteadyVfs,
        };
        MusicDataManager::open_with_vfs(dir, self.pool_pages(), vfs)
            .map_err(|e| format!("open {}: {e}", dir.display()))
    }

    /// Buffer-pool pages the manager is opened with. Bulk ingest runs on
    /// a 2 MiB pool so its image is several times the program's cache.
    pub fn pool_pages(self) -> usize {
        match self {
            Workload::BulkIngestRestart => 256,
            _ => mdm_storage::DEFAULT_POOL_PAGES,
        }
    }
}

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Corpus and op-count scale; anything but 1 is a smoke run.
    pub scale: f64,
    /// This run's own directory, `out/<workload>-<pid>`.
    pub dir: PathBuf,
}

impl RunConfig {
    pub fn scaled(&self, n: usize, floor: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(floor)
    }

    /// Seconds the measured phase lasts at this scale.
    pub fn measure_seconds(&self) -> f64 {
        self.seconds * self.scale.min(1.0)
    }

    /// The generated score corpus the wire and analysis workloads load:
    /// 400 two-voice four-measure scores, ≈ 87 000 entities.
    pub fn corpus(&self) -> Corpus {
        Corpus {
            seed: self.seed,
            scores: self.scaled(400, 8),
            voices: 2,
            measures: 4,
        }
    }
}

/// What the final reopen must show: every acknowledged write, and
/// nothing else.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Ledger {
    /// Titles `list_scores` must return, exactly.
    pub titles: BTreeSet<String>,
    /// `midi_key → octave` of every live editor note.
    pub edit_notes: BTreeMap<i64, i64>,
    /// Names of the PERSON entities batch appends left live; `None`
    /// when the workload's corpus creates PERSONs of its own.
    pub persons: Option<BTreeSet<String>>,
    /// Live entities, where the generator can count them in closed form.
    pub entities: Option<usize>,
}

impl Ledger {
    pub fn merge(&mut self, other: Ledger) {
        self.titles.extend(other.titles);
        self.edit_notes.extend(other.edit_notes);
        match (&mut self.persons, other.persons) {
            (Some(mine), Some(theirs)) => mine.extend(theirs),
            (mine @ None, theirs) => *mine = theirs,
            _ => {}
        }
        self.entities = match (self.entities, other.entities) {
            (Some(a), Some(b)) => Some(a + b),
            _ => None,
        };
    }
}

/// A client's op stream plus the ledger of what it was acknowledged.
pub trait OpStream: Send {
    fn next_op(&mut self) -> Op;
    /// Called once the op was acknowledged and its result checked.
    fn ack(&mut self, op: &Op, result: &OpResult);
    /// Whether the stream may stop here (bulk ingest stops only between
    /// cycles, so the window of live scores is whole).
    fn at_boundary(&self) -> bool {
        true
    }
    /// Acknowledged writes of this client, over the base corpus.
    fn ledger(&self) -> Ledger;
}

/// What a client drives: the wire connection or the manager itself.
pub trait Target: Send {
    fn wire(&self) -> bool;
    fn run(&mut self, op: &Op) -> Result<OpResult, String>;
    /// Replays `op` against the layers beneath the public call, recording
    /// shadow spans under `call`.
    fn shadow(
        &mut self,
        op: &Op,
        result: &OpResult,
        rec: &mut Recorder,
        call: u32,
        op_id: u64,
    ) -> Result<(), String>;
}

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, ns since the run's epoch.
    pub done_ns: u64,
    pub latency_ns: u64,
    pub write: bool,
    /// A bulk-ingest cycle's closing `save()`.
    pub save: bool,
}

/// Everything one client brings back.
pub struct ClientReport {
    pub samples: Vec<Sample>,
    /// Ops the traced phase completed.
    pub traced_ops: usize,
    /// Time the traced phase spent replaying shadows, not serving ops.
    pub shadow_ns: u64,
    pub recorder: Recorder,
    pub warm_digest: u64,
    /// Digest of the warm-up ops themselves: the op-list hash.
    pub warm_ops_digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub ledger: Ledger,
}

/// The phase plan the driver and its clients share.
pub struct Phases {
    pub warmup_ops: usize,
    pub measure_seconds: f64,
    /// Zero when the run is untraced.
    pub traced_seconds: f64,
}

/// Readings the driver takes around the measured phase.
pub struct PhaseMarks {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Process CPU seconds the measured phase used.
    pub cpu_seconds: f64,
    pub before: Option<Snapshot>,
    pub after: Option<Snapshot>,
    pub traced_start_ns: u64,
    pub traced_end_ns: u64,
}

/// An op's outcome, once its result has passed the generator's check.
fn checked(op: &Op, outcome: Result<OpResult, String>) -> Result<OpResult, String> {
    outcome.and_then(|result| check(op, &result).map(|()| result))
}

/// One closed-loop client: its target, its stream, and what it has
/// seen so far.
struct Client<'a> {
    phases: &'a Phases,
    epoch: Instant,
    gate: &'a Barrier,
    deadline_ns: &'a AtomicU64,
    id: usize,
    target: &'a mut dyn Target,
    stream: &'a mut dyn OpStream,
    report: ClientReport,
}

impl Client<'_> {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A failed or refused op counts in `failed`, never in a latency.
    fn fail(&mut self, why: String) {
        self.report.failed += 1;
        if self.report.errors.len() < 5 {
            self.report.errors.push(why);
        }
    }

    /// Whether a time-bounded phase is over. A phase ends on a stream
    /// boundary, but a stream an op has failed on may never reach one
    /// (a failed op is not acknowledged, so it does not advance), and the
    /// run is lost anyway: then the deadline alone ends it.
    fn phase_over(&self) -> bool {
        self.now_ns() >= self.deadline_ns.load(Ordering::SeqCst)
            && (self.stream.at_boundary() || self.report.failed > 0)
    }

    /// Issues `op`; the caller times the call, and checks its outcome
    /// with [`checked`] once the clock has stopped.
    fn issue(&mut self, op: &Op) -> Result<OpResult, String> {
        self.report.attempted += 1;
        self.target.run(op)
    }

    /// A fixed op count, so its digests repeat for a seed.
    fn warm_up(&mut self) {
        let mut digest = Fnv::default();
        let mut ops_digest = Fnv::default();
        for _ in 0..self.phases.warmup_ops {
            let op = self.stream.next_op();
            op.digest(&mut ops_digest);
            match checked(&op, self.issue(&op)) {
                Ok(result) => {
                    result.digest(&mut digest);
                    self.stream.ack(&op, &result);
                }
                Err(why) => self.fail(why),
            }
        }
        if self.report.failed == 0 && !self.stream.at_boundary() {
            self.fail("the warm-up did not end on a stream boundary".into());
        }
        self.report.warm_digest = digest.0;
        self.report.warm_ops_digest = ops_digest.0;
    }

    fn measured(&mut self) {
        while !self.phase_over() {
            let op = self.stream.next_op();
            let started = Instant::now();
            let outcome = self.issue(&op);
            let latency_ns = started.elapsed().as_nanos() as u64;
            match checked(&op, outcome) {
                Ok(result) => {
                    self.report.samples.push(Sample {
                        done_ns: self.now_ns(),
                        latency_ns,
                        write: op.is_write(),
                        save: op == Op::Save,
                    });
                    self.stream.ack(&op, &result);
                }
                Err(why) => self.fail(why),
            }
        }
    }

    /// The same stream continues, with spans recorded.
    fn traced(&mut self) {
        let mut op_id = (self.id as u64) << 48;
        while !self.phase_over() {
            let op = self.stream.next_op();
            op_id += 1;
            let rec = &mut self.report.recorder;
            let root = rec.open("op", NO_PARENT, op_id);
            let call = rec.open(op.call_span(self.target.wire()), root, op_id);
            let outcome = self.issue(&op);
            let rec = &mut self.report.recorder;
            rec.close(call);
            rec.close(root);
            match checked(&op, outcome) {
                Ok(result) => {
                    self.report.traced_ops += 1;
                    self.stream.ack(&op, &result);
                    // Saves are rare and carry the bulk workload's
                    // storage attribution: shadow every one.
                    if op_id.is_multiple_of(SHADOW_EVERY) || op == Op::Save {
                        let shadow_started = Instant::now();
                        if let Err(why) =
                            self.target
                                .shadow(&op, &result, &mut self.report.recorder, call, op_id)
                        {
                            self.fail(format!("shadow replay: {why}"));
                        }
                        self.report.shadow_ns += shadow_started.elapsed().as_nanos() as u64;
                    }
                }
                Err(why) => self.fail(why),
            }
        }
    }

    /// Warm-up, measured phase, traced phase, with the gate crossings
    /// the driver expects between them. A phase that panics is recorded
    /// as a failure and the later ones are skipped, but every gate is
    /// still crossed: the driver and the other client are waiting there.
    fn run(mut self) -> ClientReport {
        let mut alive = true;
        let mut phase = |client: &mut Self, body: fn(&mut Self)| {
            if !alive {
                return;
            }
            if let Err(panic) = catch_unwind(AssertUnwindSafe(|| body(client))) {
                alive = false;
                let why = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("no message");
                client.fail(format!("client {} panicked: {why}", client.id));
            }
        };
        phase(&mut self, Self::warm_up);
        // The driver publishes the deadline between the two crossings,
        // after taking its own start-of-phase readings.
        self.gate.wait();
        self.gate.wait();
        phase(&mut self, Self::measured);
        self.gate.wait();
        self.gate.wait();
        if self.phases.traced_seconds > 0.0 {
            phase(&mut self, Self::traced);
            self.gate.wait();
        }
        if alive {
            self.report.ledger = self.stream.ledger();
        }
        self.report
    }
}

/// Drives `clients` closed-loop clients through warm-up, the measured
/// phase and (when `phases.traced_seconds > 0`) the traced phase.
/// `snapshot`, when given, reads the system's metric registry; it is
/// called just before and just after the measured phase.
pub fn drive(
    phases: &Phases,
    clients: Vec<(Box<dyn Target + '_>, Box<dyn OpStream>)>,
    snapshot: Option<&(dyn Fn() -> Snapshot + Sync)>,
) -> (Vec<ClientReport>, PhaseMarks) {
    let epoch = Instant::now();
    let gate = Barrier::new(clients.len() + 1);
    let deadline_ns = AtomicU64::new(0);
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let after_ns = |seconds: f64| now_ns() + (seconds * 1e9) as u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(id, (mut target, mut stream))| {
                let (gate, deadline_ns) = (&gate, &deadline_ns);
                scope.spawn(move || {
                    Client {
                        phases,
                        epoch,
                        gate,
                        deadline_ns,
                        id,
                        target: target.as_mut(),
                        stream: stream.as_mut(),
                        report: ClientReport {
                            samples: Vec::new(),
                            traced_ops: 0,
                            shadow_ns: 0,
                            recorder: Recorder::new(epoch),
                            warm_digest: 0,
                            warm_ops_digest: 0,
                            attempted: 0,
                            failed: 0,
                            errors: Vec::new(),
                            ledger: Ledger::default(),
                        },
                    }
                    .run()
                })
            })
            .collect();

        gate.wait(); // every client finished its warm-up
        let before = snapshot.map(|s| s());
        let start_ns = now_ns();
        let cpu_before = crate::host::cpu_seconds();
        let deadline = after_ns(phases.measure_seconds);
        deadline_ns.store(deadline, Ordering::SeqCst);
        gate.wait(); // measured phase runs
        std::thread::sleep(Duration::from_nanos(deadline.saturating_sub(now_ns())));
        gate.wait(); // every client left the measured phase
        let end_ns = now_ns();
        let cpu_seconds = crate::host::cpu_seconds() - cpu_before;
        let after = snapshot.map(|s| s());
        let traced_start_ns = now_ns();
        deadline_ns.store(after_ns(phases.traced_seconds), Ordering::SeqCst);
        gate.wait(); // traced phase (if any) runs
        if phases.traced_seconds > 0.0 {
            gate.wait();
        }
        let traced_end_ns = now_ns();
        let reports = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("a client's panics are caught in its phases")
            })
            .collect();
        (
            reports,
            PhaseMarks {
                start_ns,
                end_ns,
                cpu_seconds,
                before,
                after,
                traced_start_ns,
                traced_end_ns,
            },
        )
    })
}

/// Live entities in a manager's database.
pub fn entities_live(mdm: &MusicDataManager) -> usize {
    mdm.database().store().entity_count()
}

/// Live instances per entity type, for the before/after-reopen check.
pub fn census(mdm: &MusicDataManager) -> BTreeMap<String, usize> {
    let db = mdm.database();
    db.schema()
        .entity_types()
        .iter()
        .map(|t| {
            (
                t.name.clone(),
                db.instances_of(&t.name).map_or(0, <[u64]>::len),
            )
        })
        .collect()
}

/// The ledger oracle: after the final reopen every acknowledged write
/// is readable and nothing unacknowledged is.
pub fn verify_ledger(mdm: &MusicDataManager, ledger: &Ledger) -> Result<(), String> {
    let e = |e: mdm_core::CoreError| e.to_string();
    let titles: Vec<String> = mdm
        .list_scores()
        .map_err(e)?
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    let unique: BTreeSet<String> = titles.iter().cloned().collect();
    if titles.len() != unique.len() || unique != ledger.titles {
        let missing: Vec<_> = ledger.titles.difference(&unique).take(3).collect();
        let extra: Vec<_> = unique.difference(&ledger.titles).take(3).collect();
        return Err(format!(
            "stored scores differ from the ledger: {} stored, {} expected, missing {missing:?}, unexpected {extra:?}",
            titles.len(),
            ledger.titles.len()
        ));
    }
    let notes = mdm.query_shared(&queries::edit_notes_text()).map_err(e)?;
    let mut live = BTreeMap::new();
    for row in &notes.rows {
        if let [k, o] = row.as_slice() {
            live.insert(k.as_integer().unwrap_or(-1), o.as_integer().unwrap_or(-1));
        }
    }
    if notes.rows.len() != live.len() || live != ledger.edit_notes {
        return Err(format!(
            "editor notes differ from the ledger: {} live, {} expected",
            notes.rows.len(),
            ledger.edit_notes.len()
        ));
    }
    if let Some(expected) = &ledger.persons {
        let persons = mdm
            .query_shared("range of p is PERSON\nretrieve (p.name)")
            .map_err(e)?;
        let names: BTreeSet<String> = persons
            .rows
            .iter()
            .filter_map(|r| r.first()?.as_str().map(str::to_string))
            .collect();
        if persons.rows.len() != names.len() || &names != expected {
            return Err(format!(
                "catalogue entries differ from the ledger: {} live, {} expected",
                persons.rows.len(),
                expected.len()
            ));
        }
    }
    if let Some(expected) = ledger.entities {
        let live = entities_live(mdm);
        if live != expected {
            return Err(format!("{live} live entities, the ledger says {expected}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves `good` ops, then fails every one (or panics on the first).
    struct Faulty {
        good: usize,
        panics: bool,
    }

    impl Target for Faulty {
        fn wire(&self) -> bool {
            false
        }

        fn run(&mut self, _: &Op) -> Result<OpResult, String> {
            if self.good == 0 {
                assert!(!self.panics, "planted panic");
                return Err("planted failure".into());
            }
            self.good -= 1;
            Ok(OpResult::Done)
        }

        fn shadow(
            &mut self,
            _: &Op,
            _: &OpResult,
            _: &mut Recorder,
            _: u32,
            _: u64,
        ) -> Result<(), String> {
            Ok(())
        }
    }

    /// Cycles of three saves, a boundary only between cycles.
    struct Cycles(usize);

    impl OpStream for Cycles {
        fn next_op(&mut self) -> Op {
            Op::Save
        }

        fn ack(&mut self, _: &Op, _: &OpResult) {
            self.0 += 1;
        }

        fn at_boundary(&self) -> bool {
            self.0.is_multiple_of(3)
        }

        fn ledger(&self) -> Ledger {
            Ledger::default()
        }
    }

    #[test]
    fn a_failing_client_ends_the_run_instead_of_hanging_it() {
        // The fault strikes inside the warm-up (op 2) or inside a cycle
        // of the measured phase (op 5): either way the stream never
        // reaches another boundary.
        for (good, panics) in [(1, false), (4, false), (1, true), (4, true)] {
            let phases = Phases {
                warmup_ops: 3,
                measure_seconds: 0.02,
                traced_seconds: 0.02,
            };
            let client = |good, panics| -> (Box<dyn Target>, Box<dyn OpStream>) {
                (Box::new(Faulty { good, panics }), Box::new(Cycles(0)))
            };
            let clients = vec![client(good, panics), client(usize::MAX, false)];
            let (reports, _) = drive(&phases, clients, None);
            assert!(reports[0].failed > 0, "good {good} panics {panics}");
            assert!(reports[0].errors[0].contains("planted"));
            assert_eq!(reports[1].failed, 0);
            assert!(reports[1].samples.len() >= 3);
        }
    }

    #[test]
    fn ledgers_merge() {
        let mut a = Ledger {
            titles: ["x".to_string()].into(),
            entities: Some(3),
            ..Ledger::default()
        };
        a.merge(Ledger {
            titles: ["y".to_string()].into(),
            edit_notes: [(7, 4)].into(),
            persons: Some(["p".to_string()].into()),
            entities: Some(4),
        });
        assert_eq!(a.titles.len(), 2);
        assert_eq!(a.edit_notes[&7], 4);
        assert_eq!(a.persons.as_ref().map(BTreeSet::len), Some(1));
        assert_eq!(a.entities, Some(7));
    }
}
