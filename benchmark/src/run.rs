//! One run of one workload: set-up, the closed-loop phases, the
//! persistence measurements, the correctness oracles, and the metrics
//! that come out.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Instant;

use mdm_core::MusicDataManager;
use mdm_net::MdmServer;
use mdm_obs::{Registry, Snapshot};
use mdm_storage::{At, FaultController, FaultKind, FaultPlan};

use crate::gen;
use crate::host;
use crate::probe::{self, metric, Metric, ProbeInput};
use crate::rng::{Fnv, SplitMix64};
use crate::shadow::{LazyScratch, Scratch, CATALOG_INDEX, WIRE_INDEXES};
use crate::stats;
use crate::trace;
use crate::workload::embedded::{self, AnalysisStream, SharedTarget};
use crate::workload::ingest::{self, IngestStream, OwnedTarget};
use crate::workload::numbers::{client_numbers, ClientNumbers};
use crate::workload::wire::{self, BrowseStream, EditStream, Partition, WireTarget};
use crate::workload::{
    census, drive, entities_live, queries, verify_ledger, ClientReport, Ledger, OpStream,
    PhaseMarks, Phases, RunConfig, Sample, Target, Workload,
};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// `save()`s before the phases and after them; `save_s` is the median
/// of them all. The two groups lie the whole measured phase apart, so a
/// rough patch of the host's disk a few seconds long spoils at most one
/// of them.
const SAVES_BEFORE: usize = 3;
const SAVES_AFTER: usize = 4;
/// Restarts after each set-up; `reopen_s` is the median of all
/// `SETUP_REPEATS` × this many.
const REOPENS_PER_SETUP: usize = 3;
/// Acknowledged executes the durability probe crashes after.
const DURABLE_EXECUTES: usize = 200;

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub ops_hash: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Context worth printing: sample counts, percentile used, policy.
    pub notes: Vec<String>,
    /// Why the run is not correct, if it is not.
    pub errors: Vec<String>,
}

/// A workload set up and ready for its first op.
enum Live {
    Wire {
        server: MdmServer,
        ids: Arc<Vec<u64>>,
    },
    Embedded {
        mdm: Box<MusicDataManager>,
        ids: Arc<Vec<u64>>,
    },
    Ingest {
        mdm: Box<MusicDataManager>,
        /// Prefilled by set-up; the client takes it when the phases run.
        stream: Option<IngestStream>,
    },
}

/// Set-up: open, corpus generation and load, index DDL, the checkpoint
/// that makes the corpus the directory's image, server start.
fn setup(cfg: &RunConfig, dir: &Path) -> Result<Live, String> {
    match cfg.workload {
        Workload::WireBrowse | Workload::WireEdit => {
            let (mdm, ids) = wire::load_corpus(cfg, dir, &cfg.corpus(), WIRE_INDEXES)?;
            Ok(Live::Wire {
                server: wire::start_server(mdm)?,
                ids: Arc::new(ids),
            })
        }
        Workload::EmbeddedAnalysis => {
            let (mdm, ids) = wire::load_corpus(cfg, dir, &cfg.corpus(), CATALOG_INDEX)?;
            Ok(Live::Embedded {
                mdm: Box::new(mdm),
                ids: Arc::new(ids),
            })
        }
        Workload::BulkIngestRestart => {
            let mut mdm = cfg.workload.open(dir)?;
            let mut stream = IngestStream::new(cfg);
            stream.prefill(&mut mdm)?;
            Ok(Live::Ingest {
                mdm: Box::new(mdm),
                stream: Some(stream),
            })
        }
    }
}

/// Stops whatever set-up started and hands back the manager.
fn teardown(live: Live) -> Result<MusicDataManager, String> {
    match live {
        Live::Wire { server, .. } => server.shutdown().map_err(|e| e.to_string()),
        Live::Embedded { mdm, .. } | Live::Ingest { mdm, .. } => Ok(*mdm),
    }
}

fn remove_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Runs `DURABLE_EXECUTES` acknowledged executes, crashes the machine
/// (un-synced bytes dropped) at the next commit's fsync, reopens on
/// plain files and requires every acknowledged row to be there.
fn durability_probe(dir: &Path) -> Result<(), String> {
    let e = |e: mdm_core::CoreError| e.to_string();
    let statement = |i: usize| format!("append to PERSON (name = \"durable {i}\")");
    let run = |dir: &Path, controller: &FaultController| -> Result<MusicDataManager, String> {
        let mut mdm = MusicDataManager::open_with_vfs(dir, 64, &controller.vfs()).map_err(e)?;
        for i in 0..DURABLE_EXECUTES {
            mdm.execute(&statement(i)).map_err(e)?;
        }
        Ok(mdm)
    };
    // Fault-free pass: learn which fsync carries the next commit.
    let count_dir = dir.join("count");
    let counter = FaultController::new(FaultPlan::none());
    let mdm = run(&count_dir, &counter)?;
    let next_sync = counter.syncs();
    // The "process" dies without a shutdown checkpoint.
    std::mem::forget(mdm);

    let crash_dir = dir.join("crash");
    let crasher =
        FaultController::new(FaultPlan::none().with(At::Sync(next_sync), FaultKind::Crash));
    let mut mdm = run(&crash_dir, &crasher)?;
    if mdm.execute(&statement(DURABLE_EXECUTES)).is_ok() || !crasher.crashed() {
        return Err("durability probe: the planted crash did not fire".into());
    }
    std::mem::forget(mdm);

    let reopened = MusicDataManager::open(&crash_dir).map_err(e)?;
    let rows = reopened
        .query_shared("range of p is PERSON\nretrieve (p.name)")
        .map_err(e)?;
    let names: std::collections::BTreeSet<&str> = rows
        .rows
        .iter()
        .filter_map(|r| r.first()?.as_str())
        .collect();
    let missing = (0..DURABLE_EXECUTES)
        .filter(|&i| !names.contains(format!("durable {i}").as_str()))
        .count();
    if missing > 0 || rows.rows.len() != DURABLE_EXECUTES {
        return Err(format!(
            "durability probe: {missing} of {DURABLE_EXECUTES} acknowledged executes lost, {} rows after the crash",
            rows.rows.len()
        ));
    }
    Ok(())
}

/// `mdm-benchmark reopen <workload> <dir>`: what a restarted process
/// does. Opens the directory as the workload does, prints the seconds
/// the open took, and ends as a clean shutdown does (the drop
/// checkpoints).
pub fn reopen_child(workload: &str, dir: &Path) -> ExitCode {
    let Some(workload) = Workload::from_name(workload) else {
        eprintln!("mdm-benchmark: no workload {workload}");
        return ExitCode::from(2);
    };
    let started = Instant::now();
    match workload.open(dir) {
        Ok(mdm) => {
            println!("{}", started.elapsed().as_secs_f64());
            drop(mdm);
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("mdm-benchmark: reopen: {why}");
            ExitCode::from(1)
        }
    }
}

/// One restart: a child process of this executable opens `dir` and
/// prints how long the open took. `output` waits for the child to end.
fn reopen_in_child(cfg: &RunConfig, dir: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("my own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["reopen", cfg.workload.name()])
        .arg(dir)
        .output()
        .map_err(|e| format!("cannot start the reopen child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "reopen child: {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("the reopen child printed no time: {e}"))
}

/// `count` timed `save()`s of a manager.
fn timed_saves(
    mdm: &mut MusicDataManager,
    count: usize,
    seconds: &mut Vec<f64>,
) -> Result<(), String> {
    for _ in 0..count {
        let started = Instant::now();
        mdm.save().map_err(|e| e.to_string())?;
        seconds.push(started.elapsed().as_secs_f64());
    }
    Ok(())
}

/// The saves that precede the phases: on the corpus set-up has just
/// loaded, with the server (if any) stopped for them and started again.
fn saves_before(live: Live, seconds: &mut Vec<f64>) -> Result<Live, String> {
    match live {
        Live::Wire { server, ids } => {
            let mut mdm = server.shutdown().map_err(|e| e.to_string())?;
            timed_saves(&mut mdm, SAVES_BEFORE, seconds)?;
            Ok(Live::Wire {
                server: wire::start_server(mdm)?,
                ids,
            })
        }
        Live::Embedded { mut mdm, ids } => {
            timed_saves(&mut mdm, SAVES_BEFORE, seconds)?;
            Ok(Live::Embedded { mdm, ids })
        }
        // Bulk ingest saves inside its phases, once a cycle.
        ingest @ Live::Ingest { .. } => Ok(ingest),
    }
}

/// The state the phases left, saved, shut down and opened once more.
struct FinalState {
    reopened: MusicDataManager,
    /// Live entities and the per-type census before the shutdown.
    entities: usize,
    before_drop: BTreeMap<String, usize>,
    peak_rss_mib: f64,
}

/// Stops the workload, takes the saves that follow the phases, shuts
/// the manager down and opens the directory again. The memory
/// high-water mark is read here: it covers set-up, serving the phases,
/// the shutdown checkpoint, the saves and one open of the final state,
/// and none of what the benchmark does afterwards with its samples, its
/// checks, its copies and its repeat set-ups.
fn final_state(
    cfg: &RunConfig,
    live: Live,
    data_dir: &Path,
    save_seconds: &mut Vec<f64>,
) -> Result<FinalState, String> {
    let mut mdm = teardown(live)?;
    let (entities, before_drop) = (entities_live(&mdm), census(&mdm));
    // Bulk ingest has saved once a cycle all through its phases.
    if cfg.workload != Workload::BulkIngestRestart {
        timed_saves(&mut mdm, SAVES_AFTER, save_seconds)?;
    }
    drop(mdm);
    let reopened = cfg.workload.open(data_dir)?;
    Ok(FinalState {
        reopened,
        entities,
        before_drop,
        peak_rss_mib: host::peak_rss_mib(),
    })
}

/// Clients and streams of a workload, and what the phases yielded.
struct Driven {
    reports: Vec<ClientReport>,
    marks: PhaseMarks,
    /// Ops kept together when the phase is cut into segments: one, or
    /// one bulk-ingest cycle.
    unit: usize,
}

fn drive_live(
    cfg: &RunConfig,
    live: &mut Live,
    phases: &Phases,
    registry: &Registry,
) -> Result<Driven, String> {
    let corpus = cfg.corpus();
    let snapshot = || registry.snapshot();
    let snapshot: Option<&(dyn Fn() -> Snapshot + Sync)> = cfg.trace.then_some(&snapshot);
    let scratch = |c: usize, index_ddl| {
        LazyScratch::new(
            cfg.dir.join(format!("scratch-{c}")),
            cfg.workload.pool_pages(),
            index_ddl,
        )
    };
    match live {
        Live::Wire { server, ids } => {
            let mut clients: Vec<(Box<dyn Target + '_>, Box<dyn OpStream>)> = Vec::new();
            for c in 0..2 {
                let target = WireTarget {
                    client: wire::connect(server, &format!("bench-{c}"))?,
                    server,
                    scratch: scratch(c, WIRE_INDEXES),
                };
                let part = Partition::new(corpus, Arc::clone(ids), c, 2);
                let stream: Box<dyn OpStream> = match cfg.workload {
                    Workload::WireBrowse => Box::new(BrowseStream::new(part, cfg.seed)),
                    _ => Box::new(EditStream::new(part, cfg.seed)),
                };
                clients.push((Box::new(target), stream));
            }
            let (reports, marks) = drive(phases, clients, snapshot);
            Ok(Driven {
                reports,
                marks,
                unit: 1,
            })
        }
        Live::Embedded { mdm, ids } => {
            let mdm: &MusicDataManager = mdm;
            let at_or_above = embedded::notes_at_or_above(&corpus);
            let mut clients: Vec<(Box<dyn Target + '_>, Box<dyn OpStream>)> = Vec::new();
            for c in 0..2 {
                let part = Partition::new(corpus, Arc::clone(ids), c, 2);
                clients.push((
                    Box::new(SharedTarget { mdm }),
                    Box::new(AnalysisStream::new(part, cfg.seed, &at_or_above)),
                ));
            }
            let (reports, marks) = drive(phases, clients, snapshot);
            Ok(Driven {
                reports,
                marks,
                unit: 1,
            })
        }
        Live::Ingest { mdm, stream } => {
            // The stream moves into the client; its ledger comes back in
            // the report.
            let stream = stream
                .take()
                .ok_or("the ingest stream was already driven")?;
            let target: Box<dyn Target + '_> = Box::new(OwnedTarget {
                mdm,
                scratch: scratch(0, CATALOG_INDEX),
            });
            let clients = vec![(target, Box::new(stream) as Box<dyn OpStream>)];
            let (reports, marks) = drive(phases, clients, snapshot);
            Ok(Driven {
                reports,
                marks,
                unit: ingest::cycle_ops(cfg),
            })
        }
    }
}

fn client_samples(reports: &[ClientReport]) -> Vec<&[Sample]> {
    reports.iter().map(|r| r.samples.as_slice()).collect()
}

/// `ops_hash` (over warm-up results) and the op-list hash (over the
/// warm-up ops themselves): the clients' digests, in client order.
fn ops_hashes(reports: &[ClientReport]) -> (u64, u64) {
    let (mut results, mut ops) = (Fnv::default(), Fnv::default());
    for r in reports {
        results.u64(r.warm_digest);
        ops.u64(r.warm_ops_digest);
    }
    (results.0, ops.0)
}

/// The statement, score and DARMS text the probes run on.
struct ProbeMaterial {
    query: String,
    score: mdm_notation::Score,
    score_id: u64,
    darms: String,
}

const PROBE_DARMS_MEASURES: usize = 8;

fn probe_material(cfg: &RunConfig, live: &Live) -> Result<ProbeMaterial, String> {
    let corpus = cfg.corpus();
    let darms = gen::darms(
        &mut SplitMix64::stream(cfg.seed, 5_000),
        PROBE_DARMS_MEASURES,
    );
    let query_text = |op: crate::ops::Op| op.text().unwrap_or_default().to_string();
    match live {
        Live::Wire { ids, .. } => Ok(ProbeMaterial {
            query: query_text(queries::measure(&corpus, 0, 2)),
            score: corpus.score(0),
            score_id: ids[0],
            darms,
        }),
        Live::Embedded { ids, .. } => Ok(ProbeMaterial {
            query: query_text(queries::syncs(&corpus, 0, 2)),
            score: corpus.score(0),
            score_id: ids[0],
            darms,
        }),
        Live::Ingest { mdm, .. } => {
            // No catalogue here: the probe statement lists the stored
            // titles, and the probe score is whichever is stored first.
            let (score_id, _) = *mdm
                .list_scores()
                .map_err(|e| e.to_string())?
                .first()
                .ok_or("nothing stored to probe")?;
            Ok(ProbeMaterial {
                query: "range of s is SCORE\nretrieve (s.title)".to_string(),
                score: mdm.load_score(score_id).map_err(|e| e.to_string())?,
                score_id,
                darms,
            })
        }
    }
}

pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    remove_dir(&cfg.dir);
    std::fs::create_dir_all(&cfg.dir).map_err(|e| format!("{}: {e}", cfg.dir.display()))?;
    let spin_before = host::spin_ms();
    let mut notes = Vec::new();
    let mut errors = Vec::new();

    // ---- set-up -------------------------------------------------------
    let data_dir = cfg.dir.join("db");
    let started = Instant::now();
    let mut live = setup(cfg, &data_dir)?;
    let mut setup_seconds = vec![started.elapsed().as_secs_f64()];
    let mut save_seconds = Vec::new();
    if !cfg.trace {
        live = saves_before(live, &mut save_seconds)?;
    }
    let registry = match &live {
        Live::Wire { server, .. } => server.with_manager(MusicDataManager::metrics_registry),
        Live::Embedded { mdm, .. } | Live::Ingest { mdm, .. } => mdm.metrics_registry(),
    };
    let mut ledger = match cfg.workload {
        Workload::BulkIngestRestart => Ledger::default(),
        _ => wire::corpus_ledger(&cfg.corpus()),
    };

    // ---- the closed-loop phases ---------------------------------------
    let seconds = cfg.measure_seconds();
    let phases = Phases {
        warmup_ops: match cfg.workload {
            Workload::WireBrowse => cfg.scaled(4_000, 20),
            Workload::WireEdit => cfg.scaled(1_500, 20),
            Workload::EmbeddedAnalysis => cfg.scaled(60, 10),
            // A whole cycle, so the window is intact when timing starts.
            Workload::BulkIngestRestart => ingest::cycle_ops(cfg),
        },
        // A traced run splits its time: half untraced (the registry
        // deltas and the rate tracing is compared against), a quarter
        // traced, the rest left to the probes.
        measure_seconds: if cfg.trace { seconds / 2.0 } else { seconds },
        traced_seconds: if cfg.trace { seconds / 4.0 } else { 0.0 },
    };
    let Driven {
        reports,
        marks,
        unit,
    } = drive_live(cfg, &mut live, &phases, &registry)?;
    // An untraced run is done with the workload here; a traced one still
    // probes it.
    let (live, final_state) = if cfg.trace {
        (Some(live), None)
    } else {
        let state = final_state(cfg, live, &data_dir, &mut save_seconds)?;
        (None, Some(state))
    };
    let numbers = client_numbers(
        &client_samples(&reports),
        marks.start_ns,
        marks.cpu_seconds,
        unit,
    );
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    for r in &reports {
        errors.extend(r.errors.iter().cloned());
        ledger.merge(r.ledger.clone());
    }
    let (hash, oplist_hash) = ops_hashes(&reports);
    notes.push(format!(
        "op-list hash {oplist_hash:016x} (warm-up ops; ops_hash covers their results)"
    ));
    if numbers.completed == 0 {
        errors.push("no op completed in the measured phase".into());
    }
    notes.push(format!(
        "measured phase: {:.3} s, {} ops completed (each a latency sample), tail percentile p{}",
        (marks.end_ns - marks.start_ns) as f64 / 1e9,
        numbers.completed,
        numbers.tail_percentile
    ));
    let rates: Vec<String> = numbers.rates.iter().map(|r| format!("{r:.1}")).collect();
    notes.push(format!(
        "segment rates, ops/s ({} ops each): {}; {:.3} s of process CPU",
        numbers.completed / numbers.rates.len().max(1) / unit * unit,
        rates.join(" "),
        marks.cpu_seconds
    ));
    notes.push(format!(
        "latency medians: reads {:.1} us, writes {:.1} us (0 where the workload has none), \
         weighted by their shares of the ops",
        numbers.read_p50_us, numbers.write_p50_us
    ));
    notes.push(format!(
        "flush policy: engine default on every run (fsync per commit, group commit on); device: {}; \
         reopen_s is a restarted process opening the directory after a clean shutdown, OS cache warm",
        if cfg.workload == Workload::BulkIngestRestart {
            "plain files, real fdatasync".to_string()
        } else {
            format!(
                "plain files, modelled sync of {} us",
                crate::device::SYNC.as_micros()
            )
        }
    ));

    let mut metrics = Vec::new();
    if let Some(live) = live {
        metrics = traced_metrics(
            cfg,
            live,
            reports,
            &marks,
            &numbers,
            spin_before,
            &ledger,
            &mut errors,
        )?;
    } else if let Some(FinalState {
        reopened,
        entities,
        before_drop,
        peak_rss_mib,
    }) = final_state
    {
        if cfg.workload == Workload::BulkIngestRestart {
            // Every cycle of the measured phase ended in a save of the
            // full window: those are the saves.
            save_seconds.clone_from(&numbers.save_seconds);
        }
        check_reopened(&reopened, &ledger, &before_drop, &mut errors);
        // The data directory keeps every image it was ever saved (freed
        // pages are not reused), so its size counts saves, and how many
        // a run makes depends on its speed. `disk_bytes_per_entity` is
        // therefore taken on a vacuumed copy: the live data alone.
        let compact_dir = cfg.dir.join("compact");
        drop(
            reopened
                .engine()
                .vacuum_into(&compact_dir)
                .map_err(|e| e.to_string())?,
        );
        let disk_bytes = host::dir_bytes(&compact_dir);
        drop(reopened);
        let dir_bytes = host::dir_bytes(&data_dir);

        // ---- reopen_s, and the rest of setup_s --------------------------
        // A restart is a new process: each open runs in a child of its
        // own, on a heap no earlier phase has shaped. The opens come in
        // groups with the repeat set-ups between them, so they too are
        // spread over several seconds. The in-process open above stands
        // between the saves and the first child: an open straight after
        // a save takes up to half as long again as one after a clean
        // shutdown.
        let mut reopen_seconds = Vec::new();
        for round in 0..SETUP_REPEATS {
            if round > 0 {
                let again = cfg.dir.join(format!("setup-{round}"));
                let started = Instant::now();
                let live = setup(cfg, &again)?;
                setup_seconds.push(started.elapsed().as_secs_f64());
                drop(teardown(live)?);
                remove_dir(&again);
            }
            for _ in 0..REOPENS_PER_SETUP {
                reopen_seconds.push(reopen_in_child(cfg, &data_dir)?);
            }
        }
        if let Err(why) = durability_probe(&cfg.dir.join("durability")) {
            errors.push(why);
        }
        notes.push(format!("set-ups: {setup_seconds:.4?} s"));

        notes.push(format!(
            "saves: {save_seconds:.4?} s; reopens: {reopen_seconds:.4?} s"
        ));
        metrics.extend([
            metric("setup_s", stats::median(&setup_seconds), "s"),
            metric("throughput_ops_s", numbers.throughput_ops_s, "ops/s"),
            metric("latency_p50_us", numbers.latency_p50_us, "us"),
            metric("cpu_us_per_op", numbers.cpu_us_per_op, "us"),
            // No save at all only when no cycle completed, which is an
            // error already.
            metric(
                "save_s",
                if save_seconds.is_empty() {
                    0.0
                } else {
                    stats::median(&save_seconds)
                },
                "s",
            ),
            metric("reopen_s", stats::median(&reopen_seconds), "s"),
            metric(
                "disk_bytes_per_entity",
                disk_bytes as f64 / entities.max(1) as f64,
                "B",
            ),
            metric("peak_rss_mb", peak_rss_mib, "MiB"),
        ]);
        notes.push(format!(
            "final state: {entities} live entities, {disk_bytes} bytes vacuumed, {dir_bytes} bytes in the \
             data directory (space amplification {:.2}); tail latency p{} = {:.1} us; segment spread {:.3}; host spin {:.1} ms → {:.1} ms",
            dir_bytes as f64 / disk_bytes.max(1) as f64,
            numbers.tail_percentile,
            numbers.latency_tail_us,
            numbers.segment_spread,
            spin_before,
            host::spin_ms()
        ));
    }

    let correct = errors.is_empty() && failed == 0;
    if correct {
        // Per-run database directories are removed on success and kept
        // for inspection otherwise.
        remove_dir(&cfg.dir);
    }
    Ok(RunResult {
        workload: cfg.workload,
        seed: cfg.seed,
        seconds: cfg.seconds,
        scale: cfg.scale,
        trace: cfg.trace,
        correct,
        attempted,
        failed,
        ops_hash: hash,
        metrics,
        notes,
        errors,
    })
}

/// The ledger oracle plus the census check: what was live before the
/// drop is live after the reopen, type by type.
fn check_reopened(
    reopened: &MusicDataManager,
    ledger: &Ledger,
    before_drop: &BTreeMap<String, usize>,
    errors: &mut Vec<String>,
) {
    if let Err(why) = verify_ledger(reopened, ledger) {
        errors.push(why);
    }
    let after = census(reopened);
    if &after != before_drop {
        let changed: Vec<String> = before_drop
            .iter()
            .filter(|(k, v)| after.get(*k) != Some(v))
            .map(|(k, v)| format!("{k} {v} → {:?}", after.get(k)))
            .collect();
        errors.push(format!(
            "census changed across the reopen: {}",
            changed.join(", ")
        ));
    }
}

/// The traced half of a run: per-layer probes, the trace's own metrics,
/// and the span file.
#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    cfg: &RunConfig,
    live: Live,
    reports: Vec<ClientReport>,
    marks: &PhaseMarks,
    numbers: &ClientNumbers,
    spin_before: f64,
    ledger: &Ledger,
    errors: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let delta = match (&marks.before, &marks.after) {
        (Some(before), Some(after)) => after.delta(before),
        _ => return Err("traced run took no registry snapshots".into()),
    };
    let calls = cfg.scaled(1_000, 20);
    let mut metrics = vec![
        metric("client.latency_p99_us", numbers.latency_tail_us, "us"),
        metric("client.read_latency_p50_us", numbers.read_p50_us, "us"),
        metric("client.write_latency_p50_us", numbers.write_p50_us, "us"),
        metric("client.segment_spread", numbers.segment_spread, "ratio"),
    ];

    // net.* needs the server up; everything else the manager in hand.
    let material = probe_material(cfg, &live)?;
    if let Live::Wire { server, .. } = &live {
        let mut client = wire::connect(server, "bench-probe")?;
        metrics.extend(probe::net_probes(
            server,
            &mut client,
            &material.query,
            &material.score,
            calls,
            &delta,
            numbers.completed,
        )?);
        client.disconnect();
    } else {
        metrics.extend(probe::net_absent());
    }
    let mdm = teardown(live)?;
    let input = ProbeInput {
        mdm: &mdm,
        query: &material.query,
        score: &material.score,
        score_id: material.score_id,
        darms: &material.darms,
        darms_measures: PROBE_DARMS_MEASURES,
        calls,
    };
    let probe_dir = cfg.dir.join("probe");
    let index_ddl = if cfg.workload.is_wire() {
        WIRE_INDEXES
    } else {
        CATALOG_INDEX
    };
    let scratch = Scratch::open(&probe_dir, cfg.workload.pool_pages(), index_ddl)?;
    metrics.extend(probe::layer_probes(
        &input,
        scratch,
        &probe_dir.join("engine"),
        cfg.workload.pool_pages(),
        &delta,
    )?);

    // ---- trace.* ------------------------------------------------------
    let traced: usize = reports.iter().map(|r| r.traced_ops).sum();
    // Shadow replays are extra work the clients did between ops, not a
    // cost of recording spans: take their time out of the traced phase.
    let shadow_ns: u64 = reports.iter().map(|r| r.shadow_ns).max().unwrap_or(0);
    let traced_wall = (marks.traced_end_ns - marks.traced_start_ns).saturating_sub(shadow_ns);
    let traced_rate = traced as f64 / (traced_wall.max(1) as f64 / 1e9);
    let untraced_rate =
        numbers.completed as f64 / ((marks.end_ns - marks.start_ns).max(1) as f64 / 1e9);
    let overhead_pct = if untraced_rate > 0.0 {
        (1.0 - traced_rate / untraced_rate) * 100.0
    } else {
        0.0
    };
    let spans = trace::merge(reports.into_iter().map(|r| r.recorder).collect());
    let layers = trace::layer_self_us(&spans);
    metrics.push(metric("trace.overhead_pct", overhead_pct, "%"));
    metrics.push(metric("trace.spans", spans.len() as f64, "count"));
    for (layer, own) in trace::LAYERS.iter().zip(layers) {
        metrics.push(metric(&format!("trace.self_us.{layer}"), own, "us"));
    }
    let trace_path = trace_file(cfg);
    if let Some(parent) = trace_path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    trace::write_jsonl(&trace_path, &spans)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    // ---- host.* -------------------------------------------------------
    metrics.extend([
        metric("host.nproc", host::nproc() as f64, "count"),
        metric("host.spin_ms", (spin_before + host::spin_ms()) / 2.0, "ms"),
        metric("host.fsync_p50_us", host::fsync_p50_us(&cfg.dir, 50), "us"),
        metric("host.loadavg_1m", host::loadavg_1m(), "load"),
    ]);

    // A traced run is still checked: one save, one reopen, the ledger.
    let mut mdm = mdm;
    mdm.save().map_err(|e| e.to_string())?;
    let before_drop = census(&mdm);
    drop(mdm);
    let reopened = cfg.workload.open(&cfg.dir.join("db"))?;
    check_reopened(&reopened, ledger, &before_drop, errors);
    Ok(metrics)
}

/// Where a traced run leaves its spans: `out/<workload>.trace.jsonl`,
/// beside the per-run directories.
fn trace_file(cfg: &RunConfig) -> PathBuf {
    let out = cfg.dir.parent().unwrap_or(&cfg.dir);
    out.join(format!("{}.trace.jsonl", cfg.workload.name()))
}
