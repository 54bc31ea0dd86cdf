//! Crash-point torture harness.
//!
//! The harness answers one question exhaustively: *is there any single
//! I/O boundary at which a crash loses committed data, resurrects
//! uncommitted data, or leaves the database unopenable?*
//!
//! It works in two passes:
//!
//! 1. **Enumeration.** Run a fixed, deterministic workload against an
//!    engine whose files are wrapped by a [`FaultController`] with an
//!    empty plan. Every write, truncate, and fsync increments the
//!    controller's operation counter; the final count `N` is the number
//!    of distinct crash boundaries the workload exposes.
//! 2. **Exploration.** For each boundary `b < N` (optionally strided),
//!    replay the identical workload in a fresh directory with
//!    [`FaultKind::Crash`] planted at [`At::Op`]`(b)`. The fault layer
//!    drops every byte the engine never fsynced — the kernel page cache
//!    dying with the machine — then the harness reopens the directory
//!    with the plain [`FileVfs`](crate::backend::FileVfs) and checks
//!    invariants against a ledger it kept while driving the workload:
//!
//!    * every transaction whose `commit` returned `Ok` is fully visible;
//!    * every transaction that aborted, or never reached `commit`, is
//!      fully invisible;
//!    * the single transaction (at most one — the workload is
//!      single-threaded) whose `commit` returned `Err` is *atomic*:
//!      fully visible or fully invisible, never partial;
//!    * recovery returns typed errors, never panics; and
//!    * the reopened engine still accepts and serves writes.
//!
//! A second sweep plants [`FaultKind::TornWrite`] at each write
//! boundary instead, persisting a partial sector on the way down —
//! exercising the WAL's torn-tail tolerance and the pager's
//! garbage-page hardening.
//!
//! The workload is intentionally single-threaded: determinism is what
//! lets one counted run stand in for every replay, so each explored
//! boundary is a *real* state the engine could have died in.

use std::collections::BTreeSet;
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use mdm_obs::Registry;

use crate::engine::StorageEngine;
use crate::error::Result;
use crate::fault::{At, FaultController, FaultKind, FaultPlan};
use crate::page::Rid;
use crate::wal::TableId;

/// Histogram bounds (µs) for crash-recovery reopen latency.
const REOPEN_MICROS_BOUNDS: &[u64] = &[
    250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// Tables the workload writes into. Rounds alternate between the first
/// two; every round also writes the third, [`C`].
const TABLES: [&str; 3] = ["torture_a", "torture_b", "torture_c"];

/// Position of the table every round writes in [`TABLES`].
const C: usize = 2;

/// Tuning for a torture sweep.
#[derive(Debug, Clone)]
pub struct TortureConfig {
    /// Transaction rounds in the workload. More rounds expose more
    /// boundaries (and a longer WAL) at linear cost per replay.
    pub rounds: usize,
    /// Buffer pool capacity in pages. Kept small so the workload forces
    /// evictions, putting the flush barrier and dirty-page writes on
    /// the boundary list.
    pub pool_pages: usize,
    /// Explore every `stride`-th boundary (1 = all of them).
    pub stride: u64,
    /// Also run the torn-write sweep.
    pub torn_writes: bool,
}

impl TortureConfig {
    /// The full sweep: every boundary, both fault kinds.
    pub fn full() -> TortureConfig {
        TortureConfig {
            rounds: 80,
            pool_pages: 16,
            stride: 1,
            torn_writes: true,
        }
    }

    /// A strided smoke-test sweep, cheap enough for debug builds.
    pub fn smoke() -> TortureConfig {
        TortureConfig {
            rounds: 40,
            pool_pages: 16,
            stride: 9,
            torn_writes: true,
        }
    }
}

/// Everything a sweep learned.
#[derive(Debug, Default)]
pub struct TortureReport {
    /// Crash boundaries the clean run exposed (writes + truncates + fsyncs).
    pub boundaries: u64,
    /// Write/truncate boundaries among them.
    pub writes: u64,
    /// Fsync boundaries among them.
    pub syncs: u64,
    /// Distinct injected-crash states actually explored and verified.
    pub crash_points: u64,
    /// Invariant violations, in discovery order. Empty means the engine
    /// survived every explored crash.
    pub violations: Vec<String>,
}

// ----------------------------------------------------------------------
// Ledger: what must / may be on disk after the crash
// ----------------------------------------------------------------------

/// One transaction's net effect on visible rows, as `(table, body)`
/// pairs. Bodies are unique across the whole workload, so sets suffice.
#[derive(Debug, Default)]
struct Effects {
    added: Vec<(String, String)>,
    removed: Vec<(String, String)>,
}

/// The oracle the workload maintains while driving the engine.
#[derive(Debug, Default)]
struct Ledger {
    /// Tables whose `create_table` returned `Ok` (hence durably
    /// snapshotted — `create_table` syncs the catalog).
    tables: Vec<String>,
    /// Rows every correct recovery must surface.
    committed: BTreeSet<(String, String)>,
    /// The effects of the one transaction whose commit returned `Err`:
    /// the crash may have landed either side of its durability point,
    /// so recovery may surface it fully applied or fully absent — but
    /// nothing in between.
    unknown: Option<Effects>,
}

impl Ledger {
    fn apply(&mut self, eff: Effects) {
        for r in &eff.removed {
            self.committed.remove(r);
        }
        for a in eff.added {
            self.committed.insert(a);
        }
    }

    /// The committed set with the unknown transaction applied on top.
    fn with_unknown(&self) -> Option<BTreeSet<(String, String)>> {
        self.unknown.as_ref().map(|eff| {
            let mut s = self.committed.clone();
            for r in &eff.removed {
                s.remove(r);
            }
            for a in &eff.added {
                s.insert(a.clone());
            }
            s
        })
    }
}

// ----------------------------------------------------------------------
// Workload
// ----------------------------------------------------------------------

fn body_for(round: usize, i: usize) -> String {
    // Varying sizes force page growth, chain extension, and evictions.
    let pad = "x".repeat(24 + (round * 37 + i * 11) % 180);
    format!("t{}-r{round}-i{i}:{pad}", round % 2)
}

/// Drives the deterministic workload, recording into `ledger` what a
/// post-crash recovery must (and must not) surface. Returns early once
/// the injected crash makes commits impossible.
fn run_workload(engine: &StorageEngine, rounds: usize, ledger: &mut Ledger) {
    let mut ids: Vec<TableId> = Vec::new();
    for name in TABLES {
        match engine.create_table(name) {
            Ok(id) => {
                ids.push(id);
                ledger.tables.push(name.to_string());
            }
            Err(_) => return, // crash during setup: nothing committed
        }
    }
    // Rows visible to committed readers: (table index, rid, body).
    let mut live: Vec<(usize, Rid, String)> = Vec::new();
    // Same, for the table every round writes: (rid, body).
    let mut live_c: Vec<(Rid, String)> = Vec::new();
    for r in 0..rounds {
        if r % 10 == 9 {
            // A mid-checkpoint crash surfaces as Err here; committed
            // state is already durable, so just keep driving.
            let _ = engine.checkpoint();
        }
        let t = r % 2;
        let Ok(mut txn) = engine.begin() else { return };
        let mut eff = Effects::default();
        let mut live_add: Vec<(usize, Rid, String)> = Vec::new();
        let mut live_del: Vec<usize> = Vec::new();
        let mut broke = false;
        for i in 0..(1 + r % 2) {
            let body = body_for(r, i);
            match engine.insert(&mut txn, ids[t], body.as_bytes()) {
                Ok(rid) => {
                    eff.added.push((TABLES[t].to_string(), body.clone()));
                    live_add.push((t, rid, body));
                }
                Err(_) => {
                    broke = true;
                    break;
                }
            }
        }
        // The third table's traffic rides in the same transaction, so it
        // shares the commit/abort/crash fate of the other writes.
        let mut live_c_add: Vec<(Rid, String)> = Vec::new();
        let mut live_c_del: Vec<usize> = Vec::new();
        if !broke {
            let body = format!("c-r{r}:{}", "z".repeat(24 + (r * 41) % 170));
            match engine.insert(&mut txn, ids[C], body.as_bytes()) {
                Ok(rid) => {
                    eff.added.push((TABLES[C].to_string(), body.clone()));
                    live_c_add.push((rid, body));
                }
                Err(_) => broke = true,
            }
        }
        if !broke && r % 4 == 2 && !live_c.is_empty() {
            let v = (r * 29) % live_c.len();
            let (vrid, vbody) = live_c[v].clone();
            let nb = format!("c-r{r}-upd:{}", "w".repeat(24 + (r * 59) % 150));
            match engine.update(&mut txn, ids[C], vrid, nb.as_bytes()) {
                Ok(nrid) => {
                    eff.removed.push((TABLES[C].to_string(), vbody));
                    eff.added.push((TABLES[C].to_string(), nb.clone()));
                    live_c_del.push(v);
                    live_c_add.push((nrid, nb));
                }
                Err(_) => broke = true,
            }
        }
        if !broke && r % 3 == 1 && !live_c.is_empty() {
            let v = (r * 13) % live_c.len();
            // Skip the row the update above just moved: its rid is stale.
            if !live_c_del.contains(&v) {
                let (vrid, vbody) = live_c[v].clone();
                match engine.delete(&mut txn, ids[C], vrid) {
                    Ok(_) => {
                        eff.removed.push((TABLES[C].to_string(), vbody));
                        live_c_del.push(v);
                    }
                    Err(_) => broke = true,
                }
            }
        }
        if !broke && r % 4 == 2 && !live.is_empty() {
            let v = (r * 31) % live.len();
            let (vt, vrid, vbody) = live[v].clone();
            let nb = format!("t{vt}-r{r}-upd:{}", "y".repeat(24 + (r * 53) % 160));
            match engine.update(&mut txn, ids[vt], vrid, nb.as_bytes()) {
                Ok(nrid) => {
                    eff.removed.push((TABLES[vt].to_string(), vbody));
                    eff.added.push((TABLES[vt].to_string(), nb.clone()));
                    live_del.push(v);
                    live_add.push((vt, nrid, nb));
                }
                Err(_) => broke = true,
            }
        }
        if !broke && r % 5 == 3 && !live.is_empty() {
            let v = (r * 17) % live.len();
            // Skip the row the update above just moved: its rid is stale.
            if !live_del.contains(&v) {
                let (vt, vrid, vbody) = live[v].clone();
                match engine.delete(&mut txn, ids[vt], vrid) {
                    Ok(_) => {
                        eff.removed.push((TABLES[vt].to_string(), vbody));
                        live_del.push(v);
                    }
                    Err(_) => broke = true,
                }
            }
        }
        if broke || r % 7 == 6 {
            // Aborted (deliberately or by the crash): must be invisible
            // after recovery either way, so the ledger records nothing.
            let _ = engine.abort(txn);
            continue;
        }
        match engine.commit(txn) {
            Ok(()) => {
                ledger.apply(eff);
                live_del.sort_unstable_by(|a, b| b.cmp(a));
                for v in live_del {
                    live.swap_remove(v);
                }
                live.extend(live_add);
                live_c_del.sort_unstable_by(|a, b| b.cmp(a));
                for v in live_c_del {
                    live_c.swap_remove(v);
                }
                live_c.extend(live_c_add);
            }
            Err(_) => {
                // Commit outcome unknowable: the crash landed somewhere
                // in the durability protocol. Atomicity still required.
                ledger.unknown = Some(eff);
                return;
            }
        }
    }
}

// ----------------------------------------------------------------------
// Verification
// ----------------------------------------------------------------------

/// Reopens `dir` with the plain file VFS and checks every invariant the
/// ledger implies. Returns the reopen (recovery) latency in µs, or
/// `None` if the reopen itself failed.
fn verify_reopen(
    dir: &Path,
    pool_pages: usize,
    ledger: &Ledger,
    what: &str,
    violations: &mut Vec<String>,
) -> Option<u64> {
    let started = Instant::now();
    let opened = panic::catch_unwind(AssertUnwindSafe(|| {
        StorageEngine::open_with_capacity(dir, pool_pages)
    }));
    let micros = started.elapsed().as_micros() as u64;
    let engine = match opened {
        Err(_) => {
            violations.push(format!("{what}: recovery panicked"));
            return None;
        }
        Ok(Err(e)) => {
            violations.push(format!("{what}: recovery failed: {e}"));
            return None;
        }
        Ok(Ok(engine)) => engine,
    };

    // Gather what recovery actually surfaced.
    let mut actual: BTreeSet<(String, String)> = BTreeSet::new();
    let mut scan_ok = true;
    match engine.begin() {
        Ok(mut txn) => {
            for name in &ledger.tables {
                match engine.table_id(name) {
                    Ok(id) => match engine.scan(&mut txn, id) {
                        Ok(rows) => {
                            for (_, body) in rows {
                                actual.insert((
                                    name.clone(),
                                    String::from_utf8_lossy(&body).into_owned(),
                                ));
                            }
                        }
                        Err(e) => {
                            violations.push(format!("{what}: scan of {name} failed: {e}"));
                            scan_ok = false;
                        }
                    },
                    Err(e) => {
                        violations.push(format!("{what}: committed table {name} lost: {e}"));
                        scan_ok = false;
                    }
                }
            }
            let _ = engine.commit(txn);
        }
        Err(e) => {
            violations.push(format!("{what}: begin failed after recovery: {e}"));
            scan_ok = false;
        }
    }

    if scan_ok {
        let matches_base = actual == ledger.committed;
        let matches_unknown = ledger.with_unknown().is_some_and(|with| actual == with);
        if !matches_base && !matches_unknown {
            let missing: Vec<_> = ledger.committed.difference(&actual).take(3).collect();
            let phantom: Vec<_> = actual.difference(&ledger.committed).take(3).collect();
            violations.push(format!(
                "{what}: durability/atomicity violated \
                 (missing committed rows: {missing:?}; unexpected rows: {phantom:?})"
            ));
        }
    }

    // The survivor must still accept writes.
    let probe = (|| -> Result<bool> {
        let table = match engine.table_id("torture_probe") {
            Ok(id) => id,
            Err(_) => engine.create_table("torture_probe")?,
        };
        let mut txn = engine.begin()?;
        let rid = engine.insert(&mut txn, table, b"probe")?;
        let back = engine.get(&mut txn, table, rid)?;
        engine.commit(txn)?;
        Ok(back.as_deref() == Some(b"probe".as_slice()))
    })();
    match probe {
        Ok(true) => {}
        Ok(false) => violations.push(format!("{what}: probe row unreadable after recovery")),
        Err(e) => violations.push(format!("{what}: engine not writable after recovery: {e}")),
    }
    Some(micros)
}

// ----------------------------------------------------------------------
// Sweep driver
// ----------------------------------------------------------------------

/// Runs the workload once under `ctl`'s plan in `dir`, recording the
/// oracle into `ledger`. An open that dies mid-crash is fine: the
/// ledger stays empty and verification checks the empty state.
fn run_one(dir: &Path, cfg: &TortureConfig, ctl: &FaultController, ledger: &mut Ledger) {
    let _ = fs::remove_dir_all(dir);
    if let Ok(engine) =
        StorageEngine::open_with_vfs(dir, cfg.pool_pages, &Registry::new(), &ctl.vfs())
    {
        run_workload(&engine, cfg.rounds, ledger);
        // Dropping the engine attempts a shutdown checkpoint; in crash
        // runs whose boundary lands there, the crash fires *inside* it.
    }
}

/// The crash-point exploration sweep. `scratch` is a directory the
/// sweep may fill with (and delete) per-boundary database directories.
/// Fault-layer totals land in `registry` as `mdm_fault_*` metrics.
pub fn crash_point_sweep(
    scratch: &Path,
    cfg: &TortureConfig,
    registry: &Registry,
) -> TortureReport {
    let m_ops = registry.counter(
        "mdm_fault_ops_total",
        "I/O operations counted by the fault layer (crash boundaries)",
    );
    let m_injected = registry.counter(
        "mdm_fault_injected_total",
        "faults injected by scripted plans",
    );
    let m_crashes = registry.counter("mdm_fault_crashes_total", "simulated machine crashes fired");
    let m_points = registry.counter(
        "mdm_fault_crash_points_total",
        "distinct crash boundaries explored and verified",
    );
    let m_violations = registry.counter(
        "mdm_fault_violations_total",
        "invariant violations found by the torture harness",
    );
    let h_reopen = registry.histogram(
        "mdm_fault_reopen_micros",
        "crash-recovery reopen latency (µs)",
        REOPEN_MICROS_BOUNDS,
    );

    let mut report = TortureReport::default();
    let stride = cfg.stride.max(1);

    // Pass 1: clean run enumerates the boundaries (including those in
    // the engine's shutdown checkpoint — drop before counting). The op
    // trace names each boundary in any violation reported against it.
    let clean = FaultController::new(FaultPlan::none());
    clean.enable_trace();
    let clean_dir = scratch.join("clean");
    {
        let mut ledger = Ledger::default();
        run_one(&clean_dir, cfg, &clean, &mut ledger);
        if ledger.tables.len() < TABLES.len() || ledger.unknown.is_some() {
            report
                .violations
                .push("clean run failed without any fault injected".to_string());
        }
    }
    let _ = fs::remove_dir_all(&clean_dir);
    let trace = clean.trace();
    report.boundaries = clean.ops();
    report.writes = clean.writes();
    report.syncs = clean.syncs();
    m_ops.add(report.boundaries);
    if report.boundaries == 0 {
        return report;
    }

    // Pass 2a: a hard crash at every (strided) boundary.
    let mut b = 0;
    while b < report.boundaries {
        let dir = scratch.join(format!("crash-{b}"));
        let ctl = FaultController::new(FaultPlan::none().with(At::Op(b), FaultKind::Crash));
        let mut ledger = Ledger::default();
        run_one(&dir, cfg, &ctl, &mut ledger);
        m_ops.add(ctl.ops());
        m_injected.add(ctl.injected());
        if ctl.crashed() {
            m_crashes.inc();
            report.crash_points += 1;
            m_points.inc();
            let what = match trace.get(b as usize) {
                Some(desc) => format!("crash at {desc}"),
                None => format!("crash at op {b}"),
            };
            if let Some(us) =
                verify_reopen(&dir, cfg.pool_pages, &ledger, &what, &mut report.violations)
            {
                h_reopen.observe(us);
            }
        } else {
            report.violations.push(format!(
                "crash at op {b}: boundary never reached (nondeterministic workload?)"
            ));
        }
        let _ = fs::remove_dir_all(&dir);
        b += stride;
    }

    // Pass 2b: a torn write (partial sector persists, then crash) at
    // every (strided) write boundary.
    if cfg.torn_writes {
        let mut w = 0;
        while w < report.writes {
            let keep = 1 + (w as usize * 97) % 700;
            let dir = scratch.join(format!("torn-{w}"));
            let ctl = FaultController::new(
                FaultPlan::none().with(At::Write(w), FaultKind::TornWrite { keep }),
            );
            let mut ledger = Ledger::default();
            run_one(&dir, cfg, &ctl, &mut ledger);
            m_ops.add(ctl.ops());
            m_injected.add(ctl.injected());
            if ctl.crashed() {
                m_crashes.inc();
                report.crash_points += 1;
                m_points.inc();
                let what = format!("torn write {w} (keep {keep})");
                if let Some(us) =
                    verify_reopen(&dir, cfg.pool_pages, &ledger, &what, &mut report.violations)
                {
                    h_reopen.observe(us);
                }
            } else {
                report.violations.push(format!(
                    "torn write {w}: boundary never reached (nondeterministic workload?)"
                ));
            }
            let _ = fs::remove_dir_all(&dir);
            w += stride;
        }
    }

    m_violations.add(report.violations.len() as u64);
    report
}
