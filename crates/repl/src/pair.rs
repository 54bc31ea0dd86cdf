//! The replication pair torture harness: kill the primary at every I/O
//! boundary, promote the replica, and hold the promoted survivor to the
//! same ledger oracle the single-node crash sweep uses.
//!
//! The mechanics mirror [`mdm_storage::crash_point_sweep`]: a clean
//! census run enumerates the primary's I/O boundaries, then one run per
//! (strided) boundary crashes the primary there. Each run drives the
//! shared torture workload on the primary while a hook streams its
//! durable WAL into a replica engine after every settled round —
//! exactly what the networked pull loop does, minus the wire. After the
//! crash, the harness drains whatever the primary had acknowledged as
//! durable (reading the on-disk log directly, as a surviving replica
//! would), promotes the replica, and verifies it against the ledger:
//! every commit the primary acknowledged must be on the promoted node,
//! atomically.
//!
//! Census neutrality: the replica lives on the plain filesystem in a
//! sibling directory and the stream reads bypass the primary's fault
//! layer, so attaching the replica does not shift the primary's
//! boundary numbering — the same boundary index crashes the same I/O
//! with or without it.

use crate::replica::promote_engine;
use mdm_obs::Registry;
use mdm_storage::{
    run_workload_with, verify_reopen, At, FaultController, FaultKind, FaultPlan, Ledger,
    StorageEngine, TortureConfig, TortureReport, WalRecord,
};
use std::fs;
use std::path::Path;

/// Streams every durable record the replica is missing from the primary
/// into the replica's log, folding and rotating at checkpoint markers
/// the way the live pull loop does. Works on a crashed primary too: the
/// log read goes to the real on-disk bytes, and the durable watermark
/// never exceeds what was actually fsynced.
fn pull_into(primary: &StorageEngine, replica: &StorageEngine) -> mdm_storage::Result<()> {
    loop {
        let from = replica.wal_next_lsn();
        let (batch, _durable) = primary.wal_read_from(from, 1 << 20)?;
        if batch.is_empty() {
            return Ok(());
        }
        let mut start = 0usize;
        for i in 0..batch.len() {
            let is_marker =
                WalRecord::decode(&batch[i].1).is_some_and(|r| matches!(r, WalRecord::Checkpoint));
            if is_marker {
                replica.replica_apply(&batch[start..=i])?;
                start = i + 1;
                replica.replica_checkpoint()?;
            }
        }
        if start < batch.len() {
            replica.replica_apply(&batch[start..])?;
        }
    }
}

/// One primary+replica run under `ctl`'s fault plan. Returns whether
/// the run completed its full workload (census-pass health check).
fn run_pair(
    dir_p: &Path,
    dir_r: &Path,
    cfg: &TortureConfig,
    ctl: &FaultController,
    ledger: &mut Ledger,
) -> bool {
    let _ = fs::remove_dir_all(dir_p);
    let _ = fs::remove_dir_all(dir_r);
    let Ok(replica) = StorageEngine::open_with_capacity(dir_r, cfg.pool_pages) else {
        return false;
    };
    if replica.set_replica(true).is_err() {
        return false;
    }
    let mut complete = false;
    if let Ok(primary) =
        StorageEngine::open_with_vfs(dir_p, cfg.pool_pages, &Registry::new(), &ctl.vfs())
    {
        // A pulled-from node must retain every frame until the replica
        // has it: archive mode, exactly as the server's pull handler
        // enforces. Same call in census and crash passes, so boundary
        // numbering stays aligned. A failure here is a crash landing
        // inside the seed; the workload below then fails the same way.
        let _ = primary.enable_wal_archive();
        let p = primary.clone();
        let r = replica.clone();
        let mut hook = |_round: usize, _l: &Ledger| {
            // Stream after every settled round; mid-run errors are
            // fine (a fold retries at the next marker), the post-crash
            // drain below is what correctness rests on.
            let _ = pull_into(&p, &r);
        };
        run_workload_with(&primary, cfg.rounds, ledger, &mut hook);
        complete = true;
        // Failover: the primary is (possibly) dead; drain everything it
        // ever acknowledged as durable, then let go of it. Dropping it
        // attempts the shutdown checkpoint, whose records the replica
        // no longer needs (they fold nothing new).
        let _ = pull_into(&primary, &replica);
    }
    // Promote: fold the streamed log into the pages, flip to primary.
    // Ignore errors here — verification below reopens the directory
    // cold and reports anything real as a violation.
    let _ = promote_engine(&replica);
    complete
}

/// The pair sweep. `scratch` may be filled with (and cleared of)
/// per-boundary primary/replica directory pairs; fault totals land in
/// `registry` under `mdm_repl_pair_*`.
pub fn pair_crash_sweep(scratch: &Path, cfg: &TortureConfig, registry: &Registry) -> TortureReport {
    let m_points = registry.counter(
        "mdm_repl_pair_points_total",
        "primary crash points explored with a replica attached",
    );
    let m_violations = registry.counter(
        "mdm_repl_pair_violations_total",
        "ledger violations found on promoted replicas",
    );

    let mut report = TortureReport::default();
    let stride = cfg.stride.max(1);

    // Pass 1: census. The clean run enumerates the primary's I/O
    // boundaries; the attached replica adds none (see module docs).
    let clean = FaultController::new(FaultPlan::none());
    clean.enable_trace();
    let (clean_p, clean_r) = (scratch.join("clean-p"), scratch.join("clean-r"));
    {
        let mut ledger = Ledger::default();
        if !run_pair(&clean_p, &clean_r, cfg, &clean, &mut ledger) {
            report
                .violations
                .push("clean pair run failed without any fault injected".to_string());
        }
        // Baseline: with no fault at all, the promoted replica must
        // reproduce the primary's committed state exactly.
        verify_reopen(
            &clean_r,
            cfg.pool_pages,
            &ledger,
            "replica after clean run",
            &mut report.violations,
        );
    }
    let _ = fs::remove_dir_all(&clean_p);
    let _ = fs::remove_dir_all(&clean_r);
    let trace = clean.trace();
    report.boundaries = clean.ops();
    report.writes = clean.writes();
    report.syncs = clean.syncs();
    if report.boundaries == 0 {
        return report;
    }

    // Pass 2: kill the primary at every (strided) boundary; the promoted
    // replica must satisfy the same oracle the crashed node would.
    let mut b = 0;
    while b < report.boundaries {
        let dir_p = scratch.join(format!("pair-{b}-p"));
        let dir_r = scratch.join(format!("pair-{b}-r"));
        let ctl = FaultController::new(FaultPlan::none().with(At::Op(b), FaultKind::Crash));
        let mut ledger = Ledger::default();
        run_pair(&dir_p, &dir_r, cfg, &ctl, &mut ledger);
        if ctl.crashed() {
            report.crash_points += 1;
            m_points.inc();
            let what = match trace.get(b as usize) {
                Some(desc) => format!("replica after primary crash at {desc}"),
                None => format!("replica after primary crash at op {b}"),
            };
            verify_reopen(
                &dir_r,
                cfg.pool_pages,
                &ledger,
                &what,
                &mut report.violations,
            );
        } else {
            report.violations.push(format!(
                "pair crash at op {b}: boundary never reached (nondeterministic workload?)"
            ));
        }
        let _ = fs::remove_dir_all(&dir_p);
        let _ = fs::remove_dir_all(&dir_r);
        b += stride;
    }

    m_violations.add(report.violations.len() as u64);
    report
}
