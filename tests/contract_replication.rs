//! Contract: a promoted replica holds every commit its primary
//! acknowledged.
//!
//! Subsystems this contract needs: the `mdm-core` manager on both ends —
//! the primary's stream (`repl_pull`: committed transactions decoded from
//! its durable log, or a seed) and the replica's one write path
//! (`repl_cursor`, `repl_apply`, `promote`), the same calls the server
//! and `ReplicaNode` make — over `mdm-model` persistence and the
//! `mdm-storage` engine, the primary's under the fault-injecting VFS.
//!
//! The primary runs `contract_durability.rs`'s workload; a replica on
//! plain files pulls after every acknowledged step. A crash lands at
//! every strided sync boundary and a torn write at every strided write
//! boundary of the primary. After each, the replica drains what the dead
//! primary made durable and is promoted. A promoted replica must hold
//! exactly what the acknowledged commit points wrote — plus, all or
//! nothing, the one in flight — in memory and after a cold reopen, and
//! accept a write. A replica that could not catch up must refuse
//! promotion as `Stale`, holding a state the primary had.

use std::path::{Path, PathBuf};

use musicdb::mdm::{CoreError, MusicDataManager};
use musicdb::model::Value;
use musicdb::storage::{At, FaultController, FaultKind, FaultPlan};

mod support;
use support::{model, run, summarize, Summary, POOL_PAGES, STEPS};

/// Pull budget: small enough that a seed arrives in slices.
const MAX_BYTES: usize = 16 << 10;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "musicdb-contract-replication-{}-{tag}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Pulls until the replica's cursor stops moving; returns the primary's
/// durable watermark as the last pull reported it. A failed pull ends
/// the drain: the replica stays where it got to.
fn pull(primary: &MusicDataManager, replica: &mut MusicDataManager, required: &mut u64) {
    loop {
        let cursor = replica.repl_cursor();
        let Ok((feed, durable)) = primary.repl_pull(cursor.0, cursor.1, MAX_BYTES) else {
            return;
        };
        *required = durable;
        if replica.repl_apply(feed).is_err() || replica.repl_cursor() == cursor {
            return;
        }
    }
}

/// Runs the workload on a primary under `ctl` with a replica pulling
/// after every acknowledged step, drains the replica and promotes it.
/// Returns how many steps were acknowledged and whether it promoted
/// (`false`: refused as `Stale`).
fn drive(dir: &Path, ctl: &FaultController) -> Result<(usize, bool), String> {
    let mut replica = MusicDataManager::open(&dir.join("replica"))
        .and_then(|mut r| r.become_replica().map(|()| r))
        .map_err(|e| format!("replica open failed: {e}"))?;
    let (mut required, mut acked) = (0, 0);
    let vfs = ctl.vfs();
    if let Ok(mut primary) = MusicDataManager::open_with_vfs(&dir.join("primary"), POOL_PAGES, &vfs)
    {
        for step in STEPS {
            if run(&mut primary, step).is_err() {
                break;
            }
            acked += 1;
            pull(&primary, &mut replica, &mut required);
        }
        pull(&primary, &mut replica, &mut required);
        // A crashed process leaves no shutdown checkpoint.
        std::mem::forget(primary);
    }
    match replica.promote(required) {
        Ok(()) => Ok((acked, true)),
        Err(CoreError::Stale { .. }) => Ok((acked, false)),
        Err(e) => Err(format!("promotion failed: {e}")),
    }
}

/// Reopens the replica cold. Promoted, it must hold what the
/// acknowledged steps wrote, or that plus the one in flight, and take a
/// write; refused, it must be a replica still, holding a state some
/// step left.
fn check(dir: &Path, acked: usize, promoted: bool, model: &[Summary]) -> Result<(), String> {
    let mut mdm =
        MusicDataManager::open(&dir.join("replica")).map_err(|e| format!("reopen failed: {e}"))?;
    let got = summarize(mdm.database());
    let end = (acked + 2).min(model.len());
    let allowed = &model[if promoted { acked } else { 0 }..end];
    if mdm.is_replica() == promoted || !allowed.contains(&got) {
        return Err(format!(
            "after {acked} acknowledged steps (promoted: {promoted}) the replica \
             (a replica still: {}) holds {got:?}, expected one of {allowed:?}",
            mdm.is_replica()
        ));
    }
    if promoted {
        mdm.execute("append to PERSON (name = \"survivor\")")
            .map_err(|e| format!("the promoted replica refused a write: {e}"))?;
        let t = mdm
            .query("range of p is PERSON retrieve (p.name) where p.name = \"survivor\"")
            .map_err(|e| e.to_string())?;
        if t.rows != vec![vec![Value::String("survivor".into())]] {
            return Err(format!("the promoted replica's write reads back as {t}"));
        }
    }
    Ok(())
}

/// Runs one trial and checks it; returns whether the replica promoted.
fn trial(tag: &str, plan: FaultPlan, model: &[Summary]) -> Result<bool, String> {
    let dir = scratch(tag);
    let ctl = FaultController::new(plan);
    let result = drive(&dir, &ctl)
        .and_then(|(acked, promoted)| check(&dir, acked, promoted, model).map(|()| promoted));
    std::fs::remove_dir_all(&dir).ok();
    result
}

/// The sweep: a fault-free run counts the primary's boundaries, then
/// every `stride`-th sync gets a crash and every `stride`-th write a torn
/// write. Returns the violations, each naming its boundary.
fn sweep(stride: usize) -> Vec<String> {
    let model = model();
    let (syncs, writes) = {
        let dir = scratch(&format!("{stride}-census"));
        let ctl = FaultController::new(FaultPlan::none());
        let (acked, promoted) = drive(&dir, &ctl).expect("the fault-free run promotes");
        assert_eq!((acked, promoted), (STEPS.len(), true), "the fault-free run");
        check(&dir, acked, promoted, &model).expect("the fault-free replica holds the model");
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
    let (mut promoted, mut violations) = (0, Vec::new());
    for (i, (name, plan)) in plans.iter().enumerate() {
        match trial(&format!("{stride}-trial-{i}"), plan.clone(), &model) {
            Ok(p) => promoted += p as usize,
            Err(v) => violations.push(format!("{name}: {v}")),
        }
    }
    println!(
        "replication census: {syncs} sync and {writes} write boundaries, stride {stride}, \
         {} trials, {promoted} promoted, {} refused as stale, {} violations",
        plans.len(),
        plans.len() - promoted - violations.len(),
        violations.len()
    );
    assert!(promoted >= 10, "only {promoted} crash points promoted");
    violations
}

#[test]
fn a_promoted_replica_keeps_every_acknowledged_commit_point() {
    let violations = sweep(4);
    assert!(violations.is_empty(), "{violations:#?}");
}

/// Every boundary. Run with `--include-ignored` (CI does, in release).
#[test]
#[ignore]
fn a_promoted_replica_keeps_every_acknowledged_commit_point_at_every_boundary() {
    let violations = sweep(1);
    assert!(violations.is_empty(), "{violations:#?}");
}
