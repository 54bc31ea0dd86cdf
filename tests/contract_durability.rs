//! Contract: what the MDM acknowledged survives any crash.
//!
//! Subsystems this contract needs: the `mdm-core` manager and its commit
//! points (`execute`, `commit`, `save` — the embedded score services and
//! `database_mut()` edits are durable at the next one), `mdm-model`
//! persistence (one engine transaction of row-level changes per commit
//! point, one decoder at open), and the `mdm-storage` engine (WAL, group
//! commit, checkpoint, recovery) under the fault-injecting VFS.
//!
//! The workload runs through `MusicDataManager::open_with_vfs`: a
//! `define` and appends by `execute`; `store_score` then `commit()`;
//! `import_darms` then an `execute`; a `delete_score` through
//! `database_mut()` then `save()`; a second `save()`; a final `execute`.
//! A crash lands at every sync boundary and a torn write at every write
//! boundary, inside both saves included. After each, a plain-VFS reopen
//! must succeed and hold exactly what the acknowledged commit points
//! wrote — titles, rows and census, against an in-memory model of the
//! same steps — plus, all or nothing, the one commit point in flight.
//! Once the first save was acknowledged, `$statements` is never empty,
//! and the survivor accepts a write.

use std::path::{Path, PathBuf};

use musicdb::mdm::MusicDataManager;
use musicdb::model::Value;
use musicdb::storage::{At, FaultController, FaultKind, FaultPlan};

mod support;
use support::{model, run, summarize, Summary, FIRST_SAVE, POOL_PAGES, STEPS};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "musicdb-contract-durability-{}-{tag}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Runs the workload under `plan` until a step fails; returns how many
/// steps were acknowledged. The manager is leaked, as a crashed process
/// would leave it: no shutdown checkpoint.
fn drive(dir: &Path, ctl: &FaultController) -> usize {
    let Ok(mut mdm) = MusicDataManager::open_with_vfs(dir, POOL_PAGES, &ctl.vfs()) else {
        return 0;
    };
    let acked = STEPS
        .iter()
        .take_while(|&&step| run(&mut mdm, step).is_ok())
        .count();
    std::mem::forget(mdm);
    acked
}

/// Reopens on plain files and checks the store against the model.
fn check(dir: &Path, acked: usize, model: &[Summary]) -> Result<(), String> {
    let mut mdm = MusicDataManager::open(dir).map_err(|e| format!("open failed: {e}"))?;
    let got = summarize(mdm.database());
    let in_flight = model.get(acked + 1);
    if got != model[acked] && Some(&got) != in_flight {
        return Err(format!(
            "after {acked} acknowledged steps the store holds {got:?}, expected {:?}{}",
            model[acked],
            in_flight.map_or(String::new(), |m| format!(" or {m:?}"))
        ));
    }
    if acked > FIRST_SAVE {
        let stmts = mdm
            .query("range of s is $statements retrieve (s.fingerprint)")
            .map_err(|e| e.to_string())?;
        if stmts.is_empty() {
            return Err("$statements is empty after an acknowledged save".into());
        }
    }
    mdm.execute("append to PERSON (name = \"survivor\")")
        .map_err(|e| format!("the survivor refused a write: {e}"))?;
    let t = mdm
        .query("range of p is PERSON retrieve (p.name) where p.name = \"survivor\"")
        .map_err(|e| e.to_string())?;
    if t.rows != vec![vec![Value::String("survivor".into())]] {
        return Err(format!("the survivor's write reads back as {t}"));
    }
    Ok(())
}

/// The sweep: a fault-free run counts the boundaries, then every
/// `stride`-th sync gets a crash and every `stride`-th write a torn
/// write. Returns the violations, each naming its boundary.
fn sweep(stride: usize) -> Vec<String> {
    let model = model();
    let (syncs, writes) = {
        let dir = scratch(&format!("{stride}-census"));
        let ctl = FaultController::new(FaultPlan::none());
        let acked = drive(&dir, &ctl);
        assert_eq!(
            acked,
            STEPS.len(),
            "the fault-free run acknowledges every step"
        );
        check(&dir, acked, &model).expect("the fault-free run reopens to the model");
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
    let mut violations = Vec::new();
    for (i, (name, plan)) in plans.iter().enumerate() {
        let dir = scratch(&format!("{stride}-trial-{i}"));
        let ctl = FaultController::new(plan.clone());
        let acked = drive(&dir, &ctl);
        if let Err(v) = check(&dir, acked, &model) {
            violations.push(format!("{name} ({acked} steps acknowledged): {v}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    println!(
        "durability census: {syncs} sync and {writes} write boundaries, stride {stride}, \
         {} trials, {} violations",
        plans.len(),
        violations.len()
    );
    violations
}

#[test]
fn a_crash_anywhere_keeps_every_acknowledged_commit_point() {
    let violations = sweep(3);
    assert!(violations.is_empty(), "{violations:#?}");
}

/// Every boundary. Run with `--include-ignored` (CI does, in release).
#[test]
#[ignore]
fn a_crash_at_every_boundary_keeps_every_acknowledged_commit_point() {
    let violations = sweep(1);
    assert!(violations.is_empty(), "{violations:#?}");
}
