//! Crash-point torture: deterministic fault injection against the whole
//! storage stack.
//!
//! The headline test sweeps a simulated crash across every I/O boundary
//! a fixed workload exposes (strided in debug builds, exhaustive in
//! release) and proves recovery holds its invariants at each one. The
//! rest are targeted regressions for specific failure modes: fsyncgate,
//! eviction write errors, and torn WAL tails.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mdm_obs::Registry;
use mdm_storage::wal::{Wal, WalRecord};
use mdm_storage::{
    crash_point_sweep, At, BufferPool, FaultController, FaultKind, FaultPlan, Rid, StorageEngine,
    StorageError, TortureConfig,
};

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mdm-torture-{}-{name}", std::process::id()));
    fs::remove_dir_all(&d).ok();
    d
}

// ----------------------------------------------------------------------
// The crash-point exploration sweep (the tentpole)
// ----------------------------------------------------------------------

/// Strided sweep, cheap enough to run in debug builds and CI smoke.
#[test]
fn crash_point_sweep_smoke() {
    let scratch = tmpdir("sweep-smoke");
    let registry = Registry::new();
    let report = crash_point_sweep(&scratch, &TortureConfig::smoke(), &registry);
    fs::remove_dir_all(&scratch).ok();

    assert!(
        report.violations.is_empty(),
        "invariant violations:\n{}",
        report.violations.join("\n")
    );
    assert!(report.boundaries > 0, "workload exposed no I/O boundaries");
    assert!(
        report.crash_points >= 10,
        "only {} crash points explored: the boundary census collapsed",
        report.crash_points
    );

    // Failpoint activity must be visible in the shared registry.
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("mdm_fault_crash_points_total"),
        Some(report.crash_points)
    );
    assert!(snap.counter("mdm_fault_crashes_total").unwrap_or(0) >= report.crash_points);
    assert_eq!(snap.counter("mdm_fault_violations_total"), Some(0));
    assert!(snap.counter("mdm_fault_ops_total").unwrap_or(0) > 0);
    assert!(snap.counter("mdm_fault_injected_total").unwrap_or(0) > 0);
    assert!(snap
        .histogram("mdm_fault_reopen_micros")
        .is_some_and(|h| h.count > 0));
}

/// The exhaustive sweep: every boundary, plus the torn-write pass.
/// Release-only — several hundred full workload replays.
#[cfg(not(debug_assertions))]
#[test]
fn crash_point_sweep_full() {
    let scratch = tmpdir("sweep-full");
    let registry = Registry::new();
    let report = crash_point_sweep(&scratch, &TortureConfig::full(), &registry);
    fs::remove_dir_all(&scratch).ok();
    println!(
        "census: {} boundaries ({} writes, {} syncs), {} crash points, {} violations",
        report.boundaries,
        report.writes,
        report.syncs,
        report.crash_points,
        report.violations.len()
    );

    assert!(
        report.violations.is_empty(),
        "invariant violations:\n{}",
        report.violations.join("\n")
    );
    assert!(
        report.crash_points >= 200,
        "expected >= 200 distinct crash points, explored {}",
        report.crash_points
    );
}

/// The boundary count is what lets one counted run stand in for every
/// replay: it must be identical run over run.
#[test]
fn torture_workload_is_deterministic() {
    let cfg = TortureConfig {
        rounds: 12,
        pool_pages: 16,
        stride: 1,
        torn_writes: false,
    };
    let mut counts = Vec::new();
    for i in 0..2 {
        let dir = tmpdir(&format!("determinism-{i}"));
        let ctl = FaultController::new(FaultPlan::none());
        {
            let engine =
                StorageEngine::open_with_vfs(&dir, cfg.pool_pages, &Registry::new(), &ctl.vfs())
                    .unwrap();
            let t = engine.create_table("d").unwrap();
            for r in 0..cfg.rounds {
                let mut txn = engine.begin().unwrap();
                engine
                    .insert(&mut txn, t, format!("row-{r}").as_bytes())
                    .unwrap();
                engine.commit(txn).unwrap();
            }
        }
        counts.push((ctl.ops(), ctl.writes(), ctl.syncs()));
        fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(counts[0], counts[1], "I/O boundary sequence is not stable");
}

// ----------------------------------------------------------------------
// Satellite 1: fsyncgate — a failed WAL fsync must poison the engine
// ----------------------------------------------------------------------

/// After a failed WAL fsync the kernel may have dropped the dirty log
/// bytes and marked them clean, so a *later* successful fsync proves
/// nothing about them (fsyncgate). The engine must: fail the commit
/// whose fsync died, refuse every later commit with a typed error, and
/// come back after reopen with exactly the pre-failure durable state.
///
/// On the pre-poisoning engine this test fails at the `WalPoisoned`
/// assertion: transaction B's commit would run a fresh fsync, observe
/// success, advance the durable horizon over A's dropped bytes, and
/// report a commit that recovery can never honor.
#[test]
fn failed_wal_fsync_poisons_commits_until_reopen() {
    // Probe run: find the global sync index of transaction A's commit
    // fsync. The workload is deterministic, so the index transfers.
    let sync_before_a = {
        let dir = tmpdir("fsyncgate-probe");
        let ctl = FaultController::new(FaultPlan::none());
        let engine = StorageEngine::open_with_vfs(&dir, 64, &Registry::new(), &ctl.vfs()).unwrap();
        let t = engine.create_table("songs").unwrap();
        let mut txn = engine.begin().unwrap();
        engine
            .insert(&mut txn, t, b"durable before the failure")
            .unwrap();
        engine.commit(txn).unwrap();
        let s = ctl.syncs();
        let mut txn = engine.begin().unwrap();
        engine.insert(&mut txn, t, b"txn A: fsync dies").unwrap();
        engine.commit(txn).unwrap();
        assert!(ctl.syncs() > s, "commit did not fsync");
        drop(engine);
        fs::remove_dir_all(&dir).ok();
        s
    };

    // Real run: same workload, A's commit fsync fails fsyncgate-style.
    let dir = tmpdir("fsyncgate");
    let ctl =
        FaultController::new(FaultPlan::none().with(At::Sync(sync_before_a), FaultKind::FailFsync));
    {
        let engine = StorageEngine::open_with_vfs(&dir, 64, &Registry::new(), &ctl.vfs()).unwrap();
        let t = engine.create_table("songs").unwrap();
        let mut txn = engine.begin().unwrap();
        engine
            .insert(&mut txn, t, b"durable before the failure")
            .unwrap();
        engine.commit(txn).unwrap();

        // Transaction A: the commit whose fsync dies must not report Ok.
        let mut txn = engine.begin().unwrap();
        engine.insert(&mut txn, t, b"txn A: fsync dies").unwrap();
        let err = engine.commit(txn).expect_err("commit after failed fsync");
        assert!(
            matches!(err, StorageError::Io(_)),
            "expected the I/O error surfaced, got: {err}"
        );
        assert_eq!(ctl.injected(), 1, "the planned fsync fault did not fire");

        // Transaction B: must be refused outright — retrying the fsync
        // cannot resurrect A's dropped log bytes.
        let mut txn = engine.begin().unwrap();
        engine
            .insert(&mut txn, t, b"txn B: after the failure")
            .unwrap();
        let err = engine.commit(txn).expect_err("commit on poisoned WAL");
        assert!(
            matches!(err, StorageError::WalPoisoned),
            "expected WalPoisoned, got: {err}"
        );

        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("mdm_wal_fsync_failures_total"), Some(1));
        assert_eq!(snap.gauge("mdm_wal_poisoned"), Some(1));
    }

    // Reopen: exactly the pre-failure durable state, and writable again.
    let engine = StorageEngine::open(&dir).unwrap();
    let t = engine.table_id("songs").unwrap();
    let mut txn = engine.begin().unwrap();
    let bodies: Vec<Vec<u8>> = engine
        .scan(&mut txn, t)
        .unwrap()
        .into_iter()
        .map(|(_, b)| b)
        .collect();
    assert_eq!(
        bodies,
        vec![b"durable before the failure".to_vec()],
        "recovery must surface the durable row and nothing else"
    );
    engine.insert(&mut txn, t, b"post-recovery write").unwrap();
    engine.commit(txn).unwrap();
    drop(engine);
    fs::remove_dir_all(&dir).ok();
}

// ----------------------------------------------------------------------
// Satellite: eviction must not silently drop a dirty page
// ----------------------------------------------------------------------

/// A dirty eviction whose flush barrier fails must leave the frame in
/// the pool (data intact, still dirty) and surface a typed error — not
/// drop the only copy of the page on the floor.
#[test]
fn failed_flush_barrier_keeps_the_dirty_frame() {
    let dir = tmpdir("barrier");
    // Capacity 2: touching a third page forces an eviction.
    let pool = BufferPool::open(&dir, 2).unwrap();
    let barrier_ok = Arc::new(AtomicBool::new(false));
    let ok = Arc::clone(&barrier_ok);
    pool.set_flush_barrier(Box::new(move |_pages, _lsn| {
        if ok.load(Ordering::SeqCst) {
            Ok(())
        } else {
            Err(StorageError::Io(std::io::Error::other("wal sync failed")))
        }
    }));

    let p1 = pool.allocate_page().unwrap();
    let p2 = pool.allocate_page().unwrap();
    let p3 = pool.allocate_page().unwrap();

    // Dirty p1 under the WAL protocol so eviction must hit the barrier.
    pool.with_page_mut_logged(p1, |data| {
        data[0] = 0xAB;
        ((), true)
    })
    .unwrap();
    pool.publish_lsn(p1, 7);

    // Fill the pool with a second dirty page (eviction is clean-first,
    // so a clean p2 would go instead) and force an eviction; the
    // barrier fails.
    pool.with_page_mut(p2, |data| data[0] = 0xEF).unwrap();
    let err = pool
        .with_page(p3, |_| ())
        .expect_err("eviction must propagate the barrier failure");
    assert!(matches!(err, StorageError::Io(_)), "got: {err}");

    // The dirty byte must still be in the pool, not lost.
    let byte = pool.with_page(p1, |data| data[0]).unwrap();
    assert_eq!(byte, 0xAB, "dirty frame was dropped by the failed eviction");

    // Once the barrier recovers, the eviction goes through and the page
    // reaches disk intact.
    barrier_ok.store(true, Ordering::SeqCst);
    pool.with_page(p2, |_| ()).unwrap();
    pool.with_page(p3, |_| ()).unwrap();
    let byte = pool.with_page(p1, |data| data[0]).unwrap();
    assert_eq!(byte, 0xAB);
    fs::remove_dir_all(&dir).ok();
}

/// Same property one layer down: the eviction's *page write* fails
/// (injected I/O error). The frame must survive in the pool and the
/// next eviction attempt must succeed once the fault clears.
#[test]
fn failed_eviction_write_keeps_the_dirty_frame() {
    // Probe: learn the write index of the eviction's page write.
    let write_idx = {
        let dir = tmpdir("evict-probe");
        let ctl = FaultController::new(FaultPlan::none());
        let pool = BufferPool::open_with(&dir, 2, &ctl.vfs()).unwrap();
        let p1 = pool.allocate_page().unwrap();
        let p2 = pool.allocate_page().unwrap();
        let p3 = pool.allocate_page().unwrap();
        pool.with_page_mut(p1, |data| data[0] = 0xCD).unwrap();
        pool.with_page(p2, |_| ()).unwrap();
        let w = ctl.writes();
        pool.with_page(p3, |_| ()).unwrap(); // evicts dirty p1
        assert!(ctl.writes() > w, "eviction did not write");
        fs::remove_dir_all(&dir).ok();
        w
    };

    let dir = tmpdir("evict");
    let ctl = FaultController::new(FaultPlan::none().with(At::Write(write_idx), FaultKind::FailIo));
    let pool = BufferPool::open_with(&dir, 2, &ctl.vfs()).unwrap();
    let p1 = pool.allocate_page().unwrap();
    let p2 = pool.allocate_page().unwrap();
    let p3 = pool.allocate_page().unwrap();
    pool.with_page_mut(p1, |data| data[0] = 0xCD).unwrap();
    pool.with_page(p2, |_| ()).unwrap();

    let err = pool
        .with_page(p3, |_| ())
        .expect_err("eviction write failure must surface");
    assert!(matches!(err, StorageError::Io(_)), "got: {err}");
    assert_eq!(ctl.injected(), 1);

    // Frame intact; with the one-shot fault consumed, eviction succeeds
    // and the bytes land on disk.
    assert_eq!(pool.with_page(p1, |d| d[0]).unwrap(), 0xCD);
    pool.with_page(p3, |_| ()).unwrap();
    assert_eq!(pool.with_page(p1, |d| d[0]).unwrap(), 0xCD);
    fs::remove_dir_all(&dir).ok();
}

// ----------------------------------------------------------------------
// Regression: abort rollback must replay at its place in history
// ----------------------------------------------------------------------

/// Found by the crash-point sweep: recovery used to classify *aborted*
/// transactions as losers and roll them back at the end of the redo
/// pass. But an abort's rollback happened in place, at the point in
/// history where its Abort record sits — and a slot freed by an abort
/// may be reused by a later committed insert. The late undo stomped the
/// reused slot, deleting the committed row.
#[test]
fn aborted_txn_slot_reuse_survives_recovery() {
    let dir = tmpdir("abort-reuse");
    let table;
    let committed_rid;
    let aborted_rid;
    {
        let eng = StorageEngine::open(&dir).unwrap();
        table = eng.create_table("t").unwrap();
        // Abort an insert, freeing its slot.
        let mut txn = eng.begin().unwrap();
        aborted_rid = eng.insert(&mut txn, table, b"aborted row").unwrap();
        eng.abort(txn).unwrap();
        // A committed insert reuses the freed slot; its commit also
        // makes the aborted transaction's records durable.
        let mut txn = eng.begin().unwrap();
        committed_rid = eng.insert(&mut txn, table, b"committed row").unwrap();
        eng.commit(txn).unwrap();
        assert_eq!(
            aborted_rid, committed_rid,
            "insert did not reuse the freed slot; the test would be vacuous"
        );
        // Crash (no shutdown checkpoint): recovery must replay the log.
        std::mem::forget(eng);
    }
    let eng = StorageEngine::open(&dir).unwrap();
    assert!(eng.last_recovery().replayed > 0);
    let mut txn = eng.begin().unwrap();
    assert_eq!(
        eng.get(&mut txn, table, committed_rid).unwrap().as_deref(),
        Some(&b"committed row"[..]),
        "recovery's late abort-undo stomped the reused slot"
    );
    eng.commit(txn).unwrap();
    drop(eng);
    fs::remove_dir_all(&dir).ok();
}

/// The inverse guard: an aborted insert whose slot was *not* reused
/// must stay invisible after recovery (no resurrection by the redo
/// pass).
#[test]
fn aborted_txn_stays_invisible_after_recovery() {
    let dir = tmpdir("abort-gone");
    let table;
    let aborted_rid;
    {
        let eng = StorageEngine::open(&dir).unwrap();
        table = eng.create_table("t").unwrap();
        let mut txn = eng.begin().unwrap();
        eng.insert(&mut txn, table, b"baseline").unwrap();
        eng.commit(txn).unwrap();
        let mut txn = eng.begin().unwrap();
        aborted_rid = eng
            .insert(&mut txn, table, b"aborted, never reused")
            .unwrap();
        eng.abort(txn).unwrap();
        // Sync the abort records into the durable log via another commit.
        let mut txn = eng.begin().unwrap();
        eng.insert(&mut txn, table, b"syncer").unwrap();
        eng.commit(txn).unwrap();
        std::mem::forget(eng);
    }
    let eng = StorageEngine::open(&dir).unwrap();
    assert!(eng.last_recovery().replayed > 0);
    let mut txn = eng.begin().unwrap();
    let visible = eng.get(&mut txn, table, aborted_rid).unwrap();
    assert_ne!(
        visible.as_deref(),
        Some(&b"aborted, never reused"[..]),
        "recovery resurrected an aborted insert"
    );
    eng.commit(txn).unwrap();
    drop(eng);
    fs::remove_dir_all(&dir).ok();
}

// ----------------------------------------------------------------------
// Satellite 2: torn WAL tails at every byte offset
// ----------------------------------------------------------------------

fn torture_wal_records() -> Vec<WalRecord> {
    let mut recs = Vec::new();
    for t in 0..12u64 {
        recs.push(WalRecord::Begin { txn: t });
        recs.push(WalRecord::Insert {
            txn: t,
            table: 1,
            rid: Rid::new(t + 1, (t % 5) as u16),
            body: format!("body-{t}-{}", "z".repeat((t as usize * 13) % 90)).into_bytes(),
        });
        if t % 3 == 0 {
            recs.push(WalRecord::Update {
                txn: t,
                table: 1,
                rid: Rid::new(t + 1, 0),
                old: b"before".to_vec(),
                new: format!("after-{t}").into_bytes(),
            });
        }
        recs.push(if t % 4 == 3 {
            WalRecord::Abort { txn: t }
        } else {
            WalRecord::Commit { txn: t }
        });
    }
    recs
}

/// Frame byte boundaries of `buf` (end offset of each complete frame).
fn frame_ends(buf: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut pos = 0;
    while pos + 8 <= buf.len() {
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
        assert!(pos <= buf.len(), "generator wrote a torn log");
        ends.push(pos);
    }
    ends
}

/// Truncating the log at *every* byte offset must replay to exactly the
/// records whose frames survived whole: no panic, no error, no lost
/// earlier record, no phantom.
#[test]
fn wal_tail_truncated_at_every_byte_offset_replays_cleanly() {
    let dir = tmpdir("wal-tail");
    let records = torture_wal_records();
    {
        let mut wal = Wal::open(&dir).unwrap();
        for rec in &records {
            wal.append(rec).unwrap();
        }
        wal.sync().unwrap();
    }
    let full = fs::read(dir.join("wal.log")).unwrap();
    let ends = frame_ends(&full);
    assert_eq!(ends.len(), records.len());

    let cut_dir = tmpdir("wal-tail-cut");
    fs::create_dir_all(&cut_dir).unwrap();
    for cut in 0..=full.len() {
        fs::write(cut_dir.join("wal.log"), &full[..cut]).unwrap();
        let (recs, valid) =
            Wal::replay(&cut_dir).unwrap_or_else(|e| panic!("replay errored at cut {cut}: {e}"));
        let expect = ends.iter().filter(|&&e| e <= cut).count();
        assert_eq!(
            recs.len(),
            expect,
            "cut at byte {cut}: expected {expect} surviving records, got {}",
            recs.len()
        );
        assert_eq!(recs.as_slice(), &records[..expect], "cut at byte {cut}");
        assert_eq!(valid as usize, ends[..expect].last().copied().unwrap_or(0));
    }

    // Corruption (not truncation): flipping any byte must still yield a
    // clean prefix — every record before the damaged frame survives.
    for pos in (0..full.len()).step_by(7) {
        let mut bytes = full.clone();
        bytes[pos] ^= 0x40;
        fs::write(cut_dir.join("wal.log"), &bytes).unwrap();
        let (recs, _) = Wal::replay(&cut_dir)
            .unwrap_or_else(|e| panic!("replay errored with flip at {pos}: {e}"));
        let intact = ends.iter().filter(|&&e| e <= pos).count();
        assert!(
            recs.len() >= intact,
            "flip at byte {pos} lost committed records before the damage"
        );
        assert_eq!(
            &recs[..intact],
            &records[..intact],
            "flip at byte {pos} altered records before the damage"
        );
    }
    fs::remove_dir_all(&dir).ok();
    fs::remove_dir_all(&cut_dir).ok();
}

// ----------------------------------------------------------------------
// Torn data pages: a half-written page must never brick the open
// ----------------------------------------------------------------------

/// Tear the final page write of a clean shutdown at assorted offsets;
/// the reopened engine must recover every committed row (the WAL covers
/// the torn page) and never panic on the garbage tail.
#[test]
fn torn_page_write_recovers_from_the_log() {
    for keep in [1usize, 100, 4096, 8191] {
        // Probe: count writes so the fault can target the *last* one.
        let writes = {
            let dir = tmpdir(&format!("torn-page-probe-{keep}"));
            let ctl = FaultController::new(FaultPlan::none());
            {
                let engine =
                    StorageEngine::open_with_vfs(&dir, 16, &Registry::new(), &ctl.vfs()).unwrap();
                let t = engine.create_table("songs").unwrap();
                for i in 0..20 {
                    let mut txn = engine.begin().unwrap();
                    engine
                        .insert(&mut txn, t, format!("row-{i}").as_bytes())
                        .unwrap();
                    engine.commit(txn).unwrap();
                }
            }
            fs::remove_dir_all(&dir).ok();
            ctl.writes()
        };

        let dir = tmpdir(&format!("torn-page-{keep}"));
        let ctl = FaultController::new(
            FaultPlan::none().with(At::Write(writes - 1), FaultKind::TornWrite { keep }),
        );
        {
            let engine =
                StorageEngine::open_with_vfs(&dir, 16, &Registry::new(), &ctl.vfs()).unwrap();
            let t = engine.create_table("songs").unwrap();
            for i in 0..20 {
                let mut txn = engine.begin().unwrap();
                if engine
                    .insert(&mut txn, t, format!("row-{i}").as_bytes())
                    .and_then(|_| engine.commit(txn))
                    .is_err()
                {
                    break;
                }
            }
        }
        assert!(ctl.crashed(), "the torn write never fired (keep {keep})");

        let engine = StorageEngine::open(&dir).unwrap();
        let t = engine.table_id("songs").unwrap();
        let mut txn = engine.begin().unwrap();
        let rows = engine.scan(&mut txn, t).unwrap();
        // Every row whose commit reported Ok must be present; the probe
        // run committed all 20, and the torn write hit the *last* write,
        // so at most the final in-flight transaction may be missing.
        assert!(
            rows.len() >= 19,
            "keep {keep}: committed rows lost (found {})",
            rows.len()
        );
        engine.commit(txn).unwrap();
        drop(engine);
        fs::remove_dir_all(&dir).ok();
    }
}
