//! Integration tests for the storage engine: transactions, persistence,
//! crash recovery with failure injection, and the one-writer-or-many-
//! readers gate.

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use mdm_obs::Registry;
use mdm_storage::{At, FaultController, FaultKind, FaultPlan, Rid, StorageEngine, StorageError};

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mdm-eng-{}-{}", std::process::id(), name));
    std::fs::remove_dir_all(&d).ok();
    d
}

#[test]
fn basic_crud_within_txn() {
    let dir = tmpdir("crud");
    let eng = StorageEngine::open(&dir).unwrap();
    let t = eng.create_table("works").unwrap();
    let mut txn = eng.begin().unwrap();
    let rid = eng.insert(&mut txn, t, b"BWV 578").unwrap();
    assert_eq!(eng.get(&mut txn, t, rid).unwrap().unwrap(), b"BWV 578");
    let rid = eng
        .update(&mut txn, t, rid, b"BWV 578 Fuge g-moll")
        .unwrap();
    assert_eq!(
        eng.get(&mut txn, t, rid).unwrap().unwrap(),
        b"BWV 578 Fuge g-moll"
    );
    let old = eng.delete(&mut txn, t, rid).unwrap();
    assert_eq!(old, b"BWV 578 Fuge g-moll");
    assert_eq!(eng.get(&mut txn, t, rid).unwrap(), None);
    eng.commit(txn).unwrap();
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn abort_rolls_back_everything() {
    let dir = tmpdir("abort");
    let eng = StorageEngine::open(&dir).unwrap();
    let t = eng.create_table("t").unwrap();
    // Committed baseline record.
    let mut txn = eng.begin().unwrap();
    let keep = eng.insert(&mut txn, t, b"keep").unwrap();
    eng.commit(txn).unwrap();

    let mut txn = eng.begin().unwrap();
    let gone = eng.insert(&mut txn, t, b"gone").unwrap();
    eng.update(&mut txn, t, keep, b"mutated").unwrap();
    eng.abort(txn).unwrap();

    let mut txn = eng.begin().unwrap();
    assert_eq!(eng.get(&mut txn, t, keep).unwrap().unwrap(), b"keep");
    assert_eq!(eng.get(&mut txn, t, gone).unwrap(), None);
    eng.commit(txn).unwrap();
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_shutdown_persists_without_recovery() {
    let dir = tmpdir("clean");
    let t_id;
    let rid;
    {
        let eng = StorageEngine::open(&dir).unwrap();
        t_id = eng.create_table("t").unwrap();
        let mut txn = eng.begin().unwrap();
        rid = eng.insert(&mut txn, t_id, b"durable").unwrap();
        eng.commit(txn).unwrap();
    } // Drop runs the clean-shutdown checkpoint.
    let eng = StorageEngine::open(&dir).unwrap();
    assert_eq!(
        eng.last_recovery().replayed,
        0,
        "no recovery after clean close"
    );
    assert_eq!(eng.table_id("t").unwrap(), t_id);
    let mut txn = eng.begin().unwrap();
    assert_eq!(eng.get(&mut txn, t_id, rid).unwrap().unwrap(), b"durable");
    eng.commit(txn).unwrap();
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}

/// Simulates a crash by leaking the engine so no Drop checkpoint runs.
fn crash(eng: StorageEngine) {
    std::mem::forget(eng);
}

#[test]
fn crash_recovers_committed_discards_uncommitted() {
    let dir = tmpdir("crash");
    let t;
    let committed_rid;
    let uncommitted_rid;
    {
        let eng = StorageEngine::open(&dir).unwrap();
        t = eng.create_table("t").unwrap();
        let mut txn = eng.begin().unwrap();
        committed_rid = eng.insert(&mut txn, t, b"committed before crash").unwrap();
        eng.commit(txn).unwrap();
        let mut txn = eng.begin().unwrap();
        uncommitted_rid = eng.insert(&mut txn, t, b"in flight at crash").unwrap();
        // DDL syncs the log, which also makes the in-flight
        // transaction's records durable — recovery must then undo them.
        eng.create_table("bystander").unwrap();
        // Neither commit nor abort for txn: crash with it open.
        std::mem::forget(txn);
        crash(eng);
    }
    let eng = StorageEngine::open(&dir).unwrap();
    let outcome = eng.last_recovery();
    assert!(outcome.replayed > 0, "recovery should replay the log");
    assert_eq!(outcome.committed, 1);
    assert_eq!(outcome.undone, 1);
    let mut txn = eng.begin().unwrap();
    assert_eq!(
        eng.get(&mut txn, t, committed_rid).unwrap().unwrap(),
        b"committed before crash"
    );
    assert_eq!(eng.get(&mut txn, t, uncommitted_rid).unwrap(), None);
    eng.commit(txn).unwrap();
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_recovers_updates_and_deletes() {
    let dir = tmpdir("crash-ud");
    let t;
    let updated;
    let deleted;
    let reverted;
    {
        let eng = StorageEngine::open(&dir).unwrap();
        t = eng.create_table("t").unwrap();
        let mut txn = eng.begin().unwrap();
        updated = eng.insert(&mut txn, t, b"v1").unwrap();
        deleted = eng.insert(&mut txn, t, b"to delete").unwrap();
        reverted = eng.insert(&mut txn, t, b"original").unwrap();
        eng.commit(txn).unwrap();

        let mut txn = eng.begin().unwrap();
        eng.update(&mut txn, t, updated, b"v2").unwrap();
        eng.delete(&mut txn, t, deleted).unwrap();
        eng.commit(txn).unwrap();

        // Uncommitted mutation of `reverted`.
        let mut txn = eng.begin().unwrap();
        eng.update(&mut txn, t, reverted, b"scribbled").unwrap();
        std::mem::forget(txn);
        crash(eng);
    }
    let eng = StorageEngine::open(&dir).unwrap();
    let mut txn = eng.begin().unwrap();
    assert_eq!(eng.get(&mut txn, t, updated).unwrap().unwrap(), b"v2");
    assert_eq!(eng.get(&mut txn, t, deleted).unwrap(), None);
    assert_eq!(
        eng.get(&mut txn, t, reverted).unwrap().unwrap(),
        b"original"
    );
    eng.commit(txn).unwrap();
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_recovery_is_idempotent_across_double_crash() {
    let dir = tmpdir("crash2");
    let t;
    let rid;
    {
        let eng = StorageEngine::open(&dir).unwrap();
        t = eng.create_table("t").unwrap();
        let mut txn = eng.begin().unwrap();
        rid = eng.insert(&mut txn, t, b"survivor").unwrap();
        eng.commit(txn).unwrap();
        crash(eng);
    }
    {
        // Recover, write more, crash again before clean close.
        let eng = StorageEngine::open(&dir).unwrap();
        let mut txn = eng.begin().unwrap();
        eng.insert(&mut txn, t, b"second").unwrap();
        eng.commit(txn).unwrap();
        crash(eng);
    }
    let eng = StorageEngine::open(&dir).unwrap();
    let mut txn = eng.begin().unwrap();
    assert_eq!(eng.get(&mut txn, t, rid).unwrap().unwrap(), b"survivor");
    let all = eng.scan(&mut txn, t).unwrap();
    assert_eq!(all.len(), 2);
    eng.commit(txn).unwrap();
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_wal_tail_recovers_prefix() {
    let dir = tmpdir("torn");
    let t;
    {
        let eng = StorageEngine::open(&dir).unwrap();
        t = eng.create_table("t").unwrap();
        let mut txn = eng.begin().unwrap();
        eng.insert(&mut txn, t, b"alpha").unwrap();
        eng.commit(txn).unwrap();
        crash(eng);
    }
    // Inject a torn frame at the log tail.
    let wal_path = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes.extend_from_slice(&[0x55, 0x00, 0x00, 0x01]); // truncated frame header
    std::fs::write(&wal_path, &bytes).unwrap();

    let eng = StorageEngine::open(&dir).unwrap();
    let mut txn = eng.begin().unwrap();
    let all = eng.scan(&mut txn, t).unwrap();
    assert_eq!(all.len(), 1);
    assert_eq!(all[0].1, b"alpha");
    eng.commit(txn).unwrap();
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}

/// The log's frame checksum (FNV-1a), for hand-built frames.
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// A log of [T1 commits] [a frame whose checksum matches but whose tag
/// no record has] [T2 commits]. The frame is no torn tail, so the open
/// is refused as corruption and the log is left as it was — replaying
/// up to the frame and then truncating would lose T2 without an error.
#[test]
fn a_verified_frame_that_does_not_decode_refuses_the_open() {
    let dir = tmpdir("undecodable");
    let wal_path = dir.join("wal.log");
    let t1_end;
    {
        let eng = StorageEngine::open(&dir).unwrap();
        let t = eng.create_table("t").unwrap();
        let commit_row = |body: &[u8]| {
            let mut txn = eng.begin().unwrap();
            eng.insert(&mut txn, t, body).unwrap();
            eng.commit(txn).unwrap();
        };
        commit_row(b"T1");
        t1_end = std::fs::metadata(&wal_path).unwrap().len() as usize;
        commit_row(b"T2");
        crash(eng);
    }
    let logged = std::fs::read(&wal_path).unwrap();
    let payload = [0xEE_u8, 1, 2, 3];
    let mut bytes = logged[..t1_end].to_vec();
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes.extend_from_slice(&logged[t1_end..]);
    std::fs::write(&wal_path, &bytes).unwrap();

    match StorageEngine::open(&dir) {
        Err(StorageError::Corrupt(m)) => assert!(m.contains("lsn"), "{m}"),
        Err(e) => panic!("expected Corrupt, got {e}"),
        Ok(eng) => {
            let t = eng.table_id("t").unwrap();
            let rows = eng.snapshot().scan(t).unwrap().len();
            panic!("the open succeeded with {rows} of 2 committed rows");
        }
    }
    assert_eq!(std::fs::read(&wal_path).unwrap(), bytes, "log untouched");
    std::fs::remove_dir_all(&dir).ok();
}

/// The engine keeps no index: `index_names` lists none for a table and
/// refuses an unknown one, and a snapshot's `index_lookup` finds none.
#[test]
fn the_engine_answers_no_index() {
    let dir = tmpdir("no-index");
    let eng = StorageEngine::open(&dir).unwrap();
    let t = eng.create_table("t").unwrap();
    assert!(eng.index_names(t).unwrap().is_empty());
    assert!(matches!(
        eng.index_names(t + 100),
        Err(StorageError::NoSuchTable(_))
    ));
    assert!(matches!(
        eng.snapshot().index_lookup(t, "by_key", b"k"),
        Err(StorageError::NoSuchIndex(_))
    ));
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ddl_survives_crash_via_catalog_snapshot() {
    let dir = tmpdir("ddl-crash");
    {
        let eng = StorageEngine::open(&dir).unwrap();
        eng.create_table("alpha").unwrap();
        eng.create_table("beta").unwrap();
        eng.drop_table("alpha").unwrap();
        crash(eng);
    }
    let eng = StorageEngine::open(&dir).unwrap();
    assert_eq!(eng.table_names(), vec!["beta".to_string()]);
    assert!(matches!(
        eng.table_id("alpha"),
        Err(StorageError::NoSuchTable(_))
    ));
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scan_returns_everything_in_order() {
    let dir = tmpdir("scan");
    let eng = StorageEngine::open(&dir).unwrap();
    let t = eng.create_table("t").unwrap();
    let mut txn = eng.begin().unwrap();
    let mut rids = Vec::new();
    for i in 0..200 {
        rids.push(
            eng.insert(&mut txn, t, format!("row {i}").as_bytes())
                .unwrap(),
        );
    }
    let all = eng.scan(&mut txn, t).unwrap();
    assert_eq!(all.len(), 200);
    let scanned: Vec<Rid> = all.iter().map(|(r, _)| *r).collect();
    let mut sorted = rids.clone();
    sorted.sort();
    assert_eq!(scanned, sorted);
    eng.commit(txn).unwrap();
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_truncates_log_and_preserves_state() {
    let dir = tmpdir("ckpt");
    let eng = StorageEngine::open(&dir).unwrap();
    let t = eng.create_table("t").unwrap();
    let mut txn = eng.begin().unwrap();
    let rid = eng.insert(&mut txn, t, b"pre-checkpoint").unwrap();
    eng.commit(txn).unwrap();
    eng.checkpoint().unwrap();
    let wal_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
    assert_eq!(wal_len, 0);
    // Crash after checkpoint: state must still be there.
    crash(eng);
    let eng = StorageEngine::open(&dir).unwrap();
    let mut txn = eng.begin().unwrap();
    assert_eq!(
        eng.get(&mut txn, t, rid).unwrap().unwrap(),
        b"pre-checkpoint"
    );
    eng.commit(txn).unwrap();
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_on_the_writers_own_thread_fails_typed() {
    let dir = tmpdir("ckpt-active");
    let eng = StorageEngine::open(&dir).unwrap();
    let t = eng.create_table("t").unwrap();
    let mut txn = eng.begin().unwrap();
    eng.insert(&mut txn, t, b"x").unwrap();
    let open = Some(txn.id());
    assert!(matches!(
        eng.checkpoint(),
        Err(StorageError::GateHeld { txn }) if txn == open
    ));
    eng.commit(txn).unwrap();
    eng.checkpoint().unwrap();
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}

/// An open transaction is a scheduling condition, not corruption: a
/// checkpoint from another thread waits for the commit and then runs.
#[test]
fn checkpoint_from_a_second_thread_waits_for_the_commit() {
    let dir = tmpdir("ckpt-waits");
    let t;
    {
        let eng = StorageEngine::open(&dir).unwrap();
        t = eng.create_table("t").unwrap();
        let mut txn = eng.begin().unwrap();
        eng.insert(&mut txn, t, b"committed under a queued checkpoint")
            .unwrap();
        let (tx, rx) = mpsc::channel();
        let eng2 = eng.clone();
        let checkpointer = std::thread::spawn(move || tx.send(eng2.checkpoint()).unwrap());
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "checkpoint ran inside an open transaction"
        );
        eng.commit(txn).unwrap();
        rx.recv_timeout(Duration::from_secs(10))
            .expect("checkpoint never ran")
            .unwrap();
        checkpointer.join().unwrap();
        assert_eq!(std::fs::metadata(dir.join("wal.log")).unwrap().len(), 0);
        crash(eng);
    }
    let eng = StorageEngine::open(&dir).unwrap();
    assert_eq!(eng.snapshot().scan(t).unwrap().len(), 1);
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_clients_serialize_on_conflicting_tables() {
    let dir = tmpdir("conc");
    let eng = StorageEngine::open(&dir).unwrap();
    let t = eng.create_table("shared").unwrap();
    let threads: Vec<_> = (0..4)
        .map(|tid| {
            let eng = eng.clone();
            std::thread::spawn(move || {
                let mut inserted = 0;
                for i in 0..50 {
                    // Writers simply queue at the gate.
                    let mut txn = eng.begin().unwrap();
                    let body = format!("thread {tid} row {i}");
                    eng.insert(&mut txn, t, body.as_bytes()).unwrap();
                    eng.commit(txn).unwrap();
                    inserted += 1;
                }
                inserted
            })
        })
        .collect();
    let total: usize = threads.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, 200);
    let mut txn = eng.begin().unwrap();
    assert_eq!(eng.scan(&mut txn, t).unwrap().len(), 200);
    eng.commit(txn).unwrap();
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn large_records_and_oversize_rejection() {
    let dir = tmpdir("large");
    let eng = StorageEngine::open(&dir).unwrap();
    let t = eng.create_table("t").unwrap();
    let mut txn = eng.begin().unwrap();
    let big = vec![0xAAu8; 8000];
    let rid = eng.insert(&mut txn, t, &big).unwrap();
    assert_eq!(eng.get(&mut txn, t, rid).unwrap().unwrap(), big);
    let too_big = vec![0u8; 9000];
    assert!(matches!(
        eng.insert(&mut txn, t, &too_big),
        Err(StorageError::RecordTooLarge(_))
    ));
    eng.commit(txn).unwrap();
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn update_that_moves_record_returns_new_rid() {
    let dir = tmpdir("move");
    let eng = StorageEngine::open(&dir).unwrap();
    let t = eng.create_table("t").unwrap();
    let mut txn = eng.begin().unwrap();
    // Fill a page almost completely so the update cannot grow in place.
    let mut rids = Vec::new();
    for _ in 0..8 {
        rids.push(eng.insert(&mut txn, t, &vec![1u8; 1000]).unwrap());
    }
    let target = rids[0];
    let grown = vec![2u8; 4000];
    let new_rid = eng.update(&mut txn, t, target, &grown).unwrap();
    assert_ne!(new_rid, target, "record should have moved");
    assert_eq!(eng.get(&mut txn, t, new_rid).unwrap().unwrap(), grown);
    assert_eq!(eng.get(&mut txn, t, target).unwrap(), None);
    eng.commit(txn).unwrap();
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn vacuum_reclaims_dropped_space() {
    let dir = tmpdir("vacuum-src");
    let dir2 = tmpdir("vacuum-dst");
    let eng = StorageEngine::open(&dir).unwrap();
    // A big table we will drop, and a keeper.
    let doomed = eng.create_table("doomed").unwrap();
    let keeper = eng.create_table("keeper").unwrap();
    let mut txn = eng.begin().unwrap();
    for i in 0..2000 {
        eng.insert(&mut txn, doomed, &vec![0xAB; 500]).unwrap();
        if i % 10 == 0 {
            eng.insert(&mut txn, keeper, format!("keep {i}").as_bytes())
                .unwrap();
        }
    }
    eng.commit(txn).unwrap();
    eng.drop_table("doomed").unwrap();
    let pages_before = eng.num_pages();

    let new = eng.vacuum_into(&dir2).unwrap();
    assert!(
        new.num_pages() * 4 < pages_before,
        "vacuum should shrink: {} -> {}",
        pages_before,
        new.num_pages()
    );
    // The keeper's rows survive, at new rids.
    let kt = new.table_id("keeper").unwrap();
    let mut txn = new.begin().unwrap();
    let mut kept: Vec<Vec<u8>> = (new.scan(&mut txn, kt).unwrap().into_iter())
        .map(|(_, body)| body)
        .collect();
    kept.sort();
    let mut want: Vec<Vec<u8>> = (0..2000)
        .step_by(10)
        .map(|i| format!("keep {i}").into_bytes())
        .collect();
    want.sort();
    assert_eq!(kept, want);
    new.commit(txn).unwrap();
    drop(new);
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
}

#[test]
fn vacuum_on_the_writers_own_thread_fails_typed() {
    let dir = tmpdir("vacuum-act");
    let dir2 = tmpdir("vacuum-act2");
    let eng = StorageEngine::open(&dir).unwrap();
    let t = eng.create_table("t").unwrap();
    let mut txn = eng.begin().unwrap();
    eng.insert(&mut txn, t, b"x").unwrap();
    assert!(matches!(
        eng.vacuum_into(&dir2),
        Err(StorageError::GateHeld { txn: Some(_) })
    ));
    eng.commit(txn).unwrap();
    assert!(eng.vacuum_into(&dir2).is_ok());
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
}

#[test]
fn dropped_txn_aborts_and_its_writes_are_invisible() {
    let dir = tmpdir("drop-abort");
    let eng = StorageEngine::open(&dir).unwrap();
    let t = eng.create_table("t").unwrap();
    let mut txn = eng.begin().unwrap();
    let keep = eng.insert(&mut txn, t, b"keep").unwrap();
    eng.commit(txn).unwrap();

    let gone;
    {
        let mut txn = eng.begin().unwrap();
        gone = eng.insert(&mut txn, t, b"gone").unwrap();
        eng.update(&mut txn, t, keep, b"mutated").unwrap();
        // Dropped without commit/abort: the handle's Drop must roll the
        // transaction back and release the gate.
    }

    let mut txn = eng.begin().unwrap();
    assert_eq!(eng.get(&mut txn, t, keep).unwrap().unwrap(), b"keep");
    assert_eq!(eng.get(&mut txn, t, gone).unwrap(), None);
    // The gate was released, so this writer got through too.
    eng.insert(&mut txn, t, b"after").unwrap();
    eng.commit(txn).unwrap();
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}

/// Page-LSN flush discipline regression: eviction pressure *before*
/// commit forces dirty pages out mid-transaction; each eviction must
/// sync the WAL through the page's LSN so recovery can still undo the
/// uncommitted changes after a crash. Before the discipline existed, an
/// evicted page could reach disk ahead of its log record, leaving an
/// un-undoable phantom record.
#[test]
fn eviction_pressure_before_commit_is_undone_after_crash() {
    let dir = tmpdir("lsn-evict");
    {
        // Two frames total: nearly every insert evicts a dirty page.
        let eng = StorageEngine::open_with_capacity(&dir, 2).unwrap();
        let t = eng.create_table("t").unwrap();
        let mut txn = eng.begin().unwrap();
        let body = vec![7u8; 2000];
        for _ in 0..40 {
            eng.insert(&mut txn, t, &body).unwrap();
        }
        let snap = eng.metrics_snapshot();
        let evictions = snap.counter("mdm_pool_evictions_total").unwrap();
        assert!(evictions > 0, "tiny pool must evict under insert pressure");
        assert!(
            snap.counter("mdm_wal_eviction_syncs_total").unwrap() > 0,
            "dirty-page eviction before commit must sync the WAL"
        );
        // Crash with the transaction open: no commit, no Drop checkpoint,
        // no final WAL flush.
        std::mem::forget(txn);
        crash(eng);
    }
    let eng = StorageEngine::open(&dir).unwrap();
    let t = eng.table_id("t").unwrap();
    let mut txn = eng.begin().unwrap();
    assert_eq!(
        eng.scan(&mut txn, t).unwrap(),
        vec![],
        "uncommitted inserts must be rolled back despite eviction traffic"
    );
    eng.commit(txn).unwrap();
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}

/// An image several times the pool: dirty evictions share their log
/// sync (one barrier images the victim and its dirty neighbours,
/// and clean frames go first), so the syncs stay well below the pages
/// written — and a crash afterwards still recovers every committed row
/// and none of the open transaction's.
#[test]
fn batched_eviction_shares_syncs_and_survives_a_crash() {
    let dir = tmpdir("evict-batch");
    let body = vec![9u8; 2000]; // four records to a page
    {
        // 64 frames against an image of some 300 pages.
        let eng = StorageEngine::open_with_capacity(&dir, 64).unwrap();
        let t = eng.create_table("t").unwrap();
        let mut txn = eng.begin().unwrap();
        for _ in 0..1200 {
            eng.insert(&mut txn, t, &body).unwrap();
        }
        eng.commit(txn).unwrap();
        let pages = eng.num_pages();
        assert!(pages >= 300, "expected ~300 heap pages, got {pages}");
        let syncs = eng
            .metrics_snapshot()
            .counter("mdm_wal_eviction_syncs_total")
            .unwrap();
        assert!(syncs > 0, "an image past the pool must evict dirty pages");
        assert!(
            syncs * 2 < pages,
            "{syncs} eviction syncs for {pages} pages: the barrier is not shared"
        );
        let mut txn = eng.begin().unwrap();
        for _ in 0..400 {
            eng.insert(&mut txn, t, b"uncommitted").unwrap();
        }
        std::mem::forget(txn);
        crash(eng);
    }
    let eng = StorageEngine::open(&dir).unwrap();
    let t = eng.table_id("t").unwrap();
    let mut txn = eng.begin().unwrap();
    let rows = eng.scan(&mut txn, t).unwrap();
    assert_eq!(rows.len(), 1200);
    assert!(rows.iter().all(|(_, b)| *b == body));
    eng.commit(txn).unwrap();
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}

/// The engine's metrics surface reports live values for the WAL, the
/// transaction lifecycle, and the buffer pool.
#[test]
fn metrics_snapshot_reports_live_engine_values() {
    let dir = tmpdir("metrics");
    let eng = StorageEngine::open(&dir).unwrap();
    let t = eng.create_table("t").unwrap();

    let mut txn = eng.begin().unwrap();
    for i in 0..10u32 {
        eng.insert(&mut txn, t, format!("record {i}").as_bytes())
            .unwrap();
    }
    let mid = eng.metrics_snapshot();
    assert_eq!(mid.gauge("mdm_txn_active"), Some(1));
    eng.commit(txn).unwrap();

    // An aborted transaction.
    let mut txn = eng.begin().unwrap();
    eng.insert(&mut txn, t, b"rolled back").unwrap();
    eng.abort(txn).unwrap();

    let snap = eng.metrics_snapshot();
    assert!(snap.counter("mdm_wal_appends_total").unwrap() >= 15);
    assert!(snap.counter("mdm_wal_fsyncs_total").unwrap() >= 2);
    let fsync = snap.histogram("mdm_wal_fsync_micros").unwrap();
    assert!(fsync.count >= 2, "commits must time their fsyncs");
    assert!(fsync.mean().is_some());
    let batch = snap.histogram("mdm_wal_group_commit_batch").unwrap();
    assert!(batch.count >= 1);
    assert!(batch.sum >= batch.count, "each fsync covers >= 1 record");
    assert_eq!(snap.counter("mdm_txn_begins_total"), Some(2));
    assert_eq!(snap.counter("mdm_txn_commits_total"), Some(1));
    assert_eq!(snap.counter("mdm_txn_aborts_total"), Some(1));
    assert_eq!(snap.gauge("mdm_txn_active"), Some(0));
    let hits = snap.counter("mdm_pool_hits_total").unwrap();
    let misses = snap.counter("mdm_pool_misses_total").unwrap();
    assert!(hits > 0 && misses > 0);
    assert!(snap.counter("mdm_pool_evictions_total").is_some());
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}

// ----------------------------------------------------------------------
// The gate: one writer or many readers
// ----------------------------------------------------------------------

/// Opens a writer on this thread, proves a second thread's snapshot scan
/// does not return while it is open, finishes the writer with `finish`,
/// and returns what the scan then saw.
fn scan_across_open_writer(
    name: &str,
    finish: impl FnOnce(&StorageEngine, mdm_storage::Txn),
) -> Vec<Vec<u8>> {
    let dir = tmpdir(name);
    let eng = StorageEngine::open(&dir).unwrap();
    let t = eng.create_table("t").unwrap();
    let mut txn = eng.begin().unwrap();
    eng.insert(&mut txn, t, b"the writer's row").unwrap();
    let (tx, rx) = mpsc::channel();
    let eng2 = eng.clone();
    let reader = std::thread::spawn(move || tx.send(eng2.snapshot().scan(t)).unwrap());
    assert!(
        rx.recv_timeout(Duration::from_millis(100)).is_err(),
        "a snapshot read returned while a transaction was open"
    );
    finish(&eng, txn);
    let rows = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the reader never got through the gate")
        .unwrap();
    reader.join().unwrap();
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
    rows.into_iter().map(|(_, body)| body).collect()
}

#[test]
fn snapshot_waits_for_the_writer_and_sees_its_commit() {
    let rows = scan_across_open_writer("gate-commit", |eng, txn| eng.commit(txn).unwrap());
    assert_eq!(rows, vec![b"the writer's row".to_vec()]);
}

#[test]
fn snapshot_waits_for_the_writer_and_sees_nothing_of_its_abort() {
    let rows = scan_across_open_writer("gate-abort", |eng, txn| eng.abort(txn).unwrap());
    assert_eq!(rows, Vec::<Vec<u8>>::new());
}

#[test]
fn dropped_txn_releases_the_gate_and_leaves_no_row() {
    let rows = scan_across_open_writer("gate-drop", |_, txn| drop(txn));
    assert_eq!(rows, Vec::<Vec<u8>>::new());
}

/// fsyncgate at commit: the error surfaces, the WAL is poisoned, and the
/// gate is free again (a hung gate would stall the begin below on its
/// own thread as `GateHeld`, and the second thread's snapshot forever).
#[test]
fn failed_commit_sync_poisons_the_wal_and_releases_the_gate() {
    let run = |name: &str, plan: FaultPlan| {
        let dir = tmpdir(name);
        let ctl = FaultController::new(plan);
        let eng = StorageEngine::open_with_vfs(&dir, 64, &Registry::new(), &ctl.vfs()).unwrap();
        let t = eng.create_table("t").unwrap();
        let mut txn = eng.begin().unwrap();
        eng.insert(&mut txn, t, b"fsync dies under this commit")
            .unwrap();
        let syncs_before_commit = ctl.syncs();
        let committed = eng.commit(txn);
        (dir, eng, t, syncs_before_commit, committed)
    };
    let (dir, eng, _, commit_sync, committed) = run("gate-fsync-probe", FaultPlan::none());
    committed.unwrap();
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();

    let plan = FaultPlan::none().with(At::Sync(commit_sync), FaultKind::FailFsync);
    let (dir, eng, t, _, committed) = run("gate-fsync", plan);
    assert!(matches!(committed, Err(StorageError::Io(_))));
    assert_eq!(eng.metrics_snapshot().gauge("mdm_wal_poisoned"), Some(1));
    assert_eq!(eng.metrics_snapshot().gauge("mdm_txn_active"), Some(0));
    let eng2 = eng.clone();
    std::thread::spawn(move || eng2.snapshot().scan(t).map(|_| ()))
        .join()
        .unwrap()
        .unwrap();
    let txn = eng.begin().expect("gate still held after a failed commit");
    assert!(
        matches!(eng.commit(txn), Ok(())),
        "a read-only commit syncs nothing"
    );
    let mut txn = eng.begin().unwrap();
    eng.insert(&mut txn, t, b"refused").unwrap();
    assert!(matches!(eng.commit(txn), Err(StorageError::WalPoisoned)));
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}

/// Misuse on one thread fails typed instead of waiting on itself.
#[test]
fn same_thread_reentry_fails_typed() {
    let dir = tmpdir("gate-reentry");
    let eng = StorageEngine::open(&dir).unwrap();
    let t = eng.create_table("t").unwrap();
    let txn = eng.begin().unwrap();
    let open = Some(txn.id());
    assert!(matches!(
        eng.begin(),
        Err(StorageError::GateHeld { txn }) if txn == open
    ));
    assert!(matches!(
        eng.snapshot().scan(t),
        Err(StorageError::GateHeld { txn }) if txn == open
    ));
    eng.commit(txn).unwrap();

    // A snapshot holder may open more snapshots, but not a transaction.
    let snap = eng.snapshot();
    assert_eq!(eng.snapshot().scan(t).unwrap(), vec![]);
    assert!(matches!(
        eng.begin(),
        Err(StorageError::GateHeld { txn: None })
    ));
    drop(snap);
    eng.commit(eng.begin().unwrap()).unwrap();
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}

/// The transaction-id floor persists across restarts — including crash
/// restarts — so an id never names two transactions in one directory's
/// history (PITR concatenates archive segments from every incarnation).
#[test]
fn txn_ids_never_recycle_across_reopen() {
    let dir = tmpdir("floor");
    let mut last_id = 0;

    // Crash reopen: the floor comes from the WAL's highest logged txn.
    {
        let eng = StorageEngine::open_with_capacity(&dir, 64).unwrap();
        let t = eng.create_table("t").unwrap();
        let mut txn = eng.begin().unwrap();
        last_id = last_id.max(txn.id());
        eng.insert(&mut txn, t, b"before crash").unwrap();
        eng.commit(txn).unwrap();
        std::mem::forget(eng);
    }
    {
        let eng = StorageEngine::open_with_capacity(&dir, 64).unwrap();
        let txn = eng.begin().unwrap();
        assert!(
            txn.id() > last_id,
            "txn id {} recycled after crash reopen (floor ≤ {last_id})",
            txn.id()
        );
        last_id = txn.id();
        eng.abort(txn).unwrap();
        // Clean shutdown persists the floor in the catalog even though
        // this generation logged no writes.
    }

    // Clean reopen: the floor comes from the catalog, not the WAL.
    let eng = StorageEngine::open_with_capacity(&dir, 64).unwrap();
    let t = eng.table_id("t").unwrap();
    let mut txn = eng.begin().unwrap();
    assert!(
        txn.id() > last_id,
        "txn id {} recycled after clean reopen (floor ≤ {last_id})",
        txn.id()
    );
    let rows = eng.scan(&mut txn, t).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].1, b"before crash");
    eng.insert(&mut txn, t, b"after reopen").unwrap();
    eng.commit(txn).unwrap();
    let snap = eng.snapshot();
    let mut bodies: Vec<Vec<u8>> = snap
        .scan(t)
        .unwrap()
        .into_iter()
        .map(|(_, body)| body)
        .collect();
    bodies.sort();
    assert_eq!(
        bodies,
        vec![b"after reopen".to_vec(), b"before crash".to_vec()]
    );
    drop(snap);
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}

/// Inserts after a contiguous mid-chain delete fill the holes it left:
/// each costs a page visit or two — no walk of the chain — and the file
/// does not grow while holes remain. Holds after a reopen too, where the
/// chain walk that finds the last page seeds the free-page hints.
#[test]
fn inserts_fill_holes_without_walking_the_chain() {
    const ROWS: usize = 6_000;
    const HOLE: std::ops::Range<usize> = 2_000..3_500;
    const N: usize = 1_200;
    let dir = tmpdir("holes");
    let body = [7u8; 100];
    let visits = |eng: &StorageEngine| {
        let snap = eng.metrics_snapshot();
        snap.counter("mdm_pool_hits_total").unwrap()
            + snap.counter("mdm_pool_misses_total").unwrap()
    };
    let fill = |eng: &StorageEngine, t| {
        let pages = eng.num_pages();
        let before = visits(eng);
        let mut txn = eng.begin().unwrap();
        for _ in 0..N {
            eng.insert(&mut txn, t, &body).unwrap();
        }
        eng.commit(txn).unwrap();
        let cost = visits(eng) - before;
        assert!(cost <= 2 * N as u64, "{N} inserts visited {cost} pages");
        assert_eq!(eng.num_pages(), pages, "the holes took every row");
    };
    {
        let eng = StorageEngine::open_with_capacity(&dir, 32).unwrap();
        let t = eng.create_table("library").unwrap();
        let mut txn = eng.begin().unwrap();
        let rids: Vec<Rid> = (0..ROWS)
            .map(|_| eng.insert(&mut txn, t, &body).unwrap())
            .collect();
        eng.commit(txn).unwrap();
        let mut txn = eng.begin().unwrap();
        for &rid in &rids[HOLE] {
            eng.delete(&mut txn, t, rid).unwrap();
        }
        eng.commit(txn).unwrap();
        fill(&eng, t);
        // Open a second hole of the same size for the reopened engine.
        let mut txn = eng.begin().unwrap();
        for &rid in &rids[HOLE.end..HOLE.end + HOLE.len()] {
            eng.delete(&mut txn, t, rid).unwrap();
        }
        eng.commit(txn).unwrap();
    }
    let eng = StorageEngine::open_with_capacity(&dir, 32).unwrap();
    let t = eng.table_id("library").unwrap();
    fill(&eng, t);
    drop(eng);
    std::fs::remove_dir_all(&dir).ok();
}
