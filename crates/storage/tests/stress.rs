//! Multi-threaded stress: eight clients run mixed insert/update/scan
//! workloads against one engine while snapshot readers continuously
//! scan a ledger table, the process "crashes" (the engine is leaked so
//! no clean-shutdown checkpoint runs), and recovery must reconstruct
//! exactly the committed state — fifty rounds in a row. Writers queue at
//! the gate; every snapshot scan must see an internally consistent
//! ledger (the balances sum to the opening total; no torn view of a
//! two-row transfer) and none may fail.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use mdm_storage::StorageEngine;

const THREADS: usize = 8;
const TXNS_PER_THREAD: usize = 6;
const ITERATIONS: usize = 50;
const ACCOUNTS: usize = 8;
const OPENING: i64 = 1000;
const READERS: usize = 4;

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mdm-stress-{}-{}", std::process::id(), name));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn balance(body: &[u8]) -> i64 {
    let text = std::str::from_utf8(body).unwrap();
    text.split_once('=').unwrap().1.parse().unwrap()
}

#[test]
fn eight_clients_crash_recover_fifty_rounds() {
    for round in 0..ITERATIONS {
        let dir = tmpdir(&format!("r{round}"));
        {
            let eng = StorageEngine::open_with_capacity(&dir, 128).unwrap();
            let shared = eng.create_table("shared").unwrap();
            // One committed row per thread in the shared table; the
            // threads take turns on it below.
            let mut seed = eng.begin().unwrap();
            let shared_rids: Vec<_> = (0..THREADS)
                .map(|i| {
                    eng.insert(&mut seed, shared, format!("s{i}=0").as_bytes())
                        .unwrap()
                })
                .collect();
            eng.commit(seed).unwrap();
            let tables: Vec<_> = (0..THREADS)
                .map(|i| eng.create_table(&format!("t{i}")).unwrap())
                .collect();

            // A ledger the snapshot readers watch: transfers move money
            // between accounts two rows at a time, so the total is
            // invariant in every consistent view.
            let ledger = eng.create_table("ledger").unwrap();
            let mut seed = eng.begin().unwrap();
            for k in 0..ACCOUNTS {
                eng.insert(&mut seed, ledger, format!("a{k}={OPENING}").as_bytes())
                    .unwrap();
            }
            eng.commit(seed).unwrap();

            let stop = AtomicBool::new(false);
            let reader_aborts = AtomicU64::new(0);
            let reader_scans = AtomicU64::new(0);

            std::thread::scope(|s| {
                let mut writers = Vec::new();
                for i in 0..THREADS {
                    let eng = eng.clone();
                    let table = tables[i];
                    let srid = shared_rids[i];
                    writers.push(s.spawn(move || {
                        for j in 0..TXNS_PER_THREAD {
                            // Private table: insert, rewrite, read back,
                            // scan-check — one committed txn per loop.
                            let mut txn = eng.begin().unwrap();
                            let rid = eng
                                .insert(&mut txn, table, format!("raw {i}/{j}").as_bytes())
                                .unwrap();
                            let rid = eng
                                .update(&mut txn, table, rid, format!("row {i}/{j}").as_bytes())
                                .unwrap();
                            assert_eq!(
                                eng.get(&mut txn, table, rid).unwrap().unwrap(),
                                format!("row {i}/{j}").as_bytes()
                            );
                            assert_eq!(eng.scan(&mut txn, table).unwrap().len(), j + 1);
                            eng.commit(txn).unwrap();

                            // Shared table: bump this thread's row.
                            let mut txn = eng.begin().unwrap();
                            let body = format!("s{i}={}", j + 1);
                            eng.update(&mut txn, shared, srid, body.as_bytes()).unwrap();
                            eng.commit(txn).unwrap();

                            // Ledger: move money between two accounts in
                            // one transaction — a multi-row write the
                            // snapshot readers must never see half of.
                            let (src, dst) = ((i + j) % ACCOUNTS, (i + j + 1) % ACCOUNTS);
                            let amount = 1 + ((i * 3 + j) % 7) as i64;
                            let mut txn = eng.begin().unwrap();
                            let mut from = None;
                            let mut to = None;
                            for (rid, body) in eng.scan(&mut txn, ledger).unwrap() {
                                let text = String::from_utf8(body).unwrap();
                                let name = text.split_once('=').unwrap().0.to_string();
                                let bal = balance(text.as_bytes());
                                if name == format!("a{src}") {
                                    from = Some((rid, bal));
                                } else if name == format!("a{dst}") {
                                    to = Some((rid, bal));
                                }
                            }
                            let (frid, fbal) = from.unwrap();
                            let (trid, tbal) = to.unwrap();
                            let debit = format!("a{src}={}", fbal - amount);
                            eng.update(&mut txn, ledger, frid, debit.as_bytes())
                                .unwrap();
                            let credit = format!("a{dst}={}", tbal + amount);
                            eng.update(&mut txn, ledger, trid, credit.as_bytes())
                                .unwrap();
                            eng.commit(txn).unwrap();
                        }
                        // An aborted transaction whose effects must stay
                        // invisible after recovery.
                        let mut txn = eng.begin().unwrap();
                        eng.insert(&mut txn, table, b"ghost").unwrap();
                        eng.abort(txn).unwrap();
                    }));
                }

                // Snapshot readers: scan the ledger over and over while
                // the writers transfer. Consistency check: every view
                // sums to the opening total.
                for _ in 0..READERS {
                    let eng = eng.clone();
                    let (stop, aborts, scans) = (&stop, &reader_aborts, &reader_scans);
                    s.spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            // Brief pause so spinning readers don't starve
                            // the writers on small machines.
                            std::thread::sleep(std::time::Duration::from_millis(2));
                            let snap = eng.snapshot();
                            match snap.scan(ledger) {
                                Ok(rows) => {
                                    assert_eq!(
                                        rows.len(),
                                        ACCOUNTS,
                                        "snapshot saw a partial ledger"
                                    );
                                    let sum: i64 = rows.iter().map(|(_, body)| balance(body)).sum();
                                    assert_eq!(
                                        sum,
                                        ACCOUNTS as i64 * OPENING,
                                        "torn view of a multi-row transfer"
                                    );
                                    scans.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(_) => {
                                    aborts.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    });
                }

                for w in writers {
                    w.join().unwrap();
                }
                stop.store(true, Ordering::Relaxed);
            });

            assert_eq!(
                reader_aborts.load(Ordering::Relaxed),
                0,
                "snapshot reads must never fail"
            );
            assert!(
                reader_scans.load(Ordering::Relaxed) > 0,
                "readers never completed a scan"
            );

            // Leave one transaction in flight at the crash; recovery (or
            // the lost unsynced log tail) must erase it either way.
            let mut inflight = eng.begin().unwrap();
            eng.insert(&mut inflight, tables[0], b"inflight").unwrap();
            std::mem::forget(inflight);
            std::mem::forget(eng); // crash: no clean-shutdown checkpoint
        }

        let eng = StorageEngine::open_with_capacity(&dir, 128).unwrap();
        let shared = eng.table_id("shared").unwrap();
        let mut txn = eng.begin().unwrap();
        for i in 0..THREADS {
            let table = eng.table_id(&format!("t{i}")).unwrap();
            let mut rows: Vec<String> = eng
                .scan(&mut txn, table)
                .unwrap()
                .into_iter()
                .map(|(_, body)| String::from_utf8(body).unwrap())
                .collect();
            rows.sort();
            let mut expected: Vec<String> = (0..TXNS_PER_THREAD)
                .map(|j| format!("row {i}/{j}"))
                .collect();
            expected.sort();
            assert_eq!(rows, expected, "round {round}, table t{i}");
        }
        let mut shared_rows: Vec<String> = eng
            .scan(&mut txn, shared)
            .unwrap()
            .into_iter()
            .map(|(_, body)| String::from_utf8(body).unwrap())
            .collect();
        shared_rows.sort();
        let mut expected: Vec<String> = (0..THREADS)
            .map(|i| format!("s{i}={TXNS_PER_THREAD}"))
            .collect();
        expected.sort();
        assert_eq!(shared_rows, expected, "round {round}, shared table");

        // The recovered ledger must still sum to the opening total, and
        // a snapshot must agree with the transaction's scan exactly.
        let ledger = eng.table_id("ledger").unwrap();
        let mut locked: Vec<String> = eng
            .scan(&mut txn, ledger)
            .unwrap()
            .into_iter()
            .map(|(_, body)| String::from_utf8(body).unwrap())
            .collect();
        locked.sort();
        let sum: i64 = locked.iter().map(|row| balance(row.as_bytes())).sum();
        assert_eq!(sum, ACCOUNTS as i64 * OPENING, "round {round}, ledger sum");
        eng.commit(txn).unwrap();
        let snap = eng.snapshot();
        let mut via_snapshot: Vec<String> = snap
            .scan(ledger)
            .unwrap()
            .into_iter()
            .map(|(_, body)| String::from_utf8(body).unwrap())
            .collect();
        via_snapshot.sort();
        assert_eq!(
            via_snapshot, locked,
            "round {round}, snapshot vs transaction scan"
        );
        drop(snap);
        drop(eng);
        std::fs::remove_dir_all(&dir).ok();
    }
}
