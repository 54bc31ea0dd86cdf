//! Property tests: heap files against a HashMap model, and WAL replay
//! stability under arbitrary truncation.

use std::collections::HashMap;

use proptest::prelude::*;

use mdm_storage::heap::Change;
use mdm_storage::{BufferPool, HeapFile, Result, Rid, Wal, WalRecord};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "mdm-prop-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// The heap's logger for a pool with no log behind it.
fn unlogged(_: Change<'_>) -> Result<u64> {
    Ok(0)
}

#[derive(Debug, Clone)]
enum HeapOp {
    Insert(Vec<u8>),
    Update(usize, Vec<u8>),
    Delete(usize),
}

fn heap_op() -> impl Strategy<Value = HeapOp> {
    let body = proptest::collection::vec(any::<u8>(), 0..300);
    prop_oneof![
        3 => body.clone().prop_map(HeapOp::Insert),
        1 => (any::<usize>(), body).prop_map(|(i, b)| HeapOp::Update(i, b)),
        1 => any::<usize>().prop_map(HeapOp::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Heap files agree with a HashMap<Rid, Vec<u8>> model; scans return
    /// exactly the live records.
    #[test]
    fn heap_matches_reference(ops in proptest::collection::vec(heap_op(), 1..150)) {
        let dir = tmpdir("heap");
        let pool = BufferPool::open(&dir, 16).unwrap();
        let mut heap = HeapFile::create(&pool).unwrap();
        let mut model: HashMap<Rid, Vec<u8>> = HashMap::new();
        let mut live: Vec<Rid> = Vec::new();
        for op in ops {
            match op {
                HeapOp::Insert(body) => {
                    let rid = heap.insert(&pool, &body, unlogged).unwrap();
                    prop_assert!(model.insert(rid, body).is_none(), "rid reused while live");
                    live.push(rid);
                }
                HeapOp::Update(i, body) => {
                    if !live.is_empty() {
                        let idx = i % live.len();
                        let rid = live[idx];
                        let new_rid = heap.update(&pool, rid, &body, unlogged).unwrap();
                        // A body that no longer fits its page moves.
                        prop_assert!(model.remove(&rid).is_some());
                        prop_assert!(model.insert(new_rid, body).is_none(), "rid reused while live");
                        live[idx] = new_rid;
                    }
                }
                HeapOp::Delete(i) => {
                    if !live.is_empty() {
                        let idx = i % live.len();
                        let rid = live.swap_remove(idx);
                        let old = heap.delete(&pool, rid, unlogged).unwrap();
                        prop_assert_eq!(Some(old), model.remove(&rid));
                    }
                }
            }
        }
        for (rid, body) in &model {
            let current = HeapFile::get(&pool, *rid).unwrap();
            prop_assert_eq!(current.as_deref(), Some(body.as_slice()));
        }
        let mut scanned: Vec<(Rid, Vec<u8>)> = heap.scan_all(&pool).unwrap();
        scanned.sort_by_key(|&(r, _)| r);
        let mut expected: Vec<(Rid, Vec<u8>)> = model.into_iter().collect();
        expected.sort_by_key(|&(r, _)| r);
        prop_assert_eq!(scanned, expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// WAL replay of any byte-truncated log yields a prefix of the
    /// original records (torn-tail tolerance, never garbage).
    #[test]
    fn wal_truncation_yields_prefix(
        bodies in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..60), 1..30),
        cut_fraction in 0.0f64..1.0
    ) {
        let dir = tmpdir("wal");
        let records: Vec<WalRecord> = bodies
            .iter()
            .enumerate()
            .map(|(i, b)| WalRecord::Insert {
                txn: i as u64,
                table: 1,
                rid: Rid::new(1, i as u16),
                body: b.clone(),
            })
            .collect();
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
            wal.sync().unwrap();
        }
        let path = dir.join("wal.log");
        let bytes = std::fs::read(&path).unwrap();
        let cut = (bytes.len() as f64 * cut_fraction) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let (_, replayed) = Wal::open(&dir).unwrap();
        prop_assert!(replayed.len() <= records.len());
        prop_assert_eq!(&replayed[..], &records[..replayed.len()], "prefix property");
        std::fs::remove_dir_all(&dir).ok();
    }
}
