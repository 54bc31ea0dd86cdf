//! Property tests: B+tree against a BTreeMap reference model, heap files
//! against a HashMap model, and WAL replay stability under arbitrary
//! truncation.

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;

use mdm_storage::{BufferPool, HeapFile, Rid, Wal, WalRecord};

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

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u16, u64),
    Delete(u16, u64),
    Lookup(u16),
    Range(u16, u16),
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        3 => (any::<u16>(), 0u64..50).prop_map(|(k, v)| TreeOp::Insert(k, v)),
        1 => (any::<u16>(), 0u64..50).prop_map(|(k, v)| TreeOp::Delete(k, v)),
        1 => any::<u16>().prop_map(TreeOp::Lookup),
        1 => (any::<u16>(), any::<u16>()).prop_map(|(a, b)| TreeOp::Range(a.min(b), a.max(b))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The B+tree agrees with a BTreeSet of (key, value) pairs under
    /// arbitrary interleavings of inserts, deletes, lookups, and ranges.
    #[test]
    fn btree_matches_reference(ops in proptest::collection::vec(tree_op(), 1..300)) {
        let dir = tmpdir("bt");
        let pool = BufferPool::open(&dir, 64).unwrap();
        let tree = mdm_storage::BTree::create(&pool).unwrap();
        let mut model: BTreeSet<(Vec<u8>, u64)> = BTreeSet::new();
        let key_bytes = |k: u16| k.to_be_bytes().to_vec();
        for op in ops {
            match op {
                TreeOp::Insert(k, v) => {
                    tree.insert(&pool, &key_bytes(k), v).unwrap();
                    model.insert((key_bytes(k), v));
                }
                TreeOp::Delete(k, v) => {
                    let existed = tree.delete(&pool, &key_bytes(k), v).unwrap();
                    prop_assert_eq!(existed, model.remove(&(key_bytes(k), v)));
                }
                TreeOp::Lookup(k) => {
                    let mut got = tree.lookup(&pool, &key_bytes(k)).unwrap();
                    got.sort_unstable();
                    let want: Vec<u64> = model
                        .iter()
                        .filter(|(key, _)| *key == key_bytes(k))
                        .map(|&(_, v)| v)
                        .collect();
                    prop_assert_eq!(got, want);
                }
                TreeOp::Range(a, b) => {
                    let mut got = Vec::new();
                    tree.range(&pool, Some(&key_bytes(a)), Some(&key_bytes(b)), |k, v| {
                        got.push((k.to_vec(), v));
                    })
                    .unwrap();
                    let want: Vec<(Vec<u8>, u64)> = model
                        .iter()
                        .filter(|(k, _)| *k >= key_bytes(a) && *k <= key_bytes(b))
                        .cloned()
                        .collect();
                    prop_assert_eq!(got, want);
                }
            }
        }
        prop_assert_eq!(tree.len(&pool).unwrap(), model.len());
        std::fs::remove_dir_all(&dir).ok();
    }
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
                    let (rid, _) = heap.insert(&pool, &body).unwrap();
                    prop_assert!(model.insert(rid, body).is_none(), "rid reused while live");
                    live.push(rid);
                }
                HeapOp::Update(i, body) => {
                    if !live.is_empty() {
                        let rid = live[i % live.len()];
                        let in_place = HeapFile::update(&pool, rid, &body).unwrap();
                        if in_place {
                            model.insert(rid, body);
                        } else {
                            // Page-full: engine-level code would relocate;
                            // here the record is unchanged.
                            let current = HeapFile::get(&pool, rid).unwrap();
                            prop_assert_eq!(
                                current.as_deref(),
                                model.get(&rid).map(Vec::as_slice)
                            );
                        }
                    }
                }
                HeapOp::Delete(i) => {
                    if !live.is_empty() {
                        let idx = i % live.len();
                        let rid = live.swap_remove(idx);
                        let old = heap.delete(&pool, rid).unwrap();
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
            let mut wal = Wal::open(&dir).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
            wal.sync().unwrap();
        }
        let path = dir.join("wal.log");
        let bytes = std::fs::read(&path).unwrap();
        let cut = (bytes.len() as f64 * cut_fraction) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let (replayed, _) = Wal::replay(&dir).unwrap();
        prop_assert!(replayed.len() <= records.len());
        prop_assert_eq!(&replayed[..], &records[..replayed.len()], "prefix property");
        std::fs::remove_dir_all(&dir).ok();
    }
}
