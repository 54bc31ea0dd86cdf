//! Crash recovery: repeat history, then undo losers.
//!
//! Recovery replays the write-ahead log onto the on-disk state (which may
//! reflect any prefix of page flushes): structural records re-link heap
//! chains and restore the latest catalog, data records are re-applied
//! idempotently via [`HeapFile::apply_at`], and finally the operations of
//! transactions without a `Commit` record are undone in reverse order.
//! The engine keeps no secondary index, so heap pages and the catalog
//! are everything there is to recover.

use std::collections::HashSet;

use crate::buffer::BufferPool;
use crate::catalog::{self, Catalog};
use crate::error::{Result, StorageError};
use crate::heap::HeapFile;
use crate::page::{self, PageType, PAGE_SIZE};
use crate::wal::{TxnId, WalRecord};

/// What recovery did, for logging and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Number of log records replayed.
    pub replayed: usize,
    /// Transactions whose effects were redone.
    pub committed: usize,
    /// Transactions whose effects were rolled back.
    pub undone: usize,
}

/// Replays `records` against the pool. `disk_catalog` is the catalog as
/// loaded from page 0 — `None` when the chain was unreadable (a torn
/// catalog-page write), in which case a snapshot or page image in the
/// log must rebuild it. Returns the outcome and the recovered catalog.
pub fn recover(
    pool: &BufferPool,
    records: &[WalRecord],
    disk_catalog: Option<Catalog>,
) -> Result<(RecoveryOutcome, Catalog)> {
    let mut outcome = RecoveryOutcome {
        replayed: records.len(),
        ..RecoveryOutcome::default()
    };
    if records.is_empty() {
        return disk_catalog
            .map(|c| (outcome, c))
            .ok_or_else(|| StorageError::Corrupt("catalog unreadable and log empty".into()));
    }

    // Classify transactions. Aborted ones are *not* losers: their
    // rollback already happened in place, at the point in history where
    // their Abort record sits — the redo pass repeats it there.
    let mut begun: HashSet<TxnId> = HashSet::new();
    let mut committed: HashSet<TxnId> = HashSet::new();
    let mut aborted: HashSet<TxnId> = HashSet::new();
    for rec in records {
        match rec {
            WalRecord::Begin { txn } => {
                begun.insert(*txn);
            }
            WalRecord::Commit { txn } => {
                committed.insert(*txn);
            }
            WalRecord::Abort { txn } => {
                aborted.insert(*txn);
            }
            _ => {}
        }
    }
    outcome.committed = committed.len();
    outcome.undone = begun
        .iter()
        .filter(|t| !committed.contains(t) && !aborted.contains(t))
        .count();

    // Redo pass: repeat history — *including* each aborted
    // transaction's in-place rollback, replayed at its Abort record's
    // position. Deferring those rollbacks to the end would be wrong: a
    // slot freed by an abort may have been reused by a later committed
    // insert, and a late undo would stomp the reused slot (the torture
    // sweep finds exactly this). `pending` accumulates the undo images
    // of not-yet-resolved transactions as the scan walks forward.
    type UndoImages = Vec<(crate::page::Rid, Option<Vec<u8>>)>;
    let mut pending: std::collections::HashMap<TxnId, UndoImages> =
        std::collections::HashMap::new();
    for rec in records {
        match rec {
            WalRecord::Insert { txn, rid, body, .. } => {
                HeapFile::apply_at(pool, *rid, Some(body))?;
                if !committed.contains(txn) {
                    pending.entry(*txn).or_default().push((*rid, None));
                }
            }
            WalRecord::Update {
                txn, rid, old, new, ..
            } => {
                HeapFile::apply_at(pool, *rid, Some(new))?;
                if !committed.contains(txn) {
                    pending
                        .entry(*txn)
                        .or_default()
                        .push((*rid, Some(old.clone())));
                }
            }
            WalRecord::Delete { txn, rid, old, .. } => {
                HeapFile::apply_at(pool, *rid, None)?;
                if !committed.contains(txn) {
                    pending
                        .entry(*txn)
                        .or_default()
                        .push((*rid, Some(old.clone())));
                }
            }
            WalRecord::Abort { txn } => {
                if let Some(ops) = pending.remove(txn) {
                    for (rid, img) in ops.iter().rev() {
                        HeapFile::apply_at(pool, *rid, img.as_deref())?;
                    }
                }
            }
            WalRecord::LinkPage {
                from_page,
                new_page,
                ..
            } => {
                HeapFile::redo_link(pool, *from_page, *new_page)?;
            }
            // A full image logged before an in-place rewrite: restore
            // the page wholesale (the on-disk copy may be torn), then
            // let any later records replay on top.
            WalRecord::PageImage { page, bytes } if bytes.len() == PAGE_SIZE => {
                pool.ensure_page(*page)?;
                pool.with_page_mut(*page, |d| d.copy_from_slice(bytes))?;
            }
            _ => {}
        }
    }

    // Undo pass: roll back losers — neither committed nor aborted, i.e.
    // in flight at the crash — in reverse log order.
    for rec in records.iter().rev() {
        let Some(txn) = rec.txn() else { continue };
        if committed.contains(&txn) || aborted.contains(&txn) {
            continue;
        }
        match rec {
            WalRecord::Insert { rid, .. } => {
                HeapFile::apply_at(pool, *rid, None)?;
            }
            WalRecord::Update { rid, old, .. } => {
                HeapFile::apply_at(pool, *rid, Some(old))?;
            }
            WalRecord::Delete { rid, old, .. } => {
                HeapFile::apply_at(pool, *rid, Some(old))?;
            }
            _ => {}
        }
    }

    // The catalog to finish recovery under: the latest snapshot in the
    // log wins; otherwise the copy read from page 0; otherwise re-read
    // page 0 now — the redo pass above has just restored it from its
    // logged image (any in-place catalog rewrite is preceded by one).
    let mut snapshot = None;
    for rec in records {
        if let WalRecord::CatalogSnapshot { bytes } = rec {
            snapshot = Some(Catalog::from_bytes(bytes)?);
        }
    }
    let catalog = match snapshot.or(disk_catalog) {
        Some(c) => c,
        None => catalog::load(pool)?,
    };

    // Ensure every table's first heap page exists and is formatted (the
    // catalog may reference pages that were allocated but never flushed).
    for meta in catalog.tables.values() {
        pool.ensure_page(meta.first_page)?;
        pool.with_page_mut(meta.first_page, |d| {
            if page::page_type(d) != PageType::Heap {
                page::format_page(d, PageType::Heap);
            }
        })?;
    }

    Ok((outcome, catalog))
}
