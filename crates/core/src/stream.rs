//! The replication stream: what a primary ships to a replica.
//!
//! Replication is logical. A primary decodes its own durable log into
//! committed transactions of image-row changes, named by table, and a
//! replica applies them to its model with [`persist::apply`] and commits
//! them into its own engine through the same [`persist::commit`] every
//! node writes with, beside a watermark row. LSNs in the stream are the
//! primary's; a replica's engine has its own.
//!
//! A pull names the LSN it wants to resume from. The primary answers
//! with [`Feed::Txns`]: the whole transactions whose `Commit` lies below
//! its durable watermark, in commit order, and the cursor to pull from
//! next. Aborted and unfinished transactions are never shipped, so the
//! cursor stops at the first record of a transaction still open. When
//! a checkpoint truncated a commit the puller has not seen, the log can
//! no longer serve it and the answer is a seed instead ([`Feed::Seed`]):
//! the image-table rows read under one engine snapshot as of the durable
//! LSN, served in slices of one encoded image.

use std::collections::HashMap;

use mdm_model::persist::{self, RowChange};
use mdm_model::ModelError;
use mdm_obs::codec::{self, put_bytes, put_str, Reader};
use mdm_storage::{StorageEngine, TableId, TxnId, WalRecord};

use crate::error::{CoreError, Result};

/// One committed transaction of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplTxn {
    /// The primary LSN just past the transaction's `Commit` record.
    pub end_lsn: u64,
    /// Its changes to image-table rows, in log order.
    pub changes: Vec<RowChange>,
}

/// What one pull returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Feed {
    /// Whole committed transactions in commit order.
    Txns {
        /// The transactions.
        txns: Vec<ReplTxn>,
        /// The cursor to pull from next: every transaction committed
        /// below it is in `txns` or was in an earlier feed.
        next_lsn: u64,
    },
    /// One slice of a seed.
    Seed(SeedSlice),
}

/// A slice of a seed: the encoded image as of `lsn`, `total` bytes long,
/// of which this is `bytes`, starting at `offset`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedSlice {
    /// The primary LSN the image is as of: a replica that installs it
    /// holds every transaction committed below it.
    pub lsn: u64,
    /// Where `bytes` start in the encoded image.
    pub offset: u64,
    /// The encoded image's length.
    pub total: u64,
    /// The slice.
    pub bytes: Vec<u8>,
}

impl SeedSlice {
    /// The whole seed: the image-table rows under one snapshot, as of
    /// the durable LSN. The snapshot holds the gate's shared side, so no
    /// transaction is open: everything committed is below the durable
    /// watermark, and nothing at or past it belongs to a transaction that
    /// commits.
    pub(crate) fn read(engine: &StorageEngine) -> Result<SeedSlice> {
        let snap = engine.snapshot();
        let rows = persist::image_rows(engine, &snap)?;
        let lsn = engine.wal_durable_lsn();
        drop(snap);
        let mut bytes = Vec::new();
        for row in &rows {
            put_str(&mut bytes, &row.table);
            put_bytes(&mut bytes, row.new.as_deref().unwrap_or_default());
        }
        Ok(SeedSlice {
            lsn,
            offset: 0,
            total: bytes.len() as u64,
            bytes,
        })
    }

    /// Of a whole seed, the slice of at most `max_bytes` (at least one)
    /// from `offset`.
    pub(crate) fn slice(&self, offset: u64, max_bytes: usize) -> SeedSlice {
        let start = (offset as usize).min(self.bytes.len());
        let end = start + max_bytes.max(1).min(self.bytes.len() - start);
        SeedSlice {
            offset: start as u64,
            bytes: self.bytes[start..end].to_vec(),
            ..*self
        }
    }
}

/// Decodes an encoded seed image back into the changes that insert its
/// rows.
pub(crate) fn seed_rows(bytes: &[u8]) -> Result<Vec<RowChange>> {
    let mut r = Reader::new(bytes);
    let mut rows = Vec::new();
    while r.remaining() > 0 {
        let mut row = || -> codec::Result<RowChange> {
            Ok(RowChange {
                table: r.string()?,
                old: None,
                new: Some(r.bytes()?),
            })
        };
        rows.push(row().map_err(ModelError::from)?);
    }
    Ok(rows)
}

/// The committed transactions at and above `from`, reading roughly
/// `max_bytes` of log — more when a single transaction is larger — and
/// the watermark a replica must reach to hold every acknowledged commit:
/// the primary's durable LSN, or the cursor itself once the read reached
/// it, for a transaction still open there has acknowledged nothing.
/// Fails with the engine's typed errors when the log no longer holds
/// `from` or never reached it, and with [`CoreError::Diverged`] when
/// `from` lies inside a transaction: every cursor this log hands out is
/// between two, so the puller's comes from another history.
pub(crate) fn read_txns(
    engine: &StorageEngine,
    from: u64,
    max_bytes: usize,
) -> Result<(Feed, u64)> {
    let names: HashMap<TableId, String> = (engine.table_names().into_iter())
        .filter(|name| persist::is_image_table(name))
        .filter_map(|name| Some((engine.table_id(&name).ok()?, name)))
        .collect();
    let mut budget = max_bytes.max(1);
    loop {
        let (records, durable) = engine.wal_read_from(from, budget)?;
        let reached_end = records.last().is_none_or(|&(lsn, _)| lsn + 1 >= durable);
        let mut open: HashMap<TxnId, Vec<RowChange>> = HashMap::new();
        let mut txns = Vec::new();
        let mut next = from;
        for (lsn, rec) in records {
            if let WalRecord::Begin { txn } = rec {
                open.insert(txn, Vec::new());
                continue;
            }
            if rec.txn().is_some_and(|txn| !open.contains_key(&txn)) {
                return Err(CoreError::Diverged { from, durable });
            }
            let row = match rec {
                WalRecord::Insert {
                    txn, table, body, ..
                } => Some((txn, table, None, Some(body))),
                WalRecord::Update {
                    txn,
                    table,
                    old,
                    new,
                    ..
                } => Some((txn, table, Some(old), Some(new))),
                WalRecord::Delete {
                    txn, table, old, ..
                } => Some((txn, table, Some(old), None)),
                WalRecord::Commit { txn } => {
                    let changes = open.remove(&txn).unwrap_or_default();
                    if !changes.is_empty() {
                        txns.push(ReplTxn {
                            end_lsn: lsn + 1,
                            changes,
                        });
                    }
                    None
                }
                WalRecord::Abort { txn } => {
                    open.remove(&txn);
                    None
                }
                _ => None,
            };
            if let Some((txn, table, old, new)) = row {
                if let (Some(changes), Some(name)) = (open.get_mut(&txn), names.get(&table)) {
                    changes.push(RowChange {
                        table: name.clone(),
                        old,
                        new,
                    });
                }
            }
            if open.is_empty() {
                next = lsn + 1;
            }
        }
        if reached_end && open.is_empty() {
            next = next.max(durable);
        }
        if txns.is_empty() && next == from && !reached_end {
            // One transaction outgrew the budget: read further.
            budget = budget.saturating_mul(2);
            continue;
        }
        let watermark = if reached_end { next } else { durable };
        return Ok((
            Feed::Txns {
                txns,
                next_lsn: next,
            },
            watermark,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdm_model::{AttributeDef, DataType, Database, Value};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The seed of a one-entity image.
    const PINNED_SEED: &str = concat!(
        "0c0000005f5f656e7469746965735f541b0000000100000000000000020000000301000000780107",
        "00000000000000080000005f5f736368656d61210000000100000001000000540200000001000000",
        "61020100000062000000000000000000",
    );

    /// A seed's bytes are pinned, and they decode to the image's rows.
    #[test]
    fn a_seed_is_the_image_rows_in_pinned_bytes() {
        let dir = std::env::temp_dir().join(format!("mdm-seed-pin-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let engine = StorageEngine::open(&dir).unwrap();
        let mut db = Database::new();
        let attr = |name: &str, ty| AttributeDef {
            name: name.into(),
            ty,
        };
        db.define_entity(
            "T",
            vec![attr("a", DataType::String), attr("b", DataType::Integer)],
        )
        .unwrap();
        db.create_entity(
            "T",
            &[("a", Value::String("x".into())), ("b", Value::Integer(7))],
        )
        .unwrap();
        persist::save(&db, &engine).unwrap();
        let seed = SeedSlice::read(&engine).unwrap();
        assert_eq!(hex(&seed.bytes), PINNED_SEED);
        let snap = engine.snapshot();
        assert_eq!(
            seed_rows(&seed.bytes).unwrap(),
            persist::image_rows(&engine, &snap).unwrap()
        );
        drop((snap, engine));
        std::fs::remove_dir_all(&dir).ok();
    }
}
