//! The statement store: pg_stat_statements for QUEL.
//!
//! Each executed program is normalized to a *fingerprint* (literals
//! stripped — the language layer owns that) and aggregated here:
//! call counts, total execution time, latency distribution over
//! [`LATENCY_MICROS_BOUNDS`], rows returned/scanned, and the access-path
//! mix the planner chose. The store is a bounded LRU so a hostile or
//! merely diverse workload cannot grow it without limit, and it
//! serializes to a compact binary image so the checkpoint can carry it
//! across restarts.
//!
//! Recording is cheap: one mutex, one hash lookup.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::codec::{self, put_len, put_str, Reader};
use crate::metrics::LATENCY_MICROS_BOUNDS;
use crate::registry::HistogramSnap;

/// Default bound on distinct fingerprints kept ([`StatementStore::new`]).
pub const DEFAULT_STATEMENT_CAPACITY: usize = 512;

/// How many executions of one statement chose each access path. One
/// execution contributes one count per range variable in its plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathMix {
    /// Full scans of a variable's instance set.
    pub scan: u64,
    /// Equality probes of a secondary index.
    pub index_eq: u64,
    /// Range probes of a secondary index.
    pub index_range: u64,
    /// Domains derived from ordering operators (before/after/under).
    pub ord: u64,
}

impl PathMix {
    /// Componentwise sum.
    pub fn add(&mut self, other: &PathMix) {
        self.scan += other.scan;
        self.index_eq += other.index_eq;
        self.index_range += other.index_range;
        self.ord += other.ord;
    }
}

/// Aggregate statistics for one statement fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct StatementStats {
    /// The normalized program text (literals replaced with `?`).
    pub fingerprint: String,
    /// Executions recorded.
    pub calls: u64,
    /// Total execution wall time, µs.
    pub total_micros: u64,
    /// Total rows returned across all calls.
    pub rows_returned: u64,
    /// Total tuples fetched across all calls.
    pub rows_scanned: u64,
    /// Access-path mix across all calls.
    pub paths: PathMix,
    /// Latency bucket counts over [`LATENCY_MICROS_BOUNDS`] (+overflow).
    buckets: Vec<u64>,
}

impl StatementStats {
    fn new(fingerprint: &str) -> StatementStats {
        StatementStats {
            fingerprint: fingerprint.to_string(),
            calls: 0,
            total_micros: 0,
            rows_returned: 0,
            rows_scanned: 0,
            paths: PathMix::default(),
            buckets: vec![0; LATENCY_MICROS_BOUNDS.len() + 1],
        }
    }

    fn observe(&mut self, micros: u64, rows_returned: u64, rows_scanned: u64, paths: &PathMix) {
        self.calls += 1;
        self.total_micros += micros;
        self.rows_returned += rows_returned;
        self.rows_scanned += rows_scanned;
        self.paths.add(paths);
        let slot = LATENCY_MICROS_BOUNDS
            .iter()
            .position(|&b| micros <= b)
            .unwrap_or(LATENCY_MICROS_BOUNDS.len());
        self.buckets[slot] += 1;
    }

    /// The latency distribution as a histogram snapshot (use
    /// [`HistogramSnap::quantile`] for p50/p99).
    pub fn latency(&self) -> HistogramSnap {
        HistogramSnap {
            bounds: LATENCY_MICROS_BOUNDS.to_vec(),
            counts: self.buckets.clone(),
            count: self.calls,
            sum: self.total_micros,
        }
    }

    /// Estimated p50 execution time, µs (0 before any call).
    pub fn p50_micros(&self) -> u64 {
        self.latency().quantile(0.5).unwrap_or(0.0) as u64
    }

    /// Estimated p99 execution time, µs (0 before any call).
    pub fn p99_micros(&self) -> u64 {
        self.latency().quantile(0.99).unwrap_or(0.0) as u64
    }
}

#[derive(Debug)]
struct Slot {
    stats: StatementStats,
    /// Recency tick for LRU eviction (larger = more recent).
    tick: u64,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<String, Slot>,
    tick: u64,
    evictions: u64,
}

/// A bounded, thread-safe store of per-fingerprint statement statistics.
#[derive(Debug)]
pub struct StatementStore {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl Default for StatementStore {
    fn default() -> StatementStore {
        StatementStore::new()
    }
}

impl StatementStore {
    /// An empty store with [`DEFAULT_STATEMENT_CAPACITY`].
    pub fn new() -> StatementStore {
        StatementStore::with_capacity(DEFAULT_STATEMENT_CAPACITY)
    }

    /// An empty store keeping at most `capacity` fingerprints.
    pub fn with_capacity(capacity: usize) -> StatementStore {
        StatementStore {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
        }
    }

    /// Records one execution of the statement with this fingerprint,
    /// evicting the least-recently-updated entry if the store is full.
    pub fn record(
        &self,
        fingerprint: &str,
        micros: u64,
        rows_returned: u64,
        rows_scanned: u64,
        paths: &PathMix,
    ) {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.entries.contains_key(fingerprint) && inner.entries.len() >= self.capacity {
            if let Some(oldest) = inner
                .entries
                .iter()
                .min_by_key(|(_, s)| s.tick)
                .map(|(k, _)| k.clone())
            {
                inner.entries.remove(&oldest);
                inner.evictions += 1;
            }
        }
        let slot = inner
            .entries
            .entry(fingerprint.to_string())
            .or_insert_with(|| Slot {
                stats: StatementStats::new(fingerprint),
                tick,
            });
        slot.tick = tick;
        slot.stats
            .observe(micros, rows_returned, rows_scanned, paths);
    }

    /// Distinct fingerprints currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// True when no statement has been recorded (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries evicted by the LRU bound so far.
    pub fn evictions(&self) -> u64 {
        self.inner.lock().unwrap().evictions
    }

    /// The stats for one fingerprint, if present.
    pub fn get(&self, fingerprint: &str) -> Option<StatementStats> {
        self.inner
            .lock()
            .unwrap()
            .entries
            .get(fingerprint)
            .map(|s| s.stats.clone())
    }

    /// The `limit` most expensive statements by total execution time,
    /// ties broken by fingerprint for deterministic output.
    pub fn top(&self, limit: usize) -> Vec<StatementStats> {
        let inner = self.inner.lock().unwrap();
        let mut all: Vec<StatementStats> =
            inner.entries.values().map(|s| s.stats.clone()).collect();
        all.sort_by(|a, b| {
            b.total_micros
                .cmp(&a.total_micros)
                .then_with(|| a.fingerprint.cmp(&b.fingerprint))
        });
        all.truncate(limit);
        all
    }

    /// Drops every entry (recency and eviction history included).
    pub fn clear(&self) {
        *self.inner.lock().unwrap() = Inner::default();
    }

    /// Serializes every entry to a compact binary image for the
    /// checkpoint. The format is versioned; [`restore`](Self::restore)
    /// reads it back.
    pub fn encode(&self) -> Vec<u8> {
        let inner = self.inner.lock().unwrap();
        // Stable order keeps the image deterministic for a given state.
        let mut entries: Vec<&Slot> = inner.entries.values().collect();
        entries.sort_by_key(|a| a.tick);
        let mut out = Vec::new();
        out.push(1u8); // format version
        put_len(&mut out, entries.len());
        for slot in entries {
            let s = &slot.stats;
            put_str(&mut out, &s.fingerprint);
            for v in [
                s.calls,
                s.total_micros,
                s.rows_returned,
                s.rows_scanned,
                s.paths.scan,
                s.paths.index_eq,
                s.paths.index_range,
                s.paths.ord,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            put_len(&mut out, s.buckets.len());
            for b in &s.buckets {
                out.extend_from_slice(&b.to_le_bytes());
            }
        }
        out
    }

    /// Replaces the store's contents with a previously [`encode`]d
    /// image. Returns `false` (leaving the store untouched) on any
    /// malformed input — a bad image must never fail an open.
    ///
    /// [`encode`]: Self::encode
    pub fn restore(&self, bytes: &[u8]) -> bool {
        let Ok(decoded) = decode_image(bytes) else {
            return false;
        };
        let mut inner = self.inner.lock().unwrap();
        let mut fresh = Inner::default();
        for stats in decoded.into_iter().take(self.capacity) {
            fresh.tick += 1;
            let tick = fresh.tick;
            fresh
                .entries
                .insert(stats.fingerprint.clone(), Slot { stats, tick });
        }
        *inner = fresh;
        true
    }
}

fn decode_image(bytes: &[u8]) -> codec::Result<Vec<StatementStats>> {
    let mut r = Reader::new(bytes);
    match r.u8()? {
        1 => {}
        v => return Err(codec::Error::Invalid("statistics format", v.into())),
    }
    // Each entry is at least 4 + 8*8 + 4 bytes: a count beyond that
    // bound is garbage, not a huge store.
    let out = r.list(72, |r| {
        let mut stats = StatementStats::new(&r.string()?);
        stats.calls = r.u64()?;
        stats.total_micros = r.u64()?;
        stats.rows_returned = r.u64()?;
        stats.rows_scanned = r.u64()?;
        stats.paths.scan = r.u64()?;
        stats.paths.index_eq = r.u64()?;
        stats.paths.index_range = r.u64()?;
        stats.paths.ord = r.u64()?;
        let blen = r.u32()? as usize;
        if blen > LATENCY_MICROS_BOUNDS.len() + 1 {
            return Err(codec::Error::Invalid("bucket count", blen as u64));
        }
        let mut buckets = vec![0u64; LATENCY_MICROS_BOUNDS.len() + 1];
        for b in buckets.iter_mut().take(blen) {
            *b = r.u64()?;
        }
        stats.buckets = buckets;
        Ok(stats)
    })?;
    r.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(scan: u64, eq: u64) -> PathMix {
        PathMix {
            scan,
            index_eq: eq,
            ..PathMix::default()
        }
    }

    #[test]
    fn aggregates_by_fingerprint() {
        let store = StatementStore::new();
        store.record("retrieve (p.name) where p.name = ?", 100, 1, 10, &mix(1, 0));
        store.record("retrieve (p.name) where p.name = ?", 300, 2, 10, &mix(0, 1));
        store.record("retrieve (q.x)", 50, 5, 5, &mix(1, 0));
        assert_eq!(store.len(), 2);
        let s = store.get("retrieve (p.name) where p.name = ?").unwrap();
        assert_eq!(s.calls, 2);
        assert_eq!(s.total_micros, 400);
        assert_eq!(s.rows_returned, 3);
        assert_eq!(s.rows_scanned, 20);
        assert_eq!(s.paths, mix(1, 1));
        assert!(s.p50_micros() > 0);
        assert!(s.p99_micros() >= s.p50_micros());
    }

    #[test]
    fn top_orders_by_total_time() {
        let store = StatementStore::new();
        store.record("cheap", 10, 0, 0, &PathMix::default());
        store.record("expensive", 10_000, 0, 0, &PathMix::default());
        store.record("middling", 500, 0, 0, &PathMix::default());
        let top = store.top(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].fingerprint, "expensive");
        assert_eq!(top[1].fingerprint, "middling");
    }

    #[test]
    fn lru_bound_evicts_coldest() {
        let store = StatementStore::with_capacity(2);
        store.record("a", 1, 0, 0, &PathMix::default());
        store.record("b", 1, 0, 0, &PathMix::default());
        store.record("a", 1, 0, 0, &PathMix::default()); // refresh a
        store.record("c", 1, 0, 0, &PathMix::default()); // evicts b
        assert_eq!(store.len(), 2);
        assert!(store.get("b").is_none());
        assert!(store.get("a").is_some());
        assert!(store.get("c").is_some());
        assert_eq!(store.evictions(), 1);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The image `encode_restore_roundtrip` writes.
    const PINNED_IMAGE: &str = concat!(
        "0102000000040000007131203f0200000000000000c8000000000000000600000000000000500000",
        "00000000000400000000000000020000000000000000000000000000000000000000000000100000",
        "00000000000000000000000000000000000000000000000000010000000000000001000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "000000000000000000040000007132203f0100000000000000070000000000000000000000000000",
        "00010000000000000000000000000000000100000000000000000000000000000000000000000000",
        "00100000000100000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000",
    );

    #[test]
    fn encode_restore_roundtrip() {
        let store = StatementStore::new();
        store.record("q1 ?", 120, 3, 40, &mix(2, 1));
        store.record("q1 ?", 80, 3, 40, &mix(2, 1));
        store.record("q2 ?", 7, 0, 1, &mix(0, 1));
        let image = store.encode();
        assert_eq!(hex(&image), PINNED_IMAGE);
        let back = StatementStore::new();
        assert!(back.restore(&image));
        assert_eq!(back.len(), 2);
        assert_eq!(back.get("q1 ?"), store.get("q1 ?"));
        assert_eq!(back.get("q2 ?"), store.get("q2 ?"));
        // Re-encoding the restored store reproduces the same image.
        assert_eq!(back.encode(), image);
    }

    #[test]
    fn restore_rejects_garbage_without_touching_contents() {
        let store = StatementStore::new();
        store.record("keep", 1, 0, 0, &PathMix::default());
        for garbage in [
            &b""[..],
            &b"\x02"[..],                     // wrong version
            &b"\x01\xff\xff\xff\xff"[..],     // absurd count
            &b"\x01\x01\x00\x00\x00\x04"[..], // truncated entry
        ] {
            assert!(!store.restore(garbage), "{garbage:?}");
        }
        let mut image = store.encode();
        image.push(0); // trailing garbage
        assert!(!store.restore(&image));
        assert_eq!(store.len(), 1, "failed restores leave the store alone");
    }

    #[test]
    fn restore_honors_capacity() {
        let big = StatementStore::new();
        for i in 0..10 {
            big.record(&format!("q{i}"), 1, 0, 0, &PathMix::default());
        }
        let small = StatementStore::with_capacity(3);
        assert!(small.restore(&big.encode()));
        assert_eq!(small.len(), 3);
    }
}
